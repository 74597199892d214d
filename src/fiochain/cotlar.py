"""Almost-orthogonal block decomposition of a chain in leading form.

The chain in leading form has the kernel

    K(x', x) = (2 pi hbar)^(-d) int exp(i(<xi_n(theta), x'> + A_n(theta)
               - <theta, x>)/hbar) det_chain(theta)^(1/2) b0(x', theta) dtheta,

and the blocks insert a cutoff chi(xi_tilde_n(theta)/(2 pi hbar) - ell) that
localizes the leaf coordinates of the final momentum to a cell of side
2 pi hbar.  The cutoff chi1(t) = s(t+1) - s(t) telescopes, so the cells sum
to one exactly and the blocks reassemble the chain to machine precision.

On the lattice every block factors as A_ell = P D_ell F with shared
leading-form columns P (N^d x K over the window lattice S; column theta is
`fio.leading_form` at theta, the WKB ansatz, times dxi (2 pi hbar)^(-d/2)), a
diagonal cell weight D_ell, and the restricted Fourier matrix F satisfying
F F^H = (wx/wxi) I.  Every block and cross norm is then read from the K x K
Gram matrix G = P^H P, restricted to the columns where the weights are
nonzero (the others change no singular value):

    ||A_ell||          = sqrt(c lambda_max(D_ell G D_ell))
    ||A_l^* A_m||      = c sigma_max(D_l G D_m)
    ||A_l A_m^*||      = c lambda_max(sqrt(D_l D_m) G sqrt(D_l D_m))   (c = wx/wxi)

and the parent, the reassembled sum and its defect are
sqrt(c lambda_max(D G D)) for D = 1, sum_ell D_ell and sum_ell D_ell - 1.
G is summed from row blocks of the leading form, so no dense block and no
N^d x K matrix is formed, and a cell with no live column has norms of
exactly 0.

The almost-orthogonality constant is

    cotlar_bound = max( sup_l sum_m ||A_l^* A_m||^(1/2),
                        sup_l sum_m ||A_l A_m^*||^(1/2) ),

and bounds the norm of the reassembled sum.  The product table is banded by
construction (cells overlap only when adjacent); the star table decays
because distant cells receive stationary-phase-incompatible momenta.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec
from .dynamics import ChainSpec, common_block_rank, evolve_momentum
from .symbols import Box, smoothstep
from .fio import FioOperator, _leading_blocks

__all__ = [
    "chi1",
    "PartitionOfUnity",
    "BlockFamily",
    "build_block_family",
    "cotlar_stein_bound",
    "OffdiagFit",
    "offdiagonal_decay_fit",
    "CotlarReport",
    "family_report",
]

ZERO_FLOOR = 1e-13

# leading-form rows per Gram block.  Each G += B^H B streams all of G, so at 6
# rows (`leading_form`'s 2^13 entries at K 1,287) the 96^2 build took twice as
# long; at 1,024 it peaked at 173 MB, not 90 MB.  128 or 192 rows moved the
# peaks a few MB either way, through heap reuse.
_GRAM_ROW_BLOCK = 256

# complex entries per batched star-norm SVD (1 MiB): a row of wide cells is
# split into several batches rather than stacked whole
_STAR_BATCH_ENTRIES = 1 << 16


def chi1(t):
    """Unit cell of the telescoping partition: s(t+1) - s(t), support [-1, 1]."""
    t = np.asarray(t, dtype=float)
    return smoothstep(t + 1.0) - smoothstep(t)


@dataclass(frozen=True)
class PartitionOfUnity:
    """Product partition of unity on cells of side `scale` (= 2 pi hbar)."""

    n_axes: int
    scale: float

    @classmethod
    def for_hbar(cls, n_axes: int, hbar: float) -> "PartitionOfUnity":
        return cls(n_axes, 2.0 * math.pi * hbar)

    def weight(self, xi_tilde: np.ndarray, ell) -> np.ndarray:
        """chi values of cell `ell` at points (..., n_axes)."""
        pts = np.asarray(xi_tilde, dtype=float)
        if pts.shape[-1] != self.n_axes:
            raise ValueError("point dimension does not match the partition")
        ell = np.asarray(ell, dtype=float)
        t = pts / self.scale - ell
        w = chi1(t[..., 0])
        for a in range(1, self.n_axes):
            w = w * chi1(t[..., a])
        return w

    def active_indices(self, xi_tilde: np.ndarray) -> list[tuple[int, ...]]:
        """All cells whose support can meet the given points.

        The returned range telescopes to exactly one on the points, so the
        cells reassemble whatever is partitioned with them.
        """
        pts = np.atleast_2d(np.asarray(xi_tilde, dtype=float))
        t = pts / self.scale
        ranges = []
        for a in range(self.n_axes):
            lo = int(math.ceil(t[:, a].min() - 1.0))
            hi = int(math.floor(t[:, a].max() + 1.0))
            ranges.append(range(lo, hi + 1))
        return [tuple(idx) for idx in itertools.product(*ranges)]


def _sigma_max(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def _row_sum_bound(rows) -> float:
    """Largest row sum of star^(1/2) or prod^(1/2); rows hold (star, prod) pairs summed in order."""
    best = 0.0
    for row in rows:
        star = prod = 0.0
        for s, p in row:
            star += math.sqrt(s)
            prod += math.sqrt(p)
        best = max(best, star, prod)
    return best


@dataclass
class BlockFamily:
    """Factored blocks of one chain: the K x K Gram matrix G = P^H P of the
    shared leading-form columns, and one diagonal weight per cell.

    Block norms, pair norms and lambda_max(G) are computed once and cached.
    Star norms are filled a cell row at a time (see `star_norm`).
    """

    grid: GridSpec
    theta: np.ndarray
    gram: np.ndarray
    ells: list[tuple[int, ...]]
    weights: dict[tuple[int, ...], np.ndarray]
    c: float
    label: str = ""
    _block_norms: dict | None = field(default=None, repr=False)
    _pairs: dict | None = field(default=None, repr=False)
    _gram_top: float | None = field(default=None, repr=False)
    _cells: dict | None = field(default=None, repr=False)
    _star_rows: dict = field(default_factory=dict, repr=False)

    def _cell(self, ell) -> tuple[int, np.ndarray, np.ndarray]:
        """Cell ell's position in `ells`, nonzero columns and weights on them; computed once."""
        if self._cells is None:
            self._cells = {}
            for i, l in enumerate(self.ells):
                cols = np.flatnonzero(self.weights[l])
                self._cells[l] = (i, cols, self.weights[l][cols])
        return self._cells[tuple(ell)]

    def _gram_max(self, w: np.ndarray) -> float:
        """lambda_max(D G D) = sigma_max(P D)^2, D = diag(w), over w's nonzero columns; 0 if none.

        w identically 1 (the parent; the sum where the cells add up to 1) reads G itself.
        """
        if np.all(w == 1.0):
            if self._gram_top is None:
                self._gram_top = max(float(np.linalg.eigvalsh(self.gram)[-1]), 0.0)
            return self._gram_top
        cols = np.flatnonzero(w)
        if cols.size == 0:
            return 0.0
        h = self.gram[np.ix_(cols, cols)] * np.outer(w[cols], w[cols])
        return max(float(np.linalg.eigvalsh(h)[-1]), 0.0)

    def block_norm(self, ell) -> float:
        return math.sqrt(self.c * self._gram_max(self.weights[tuple(ell)]))

    def block_norms(self) -> dict[tuple[int, ...], float]:
        """||A_ell|| for every cell, each evaluated once per family."""
        if self._block_norms is None:
            self._block_norms = {ell: self.block_norm(ell) for ell in self.ells}
        return self._block_norms

    def parent_norm(self) -> float:
        return math.sqrt(self.c * self._gram_max(np.ones(len(self.theta))))

    def _weight_total(self) -> np.ndarray:
        return sum(self.weights.values())

    def sum_norm(self) -> float:
        return math.sqrt(self.c * self._gram_max(self._weight_total()))

    def reconstruction_error(self) -> float:
        """Operator norm of (sum of blocks) - parent; telescoping makes it ~0."""
        return math.sqrt(self.c * self._gram_max(self._weight_total() - 1.0))

    def star_norm(self, ell, em) -> float:
        """||A_ell^* A_em||; symmetric in its arguments, read from the earlier cell's row."""
        l, m = sorted((tuple(ell), tuple(em)), key=lambda cell: self._cell(cell)[0])
        if l not in self._star_rows:
            self._star_rows[l] = self._star_row(l)
        return self._star_rows[l][m]

    def _star_row(self, ell) -> dict:
        """c sigma_max(D_ell G D_m) for cell ell and every later cell m.

        The blocks of the cells with live columns, zero-padded to the widest
        (padding changes no singular value), go through one batched SVD per
        `_STAR_BATCH_ENTRIES` entries; a pair with an empty cell is exactly 0.
        """
        start, rows, wl = self._cell(ell)
        later = self.ells[start:]
        out = dict.fromkeys(later, 0.0)
        live = [m for m in later if rows.size and self._cell(m)[1].size]
        gram = self.gram[rows]
        while live:
            batch, width = [], 0
            for m in live:
                wider = max(width, self._cell(m)[1].size)
                if batch and (len(batch) + 1) * rows.size * wider > _STAR_BATCH_ENTRIES:
                    break
                batch.append(m)
                width = wider
            live = live[len(batch) :]
            stack = np.zeros((len(batch), rows.size, width), dtype=complex)
            for block, m in zip(stack, batch):
                _, cols, wm = self._cell(m)
                block[:, : cols.size] = gram[:, cols] * np.outer(wl, wm)
            for m, s in zip(batch, np.linalg.svd(stack, compute_uv=False)[:, 0]):
                out[m] = self.c * float(s)
        return out

    def prod_norm(self, ell, em) -> float:
        """||A_ell A_em^*||; exactly 0 for cells two or more apart, whose weights are disjoint."""
        if self.separation(ell, em) >= 2:
            return 0.0
        w = np.sqrt(self.weights[tuple(ell)] * self.weights[tuple(em)])
        return self.c * self._gram_max(w)

    def pair_norms(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[float, float]]:
        """(ell, em) -> (star norm, prod norm); each unordered pair is evaluated once."""
        if self._pairs is None:
            self._pairs = {}
            for l, m in itertools.combinations_with_replacement(self.ells, 2):
                self._pairs[l, m] = self._pairs[m, l] = (self.star_norm(l, m), self.prod_norm(l, m))
        return self._pairs

    def cotlar_bound(self) -> float:
        pairs = self.pair_norms()
        return _row_sum_bound([pairs[l, m] for m in self.ells] for l in self.ells)

    def separation(self, ell, em) -> int:
        return int(max(abs(a - b) for a, b in zip(ell, em)))


def build_block_family(
    ops: list[FioOperator],
    omega2_tilde: Box,
    n: int | None = None,
    label: str = "",
) -> BlockFamily:
    """Assemble the factored blocks of the leading form of a chain.

    The leading-form columns P (`fio.leading_form` at every window momentum,
    the builder of the chain in leading form and of the WKB ansatz, times
    the quadrature prefactor) enter only through G = P^H P.  G is summed
    from P's row blocks (`fio._leading_blocks`, `_GRAM_ROW_BLOCK` live rows
    each, over the columns where psi_1 != 0) as G += B^H B; P and its zero
    rows are never formed, and G is 0 on the other columns.

    Every map must carry the same block split; the leaf coordinates are the
    last d - r axes.  The momentum quadrature runs over the lattice inside
    the enlarged window, which must contain the theta support of the first
    step (columns outside it vanish anyway through the symbol product).
    """
    if not ops:
        raise ValueError("need at least one operator")
    if n is None:
        n = len(ops)
    ops = ops[:n]
    grid = ops[0].grid
    if any(op.grid != grid for op in ops):
        raise ValueError("all operators must share one grid")
    maps = [op.map for op in ops]
    r = common_block_rank(maps)
    d = grid.dimension
    if r >= d:
        raise ValueError("no leaf coordinates to partition (r must be < d)")
    chain = ChainSpec(tuple(maps))

    pts = grid.momentum_points()
    theta = pts[omega2_tilde.contains(pts)]
    if len(theta) == 0:
        raise ValueError("the window contains no momentum lattice points")

    scale = grid.momentum_weight() * (2.0 * math.pi * grid.hbar) ** (-d / 2.0)
    symbols = [op.symbol for op in ops]
    cols, live_gram = [], 0.0  # G = 0 when no row is live
    for _, cols, (block,) in _leading_blocks(chain, symbols, theta, [n], grid, _GRAM_ROW_BLOCK):
        block *= scale
        live_gram += block.conj().T @ block
    gram = np.zeros((len(theta), len(theta)), dtype=complex)
    gram[np.ix_(cols, cols)] = live_gram

    xi_tilde_n = evolve_momentum(chain, theta, n)[-1, :, r:]
    partition = PartitionOfUnity.for_hbar(d - r, grid.hbar)
    ells = partition.active_indices(xi_tilde_n)
    weights = {ell: partition.weight(xi_tilde_n, ell) for ell in ells}
    c = grid.position_weight() / grid.momentum_weight()
    return BlockFamily(
        grid=grid,
        theta=theta,
        gram=gram,
        ells=ells,
        weights=weights,
        c=c,
        label=label,
    )


def cotlar_stein_bound(operators) -> float:
    """Almost-orthogonality constant of a finite family of matrices.

    All matrices must act on one space.  The result bounds the operator norm
    of the sum of the family.
    """
    mats = [np.asarray(op) for op in operators]
    if not mats:
        raise ValueError("need at least one operator")
    m = len(mats)
    star = np.zeros((m, m))
    prod = np.zeros((m, m))
    for a in range(m):
        for b in range(a, m):
            star[a, b] = star[b, a] = _sigma_max(mats[a].conj().T @ mats[b])
            prod[a, b] = prod[b, a] = _sigma_max(mats[a] @ mats[b].conj().T)
    return _row_sum_bound(zip(s, p) for s, p in zip(star, prod))


@dataclass
class OffdiagFit:
    exponent: float
    r_squared: float
    n_points: int
    infinite_decay: bool


def offdiagonal_decay_fit(entries) -> OffdiagFit:
    """Least-squares exponent of log(value) against log(1 + separation).

    `entries` is an iterable of (separation, value) with separation >= 1; the
    worst value at each separation forms the decay envelope that is fitted as
    value ~ C (1 + sep)^(-exponent).  Values below ZERO_FLOOR times the
    largest entry are treated as exact zeros and excluded.  Degenerate but
    valid outcomes are reported as infinite decay: no off-diagonal pairs at
    all (single-block family), everything zero, or a compactly supported
    envelope with fewer than 3 surviving separations.  A fit over nonzero
    values needs at least 5 distinct separations in the input.
    """
    by_sep: dict[int, float] = {}
    vmax = 0.0
    for sep, value in entries:
        sep = int(sep)
        if sep < 1:
            continue
        by_sep[sep] = max(by_sep.get(sep, 0.0), float(value))
        vmax = max(vmax, float(value))
    if not by_sep:
        return OffdiagFit(math.inf, 1.0, 0, True)
    floor = ZERO_FLOOR * max(vmax, 1e-300)
    seps = np.array(sorted(s for s, v in by_sep.items() if v > floor), dtype=float)
    if seps.size == 0:
        return OffdiagFit(math.inf, 1.0, 0, True)
    if len(by_sep) < 5:
        raise ValueError("need at least 5 distinct separations for a decay fit")
    if seps.size < 3:
        # zeros beyond the last nonzero cell: compact support in separation
        return OffdiagFit(math.inf, 1.0, int(seps.size), True)
    vals = np.array([by_sep[int(s)] for s in seps])
    x = np.log1p(seps)
    y = np.log(vals)
    slope, _ = np.polyfit(x, y, 1)
    pred = slope * x + (y - slope * x).mean()
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum((y - pred) ** 2)) / ss_tot if ss_tot > 0.0 else 1.0
    return OffdiagFit(float(-slope), r2, int(seps.size), False)


@dataclass
class CotlarReport:
    scenario: str
    hbar: float
    n: int
    n_blocks: int
    n_nonzero_blocks: int
    cotlar_bound: float
    parent_norm: float
    sum_norm: float
    reconstruction_error: float
    max_block_norm: float
    decay_exponent: float
    decay_r_squared: float
    infinite_decay: bool


def family_report(family: BlockFamily, scenario: str, hbar: float, n: int) -> CotlarReport:
    """Summarize a block family: bounds, reassembly error, and decay."""
    norms = family.block_norms()
    nonzero = sum(1 for v in norms.values() if v > 0.0)
    entries = []
    for (l, m), (star, _) in family.pair_norms().items():
        sep = family.separation(l, m)
        if sep >= 1:
            entries.append((sep, star))
    fit = offdiagonal_decay_fit(entries)
    return CotlarReport(
        scenario=scenario,
        hbar=hbar,
        n=n,
        n_blocks=len(family.ells),
        n_nonzero_blocks=nonzero,
        cotlar_bound=family.cotlar_bound(),
        parent_norm=family.parent_norm(),
        sum_norm=family.sum_norm(),
        reconstruction_error=family.reconstruction_error(),
        max_block_norm=max(norms.values()) if norms else 0.0,
        decay_exponent=fit.exponent,
        decay_r_squared=fit.r_squared,
        infinite_decay=fit.infinite_decay,
    )
