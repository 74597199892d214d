"""Almost-orthogonal block decomposition of a chain in leading form.

The chain in leading form has the kernel

    K(x', x) = (2 pi hbar)^(-d) int exp(i(<xi_n(theta), x'> + A_n(theta)
               - <theta, x>)/hbar) det_chain(theta)^(1/2) b0(x', theta) dtheta,

and the blocks insert a cutoff chi(xi_tilde_n(theta)/(2 pi hbar) - ell) that
localizes the leaf coordinates of the final momentum to a cell of side
2 pi hbar.  The cutoff chi1(t) = s(t+1) - s(t) telescopes, so the cells sum
to one exactly and the blocks reassemble the chain to machine precision.

On the lattice every block factors as A_ell = P D_ell F with shared
leading-form columns P (N^d x K over the live columns of the window lattice:
the momenta theta where psi_1(theta) != 0, the only columns P has nonzero;
column theta is the leading form (`fio._leading_blocks`) at theta, the WKB
ansatz, times dxi (2 pi hbar)^(-d/2)), a diagonal cell weight D_ell, and the
restricted Fourier matrix F satisfying F F^H = (wx/wxi) I.  Every block and
cross norm is then the top eigenvalue of a Hermitian matrix read from the
K x K Gram matrix G = P^H P, restricted to the columns where the weights are
nonzero (the others change no singular value):

    ||A_ell||          = sqrt(c lambda_max(D_ell G D_ell))
    ||A_l^* A_m||      = c lambda_max(X^H X)^(1/2),  X = D_l G D_m
    ||A_l A_m^*||      = c lambda_max(sqrt(D_l D_m) G sqrt(D_l D_m))   (c = wx/wxi)

and the parent, the reassembled sum and its defect are
sqrt(c lambda_max(D G D)) for D = 1, sum_ell D_ell and sum_ell D_ell - 1.
sqrt(D_l D_l) = D_l, so ||A_l A_l^*|| is ||A_l||^2, one eigenvalue per cell.
G is summed from row blocks of the leading form, so no dense block and no
N^d x K matrix is formed; on an even chain G is float64, summed over one row
of each +-x pair.  The cells are found from every window momentum, and a cell
with no live column has norms of exactly 0.

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
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .dynamics import ChainSpec, common_block_rank, evolve_momentum
from .symbols import Box, smoothstep
from .fio import FioOperator, _centred, _fold, _leading_blocks, _live_columns, _live_rows

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
# rows (the default 2^13 entries of `fio._leading_blocks` at K 1,287) the 96^2
# build took twice as long; at 1,024 it peaked at 173 MB, not 90 MB.  128 or
# 192 rows moved the peaks a few MB either way, through heap reuse.
_GRAM_ROW_BLOCK = 256

# entries per batch of star-norm blocks, of G's dtype (512 KiB float64, 1 MiB
# complex): a row of wide cells is split into several batches rather than stacked whole
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
    shared leading-form columns on their live momenta `theta`, and one
    diagonal weight per cell on those columns.

    Every norm is computed at construction, and the methods read the tables.
    In order: one lambda_max(D_ell G D_ell) per cell (its block norm and
    prod_norm(ell, ell)), one `_star_row` per cell row, one product
    eigenvalue per pair of adjacent cells, lambda_max(G) (the parent norm,
    and the sum norm where the weights add up to exactly 1) and the defect.
    """

    grid: GridSpec
    theta: np.ndarray
    gram: np.ndarray
    ells: list[tuple[int, ...]]
    weights: dict[tuple[int, ...], np.ndarray]
    c: float
    label: str = ""

    def __post_init__(self):
        c, weights = self.c, self.weights
        tops = {l: self._gram_max(weights[l]) for l in self.ells}
        self._norms = {l: math.sqrt(c * top) for l, top in tops.items()}
        cells = {l: (np.flatnonzero(w), w[w != 0.0]) for l, w in weights.items()}
        rows = [self._star_row(i, cells) for i in range(len(self.ells))]
        # each unordered pair once, in combinations_with_replacement order
        self._table, self._seps = {}, {}
        for l, row in zip(self.ells, rows):
            for m, star in row.items():
                sep = self._seps[l, m] = self._seps[m, l] = self.separation(l, m)
                if sep == 1:
                    prod = c * self._gram_max(np.sqrt(weights[l] * weights[m]))
                else:  # sqrt(D_l D_l) = D_l; cells two or more apart have disjoint weights
                    prod = c * tops[l] if sep == 0 else 0.0
                self._table[l, m] = self._table[m, l] = (star, prod)
        self._parent = math.sqrt(c * float(np.linalg.eigvalsh(self.gram).max(initial=0.0)))
        total = sum(weights.values())
        self._sum = self._parent if np.all(total == 1.0) else math.sqrt(c * self._gram_max(total))
        self._defect = math.sqrt(c * self._gram_max(total - 1.0))

    def _gram_max(self, w: np.ndarray) -> float:
        """lambda_max(D G D) = sigma_max(P D)^2, D = diag(w), over w's nonzero columns; 0 if none."""
        cols = np.flatnonzero(w)
        if cols.size == 0:
            return 0.0
        h = self.gram[np.ix_(cols, cols)] * np.outer(w[cols], w[cols])
        return max(float(np.linalg.eigvalsh(h)[-1]), 0.0)

    def _star_row(self, i: int, cells: dict) -> dict:
        """c sigma_max(D_l G D_m) for cell l = ells[i] and every later cell m.

        `cells` holds each cell's nonzero columns and its weights on them.
        The blocks X of the cells with live columns, zero-padded to the widest
        (padding changes no singular value), are stacked up to
        `_STAR_BATCH_ENTRIES` entries, and sigma_max(X)^2 is the top eigenvalue
        of the batch's Gram matrices, X X^H or X^H X, whichever is smaller
        (relative error O(eps), as on the norm path); a pair with an empty
        cell is exactly 0.
        """
        rows, wl = cells[self.ells[i]]
        later = self.ells[i:]
        out = dict.fromkeys(later, 0.0)
        live = [m for m in later if rows.size and cells[m][0].size]
        gram = self.gram[rows]
        while live:
            batch, width = [], 0
            for m in live:
                wider = max(width, cells[m][0].size)
                if batch and (len(batch) + 1) * rows.size * wider > _STAR_BATCH_ENTRIES:
                    break
                batch.append(m)
                width = wider
            live = live[len(batch) :]
            stack = np.zeros((len(batch), rows.size, width), dtype=self.gram.dtype)
            for block, m in zip(stack, batch):
                cols, wm = cells[m]
                block[:, : cols.size] = gram[:, cols] * np.outer(wl, wm)
            adj = stack.conj().swapaxes(1, 2)
            square = stack @ adj if rows.size <= width else adj @ stack
            for m, top in zip(batch, np.linalg.eigvalsh(square)[:, -1]):
                out[m] = self.c * math.sqrt(max(float(top), 0.0))
        return out

    def block_norm(self, ell) -> float:
        return self._norms[tuple(ell)]

    def block_norms(self) -> dict[tuple[int, ...], float]:
        """||A_ell|| for every cell."""
        return self._norms

    def parent_norm(self) -> float:
        return self._parent

    def sum_norm(self) -> float:
        return self._sum

    def reconstruction_error(self) -> float:
        """Operator norm of (sum of blocks) - parent; telescoping makes it ~0."""
        return self._defect

    def star_norm(self, ell, em) -> float:
        """||A_ell^* A_em||; symmetric in its arguments, from the earlier cell's row."""
        return self._table[tuple(ell), tuple(em)][0]

    def prod_norm(self, ell, em) -> float:
        """||A_ell A_em^*||; exactly 0 for cells two or more apart (disjoint weights), ||A_ell||^2 for ell = em."""
        return self._table[tuple(ell), tuple(em)][1]

    def pair_norms(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[float, float]]:
        """(ell, em) -> (star norm, prod norm), in both orders of each pair."""
        return self._table

    def cotlar_bound(self) -> float:
        return _row_sum_bound([self._table[l, m] for m in self.ells] for l in self.ells)

    def separation(self, ell, em) -> int:
        """max_a |ell_a - em_a|; a pair of the family's cells reads the table built at construction."""
        sep = self._seps.get((tuple(ell), tuple(em)))
        return int(max(abs(a - b) for a, b in zip(ell, em))) if sep is None else sep


def build_block_family(
    ops: list[FioOperator],
    omega2_tilde: Box,
    n: int | None = None,
    label: str = "",
) -> BlockFamily:
    """Assemble the factored blocks of the leading form of a chain.

    The leading-form columns P (the leading form at the window momenta,
    each the WKB ansatz at its momentum, times the quadrature prefactor) enter only through G = P^H P.  G, the family's
    `theta` and every cell weight cover only the live columns
    (`fio._live_columns`, where psi_1(theta) != 0; P vanishes on the
    others).  G is summed from P's row blocks (`fio._leading_blocks`,
    `_GRAM_ROW_BLOCK` live rows each) as G += B^H B and scaled by the squared
    prefactor once; P and its zero rows are never formed.  On an even chain
    (every x' cutoff and the first x cutoff `fio._centred`, alpha and grad
    alpha 0 on the orbit of the live columns) G is the float64 C^T C + S^T S
    of the blocks' real and imaginary parts over the rows `fio._fold` keeps,
    each counted for itself and its mirror.  The cells are found from every
    window momentum, so one may have no live column.

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

    symbols = [op.symbol for op in ops]
    live = _live_columns(symbols, theta)
    orbit = evolve_momentum(chain, theta, n)
    even = _centred(symbols[0].omega, *(s.omega1 for s in symbols)) and not any(
        np.any(f(xi)) for m, xi in zip(maps, orbit[:, live]) for f in (m.alpha, m.grad_alpha))
    rows, count = _fold(_live_rows(symbols, [n], grid), grid) if even else (None, None)
    gram = np.zeros((live.size, live.size), dtype=float if even else complex)
    for at, _, (block,) in _leading_blocks(chain, symbols, theta, [n], grid, _GRAM_ROW_BLOCK, rows):
        if even:  # Re(B^H B) = C^T C + S^T S, each kept row counted for itself and its mirror
            for part in (block.real, block.imag):
                gram += (count[at, None] * part).T @ part
        else:
            gram += block.conj().T @ block
    gram *= (grid.momentum_weight() * (2.0 * math.pi * grid.hbar) ** (-d / 2.0)) ** 2

    xi_tilde_n = orbit[-1, :, r:]
    partition = PartitionOfUnity.for_hbar(d - r, grid.hbar)
    ells = partition.active_indices(xi_tilde_n)
    weights = {ell: partition.weight(xi_tilde_n[live], ell) for ell in ells}
    c = grid.position_weight() / grid.momentum_weight()
    return BlockFamily(grid=grid, theta=theta[live], gram=gram, ells=ells, weights=weights, c=c, label=label)


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
