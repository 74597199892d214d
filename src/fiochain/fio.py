"""Quantization of one classical step into an oscillatory-integral operator.

The operator attached to a momentum map (p, alpha) and a product-form symbol
u(x) chi(x') psi(theta) acts as

    (P f)(x') = (2 pi hbar)^(-d) iint exp(i S(x, x', theta)/hbar)
                (det grad_p(theta))^(1/2) a0(x, x', theta) f(x) dx dtheta,

with S = <p(theta), x'> - <theta, x> + alpha(theta).  The x integral is the
hbar-Fourier transform of u*f, so on the grid the whole operator collapses to

    g(x') = (2 pi hbar)^(-d/2) sum_theta exp(i(<p(theta), x'> + alpha(theta))/hbar)
            (det grad_p(theta))^(1/2) chi(x') psi(theta) (F_hbar(u f))(theta) dtheta^d,

a single dense (N^d x K) phase matrix applied to the momentum samples, where K
is the number of lattice points inside the theta support.  The phase is
linear in x and the cutoffs are products over axes, so P and the forward rows
F of a step (P @ F) are column-wise Kronecker products of d per-axis factors.
P does not depend on the x cutoff: a step keeps its phase side (P, its
factors, its Gram matrix) on its cutoff-free twin, `FioOperator.phase_step`.
F's per-axis K_a x N rows come from one builder, read by the Hermitian root
of F F^H, the links F @ P_prev and `adjoint_apply`; the chain norms read
P^H P, the links and that root, each norm the top eigenvalue of a K x K
Hermitian matrix.  `apply` is the only code here that uses the FFT.

Whole chains come in row blocks from `_leading_blocks`, which evaluates b0
only where it can be nonzero: on the rows inside the last step's x' cutoff
and the columns inside the first step's theta cutoff, for several n at once
(a sweep's WKB ansatzes).  The phase there is a product of per-axis plane-wave
tables, the ones P's factors are built from, gathered at the rows.  `leading_form` (its one-step
case is P) scatters the blocks of one n; the Cotlar Gram matrix sums them
and forms no N^d x K array.

The determinant factor is folded into the operator (not the user symbol),
which makes the |a0| <= 1 condition the only thing separating the operator
from a unitary and keeps the measured norm at 1 + O(hbar).

The momentum sum is restricted to the theta-cutoff support.  This is exact
(the symbol vanishes outside) and it enforces momentum localization by
construction, replacing symbolic-calculus support arguments.  Supports must
sit strictly inside the position box and the momentum window; violations are
refused at construction time since they alias, silently and badly.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace

import numpy as np

from .grid import POSITION, GridSpec, Wavefunction, hbar_fourier
from .symbols import Box, SymbolSpec, leading_symbol_product
from .dynamics import ChainSpec, MomentumMap, _evaluate, evolve_momentum

__all__ = [
    "FioOperator",
    "DenseOperator",
    "leading_form",
    "apply_fio",
    "chain_apply",
    "DENSE_SIZE_LIMIT",
]

DENSE_SIZE_LIMIT = 4096

# complex entries per prefix and row block of `_leading_blocks`: 128 KiB, glibc's default mmap
# threshold, which freeing larger temporaries would raise (keeping the next
# `leading_form` result, the only N^d x K array it makes, in the heap and peak
# RSS up)
_ROW_BLOCK_ENTRIES = 1 << 13


def _orbit_data(chain: ChainSpec, theta: np.ndarray, ns: list[int], grid: GridSpec):
    """Orbit of max(ns) steps from the momenta theta (K, d); each n's action and det, (len(ns), K).

    Both accumulate in `phase_cocycle`'s and `jacobian_chain`'s order, so
    each prefix's values are theirs bit for bit.  An orbit leaving the grid's
    momentum window and a determinant that is not positive are refused, on
    every prefix and all K momenta.
    """
    top, d = max(ns), chain.dimension
    orbit = evolve_momentum(chain, theta, top)
    if not grid.momentum_in_window(orbit):
        raise ValueError("the momentum orbit leaves the grid window; enlarge N or L")
    actions, dets = [np.zeros(orbit.shape[1:-1])], [np.ones(orbit.shape[1:-1])]
    for j, m in enumerate(chain.maps[:top]):
        actions.append(actions[-1] + _evaluate(m.alpha, orbit[j]))
        dets.append(dets[-1] * np.linalg.det(_evaluate(m.grad_p, orbit[j], (d, d))))
    action, det = np.array([actions[n] for n in ns]), np.array([dets[n] for n in ns])
    if np.any(det <= 0.0):
        raise ValueError("chain Jacobian determinant must be positive")
    return orbit, action, det


def _axis_waves(grid: GridSpec, xi: np.ndarray) -> list[np.ndarray]:
    """Plane waves exp(i x_a xi_{s,a} / hbar) for xi (..., K, d): one (..., N_a, K) table per axis."""
    axes = [grid.axis_positions(a) for a in range(grid.dimension)]
    return [np.exp(1j * (x[:, None] * xi[..., None, :, a]) / grid.hbar) for a, x in enumerate(axes)]


def _column_kron(factors: list[np.ndarray], w: np.ndarray) -> np.ndarray:
    """w times the C-order column-wise Kronecker product of the factors (each m_a x K)."""
    out = w[None, :]
    for f in factors:
        out = (out[:, None, :] * f[None, :, :]).reshape(-1, len(w))
    return out


def _leading_blocks(
    chain: ChainSpec, symbols: list[SymbolSpec], theta: np.ndarray, ns: list[int], grid: GridSpec,
    height: int | None = None,
):
    """Yield `leading_form`'s live entries for each n in ns as (rows, cols, block), `height` rows each.

    rows index the lattice points where some chi_n(x) != 0, cols the momenta
    where psi_1(theta) != 0 (one array for every block); block (len(ns),
    rows, cols) holds each n's entries, 0 where its own chi_n vanishes.
    `height` defaults to as many rows as fit in 2^13 entries per n.  The
    orbit, actions, determinants and refusals cover all K momenta before the
    first block; a block takes one `leading_symbol_product` pass for every n,
    so each n is bit for bit its one-n call.

    The phase is linear in x: each n's entry is b0 times the product over
    axes of the tables exp(i x_a xi_{n,a} / hbar) (`_axis_waves`, len(ns) x
    N x cols, built once per call, the first axis's scaled by det^(1/2)
    e^(i A_n / hbar)), gathered at the rows' lattice indices; no entry takes
    its own exp.
    """
    orbit, action, det = _orbit_data(chain, theta, ns, grid)
    if not 1 <= min(ns) <= max(ns) <= len(symbols):
        raise ValueError(f"need n >= 1 steps and n symbols, got n = {ns} and {len(symbols)} symbols")
    X = grid.position_points()
    live = np.flatnonzero(np.any([chi(X) != 0.0 for chi in {symbols[n - 1].chi for n in ns}], axis=0))
    cols = np.flatnonzero(symbols[0].psi(theta))
    theta, orbit = theta[cols], orbit[:, cols]
    weight = np.sqrt(det[:, None, cols]) * np.exp(1j * action[:, None, cols] / grid.hbar)
    first, *rest = _axis_waves(grid, orbit[ns])
    tables = [first * weight, *rest]
    if height is None:
        height = max(1, _ROW_BLOCK_ENTRIES // max(1, len(cols)))
    for lo in range(0, len(live), height):
        rows = live[lo : lo + height]
        idx = np.unravel_index(rows, grid.shape)
        block = tables[0][:, idx[0]]
        for t, i in zip(tables[1:], idx[1:]):
            block *= t[:, i]
        # b0 is not kept while the caller holds the block: at 96^2 keeping it
        # raised the Cotlar case's peak RSS from 87 to 108 MB
        block *= leading_symbol_product(chain, symbols, X[rows], theta, ns, orbit=orbit)
        yield rows, cols, block


def leading_form(
    chain: ChainSpec, symbols: list[SymbolSpec], theta: np.ndarray, n: int, grid: GridSpec
) -> np.ndarray:
    """Leading-order images of the plane waves e_theta after n >= 1 steps, shape (N^d, K).

    Column s is det_chain(theta_s)^(1/2) b0(x, theta_s)
    exp(i(<xi_n(theta_s), x> + A_n(theta_s))/hbar) on the position lattice, for
    theta of shape (K, d).  b0 carries the factors chi_n(x) and psi_1(theta),
    so only the live rows (chi_n(x) != 0) and live columns (psi_1(theta) != 0)
    are evaluated, by `_leading_blocks` in row blocks of at most 2^13 entries;
    every other entry is an exact 0.  The window and orientation refusals
    are checked on all K momenta; step counts beyond the chain or the
    symbols, and n = 0, are refused.
    """
    out = np.zeros((grid.size, len(theta)), dtype=complex)
    for rows, cols, (block,) in _leading_blocks(chain, symbols, theta, [n], grid):
        out[np.ix_(rows, cols)] = block
    return out


@dataclass
class DenseOperator:
    """Dense matrix realization acting on flat C-order value vectors.

    The matrix maps value vectors to value vectors on the same grid, so its
    largest singular value equals the L2 operator norm (the quadrature weight
    cancels between input and output) and its conjugate transpose realizes the
    L2 adjoint.
    """

    matrix: np.ndarray


class FioOperator:
    """One quantized step: momentum map + symbol + grid, with cached realization.

    The step factors as P @ F: the (N^d x K) phase matrix P after the (K x N^d)
    forward rows F (hbar-DFT on the support, times the x cutoff).  The support
    momenta and the grid samples of the x cutoff are fixed at construction; the
    instance caches the Kronecker root B of F F^H (`forward_factor`, from d
    per-axis `eigh` calls), the links F @ P_prev to the steps it follows, a
    dense realization, and its measured norms (for a step without an x cutoff,
    sqrt(c lambda_max(P^H P))), so one instance reused across a repeated chain
    pays its setup once.  F's per-axis rows (`_forward_axes`) are rebuilt per
    use, never stored; the norm path forms neither P nor F.

    P does not depend on the x cutoff, so the phase side lives on `phase_step`,
    the same step without its x cutoff (a step without one is its own
    `phase_step`): P, its per-axis factors (`_phase_factors`) and its Gram
    matrix P^H P (`phase_gram`) are the phase step's arrays, not copies, and
    links into a step are the links into its phase step.
    """

    def __init__(self, map_: MomentumMap, symbol: SymbolSpec, grid: GridSpec):
        if map_.dimension != grid.dimension:
            raise ValueError("map dimension does not match grid dimension")
        self.map = map_
        self.symbol = symbol
        self.grid = grid
        self._phase_matrix: np.ndarray | None = None
        self._factors: tuple[list[np.ndarray], np.ndarray] | None = None
        self._gram: np.ndarray | None = None
        self._forward: np.ndarray | float | None = None
        # weak keys: a step linked to itself must not keep itself alive
        self._transfers: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._dense: DenseOperator | None = None
        # NormEstimate per request key, filled by bounds.trivial_bound (or, for a
        # chain's first step, by measure_chain_norms's exact n = 1 estimate)
        self._norm_cache: dict[tuple, object] = {}
        self._validate_supports()
        pts = grid.momentum_points()
        self._support_idx = np.flatnonzero(symbol.omega2.contains(pts))
        self._theta = pts[self._support_idx]
        u = symbol.u
        self._u_grid = None if u is None else u(grid.position_points()).reshape(grid.shape)
        self.phase_step = self if u is None else FioOperator(map_, replace(symbol, omega=None), grid)

    def _validate_supports(self) -> None:
        hw, half = self.grid.half_width, self.grid.momentum_half_width
        pos = ("position box", Box(tuple(-L for L in hw), hw))
        mom = ("momentum window", Box(tuple(-h for h in half), tuple(half)))
        sym = self.symbol
        for what, box, (where, outer), why in (
            ("x'", sym.omega1, pos, "; periodic wraparound would corrupt the output"),
            ("x", sym.omega, pos, ""),
            ("theta", sym.omega2, mom, "; the momentum quadrature would alias"),
        ):
            if box is not None and not box.strictly_inside(outer):
                msg = f"{what} support {box} is not strictly inside the {where} {outer}{why}"
                raise ValueError(msg)

    # -- lattice restriction -------------------------------------------------

    def support_indices(self) -> np.ndarray:
        """Flat indices of momentum lattice points inside the theta support."""
        return self._support_idx

    def _matrix(self) -> np.ndarray:
        """The (N^d x K) phase matrix; columns indexed by support momenta.

        It is the column-wise Kronecker product of the per-axis factors E_a
        times the weights w (see `_phase_factors`), the one-step case of
        `leading_form` without the x cutoff (F applies it) times
        dxi^d (2 pi hbar)^(-d/2); every step holds its phase step's array.
        """
        if self._phase_matrix is None:
            step = self.phase_step
            self._phase_matrix = _column_kron(*self._phase_factors()) if step is self else step._matrix()
        return self._phase_matrix

    def _phase_factors(self) -> tuple[list[np.ndarray], np.ndarray]:
        """Per-axis factors E_a (N x K) and column weights w (K,) of P; the phase step's.

        P[x, s] = w_s prod_a E_a[x_a, s], with E_a[x_a, s] = chi_a(x_a)
        exp(i p_a(theta_s) x_a / hbar) and w_s = dxi^d (2 pi hbar)^(-d/2)
        det grad_p(theta_s)^(1/2) psi(theta_s) exp(i alpha(theta_s) / hbar): the
        phase <p(theta), x> + alpha(theta) is linear in x and chi is a product
        over axes, so P is the column-wise Kronecker product of the E_a scaled
        by w.  The window and orientation refusals are `leading_form`'s.  The
        orbit, action and determinant are evaluated once per phase step.
        """
        step = self.phase_step
        if step._factors is None:
            g, sym = step.grid, step.symbol
            orbit, (action,), (det,) = _orbit_data(ChainSpec((step.map,)), step._theta, [1], g)
            scale = g.momentum_weight() * (2.0 * np.pi * g.hbar) ** (-g.dimension / 2.0)
            w = scale * np.sqrt(det) * sym.psi(step._theta) * np.exp(1j * action / g.hbar)
            waves = _axis_waves(g, orbit[-1])
            es = [sym.chi.profile(a, g.axis_positions(a))[:, None] * e for a, e in enumerate(waves)]
            step._factors = (es, w)
        return step._factors

    def _forward_axes(self) -> list[np.ndarray]:
        """The per-axis K_a x N rows F_a of F; not cached.

        F_a[s, x_a] = dx_a (2 pi hbar)^(-1/2) u_a(x_a) exp(-i theta_{a,s} x_a / hbar)
        (u_a = 1 without an x cutoff), theta_{a,s} the support's momenta on
        axis a.  The theta support is a box on the tensor lattice and u and the
        DFT are products over axes, so F is the C-order Kronecker product of
        the F_a, matching `support_indices`.
        """
        g, u, box = self.grid, self.symbol.u, self.symbol.omega2
        rows = []
        for a in range(g.dimension):
            x, theta = g.axis_positions(a), g.axis_momenta(a)
            theta = theta[(theta >= box.lo[a]) & (theta <= box.hi[a])]
            weight = g.dx[a] * (2.0 * np.pi * g.hbar) ** -0.5 * (1.0 if u is None else u.profile(a, x))
            rows.append(weight * np.exp(-1j * np.outer(theta, x) / g.hbar))
        return rows

    # -- application ---------------------------------------------------------

    def _check_input(self, f: Wavefunction, name: str) -> None:
        if f.representation != POSITION:
            raise ValueError(f"{name} expects a position-representation input")
        if f.grid != self.grid:
            raise ValueError("wavefunction grid does not match operator grid")

    def apply(self, f: Wavefunction) -> Wavefunction:
        self._check_input(f, "apply_fio")
        g, u = self.grid, self._u_grid
        spec = hbar_fourier(Wavefunction(g, f.values if u is None else f.values * u)).values
        out = self._matrix() @ spec.ravel()[self._support_idx]
        return Wavefunction(g, out.reshape(g.shape), POSITION)

    def adjoint_apply(self, gfun: Wavefunction) -> Wavefunction:
        """Apply the L2 adjoint F^H P^H, the operator quantizing the inverse step.

        P^H g is a K-vector; F^H = kron_a F_a^H then acts along each axis.
        """
        self._check_input(gfun, "adjoint_apply")
        rows = self._forward_axes()
        y = np.conj(self._matrix().T @ np.conj(gfun.values.ravel())).reshape([len(r) for r in rows])
        for a, r in enumerate(rows):
            y = np.moveaxis(np.tensordot(r.conj(), y, axes=(0, a)), 0, a)
        return Wavefunction(self.grid, y, POSITION)

    # -- factored realization ------------------------------------------------

    def forward_rows(self) -> np.ndarray:
        """The (K x N^d) rows F, hbar-DFT on the support times the x cutoff; not cached.

        The dense oracle of F, evaluated on all N^d points at once, not from
        `_forward_axes`: only `to_dense` forms it.
        """
        g = self.grid
        weight = g.position_weight() * (2.0 * np.pi * g.hbar) ** (-g.dimension / 2.0)
        rows = np.exp(-1j * (self._theta @ g.position_points().T) / g.hbar) * weight
        u = self._u_grid
        return rows if u is None else rows * u.ravel()[None, :]

    def phase_gram(self) -> np.ndarray:
        """The (K x K) Gram matrix G_P = P^H P from the per-axis factors; the phase step's, cached.

        G_P = (conj(w) w^T) * prod_a E_a^H E_a, elementwise products of d Gram
        matrices of N x K factors (see `_phase_factors`); P is never formed.
        """
        step = self.phase_step
        if step._gram is None:
            es, w = step._phase_factors()
            gram = np.outer(w.conj(), w)
            for e in es:
                gram *= e.conj().T @ e
            step._gram = gram
        return step._gram

    def forward_factor(self) -> np.ndarray | float:
        """The K x K Hermitian root B of F F^H = B B^H, or sqrt(c) for a step without an x cutoff.

        X F and X B have the same singular values for any X, so B stands in for
        F in every chain norm.  F F^H = kron_a G_a with G_a = F_a F_a^H (see
        `_forward_axes`), and B = kron_a U_a S_a^(1/2) U_a^H from the `eigh`
        U_a S_a U_a^H of each G_a (rounding-negative eigenvalues clipped): the
        Hermitian positive root, which does not depend on the eigenvector
        phases `eigh` picks.
        Without an x cutoff F F^H = c I, c = dx^d / dxi^d (distinct Fourier modes).
        """
        if self._forward is None:
            g = self.grid
            if self.symbol.u is None:
                self._forward = np.sqrt(g.position_weight() / g.momentum_weight())
            else:
                b = np.ones((1, 1))
                for rows in self._forward_axes():
                    lam, v = np.linalg.eigh(rows @ rows.conj().T)
                    b = np.kron(b, (v * np.sqrt(np.maximum(lam, 0.0))) @ v.conj().T)
                self._forward = b
        return self._forward

    def transfer(self, prev: FioOperator) -> np.ndarray:
        """M = F P_prev, the (K x K_prev) link, from the per-axis factors of both.

        F P_prev[s, t] = w_t prod_a (F_a E_a)[s_a, t]: d matmuls of K_a x N by
        N x K_prev (see `_forward_axes` and `_phase_factors`), then the
        column-wise Kronecker product.  Links are cached per phase step of
        `prev`, so steps sharing a P share the link.
        """
        prev = prev.phase_step
        if prev not in self._transfers:
            es, w = prev._phase_factors()
            self._transfers[prev] = _column_kron([f @ e for f, e in zip(self._forward_axes(), es)], w)
        return self._transfers[prev]

    def to_dense(self) -> DenseOperator:
        if self._dense is None:
            if self.grid.size > DENSE_SIZE_LIMIT:
                raise ValueError(
                    f"dense realization refused: N^d = {self.grid.size} exceeds {DENSE_SIZE_LIMIT}"
                )
            self._dense = DenseOperator(self._matrix() @ self.forward_rows())
        return self._dense


def apply_fio(op: FioOperator, f: Wavefunction) -> Wavefunction:
    """Apply the operator to a position-representation wavefunction."""
    return op.apply(f)


def chain_apply(ops: list[FioOperator], f: Wavefunction) -> Wavefunction:
    """Apply a chain first-to-last (ops[0] acts first), one step at a time.

    Every step must sit on `f`'s grid; a mixed chain is refused before any
    step runs.
    """
    for op in ops:
        op._check_input(f, "chain_apply")
    out = f
    for op in ops:
        out = op.apply(out)
    return out
