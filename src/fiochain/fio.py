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
is the number of lattice points inside the theta support.  Its columns are
the one-step case of `leading_form`, which also builds the WKB ansatz and the
Cotlar block columns of whole chains.  The determinant
factor is folded into the operator (not the user symbol), which makes the
|a0| <= 1 condition the only thing separating the operator from a unitary and
keeps the measured norm at 1 + O(hbar).

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

from .grid import (
    MOMENTUM,
    POSITION,
    GridSpec,
    Wavefunction,
    hbar_fft,
    hbar_inverse_fourier,
)
from .symbols import Box, SymbolSpec, leading_symbol_product
from .dynamics import ChainSpec, MomentumMap, evolve_momentum, jacobian_chain, phase_cocycle

__all__ = [
    "FioOperator",
    "DenseOperator",
    "leading_form",
    "apply_fio",
    "chain_apply",
    "DENSE_SIZE_LIMIT",
]

DENSE_SIZE_LIMIT = 4096

# complex entries per row block of `leading_form`: 128 KiB, glibc's default mmap
# threshold, which freeing larger temporaries would raise (keeping later N^d x K
# arrays in the heap and peak RSS up)
_ROW_BLOCK_ENTRIES = 1 << 13
# complex entries per column block of the FFT links: a few MB, many columns per FFT
_LINK_BLOCK_ENTRIES = 1 << 17


def leading_form(
    chain: ChainSpec, symbols: list[SymbolSpec], theta: np.ndarray, n: int, grid: GridSpec
) -> np.ndarray:
    """Leading-order images of the plane waves e_theta after n steps, shape (N^d, K).

    Column s is det_chain(theta_s)^(1/2) b0(x, theta_s)
    exp(i(<xi_n(theta_s), x> + A_n(theta_s))/hbar) on the position lattice, for
    theta of shape (K, d).  Orbit, action and determinant are evaluated once
    for the batch; b0 and the phase are filled in row blocks spanning all K
    columns.  Step counts beyond the chain or the symbols are refused by the
    dynamics and symbol layers.
    """
    orbit = evolve_momentum(chain, theta, n)
    if not grid.momentum_in_window(orbit):
        raise ValueError("the momentum orbit leaves the grid window; enlarge N or L")
    action = phase_cocycle(chain, theta, n)
    _, det = jacobian_chain(chain, theta, n)
    if np.any(det <= 0.0):
        raise ValueError("chain Jacobian determinant must be positive")
    X, amplitude = grid.position_points(), np.sqrt(det)
    out = np.empty((grid.size, len(theta)), dtype=complex)
    rows = max(1, _ROW_BLOCK_ENTRIES // max(1, len(theta)))
    for lo in range(0, grid.size, rows):
        x = X[lo : lo + rows]
        b0 = leading_symbol_product(chain, symbols, x, theta, n)
        phase = (x @ orbit[-1].T + action) / grid.hbar
        out[lo : lo + rows] = amplitude * b0 * np.exp(1j * phase)
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
    instance caches P, the K x K triangular factors R_P of P and R_F of F^H,
    the links F @ P_prev to the steps it follows, a dense realization, and its
    measured norms, so one instance reused across a repeated chain pays its
    setup once.  F is not kept: a link is the forward half of `apply` (x
    cutoff, hbar-FFT, support) run on the columns of P_prev.
    """

    def __init__(self, map_: MomentumMap, symbol: SymbolSpec, grid: GridSpec):
        if map_.dimension != grid.dimension:
            raise ValueError("map dimension does not match grid dimension")
        self.map = map_
        self.symbol = symbol
        self.grid = grid
        self._phase_matrix: np.ndarray | None = None
        self._r_phase: np.ndarray | None = None
        self._r_forward: np.ndarray | None = None
        # weak keys: a step linked to itself must not keep itself alive
        self._transfers: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._dense: DenseOperator | None = None
        # NormEstimate per request key, filled by bounds.trivial_bound
        self._norm_cache: dict[tuple, object] = {}
        self._validate_supports()
        pts = grid.momentum_points()
        self._support_idx = np.flatnonzero(symbol.omega2.contains(pts))
        self._theta = pts[self._support_idx]
        u = symbol.u
        self._u_grid = None if u is None else u(grid.position_points()).reshape(grid.shape)

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

        It is `leading_form` of the one-step chain at the support momenta,
        without the x cutoff (F applies it), times dxi^d (2 pi hbar)^(-d/2).
        """
        if self._phase_matrix is None:
            g = self.grid
            step, symbol = ChainSpec((self.map,)), replace(self.symbol, omega=None)
            p = leading_form(step, [symbol], self._theta, 1, g)
            p *= g.momentum_weight() * (2.0 * np.pi * g.hbar) ** (-g.dimension / 2.0)
            self._phase_matrix = p
        return self._phase_matrix

    def _spectrum(self, values: np.ndarray) -> np.ndarray:
        """F on values of shape batch + grid shape: the hbar-FFT of u * values on the support."""
        g, u = self.grid, self._u_grid
        spec = hbar_fft(g, values if u is None else values * u)
        return spec.reshape(values.shape[: -g.dimension] + (g.size,))[..., self._support_idx]

    # -- application ---------------------------------------------------------

    def _check_input(self, f: Wavefunction, name: str) -> None:
        if f.representation != POSITION:
            raise ValueError(f"{name} expects a position-representation input")
        if f.grid != self.grid:
            raise ValueError("wavefunction grid does not match operator grid")

    def apply(self, f: Wavefunction) -> Wavefunction:
        self._check_input(f, "apply_fio")
        out = self._matrix() @ self._spectrum(f.values)
        return Wavefunction(self.grid, out.reshape(self.grid.shape), POSITION)

    def adjoint_apply(self, gfun: Wavefunction) -> Wavefunction:
        """Apply the L2 adjoint, the operator quantizing the inverse step."""
        self._check_input(gfun, "adjoint_apply")
        g = self.grid
        c = g.position_weight() / g.momentum_weight()
        q = c * np.conj(self._matrix().T @ np.conj(gfun.values.ravel()))
        full = np.zeros(g.size, dtype=complex)
        full[self._support_idx] = q
        out = hbar_inverse_fourier(Wavefunction(g, full.reshape(g.shape), MOMENTUM))
        u = self._u_grid
        if u is not None:
            out = Wavefunction(g, out.values * np.conj(u), POSITION)
        return out

    # -- factored realization ------------------------------------------------

    def forward_rows(self) -> np.ndarray:
        """The (K x N^d) rows F, hbar-DFT on the support times the x cutoff; not cached."""
        g = self.grid
        scale = g.position_weight() * (2.0 * np.pi * g.hbar) ** (-g.dimension / 2.0)
        rows = np.exp(-1j * (self._theta @ g.position_points().T) / g.hbar) * scale
        u = self._u_grid
        return rows if u is None else rows * u.ravel()[None, :]

    def r_phase(self) -> np.ndarray:
        """Triangular (K x K) factor R_P of P = Q_P R_P, Q_P with orthonormal columns."""
        if self._r_phase is None:
            self._r_phase = np.linalg.qr(self._matrix(), mode="r")
        return self._r_phase

    def forward_scale(self) -> float:
        """sqrt(c), c = dx^d / dxi^d: R_F = sqrt(c) I for a step without an x cutoff."""
        return np.sqrt(self.grid.position_weight() / self.grid.momentum_weight())

    def r_forward(self) -> np.ndarray:
        """Triangular (K x K) factor R_F of F^H = Q_F R_F, Q_F with orthonormal columns.

        The step P F = Q_P (R_P R_F^H) Q_F^H has the singular values of R_P R_F^H.
        Without an x cutoff the rows of F are distinct lattice Fourier modes, so
        F F^H = c I with c = dx^d / dxi^d, R_F = sqrt(c) I, and F is never formed.
        """
        if self._r_forward is None:
            if self.symbol.x_independent:
                self._r_forward = self.forward_scale() * np.eye(len(self._theta))
            else:
                self._r_forward = np.linalg.qr(self.forward_rows().conj().T, mode="r")
        return self._r_forward

    def transfer(self, prev: FioOperator) -> np.ndarray:
        """M = F P_prev, the (K x K_prev) link: `apply`'s forward half on P_prev's columns."""
        if prev not in self._transfers:
            p, shape = prev._matrix(), (-1,) + self.grid.shape
            link = np.empty((len(self._theta), p.shape[1]), dtype=complex)
            width = max(1, _LINK_BLOCK_ENTRIES // self.grid.size)
            for lo in range(0, p.shape[1], width):
                cols = slice(lo, lo + width)
                link[:, cols] = self._spectrum(p[:, cols].T.reshape(shape)).T
            self._transfers[prev] = link
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
    """Apply a chain first-to-last: ops[0] acts first."""
    out = f
    for op in ops:
        out = op.apply(out)
    return out


def chain_adjoint_apply(ops: list[FioOperator], f: Wavefunction) -> Wavefunction:
    """Apply the adjoint of the chain (adjoints in reverse order)."""
    out = f
    for op in reversed(ops):
        out = op.adjoint_apply(out)
    return out

