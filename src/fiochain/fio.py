"""Quantization of one classical step into an oscillatory-integral operator.

The operator attached to a momentum map (p, alpha) and a product-form symbol
u(x) v(x', theta) acts as

    (P f)(x') = (2 pi hbar)^(-d) iint exp(i S(x, x', theta)/hbar)
                (det grad_p(theta))^(1/2) a0(x, x', theta) f(x) dx dtheta,

with S = <p(theta), x'> - <theta, x> + alpha(theta).  The x integral is the
hbar-Fourier transform of u*f, so on the grid the whole operator collapses to

    g(x') = (2 pi hbar)^(-d/2) sum_theta exp(i(<p(theta), x'> + alpha(theta))/hbar)
            (det grad_p(theta))^(1/2) v(x', theta) (F_hbar(u f))(theta) dtheta^d,

a single dense (N^d x K) phase matrix applied to the momentum samples, where K
is the number of lattice points inside the theta support.  The determinant
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
from dataclasses import dataclass

import numpy as np

from .grid import (
    MOMENTUM,
    POSITION,
    GridSpec,
    Wavefunction,
    hbar_fourier,
    hbar_inverse_fourier,
)
from .symbols import Box, SymbolSpec
from .dynamics import ChainSpec, MomentumMap, evolve_momentum, jacobian_chain, phase_cocycle

__all__ = [
    "FioOperator",
    "DenseOperator",
    "apply_fio",
    "chain_apply",
    "DENSE_SIZE_LIMIT",
]

DENSE_SIZE_LIMIT = 4096


@dataclass
class DenseOperator:
    """Dense matrix realization acting on flat C-order value vectors.

    The matrix maps value vectors to value vectors on the same grid, so its
    largest singular value equals the L2 operator norm (the quadrature weight
    cancels between input and output) and its conjugate transpose realizes the
    L2 adjoint.
    """

    matrix: np.ndarray


def _position_box(grid: GridSpec) -> Box:
    return Box(tuple(-L for L in grid.half_width), tuple(grid.half_width))


def _momentum_box(grid: GridSpec) -> Box:
    half = grid.momentum_half_width
    return Box(tuple(-h for h in half), tuple(half))


class FioOperator:
    """One quantized step: momentum map + symbol + grid, with cached realization.

    The step factors as P @ F: the (N^d x K) phase matrix P after the (K x N^d)
    forward rows F.  The instance caches both, their triangular QR factors, the
    links F @ P_prev to the steps it follows, the grid samples of the x cutoff,
    a dense realization, and its measured norms, so reusing one instance across
    a repeated chain amortizes all setup cost.
    """

    def __init__(self, map_: MomentumMap, symbol: SymbolSpec, grid: GridSpec):
        if map_.dimension != grid.dimension:
            raise ValueError("map dimension does not match grid dimension")
        self.map = map_
        self.symbol = symbol
        self.grid = grid
        self._support_idx: np.ndarray | None = None
        self._theta: np.ndarray | None = None
        self._phase_matrix: np.ndarray | None = None
        self._u_grid: np.ndarray | None = None
        self._forward: np.ndarray | None = None
        self._r_factors: tuple[np.ndarray, np.ndarray] | None = None
        # weak keys: a step linked to itself must not keep itself alive
        self._transfers: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._dense: DenseOperator | None = None
        # (method, tol, max_iter, seed) -> NormEstimate, filled by bounds.trivial_bound
        self._norm_cache: dict[tuple, object] = {}
        self._validate_supports()

    def _validate_supports(self) -> None:
        pos_box = _position_box(self.grid)
        mom_box = _momentum_box(self.grid)
        sym = self.symbol
        if not sym.omega1.strictly_inside(pos_box):
            raise ValueError(
                f"x' support {sym.omega1} is not strictly inside the position box {pos_box}; "
                "periodic wraparound would corrupt the output"
            )
        if sym.omega is not None and not sym.omega.strictly_inside(pos_box):
            raise ValueError(
                f"x support {sym.omega} is not strictly inside the position box {pos_box}"
            )
        if not sym.omega2.strictly_inside(mom_box):
            raise ValueError(
                f"theta support {sym.omega2} is not strictly inside the momentum window "
                f"{mom_box}; the momentum quadrature would alias"
            )

    # -- lattice restriction -------------------------------------------------

    def support_indices(self) -> np.ndarray:
        """Flat indices of momentum lattice points inside the theta support."""
        if self._support_idx is None:
            pts = self.grid.momentum_points()
            mask = self.symbol.omega2.contains(pts)
            self._support_idx = np.flatnonzero(mask)
            self._theta = pts[self._support_idx]
        return self._support_idx

    def _u_on_grid(self) -> np.ndarray | None:
        if self.symbol.x_independent:
            return None
        if self._u_grid is None:
            vals = self.symbol.u_values(self.grid.position_points())
            self._u_grid = np.asarray(vals).reshape(self.grid.shape)
        return self._u_grid

    def _matrix(self) -> np.ndarray:
        """The (N^d x K) phase matrix; columns indexed by support momenta."""
        if self._phase_matrix is None:
            g = self.grid
            self.support_indices()
            theta = self._theta
            step = ChainSpec((self.map,))
            p_theta = evolve_momentum(step, theta)[1]
            alpha = phase_cocycle(step, theta)
            _, det = jacobian_chain(step, theta)
            if np.any(det <= 0.0):
                raise ValueError("det grad_p must be positive on the theta support")
            if not g.momentum_in_window(p_theta):
                raise ValueError(
                    "the momentum map sends part of the theta support outside the "
                    "momentum window; the output would alias"
                )
            X = g.position_points()
            phase = (X @ p_theta.T + alpha[None, :]) / g.hbar
            vvals = np.asarray(self.symbol.v(X[:, None, :], theta[None, :, :]))
            scale = g.momentum_weight() * (2.0 * np.pi * g.hbar) ** (-g.dimension / 2.0)
            self._phase_matrix = np.exp(1j * phase) * (np.sqrt(det)[None, :] * vvals * scale)
        return self._phase_matrix

    # -- application ---------------------------------------------------------

    def apply(self, f: Wavefunction) -> Wavefunction:
        if f.representation != POSITION:
            raise ValueError("apply_fio expects a position-representation input")
        if f.grid != self.grid:
            raise ValueError("wavefunction grid does not match operator grid")
        u = self._u_on_grid()
        uf = f if u is None else Wavefunction(self.grid, f.values * u, POSITION)
        spec = hbar_fourier(uf).values.ravel()[self.support_indices()]
        out = self._matrix() @ spec
        return Wavefunction(self.grid, out.reshape(self.grid.shape), POSITION)

    def adjoint_apply(self, gfun: Wavefunction) -> Wavefunction:
        """Apply the L2 adjoint, the operator quantizing the inverse step."""
        if gfun.representation != POSITION:
            raise ValueError("adjoint_apply expects a position-representation input")
        if gfun.grid != self.grid:
            raise ValueError("wavefunction grid does not match operator grid")
        g = self.grid
        c = g.position_weight() / g.momentum_weight()
        q = c * np.conj(self._matrix().T @ np.conj(gfun.values.ravel()))
        full = np.zeros(g.size, dtype=complex)
        full[self.support_indices()] = q
        out = hbar_inverse_fourier(Wavefunction(g, full.reshape(g.shape), MOMENTUM))
        u = self._u_on_grid()
        if u is not None:
            out = Wavefunction(g, out.values * np.conj(u), POSITION)
        return out

    # -- factored realization ------------------------------------------------

    def forward_rows(self) -> np.ndarray:
        """The (K x N^d) rows F: hbar-DFT restricted to the support, times the x cutoff.

        The step is P @ F with P the phase matrix, on flat value vectors.
        """
        if self._forward is None:
            g = self.grid
            self.support_indices()
            X = g.position_points()
            scale = g.position_weight() * (2.0 * np.pi * g.hbar) ** (-g.dimension / 2.0)
            rows = np.exp(-1j * (self._theta @ X.T) / g.hbar) * scale
            u = self._u_on_grid()
            self._forward = rows if u is None else rows * u.ravel()[None, :]
        return self._forward

    def core_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Triangular (K x K) factors R_P of P = Q_P R_P and R_F of F^H = Q_F R_F.

        Q_P and Q_F have orthonormal columns, so the step P F = Q_P (R_P R_F^H) Q_F^H
        has the singular values of the K x K core R_P R_F^H.
        """
        if self._r_factors is None:
            r_p = np.linalg.qr(self._matrix(), mode="r")
            r_f = np.linalg.qr(self.forward_rows().conj().T, mode="r")
            self._r_factors = (r_p, r_f)
        return self._r_factors

    def transfer(self, prev: FioOperator) -> np.ndarray:
        """M = F P_prev, the (K x K_prev) link from the previous step's momenta to these."""
        if prev not in self._transfers:
            self._transfers[prev] = self.forward_rows() @ prev._matrix()
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

