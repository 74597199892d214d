"""Closed-form leading-order image of a plane wave under a chain.

A chain of the quantized steps maps the truncated plane wave e_{xi0} to

    exp(i A_n / hbar) (det grad_p_chain(xi0))^(1/2) b0(x)
        * exp(i <xi_n, x> / hbar),

up to O(hbar): the momentum rides the classical orbit xi_j, the action A_n
accumulates the alpha phases along it, the determinant factor is the chain
Jacobian at xi0, and b0 collects the symbol values along the backward
reconstructed position trajectory.  The stationary-phase corrections are
O(hbar) per step, so the relative residual of the ansatz after n steps scales
like n * hbar; halving hbar should halve it, which is the slope the residual
sweep checks.

The ansatz is exact in the momentum variable (the input spike sits on one
lattice point), so the residual isolates genuine symbol-expansion error
rather than discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, POSITION, Wavefunction, l2_norm, plane_wave
from .dynamics import ChainSpec, evolve_momentum, jacobian_chain, phase_cocycle
from .symbols import SymbolSpec, leading_symbol_product
from .fio import FioOperator, chain_apply

__all__ = ["WkbState", "wkb_state", "wkb_ansatz", "WkbResidual", "wkb_residual"]


@dataclass
class WkbState:
    """Ingredients of the leading-order image after n steps."""

    xi_n: np.ndarray
    action: float
    det_prefactor: float
    b0_profile: np.ndarray


def wkb_state(
    chain: ChainSpec,
    symbols: list[SymbolSpec],
    xi0: np.ndarray,
    n: int,
    grid: GridSpec,
) -> WkbState:
    if n < 0 or n > len(chain):
        raise ValueError("step count must satisfy 0 <= n <= len(chain)")
    if len(symbols) < n:
        raise ValueError("need one symbol per applied step")
    orbit = evolve_momentum(chain, xi0, n)
    if not grid.momentum_in_window(orbit):
        raise ValueError("the momentum orbit leaves the grid window; enlarge N or L")
    action = phase_cocycle(chain, xi0, n)
    _, det = jacobian_chain(chain, xi0, n)
    if det <= 0.0:
        raise ValueError("chain Jacobian determinant must be positive")
    X = grid.position_points()
    b0 = leading_symbol_product(chain, symbols, X, xi0, n)
    return WkbState(
        xi_n=orbit[-1],
        action=float(action),
        det_prefactor=float(np.sqrt(det)),
        b0_profile=np.asarray(b0, dtype=complex).reshape(grid.shape),
    )


def wkb_ansatz(
    chain: ChainSpec,
    symbols: list[SymbolSpec],
    xi0: np.ndarray,
    n: int,
    grid: GridSpec,
) -> Wavefunction:
    """Evaluate the leading-order image on the grid.

    For n=0 this is exactly the truncated plane wave at xi0.
    """
    if n == 0:
        return plane_wave(grid, xi0)
    st = wkb_state(chain, symbols, xi0, n, grid)
    X = grid.position_points()
    phase = (X @ st.xi_n + st.action) / grid.hbar
    values = st.det_prefactor * st.b0_profile * np.exp(1j * phase).reshape(grid.shape)
    return Wavefunction(grid, values, POSITION)


@dataclass
class WkbResidual:
    """L2 mismatch between the propagated wave and its leading-order image."""

    absolute: float
    relative: float
    output_norm: float
    ansatz_norm: float
    degenerate: bool


def wkb_residual(ops: list[FioOperator], xi0: np.ndarray, n: int | None = None) -> WkbResidual:
    """Propagate the plane wave through ops and compare with the ansatz.

    The x cutoff of the first operator truncates the input inside the
    application, so the input is the bare plane wave on the grid.  A
    `degenerate` result means the ansatz norm collapsed (e.g. b0 vanished on
    the whole grid) and the relative residual is meaningless.
    """
    if not ops:
        raise ValueError("need at least one operator")
    if n is None:
        n = len(ops)
    if n < 1 or n > len(ops):
        raise ValueError("step count must satisfy 1 <= n <= len(ops)")
    grid = ops[0].grid
    chain = ChainSpec(tuple(op.map for op in ops[:n]))
    symbols = [op.symbol for op in ops[:n]]
    propagated = chain_apply(ops[:n], plane_wave(grid, xi0))
    ansatz = wkb_ansatz(chain, symbols, xi0, n, grid)
    diff = Wavefunction(grid, propagated.values - ansatz.values, POSITION)
    abs_err = l2_norm(diff)
    ans_norm = l2_norm(ansatz)
    out_norm = l2_norm(propagated)
    degenerate = ans_norm < 1e-12 * max(out_norm, 1.0)
    rel = abs_err / ans_norm if not degenerate else float("inf")
    return WkbResidual(
        absolute=abs_err,
        relative=rel,
        output_norm=out_norm,
        ansatz_norm=ans_norm,
        degenerate=degenerate,
    )
