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
rather than discretization error.  It is one column of the chain's leading
form, from `fio._leading_blocks`, whose row blocks also sum to the Cotlar
Gram matrix.  `wkb_ansatzes` builds the ansatz of every n of a
sweep from one orbit and one backward pass, each bit for bit its one-n value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, POSITION, Wavefunction, l2_norm, plane_wave
from .dynamics import ChainSpec
from .symbols import SymbolSpec
from .fio import FioOperator, _leading_blocks, chain_apply

__all__ = ["wkb_ansatz", "wkb_ansatzes", "WkbResidual", "wkb_residual"]


def wkb_ansatzes(
    chain: ChainSpec, symbols: list[SymbolSpec], xi0: np.ndarray, ns: list[int], grid: GridSpec
) -> list[Wavefunction]:
    """The leading-order image after each n >= 1 in ns, in their order: the leading form at theta = xi0.

    All come from one pass of `fio._leading_blocks` over every n.
    """
    values = np.zeros((len(ns), grid.size, 1), dtype=complex)
    theta = np.asarray(xi0, dtype=float)[None, :]
    for rows, cols, block in _leading_blocks(chain, symbols, theta, ns, grid):
        values[:, rows[:, None], cols] = block
    return [Wavefunction(grid, v.reshape(grid.shape), POSITION) for v in values]


def wkb_ansatz(
    chain: ChainSpec, symbols: list[SymbolSpec], xi0: np.ndarray, n: int, grid: GridSpec
) -> Wavefunction:
    """The one-n case of `wkb_ansatzes`; for n=0 exactly the truncated plane wave at xi0."""
    return plane_wave(grid, xi0) if n == 0 else wkb_ansatzes(chain, symbols, xi0, [n], grid)[0]


@dataclass
class WkbResidual:
    """L2 mismatch between the propagated wave and its leading-order image."""

    absolute: float
    relative: float
    output_norm: float
    ansatz_norm: float
    degenerate: bool


def wkb_residual(
    ops: list[FioOperator],
    xi0: np.ndarray,
    n: int | None = None,
    propagated: Wavefunction | None = None,
    ansatz: Wavefunction | None = None,
) -> WkbResidual:
    """Propagate the plane wave through ops and compare with the ansatz.

    The x cutoff of the first operator truncates the input inside the
    application, so the input is the bare plane wave on the grid.  A caller
    that already holds the plane wave propagated through ``ops[:n]`` (an
    n-sweep carrying it from one n to the next) passes it as ``propagated``;
    by default it is `chain_apply` of ``ops[:n]`` from scratch.  Likewise
    ``ansatz`` (from `wkb_ansatzes`) replaces `wkb_ansatz`.  A
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
    if propagated is None:
        propagated = chain_apply(ops[:n], plane_wave(grid, xi0))
    if ansatz is None:
        chain = ChainSpec(tuple(op.map for op in ops[:n]))
        ansatz = wkb_ansatz(chain, [op.symbol for op in ops[:n]], xi0, n, grid)
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
