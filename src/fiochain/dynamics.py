"""Classical data for one propagation step and for chains of steps.

A single step is the canonical transformation generated by
S(x, x', theta) = <p(theta), x'> - <theta, x> + alpha(theta), which preserves
the horizontal foliation {xi = const}:

    kappa: (x, xi) |-> (x', p(xi))   with   x = grad_p(xi)^T x' + grad_alpha(xi).

MomentumMap packages (p, grad_p, alpha, grad_alpha) with analytic derivatives;
finite differences are reserved for test oracles so that bound evaluation never
inherits differencing noise.  A chain is an ordered list of such maps, applied
first-to-last.  The accumulated objects along an orbit are the phase cocycle
A_n(xi0) = alpha_1(xi0) + alpha_2(xi1) + ... + alpha_n(xi_{n-1}) and the
Jacobian chain grad_p_n(xi_{n-1}) ... grad_p_1(xi0), whose determinant is the
product of the per-step determinants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BlockSplit",
    "MomentumMap",
    "ChainSpec",
    "evolve_momentum",
    "phase_cocycle",
    "jacobian_chain",
    "tilde_jacobian_chain",
]


@dataclass(frozen=True)
class BlockSplit:
    """Invariant coordinate split xi = (xi_head, xi_tilde) with p = (m(xi), tilde_p(xi_tilde)).

    The first ``r`` coordinates form the head block (free to contract in a
    xi-dependent way); the trailing ``d - r`` coordinates evolve autonomously
    under ``tilde_p``.  ``r = 0`` means the whole map is autonomous and
    ``tilde_p`` coincides with ``p``.
    """

    r: int
    tilde_p: Callable[[np.ndarray], np.ndarray]
    grad_tilde_p: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MomentumMap:
    """One step of classical data: momentum map p, phase alpha, analytic gradients.

    All callables act on a single point: ``p`` and ``grad_alpha`` map a shape
    (d,) vector to a shape (d,) vector, ``grad_p`` to a (d, d) matrix with
    entries grad_p[i, j] = d p_i / d xi_j, and ``alpha`` to a float.  Maps are
    immutable and safe to share across threads.
    """

    dimension: int
    p: Callable[[np.ndarray], np.ndarray]
    grad_p: Callable[[np.ndarray], np.ndarray]
    alpha: Callable[[np.ndarray], float]
    grad_alpha: Callable[[np.ndarray], np.ndarray]
    block: BlockSplit | None = None

    def p_at(self, xi) -> np.ndarray:
        return np.asarray(self.p(np.asarray(xi, dtype=float)), dtype=float).reshape(self.dimension)

    def grad_p_at(self, xi) -> np.ndarray:
        J = np.asarray(self.grad_p(np.asarray(xi, dtype=float)), dtype=float)
        return J.reshape(self.dimension, self.dimension)

    def alpha_at(self, xi) -> float:
        return float(self.alpha(np.asarray(xi, dtype=float)))

    def grad_alpha_at(self, xi) -> np.ndarray:
        return np.asarray(self.grad_alpha(np.asarray(xi, dtype=float)), dtype=float).reshape(
            self.dimension
        )


@dataclass(frozen=True)
class ChainSpec:
    """Ordered sequence of momentum maps, applied first-to-last."""

    maps: tuple[MomentumMap, ...]

    def __post_init__(self):
        if len(self.maps) < 1:
            raise ValueError("a chain needs at least one map")
        dims = {m.dimension for m in self.maps}
        if len(dims) != 1:
            raise ValueError(f"all maps in a chain must share a dimension, got {dims}")
        object.__setattr__(self, "maps", tuple(self.maps))

    @classmethod
    def repeated(cls, map_: MomentumMap, n: int) -> "ChainSpec":
        if n < 1:
            raise ValueError("repeat count must be >= 1")
        return cls((map_,) * n)

    def __len__(self) -> int:
        return len(self.maps)

    @property
    def dimension(self) -> int:
        return self.maps[0].dimension

    def prefix(self, n: int) -> "ChainSpec":
        if not 1 <= n <= len(self.maps):
            raise ValueError(f"prefix length {n} outside 1..{len(self.maps)}")
        return ChainSpec(self.maps[:n])


def _check_steps(chain: ChainSpec, n: int | None) -> int:
    if n is None:
        return len(chain)
    if not 0 <= n <= len(chain):
        raise ValueError(f"step count {n} exceeds chain length {len(chain)}")
    return n


def evolve_momentum(chain: ChainSpec, xi0, n: int | None = None) -> np.ndarray:
    """Iterated momentum images [xi_0, xi_1, ..., xi_n], shape (n+1, d)."""
    n = _check_steps(chain, n)
    xi = np.asarray(xi0, dtype=float).reshape(chain.dimension)
    out = np.empty((n + 1, chain.dimension))
    out[0] = xi
    for j in range(n):
        xi = chain.maps[j].p_at(xi)
        out[j + 1] = xi
    return out


def phase_cocycle(chain: ChainSpec, xi0, n: int | None = None) -> float:
    """Accumulated phase A_n(xi0), the sum of alpha_j along the momentum orbit."""
    n = _check_steps(chain, n)
    orbit = evolve_momentum(chain, xi0, n)
    return float(sum(chain.maps[j].alpha_at(orbit[j]) for j in range(n)))


def jacobian_chain(chain: ChainSpec, xi0, n: int | None = None) -> tuple[np.ndarray, float]:
    """Jacobian of the composed momentum map along the orbit from xi0.

    Returns the matrix grad_p_n(xi_{n-1}) ... grad_p_1(xi_0) and the product of
    the per-step determinants.  The latter equals det of the former up to
    rounding; the product form is what the norm bounds consume because it never
    cancels catastrophically for orientation-preserving steps.
    """
    n = _check_steps(chain, n)
    d = chain.dimension
    orbit = evolve_momentum(chain, xi0, n)
    mat = np.eye(d)
    det = 1.0
    for j in range(n):
        J = chain.maps[j].grad_p_at(orbit[j])
        step_det = float(np.linalg.det(J))
        if step_det == 0.0:
            raise ValueError(f"singular step Jacobian at step {j + 1}, xi={orbit[j]}")
        mat = J @ mat
        det *= step_det
    return mat, det


def tilde_jacobian_chain(chain: ChainSpec, xi_tilde0, n: int | None = None) -> float:
    """Determinant of the composed autonomous block map along its own orbit.

    Every map in the chain must carry a block split with the same r; for r = d
    the block is empty and the determinant is 1 by convention.
    """
    n = _check_steps(chain, n)
    blocks = [m.block for m in chain.maps[:n]]
    if any(b is None for b in blocks):
        raise ValueError("tilde_jacobian_chain requires block structure on every map")
    rs = {b.r for b in blocks}
    if len(rs) != 1:
        raise ValueError(f"inconsistent block ranks along the chain: {rs}")
    r = rs.pop()
    dt = chain.dimension - r
    if dt == 0:
        return 1.0
    xt = np.asarray(xi_tilde0, dtype=float).reshape(dt)
    det = 1.0
    for j in range(n):
        b = blocks[j]
        Jt = np.asarray(b.grad_tilde_p(xt), dtype=float).reshape(dt, dt)
        det *= float(np.linalg.det(Jt))
        xt = np.asarray(b.tilde_p(xt), dtype=float).reshape(dt)
    return det

