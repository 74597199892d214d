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
product of the per-step determinants of `_step_dets`, the one loop over them:
the chain products multiply its columns in order, the bound suprema take logs.

Momenta have d = 1, 2 or 3 coordinates, as on a `GridSpec`, so every step
Jacobian is 3 x 3 or smaller and `_det` takes its determinant in closed form
over the whole batch (no LU per matrix).  Its rounding is
O(eps) * (sum of |terms|) / |det|, the order of LU's on the Jacobians that
scenario validation admits; on a triangular Jacobian it is the product of
the diagonal.
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
    "common_block_rank",
]


@dataclass(frozen=True)
class BlockSplit:
    """Invariant coordinate split xi = (xi_head, xi_tilde) with p = (m(xi), tilde_p(xi_tilde)).

    The first ``r`` coordinates form the head block (free to contract in a
    xi-dependent way); the trailing ``d - r`` coordinates evolve autonomously
    under ``tilde_p``.  ``r = 0`` means the whole map is autonomous and
    ``tilde_p`` coincides with ``p``.  ``tilde_p`` and ``grad_tilde_p`` follow
    the batch contract of `MomentumMap` in ``d - r`` dimensions.
    """

    r: int
    tilde_p: Callable[[np.ndarray], np.ndarray]
    grad_tilde_p: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MomentumMap:
    """One step of classical data: momentum map p, phase alpha, analytic gradients.

    All callables act on batches: for ``xi`` of shape (..., d), ``p`` and
    ``grad_alpha`` return shape (..., d), ``grad_p`` returns (..., d, d) with
    entries grad_p[..., i, j] = d p_i / d xi_j, and ``alpha`` returns (...).
    A single point (d,) is the empty batch.  The functions of this module
    refuse an output of any other shape, so a pointwise callable cannot be
    broadcast silently.  ``dimension`` must be 1..3, as on a `GridSpec`.  Maps
    are immutable and safe to share across threads.
    """

    dimension: int
    p: Callable[[np.ndarray], np.ndarray]
    grad_p: Callable[[np.ndarray], np.ndarray]
    alpha: Callable[[np.ndarray], np.ndarray]
    grad_alpha: Callable[[np.ndarray], np.ndarray]
    block: BlockSplit | None = None

    def __post_init__(self):
        if not 1 <= self.dimension <= 3:
            raise ValueError(f"dimension must be 1..3, got {self.dimension}")


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


def _check_steps(chain: ChainSpec, n: int | None) -> int:
    if n is None:
        return len(chain)
    if not 0 <= n <= len(chain):
        raise ValueError(f"step count {n} exceeds chain length {len(chain)}")
    return n


def _points(xi, d: int) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.ndim < 1 or xi.shape[-1] != d:
        raise ValueError(f"momenta must have shape (..., {d}), got {xi.shape}")
    return xi


def _evaluate(fn, xi: np.ndarray, tail: tuple[int, ...] = ()) -> np.ndarray:
    """``fn(xi)`` as a float array, refused unless its shape is xi's batch shape + ``tail``."""
    out = np.asarray(fn(xi), dtype=float)
    want = xi.shape[:-1] + tail
    if out.shape != want:
        msg = f"map returned shape {out.shape} for input shape {xi.shape}, expected {want}"
        raise ValueError(msg + "; momentum maps must act on batches")
    return out


def _det(J: np.ndarray) -> np.ndarray:
    """Determinants of a batch J (..., d, d), d in 1..3, in closed form; shape (...).

    d = 1 reads the entry, d = 2 is J00 J11 - J01 J10, and d = 3 expands
    along the first row.  See the module docstring for the rounding.
    """
    d = J.shape[-1]
    if d == 1:
        return J[..., 0, 0]
    if d == 2:
        return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    minor = lambda a, b: J[..., 1, a] * J[..., 2, b] - J[..., 1, b] * J[..., 2, a]
    return J[..., 0, 0] * minor(1, 2) - J[..., 0, 1] * minor(0, 2) + J[..., 0, 2] * minor(0, 1)


def evolve_momentum(chain: ChainSpec, xi0, n: int | None = None) -> np.ndarray:
    """Iterated momentum images [xi_0, xi_1, ..., xi_n], shape (n+1, ..., d)."""
    n = _check_steps(chain, n)
    d = chain.dimension
    xi = _points(xi0, d)
    out = np.empty((n + 1,) + xi.shape)
    out[0] = xi
    for j in range(n):
        out[j + 1] = _evaluate(chain.maps[j].p, out[j], (d,))
    return out


def phase_cocycle(chain: ChainSpec, xi0, n: int | None = None) -> np.ndarray:
    """Accumulated phase A_n(xi0), the sum of alpha_j along the momentum orbit; shape (...)."""
    n = _check_steps(chain, n)
    orbit = evolve_momentum(chain, xi0, n)
    alphas = (_evaluate(chain.maps[j].alpha, orbit[j]) for j in range(n))
    return sum(alphas, np.zeros(orbit.shape[1:-1]))


def jacobian_chain(chain: ChainSpec, xi0, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian of the composed momentum map along the orbit from xi0.

    Returns the matrices grad_p_n(xi_{n-1}) ... grad_p_1(xi_0), shape (..., d, d),
    and the in-order products of `_step_dets`, shape (...), which equal det of
    the former up to rounding; the product form is what the norm bounds consume
    because it never cancels catastrophically for orientation-preserving steps.
    """
    orbit, d = evolve_momentum(chain, xi0, n), chain.dimension
    mat = np.broadcast_to(np.eye(d), orbit.shape[1:-1] + (d, d)).copy()
    for m, xi in zip(chain.maps, orbit[:-1]):
        mat = _evaluate(m.grad_p, xi, (d, d)) @ mat
    return mat, np.prod(_step_dets(chain, xi0, n), axis=-1)


def _step_dets(chain: ChainSpec, xi0, n: int | None = None, leaf: bool = False) -> np.ndarray:
    """det of each of the first n steps along the orbit from xi0; shape (..., n), C order.

    Those of grad_p_j(xi_{j-1}), or with ``leaf`` those of the block maps'
    grad_tilde_p along their own orbit from the leaf momenta xi0 (every one of
    the n maps needs a block split with the same r; r = d gives 1).  Each is
    `_det`'s closed form; one that is exactly 0 is refused.
    """
    n = _check_steps(chain, n)
    maps = chain.maps[:n]
    if leaf:
        dim = chain.dimension - common_block_rank(maps)
        steps = [(m.block.tilde_p, m.block.grad_tilde_p) for m in maps] if dim else []
        refusal = "leaf-map determinant vanishes on the window"
    else:
        dim, steps = chain.dimension, [(m.p, m.grad_p) for m in maps]
        refusal = "singular step Jacobian"
    xi = _points(xi0, dim)
    dets = np.ones(xi.shape[:-1] + (n,))
    for j, (p, grad) in enumerate(steps):
        dets[..., j] = det = _det(_evaluate(grad, xi, (dim, dim)))
        if np.any(det == 0.0):
            raise ValueError(f"{refusal} at step {j + 1}, xi={xi[det == 0.0][0]}")
        xi = _evaluate(p, xi, (dim,))
    return dets


def common_block_rank(maps) -> int:
    """The r shared by the block splits of `maps`; refused unless every map has one with the same r."""
    rs = {None if m.block is None else m.block.r for m in maps}
    if len(rs) != 1 or None in rs:
        raise ValueError("every step needs a block split, all with the same r")
    return rs.pop()


def tilde_jacobian_chain(chain: ChainSpec, xi_tilde0, n: int | None = None) -> np.ndarray:
    """Determinant of the composed autonomous block map along its own orbit; shape (...).

    The in-order product of the leaf determinants of `_step_dets`: every map
    needs a block split with the same r, a vanishing leaf determinant is
    refused, and for r = d the block is empty and the determinant is 1.
    """
    return np.prod(_step_dets(chain, xi_tilde0, n, leaf=True), axis=-1)
