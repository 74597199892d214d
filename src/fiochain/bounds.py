"""Measured chain norms and the analytic bounds they are compared against.

Three quantities are attached to a chain of n quantized steps:

* the measured L2 operator norm: an exact SVD of a K x K core of the
  factored chain (K support momenta per step, see `_chain_cores`) on every
  grid; power iteration on A*A only when asked for by name,
* the volume bound
      (2 pi hbar)^(-d/2) |W|^(1/2) sup_W |det grad_p_chain|^(1/2)
  over a momentum window W that contains every contributing orbit, and
* the block-refined bound
      (2 pi hbar)^(-r/2) sup_W |det grad_p_chain|^(1/2)
                       / inf_{W~} |det grad_ptilde_chain|^(1/2)
  available when every step preserves the same r-codimension block split;
  only the r contracted directions pay the hbar power.

The volume bound crosses the trivial product-of-norms bound after roughly
|log(2 pi hbar)| / rate steps; past that point the chain norm itself decays at
half the Jacobian rate, which is what the gated slope fit extracts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .grid import Wavefunction, POSITION, l2_norm
from .dynamics import ChainSpec, common_block_rank, jacobian_chain, tilde_jacobian_chain
from .symbols import Box
from .fio import FioOperator, chain_adjoint_apply, chain_apply

__all__ = [
    "NormEstimate",
    "operator_norm",
    "measure_chain_norms",
    "trivial_bound",
    "thm2_bound",
    "thm3_bound",
    "DecayFit",
    "decay_rate_fit",
    "loglog_slope",
]


@dataclass
class NormEstimate:
    """One norm estimate.

    ``wall_ms`` (set by `measure_chain_norms`) is the time spent on this n after
    the previous requested n finished: on the dense path the increment of the
    shared K x K core product and the SVD of its n-step core, on the power path
    the whole estimate.
    """

    value: float
    converged: bool
    iterations: int
    method: str
    wall_ms: float | None = None


def _chain_cores(ops):
    """Cores Y_k = M_k ... M_2 R_F1^H of the prefixes of a chain, k = 1, 2, ...

    Step j factors as P_j F_j (see `FioOperator`), so the k-prefix equals
    P_k M_k ... M_2 F_1 with the links M_j = F_j P_{j-1} (`FioOperator.transfer`,
    a batched hbar-FFT of the K_{j-1} columns of P_{j-1}).  With P_k = Q_P R_Pk
    and F_1^H = Q_F R_F1, whose Q factors have orthonormal columns, the prefix is
    Q_P (R_Pk Y_k) Q_F^H: its L2 norm is exactly that of the K x K matrix
    R_Pk Y_k (see `_core_norm`), and no N^d x N^d matrix is ever formed.  A first
    step without an x cutoff has R_F1 = sqrt(c) I, kept as the scalar sqrt(c)
    (`np.dot` with a scalar multiplies), so its own norm forms no K^3 product.
    """
    first = ops[0]
    y = first.forward_scale() if first.symbol.x_independent else first.r_forward().conj().T
    yield y
    for prev, op in zip(ops, ops[1:]):
        y = np.dot(op.transfer(prev), y)
        yield y


def _core_norm(last: FioOperator, y) -> NormEstimate:
    """Exact norm of a prefix ending in `last` with core `y`, by an SVD of R_P Y."""
    return NormEstimate(float(np.linalg.norm(np.dot(last.r_phase(), y), 2)), True, 1, "dense_svd")


def _power_iteration(start, forward, adjoint, norm, tol: float, max_iter: int) -> NormEstimate:
    """Power iteration on A*A from `start`; `norm` is the norm the operator is measured in."""
    nv = norm(start)
    if nv == 0.0:
        raise ValueError("degenerate start vector")
    v = start / nv
    sigma_prev = -1.0
    for it in range(1, max_iter + 1):
        w = forward(v)
        sigma = norm(w)
        if sigma == 0.0:
            return NormEstimate(0.0, True, it, "power_iteration")
        if sigma_prev >= 0.0 and abs(sigma - sigma_prev) <= tol * sigma:
            return NormEstimate(sigma, True, it, "power_iteration")
        sigma_prev = sigma
        back = adjoint(w)
        nb = norm(back)
        if nb == 0.0:
            return NormEstimate(sigma, True, it, "power_iteration")
        v = back / nb
    return NormEstimate(sigma_prev, False, max_iter, "power_iteration")


def operator_norm(
    ops: list[FioOperator],
    method: str = "auto",
    tol: float = 1e-6,
    max_iter: int = 500,
    seed: int = 0,
) -> NormEstimate:
    """L2 operator norm of a chain of quantized operators (applied first-to-last).

    `method` is "auto" or "dense_svd" (the same thing: an exact SVD of the
    chain's K x K core, `_chain_cores`, on every grid; tol, max_iter and seed
    are unused), or "power_iteration", which runs matrix-free on A*A in the
    quadrature-weighted L2 norm from a seeded random start and converges when
    two successive singular-value estimates agree to relative tol;
    non-convergence is reported, not raised.
    """
    if not ops:
        raise ValueError("need at least one operator")
    grid = ops[0].grid
    if method in ("auto", "dense_svd"):
        for y in _chain_cores(ops):
            pass
        return _core_norm(ops[-1], y)
    if method != "power_iteration":
        raise ValueError(f"unknown norm method {method!r}")
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)

    def wave(v):
        return Wavefunction(grid, v, POSITION)

    return _power_iteration(
        start,
        lambda v: chain_apply(ops, wave(v)).values,
        lambda w: chain_adjoint_apply(ops, wave(w)).values,
        lambda v: l2_norm(wave(v)),
        tol,
        max_iter,
    )


def measure_chain_norms(
    ops: list[FioOperator],
    ns: list[int],
    method: str = "auto",
    tol: float = 1e-6,
    max_iter: int = 500,
    seed: int = 0,
) -> dict[int, NormEstimate]:
    """Chain norms at several prefix lengths, sharing work on the dense path.

    "auto" and "dense_svd" accumulate one running K x K core product
    (`_chain_cores`) and take an exact SVD of the K x K core at each requested
    length, on every grid, so an n-sweep costs one pass of K x K matmuls
    instead of one pass per n.  "power_iteration" estimates each prefix on its
    own (`operator_norm`).  Each estimate's ``wall_ms`` is the time spent on
    its n after the previous requested n finished (see `NormEstimate`).
    """
    ns = sorted(set(ns))
    if not ns or ns[0] < 1 or ns[-1] > len(ops):
        raise ValueError("prefix lengths must satisfy 1 <= n <= len(ops)")
    out: dict[int, NormEstimate] = {}
    cores = enumerate(_chain_cores(ops), start=1)
    k = 0
    for n in ns:
        t0 = time.perf_counter()
        if method in ("auto", "dense_svd"):
            while k < n:
                k, y = next(cores)
            est = _core_norm(ops[n - 1], y)
        else:
            est = operator_norm(ops[:n], method=method, tol=tol, max_iter=max_iter, seed=seed)
        est.wall_ms = (time.perf_counter() - t0) * 1e3
        out[n] = est
    return out


def trivial_bound(
    ops: list[FioOperator],
    method: str = "auto",
    tol: float = 1e-6,
    max_iter: int = 500,
    seed: int = 0,
) -> NormEstimate:
    """Product of the measured single-step norms (submultiplicative bound).

    Single-step estimates are cached on the operator instances, so repeated
    chains pay for one measurement, and a cached step still reports its own
    convergence and iteration count.  "auto" and "dense_svd" are one exact
    computation that ignores tol, max_iter and seed, so they share one key;
    power-iteration estimates are keyed by all four arguments.
    """
    value = 1.0
    converged = True
    iters = 0
    key = ("dense_svd",) if method in ("auto", "dense_svd") else (method, tol, max_iter, seed)
    for op in ops:
        if key not in op._norm_cache:
            op._norm_cache[key] = operator_norm(
                [op], method=method, tol=tol, max_iter=max_iter, seed=seed
            )
        est = op._norm_cache[key]
        value *= est.value
        converged = converged and est.converged
        iters = max(iters, est.iterations)
    return NormEstimate(value, converged, iters, "product_of_step_norms")


def _chain_det_sup(chain: ChainSpec, box: Box, n: int | None, samples_per_axis: int) -> float:
    _, det = jacobian_chain(chain, box.sample_lattice(samples_per_axis), n)
    return float(np.max(np.abs(det)))


def thm2_bound(
    chain: ChainSpec,
    hbar: float,
    omega2_tilde: Box,
    n: int | None = None,
    samples_per_axis: int = 64,
) -> float:
    """Volume bound over the enlarged momentum window.

    The window must contain the n-step orbit of the symbol support; that
    containment is the caller's obligation (scenario validation enforces it).
    """
    d = chain.dimension
    sup = _chain_det_sup(chain, omega2_tilde, n, samples_per_axis)
    return (2.0 * math.pi * hbar) ** (-d / 2.0) * math.sqrt(omega2_tilde.volume) * math.sqrt(sup)


def thm3_bound(
    chain: ChainSpec,
    hbar: float,
    omega2_tilde: Box,
    n: int | None = None,
    samples_per_axis: int = 64,
) -> float:
    """Block-refined bound; requires a common block split along the chain.

    Only the r contracted directions contribute the hbar power; the leaf
    directions contribute the worst-case ratio of chain determinants to
    leaf-map determinants.
    """
    r = common_block_rank(chain.maps[:n])
    d = chain.dimension
    sup = _chain_det_sup(chain, omega2_tilde, n, samples_per_axis)
    if r == d:
        inf_tilde = 1.0
    else:
        tilde_box = Box(omega2_tilde.lo[r:], omega2_tilde.hi[r:])
        det_t = tilde_jacobian_chain(chain, tilde_box.sample_lattice(samples_per_axis), n)
        inf_tilde = float(np.min(np.abs(det_t)))
        if inf_tilde == 0.0:
            raise ValueError("leaf-map determinant vanishes on the window")
    return (2.0 * math.pi * hbar) ** (-r / 2.0) * math.sqrt(sup) / math.sqrt(inf_tilde)


@dataclass
class DecayFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def decay_rate_fit(ns, values) -> DecayFit:
    """Least-squares fit of log(values) against ns; needs >= 4 positive points."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if ns.shape != values.shape or ns.ndim != 1:
        raise ValueError("ns and values must be 1-d arrays of equal length")
    if ns.size < 4:
        raise ValueError("need at least 4 points for a decay-rate fit")
    if np.any(values <= 0.0):
        raise ValueError("values must be positive to fit a log-linear decay")
    y = np.log(values)
    slope, intercept = np.polyfit(ns, y, 1)
    resid = y - (slope * ns + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 1.0
    return DecayFit(float(slope), float(intercept), r2, int(ns.size))


def loglog_slope(xs, ys) -> float:
    """Slope of log(ys) against log(xs); both must be positive."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise ValueError("need at least 2 points")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("log-log slope needs positive data")
    slope, _ = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope)

