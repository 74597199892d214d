"""Measured chain norms and the analytic bounds they are compared against.

Three quantities are attached to a chain of n quantized steps:

* the measured L2 operator norm: the square root of the top eigenvalue of a
  K x K Hermitian core of the factored chain (K support momenta per step, see
  `_chain_cores`) on every grid, by `eigvalsh` or, when asked for by name, by
  power iteration on the same core with a residual certificate,
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

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .dynamics import ChainSpec, _check_steps, _log_det_steps, common_block_rank
from .symbols import Box
from .fio import FioOperator

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
    the previous requested n finished, on either method: the increment of the
    shared K x K core product and the estimate (`eigvalsh` or power iteration)
    on its n-step core.
    """

    value: float
    converged: bool
    iterations: int
    method: str
    wall_ms: float | None = None


def _chain_cores(ops):
    """Cores Y_k = M_k ... M_2 B_1 of the prefixes of a chain, k = 1, 2, ...

    Step j factors as P_j F_j (see `FioOperator`), so the k-prefix equals
    P_k M_k ... M_2 F_1 with the links M_j = F_j P_{j-1} (`FioOperator.transfer`).
    B_1 B_1^H = F_1 F_1^H (`FioOperator.forward_factor`) and the Gram matrix
    G_Pk = P_k^H P_k (`FioOperator.phase_gram`) keep every singular value: the
    squared singular values of the prefix are the eigenvalues of the K x K
    Hermitian core Y_k^H G_Pk Y_k (see `_core_estimate`), and no N^d x K or
    K x N^d matrix is formed.  Squaring both sides puts a relative error of
    O(eps kappa^2) on sigma, kappa = |P_k| |M_k ... M_2| |F_1| / sigma (QRs of
    P_k and F_1^H would leave O(eps kappa)); the top eigenvalue adds O(eps) of
    the core's norm (Weyl).  Without an x cutoff B_1 is the scalar sqrt(c), so
    a first step's own norm forms no K^3 product.
    """
    y = ops[0].forward_factor()
    yield y
    for prev, op in zip(ops, ops[1:]):
        y = np.dot(op.transfer(prev), y)
        yield y


def _power_iteration(start, gram, tol: float, max_iter: int) -> NormEstimate:
    """Power iteration on a Hermitian H = A^H A from `start`; `gram` applies H.

    With v the unit iterate and sigma = sqrt(v^H H v), it stops once the
    certificate |H v - sigma^2 v| <= tol sigma^2 holds; converged=False if no
    step meets it.  The certificate puts sigma^2 within tol sigma^2 of some
    eigenvalue of H, not necessarily the largest: sigma is a lower bound on
    |A|, within about tol/2 of a singular value.
    """
    norm = np.linalg.norm
    v = start / norm(start)
    for it in range(1, max_iter + 1):
        w = gram(v)
        s2 = float(np.vdot(v, w).real)
        sigma = math.sqrt(max(s2, 0.0))
        if sigma == 0.0:
            return NormEstimate(0.0, True, it, "power_iteration")
        if norm(w - s2 * v) <= tol * s2:
            return NormEstimate(sigma, True, it, "power_iteration")
        v = w / norm(w)
    return NormEstimate(sigma, False, max_iter, "power_iteration")


def _core_estimate(last: FioOperator, y, method, tol, max_iter, seed) -> NormEstimate:
    """Norm of a prefix ending in `last` with core `y`: sigma = sqrt(lambda_max(H)),
    H = Y^H G_P Y (see `_chain_cores`), by `eigvalsh` ("auto", "dense_svd") or by
    `_power_iteration` on H from a seeded complex start ("power_iteration").
    A scalar y (a step without an x cutoff) gives sigma = |y| sqrt(lambda_max(G_P)).
    """
    if method not in ("auto", "dense_svd", "power_iteration"):
        raise ValueError(f"unknown norm method {method!r}")
    gram = last.phase_gram()
    if method == "power_iteration":
        h = abs(y) ** 2 * gram if np.ndim(y) == 0 else y.conj().T @ (gram @ y)
        rng = np.random.default_rng(seed)
        start = rng.standard_normal(h.shape[1]) + 1j * rng.standard_normal(h.shape[1])
        return _power_iteration(start, h.dot, tol, max_iter)
    if np.ndim(y) == 0:
        sigma = abs(y) * math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))
    else:
        sigma = math.sqrt(max(np.linalg.eigvalsh(y.conj().T @ (gram @ y))[-1], 0.0))
    return NormEstimate(sigma, True, 1, "dense_svd")


def operator_norm(
    ops: list[FioOperator],
    method: str = "auto",
    tol: float = 1e-6,
    max_iter: int = 500,
    seed: int = 0,
) -> NormEstimate:
    """L2 operator norm of a chain of quantized operators (applied first-to-last).

    The chain's K x K core (`_chain_cores`) is estimated by `_core_estimate`: the
    exact top eigenvalue of its Hermitian core for "auto" and "dense_svd" (tol,
    max_iter and seed unused), or power iteration certified at relative tol, whose
    non-convergence is reported, not raised.
    """
    if not ops:
        raise ValueError("need at least one operator")
    for y in _chain_cores(ops):
        pass
    return _core_estimate(ops[-1], y, method, tol, max_iter, seed)


def measure_chain_norms(
    ops: list[FioOperator],
    ns: list[int],
    method: str = "auto",
    tol: float = 1e-6,
    max_iter: int = 500,
    seed: int = 0,
) -> dict[int, NormEstimate]:
    """Chain norms at several prefix lengths from one running K x K core product.

    Each requested length is estimated from its core by `_core_estimate` (see
    `operator_norm`), so an n-sweep costs one pass of K x K matmuls, not one per n.
    Each ``wall_ms`` is the time spent on its n after the previous n finished.
    An exact n = 1 estimate is `operator_norm` of the first step, from the same
    core, so it also fills that step's empty `trivial_bound` cache entry.
    """
    ns = sorted(set(ns))
    if not ns or ns[0] < 1 or ns[-1] > len(ops):
        raise ValueError("prefix lengths must satisfy 1 <= n <= len(ops)")
    out: dict[int, NormEstimate] = {}
    cores = enumerate(_chain_cores(ops), start=1)
    k = 0
    for n in ns:
        t0 = time.perf_counter()
        while k < n:
            k, y = next(cores)
        est = _core_estimate(ops[n - 1], y, method, tol, max_iter, seed)
        est.wall_ms = (time.perf_counter() - t0) * 1e3
        out[n] = est
        if n == 1 and method != "power_iteration":
            ops[0]._norm_cache.setdefault(("dense_svd",), est)
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
    if not ops:
        raise ValueError("need at least one operator")
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


# thm2 and thm3 of every n of one chain read the same per-step logs.  The memo
# keys on the frozen arguments themselves, compared by value and held alive,
# never on object ids.  It holds one (S, len(chain)) array per key: the chain's
# and its leaf block's, for two chains at a time (``--threads 2``).
@functools.lru_cache(maxsize=4)
def _step_log_dets(chain: ChainSpec, box: Box, samples_per_axis: int, leaf: bool) -> np.ndarray:
    """Per-step log|det| of every step of the chain (or with ``leaf`` of its leaf block,
    on the leaf box) at the S samples of the box, shape (S, len(chain))."""
    return _log_det_steps(chain, box.sample_lattice(samples_per_axis), leaf=leaf)


def _sampled_log_dets(chain, box, n, samples_per_axis, leaf=False) -> np.ndarray:
    """log|det| of the n-step chain (or its leaf block) at the S samples, shape (S,).

    The pairwise sum of the first n columns of `_step_log_dets`: no underflow
    where the determinant would, and O(eps log n) rounding, not O(eps n).
    """
    logs = _step_log_dets(chain, box, samples_per_axis, leaf)
    return logs[:, : _check_steps(chain, n)].sum(axis=-1)


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
    log_sup = float(np.max(_sampled_log_dets(chain, omega2_tilde, n, samples_per_axis)))
    return (
        (2.0 * math.pi * hbar) ** (-d / 2.0) * math.sqrt(omega2_tilde.volume) * math.exp(log_sup / 2.0)
    )


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
    log_sup = float(np.max(_sampled_log_dets(chain, omega2_tilde, n, samples_per_axis)))
    log_inf_tilde = 0.0
    if r < d:
        tilde_box = Box(omega2_tilde.lo[r:], omega2_tilde.hi[r:])
        log_t = _sampled_log_dets(chain, tilde_box, n, samples_per_axis, leaf=True)
        log_inf_tilde = float(np.min(log_t))
    return (2.0 * math.pi * hbar) ** (-r / 2.0) * math.exp((log_sup - log_inf_tilde) / 2.0)


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

