"""Measured chain norms and the analytic bounds they are compared against.

Three quantities are attached to a chain of n quantized steps:

* the measured L2 operator norm: the square root of the top eigenvalue of a
  K x K Hermitian core of the factored chain (K support momenta per step, see
  `_chain_cores`) on every grid, by `eigvalsh` (what the CLI and
  `trivial_bound` use) or, when asked for by name, by power iteration on the
  same core with a residual certificate,
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
from .fio import FioOperator, _apply_link, _kron_apply

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

# row blocks of H = Y^H G_P Y in `_hermitian_core` (its temporary K^2/8 entries): at K = 961,
# 64-column blocks took 30% longer than one product; at K = 57, 8-column blocks twice as long
_CORE_BLOCKS = 8
_CORE_MIN_WIDTH = 64


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
    the core's norm (Weyl).

    Y_1 is B_1 as its per-axis roots (the scalar sqrt(c) without an x cutoff)
    and each link is applied from its per-axis factors (`fio._apply_link`):
    neither M_j nor B_1 is formed as a K x K array.  Y_k is float64 when they
    are, on an even chain (zero action, centred cutoffs; see `fio`).
    """
    y = ops[0].forward_factor()
    yield y
    for prev, op in zip(ops, ops[1:]):
        y = _apply_link(op.transfer(prev), y)
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


def _conj(a: np.ndarray) -> np.ndarray:
    return np.conjugate(a, out=a)


def _hermitian_core(gram: np.ndarray, y) -> np.ndarray:
    """H = Y^H G Y for a core y from `_chain_cores`, into one new K x K array.

    A matrix y: row blocks H[c, :] = conj(G Y[:, c])^T Y (G = G^H), each
    written in place by one matmul, so the one temporary is the block
    G Y[:, c], K x K/8 (`_CORE_BLOCKS`, at least `_CORE_MIN_WIDTH` wide): no
    conjugated copy of Y and no full G Y.  Per-axis roots:
    B^H G B = conj(B^T conj(G B)), each side one reshaped matmul per axis
    (`fio._kron_apply`).
    """
    if not isinstance(y, np.ndarray):
        # G B is conjugated in place and handed on unnamed, so no caller holds it past the first pass
        return _conj(_kron_apply([r.T for r in y], _conj(_kron_apply(y, gram, right=True))))
    h = np.empty((y.shape[1],) * 2, dtype=np.result_type(gram, y))
    width = max(-(-len(h) // _CORE_BLOCKS), _CORE_MIN_WIDTH)
    for lo in range(0, len(h), width):
        cols = slice(lo, lo + width)
        np.matmul(_conj(gram @ y[:, cols]).T, y, out=h[cols])
    return h


def _core_estimate(last: FioOperator, y, method, tol, max_iter, seed) -> NormEstimate:
    """Norm of a prefix ending in `last` with core `y`: sigma = sqrt(lambda_max(H)),
    H = Y^H G_P Y (see `_chain_cores`, `_hermitian_core`), by `eigvalsh` ("auto",
    "dense_svd") or by `_power_iteration` on H from a seeded complex start
    ("power_iteration").  A scalar y (a step without an x cutoff) gives
    sigma = |y| sqrt(lambda_max(G_P)).  The K x K arrays alive are G_P, Y, H and
    `eigvalsh`'s copy of H: float64 on an even chain, whose `eigvalsh` is real.
    """
    if method not in ("auto", "dense_svd", "power_iteration"):
        raise ValueError(f"unknown norm method {method!r}")
    gram = last.phase_gram()
    scalar = np.isscalar(y)
    if method == "power_iteration":
        h = abs(y) ** 2 * gram if scalar else _hermitian_core(gram, y)
        rng = np.random.default_rng(seed)
        start = rng.standard_normal(h.shape[1]) + 1j * rng.standard_normal(h.shape[1])
        return _power_iteration(start, h.dot, tol, max_iter)
    if scalar:
        sigma = abs(y) * math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))
    else:
        sigma = math.sqrt(max(np.linalg.eigvalsh(_hermitian_core(gram, y))[-1], 0.0))
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
    core, so it also fills that step's empty `trivial_bound` slot.
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
        if n == 1 and method != "power_iteration" and ops[0]._norm is None:
            ops[0]._norm = est
    return out


def trivial_bound(ops: list[FioOperator], method: str = "auto") -> NormEstimate:
    """Product of the exact single-step norms (submultiplicative bound).

    "auto" and "dense_svd" are the one exact computation; power iteration is
    refused, because a single step is nearly unitary and its residual
    certificate cannot single out the top singular value.  Each step's
    estimate is cached on the operator instance, so repeated chains pay for
    one measurement.
    """
    if method not in ("auto", "dense_svd"):
        raise ValueError(f"trivial_bound takes exact step norms only, not {method!r}")
    if not ops:
        raise ValueError("need at least one operator")
    value = 1.0
    for op in ops:
        if op._norm is None:
            op._norm = operator_norm([op])
        value *= op._norm.value
    return NormEstimate(value, True, 1, "product_of_step_norms")


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

