"""Norm estimation and the two families of dispersive bounds.

Closed-form oracles: for the diagonal contraction with rate lam the n-step
determinant is exp(-n d lam tau) independent of xi, so both bounds reduce to
elementary expressions that are frozen here and compared digit by digit.
"""

import math
import time

import numpy as np
import pytest

from fiochain.bounds import (
    _power_iteration,
    decay_rate_fit,
    loglog_slope,
    measure_chain_norms,
    operator_norm,
    thm2_bound,
    thm3_bound,
    trivial_bound,
)
from fiochain.dynamics import ChainSpec
from fiochain.fio import FioOperator
from fiochain.scenarios import build_scenario, make_operators
from fiochain.symbols import Box

from oracles import dense_chain_norms
from test_dynamics import block_diag_map, contraction_map


def matrix_power_iteration(m, tol, max_iter=500, seed=0):
    # the library's power loop on a plain matrix, Euclidean norm, seeded start
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
    return _power_iteration(
        start,
        lambda v: m @ v,
        lambda w: m.conj().T @ w,
        lambda v: float(np.linalg.norm(v)),
        tol,
        max_iter,
    )


def test_operator_norm_known_singular_values():
    rng = np.random.default_rng(0)
    # random matrix with planted top singular value
    u = rng.standard_normal(40)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(40)
    v /= np.linalg.norm(v)
    m = 3.7 * np.outer(u, v) + 0.1 * rng.standard_normal((40, 40))
    exact = float(np.linalg.svd(m, compute_uv=False)[0])
    est_p = matrix_power_iteration(m, tol=1e-10, seed=3)
    assert est_p.value == pytest.approx(exact, rel=1e-6)
    assert est_p.converged


def test_power_iteration_diagonal_matrix():
    m = np.diag([3.0, 2.0, 1.0, 0.5])
    est = matrix_power_iteration(m, tol=1e-12)
    assert est.value == pytest.approx(3.0, rel=1e-9)


def test_power_iteration_nonconvergence_flagged():
    # two equal top singular values: the Rayleigh quotient still converges to
    # the right value, so force non-convergence with a tiny iteration budget
    rng = np.random.default_rng(5)
    m = rng.standard_normal((60, 60))
    est = matrix_power_iteration(m, tol=1e-14, max_iter=2)
    assert not est.converged
    assert est.iterations == 2


def test_operator_norm_on_chain_matches_dense():
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    ops = make_operators(spec, 12)
    dense = operator_norm(ops, method="dense_svd")
    power = operator_norm(ops, method="power_iteration", tol=1e-10)
    assert power.value == pytest.approx(dense.value, rel=1e-6)
    auto = operator_norm(ops, method="auto")
    assert auto.method == "dense_svd"
    assert auto.value == pytest.approx(dense.value, rel=1e-12)


def test_auto_is_exact_on_every_grid():
    # 48^2 = 2304 grid points: auto is the factored K x K path, not an estimate
    ops = make_operators(build_scenario("surface_model", {"hbar": 5e-3}), 2)
    want = dense_chain_norms(ops, [2])[2]
    est = operator_norm(ops, method="auto")
    assert est.method == "dense_svd" and est.converged
    assert est.value == pytest.approx(want, rel=1e-12)
    assert measure_chain_norms(ops, [2])[2].value == pytest.approx(want, rel=1e-12)


def test_steps_without_cutoff_never_form_forward_rows(monkeypatch):
    spec = build_scenario("surface_model", {"hbar": 1e-2, "n_points": 32})
    ops = make_operators(spec, 4)
    first, tail = ops[0], ops[1]
    built, factored = [], []
    rows, r_forward = FioOperator.forward_rows, FioOperator.r_forward
    monkeypatch.setattr(FioOperator, "forward_rows", lambda self: built.append(self) or rows(self))
    monkeypatch.setattr(FioOperator, "r_forward", lambda self: factored.append(self) or r_forward(self))
    measure_chain_norms(ops, [1, 2, 4])
    trivial_bound(ops)
    assert built == [first]
    # the tail's own norm scales R_P by sqrt(c): no sqrt(c) I is built or multiplied
    assert tail not in factored
    g = tail.grid
    k = len(tail.support_indices())
    c = g.position_weight() / g.momentum_weight()
    own = tail._norm_cache[("dense_svd",)].value
    assert own == float(np.linalg.norm(np.sqrt(c) * tail.r_phase(), 2))
    assert np.array_equal(tail.r_forward(), np.sqrt(c) * np.eye(k))
    for op in ops:
        arrays = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
        assert all(a.shape not in ((k, g.size), (g.size, k)) for a in arrays if a is not op._matrix())


def test_measure_chain_norms_prefixes():
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    ops = make_operators(spec, 6)
    ns = [1, 3, 6]
    out = measure_chain_norms(ops, ns, method="dense_svd")
    assert sorted(out) == ns
    for n in ns:
        direct = operator_norm(ops[:n], method="dense_svd")
        assert out[n].value == pytest.approx(direct.value, rel=1e-12)
    # norms never increase along a sub-unitary chain modulo O(hbar) slack
    vals = [out[n].value for n in ns]
    assert vals[0] <= 1.0 + 5 * spec.grid.hbar
    assert vals[2] <= vals[0] * (1.0 + 5 * spec.grid.hbar) ** 6


def test_trivial_bound_is_product_of_step_norms():
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    ops = make_operators(spec, 4)
    tb = trivial_bound(ops, method="dense_svd")
    assert tb.method == "product_of_step_norms"
    prod = 1.0
    for op in ops:
        prod *= operator_norm([op], method="dense_svd").value
    assert tb.value == pytest.approx(prod, rel=1e-10)
    # trivial bound dominates the measured chain norm
    measured = operator_norm(ops, method="dense_svd").value
    assert measured <= tb.value * (1 + 1e-10)
    # repeated steps share the cached per-step norm, so a second call is exact
    tb2 = trivial_bound(ops, method="dense_svd")
    assert tb2.value == tb.value


@pytest.mark.parametrize(
    "name, params, n",
    [
        ("isotropic_contraction", {"hbar": 2e-2, "n_points": 64}, 8),
        ("identity", {"hbar": 2e-2, "n_points": 64}, 4),
        ("block_root_model", {"hbar": 2e-2, "n_points": 24}, 4),
        ("surface_model", {"hbar": 1e-2, "n_points": 32}, 4),
    ],
)
def test_factored_chain_norms_match_dense_products(name, params, n):
    # the K x K core path against the literal product of N^d x N^d matrices
    ops = make_operators(build_scenario(name, params), n)
    ns = list(range(1, n + 1))
    want = dense_chain_norms(ops, ns)
    got = measure_chain_norms(ops, ns, method="dense_svd")
    step = {op: dense_chain_norms([op], [1])[1] for op in ops}
    for k in ns:
        assert got[k].value == pytest.approx(want[k], rel=1e-12)
        assert got[k].method == "dense_svd" and got[k].converged
        triv = trivial_bound(ops[:k], method="dense_svd")
        assert triv.value == pytest.approx(math.prod(step[op] for op in ops[:k]), rel=1e-12)
    assert operator_norm(ops, method="dense_svd").value == pytest.approx(want[n], rel=1e-12)


def test_dense_svd_path_never_forms_dense_steps(monkeypatch):
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    ops = make_operators(spec, 6)

    def refuse(self):
        raise AssertionError("dense N^d x N^d realization formed on the norm path")

    monkeypatch.setattr(FioOperator, "to_dense", refuse)
    out = measure_chain_norms(ops, [1, 3, 6], method="dense_svd")
    assert out[6].value == pytest.approx(operator_norm(ops, method="dense_svd").value, rel=1e-12)
    assert trivial_bound(ops, method="dense_svd").converged


def test_trivial_bound_cache_keeps_convergence_and_method():
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    ops = make_operators(spec, 4)
    starved = dict(method="power_iteration", tol=1e-14, max_iter=2)
    first = trivial_bound(ops[:2], **starved)
    assert not first.converged and first.iterations == 2
    # steps 3 and 4 reuse the cached estimate of step 2, which did not converge
    again = trivial_bound(ops, **starved)
    assert not again.converged and again.iterations == 2
    # a dense request is not answered from the cached power estimate
    exact = trivial_bound(ops, method="dense_svd")
    step = {op: dense_chain_norms([op], [1])[1] for op in ops}
    assert exact.converged and exact.iterations == 1
    assert exact.value == pytest.approx(math.prod(step[op] for op in ops), rel=1e-12)
    assert exact.value != again.value


def test_trivial_bound_shares_the_exact_estimate_between_auto_and_dense(monkeypatch):
    # "auto" and "dense_svd" are one exact path that ignores tol, so a second
    # request under the other name or another tol is answered from the cache
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    ops = make_operators(spec, 3)
    first = trivial_bound(ops, "auto")
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(a) or norm(*a, **k))
    again = trivial_bound(ops, "dense_svd", tol=1e-3)
    assert again.value == first.value and again.converged
    assert calls == []


def test_thm2_bound_closed_form():
    # diagonal contraction: sup det = exp(-n lam tau) exactly, so
    # bound = (2 pi h)^{-1/2} sqrt(|W|) exp(-n lam tau / 2)
    lam, tau, n, hbar = 1.0, 0.35, 6, 1e-2
    chain = ChainSpec.repeated(contraction_map(lam, tau), n)
    window = Box((-0.55,), (1.55,))
    got = thm2_bound(chain, hbar, window, n)
    expected = (
        (2 * math.pi * hbar) ** -0.5 * math.sqrt(2.1) * math.exp(-n * lam * tau / 2)
    )
    assert got == pytest.approx(expected, rel=1e-12)


def test_thm2_bound_uses_sup_over_window():
    # xi-dependent determinant: sup must sit at the window corner
    def p(xi):
        return xi - 0.1 * xi**2

    def grad_p(xi):
        return (1.0 - 0.2 * xi)[..., None]

    from fiochain.dynamics import MomentumMap

    m = MomentumMap(1, p, grad_p, lambda xi: np.zeros(xi.shape[:-1]), np.zeros_like)
    chain = ChainSpec((m,))
    window = Box((0.0,), (1.0,))
    hbar = 1e-2
    got = thm2_bound(chain, hbar, window, 1, samples_per_axis=101)
    sup_det = 1.0  # attained at xi = 0
    expected = (2 * math.pi * hbar) ** -0.5 * 1.0 * math.sqrt(sup_det)
    assert got == pytest.approx(expected, rel=1e-12)


def test_thm3_bound_closed_form_block_diag():
    # head contracts at rate mu, leaf is an isometry: the leaf inf is 1 and
    # only r = 1 powers of hbar appear
    tau, rate, n, hbar = 0.7, 0.5, 4, 1e-2
    chain = ChainSpec.repeated(block_diag_map(rate, 0.0, tau), n)
    window = Box((-0.5, 0.1), (0.5, 1.0))
    got = thm3_bound(chain, hbar, window, n)
    sup_det = math.exp(-n * tau * rate)
    expected = (2 * math.pi * hbar) ** -0.5 * math.sqrt(sup_det)
    assert got == pytest.approx(expected, rel=1e-12)
    # and it beats the full-volume bound at this hbar
    assert got < thm2_bound(chain, hbar, window, n)


def test_thm3_bound_contracting_leaf():
    tau, head, leaf, n, hbar = 0.7, 0.5, 0.25, 3, 1e-2
    chain = ChainSpec.repeated(block_diag_map(head, leaf, tau), n)
    window = Box((-0.5, 0.1), (0.5, 1.0))
    got = thm3_bound(chain, hbar, window, n)
    sup_det = math.exp(-n * tau * (head + leaf))
    inf_tilde = math.exp(-n * tau * leaf)
    expected = (2 * math.pi * hbar) ** -0.5 * math.sqrt(sup_det / inf_tilde)
    assert got == pytest.approx(expected, rel=1e-10)


def test_thm3_requires_blocks():
    chain = ChainSpec.repeated(contraction_map(), 2)
    with pytest.raises(ValueError, match="every step needs a block split, all with the same r"):
        thm3_bound(chain, 1e-2, Box((-0.5,), (1.5,)), 2)


def test_thm3_full_rank_equals_pointwise_form():
    # r = d: no leaf directions, bound = (2 pi h)^{-d/2} sqrt(sup det)
    from fiochain.dynamics import BlockSplit, MomentumMap

    base = contraction_map()
    split = BlockSplit(r=1, tilde_p=lambda xt: xt, grad_tilde_p=lambda xt: np.ones((0, 0)))
    m = MomentumMap(1, base.p, base.grad_p, base.alpha, base.grad_alpha, block=split)
    n, hbar = 3, 1e-2
    chain = ChainSpec.repeated(m, n)
    window = Box((-0.55,), (1.55,))
    got = thm3_bound(chain, hbar, window, n)
    expected = (2 * math.pi * hbar) ** -0.5 * math.exp(-n * 0.35 / 2)
    assert got == pytest.approx(expected, rel=1e-12)


def test_decay_rate_fit_exact_exponential():
    ns = np.arange(4, 20)
    rate = -0.17
    vals = 2.3 * np.exp(rate * ns)
    fit = decay_rate_fit(ns, vals)
    assert fit.slope == pytest.approx(rate, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == len(ns)
    assert math.exp(fit.intercept) == pytest.approx(2.3, rel=1e-10)


def test_decay_rate_fit_requires_points():
    with pytest.raises(ValueError):
        decay_rate_fit([1, 2, 3], [1.0, 0.5, 0.25])  # fewer than 4
    with pytest.raises(ValueError):
        decay_rate_fit([1, 2, 3, 4], [1.0, 0.5, 0.0, 0.25])  # nonpositive value


def test_loglog_slope_power_law():
    hs = np.array([1 / 200, 1 / 400, 1 / 800])
    vals = 7.0 * hs**1.3
    assert loglog_slope(hs, vals) == pytest.approx(1.3, abs=1e-12)
    with pytest.raises(ValueError):
        loglog_slope([1.0], [2.0])


def test_norm_estimates_record_timing_fields():
    # wall_ms is the time spent on each n after the previous n finished, on both
    # paths, so the per-n times never add up to more than the whole call
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    ops = make_operators(spec, 2)
    for method in ("dense_svd", "power_iteration"):
        t0 = time.perf_counter()
        out = measure_chain_norms(ops, [1, 2], method=method)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        assert all(est.wall_ms is not None and est.wall_ms >= 0.0 for est in out.values())
        assert sum(est.wall_ms for est in out.values()) <= elapsed_ms
