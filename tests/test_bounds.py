"""Norm estimation and the two families of dispersive bounds.

Closed-form oracles: for the diagonal contraction with rate lam the n-step
determinant is exp(-n d lam tau) independent of xi, so both bounds reduce to
elementary expressions that are frozen here and compared digit by digit.
"""

import functools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from fiochain import bounds, fio
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
from fiochain.cli import main
from fiochain.dynamics import ChainSpec
from fiochain.fio import FioOperator
from fiochain.scenarios import build_scenario, make_operators
from fiochain.symbols import Box

from oracles import dense_chain_norms, matrix_free_chain_norm, separable_chain_norms
from test_dynamics import block_diag_map, contraction_map


def matrix_power_iteration(m, tol, max_iter=500, seed=0):
    # the library's power loop on m^H m of a plain matrix, seeded start
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
    return _power_iteration(start, lambda v: m.conj().T @ (m @ v), tol, max_iter)


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_power_iteration_converged_means_certified(seed):
    # sigma_2 / sigma_1 = 0.995 here: a stagnation stop reported converged=true
    # 5e-5 below the norm; the residual certificate holds out until it is met
    ops = make_operators(build_scenario("surface_model", {"hbar": 5e-3}), 2)
    exact = operator_norm(ops, method="auto").value
    tol = 1e-6
    results = [operator_norm(ops, "power_iteration", tol, max_iter, seed) for max_iter in (500, 2000)]
    for est in results:
        assert est.value <= exact * (1 + 1e-12)
        if est.converged:
            assert abs(est.value - exact) <= tol * exact
    assert results[-1].converged


def test_operator_norm_on_chain_matches_dense():
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    ops = make_operators(spec, 12)
    dense = operator_norm(ops, method="dense_svd")
    power = operator_norm(ops, method="power_iteration", tol=1e-10)
    assert power.value == pytest.approx(dense.value, rel=1e-6)
    auto = operator_norm(ops, method="auto")
    assert auto.method == "dense_svd"
    assert auto.value == pytest.approx(dense.value, rel=1e-12)


def test_chain_norms_match_matrix_free_power_iteration():
    # long chains on the full 512-point grid, against power iteration that
    # applies every step on the grid and never forms the K x K core
    ops = make_operators(build_scenario("isotropic_contraction", {"hbar": 1e-2}), 18)
    ns = [10, 14, 18]
    exact = measure_chain_norms(ops, ns)
    power = measure_chain_norms(ops, ns, method="power_iteration", tol=1e-8)
    for n in ns:
        want = matrix_free_chain_norm(ops[:n])
        assert exact[n].value == pytest.approx(want, rel=1e-9)
        assert power[n].converged
        assert power[n].value == pytest.approx(want, rel=1e-8)


def test_auto_is_exact_on_every_grid():
    # 48^2 = 2304 grid points: auto is the factored K x K path, not an estimate
    ops = make_operators(build_scenario("surface_model", {"hbar": 5e-3}), 2)
    want = dense_chain_norms(ops, [2])[2]
    est = operator_norm(ops, method="auto")
    assert est.method == "dense_svd" and est.converged
    assert est.value == pytest.approx(want, rel=1e-12)
    assert measure_chain_norms(ops, [2])[2].value == pytest.approx(want, rel=1e-12)


def test_no_step_forms_forward_rows(monkeypatch):
    # the first step's F enters through its per-axis roots, the tail's as the
    # scalar sqrt(c): neither the norms nor the trivial bound form the K x N^d rows
    spec = build_scenario("surface_model", {"hbar": 1e-2, "n_points": 32})
    ops = make_operators(spec, 4)
    first, tail = ops[0], ops[1]
    factored, forward_factor = [], FioOperator.forward_factor

    def refuse(self):
        raise AssertionError("forward rows formed on the norm path")

    monkeypatch.setattr(FioOperator, "forward_rows", refuse)
    monkeypatch.setattr(
        FioOperator, "forward_factor", lambda self: factored.append(self) or forward_factor(self)
    )
    measure_chain_norms(ops, [1, 2, 4])
    trivial_bound(ops)
    g = tail.grid
    k = len(tail.support_indices())
    # B is held as its per-axis roots, K_a x K_a, never as the K x K product
    roots = first.forward_factor()
    assert first in factored and [r.shape for r in roots] == [(len(f),) * 2 for f in first._forward_axes()]
    assert all(r.size < k * k for r in roots)
    # the tail's own norm is sqrt(c lambda_max(G_P)): no sqrt(c) I is built or multiplied
    c = g.position_weight() / g.momentum_weight()
    assert tail.forward_factor() == np.sqrt(c)
    own = tail._norm.value
    top = np.linalg.eigvalsh(tail.phase_gram())[-1]
    assert own == pytest.approx(np.sqrt(c * top), rel=1e-15)
    for op in ops:
        arrays = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
        assert all(a.shape not in ((k, g.size), (g.size, k)) for a in arrays if a is not op._matrix())


@pytest.mark.parametrize(
    "name, params",
    [
        ("isotropic_contraction", {"hbar": 1e-2}),
        ("surface_model", {"hbar": 5e-3}),
        ("block_root_model", {"hbar": 2e-2, "contracted_rates": [1.0, 0.5], "leaf_rates": [0.3]}),
    ],
)
def test_factored_link_and_root_match_dense_products(name, params):
    # M Y in row blocks of the link's factors, M B and B^H G B from the per-axis roots,
    # and the row-blocked Y^H G Y against the same products of the expanded K x K arrays
    first, tail = make_operators(build_scenario(name, params), 2)
    factors, roots, gram = tail.transfer(first), first.forward_factor(), tail.phase_gram()
    k = len(first.support_indices())
    assert len(factors) == len(roots) == first.grid.dimension
    m, b = fio._column_kron(factors, np.ones(k)), functools.reduce(np.kron, roots)
    rng = np.random.default_rng(3)
    y = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))

    def close(got, want):
        return got.shape == want.shape and np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    assert close(fio._apply_link(factors, y), m @ y)
    assert close(fio._apply_link(factors, roots), m @ b)
    assert close(fio._apply_link(factors, np.sqrt(2.0)), np.sqrt(2.0) * m)
    assert close(fio._kron_apply(roots, y), b @ y)
    assert close(fio._kron_apply(roots, y, right=True), y @ b)
    assert close(bounds._hermitian_core(gram, roots), b.conj().T @ gram @ b)
    assert close(bounds._hermitian_core(gram, y), y.conj().T @ gram @ y)


def test_norm_path_working_set_is_four_k_by_k_arrays():
    # the norms and the trivial bound hold G_P, the running core Y, H = Y^H G_P Y and the
    # copy eigvalsh makes of H (outside tracemalloc's view); the links and the first step's
    # root are per-axis factors.  Above G_P the traced peak, factors included, stays under
    # 4.5 K x K arrays, and no K x K array outlives the calls.  The even surface chain
    # (zero action, centred cutoffs) holds them as float64, 8 bytes an entry; the
    # isotropic chain (alpha != 0) as complex128, and in 1-d its link and root are the
    # K x K factors themselves, cached on the steps, so they are built before the count
    for name, params, k, itemsize in [
        ("surface_model", {"hbar": 5e-3}, 225, 8),
        ("isotropic_contraction", {"hbar": 2.5e-3}, 229, 16),
    ]:
        ops = make_operators(build_scenario(name, params), 6)
        assert len(ops[0].support_indices()) == k
        assert ops[0].phase_gram().itemsize == itemsize
        if ops[0].grid.dimension == 1:
            ops[1].transfer(ops[0])
            ops[1].transfer(ops[1])
            ops[0].forward_factor()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            measure_chain_norms(ops, [2, 4, 6])
            trivial_bound(ops)
            retained, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        array = itemsize * k * k
        assert peak <= 4.5 * array, name
        assert retained <= 0.5 * array, name


@pytest.mark.parametrize(
    "command, name, params",
    [("norm", "surface_model", {"n_points": 32}), ("sweep", "isotropic_contraction", {})],
)
def test_norm_path_runs_no_k_by_k_factorization(tmp_path, monkeypatch, command, name, params):
    # every norm is the top eigenvalue of a Hermitian core (eigvalsh): no SVD,
    # no matrix norm, and no eigh larger than one axis of the theta support
    spec = build_scenario(name, {"hbar": 1e-2, **params})
    first = make_operators(spec, 1)[0]
    theta = first.grid.momentum_points()[first.support_indices()]
    widest = max(len(np.unique(theta[:, a])) for a in range(spec.grid.dimension))
    sizes, eigh = [], np.linalg.eigh

    def refuse(*args, **kwargs):
        raise AssertionError("the norm path ran an SVD or a matrix norm")

    def small_eigh(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        if a.shape[-1] > widest:
            raise AssertionError(f"eigh of a {a.shape} matrix on the norm path")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)
    monkeypatch.setattr(np.linalg, "eigh", small_eigh)
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps({"scenario": name, "hbar_values": [1e-2], "params": params, "n_values": [1, 2, 4]})
    )
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
    assert len(sizes) == spec.grid.dimension
    if spec.grid.dimension > 1:
        assert widest < len(theta)


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


def test_empty_chain_is_refused():
    # no norm of the empty chain is read as the identity's 1
    for measure in (operator_norm, trivial_bound):
        with pytest.raises(ValueError, match="need at least one operator"):
            measure([])
    with pytest.raises(ValueError):
        measure_chain_norms([], [1])


@pytest.mark.parametrize("method", ["auto", "dense_svd", "power_iteration"])
def test_exact_n1_estimate_is_the_first_steps_cached_norm(method):
    # the n = 1 core is the first step's own: an exact sweep through n = 1
    # leaves its estimate in the step's trivial-bound slot, where it is
    # operator_norm of the step bit for bit; power iteration leaves the slot empty
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    ops = make_operators(spec, 3)
    out = measure_chain_norms(ops, [1, 3], method=method)
    if method == "power_iteration":
        assert ops[0]._norm is None
        return
    assert ops[0]._norm is out[1]
    assert out[1].value == operator_norm(ops[:1], method="dense_svd").value
    assert trivial_bound(ops[:1]).value == out[1].value
    # an estimate already there stays
    measure_chain_norms(ops, [1], method=method)
    assert ops[0]._norm is out[1]


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


def test_3d_chain_norms_and_bounds_are_products_of_1d_chains():
    # a diagonal map with box cutoffs is a tensor product of 1-d steps, one per
    # axis, so the 3-d chain norms (N^d 13,824, past every dense oracle) and
    # both bounds are products of the 1-d ones on matching 24-point grids
    hbar, ns = 1e-2, [1, 2, 4, 6]
    spec = build_scenario(
        "block_root_model", {"hbar": hbar, "contracted_rates": [1.0, 0.5], "leaf_rates": [0.3]}
    )
    assert spec.grid.n_points == 24 and len(make_operators(spec, 1)[0].support_indices()) == 392
    axes = [
        build_scenario(
            "block_root_model",
            {"hbar": hbar, "n_points": 24, "contracted_rates": c, "leaf_rates": leaf},
        )
        for c, leaf in [([1.0], []), ([0.5], []), ([], [0.3])]
    ]
    got = measure_chain_norms(make_operators(spec, max(ns)), ns)
    want = separable_chain_norms([make_operators(s, max(ns)) for s in axes], ns)
    for n in ns:
        assert got[n].value == pytest.approx(want[n], rel=1e-13)
        # the determinants are constant, so 8 samples per axis resolve the suprema
        for bound in (thm2_bound, thm3_bound):
            each = [bound(s.chain(n), hbar, s.omega2_tilde, samples_per_axis=8) for s in axes]
            whole = bound(spec.chain(n), hbar, spec.omega2_tilde, samples_per_axis=8)
            assert whole == pytest.approx(math.prod(each), rel=1e-13)


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
    exact = trivial_bound(ops, method="dense_svd")
    step = {op: dense_chain_norms([op], [1])[1] for op in ops}
    assert exact.converged and exact.iterations == 1
    assert exact.method == "product_of_step_norms"
    assert exact.value == pytest.approx(math.prod(step[op] for op in ops), rel=1e-12)


def test_trivial_bound_refuses_power_iteration():
    # a single step is nearly unitary, so a residual certificate cannot
    # certify its norm: the trivial bound takes exact step norms only
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    ops = make_operators(spec, 2)
    for method in ("power_iteration", "magic"):
        with pytest.raises(ValueError, match="exact"):
            trivial_bound(ops, method)
    assert all(op._norm is None for op in ops)


def test_trivial_bound_shares_the_exact_estimate_between_auto_and_dense(monkeypatch):
    # "auto" and "dense_svd" are one exact path, so a second request under
    # the other name is answered from the cache
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    ops = make_operators(spec, 3)
    first = trivial_bound(ops, "auto")
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(a) or norm(*a, **k))
    again = trivial_bound(ops, "dense_svd")
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


def test_norm_row_evaluates_one_det_sup(tmp_path, monkeypatch):
    # thm2 and thm3 of every row at one hbar read one evaluation of per-step
    # determinants over the longest chain: one for the chain, one for its leaf
    calls, steps = [], bounds._step_dets
    monkeypatch.setattr(
        bounds,
        "_step_dets",
        lambda chain, *a, **kw: calls.append((len(chain), kw["leaf"])) or steps(chain, *a, **kw),
    )
    cfg = tmp_path / "row.json"
    cfg.write_text(
        json.dumps(
            {"scenario": "surface_model", "hbar_values": [1e-2], "params": {"n_points": 24}, "n_values": [2, 3]}
        )
    )
    out = tmp_path / "o.csv"
    assert main(["norm", "--config", str(cfg), "--out", str(out)]) == 0
    for line in out.read_text().splitlines()[1:]:
        row = line.split(",")
        assert float(row[5]) > 0.0 and float(row[6]) > 0.0  # thm2_bound, thm3_bound
    assert calls == [(3, False), (3, True)]
    # each n's sup is the one its own chain gives
    spec = build_scenario("surface_model", {"hbar": 1e-2, "n_points": 24})
    for line in out.read_text().splitlines()[1:]:
        row = line.split(",")
        n = int(row[2])
        assert float(row[5]) == thm2_bound(spec.chain(n), 1e-2, spec.omega2_tilde)
        assert float(row[6]) == thm3_bound(spec.chain(n), 1e-2, spec.omega2_tilde)


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


def test_bounds_stay_exact_past_the_determinant_underflow():
    # e^(-0.35 n) leaves the normal range near n 2,020; the log-space suprema
    # still give the closed forms at n 3000
    hbar, n = 1e-2, 3000
    spec = build_scenario("isotropic_contraction", {"hbar": hbar, "n_max": n})
    W, lam_tau = spec.omega2_tilde, 1.0 * 0.35  # the scenario's default lam and tau
    expected = (2 * math.pi * hbar) ** -0.5 * math.sqrt(W.volume) * math.exp(-lam_tau * n / 2)
    assert thm2_bound(spec.chain(n), hbar, W, n) == pytest.approx(expected, rel=1e-12)
    # the chain sup (e^(-2100)) and the leaf inf (e^(-1050)) would both underflow to 0
    tau, head, leaf = 0.7, 0.5, 0.5
    chain = ChainSpec.repeated(block_diag_map(head, leaf, tau), n)
    got = thm3_bound(chain, hbar, Box((-0.5, 0.1), (0.5, 1.0)), n, samples_per_axis=8)
    expected = (2 * math.pi * hbar) ** -0.5 * math.exp(-n * tau * head / 2)
    assert got == pytest.approx(expected, rel=1e-12)


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
