"""Quantized operator: fast path vs dense kernel vs direct quadrature.

The fast application (restricted transform + phase matrix) is the production
path, the dense kernel is the cross-check used by the norm machinery, and the
double-quadrature reference lives in oracles.reference_apply_dense_1d.  All
three must agree to rounding error on the same grid, and the closed-form image
of a plane wave pins the normalization.
"""

import functools
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fiochain import fio
from fiochain.dynamics import ChainSpec, evolve_momentum, jacobian_chain, phase_cocycle
from fiochain.fio import (
    DENSE_SIZE_LIMIT,
    FioOperator,
    apply_fio,
    chain_apply,
    leading_form,
)
from fiochain.grid import GridSpec, Wavefunction, l2_norm, plane_wave
from fiochain.scenarios import build_scenario, make_operators
from fiochain.symbols import Box, SymbolSpec, leading_symbol_product
from fiochain.bounds import measure_chain_norms, trivial_bound
from fiochain.cli import main
from oracles import (
    dense_chain_norms,
    inner_product,
    leading_form_columns,
    reference_apply_dense_1d,
)


def small_contraction_op(n_points=128, hbar=2e-2):
    spec = build_scenario(
        "isotropic_contraction", {"hbar": hbar, "n_points": n_points}
    )
    return spec, make_operators(spec, 1)[0]


def random_wave(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return Wavefunction(grid, vals)


def test_fast_matches_dense():
    spec, op = small_contraction_op()
    dense = op.to_dense().matrix
    for seed in range(5):
        f = random_wave(op.grid, seed)
        fast = apply_fio(op, f).values
        ref = (dense @ f.values.ravel()).reshape(op.grid.shape)
        assert np.max(np.abs(fast - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_fast_matches_reference_quadrature():
    spec, op = small_contraction_op(n_points=96)
    for seed in range(3):
        f = random_wave(op.grid, seed)
        fast = apply_fio(op, f).values
        ref = reference_apply_dense_1d(op, f).values
        assert np.max(np.abs(fast - ref)) < 1e-11 * max(1.0, np.max(np.abs(ref)))


def test_plane_wave_closed_form():
    # P e^{i<xi0,x>/h} = a0(x, xi0) sqrt(det grad_p) e^{i(<p(xi0),x> + alpha(xi0))/h}
    # when xi0 is a lattice momentum: the spike picks out one theta column.
    # Exact only for x-independent symbols, so use a tail operator.
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    op = make_operators(spec, 2)[1]
    assert op.symbol.x_independent
    g = op.grid
    k = int(np.argmin(np.abs(g.axis_momenta(0) - spec.xi0[0])))
    xi0 = g.axis_momenta(0)[k : k + 1]
    out = apply_fio(op, plane_wave(g, xi0)).values
    th = xi0.reshape(1, 1)
    xs = g.position_points()
    J = op.map.grad_p(xi0)
    phase = (xs @ op.map.p(xi0) + op.map.alpha(xi0)) / g.hbar
    expected = (
        op.symbol.a0(xs, xs, np.broadcast_to(th, xs.shape))
        * np.sqrt(np.linalg.det(J))
        * np.exp(1j * phase)
    )
    assert np.max(np.abs(out - expected)) < 1e-12


def test_operator_norm_near_one():
    spec, op = small_contraction_op()
    s = np.linalg.svd(op.to_dense().matrix, compute_uv=False)
    assert s[0] <= 1.0 + 5 * op.grid.hbar
    assert s[0] > 0.9


def test_adjoint_identity():
    spec, op = small_contraction_op(n_points=96)
    f = random_wave(op.grid, 11)
    h = random_wave(op.grid, 12)
    lhs = inner_product(h, apply_fio(op, f))
    rhs = inner_product(op.adjoint_apply(h), f)
    scale = l2_norm(f) * l2_norm(h)
    assert abs(lhs - rhs) < 1e-12 * scale


def test_adjoint_matches_dense_conjugate_transpose():
    spec, op = small_contraction_op(n_points=96)
    dense = op.to_dense().matrix
    g = random_wave(op.grid, 13)
    fast = op.adjoint_apply(g).values
    ref = (dense.conj().T @ g.values.ravel()).reshape(op.grid.shape)
    assert np.max(np.abs(fast - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_3d_adjoint_identity():
    # F^H acts along each of three axes with unequal K_a (3, 3, 4): <h, A f> = <A* h, f>
    params = {"hbar": 2e-2, "n_points": 16, "contracted_rates": [1.0, 0.5], "leaf_rates": [0.3]}
    op = make_operators(build_scenario("block_root_model", params), 1)[0]
    assert [len(r) for r in op._forward_axes()] == [3, 3, 4]
    f = random_wave(op.grid, 14)
    h = random_wave(op.grid, 15)
    lhs = inner_product(h, apply_fio(op, f))
    rhs = inner_product(op.adjoint_apply(h), f)
    assert abs(lhs - rhs) < 1e-12 * l2_norm(f) * l2_norm(h)


def test_chain_apply_order():
    # chain_apply([P1, P2], f) must be P2 (P1 f): first map acts first
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    ops = make_operators(spec, 3)
    f = plane_wave(ops[0].grid, spec.xi0)
    step = f
    for op in ops:
        step = apply_fio(op, step)
    chained = chain_apply(ops, f)
    assert np.max(np.abs(chained.values - step.values)) < 1e-12


def test_single_step_matches_wkb_assembly():
    # for one step the modulated-plane-wave ansatz built from the classical
    # ingredients (orbit momentum, phase cocycle, Jacobian determinant, b0)
    # reproduces the operator output exactly on lattice momenta
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 256})
    op = make_operators(spec, 2)[1]
    g = op.grid
    k = int(np.argmin(np.abs(g.axis_momenta(0) - spec.xi0[0])))
    xi0 = g.axis_momenta(0)[k : k + 1]
    chain = ChainSpec((op.map,))
    out = apply_fio(op, plane_wave(g, xi0)).values
    xs = g.position_points()
    xi_n = evolve_momentum(chain, xi0)[-1]
    A_n = phase_cocycle(chain, xi0)
    _, det = jacobian_chain(chain, xi0)
    b0 = leading_symbol_product(chain, [op.symbol], xs, xi0)
    expected = np.sqrt(det) * b0 * np.exp(1j * (A_n + xs @ xi_n) / g.hbar)
    assert np.max(np.abs(out - expected)) < 1e-11


def test_momentum_support_outside_window_refused():
    g = GridSpec(1, 1.0, 64, 1e-2)  # window ~ pi*h*N/(2L) = 1.005
    m_spec = build_scenario("isotropic_contraction", {"hbar": 1e-2}).step_map
    sym = SymbolSpec(Box((-0.8,), (0.8,)), Box((-0.4,), (1.4,)))
    with pytest.raises(ValueError, match="alias|window"):
        FioOperator(m_spec, sym, g)


def test_position_support_outside_box_refused():
    spec = build_scenario("isotropic_contraction", {"hbar": 1e-2})
    g = spec.grid
    sym = SymbolSpec(Box((-1.2,), (1.2,)), spec.omega2)
    with pytest.raises(ValueError):
        FioOperator(spec.step_map, sym, g)


def test_dimension_mismatch_refused():
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2})
    g2 = GridSpec(2, 1.0, 32, 2e-2)
    with pytest.raises(ValueError):
        FioOperator(spec.step_map, spec.symbol_first, g2)


def test_apply_requires_position_representation():
    spec, op = small_contraction_op()
    f = random_wave(op.grid)
    from fiochain.grid import hbar_fourier

    with pytest.raises(ValueError):
        apply_fio(op, hbar_fourier(f))
    g2 = GridSpec(1, 1.0, 64, 2e-2)
    with pytest.raises(ValueError):
        apply_fio(op, random_wave(g2))


def test_chain_apply_refuses_steps_on_two_grids():
    # every step must sit on f's grid, and a mixed chain is refused before
    # any step assembles or links anything
    coarse = make_operators(build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128}), 2)
    fine = make_operators(build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 256}), 1)
    f = plane_wave(coarse[0].grid, np.array([1.0]))
    with pytest.raises(ValueError, match="grid"):
        chain_apply(coarse + fine, f)
    with pytest.raises(ValueError, match="grid"):
        chain_apply(fine + coarse, f)
    assert all(op._phase_matrix is None and not op._transfers for op in coarse + fine)
    from fiochain.grid import hbar_fourier

    with pytest.raises(ValueError, match="position"):
        chain_apply(coarse, hbar_fourier(f))


def test_to_dense_size_guard():
    spec = build_scenario("surface_model", {"hbar": 1e-2})
    op = make_operators(spec, 1)[0]
    n_total = spec.grid.n_points ** spec.grid.dimension
    if n_total > DENSE_SIZE_LIMIT:
        with pytest.raises(ValueError):
            op.to_dense()


def test_support_indices_cover_omega2():
    spec, op = small_contraction_op()
    g = op.grid
    theta = g.momentum_points()[op.support_indices()]
    assert np.all(spec.omega2.contains(theta))
    # every lattice momentum in omega2 is included
    inside = spec.omega2.contains(g.momentum_points())
    assert inside.sum() == len(op.support_indices())


def test_2d_fast_matches_dense():
    spec = build_scenario(
        "surface_model", {"hbar": 2e-2, "n_points": 16}
    )
    op = make_operators(spec, 1)[0]
    dense = op.to_dense().matrix
    f = random_wave(op.grid, 21)
    fast = apply_fio(op, f).values
    ref = (dense @ f.values.ravel()).reshape(op.grid.shape)
    assert np.max(np.abs(fast - ref)) < 1e-11 * max(1.0, np.max(np.abs(ref)))
    # adjoint too
    gvec = random_wave(op.grid, 22)
    fast_adj = op.adjoint_apply(gvec).values
    ref_adj = (dense.conj().T @ gvec.values.ravel()).reshape(op.grid.shape)
    assert np.max(np.abs(fast_adj - ref_adj)) < 1e-11 * max(1.0, np.max(np.abs(ref_adj)))


@pytest.mark.parametrize(
    "name, params",
    [
        ("isotropic_contraction", {"hbar": 2e-2, "n_points": 128}),
        ("surface_model", {"hbar": 1e-2, "n_points": 24}),
    ],
)
def test_fft_links_match_forward_rows_product(name, params):
    # links from the per-axis rows and factors against the explicit F @ P_prev,
    # including a later step that carries the x cutoff (first after tail, first after first)
    spec = build_scenario(name, params)
    first, tail = make_operators(spec, 2)
    for op, prev in [(tail, first), (tail, tail), (first, tail), (first, first)]:
        want = op.forward_rows() @ prev._matrix()
        got = op.transfer(prev)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    chain = [first, tail, first, first]
    ns = [1, 2, 3, 4]
    got = measure_chain_norms(chain, ns)
    want = dense_chain_norms(chain, ns)
    for n in ns:
        assert got[n].value == pytest.approx(want[n], rel=1e-12)


@pytest.mark.parametrize(
    "name, params",
    [
        ("isotropic_contraction", {"hbar": 2e-2, "n_points": 64}),
        ("surface_model", {"hbar": 2e-2, "n_points": 16}),
    ],
)
@pytest.mark.parametrize("step", [0, 1])
def test_phase_matrix_matches_scalar_oracle(name, params, step):
    # the phase matrix of the first step (x cutoff dropped: F applies it) and of
    # a tail step against the scalar-loop leading-form columns of that step
    spec = build_scenario(name, params)
    op = make_operators(spec, 2)[step]
    bare = FioOperator(op.map, replace(op.symbol, omega=None), op.grid)
    theta, want = leading_form_columns([bare], op.symbol.omega2)
    assert np.array_equal(theta, op.grid.momentum_points()[op.support_indices()])
    got = op._matrix()
    assert got.shape == want.shape
    scale = np.abs(want).max(axis=0)
    assert np.all(scale > 0.0)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_leading_form_temporaries_stay_small():
    # the 48^2, K = 143 family of the cotlar_2d benchmark (hbar = 7.5e-3): row
    # blocks keep the traced peak within 2 MiB of the 5 MiB result
    spec = build_scenario("surface_model", {"hbar": 7.5e-3})
    ops = make_operators(spec, 2)
    g = spec.grid
    pts = g.momentum_points()
    theta = pts[spec.omega2_tilde.contains(pts)]
    assert (g.size, len(theta)) == (48 * 48, 143)
    chain = ChainSpec(tuple(op.map for op in ops))
    symbols = [op.symbol for op in ops]
    g.position_points()  # the cached lattice is not a temporary of the call
    tracemalloc.start()
    try:
        out = leading_form(chain, symbols, theta, 2, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == g.size * 143 * 16
    assert peak - out.nbytes <= 2 * 2**20


def _leading_form_cases():
    # the 48^2 n = 2 Cotlar family at hbar 7.5e-3, a step's P (one-step chain,
    # x cutoff dropped, support momenta) and a K = 1 WKB column
    spec = build_scenario("surface_model", {"hbar": 7.5e-3})
    ops = make_operators(spec, 2)
    pts = spec.grid.momentum_points()
    chain = ChainSpec(tuple(op.map for op in ops))
    yield chain, [op.symbol for op in ops], pts[spec.omega2_tilde.contains(pts)], 2, spec.grid
    tail = ops[1]
    yield ChainSpec((tail.map,)), [tail.symbol], pts[tail.support_indices()], 1, spec.grid
    spec = build_scenario("isotropic_contraction", {"hbar": 1e-2})
    ops = make_operators(spec, 5)
    chain = ChainSpec(tuple(op.map for op in ops))
    yield chain, [op.symbol for op in ops], spec.xi0[None, :], 5, spec.grid


@pytest.mark.parametrize("case", range(3))
def test_leading_form_equals_the_unrestricted_evaluation(case):
    # b0 and the phase are evaluated only where chi_n(x) psi_1(theta) != 0, and
    # the result is bit for bit the evaluation over every row and column, in
    # the same order: the axes' plane-wave tables (the first scaled by
    # det^(1/2) e^(i A_n / hbar)) gathered at each point's lattice indices,
    # multiplied in axis order, then by b0.  In place, so the left factor stays
    # left: with FMA a complex product can round differently when swapped
    chain, symbols, theta, n, g = list(_leading_form_cases())[case]
    X = g.position_points()
    orbit = evolve_momentum(chain, theta, n)
    _, det = jacobian_chain(chain, theta, n)
    b0 = leading_symbol_product(chain, symbols, X, theta, n)
    weight = np.sqrt(det) * np.exp(1j * phase_cocycle(chain, theta, n) / g.hbar)
    idx = np.unravel_index(np.arange(g.size), g.shape)
    xs = [g.axis_positions(a) for a in range(g.dimension)]
    tables = [np.exp(1j * np.outer(x, orbit[-1][:, a]) / g.hbar) for a, x in enumerate(xs)]
    want = (tables[0] * weight)[idx[0]]
    for table, i in zip(tables[1:], idx[1:]):
        want *= table[i]
    want *= b0
    got = leading_form(chain, symbols, theta, n, g)
    assert np.array_equal(got, want)
    rows = symbols[n - 1].chi(X) != 0.0
    cols = symbols[0].psi(theta) != 0.0
    assert np.all(got[~rows] == 0.0) and np.all(got[:, ~cols] == 0.0)
    assert np.any(got[np.ix_(rows, cols)] != 0.0)
    if case == 0:  # the family the restriction is for: 1,521 of 2,304 rows, 110 of 143 columns
        assert (rows.sum(), cols.sum()) == (1521, 110)


@pytest.mark.parametrize("case", [0, 2])
def test_per_axis_phase_is_the_single_exp_evaluation_to_rounding(case):
    # the product of per-axis plane waves rounds differently from one exp of
    # the whole phase; they agree within 4 eps det^(1/2) |b0| (1 + M), with
    # M = (|x| . |xi_n| + |A_n|) / hbar the phase's size before cancellation
    # (measured: at most 1.6), plus 16 subnormal units where an entry underflows
    chain, symbols, theta, n, g = list(_leading_form_cases())[case]
    X = g.position_points()
    orbit = evolve_momentum(chain, theta, n)
    _, det = jacobian_chain(chain, theta, n)
    action = phase_cocycle(chain, theta, n)
    b0 = leading_symbol_product(chain, symbols, X, theta, n)
    single = np.sqrt(det) * b0 * np.exp(1j * (X @ orbit[-1].T + action) / g.hbar)
    size = (np.abs(X) @ np.abs(orbit[-1]).T + np.abs(action)) / g.hbar
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    bound = 4 * eps * np.sqrt(det) * np.abs(b0) * (1 + size) + 16 * tiny
    assert np.all(np.abs(leading_form(chain, symbols, theta, n, g) - single) <= bound)


def test_leading_form_refuses_where_psi_vanishes():
    # the window and orientation refusals run over all K momenta, also on a
    # column that psi_1 drops from the evaluation
    spec = build_scenario("isotropic_contraction", {"hbar": 1e-2})
    op = make_operators(spec, 1)[0]
    g, sym = op.grid, op.symbol
    escaping = np.array([[0.5], [g.momentum_half_width[0] + 0.1]])
    assert sym.psi(escaping)[1] == 0.0
    with pytest.raises(ValueError, match="window"):
        leading_form(ChainSpec((op.map,)), [sym], escaping, 1, g)
    # grad p = 1 - xi / 1.45 flips the orientation past xi = 1.45, outside omega2
    folding = replace(
        op.map,
        p=lambda xi: xi - xi**2 / 2.9,
        grad_p=lambda xi: (1.0 - xi / 1.45)[..., None],
    )
    flipped = np.array([[0.5], [1.5]])
    assert sym.psi(flipped)[1] == 0.0
    with pytest.raises(ValueError, match="determinant"):
        leading_form(ChainSpec((folding,)), [sym], flipped, 1, g)


def test_first_step_shares_the_tail_phase_side():
    # the x cutoff acts only in F: P, G_P and the links into the first step are the tail's
    spec = build_scenario("surface_model", {"hbar": 1e-2, "n_points": 24})
    first, tail = make_operators(spec, 2)
    assert first.phase_step is tail and tail.phase_step is tail
    assert first._matrix() is tail._matrix()
    assert first.phase_gram() is tail.phase_gram()
    assert tail.transfer(first) is tail.transfer(tail)
    # the first step's own F still carries its cutoff
    assert not np.array_equal(first.transfer(tail), tail.transfer(tail))
    # a step built on its own derives its cutoff-free phase step
    alone = FioOperator(spec.step_map, spec.symbol_first, spec.grid)
    assert alone.phase_step is not alone and alone.phase_step.symbol == replace(spec.symbol_first, omega=None)
    assert alone._matrix() is alone.phase_step._matrix()
    assert alone.phase_gram() is alone.phase_step.phase_gram()


def test_chain_norms_evaluate_no_full_forward_exponential(monkeypatch):
    # F enters the norms through its K_a x N per-axis rows: no exponential of
    # shape K x N is evaluated, while P's N x K per-axis factors E_a stay
    spec = build_scenario("surface_model", {"hbar": 1e-2, "n_points": 32})
    ops = make_operators(spec, 4)
    k, n = len(ops[0].support_indices()), spec.grid.n_points
    assert k != n
    shapes, exp = [], np.exp

    def recording(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", recording)
    measure_chain_norms(ops, [1, 2, 4])
    assert (n, k) in shapes
    assert (k, n) not in shapes


@pytest.mark.parametrize(
    "command, config",
    [
        ("norm", {"hbar_values": [1e-2], "params": {"n_points": 32}, "n_values": [1, 2, 4]}),
        ("cotlar", {"hbar_values": [1e-2], "n": 2}),
    ],
    ids=["norm", "cotlar"],
)
def test_norm_run_forms_no_phase_matrix_and_runs_no_qr(tmp_path, monkeypatch, command, config):
    # one hbar of surface_model through the CLI: the chain norms read G_P and
    # the links from the per-axis factors of P, and the Cotlar tables the Gram
    # matrix of the leading-form columns, so no step's P is assembled and
    # nothing is QR-factored
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "surface_model", **config}))

    def refuse(*args, **kwargs):
        raise AssertionError("the norm path formed P or ran a QR")

    monkeypatch.setattr(FioOperator, "_matrix", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0


PHASE_GRIDS = [
    ("isotropic_contraction", {"hbar": 1e-2}),
    ("surface_model", {"hbar": 1e-2, "n_points": 32}),
    ("surface_model", {"hbar": 5e-3}),
    ("surface_model", {"hbar": 1e-2, "n_points": 32, "half_width": [0.3, 0.4]}),
    ("surface_model", {"hbar": 1e-2, "half_width": [0.3, 0.4]}),
    ("block_root_model", {"hbar": 1e-2}),
    ("identity", {"hbar": 1e-2}),
    ("block_root_model", {"hbar": 1e-2, "contracted_rates": [1.0, 0.5], "leaf_rates": [0.3]}),
]


@pytest.mark.parametrize("name, params", PHASE_GRIDS)
def test_phase_gram_matches_the_phase_matrix_product(name, params):
    # the Hadamard product of per-axis Gram matrices against P^H P of the assembled P
    op = make_operators(build_scenario(name, params), 2)[1]
    p = op._matrix()
    want = p.conj().T @ p
    got = op.phase_gram()
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("name, params", PHASE_GRIDS)
def test_phase_matrix_is_the_one_step_leading_form(name, params):
    # P from its per-axis factors against leading_form of the one-step chain
    # (x cutoff dropped: F applies it) times dxi^d (2 pi hbar)^(-d/2)
    first, tail = make_operators(build_scenario(name, params), 2)
    g = tail.grid
    theta = g.momentum_points()[tail.support_indices()]
    symbol = replace(tail.symbol, omega=None)
    want = leading_form(ChainSpec((tail.map,)), [symbol], theta, 1, g)
    want *= g.momentum_weight() * (2.0 * np.pi * g.hbar) ** (-g.dimension / 2.0)
    for op in (first, tail):
        got = op._matrix()
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max())


def test_phase_source_evaluates_its_orbit_once(monkeypatch):
    # the norms' factors and apply's P come from one orbit, action and determinant
    calls = []
    orbit_data = fio._orbit_data

    def counting(*args, **kwargs):
        calls.append(args)
        return orbit_data(*args, **kwargs)

    monkeypatch.setattr(fio, "_orbit_data", counting)
    first, tail = make_operators(build_scenario("surface_model", {"hbar": 1e-2, "n_points": 32}), 2)
    tail._phase_factors()
    tail._matrix()
    first._matrix()
    assert len(calls) == 1


@pytest.mark.parametrize("name, params", PHASE_GRIDS)
def test_phase_gram_top_eigenvalue_is_cached(name, params):
    # the first step reads the tail's G_P, and lambda_max(G_P) is |P|^2; the
    # tail keeps it once, as its own norm sqrt(c) |P| in the trivial bound's cache
    first, tail = make_operators(build_scenario(name, params), 2)
    gram = tail.phase_gram()
    assert first.phase_gram() is gram and tail.phase_gram() is gram
    top = np.linalg.eigvalsh(gram)[-1]
    assert top == pytest.approx(np.linalg.svd(tail._matrix(), compute_uv=False)[0] ** 2, rel=1e-13)
    own = trivial_bound([tail]).value
    assert tail._norm_cache[("dense_svd",)].value == own == abs(tail.forward_factor()) * np.sqrt(top)


FORWARD_GRIDS = [
    ("isotropic_contraction", {"hbar": 1e-2}),
    ("surface_model", {"hbar": 1e-2, "n_points": 32}),
    ("surface_model", {"hbar": 5e-3}),
    ("surface_model", {"hbar": 1e-2, "n_points": 32, "half_width": [0.3, 0.4]}),
    ("block_root_model", {"hbar": 1e-2, "contracted_rates": [1.0, 0.5], "leaf_rates": [0.3]}),
]


@pytest.mark.parametrize("name, params", FORWARD_GRIDS)
def test_forward_gram_matches_forward_rows_product(name, params):
    # the Kronecker product of per-axis factors B against the rows F: B B^H = F F^H
    first = make_operators(build_scenario(name, params), 1)[0]
    assert not first.symbol.x_independent
    rows = first.forward_rows()
    # F itself is the Kronecker product of the per-axis rows
    kron = functools.reduce(np.kron, first._forward_axes())
    assert kron.shape == rows.shape
    assert np.max(np.abs(kron - rows)) <= 1e-13 * np.max(np.abs(rows))
    want = rows @ rows.conj().T
    b = first.forward_factor()
    assert b.shape == want.shape == (len(first.support_indices()),) * 2
    assert np.linalg.norm(b @ b.conj().T - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("name, params", FORWARD_GRIDS)
def test_forward_root_is_a_hermitian_root_of_the_gram_matrix(name, params):
    # the forward factor is the Hermitian root of F F^H, kron of per-axis roots
    first = make_operators(build_scenario(name, params), 1)[0]
    rows = first.forward_rows()
    gram, root = rows @ rows.conj().T, first.forward_factor()
    assert root.shape == gram.shape
    assert np.linalg.norm(root - root.conj().T) <= 1e-13 * np.linalg.norm(root)
    assert np.linalg.norm(root @ root.conj().T - gram) <= 1e-13 * np.linalg.norm(gram)

