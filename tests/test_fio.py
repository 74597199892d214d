"""Quantized operator: fast path vs dense kernel vs direct quadrature.

The fast application (restricted transform + phase matrix) is the production
path, the dense kernel is the cross-check used by the norm machinery, and the
double-quadrature reference lives in oracles.reference_apply_dense_1d.  All
three must agree to rounding error on the same grid, and the closed-form image
of a plane wave pins the normalization.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

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
from fiochain.bounds import measure_chain_norms
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
    # links by batched hbar-FFT against the explicit F @ P_prev, including a
    # later step that carries the x cutoff (first after tail, first after first)
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
