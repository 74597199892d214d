"""Leading-order ansatz and its residual against exact propagation."""

from dataclasses import replace

import numpy as np
import pytest

from fiochain.dynamics import ChainSpec, MomentumMap, evolve_momentum, jacobian_chain, phase_cocycle
from fiochain.grid import l2_norm, plane_wave
from fiochain.scenarios import build_scenario, make_operators
from fiochain.fio import FioOperator, chain_apply
from fiochain.wkb import wkb_ansatz, wkb_ansatzes, wkb_residual
from oracles import leading_form


def test_ansatz_n0_is_plane_wave():
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    op = make_operators(spec, 1)[0]
    chain = ChainSpec((op.map,))
    ans = wkb_ansatz(chain, [op.symbol], spec.xi0, 0, op.grid)
    pw = plane_wave(op.grid, spec.xi0)
    assert np.max(np.abs(ans.values - pw.values)) == 0.0


def test_state_fields_identity_scenario():
    # identity dynamics: orbit frozen, zero action, unit determinant,
    # b0 = u(x) * prod of momentum bump values at the frozen momentum, so the
    # leading-form column is b0 times the input plane wave
    spec = build_scenario("identity", {"hbar": 1e-2, "n_points": 128})
    n = 3
    ops = make_operators(spec, n)
    g = ops[0].grid
    chain = ChainSpec(tuple(op.map for op in ops))
    col = leading_form(chain, [op.symbol for op in ops], spec.xi0[None, :], n, g)
    assert col.shape == (g.size, 1)
    assert np.allclose(evolve_momentum(chain, spec.xi0, n)[-1], spec.xi0)
    assert phase_cocycle(chain, spec.xi0, n) == 0.0
    assert jacobian_chain(chain, spec.xi0, n)[1] == pytest.approx(1.0)
    xs = g.position_points()
    u = ops[0].symbol.u(xs)
    vx = np.ones(len(xs))
    for op in ops:
        vx = vx * op.symbol.chi(xs) * op.symbol.psi(spec.xi0)
    wave = np.exp(1j * (xs @ spec.xi0) / g.hbar)
    assert np.max(np.abs(col[:, 0] - u * vx * wave)) < 1e-12


def test_leading_form_refuses_escaping_orbit_and_flipped_orientation():
    spec = build_scenario("isotropic_contraction", {"hbar": 1e-2})
    op = make_operators(spec, 1)[0]
    g = op.grid
    outside = np.array([[0.5], [g.momentum_half_width[0] + 0.1]])
    with pytest.raises(ValueError, match="window"):
        leading_form(ChainSpec((op.map,)), [op.symbol], outside, 1, g)
    flip = MomentumMap(
        dimension=1,
        p=lambda xi: -xi,
        grad_p=lambda xi: np.full(xi.shape + (1,), -1.0),
        alpha=lambda xi: np.zeros(xi.shape[:-1]),
        grad_alpha=np.zeros_like,
    )
    with pytest.raises(ValueError, match="determinant"):
        leading_form(ChainSpec((flip,)), [op.symbol], np.array([[0.5]]), 1, g)
    # a step's per-axis factors, from which its phase matrix and the norm
    # path's Gram matrix are built, are refused the same way
    with pytest.raises(ValueError, match="determinant"):
        FioOperator(flip, op.symbol, g)._matrix()
    with pytest.raises(ValueError, match="determinant"):
        FioOperator(flip, op.symbol, g).phase_gram()


def test_residual_identity_scenario_is_small():
    # with frozen dynamics the only leading-order error is cutoff spillover
    spec = build_scenario("identity", {"hbar": 1e-2, "n_points": 128})
    ops = make_operators(spec, 2)
    res = wkb_residual(ops, spec.xi0)
    assert not res.degenerate
    assert res.relative < 0.05
    assert res.output_norm > 0.5


def test_residual_shrinks_with_hbar():
    # leading-order error is O(n hbar): halving hbar should cut the residual
    # by roughly two; require at least a factor 1.5 to stay robust
    rels = []
    for hbar in (1 / 100, 1 / 200, 1 / 400):
        spec = build_scenario("isotropic_contraction", {"hbar": hbar})
        ops = make_operators(spec, 3)
        res = wkb_residual(ops, spec.xi0)
        assert not res.degenerate
        rels.append(res.relative)
    assert rels[0] > rels[1] > rels[2]
    assert rels[0] / rels[1] > 1.5
    assert rels[1] / rels[2] > 1.5


def test_residual_partial_chain():
    spec = build_scenario("isotropic_contraction", {"hbar": 1e-2})
    ops = make_operators(spec, 4)
    r2 = wkb_residual(ops, spec.xi0, n=2)
    r4 = wkb_residual(ops, spec.xi0, n=4)
    assert r2.relative < r4.relative  # residual accumulates along the chain
    with pytest.raises(ValueError):
        wkb_residual(ops, spec.xi0, n=5)
    with pytest.raises(ValueError):
        wkb_residual(ops, spec.xi0, n=0)
    with pytest.raises(ValueError):
        wkb_residual([], spec.xi0)


def test_residual_of_a_carried_propagation_equals_the_default():
    # an n-sweep passes the wave it carried from n - 1: the residual is the same, bit for bit
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    ops = make_operators(spec, 3)
    wave = chain_apply(ops[:2], plane_wave(spec.grid, spec.xi0))
    wave = chain_apply(ops[2:3], wave)
    assert wkb_residual(ops, spec.xi0, 3, propagated=wave) == wkb_residual(ops, spec.xi0, 3)


def test_degenerate_when_orbit_leaves_support():
    # start far from the plateau so b0 == 0 everywhere on the grid
    spec = build_scenario("isotropic_contraction", {"hbar": 1e-2})
    ops = make_operators(spec, 6)
    g = ops[0].grid
    xi_edge = np.array([1.35])  # inside omega2 but contracts out of it quickly
    res = wkb_residual(ops, xi_edge, n=6)
    if res.degenerate:
        assert res.relative == float("inf")
    else:
        # orbit may still graze the support; then the ansatz norm is tiny
        assert res.ansatz_norm < 0.5


def test_ansatz_norm_near_one_on_plateau():
    # sub-unitary steps with |b0| = 1 near the plateau center: the ansatz has
    # norm close to the plane wave norm scaled by sqrt(det)
    spec = build_scenario("isotropic_contraction", {"hbar": 1e-2})
    n = 2
    ops = make_operators(spec, n)
    chain = ChainSpec(tuple(op.map for op in ops))
    symbols = [op.symbol for op in ops]
    col = leading_form(chain, symbols, spec.xi0[None, :], n, ops[0].grid)[:, 0]
    det_prefactor = np.sqrt(jacobian_chain(chain, spec.xi0, n)[1])
    # |column| = det^(1/2) |b0| because the phase factor has modulus one
    assert np.max(np.abs(col)) / det_prefactor <= 1.0 + 1e-12
    ans = wkb_ansatz(chain, symbols, spec.xi0, n, ops[0].grid)
    assert np.array_equal(ans.values.ravel(), col)
    pw_norm = l2_norm(plane_wave(ops[0].grid, spec.xi0))
    assert l2_norm(ans) <= np.sqrt(det_prefactor) * pw_norm + 1e-9


def _narrower_tail(spec, n):
    # steps 4.. with a narrower x' cutoff: the prefixes' live rows differ
    first, tail = spec.symbol_first, replace(spec.symbol_first, omega=None)
    box = spec.symbol_first.omega1.shrink(0.6)
    return [first] + [tail if j < 3 else replace(tail, omega1=box) for j in range(1, n)]


SWEEPS = [
    ("isotropic_contraction", {"hbar": 1e-2}, list(range(1, 27)), False),
    ("surface_model", {"hbar": 1e-2}, list(range(1, 7)), False),
    ("identity", {"hbar": 1e-2}, list(range(1, 8)), False),
    ("isotropic_contraction", {"hbar": 1e-2}, [2, 5, 9], False),
    ("isotropic_contraction", {"hbar": 1e-2}, [9, 2, 5, 2], True),
]


@pytest.mark.parametrize("name, params, ns, narrow", SWEEPS)
def test_sweep_ansatzes_are_each_prefix_leading_form(name, params, ns, narrow):
    # one orbit and one backward pass for every n give each n's own
    # leading-form column bit for bit, in the order asked for
    spec = build_scenario(name, params)
    top = max(ns)
    chain = spec.chain(top)
    symbols = _narrower_tail(spec, top) if narrow else [op.symbol for op in make_operators(spec, top)]
    assert not symbols[0].x_independent
    got = wkb_ansatzes(chain, symbols, spec.xi0, ns, spec.grid)
    assert len(got) == len(ns)
    theta = spec.xi0[None, :]
    for n, ans in zip(ns, got):
        want = leading_form(chain, symbols, theta, n, spec.grid)[:, 0]
        assert np.array_equal(ans.values.ravel(), want)
        assert ans.values.shape == spec.grid.shape


def _doubling_map():
    return MomentumMap(
        dimension=1,
        p=lambda xi: 2.0 * xi,
        grad_p=lambda xi: np.full(xi.shape + (1,), 2.0),
        alpha=lambda xi: np.zeros(xi.shape[:-1]),
        grad_alpha=np.zeros_like,
    )


def test_sweep_refuses_when_its_longest_prefix_leaves_the_window():
    # xi0 = 1 doubles out of the window (half width 4.02) at the third step
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    symbols = [op.symbol for op in make_operators(spec, 3)]
    chain = ChainSpec.repeated(_doubling_map(), 3)
    assert len(wkb_ansatzes(chain, symbols, spec.xi0, [1, 2], spec.grid)) == 2
    with pytest.raises(ValueError, match="the momentum orbit leaves the grid window"):
        wkb_ansatzes(chain, symbols, spec.xi0, [1, 2, 3], spec.grid)


def test_residual_of_a_given_ansatz_equals_the_default():
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    ops = make_operators(spec, 3)
    symbols = [op.symbol for op in ops]
    ansatzes = wkb_ansatzes(spec.chain(3), symbols, spec.xi0, [1, 3], spec.grid)
    assert wkb_residual(ops, spec.xi0, 3, ansatz=ansatzes[1]) == wkb_residual(ops, spec.xi0, 3)
