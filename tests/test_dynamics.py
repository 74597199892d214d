"""Classical skeleton: momentum orbits, phase cocycles, Jacobians, block splits."""

import dataclasses

import numpy as np
import pytest

from fiochain.dynamics import (
    BlockSplit,
    ChainSpec,
    MomentumMap,
    _det,
    _step_dets,
    evolve_momentum,
    jacobian_chain,
    phase_cocycle,
    tilde_jacobian_chain,
)
from fiochain.scenarios import SCENARIOS, build_scenario
from fiochain.symbols import Box
from oracles import (
    apply_canonical,
    fd_gradient,
    fd_jacobian,
    log_det_chain,
    log_tilde_det_chain,
    symplectic_defect,
)


def contraction_map(lam=1.0, tau=0.35, c=0.4):
    mu = np.exp(-lam * tau)
    return MomentumMap(
        dimension=1,
        p=lambda xi: mu * xi,
        grad_p=lambda xi: np.full(xi.shape + (1,), mu),
        alpha=lambda xi: 0.5 * c * xi[..., 0] ** 2,
        grad_alpha=lambda xi: c * xi,
    )


def curved_map_2d():
    # mildly nonlinear, non-diagonal; used to exercise the generic code paths
    def p(xi):
        a, b = xi[..., 0], xi[..., 1]
        return np.stack([0.8 * a + 0.1 * np.sin(b), 0.9 * b + 0.05 * a**2], axis=-1)

    def grad_p(xi):
        a, b = xi[..., 0], xi[..., 1]
        rows = [[np.full_like(a, 0.8), 0.1 * np.cos(b)], [0.1 * a, np.full_like(a, 0.9)]]
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

    def alpha(xi):
        return 0.3 * xi[..., 0] * xi[..., 1]

    def grad_alpha(xi):
        return 0.3 * xi[..., ::-1]

    return MomentumMap(2, p, grad_p, alpha, grad_alpha)


def test_declared_gradients_match_finite_differences():
    m = curved_map_2d()
    for xi in [np.array([0.4, 0.9]), np.array([-0.3, 1.2])]:
        assert np.max(np.abs(fd_jacobian(m.p, xi) - m.grad_p(xi))) < 1e-6
        assert np.max(np.abs(fd_gradient(m.alpha, xi) - m.grad_alpha(xi))) < 1e-6


def test_momentum_orbit_closed_form():
    lam, tau = 1.0, 0.35
    chain = ChainSpec((contraction_map(lam, tau),) * 6)
    orbit = evolve_momentum(chain, [1.0])
    assert orbit.shape == (7, 1)
    expected = np.exp(-lam * tau * np.arange(7))
    assert np.max(np.abs(orbit[:, 0] - expected)) < 1e-14


def test_phase_cocycle_closed_form():
    # alpha(xi) = (c/2) xi^2 along xi_j = q^j xi0 sums a geometric series
    lam, tau, c, xi0, n = 1.0, 0.35, 0.4, 1.3, 5
    chain = ChainSpec((contraction_map(lam, tau, c),) * n)
    q = np.exp(-2 * lam * tau)
    expected = 0.5 * c * xi0**2 * (1 - q**n) / (1 - q)
    assert phase_cocycle(chain, [xi0]) == pytest.approx(expected, rel=1e-14)


def test_jacobian_chain_closed_form():
    lam, tau, n = 1.0, 0.35, 7
    chain = ChainSpec((contraction_map(lam, tau),) * n)
    J, det = jacobian_chain(chain, [0.7])
    assert J.shape == (1, 1)
    assert det == pytest.approx(np.exp(-n * lam * tau), rel=1e-14)
    assert J[0, 0] == pytest.approx(det, rel=1e-14)


def test_jacobian_chain_matches_finite_differences():
    chain = ChainSpec((curved_map_2d(),) * 3)
    xi0 = np.array([0.3, 0.8])
    J, det = jacobian_chain(chain, xi0)
    Jfd = fd_jacobian(lambda v: evolve_momentum(chain, v)[-1], xi0)
    assert np.max(np.abs(J - Jfd)) < 1e-5
    assert det == pytest.approx(float(np.linalg.det(Jfd)), rel=1e-4)


def test_generating_relation():
    # x = grad_p(xi)^T x' + grad_alpha(xi) must hold exactly after one step
    m = curved_map_2d()
    x = np.array([0.2, -0.1])
    xi = np.array([0.5, 1.1])
    x_new, xi_new = apply_canonical(m, x, xi)
    assert np.allclose(m.grad_p(xi).T @ x_new + m.grad_alpha(xi), x, atol=1e-14)
    assert np.allclose(xi_new, m.p(xi))


def test_step_is_symplectic():
    assert symplectic_defect(contraction_map(), [0.2], [0.9]) < 1e-6
    assert symplectic_defect(curved_map_2d(), [0.1, -0.2], [0.4, 1.0]) < 1e-6


def test_prefix_and_repeated():
    m = contraction_map()
    chain = ChainSpec.repeated(m, 5)
    assert len(chain.maps) == 5
    with pytest.raises(ValueError):
        evolve_momentum(chain, [1.0], n=9)


def test_chain_dimension_mismatch():
    with pytest.raises(ValueError):
        ChainSpec((contraction_map(), curved_map_2d()))
    with pytest.raises(ValueError):
        ChainSpec(())


@pytest.mark.parametrize("dimension", [0, 4])
def test_momentum_map_dimension_is_1_to_3(dimension):
    m = contraction_map()
    with pytest.raises(ValueError, match=f"dimension must be 1..3, got {dimension}"):
        dataclasses.replace(m, dimension=dimension)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_det_matches_linalg_det(d):
    # well conditioned: the identity plus entries of at most 0.3
    rng = np.random.default_rng(31 + d)
    J = np.eye(d) + rng.uniform(-0.3, 0.3, size=(5, 7, d, d))
    got = _det(J)
    assert got.shape == (5, 7)
    assert np.allclose(got, np.linalg.det(J), rtol=1e-12, atol=0.0)


def test_det_is_lapacks_bit_for_bit_on_the_surface_model_orbit():
    # the step Jacobians are upper triangular, so the closed form is their
    # diagonal product; LAPACK's det and slogdet give it bit for bit on these
    # samples, so the chain's outputs do not move; jacobian_chain's det is the
    # in-order product of the per-step determinants
    spec = build_scenario("surface_model", {"hbar": 1e-2})
    chain = ChainSpec.repeated(spec.step_map, 8)
    lattice = spec.omega2_tilde.sample_lattice(64)
    orbit = evolve_momentum(chain, lattice)
    dets = _step_dets(chain, lattice)
    logs = np.log(np.abs(dets))
    assert lattice.shape == (64**2, 2) and logs.shape == (64**2, 8)
    product = np.ones(64**2)
    for j in range(8):
        J = spec.step_map.grad_p(orbit[j])
        assert np.array_equal(_det(J), np.linalg.det(J))
        assert np.array_equal(logs[:, j], np.linalg.slogdet(J)[1])
        product = product * dets[:, j]
    assert np.array_equal(jacobian_chain(chain, lattice)[1], product)


def block_diag_map(rate_head=0.5, rate_leaf=0.0, tau=0.7):
    a, b = np.exp(-tau * rate_head), np.exp(-tau * rate_leaf)
    split = BlockSplit(
        r=1,
        tilde_p=lambda xt: b * xt,
        grad_tilde_p=lambda xt: np.full(xt.shape + (1,), b),
    )
    return MomentumMap(
        dimension=2,
        p=lambda xi: np.array([a, b]) * xi,
        grad_p=lambda xi: np.broadcast_to(np.diag([a, b]), xi.shape + (2,)),
        alpha=lambda xi: np.zeros(xi.shape[:-1]),
        grad_alpha=np.zeros_like,
        block=split,
    )


def test_tilde_jacobian_chain_diagonal():
    # leaf factor is an isometry (rate 0) so the block determinant stays 1,
    # while the full determinant contracts by the head rate
    n, tau = 4, 0.7
    chain = ChainSpec((block_diag_map(0.5, 0.0, tau),) * n)
    assert tilde_jacobian_chain(chain, [0.3]) == pytest.approx(1.0)
    _, det = jacobian_chain(chain, [0.2, 0.3])
    assert det == pytest.approx(np.exp(-n * tau * 0.5), rel=1e-13)


def test_tilde_jacobian_chain_contracting_leaf():
    n, tau, rate = 3, 0.7, 0.25
    chain = ChainSpec((block_diag_map(0.5, rate, tau),) * n)
    assert tilde_jacobian_chain(chain, [0.4]) == pytest.approx(np.exp(-n * tau * rate), rel=1e-13)


def test_tilde_jacobian_chain_full_rank_is_one():
    split = BlockSplit(r=1, tilde_p=lambda xt: xt, grad_tilde_p=lambda xt: np.ones((0, 0)))
    m = contraction_map()
    full = MomentumMap(1, m.p, m.grad_p, m.alpha, m.grad_alpha, block=split)
    chain = ChainSpec((full,) * 3)
    assert tilde_jacobian_chain(chain, []) == 1.0


def test_tilde_jacobian_requires_blocks():
    refusal = "every step needs a block split, all with the same r"
    chain = ChainSpec((contraction_map(),) * 2)
    with pytest.raises(ValueError, match=refusal):
        tilde_jacobian_chain(chain, [])
    # a split on every step but with two different ranks is refused the same way
    m = block_diag_map()
    whole = dataclasses.replace(m, block=BlockSplit(r=0, tilde_p=m.p, grad_tilde_p=m.grad_p))
    with pytest.raises(ValueError, match=refusal):
        tilde_jacobian_chain(ChainSpec((m, whole)), [0.3])


@pytest.mark.parametrize("name", sorted(SCENARIOS) + ["curved_map_2d"])
def test_batched_chain_equals_row_by_row(name):
    if name == "curved_map_2d":
        step, window = curved_map_2d(), Box((-0.2, 0.3), (0.9, 1.3))
    else:
        spec = build_scenario(name, {"hbar": 1e-2})
        step, window = spec.step_map, spec.omega2_tilde
    chain = ChainSpec.repeated(step, 3)
    lattice = window.sample_lattice(7)
    S, d = lattice.shape
    orbit = evolve_momentum(chain, lattice)
    action = phase_cocycle(chain, lattice)
    mats, dets = jacobian_chain(chain, lattice)
    assert orbit.shape == (4, S, d) and action.shape == (S,)
    assert mats.shape == (S, d, d) and dets.shape == (S,)
    for i, xi in enumerate(lattice):
        mat, det = jacobian_chain(chain, xi)
        assert np.array_equal(orbit[:, i], evolve_momentum(chain, xi))
        assert action[i] == phase_cocycle(chain, xi)
        assert np.array_equal(mats[i], mat) and dets[i] == det
    if step.block is not None:
        leaves = lattice[:, step.block.r :]
        tilde = tilde_jacobian_chain(chain, leaves)
        assert tilde.shape == (S,)
        for i, xt in enumerate(leaves):
            assert tilde[i] == tilde_jacobian_chain(chain, xt)


@pytest.mark.parametrize("name", sorted(SCENARIOS) + ["curved_map_2d"])
def test_log_det_chains_match_the_determinant_products(name):
    if name == "curved_map_2d":
        step, window = curved_map_2d(), Box((-0.2, 0.3), (0.9, 1.3))
    else:
        spec = build_scenario(name, {"hbar": 1e-2})
        step, window = spec.step_map, spec.omega2_tilde
    chain = ChainSpec.repeated(step, 5)
    lattice = window.sample_lattice(7)
    _, dets = jacobian_chain(chain, lattice)
    assert np.allclose(log_det_chain(chain, lattice), np.log(np.abs(dets)), rtol=0.0, atol=1e-13)
    assert log_det_chain(chain, lattice[3]) == log_det_chain(chain, lattice)[3]
    if step.block is not None:
        leaves = lattice[:, step.block.r :]
        want = np.log(np.abs(tilde_jacobian_chain(chain, leaves)))
        assert np.allclose(log_tilde_det_chain(chain, leaves), want, rtol=0.0, atol=1e-13)


def test_log_det_chains_refuse_vanishing_determinants():
    m = block_diag_map(0.5, 0.25)
    flat = lambda xi: np.zeros(xi.shape + (1,))
    leaf = dataclasses.replace(m.block, grad_tilde_p=flat)
    chain = ChainSpec((m, dataclasses.replace(m, block=leaf)))
    for tilde in (log_tilde_det_chain, tilde_jacobian_chain):
        with pytest.raises(ValueError, match="leaf-map determinant vanishes on the window at step 2"):
            tilde(chain, [[0.3], [0.4]])
    singular = dataclasses.replace(m, grad_p=lambda xi: np.zeros(xi.shape + (2,)))
    with pytest.raises(ValueError, match="singular step Jacobian at step 1"):
        log_det_chain(ChainSpec((singular,)), [0.2, 0.3])


def test_pointwise_map_is_refused_on_a_batch():
    # written for one point: on a batch it returns the first row's shape and
    # would otherwise broadcast without error
    m = MomentumMap(
        1,
        lambda xi: np.array([xi[0] - 0.1 * xi[0] ** 2]),
        lambda xi: np.array([[1.0 - 0.2 * xi[0]]]),
        lambda xi: 0.0,
        lambda xi: np.zeros(1),
    )
    batch = np.linspace(0.0, 1.0, 101)[:, None]
    for fn in (evolve_momentum, phase_cocycle, jacobian_chain):
        with pytest.raises(ValueError, match="batch"):
            fn(ChainSpec((m,)), batch)
    # a batched p does not let a pointwise alpha or grad_p through
    half = MomentumMap(1, lambda xi: xi - 0.1 * xi**2, m.grad_p, m.alpha, m.grad_alpha)
    for fn in (phase_cocycle, jacobian_chain):
        with pytest.raises(ValueError, match="batch"):
            fn(ChainSpec((half,)), batch)
