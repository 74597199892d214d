"""Classical skeleton: momentum orbits, phase cocycles, Jacobians, block splits."""

import numpy as np
import pytest

from fiochain.dynamics import (
    BlockSplit,
    ChainSpec,
    MomentumMap,
    evolve_momentum,
    jacobian_chain,
    phase_cocycle,
    tilde_jacobian_chain,
)
from oracles import apply_canonical, fd_gradient, fd_jacobian, symplectic_defect


def contraction_map(lam=1.0, tau=0.35, c=0.4):
    mu = np.exp(-lam * tau)
    return MomentumMap(
        dimension=1,
        p=lambda xi: mu * xi,
        grad_p=lambda xi: np.array([[mu]]),
        alpha=lambda xi: 0.5 * c * float(xi[0]) ** 2,
        grad_alpha=lambda xi: c * xi,
    )


def curved_map_2d():
    # mildly nonlinear, non-diagonal; used to exercise the generic code paths
    def p(xi):
        return np.array([0.8 * xi[0] + 0.1 * np.sin(xi[1]), 0.9 * xi[1] + 0.05 * xi[0] ** 2])

    def grad_p(xi):
        return np.array([[0.8, 0.1 * np.cos(xi[1])], [0.1 * xi[0], 0.9]])

    def alpha(xi):
        return 0.3 * float(xi[0]) * float(xi[1])

    def grad_alpha(xi):
        return np.array([0.3 * xi[1], 0.3 * xi[0]])

    return MomentumMap(2, p, grad_p, alpha, grad_alpha)


def test_declared_gradients_match_finite_differences():
    m = curved_map_2d()
    for xi in [np.array([0.4, 0.9]), np.array([-0.3, 1.2])]:
        assert np.max(np.abs(fd_jacobian(m.p_at, xi) - m.grad_p_at(xi))) < 1e-6
        assert np.max(np.abs(fd_gradient(m.alpha_at, xi) - m.grad_alpha_at(xi))) < 1e-6


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
    assert np.allclose(m.grad_p_at(xi).T @ x_new + m.grad_alpha_at(xi), x, atol=1e-14)
    assert np.allclose(xi_new, m.p_at(xi))


def test_step_is_symplectic():
    assert symplectic_defect(contraction_map(), [0.2], [0.9]) < 1e-6
    assert symplectic_defect(curved_map_2d(), [0.1, -0.2], [0.4, 1.0]) < 1e-6


def test_prefix_and_repeated():
    m = contraction_map()
    chain = ChainSpec.repeated(m, 5)
    assert len(chain.maps) == 5
    assert len(chain.prefix(2).maps) == 2
    with pytest.raises(ValueError):
        chain.prefix(6)
    with pytest.raises(ValueError):
        evolve_momentum(chain, [1.0], n=9)


def test_chain_dimension_mismatch():
    with pytest.raises(ValueError):
        ChainSpec((contraction_map(), curved_map_2d()))
    with pytest.raises(ValueError):
        ChainSpec(())


def block_diag_map(rate_head=0.5, rate_leaf=0.0, tau=0.7):
    a, b = np.exp(-tau * rate_head), np.exp(-tau * rate_leaf)
    split = BlockSplit(
        r=1,
        tilde_p=lambda xt: b * xt,
        grad_tilde_p=lambda xt: np.array([[b]]),
    )
    return MomentumMap(
        dimension=2,
        p=lambda xi: np.array([a * xi[0], b * xi[1]]),
        grad_p=lambda xi: np.diag([a, b]),
        alpha=lambda xi: 0.0,
        grad_alpha=lambda xi: np.zeros(2),
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
    chain = ChainSpec((contraction_map(),) * 2)
    with pytest.raises(ValueError):
        tilde_jacobian_chain(chain, [])
