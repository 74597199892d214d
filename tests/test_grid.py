"""Grid, transform, and wavefunction contracts.

The transform conventions are load-bearing for everything downstream: discrete
Plancherel must hold to rounding error (not asymptotically), the plane-wave
spectrum must be a one-point spike with a known value, and the Gaussian with
width sqrt(hbar) must be self-dual.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fiochain.grid import (
    GridSpec,
    Wavefunction,
    POSITION,
    MOMENTUM,
    hbar_fourier,
    hbar_inverse_fourier,
    l2_norm,
    plane_wave,
)
from oracles import inner_product, slow_hbar_dft, slow_hbar_inverse_dft


def random_wave(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return Wavefunction(grid, vals, POSITION)


def test_lattice_spacing_identity():
    g = GridSpec(2, (1.0, 0.5), 64, 1e-2)
    for a in range(2):
        assert g.dx[a] * g.dxi[a] == pytest.approx(2 * np.pi * g.hbar / g.n_points, rel=1e-15)
    assert g.axis_momenta(0)[g.n_points // 2] == 0.0
    assert g.axis_positions(0)[0] == -g.half_width[0]


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 1.0, 63, 1e-2)  # odd
    with pytest.raises(ValueError):
        GridSpec(1, 1.0, 0, 1e-2)
    with pytest.raises(ValueError):
        GridSpec(1, -1.0, 64, 1e-2)
    with pytest.raises(ValueError):
        GridSpec(1, 1.0, 64, 0.0)
    with pytest.raises(ValueError):
        GridSpec(4, 1.0, 64, 1e-2)
    GridSpec(1, 1.0, 48, 1e-2)  # even non-power-of-two is allowed


def test_plancherel_exact_1d():
    g = GridSpec(1, 1.0, 256, 1e-2)
    f = random_wave(g)
    F = hbar_fourier(f)
    assert l2_norm(F) == pytest.approx(l2_norm(f), rel=1e-13)
    assert inner_product(f, f).real == pytest.approx(l2_norm(f) ** 2, rel=1e-13)


def test_plancherel_exact_2d():
    g = GridSpec(2, (1.0, 0.7), 32, 5e-3)
    f = random_wave(g, seed=3)
    F = hbar_fourier(f)
    assert l2_norm(F) == pytest.approx(l2_norm(f), rel=1e-13)


def test_round_trip_exact():
    g = GridSpec(1, 1.0, 128, 1e-2)
    f = random_wave(g, seed=1)
    back = hbar_inverse_fourier(hbar_fourier(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-13


def test_forward_matches_direct_sum_1d():
    g = GridSpec(1, 1.0, 64, 2e-2)
    f = random_wave(g, seed=2)
    fast = hbar_fourier(f).values
    slow = slow_hbar_dft(f.values, g)
    assert np.max(np.abs(fast - slow)) < 1e-12 * np.max(np.abs(slow))


def test_forward_matches_direct_sum_2d():
    g = GridSpec(2, 0.8, 16, 2e-2)
    f = random_wave(g, seed=4)
    fast = hbar_fourier(f).values
    slow = slow_hbar_dft(f.values, g)
    assert np.max(np.abs(fast - slow)) < 1e-12 * np.max(np.abs(slow))


def test_inverse_matches_direct_sum():
    g = GridSpec(1, 1.0, 64, 2e-2)
    f = random_wave(g, seed=5)
    F = hbar_fourier(f)
    fast = hbar_inverse_fourier(F).values
    slow = slow_hbar_inverse_dft(F.values, g)
    assert np.max(np.abs(fast - slow)) < 1e-12 * np.max(np.abs(slow))


def test_plane_wave_spike_value():
    # spectrum of a lattice plane wave: single spike of height (2L)^{d/2}/dxi^{d/2}
    # per the transform normalization, everything else at rounding level
    g = GridSpec(1, 1.0, 256, 1e-2)
    idx = 170
    xi0 = g.axis_momenta(0)[idx]
    spec = hbar_fourier(plane_wave(g, [xi0])).values
    expected = 2.0 * g.half_width[0] / np.sqrt(2 * np.pi * g.hbar)
    assert spec[idx] == pytest.approx(expected, rel=1e-12)
    off = np.delete(np.abs(spec), idx)
    assert np.max(off) < 1e-12 * expected


def test_plane_wave_spike_value_2d():
    g = GridSpec(2, (1.0, 0.5), 32, 1e-2)
    xi0 = np.array([g.axis_momenta(0)[20], g.axis_momenta(1)[9]])
    spec = hbar_fourier(plane_wave(g, xi0)).values
    expected = np.prod([2 * L for L in g.half_width]) / (2 * np.pi * g.hbar)
    assert spec[20, 9] == pytest.approx(expected, rel=1e-12)


def test_gaussian_self_duality():
    # exp(-|x|^2/(2 hbar)) transforms to exp(-|xi|^2/(2 hbar)); box truncation
    # error is exp(-L^2/(2 hbar)), far below the tolerance at these sizes
    for d, N in [(1, 256), (2, 48)]:
        g = GridSpec(d, 1.0, N, 1e-2)
        X = g.position_points()
        f = Wavefunction(g, np.exp(-np.sum(X**2, axis=1) / (2 * g.hbar)).reshape(g.shape))
        F = hbar_fourier(f).values
        Xi = g.momentum_points()
        expected = np.exp(-np.sum(Xi**2, axis=1) / (2 * g.hbar)).reshape(g.shape)
        assert np.max(np.abs(F - expected)) < 1e-10


def test_plane_wave_refuses_aliasing():
    g = GridSpec(1, 1.0, 64, 1e-2)
    with pytest.raises(ValueError):
        plane_wave(g, [10.0 * g.momentum_half_width[0]])


def test_representation_guards():
    g = GridSpec(1, 1.0, 64, 1e-2)
    f = random_wave(g)
    with pytest.raises(ValueError):
        hbar_inverse_fourier(f)
    F = hbar_fourier(f)
    with pytest.raises(ValueError):
        hbar_fourier(F)
    g2 = GridSpec(1, 1.0, 128, 1e-2)
    with pytest.raises(ValueError):
        inner_product(f, random_wave(g2))


@given(st.integers(0, 2**32 - 1))
def test_transform_preserves_norm(seed):
    g = GridSpec(1, 1.0, 64, 1e-2)
    f = random_wave(g, seed=seed)
    assert l2_norm(hbar_fourier(f)) == pytest.approx(l2_norm(f), rel=1e-12)
