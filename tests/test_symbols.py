"""Cutoffs, symbol classes, and the leading-order transfer product."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fiochain.dynamics import ChainSpec
from fiochain.symbols import (
    PLATEAU_FRACTION,
    Box,
    CutoffBump,
    SymbolSpec,
    leading_symbol_product,
    smoothstep,
)
from oracles import direct_symbol_product

from test_dynamics import contraction_map, curved_map_2d


@given(st.floats(-3.0, 3.0))
def test_smoothstep_partition(t):
    s = smoothstep(t)
    assert 0.0 <= s <= 1.0
    assert smoothstep(t) + smoothstep(1.0 - t) == pytest.approx(1.0, abs=1e-12)


def test_smoothstep_saturation():
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(-5.0) == 0.0
    assert smoothstep(7.0) == 1.0
    ts = np.linspace(-1, 2, 301)
    vals = smoothstep(ts)
    assert np.all(np.diff(vals) >= 0.0)


def test_box_semantics():
    b = Box((-1.0, 0.0), (1.0, 2.0))
    assert b.dimension == 2
    assert b.volume == pytest.approx(4.0)
    assert np.allclose(b.center(), [0.0, 1.0])
    assert b.contains(np.array([1.0, 2.0])).all()  # boundary inclusive
    assert not b.contains(np.array([1.0001, 1.0])).any()
    inner = b.shrink(0.5)
    assert inner.strictly_inside(b)
    assert not b.strictly_inside(b)
    padded = b.pad(0.25)
    assert b.strictly_inside(padded)
    with pytest.raises(ValueError):
        Box((0.0,), (0.0,))


def test_box_sample_lattice():
    b = Box((-1.0,), (1.0,))
    pts = b.sample_lattice(5)
    assert pts.shape == (5, 1)
    assert pts[0, 0] == -1.0 and pts[-1, 0] == 1.0
    b2 = Box((0.0, 0.0), (1.0, 2.0))
    assert b2.sample_lattice(3).shape == (9, 2)


def test_cutoff_bump_shape():
    support = Box((-1.0,), (1.0,))
    plateau = support.shrink(PLATEAU_FRACTION)
    bump = CutoffBump(support, plateau)
    xs = np.linspace(-1.5, 1.5, 401).reshape(-1, 1)
    vals = bump(xs)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(vals[np.abs(xs[:, 0]) >= 1.0] == 0.0)
    assert np.all(vals[np.abs(xs[:, 0]) <= PLATEAU_FRACTION - 1e-9] == 1.0)
    # scalar evaluation agrees with batched
    assert bump(np.array([0.85])) == pytest.approx(float(bump(np.array([[0.85]]))[0]), abs=1e-14)


def test_cutoff_bump_is_the_min_of_rise_and_fall():
    # one smoothstep of the smaller argument equals the min of the two
    # smoothsteps bit for bit, since smoothstep is monotone
    support = Box((-1.0, -0.4), (0.6, 1.2))
    bump = CutoffBump(support, support.shrink(PLATEAU_FRACTION))
    pts = np.random.default_rng(4).uniform(-1.3, 1.5, size=(20000, 2))
    want = np.ones(len(pts))
    for a in range(2):
        sl, sh = bump.support.lo[a], bump.support.hi[a]
        pl, ph = bump.plateau.lo[a], bump.plateau.hi[a]
        t = pts[:, a]
        want = want * np.minimum(smoothstep((t - sl) / (pl - sl)), smoothstep((sh - t) / (sh - ph)))
    got = bump(pts)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_cutoff_bump_is_the_product_of_its_profiles():
    # a stacked (..., d) batch and one broadcastable array per axis, the form
    # the backward pass of leading_symbol_product carries, give the same bits
    support = Box((-1.0, -0.4), (0.6, 1.2))
    bump = CutoffBump(support, support.shrink(PLATEAU_FRACTION))
    pts = np.random.default_rng(5).uniform(-1.3, 1.5, size=(30, 40, 2))
    want = bump.profile(0, pts[..., 0]) * bump.profile(1, pts[..., 1])
    assert np.array_equal(bump(pts), want)
    assert np.array_equal(bump.product([pts[..., 0], pts[..., 1]]), want)
    x0, x1 = pts[:, :1, 0], pts[0, :, 1]
    assert np.array_equal(bump.product([x0, x1]), bump.profile(0, x0) * bump.profile(1, x1))
    sym = SymbolSpec(support, Box((-0.2, 0.3), (0.9, 1.3)), omega=Box((-0.7, -0.7), (0.7, 0.7)))
    x, xp, theta = pts[:, :3], pts[:, 3:6], pts[0, :3]
    axes = [np.moveaxis(p, -1, 0) for p in (x, xp, theta)]
    assert np.array_equal(sym.a0(x, xp, theta), sym.u(x) * (sym.chi(xp) * sym.psi(theta)))
    assert np.array_equal(sym.a0_axes(*axes), sym.a0(x, xp, theta))


def test_profile_is_the_formula_bit_for_bit_on_any_layout():
    # the plateau is filled with 1.0 and the formula runs only off it; both
    # must give the formula's bits at the four breakpoints, at their float
    # neighbours, and for transposed, strided and broadcast coordinates
    support = Box((-1.0, -0.4), (0.6, 1.2))
    bump = CutoffBump(support, support.shrink(PLATEAU_FRACTION))
    for a in range(2):
        sl, sh = bump.support.lo[a], bump.support.hi[a]
        pl, ph = bump.plateau.lo[a], bump.plateau.hi[a]
        ts = {float(np.nextafter(e, to)) for e in (sl, pl, ph, sh) for to in (-np.inf, e, np.inf)}
        t = np.array(sorted(ts | set(np.linspace(sl - 0.2, sh + 0.2, 37))))
        layouts = (
            t,
            np.stack([t, t[::-1]]).T,
            t[::2],
            np.broadcast_to(t, (3, t.size)),
            np.broadcast_to(t[:, None], (t.size, 4)),
        )
        for arr in layouts:
            want = smoothstep(np.minimum((arr - sl) / (pl - sl), (sh - arr) / (sh - ph)))
            got = bump.profile(a, arr)
            assert got.shape == arr.shape
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()
        assert np.all(bump.profile(a, t[(t >= pl) & (t <= ph)]) == 1.0)


def test_cutoff_bump_requires_nesting():
    support = Box((-1.0,), (1.0,))
    with pytest.raises(ValueError):
        CutoffBump(support, Box((-1.0,), (1.0,)))
    with pytest.raises(ValueError):
        CutoffBump(support, Box((-2.0,), (2.0,)))


def test_symbol_spec_bounds_and_support():
    omega1 = Box((-0.5,), (0.5,))
    omega2 = Box((0.4,), (1.4,))
    sym = SymbolSpec(omega1, omega2)
    assert sym.x_independent
    rng = np.random.default_rng(0)
    xp = rng.uniform(-1, 1, size=(200, 1))
    th = rng.uniform(0, 2, size=(200, 1))
    vals = sym.a0(xp, xp, th)
    assert np.all(np.abs(vals) <= 1.0)
    outside = ~(omega1.contains(xp) & omega2.contains(th))
    assert np.all(vals[outside] == 0.0)
    # plateau center evaluates to exactly 1
    assert sym.a0(np.zeros((1, 1)), np.zeros((1, 1)), np.array([[0.9]]))[0] == 1.0


def test_symbol_spec_with_input_cutoff():
    omega1 = Box((-0.5,), (0.5,))
    omega2 = Box((0.4,), (1.4,))
    omega = Box((-0.8,), (0.8,))
    sym = SymbolSpec(omega1, omega2, omega=omega)
    assert not sym.x_independent
    x = np.array([[0.9]])  # outside omega
    assert sym.a0(x, np.zeros((1, 1)), np.array([[0.9]]))[0] == 0.0
    assert sym.u(np.zeros((1, 1)))[0] == 1.0


def test_leading_symbol_product_matches_scalar_oracle():
    n = 4
    chain = ChainSpec.repeated(curved_map_2d(), n)
    omega1 = Box((-0.6, -0.6), (0.6, 0.6))
    omega2 = Box((-0.2, 0.3), (0.9, 1.3))
    symbols = [SymbolSpec(omega1, omega2) for _ in range(n)]
    xi0 = np.array([0.3, 0.8])
    rng = np.random.default_rng(1)
    for _ in range(10):
        x_n = rng.uniform(-0.5, 0.5, size=2)
        fast = leading_symbol_product(chain, symbols, x_n, xi0, n)
        slow = direct_symbol_product(chain, symbols, x_n, xi0, n)
        assert complex(fast) == pytest.approx(slow, abs=1e-12)


def test_leading_symbol_product_batched():
    n = 3
    chain = ChainSpec.repeated(contraction_map(), n)
    omega1 = Box((-0.8,), (0.8,))
    omega2 = Box((-0.4,), (1.4,))
    symbols = [SymbolSpec(omega1, omega2)] * n
    xs = np.linspace(-0.7, 0.7, 25).reshape(-1, 1)
    batch = leading_symbol_product(chain, symbols, xs, [1.0], n)
    assert batch.shape == (25,)
    for i in range(25):
        assert batch[i] == pytest.approx(
            complex(direct_symbol_product(chain, symbols, xs[i], [1.0], n)), abs=1e-12
        )
    assert np.all(np.abs(batch) <= 1.0)
    # a (K, 2) momentum batch with an x cutoff on the first symbol gives (M, K),
    # column k bit for bit the single-momentum call at momentum k
    chain2 = ChainSpec.repeated(curved_map_2d(), n)
    box1 = Box((-0.6, -0.6), (0.6, 0.6))
    box2 = Box((-0.2, 0.3), (0.9, 1.3))
    symbols2 = [SymbolSpec(box1, box2, omega=Box((-0.7, -0.7), (0.7, 0.7)))]
    symbols2 += [SymbolSpec(box1, box2)] * (n - 1)
    rng = np.random.default_rng(2)
    xs2 = rng.uniform(-0.5, 0.5, size=(40, 2))
    xi0s = rng.uniform((-0.1, 0.4), (0.8, 1.2), size=(7, 2))
    batch2 = leading_symbol_product(chain2, symbols2, xs2, xi0s, n)
    assert batch2.shape == (40, 7)
    assert np.any(batch2 != 0.0)
    singles = [leading_symbol_product(chain2, symbols2, xs2, xi0, n) for xi0 in xi0s]
    assert np.array_equal(batch2, np.stack(singles, axis=-1))


def test_leading_symbol_product_prefix_axis_is_each_prefix_bit_for_bit():
    # prefix lengths prepend an axis in their order (repeats allowed); one
    # backward pass gives each prefix's product exactly, for one momentum and
    # for a (K, 2) batch, with an x cutoff on the first symbol
    n = 5
    chain = ChainSpec.repeated(curved_map_2d(), n)
    box1 = Box((-0.6, -0.6), (0.6, 0.6))
    box2 = Box((-0.2, 0.3), (0.9, 1.3))
    symbols = [SymbolSpec(box1, box2, omega=Box((-0.7, -0.7), (0.7, 0.7)))]
    symbols += [SymbolSpec(box1, box2)] * (n - 1)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-0.5, 0.5, size=(40, 2))
    ns = [4, 1, 5, 2, 4]
    for xi0 in ([0.3, 0.8], rng.uniform((-0.1, 0.4), (0.8, 1.2), size=(7, 2))):
        stacked = leading_symbol_product(chain, symbols, xs, xi0, ns)
        singles = [leading_symbol_product(chain, symbols, xs, xi0, k) for k in ns]
        assert np.any(stacked != 0.0)
        assert np.array_equal(stacked, np.stack(singles))
    one = leading_symbol_product(chain, symbols, xs[0], [0.3, 0.8], [2, 3])
    assert one.shape == (2,)


def test_leading_symbol_product_needs_enough_symbols():
    chain = ChainSpec.repeated(contraction_map(), 3)
    omega1 = Box((-0.8,), (0.8,))
    omega2 = Box((-0.4,), (1.4,))
    with pytest.raises(ValueError):
        leading_symbol_product(chain, [SymbolSpec(omega1, omega2)], [0.0], [1.0], 3)
