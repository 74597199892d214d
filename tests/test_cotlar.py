"""Almost-orthogonal block machinery: partition, blocks, soundness, decay."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiochain import cotlar, fio
from fiochain.cotlar import (
    BlockFamily,
    PartitionOfUnity,
    build_block_family,
    chi1,
    cotlar_stein_bound,
    family_report,
    offdiagonal_decay_fit,
)
from fiochain.bounds import operator_norm
from fiochain.dynamics import ChainSpec
from fiochain.scenarios import build_scenario, make_operators
from fiochain.fio import FioOperator
from fiochain.symbols import Box, SymbolSpec
from fiochain.wkb import wkb_ansatz
from oracles import dense_block, family_eigvalsh_calls, leading_form, leading_form_columns


def small_surface_family(n=2, hbar=2e-2, n_points=16):
    spec = build_scenario("surface_model", {"hbar": hbar, "n_points": n_points})
    ops = make_operators(spec, n)
    fam = build_block_family(ops, spec.omega2_tilde, n=n, label=spec.name)
    return spec, ops, fam


def record_eigvalsh(monkeypatch) -> list:
    """Every array np.linalg.eigvalsh is called on from now on, in call order."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        calls.append(a)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return calls


def batch_shapes(calls) -> list:
    """Shapes of the stacked (3-d) eigvalsh inputs: the star rows' batches of Gram matrices."""
    return [np.shape(a) for a in calls if np.ndim(a) == 3]


@pytest.fixture(scope="module")
def dense_family():
    # the scalar-loop oracle takes seconds on 16^2, so both dense tests share it
    spec, ops, fam = small_surface_family()
    theta, columns = leading_form_columns(ops, spec.omega2_tilde)
    # the family keeps the window momenta where psi_1 != 0, the columns P has nonzero
    live = ops[0].symbol.psi(theta) != 0.0
    assert np.array_equal(theta[live], fam.theta)
    return fam, columns[:, live], ops


@given(st.floats(-40.0, 40.0))
def test_chi1_telescopes(t):
    # sum over integer shifts of chi1(t - k) == 1 with only two active terms
    k0 = math.floor(t)
    total = sum(chi1(t - k) for k in range(k0 - 2, k0 + 3))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_chi1_support():
    assert chi1(-1.0) == 0.0
    assert chi1(1.0) == 0.0
    assert chi1(0.0) == pytest.approx(1.0)
    ts = np.linspace(-2, 2, 401)
    vals = np.array([chi1(t) for t in ts])
    assert np.all(vals[np.abs(ts) >= 1.0] == 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_partition_weights_telescope_on_batch():
    part = PartitionOfUnity(1, 0.37)
    xi = np.linspace(-3.0, 3.0, 500).reshape(-1, 1)
    total = np.zeros(len(xi))
    lo = math.ceil(-3.0 / 0.37) - 1
    hi = math.floor(3.0 / 0.37) + 1
    for k in range(lo, hi + 1):
        total += part.weight(xi, (k,))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_partition_active_indices_cover():
    part = PartitionOfUnity.for_hbar(2, 1e-2)
    xi = np.array([[0.013, -0.004], [0.051, 0.021]])
    ells = part.active_indices(xi)
    total = np.zeros(len(xi))
    for ell in ells:
        total += part.weight(xi, ell)
    assert np.max(np.abs(total - 1.0)) < 1e-12
    # windows scale with hbar
    assert part.scale == pytest.approx(2 * math.pi * 1e-2)


def test_family_reconstruction_is_exact():
    spec, ops, fam = small_surface_family()
    assert fam.reconstruction_error() < 1e-10
    # blocks cover the support: sum of weights is 1 on every support point
    total = np.zeros(len(fam.theta))
    for ell in fam.ells:
        total += fam.weights[ell]
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_family_blocks_match_dense_blocks(dense_family):
    # independent dense assembly of the single-phase parent kernel: synthesis
    # columns from the scalar-loop oracle, the analysis factor written out by hand
    fam, columns, _ = dense_family
    g = fam.grid
    X = g.position_points()
    analysis = (
        np.exp(-1j * (fam.theta @ X.T) / g.hbar)
        * g.position_weight()
        * (2 * np.pi * g.hbar) ** (-g.dimension / 2)
    )
    parent = columns @ analysis
    approx = np.zeros_like(parent)
    for ell in fam.ells:
        block = dense_block(fam, columns, ell)
        approx += block
        # factored block norm agrees with the dense realization
        svd_norm = float(np.linalg.svd(block, compute_uv=False)[0])
        assert fam.block_norm(ell) == pytest.approx(svd_norm, rel=1e-10, abs=1e-12)
    assert np.max(np.abs(approx - parent)) < 1e-12
    assert fam.parent_norm() == pytest.approx(
        float(np.linalg.svd(parent, compute_uv=False)[0]), rel=1e-10
    )


def test_family_cross_norms_match_dense(dense_family):
    fam, columns, _ = dense_family
    ells = list(fam.ells)[:3]
    dense = {ell: dense_block(fam, columns, ell) for ell in ells}
    for a in ells:
        for b in ells:
            star = float(np.linalg.svd(dense[a].conj().T @ dense[b], compute_uv=False)[0])
            prod = float(np.linalg.svd(dense[a] @ dense[b].conj().T, compute_uv=False)[0])
            assert fam.star_norm(a, b) == pytest.approx(star, rel=1e-9, abs=1e-13)
            assert fam.prod_norm(a, b) == pytest.approx(prod, rel=1e-9, abs=1e-13)


def test_wkb_ansatz_matches_leading_form_oracle(dense_family):
    # the library builds the block columns and the WKB ansatz with one builder;
    # check the n = 2 ansatz at several window momenta against the scalar oracle
    fam, columns, ops = dense_family
    g = fam.grid
    chain = ChainSpec(tuple(op.map for op in ops))
    symbols = [op.symbol for op in ops]
    pref = g.momentum_weight() * (2 * np.pi * g.hbar) ** (-g.dimension / 2)
    K = len(fam.theta)
    best = int(np.argmax(np.abs(columns).max(axis=0)))
    assert np.abs(columns[:, best]).max() > 0.1 * pref  # not only vanishing columns
    for s in sorted({best, K // 3, K // 2, 2 * K // 3}):
        ans = wkb_ansatz(chain, symbols, fam.theta[s], len(ops), g)
        assert np.max(np.abs(ans.values.ravel() - columns[:, s] / pref)) < 1e-12


def test_family_keeps_no_full_width_matrix(monkeypatch):
    # every table and summary norm comes from the K x K Gram matrix: nothing
    # the family holds, and no matrix its construction or report takes a
    # norm or eigenvalues of, spans the N^d grid
    shapes = []

    def recording(fn):
        def wrapped(a, *args, **kwargs):
            if np.ndim(a) >= 2:
                shapes.append(np.shape(a)[-2:])
            return fn(a, *args, **kwargs)

        return wrapped

    for name in ("norm", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    spec, ops, fam = small_surface_family()
    family_report(fam, spec.name, spec.grid.hbar, 2)
    K = len(fam.theta)
    assert shapes and all(rows <= K and cols <= K for rows, cols in shapes)
    fields = list(vars(fam).values())
    arrays = [v for v in fields if isinstance(v, np.ndarray)]
    arrays += [w for v in fields if isinstance(v, dict) for w in v.values() if isinstance(w, np.ndarray)]
    assert arrays and all(fam.grid.size not in a.shape for a in arrays)


def leading_form_gram(ops, window_box, fam):
    """P^H P of the whole N^d x K leading form over the window momenta, on the family's live columns.

    The leading form is scaled by the quadrature prefactor and restricted to
    the columns where psi_1 != 0 (it vanishes on the padded rim of the
    window), summed in complex arithmetic over every row.
    """
    g = ops[0].grid
    pts = g.momentum_points()
    window = pts[window_box.contains(pts)]
    live = ops[0].symbol.psi(window) != 0.0
    assert live.any() and not live.all()
    assert np.array_equal(fam.theta, window[live])
    chain = ChainSpec(tuple(op.map for op in ops))
    P = leading_form(chain, [op.symbol for op in ops], window, len(ops), g)[:, live]
    P *= g.momentum_weight() * (2 * np.pi * g.hbar) ** (-g.dimension / 2)
    return P.conj().T @ P, len(window)


@pytest.mark.parametrize(
    "name, hbar, K",
    [
        pytest.param("surface_model", 1e-2, 72, id="0.01-72"),
        pytest.param("surface_model", 7.5e-3, 143, id="0.0075-143"),
        pytest.param("block_root_model", 1e-2, 108, id="block_root_model-0.01-108"),
    ],
)
def test_streamed_gram_matches_the_leading_form_product(name, hbar, K):
    # G is summed from row blocks of the leading form; surface_model and the
    # block_root_model with one contracted and one leaf axis are even chains
    # (zero action and grad alpha, centred cutoffs), so G is the real sum
    # over one row of each +-x pair, and the oracle is the complex product
    # over every row
    spec = build_scenario(name, {"hbar": hbar})
    ops = make_operators(spec, 2)
    fam = build_block_family(ops, spec.omega2_tilde, n=2)
    want, window = leading_form_gram(ops, spec.omega2_tilde, fam)
    assert window == K
    assert fam.gram.dtype == np.float64
    assert np.max(np.abs(fam.gram - want)) <= 1e-14 * np.max(np.abs(want))


def test_even_gram_evaluates_b0_on_one_row_of_each_mirror_pair(monkeypatch):
    # 39^2 = 1,521 lattice rows are live at hbar 1e-2; x = 0 is its own
    # mirror and every other row pairs with -x, so b0 is evaluated on 761
    evaluated, product = [], fio.leading_symbol_product

    def counting(chain, symbols, x_n, *args, **kwargs):
        evaluated.append(len(x_n))
        return product(chain, symbols, x_n, *args, **kwargs)

    spec = build_scenario("surface_model", {"hbar": 1e-2})
    ops = make_operators(spec, 2)
    assert fio._live_rows([op.symbol for op in ops], [2], spec.grid).size == 1521
    monkeypatch.setattr(fio, "leading_symbol_product", counting)
    build_block_family(ops, spec.omega2_tilde, n=2)
    assert sum(evaluated) == 761


def test_off_centre_x_cutoff_keeps_the_gram_complex():
    # zero action and grad alpha but chi off centre: b0 is not even in x, so
    # G keeps the complex sum over every live row; it matches the oracle
    spec = build_scenario("surface_model", {"hbar": 1e-2})
    chi = Box((-0.26, -0.2), (0.22, 0.25))
    first = FioOperator(spec.step_map, SymbolSpec(chi, spec.omega2, omega=spec.symbol_first.omega), spec.grid)
    ops = [first, first.phase_step]
    fam = build_block_family(ops, spec.omega2_tilde, n=2)
    want, _ = leading_form_gram(ops, spec.omega2_tilde, fam)
    assert fam.gram.dtype == np.complex128
    assert np.max(np.abs(fam.gram.imag)) > 1e-3 * np.max(np.abs(fam.gram))
    assert np.max(np.abs(fam.gram - want)) <= 1e-14 * np.max(np.abs(want))


def test_block_family_forms_no_full_width_array():
    # the 48^2 family of the cotlar_2d benchmark (143 window momenta, K = 110
    # live): the build's traced peak stays less than one N^d x K complex
    # array above G itself
    spec = build_scenario("surface_model", {"hbar": 7.5e-3})
    ops = make_operators(spec, 2)
    g = spec.grid
    g.position_points()  # the cached lattice is not a temporary of the build
    tracemalloc.start()
    try:
        fam = build_block_family(ops, spec.omega2_tilde, n=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fam.theta) == 110
    assert peak - fam.gram.nbytes < g.size * 110 * 16


def test_cell_without_live_columns_has_exact_zero_norms():
    # the surface_cotlar family at hbar 1e-2 has one cell whose weight vanishes
    # on every window momentum: its block and every pair with it read exactly 0
    spec = build_scenario("surface_model", {"hbar": 1e-2})
    fam = build_block_family(make_operators(spec, 2), spec.omega2_tilde, n=2)
    empty = [ell for ell in fam.ells if not fam.weights[ell].any()]
    assert empty == [(16,)]
    assert fam.block_norm((16,)) == 0.0
    for m in fam.ells:
        assert fam.star_norm((16,), m) == fam.star_norm(m, (16,)) == 0.0
        assert fam.prod_norm((16,), m) == 0.0


def cotlar_2d_family(hbar=7.5e-3):
    # the 48^2 n = 2 family of the cotlar_2d benchmark (K 110 live of 143, 19 cells)
    spec = build_scenario("surface_model", {"hbar": hbar})
    return build_block_family(make_operators(spec, 2), spec.omega2_tilde, n=2)


def gathered_star(fam, l, m):
    """c sigma_max(D_l G D_m) over the cells' nonzero columns, one SVD per pair."""
    wl, wm = fam.weights[l], fam.weights[m]
    rows, cols = np.flatnonzero(wl), np.flatnonzero(wm)
    if rows.size == 0 or cols.size == 0:
        return 0.0
    block = fam.gram[np.ix_(rows, cols)] * np.outer(wl[rows], wm[cols])
    return fam.c * float(np.linalg.svd(block, compute_uv=False)[0])


def assert_star_table(fam, star):
    # within 1e-14 relative, or 1e-13 times the largest entry of its column
    want = {(l, m): gathered_star(fam, l, m) for l in fam.ells for m in fam.ells}
    for m in fam.ells:
        top = max(want[l, m] for l in fam.ells)
        for l in fam.ells:
            assert abs(star(l, m) - want[l, m]) <= max(1e-14 * want[l, m], 1e-13 * top), (l, m)


def test_star_table_is_each_pairs_gathered_sigma_max(monkeypatch):
    # one batched eigvalsh per cell row with live columns fills the whole table
    calls = record_eigvalsh(monkeypatch)
    fam = cotlar_2d_family()
    monkeypatch.undo()
    live = [ell for ell in fam.ells if fam.weights[ell].any()]
    assert len(live) == 16 and [shape[0] for shape in batch_shapes(calls)] == list(range(16, 0, -1))
    pairs = fam.pair_norms()
    assert_star_table(fam, lambda l, m: pairs[l, m][0])


def test_star_rows_split_into_padded_batches_under_the_entry_budget(monkeypatch):
    # cells of unequal width share a batch, zero-padded to the widest, and a
    # small budget splits each row into several batches; the table is the same
    fam = cotlar_2d_family()
    weights = {}
    for i, ell in enumerate(fam.ells):
        w = fam.weights[ell].copy()
        w[np.flatnonzero(w)[: 3 * (i % 4)]] = 0.0  # 11, 8, 5 or 2 live columns
        weights[ell] = w
    budget = 13 * 13 * 4
    monkeypatch.setattr(cotlar, "_STAR_BATCH_ENTRIES", budget)
    calls = record_eigvalsh(monkeypatch)
    bent = BlockFamily(fam.grid, fam.theta, fam.gram, fam.ells, weights, fam.c)
    monkeypatch.undo()
    shapes = batch_shapes(calls)
    assert len(shapes) > 16
    # the rows are filled in cell order, each row's live later cells in
    # consecutive batches: rebuild every stack of zero-padded blocks (batch
    # x rows x widest) from the batch lengths and hold it to the budget; its
    # Gram matrices are the smaller of rows^2 and width^2
    width_of = {ell: np.count_nonzero(weights[ell]) for ell in bent.ells}
    batches = iter(shapes)
    for i, ell in enumerate(bent.ells):
        rows = width_of[ell]
        later = [m for m in bent.ells[i:] if rows and width_of[m]]
        while later:
            size, side, _ = next(batches)
            batch, later = later[:size], later[size:]
            width = max(width_of[m] for m in batch)
            assert len(batch) == size and size * rows * width <= budget
            assert side == min(rows, width)
    assert next(batches, None) is None
    assert_star_table(bent, bent.star_norm)


def test_prod_norm_is_exactly_zero_beyond_adjacent_cells():
    # cells two or more apart have disjoint weights, so their product norm is
    # 0.0 without an evaluation; adjacent cells take the gathered eigenvalue
    fam = cotlar_2d_family()
    for l, m in itertools.product(fam.ells, repeat=2):
        w = np.sqrt(fam.weights[l] * fam.weights[m])
        cols = np.flatnonzero(w)
        if fam.separation(l, m) >= 2:
            assert cols.size == 0 and fam.prod_norm(l, m) == 0.0
            continue
        h = fam.gram[np.ix_(cols, cols)] * np.outer(w[cols], w[cols])
        want = fam.c * max(float(np.linalg.eigvalsh(h)[-1]), 0.0) if cols.size else 0.0
        assert fam.prod_norm(l, m) == want


def test_family_soundness_and_report():
    spec, ops, fam = small_surface_family()
    assert fam.sum_norm() <= fam.cotlar_bound() * (1 + 1e-9)
    assert fam.parent_norm() == pytest.approx(fam.sum_norm(), rel=1e-10)
    rep = family_report(fam, spec.name, spec.grid.hbar, 2)
    assert rep.n_blocks == len(fam.ells)
    assert rep.n_nonzero_blocks <= rep.n_blocks
    assert rep.sum_norm <= rep.cotlar_bound * (1 + 1e-9)
    assert rep.reconstruction_error < 1e-10
    assert rep.max_block_norm <= max(fam.block_norm(e) for e in fam.ells) + 1e-15


def test_sum_norm_reads_the_parent_eigenvalue_when_the_weights_sum_to_one(monkeypatch):
    # the cells telescope to exactly 1 on every window momentum, so the sum
    # norm is the parent norm: one eigvalsh, of G itself, serves both
    eigvalsh = np.linalg.eigvalsh
    spec = build_scenario("surface_model", {"hbar": 1e-2})
    ops = make_operators(spec, 2)
    calls = record_eigvalsh(monkeypatch)
    fam = build_block_family(ops, spec.omega2_tilde, n=2)
    monkeypatch.undo()
    assert np.all(sum(fam.weights.values()) == 1.0)
    parent = fam.parent_norm()
    assert fam.sum_norm() == parent
    assert [a is fam.gram for a in calls].count(True) == 1
    assert len(calls) == family_eigvalsh_calls(fam)  # no call for the sum or the defect
    # the gathered, weighted form of the general path gives the same bits
    K = len(fam.theta)
    gathered = fam.gram[np.ix_(np.arange(K), np.arange(K))] * np.outer(np.ones(K), np.ones(K))
    assert parent == math.sqrt(fam.c * max(float(eigvalsh(gathered)[-1]), 0.0))
    # a weight total off 1 anywhere takes the general path over its own
    # columns, one call after G's, and the defect one more
    ell = max(fam.ells, key=lambda l: np.count_nonzero(fam.weights[l]))
    weights = {**fam.weights, ell: fam.weights[ell] * 1.001}
    calls = record_eigvalsh(monkeypatch)
    bent = BlockFamily(fam.grid, fam.theta, fam.gram, fam.ells, weights, fam.c)
    monkeypatch.undo()
    total = sum(weights.values())
    assert not np.all(total == 1.0)
    assert len(calls) == family_eigvalsh_calls(bent) == family_eigvalsh_calls(fam) + 2
    cols = np.flatnonzero(total)
    h = fam.gram[np.ix_(cols, cols)] * np.outer(total[cols], total[cols])
    assert calls[-3] is bent.gram and np.array_equal(calls[-2], h)
    assert bent.sum_norm() == math.sqrt(fam.c * max(float(eigvalsh(h)[-1]), 0.0)) != parent


def test_family_construction_takes_each_eigenvalue_once(monkeypatch):
    # one eigvalsh per live cell, serving its block norm and its product norm
    # with itself (sqrt(w w) = w: no pair (ell, ell) takes one of its own),
    # one per overlapping adjacent pair, one batch per live star row, one on G
    for hbar, live, adjacent in ((1e-2, 13, 5), (7.5e-3, 16, 6)):
        spec = build_scenario("surface_model", {"hbar": hbar})
        ops = make_operators(spec, 2)
        calls = record_eigvalsh(monkeypatch)
        fam = build_block_family(ops, spec.omega2_tilde, n=2)
        monkeypatch.undo()
        assert len(calls) == family_eigvalsh_calls(fam) == 2 * live + adjacent + 1
        norms = fam.block_norms()
        for ell in fam.ells:
            assert fam.prod_norm(ell, ell) == pytest.approx(norms[ell] ** 2, rel=1e-15, abs=0.0)


def test_reads_run_no_eigvalsh_after_construction(monkeypatch):
    # every norm is computed once, when the family is built: no method and
    # no report takes an eigenvalue of its own
    spec, ops, fam = small_surface_family()
    calls = record_eigvalsh(monkeypatch)
    fam.block_norms()
    for l, m in itertools.product(fam.ells, repeat=2):
        fam.block_norm(l), fam.star_norm(l, m), fam.prod_norm(l, m)
    fam.pair_norms(), fam.parent_norm(), fam.sum_norm()
    fam.reconstruction_error(), fam.cotlar_bound()
    family_report(fam, spec.name, spec.grid.hbar, 2)
    assert calls == []


def test_separation_metric():
    spec, ops, fam = small_surface_family()
    assert fam.separation((3,), (3,)) == 0
    assert fam.separation((3,), (5,)) == 2
    assert fam.separation((-2,), (4,)) == 6


def test_cotlar_stein_bound_projector_family():
    # orthogonal projectors onto disjoint subspaces: R = 1 and the sum has
    # norm exactly 1, so the bound is tight here
    mats = []
    for k in range(5):
        m = np.zeros((10, 10))
        m[2 * k, 2 * k] = 1.0
        m[2 * k + 1, 2 * k + 1] = 1.0
        mats.append(m)
    R = cotlar_stein_bound(mats)
    assert R == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(sum(mats), 2) <= R + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_cotlar_stein_bound_random_families(seed):
    rng = np.random.default_rng(seed)
    size = rng.integers(2, 30)
    count = rng.integers(1, 8)
    mats = [rng.standard_normal((size, size)) * rng.uniform(0.1, 2.0) for _ in range(count)]
    R = cotlar_stein_bound(mats)
    total = float(np.linalg.svd(sum(mats), compute_uv=False)[0])
    assert total <= R * (1 + 1e-10)


def test_cotlar_stein_bound_input_validation():
    with pytest.raises(ValueError):
        cotlar_stein_bound([])


def test_offdiagonal_decay_fit_power_law():
    entries = [(s, 4.0 * (1 + s) ** -2.5) for s in range(1, 12)]
    fit = offdiagonal_decay_fit(entries)
    assert fit.exponent == pytest.approx(2.5, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)
    assert not fit.infinite_decay


def test_offdiagonal_decay_fit_keeps_worst_per_separation():
    entries = [(s, (1 + s) ** -2.0) for s in range(1, 7)]
    entries += [(s, 0.01 * (1 + s) ** -2.0) for s in range(1, 7)]  # dominated
    fit = offdiagonal_decay_fit(entries)
    assert fit.exponent == pytest.approx(2.0, abs=1e-10)


def test_offdiagonal_decay_fit_all_zero_is_infinite():
    fit = offdiagonal_decay_fit([(s, 0.0) for s in range(1, 6)])
    assert fit.infinite_decay
    assert fit.exponent == math.inf


def test_offdiagonal_decay_fit_compact_support_is_infinite():
    # nonzero only at separations 1 and 2, exact zeros beyond: the disjoint
    # support case reports infinite decay instead of a bogus power law
    entries = [(1, 0.5), (2, 0.2)] + [(s, 0.0) for s in range(3, 8)]
    fit = offdiagonal_decay_fit(entries)
    assert fit.infinite_decay


def test_offdiagonal_decay_fit_degenerate_and_errors():
    # no off-diagonal pairs at all (single-block family) is valid
    assert offdiagonal_decay_fit([]).infinite_decay
    assert offdiagonal_decay_fit([(0, 1.0)]).infinite_decay
    # nonzero values over too few distinct separations cannot be fitted
    with pytest.raises(ValueError):
        offdiagonal_decay_fit([(1, 1.0), (2, 0.5)])


def test_build_block_family_validation():
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    ops = make_operators(spec, 2)
    with pytest.raises(ValueError, match="every step needs a block split, all with the same r"):
        # no block split on the contraction scenario
        build_block_family(ops, spec.omega2_tilde, n=2)
    # r = d: no leaf coordinates left to partition
    from fiochain.dynamics import BlockSplit, MomentumMap
    from fiochain.fio import FioOperator

    base = spec.step_map
    split = BlockSplit(r=1, tilde_p=lambda xt: xt, grad_tilde_p=lambda xt: np.ones((0, 0)))
    full = MomentumMap(1, base.p, base.grad_p, base.alpha, base.grad_alpha, block=split)
    op = FioOperator(full, replace(spec.symbol_first, omega=None), spec.grid)
    with pytest.raises(ValueError):
        build_block_family([op, op], spec.omega2_tilde, n=2)


def test_identity_family_r0_is_allowed():
    # r = 0: the whole momentum is leaf-like and every axis gets partitioned
    spec = build_scenario("identity", {"hbar": 1e-2, "n_points": 64})
    ops = make_operators(spec, 2)
    fam = build_block_family(ops, spec.omega2_tilde, n=2)
    assert fam.reconstruction_error() < 1e-10
    assert fam.sum_norm() <= fam.cotlar_bound() * (1 + 1e-9)


def test_surface_family_offdiagonal_exponent():
    spec, ops, fam = small_surface_family()
    rep = family_report(fam, spec.name, spec.grid.hbar, 2)
    assert rep.infinite_decay or rep.decay_exponent >= 2.0
