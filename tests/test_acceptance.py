"""Acceptance gate: one test per shipped criterion, at the stated tolerances.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per criterion;
add `-s` to also see the ACCEPTANCE summary prints.  Tolerances and runtime
budgets are frozen here and must not be loosened.
"""

import json
import math
import time

import numpy as np
import pytest

from fiochain.bounds import (
    decay_rate_fit,
    loglog_slope,
    measure_chain_norms,
    operator_norm,
    thm2_bound,
    thm3_bound,
    trivial_bound,
)
from fiochain.cli import main as cli_main
from fiochain.cotlar import (
    build_block_family,
    cotlar_stein_bound,
    offdiagonal_decay_fit,
)
from fiochain.fio import apply_fio
from fiochain.grid import (
    GridSpec,
    Wavefunction,
    hbar_fourier,
    hbar_inverse_fourier,
    l2_norm,
)
from fiochain.scenarios import SCENARIOS, build_scenario, make_operators
from fiochain.symbols import leading_symbol_product
from fiochain.wkb import wkb_residual
from oracles import reference_apply_dense_1d


def _passed(k, label):
    print(f"ACCEPTANCE {k} {label}: PASS")


def test_criterion_01_transform_suite():
    start = time.perf_counter()
    # discrete Plancherel: 1000 random states, 1e-12 relative
    g = GridSpec(1, 1.0, 128, 1e-2)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        f = Wavefunction(g, vals)
        assert abs(l2_norm(hbar_fourier(f)) - l2_norm(f)) <= 1e-12 * l2_norm(f)
    # round trip to 1e-12
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    f = Wavefunction(g, vals)
    back = hbar_inverse_fourier(hbar_fourier(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))
    # Gaussian self-duality, truncation < 1e-8 for L >= 10 sqrt(hbar)
    for d, n_pts in ((1, 256), (2, 48)):
        gg = GridSpec(d, 1.0, n_pts, 1e-2)
        assert gg.half_width[0] >= 10 * math.sqrt(gg.hbar)
        X = gg.position_points()
        gauss = Wavefunction(gg, np.exp(-np.sum(X**2, axis=1) / (2 * gg.hbar)).reshape(gg.shape))
        Xi = gg.momentum_points()
        dual = np.exp(-np.sum(Xi**2, axis=1) / (2 * gg.hbar)).reshape(gg.shape)
        assert np.max(np.abs(hbar_fourier(gauss).values - dual)) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"transform suite took {elapsed:.1f}s (budget 5s)"
    _passed(1, "transform suite")


def test_criterion_02_leading_order_residual():
    start = time.perf_counter()
    hbars = (1 / 200, 1 / 400, 1 / 800)
    n_points = {1 / 200: 512, 1 / 400: 512, 1 / 800: 1024}
    n = 4
    rels = []
    for hbar in hbars:
        spec = build_scenario(
            "isotropic_contraction", {"hbar": hbar, "n_points": n_points[hbar]}
        )
        assert spec.params["lam"] * spec.params["tau"] == pytest.approx(0.35)
        assert float(spec.xi0[0]) == 1.0
        res = wkb_residual(make_operators(spec, n), spec.xi0, n=n)
        assert not res.degenerate
        rels.append(res.relative)
    assert rels[0] > rels[1] > rels[2], f"residuals not strictly decreasing: {rels}"
    slope = loglog_slope(np.array(hbars), np.array(rels))
    assert slope >= 0.8, f"log-log slope {slope:.3f} < 0.8"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"residual study took {elapsed:.1f}s (budget 60s)"
    _passed(2, f"leading-order residual (slope {slope:.3f})")


def test_criterion_03_symbol_product_bounded():
    n = 4
    violations = 0
    for name in sorted(SCENARIOS):
        spec = build_scenario(name, {"hbar": 1e-2})
        steps = min(n, spec.n_max)
        ops = make_operators(spec, steps)
        chain = spec.chain(steps)
        symbols = [op.symbol for op in ops]
        rng = np.random.default_rng(hash(name) % 2**32)
        d = spec.grid.dimension
        lo = np.array(spec.omega2.lo)
        hi = np.array(spec.omega2.hi)
        plo = -0.95 * np.array(spec.grid.half_width)
        phi = 0.95 * np.array(spec.grid.half_width)
        sampled = 0
        for _ in range(100):
            xi0 = rng.uniform(lo, hi)
            xs = rng.uniform(plo, phi, size=(100, d))
            b0 = leading_symbol_product(chain, symbols, xs, xi0, steps)
            sampled += xs.shape[0]
            violations += int(np.count_nonzero(np.abs(b0) > 1.0 + 1e-12))
        assert sampled == 10_000
    assert violations == 0, f"{violations} samples broke |b0| <= 1"
    _passed(3, "|b0| <= 1 on 10^4 samples per scenario")


def test_criterion_04_contraction_norm_bound():
    start = time.perf_counter()
    factor = 1.0
    lam_tau = 0.35
    # pinned Ehrenfest-length points
    for hbar in (1e-2, 5e-3, 2.5e-3):
        n = round(factor * abs(math.log(hbar)))
        spec = build_scenario("isotropic_contraction", {"hbar": hbar})
        assert spec.grid.n_points == 512
        ops = make_operators(spec, n)
        measured = operator_norm(ops, method="dense_svd")
        bound = thm2_bound(spec.chain(n), hbar, spec.omega2_tilde, n)
        assert measured.converged
        assert measured.value <= bound, (
            f"hbar={hbar} n={n}: measured {measured.value:.6g} > bound {bound:.6g}"
        )
    # decay-rate fit across the n sweep at hbar = 1e-2, gated on the regime
    # where the volume bound beats the trivial product bound by a factor 2
    hbar = 1e-2
    spec = build_scenario("isotropic_contraction", {"hbar": hbar})
    ns = list(range(1, 27))
    ops = make_operators(spec, max(ns))
    norms = measure_chain_norms(ops, ns, method="dense_svd")
    gated_ns, gated_vals = [], []
    for n in ns:
        bound = thm2_bound(spec.chain(n), hbar, spec.omega2_tilde, n)
        trivial = trivial_bound(ops[:n], method="dense_svd").value
        assert norms[n].value <= bound
        if bound < 0.5 * trivial:
            gated_ns.append(n)
            gated_vals.append(norms[n].value)
    assert len(gated_ns) >= 4, f"gate never opened: {gated_ns}"
    fit = decay_rate_fit(np.array(gated_ns), np.array(gated_vals))
    target = -lam_tau / 2.0
    assert abs(fit.slope - target) <= 0.15 * abs(target), (
        f"fitted slope {fit.slope:.5f} vs {target:.5f} beyond 15%"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"contraction study took {elapsed:.1f}s (budget 300s)"
    _passed(4, f"volume bound and decay rate (slope {fit.slope:.4f})")


def test_criterion_05_block_refined_bound():
    start = time.perf_counter()
    for hbar in (1e-2, 5e-3):
        spec = build_scenario("surface_model", {"hbar": hbar})
        assert spec.grid.n_points == 48
        ops = make_operators(spec, 6)
        norms = measure_chain_norms(ops, [2, 4, 6], method="auto", tol=1e-8)
        predicted = math.sqrt(2 * math.pi * hbar) / math.sqrt(spec.omega2_tilde.volume)
        for n in (2, 4, 6):
            chain = spec.chain(n)
            t2 = thm2_bound(chain, hbar, spec.omega2_tilde, n)
            t3 = thm3_bound(chain, hbar, spec.omega2_tilde, n)
            assert norms[n].converged
            assert norms[n].value <= t3, (
                f"hbar={hbar} n={n}: measured {norms[n].value:.6g} > refined {t3:.6g}"
            )
            assert t3 < t2, f"hbar={hbar} n={n}: refined bound does not improve"
            ratio = t3 / t2
            assert 0.5 <= ratio / predicted <= 2.0, (
                f"hbar={hbar} n={n}: ratio {ratio:.4g} vs predicted {predicted:.4g}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"surface study took {elapsed:.1f}s (budget 600s)"
    _passed(5, "block-refined bound beats volume bound")


def test_criterion_06_identity_norms():
    factor = 1.0
    for hbar, n_points in ((1e-2, 128), (1e-3, 640)):
        spec = build_scenario("identity", {"hbar": hbar, "n_points": n_points})
        n_top = round(factor * abs(math.log(hbar)))
        ops = make_operators(spec, n_top)
        norms = measure_chain_norms(ops, list(range(1, n_top + 1)), method="dense_svd")
        for n, est in norms.items():
            assert 0.9 <= est.value <= 1.1, f"hbar={hbar} n={n}: norm {est.value:.6f}"
    _passed(6, "identity chain stays near unit norm")


def test_criterion_07_cotlar_stein_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    for _ in range(50):
        size = int(rng.integers(2, 101))
        count = int(rng.integers(1, 11))
        mats = []
        for j in range(count):
            m = rng.standard_normal((size, size))
            if j % 2:
                m = m + 1j * rng.standard_normal((size, size))
            mats.append(m * rng.uniform(0.05, 2.0))
        bound = cotlar_stein_bound(mats)
        total = float(np.linalg.svd(sum(mats), compute_uv=False)[0])
        assert total <= bound * (1 + 1e-12)
    spec = build_scenario("surface_model", {"hbar": 1e-2})
    ops = make_operators(spec, 2)
    fam = build_block_family(ops, spec.omega2_tilde, n=2, label=spec.name)
    assert fam.sum_norm() <= fam.cotlar_bound() * (1 + 1e-12)
    assert fam.reconstruction_error() <= 1e-8
    entries = []
    for a in fam.ells:
        for b in fam.ells:
            s = fam.separation(a, b)
            if s >= 1:
                entries.append((s, fam.star_norm(a, b)))
    fit = offdiagonal_decay_fit(entries)
    assert not fit.infinite_decay
    assert fit.exponent >= 2.0, f"off-diagonal exponent {fit.exponent:.2f} < 2"
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0, f"cotlar study took {elapsed:.1f}s (budget 180s)"
    _passed(7, "almost-orthogonality bound sound")


def test_criterion_08_oracle_equivalence():
    # fast path against the d=1 double-quadrature reference, 50 random inputs
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    op = make_operators(spec, 1)[0]
    g = op.grid
    rng = np.random.default_rng(8)
    for _ in range(50):
        vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        f = Wavefunction(g, vals)
        fast = apply_fio(op, f)
        ref = reference_apply_dense_1d(op, f)
        denom = l2_norm(ref)
        assert denom > 0
        diff = Wavefunction(g, fast.values - ref.values)
        assert l2_norm(diff) <= 1e-8 * denom
    # power iteration against dense SVD on spectrally gapped chains
    spec = build_scenario("isotropic_contraction", {"hbar": 1e-2})
    for n in (10, 14, 18):
        ops = make_operators(spec, n)
        dense = operator_norm(ops, method="dense_svd")
        power = operator_norm(ops, method="power_iteration", tol=1e-8)
        assert power.converged
        assert abs(power.value - dense.value) <= 1e-5 * dense.value
    _passed(8, "fast paths match independent oracles")


def test_criterion_09_determinism(tmp_path):
    cfg = {
        "scenario": "isotropic_contraction",
        "hbar_values": [1e-2, 5e-3],
        "ehrenfest_factor": 1.0,
        "norm_method": "dense_svd",
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(outs[0])]) == 0
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(outs[1])]) == 0
    assert (
        cli_main(
            ["sweep", "--config", str(cfg_path), "--out", str(outs[2]), "--threads", "2"]
        )
        == 0
    )
    ref = outs[0].read_bytes()
    assert outs[1].read_bytes() == ref
    assert outs[2].read_bytes() == ref
    for suffix in ("_norm_vs_n.csv", "_residual_vs_hbar.csv"):
        a = (tmp_path / ("a" + suffix)).read_bytes()
        b = (tmp_path / ("b" + suffix)).read_bytes()
        assert a == b
    _passed(9, "byte-identical sweeps")
