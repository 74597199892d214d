"""Tests of the benchmark's own checker and tracing shim.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import fiochain  # noqa: E402
from fiochain import cli  # noqa: E402
from check import ESTIMATE_GAP_LIMIT, EXACT_COLUMNS, IGNORED_COLUMNS, check_outputs  # noqa: E402
from run import END_TO_END, WORKLOADS, per_layer_units  # noqa: E402
from tracing import Tracer, metric_units, self_times_ns  # noqa: E402

POWER_TOL = 1e-6


def _copy_reference(workload, tmp_path, edit=None):
    """Copy a workload's reference CSVs, passing each file's rows through `edit`."""
    out = tmp_path / workload
    out.mkdir()
    for path in sorted((BENCH / "reference" / workload).glob("*.csv")):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if edit is not None:
            rows = [rows[0]] + edit(path.name, rows[0], rows[1:])
        with open(out / path.name, "w") as fh:
            for row in rows:
                fh.write(",".join(row) + "\n")
    return out


def _scale_floats(factor):
    def edit(name, header, rows):
        for row in rows:
            for i, col in enumerate(header):
                if col in EXACT_COLUMNS or col in IGNORED_COLUMNS or row[i] == "":
                    continue
                row[i] = format(float(row[i]) * factor, ".17g")
        return rows

    return edit


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checker_passes_rounding_drift(workload, tmp_path):
    out = _copy_reference(workload, tmp_path, _scale_floats(1.0 + 3e-15))
    result = check_outputs(out, BENCH / "reference" / workload, POWER_TOL)
    assert result.attempted > 0
    assert result.failed == 0, result.messages
    assert result.correct


@pytest.mark.parametrize("sign, kind", [(-1.0, "accuracy"), (1.0, "mismatch")])
def test_checker_fails_norm_off_by_two_power_tol(sign, kind, tmp_path):
    def edit(name, header, rows):
        col = header.index("measured_norm")
        rows[0][col] = format(float(rows[0][col]) * (1.0 + sign * 2 * POWER_TOL), ".17g")
        return rows

    out = _copy_reference("surface_norm_2d", tmp_path, edit)
    result = check_outputs(out, BENCH / "reference" / "surface_norm_2d", POWER_TOL)
    assert result.failed == 1
    # An under-estimate is a valid lower bound that missed its tolerance; an
    # over-estimate of an exact norm is simply wrong.
    assert result.correct is (kind == "accuracy")


@pytest.mark.parametrize("col", ["measured_norm", "trivial_bound"])
def test_checker_rejects_under_estimate_beyond_gap_limit(col, tmp_path):
    def edit(name, header, rows):
        i = header.index(col)
        rows[0][i] = format(float(rows[0][i]) * (1.0 - 2 * ESTIMATE_GAP_LIMIT), ".17g")
        return rows

    out = _copy_reference("surface_norm_2d", tmp_path, edit)
    result = check_outputs(out, BENCH / "reference" / "surface_norm_2d", POWER_TOL)
    assert result.failed == 1
    assert not result.correct


@pytest.mark.parametrize("name", ["sweep_1d.csv", "sweep_1d_residual_vs_hbar.csv"])
def test_checker_fails_small_residual_drift(name, tmp_path):
    # wkb_residual_rel spans 0.08 to 4e9 within one column; the n = 1 value
    # must still be held to 1e-9 relative.
    def edit(fname, header, rows):
        if fname == name:
            row = next(r for r in rows if r[header.index("n")] == "1")
            i = header.index("wkb_residual_rel")
            row[i] = format(float(row[i]) * (1.0 + 1e-6), ".17g")
        return rows

    out = _copy_reference("sweep_1d", tmp_path, edit)
    result = check_outputs(out, BENCH / "reference" / "sweep_1d", POWER_TOL)
    assert result.failed == 1
    assert not result.correct


def test_checker_counts_unconverged_estimate_as_failed(tmp_path):
    def edit(name, header, rows):
        rows[0][header.index("converged")] = "false"
        return rows

    out = _copy_reference("surface_norm_2d", tmp_path, edit)
    result = check_outputs(out, BENCH / "reference" / "surface_norm_2d", POWER_TOL)
    assert result.failed == 1
    assert result.correct


def test_checker_fails_missing_row(tmp_path):
    def edit(name, header, rows):
        return rows[:-1] if name.endswith("_pairs.csv") else rows

    out = _copy_reference("cotlar_2d", tmp_path, edit)
    result = check_outputs(out, BENCH / "reference" / "cotlar_2d", POWER_TOL)
    assert result.failed == 1
    assert not result.correct
    assert any("row missing" in m for m in result.messages)


def test_checker_fails_missing_file(tmp_path):
    out = _copy_reference("sweep_1d", tmp_path)
    (out / "sweep_1d_norm_vs_n.csv").unlink()
    result = check_outputs(out, BENCH / "reference" / "sweep_1d", POWER_TOL)
    assert result.failed == 26
    assert not result.correct


def test_self_time_of_nested_spans():
    # root [0,100] > a [10,40] > a1 [20,30]; root > b [50,70]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 70]
    parents = [-1, 0, 1, 0]
    assert self_times_ns(starts, ends, parents) == [50, 20, 10, 20]


def test_self_time_merges_overlapping_children():
    # children [10,40] and [30,60] overlap: root covers 50 of 100, not 60
    assert self_times_ns([0, 10, 30], [100, 40, 60], [-1, 0, 0])[0] == 50


def _bindings():
    """Identity snapshot of every attribute the shim could touch."""
    snap = {}
    for modname, module in list(sys.modules.items()):
        if modname == "fiochain" or modname.startswith("fiochain."):
            snap.update({(modname, k): id(v) for k, v in vars(module).items()})
    for cls in (fiochain.FioOperator, fiochain.BlockFamily):
        snap.update({(cls.__name__, k): id(v) for k, v in vars(cls).items()})
    snap.update({("numpy.linalg", k): id(v) for k, v in vars(np.linalg).items()})
    return snap


def test_traced_run_restores_every_binding(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(
        json.dumps({"scenario": "isotropic_contraction", "hbar_values": [0.01], "n_values": [1, 2]})
    )
    before = _bindings()
    tracer = Tracer(run_id="test")
    with tracer:
        assert _bindings() != before
        rc = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv"), "--threads", "1"])
    assert rc == 0
    assert _bindings() == before
    layers = tracer.metrics()
    assert set(layers) == set(metric_units())
    # cli calls these through names it imported, not through their modules
    assert layers["cli.main.calls"] == 1
    assert layers["bounds.measure_chain_norms.calls"] == 1
    assert layers["wkb.wkb_residual.calls"] == 2
    assert layers["fio.assemble.calls"] == 2
    assert layers["linalg.svd.calls"] >= 2
    assert layers["cli.write_rows.bytes"] == sum(
        p.stat().st_size for p in tmp_path.glob("o*.csv")
    )
    assert not tracer.missing


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()

