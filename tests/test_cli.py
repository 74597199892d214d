"""Command-line entry point: schemas, determinism, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

import fiochain
from fiochain import cli, dynamics, symbols
from fiochain.cli import SCHEMA, main
from fiochain.cotlar import BlockFamily
from fiochain.dynamics import MomentumMap
from fiochain.fio import FioOperator
from oracles import family_eigvalsh_calls


def write_cfg(tmp_path, name="exp.json", **overrides):
    cfg = {
        "scenario": "isotropic_contraction",
        "hbar_values": [2e-2],
        "params": {"n_points": 128},
        "n_values": [1, 2, 4],
        "norm_method": "dense_svd",
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_norm_csv_schema_and_sorting(tmp_path):
    cfg = write_cfg(tmp_path, hbar_values=[2e-2, 4e-2])
    out = tmp_path / "norm.csv"
    assert main(["norm", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(SCHEMA)
    rows = [dict(zip(SCHEMA, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 6
    keys = [(r["scenario"], float(r["hbar"]), int(r["n"])) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r["scenario"] == "isotropic_contraction"
        assert r["converged"] == "true"
        assert r["wall_ms"] == ""  # populated only under --profile
        assert float(r["measured_norm"]) <= float(r["trivial_bound"]) * (1 + 1e-9)
        assert float(r["thm2_bound"]) > 0.0
        assert r["thm3_bound"] == ""  # no block split in this scenario
        assert r["wkb_residual_rel"] == ""  # norm command leaves it blank


def test_stdout_when_no_out(tmp_path, capsys):
    cfg = write_cfg(tmp_path, n_values=None, n=1)
    assert main(["norm", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(",".join(SCHEMA))


def test_propagate_rows(tmp_path):
    cfg = write_cfg(tmp_path, n_values=[1, 3])
    out = tmp_path / "prop.csv"
    assert main(["propagate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    rows = [dict(zip(SCHEMA, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 2
    for r in rows:
        assert float(r["wkb_residual_rel"]) > 0.0
        assert r["measured_norm"] == ""  # propagate does not measure norms


def test_determinism_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, hbar_values=[2e-2, 4e-2])
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_determinism_across_threads(tmp_path):
    cfg = write_cfg(tmp_path, hbar_values=[2e-2, 4e-2])
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--threads", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_profile_fills_wall_ms(tmp_path):
    cfg = write_cfg(tmp_path, n_values=None, n=2)
    out = tmp_path / "prof.csv"
    assert main(["norm", "--config", str(cfg), "--out", str(out), "--profile"]) == 0
    lines = out.read_text().strip().split("\n")
    row = dict(zip(SCHEMA, lines[1].split(",")))
    assert row["wall_ms"] != ""
    assert float(row["wall_ms"]) >= 0.0


def test_sweep_writes_plot_data(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert (tmp_path / "sweep_norm_vs_n.csv").exists()
    assert (tmp_path / "sweep_residual_vs_hbar.csv").exists()


def test_cotlar_outputs(tmp_path):
    cfg_path = tmp_path / "cot.json"
    cfg_path.write_text(
        json.dumps(
            {
                "scenario": "surface_model",
                "hbar_values": [2e-2],
                "params": {"n_points": 16},
                "n": 2,
            }
        )
    )
    out = tmp_path / "cot.csv"
    assert main(["cotlar", "--config", str(cfg_path), "--out", str(out)]) == 0
    header = out.read_text().strip().split("\n")[0].split(",")
    assert header[:3] == ["scenario", "hbar", "n"]
    assert (tmp_path / "cot_blocks.csv").exists()
    assert (tmp_path / "cot_pairs.csv").exists()


def two_hbar_cotlar_cfg(tmp_path):
    return write_cfg(
        tmp_path,
        name="cot2.json",
        scenario="surface_model",
        hbar_values=[2e-2, 1.5e-2],
        params={"n_points": 16},
        n_values=None,
        n=2,
    )


def test_cotlar_threads_byte_identical(tmp_path, monkeypatch):
    cfg = two_hbar_cotlar_cfg(tmp_path)
    pools = []

    class RecordingPool(futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    # cli imports the pool from concurrent.futures when it starts one
    monkeypatch.setattr(futures, "ThreadPoolExecutor", RecordingPool)
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        assert main(["cotlar", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 0
    assert len(pools) == 1  # --threads 2 ran the two hbar values on a pool
    for suffix in (".csv", "_blocks.csv", "_pairs.csv"):
        assert (tmp_path / f"t1{suffix}").read_bytes() == (tmp_path / f"t2{suffix}").read_bytes()


def test_cotlar_evaluates_each_pair_once(tmp_path, monkeypatch):
    # every eigvalsh of a cotlar run is one its families' construction counts
    # (one per live cell, adjacent pair and star row, one on G): no pair is
    # evaluated twice and no read takes an eigenvalue of its own
    families, calls, eigvalsh, init = [], [], np.linalg.eigvalsh, BlockFamily.__post_init__

    def recording(a, *args, **kwargs):
        calls.append(a)
        return eigvalsh(a, *args, **kwargs)

    def building(self):
        families.append(self)
        init(self)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    monkeypatch.setattr(BlockFamily, "__post_init__", building)
    cfg = two_hbar_cotlar_cfg(tmp_path)
    assert main(["cotlar", "--config", str(cfg), "--out", str(tmp_path / "cot.csv")]) == 0
    assert len(families) == 2
    assert len(calls) == sum(family_eigvalsh_calls(family) for family in families)


@pytest.mark.parametrize("package", ["scipy", "concurrent"])
def test_cli_import_does_not_load(package):
    # concurrent.futures is imported only when several hbar run on threads
    code = (
        "import sys, fiochain.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    src = str(Path(fiochain.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cotlar_requires_single_n(tmp_path):
    cfg = write_cfg(tmp_path, scenario="surface_model", params={"n_points": 16}, n_values=[1, 2])
    assert main(["cotlar", "--config", str(cfg)]) == 2


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["norm", "--config", str(bad)]) == 2
    assert main(["norm", "--config", str(tmp_path / "missing.json")]) == 2
    # config that validates but refers to an unknown scenario
    weird = write_cfg(tmp_path, name="weird.json", scenario="not_a_scenario")
    assert main(["norm", "--config", str(weird)]) == 2
    err = capsys.readouterr().err
    assert "error" in err.lower() or "scenario" in err.lower()


def test_mistyped_config_field_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, power_tol="abc", threads="2")
    assert main(["norm", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "power_tol" in err and "threads" in err


@pytest.mark.parametrize(
    "params, key",
    [
        ({"n_points": 128.9, "n_max": 7}, "n_points"),
        ({"n_points": 128, "n_max": "7"}, "n_max"),
        ({"half_width": "1.0"}, "half_width"),
        ({"lam": True}, "lam"),
        ({"xi0": ["1.0"]}, "xi0"),
        ({"xi0": [1.3]}, "plateau"),
        ({"plateau_fraction": 1.5}, "plateau_fraction"),
    ],
)
def test_mistyped_scenario_param_exits_2(tmp_path, capsys, params, key):
    cfg = write_cfg(tmp_path, params=params)
    assert main(["norm", "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err


def test_norm_csv_independent_of_seed_and_threads(tmp_path):
    # the exact norm path has no random start vector and no shared state
    config = str(Path(__file__).resolve().parents[1] / "configs" / "surface_bounds.json")
    outs = []
    for extra in (["--seed", "0", "--threads", "1"], ["--seed", "1"], ["--threads", "2"]):
        out = tmp_path / f"run{len(outs)}.csv"
        assert main(["norm", "--config", config, "--out", str(out)] + extra) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("command", ["norm", "sweep"])
def test_power_iteration_norm_method_exits_2_before_writing(tmp_path, capsys, command):
    # every CLI norm is exact; power iteration is a library method only
    cfg = write_cfg(tmp_path, norm_method="power_iteration")
    out = tmp_path / "out" / "p.csv"
    out.parent.mkdir()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "norm_method" in capsys.readouterr().err
    assert list(out.parent.iterdir()) == []


def test_power_max_iter_is_an_unknown_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, power_max_iter=500)
    assert main(["norm", "--config", str(cfg), "--out", str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert "unknown config keys" in err and "power_max_iter" in err
    assert not (tmp_path / "p.csv").exists()


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "fiochain", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for name in ("propagate", "norm", "cotlar", "sweep"):
        assert name in proc.stdout


def test_float_format_full_precision(tmp_path):
    cfg = write_cfg(tmp_path, n_values=None, n=1)
    out = tmp_path / "prec.csv"
    assert main(["norm", "--config", str(cfg), "--out", str(out)]) == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    header = ",".join(SCHEMA).split(",")
    measured = row[header.index("measured_norm")]
    # %.17g keeps enough digits to reconstruct the double exactly
    assert float(measured) == float(repr(float(measured)))
    assert len(measured.replace(".", "").replace("-", "").lstrip("0")) >= 10


@pytest.mark.parametrize(
    "command, config", [("norm", "contraction_norms"), ("cotlar", "surface_cotlar")]
)
def test_unwritable_out_exits_2_before_computing(tmp_path, monkeypatch, capsys, command, config):
    def refuse(*args):
        raise AssertionError("a scenario was built before --out was checked")

    monkeypatch.setattr(cli, "build_scenario", refuse)
    path = str(Path(__file__).resolve().parents[1] / "configs" / f"{config}.json")
    for out in (str(tmp_path / "missing" / "x.csv"), str(tmp_path), ""):
        assert main([command, "--config", path, "--out", out]) == 2
        assert out in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, suffix",
    [
        ("sweep", "contraction_decay_sweep", "_norm_vs_n.csv"),
        ("cotlar", "surface_cotlar", "_pairs.csv"),
    ],
)
def test_unwritable_side_file_exits_2_before_computing(
    tmp_path, monkeypatch, capsys, command, config, suffix
):
    # the main CSV could be written, but a side file's path is a directory
    def refuse(*args):
        raise AssertionError("a scenario was built before the side files were checked")

    monkeypatch.setattr(cli, "build_scenario", refuse)
    path = str(Path(__file__).resolve().parents[1] / "configs" / f"{config}.json")
    side = tmp_path / f"o{suffix}"
    side.mkdir()
    assert main([command, "--config", path, "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == f"output error: cannot write {side}\n"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("name", ["o.csv", "o_pairs.csv"])
def test_read_only_out_or_side_file_exits_2_before_computing(tmp_path, monkeypatch, capsys, name):
    # an existing file that denies writing is refused like an unwritable
    # folder; the file mode is faked, since root may write any file
    def refuse(*args):
        raise AssertionError("a scenario was built before the output files were checked")

    monkeypatch.setattr(cli, "build_scenario", refuse)
    locked, access = tmp_path / name, os.access
    locked.write_text("kept\n")
    monkeypatch.setattr(os, "access", lambda p, mode: os.fspath(p) != str(locked) and access(p, mode))
    path = str(Path(__file__).resolve().parents[1] / "configs" / "surface_cotlar.json")
    assert main(["cotlar", "--config", path, "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == f"output error: cannot write {locked}\n"
    assert locked.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def test_chain_commands_share_one_row_contract(tmp_path):
    config = str(Path(__file__).resolve().parents[1] / "configs" / "contraction_decay_sweep.json")
    tables = {}
    for command, rc in (("propagate", 3), ("norm", 0), ("sweep", 0)):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", config, "--out", str(out)]) == rc
        lines = out.read_text().strip().split("\n")
        tables[command] = [dict(zip(SCHEMA, ln.split(","))) for ln in lines[1:]]
    prop, norm, sweep = tables["propagate"], tables["norm"], tables["sweep"]
    assert [r["n"] for r in prop] == [r["n"] for r in norm] == [r["n"] for r in sweep]
    for col in ("measured_norm", "trivial_bound", "thm2_bound", "thm3_bound", "converged"):
        assert [r[col] for r in sweep] == [r[col] for r in norm]
    assert [r["wkb_residual_rel"] for r in sweep] == [r["wkb_residual_rel"] for r in prop]
    degenerate = {int(r["n"]) for r in prop if r["wkb_residual_rel"] == "inf"}
    assert degenerate == set(range(15, 27))
    assert {int(r["n"]) for r in prop if r["converged"] == "false"} == degenerate
    assert all(r["converged"] == "true" for r in sweep)


def test_degenerate_ansatz_warning_names_the_ansatz(tmp_path, capsys):
    # propagate runs no norm estimate: its converged=false rows are degenerate ansatzes
    config = str(Path(__file__).resolve().parents[1] / "configs" / "contraction_decay_sweep.json")
    assert main(["propagate", "--config", config, "--out", str(tmp_path / "p.csv")]) == 3
    err = capsys.readouterr().err
    assert "degenerate" in err and "converge" not in err


def test_propagate_applies_each_step_once_per_hbar(tmp_path, monkeypatch):
    # the plane wave is carried from one n to the next: n = 1, 2, 4 cost 4 steps per hbar
    applied, apply = [], FioOperator.apply
    monkeypatch.setattr(
        FioOperator, "apply", lambda self, f: applied.append(self) or apply(self, f)
    )
    cfg = write_cfg(tmp_path, hbar_values=[2e-2, 1e-2])
    assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "p.csv")]) == 0
    assert len(applied) == 8


def test_norm_never_applies_step_by_step(tmp_path, monkeypatch):
    # chain norms and the trivial bound's step norms all come from the K x K
    # cores; "auto" and "dense_svd" name the one exact path, bit for bit
    def refuse(self, f):
        raise AssertionError("a step was applied on the grid one at a time")

    monkeypatch.setattr(FioOperator, "apply", refuse)
    monkeypatch.setattr(FioOperator, "adjoint_apply", refuse)
    tables = {}
    for method in ("auto", "dense_svd"):
        cfg = write_cfg(tmp_path, norm_method=method, n_values=[4, 6, 8])
        out = tmp_path / f"{method}.csv"
        assert main(["norm", "--config", str(cfg), "--out", str(out)]) == 0
        tables[method] = out.read_bytes()
    assert tables["auto"] == tables["dense_svd"]
    rows = [dict(zip(SCHEMA, ln.split(","))) for ln in tables["auto"].decode().strip().split("\n")[1:]]
    assert [r["converged"] for r in rows] == ["true"] * 3


def _count_calls(monkeypatch, fn, counts, name):
    """Count calls of fn through every fiochain module that binds it."""

    def counting(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname.startswith("fiochain") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)


@pytest.mark.parametrize("command", ["sweep", "propagate"])
def test_ansatz_of_every_n_comes_from_one_pass_per_hbar(tmp_path, monkeypatch, command):
    # one backward symbol pass per hbar, and an orbit count that does not grow with the n's
    counts = Counter()
    _count_calls(monkeypatch, symbols.leading_symbol_product, counts, "passes")
    _count_calls(monkeypatch, dynamics.evolve_momentum, counts, "orbits")
    seen = {}
    for n_values in ([1], list(range(1, 9))):
        counts.clear()
        cfg = write_cfg(tmp_path, hbar_values=[2e-2, 1e-2], n_values=n_values)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
        assert counts["passes"] == 2
        seen[len(n_values)] = counts["orbits"]
    assert seen[8] == seen[1]


def test_orbit_leaving_the_window_at_the_longest_n_exits_2(tmp_path, monkeypatch, capsys):
    # p(xi) = 2 xi takes xi0 = 1 out of the momentum window (half width 4.02) at
    # n = 3, while every step's own support stays inside it
    doubling = MomentumMap(
        dimension=1,
        p=lambda xi: 2.0 * xi,
        grad_p=lambda xi: np.full(xi.shape + (1,), 2.0),
        alpha=lambda xi: np.zeros(xi.shape[:-1]),
        grad_alpha=np.zeros_like,
    )
    build = cli.build_scenario
    monkeypatch.setattr(
        cli, "build_scenario", lambda name, params: dataclasses.replace(build(name, params), step_map=doubling)
    )
    out = str(tmp_path / "o.csv")
    short, long = write_cfg(tmp_path, "short.json", n_values=[1, 2]), write_cfg(tmp_path, n_values=[1, 2, 3])
    for command in ("propagate", "sweep"):
        # xi0's image leaves psi's support, so propagate's ansatz is degenerate (exit 3)
        assert main([command, "--config", str(short), "--out", out]) in (0, 3)
        capsys.readouterr()
        assert main([command, "--config", str(long), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == "invalid configuration: the momentum orbit leaves the grid window; enlarge N or L\n"


def test_sweep_takes_the_first_step_norm_from_the_n1_core(tmp_path, monkeypatch):
    # n = 1, 2, 3: three chain cores and the tail step's own norm; the first
    # step's trivial-bound norm is the n = 1 core's estimate, not a fifth eigvalsh
    counts = Counter()
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    cfg = write_cfg(tmp_path, n_values=[1, 2, 3])
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
    assert counts["eigvalsh"] == 4
