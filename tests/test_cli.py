"""Command-line entry point: schemas, determinism, exit codes."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import fiochain
from fiochain import cli
from fiochain.cli import SCHEMA, main
from fiochain.cotlar import BlockFamily


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

    class RecordingPool(cli.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        assert main(["cotlar", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 0
    assert len(pools) == 1  # --threads 2 ran the two hbar values on a pool
    for suffix in (".csv", "_blocks.csv", "_pairs.csv"):
        assert (tmp_path / f"t1{suffix}").read_bytes() == (tmp_path / f"t2{suffix}").read_bytes()


def test_cotlar_evaluates_each_pair_once(tmp_path, monkeypatch):
    calls = Counter()
    families = {}

    def counting(name):
        original = getattr(BlockFamily, name)

        def method(self, *args):
            families[id(self)] = self
            calls[id(self), name] += 1
            return original(self, *args)

        return method

    for name in ("star_norm", "prod_norm", "block_norm"):
        monkeypatch.setattr(BlockFamily, name, counting(name))
    cfg = two_hbar_cotlar_cfg(tmp_path)
    assert main(["cotlar", "--config", str(cfg), "--out", str(tmp_path / "cot.csv")]) == 0
    assert len(families) == 2
    for key, family in families.items():
        cells = len(family.ells)
        assert calls[key, "star_norm"] == cells * (cells + 1) // 2
        assert calls[key, "prod_norm"] == cells * (cells + 1) // 2
        assert calls[key, "block_norm"] == cells


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, fiochain.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
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


def test_nonconverged_exits_3(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        norm_method="power_iteration",
        power_max_iter=1,
        power_tol=1e-15,
        n_values=None,
        n=2,
    )
    out = tmp_path / "nc.csv"
    assert main(["norm", "--config", str(cfg), "--out", str(out)]) == 3
    lines = out.read_text().strip().split("\n")
    row = dict(zip(SCHEMA, lines[1].split(",")))
    assert row["converged"] == "false"
    assert "converge" in capsys.readouterr().err.lower()


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
