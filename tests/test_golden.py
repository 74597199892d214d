"""Regenerated CSVs agree with the committed results/ within a stated tolerance.

Byte-identity holds only on one machine; BLAS builds differ in summation
order.  So every shipped config is rerun through the CLI with the subcommand
``scripts/run_all_experiments.py`` gives it, and every CSV it writes is
compared with its committed copy field by field:

* fields that are not floats (text, integers, booleans, empty) must be equal;
* floats must agree within GOLDEN_RTOL relative, except that entries below
  GOLDEN_FLOOR times their column's largest magnitude are compared absolutely
  at that floor (rounding noise around zero has no relative accuracy);
* ``reconstruction_error`` (zero up to rounding by construction) must agree
  within RECONSTRUCTION_ATOL absolute.

results/ is read, never written.
"""

import csv
import math
from pathlib import Path

import pytest

from fiochain.cli import main
from run_all_experiments import RUNS

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_RTOL = 1e-12
GOLDEN_FLOOR = 1e-13
RECONSTRUCTION_ATOL = 1e-12


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _float_columns(rows: list[dict[str, str]]) -> set[str]:
    """Columns holding a float that is not an integer literal in some row."""
    return {
        col
        for row in rows
        for col, text in row.items()
        if _float(text) is not None and not text.lstrip("-").isdigit()
    }


def _read(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _mismatches(name: str, golden: list[dict], fresh: list[dict]) -> list[str]:
    if len(golden) != len(fresh):
        return [f"{name}: {len(fresh)} rows, expected {len(golden)}"]
    if golden and list(golden[0]) != list(fresh[0]):
        return [f"{name}: columns {list(fresh[0])}, expected {list(golden[0])}"]
    floats = _float_columns(golden + fresh)
    col_max = {}
    for row in golden:
        for col in floats:
            v = _float(row[col])
            if v is not None and math.isfinite(v):
                col_max[col] = max(col_max.get(col, 0.0), abs(v))
    out = []
    for i, (want, got) in enumerate(zip(golden, fresh)):
        for col, w in want.items():
            g = got[col]
            if w == g:
                continue
            a, b = _float(w), _float(g)
            if col not in floats or a is None or b is None or not math.isfinite(a - b):
                ok = False
            elif col == "reconstruction_error":
                ok = abs(a - b) <= RECONSTRUCTION_ATOL
            else:
                floor = GOLDEN_FLOOR * col_max.get(col, 0.0)
                ok = abs(a - b) <= max(GOLDEN_RTOL * max(abs(a), abs(b)), floor)
            if not ok:
                out.append(f"{name} row {i + 1} {col}: {g!r}, expected {w!r}")
    return out


def test_runs_cover_every_config_once():
    stems = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
    assert sorted(stem for stem, _ in RUNS) == stems


@pytest.mark.parametrize("stem, command", RUNS)
def test_regenerated_results_match_committed(tmp_path, stem, command):
    config = ROOT / "configs" / f"{stem}.json"
    argv = [command, "--config", str(config), "--out", str(tmp_path / f"{stem}.csv")]
    assert main(argv + ["--threads", "1"]) == 0
    written = sorted(p.name for p in tmp_path.glob(f"{stem}*.csv"))
    committed = sorted(p.name for p in (ROOT / "results").glob(f"{stem}*.csv"))
    assert written == committed
    problems = []
    for name in written:
        problems += _mismatches(name, _read(ROOT / "results" / name), _read(tmp_path / name))
    assert not problems, "\n".join(problems)
