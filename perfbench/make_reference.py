"""Regenerate the reference outputs in perfbench/reference/.

Usage (from the repository root; about two minutes on a 2-core machine):

    python3 perfbench/make_reference.py

Each workload runs once through the CLI at seed 0.  Deterministic columns are
kept as the program writes them.  For ``surface_norm_2d``, where ``auto``
selects power iteration, the iterative columns are replaced by exact values:
``measured_norm`` by a dense SVD of the assembled chain, ``trivial_bound`` by
the product of dense single-step norms, and ``converged`` by ``true``.  The
references therefore do not depend on the seed.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from fiochain import cli  # noqa: E402
from fiochain.config import load_config  # noqa: E402
from fiochain.scenarios import build_scenario, make_operators  # noqa: E402

from run import WORKLOADS  # noqa: E402

DENSE_EXACT = {"surface_norm_2d"}


def exact_norm_columns(config_path) -> dict[tuple[str, str], dict[str, float]]:
    """(hbar, n) as written in the CSV -> exact measured_norm and trivial_bound."""
    cfg = load_config(config_path)
    out = {}
    for hbar in cfg.hbar_values:
        params = dict(cfg.params, hbar=hbar)
        spec = build_scenario(cfg.scenario, params)
        ns = cfg.resolve_ns(hbar)
        ops = make_operators(spec, max(ns))
        step_norms = {}
        total = None
        for k, op in enumerate(ops, start=1):
            dense = op.to_dense().matrix
            if id(op) not in step_norms:
                step_norms[id(op)] = float(np.linalg.norm(dense, 2))
            total = dense if total is None else dense @ total
            if k in ns:
                trivial = 1.0
                for step in ops[:k]:
                    trivial *= step_norms[id(step)]
                out[(cli._fmt(float(hbar)), str(k))] = {
                    "measured_norm": float(np.linalg.norm(total, 2)),
                    "trivial_bound": trivial,
                }
    return out


def main() -> int:
    for workload, spec in WORKLOADS.items():
        config = HERE / "workloads" / f"{workload}.json"
        ref_dir = HERE / "reference" / workload
        ref_dir.mkdir(parents=True, exist_ok=True)
        for old in ref_dir.glob("*.csv"):
            old.unlink()
        out = ref_dir / f"{workload}.csv"
        argv = [spec["command"], "--config", str(config), "--out", str(out), "--threads", "1", "--seed", "0"]
        rc = cli.main(argv)
        if rc != 0:
            print(f"{workload}: cli exited with {rc}", file=sys.stderr)
            return 1
        if workload in DENSE_EXACT:
            exact = exact_norm_columns(config)
            with open(out, newline="") as fh:
                rows = list(csv.reader(fh))
            header = rows[0]
            col = {name: header.index(name) for name in ("hbar", "n", "measured_norm", "trivial_bound", "converged")}
            for row in rows[1:]:
                values = exact[(row[col["hbar"]], row[col["n"]])]
                for name, value in values.items():
                    row[col[name]] = cli._fmt(value)
                row[col["converged"]] = "true"
            with open(out, "w") as fh:
                for row in rows:
                    fh.write(",".join(row) + "\n")
        print(f"{workload}: wrote {sorted(p.name for p in ref_dir.glob('*.csv'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
