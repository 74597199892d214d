#!/usr/bin/env python3
"""Wall time and peak memory of one `norm` run through the CLI.

Writes a config for one scenario, grid size, hbar values and chain lengths,
runs `fiochain.cli.main(["norm", ..., "--threads", "1"])` once in this
process, and prints the support size K, the bytes of one K x K array of the
dtype the chain's norm path uses (float64 for an even chain, with zero action
and centred cutoffs, else complex128), the wall time of that call and the
process's peak resident set size (ru_maxrss, which includes the interpreter
and the imports).  The norm path's K x K arrays set the peak on large grids:
at 192^2 points and hbar 1.25e-3, K = 61^2 and one such array is 111 MB
(surface_model's float64), or 221 MB complex.  The BLAS thread count comes
from the environment (for one thread, set OPENBLAS_NUM_THREADS=1).  Run each
measurement in its own process: ru_maxrss never falls.

Example:
  python3 scripts/norm_working_set.py
  python3 scripts/norm_working_set.py --n-points 96 --hbar 2.5e-3
  python3 scripts/norm_working_set.py --n-points 192 --hbar 1.25e-3
"""

from __future__ import annotations

import argparse
import json
import resource
import tempfile
import time
from pathlib import Path

import numpy as np

from fiochain.cli import main as cli_main
from fiochain.scenarios import build_scenario, make_operators


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenario", default="surface_model")
    ap.add_argument("--n-points", type=int, default=48, help="grid points per axis")
    ap.add_argument("--hbar", type=float, nargs="+", default=[5e-3])
    ap.add_argument("--n", type=int, nargs="+", default=[2, 4, 6], help="chain lengths")
    args = ap.parse_args()

    config = {
        "scenario": args.scenario,
        "hbar_values": args.hbar,
        "n_values": args.n,
        "norm_method": "auto",
        "params": {"n_points": args.n_points},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        t0 = time.perf_counter()
        rc = cli_main(["norm", "--config", str(path), "--out", str(Path(tmp) / "norm.csv"), "--threads", "1"])
        wall_s = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    params = {"hbar": min(args.hbar), "n_points": args.n_points}
    first = make_operators(build_scenario(args.scenario, params), 1)[0]
    k = len(first.support_indices())
    # the core's dtype is that of its inputs: the links (float64 like G_P) and the forward root
    tail, root = first.phase_step, first.forward_factor()
    dtype = np.result_type(*tail.transfer(tail), *(root if isinstance(root, list) else [root]))
    print(f"{args.scenario} {args.n_points} points per axis, hbar {args.hbar}, n {args.n}: exit {rc}")
    print(f"K {k} (at hbar {min(args.hbar)}), one K x K {dtype} array {dtype.itemsize * k * k / 1e6:.1f} MB")
    print(f"wall_s {wall_s:.3f}")
    print(f"peak_rss_mb {peak_mb:.1f}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
