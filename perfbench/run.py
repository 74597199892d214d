"""Closed-loop benchmark of the fiochain CLI on three fixed experiments.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_1d --seed 0 --seconds 30 --trace 0

One client runs one experiment at a time, each in a fresh worker process
(``cli.main`` with ``--threads 1``, no ``--profile``), until ``--seconds`` is
used up.  Every sample's CSV outputs are checked row by row against
``perfbench/reference/<workload>/`` (see check.py).  The last stdout line is a
JSON object with ``correct``, ``attempted``, ``failed`` (CSV rows) and
``metrics``:

* ``--trace 0``: end-to-end medians over the samples: ``wall_s``, ``setup_s``,
  ``cpu_s``, ``peak_rss_mb``.
* ``--trace 1``: per-layer metrics from traced samples (see tracing.py), each
  paired with an untraced sample so the tracing overhead is reported, plus
  ``rows_failed_frac``.

The seed reaches the program only as ``--seed``, which sets the power-iteration
start vector; sample i of a run passes ``seed * 1000 + i``.  ``sweep_1d`` and
``cotlar_2d`` have no random input; their outputs are the same for every seed.  Outputs go to ``.perfbench_out/``, never
to ``results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from check import CheckResult, check_outputs
from tracing import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Why each workload exists: which layer it loads and which it bypasses.
WORKLOADS = {
    # Dense chain products + SVD and WKB residuals; the classical layer is light.
    "sweep_1d": {
        "command": "sweep",
        "heavy": ["fio.to_dense", "linalg.svd", "bounds.measure_chain_norms", "wkb.wkb_residual"],
    },
    # Matrix-free power iteration (apply/adjoint + FFTs) and the point-by-point
    # determinant suprema of thm2/thm3; never touches cotlar.
    "surface_norm_2d": {
        "command": "norm",
        "heavy": [
            "grid.hbar_fourier",
            "grid.hbar_inverse_fourier",
            "dynamics.jacobian_chain",
            "fio.apply",
            "fio.adjoint_apply",
            "bounds.thm2_bound",
            "bounds.thm3_bound",
        ],
    },
    # Block family tables: K x K SVDs through BlockFamily; no chain norm, no FFT.
    "cotlar_2d": {
        "command": "cotlar",
        "heavy": [
            "cotlar.build_block_family",
            "cotlar.family_report",
            "cotlar.star_norm",
            "cotlar.prod_norm",
            "symbols.leading_symbol_product",
            "linalg.svd",
            "cli.write_rows",
        ],
    },
}
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
COMMON_HEAVY = ["config.load_config", "scenarios.build_scenario", "scenarios.make_operators"]

# Pinned so that two commits are always compared under the same BLAS setting.
# One thread: on a small shared machine a second BLAS thread competes with
# other tenants for the second core, which made wall_s and cpu_s swing by 25%
# between runs of the same code.
BLAS_THREADS = "1"
# Sample i of a run passes --seed seed * SEEDS_PER_RUN + i, so each run
# averages over several power-iteration start vectors: on surface_norm_2d the
# iteration count, and with it the work, varies by +-25% between start vectors.
SEEDS_PER_RUN = 1000
# A run must end within this many seconds whatever its workers do.
RUN_DEADLINE_S = 170.0
UNATTRIBUTED_LIMIT = 0.05


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every metric a traced run reports."""
    return {
        **metric_units(),
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.unattributed_frac": "fraction",
        "trace.heavy_spans_missing": "count",
        "rows_failed_frac": "fraction",
    }


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(job: dict, env: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    job = dict(job, src=str(ROOT / "src"), spawned=_now())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - _now()))
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def tail_note(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    note = f"median {statistics.median(values):.6g} over {n} samples"
    pct = 100.0 * (1.0 - 10.0 / n)
    if pct <= 50.0:
        return note + f" (max {max(values):.6g}; too few samples for a tail percentile)"
    cut = statistics.quantiles(values, n=1000, method="inclusive")[int(pct * 10) - 1]
    return note + f", p{pct:.1f} {cut:.6g}"


def run_record(args, samples: list[dict], setups: list[float]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fiochain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "setup_samples_s": setups,
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = _now() + RUN_DEADLINE_S

    if not (ROOT / "src" / "fiochain" / "cli.py").is_file():
        print(f"no fiochain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    config = HERE / "workloads" / f"{args.workload}.json"
    power_tol = json.loads(config.read_text())["power_tol"]
    ref_dir = HERE / "reference" / args.workload
    out_root = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    env = worker_env()

    def sample(i: int, trace: bool) -> dict:
        out_dir = out_root / f"sample{i}"
        out_dir.mkdir()
        job = {
            "argv": [
                spec["command"],
                "--config", str(config),
                "--out", str(out_dir / f"{args.workload}.csv"),
                "--threads", "1",
                "--seed", str(args.seed * SEEDS_PER_RUN + i),
            ],
            "trace": trace,
            "run_id": f"{args.workload}-seed{args.seed}-sample{i}",
            "spans_path": str(out_root / f"spans{i}.csv") if trace else None,
        }
        res = spawn(job, env, deadline)
        res["seed"] = int(job["argv"][-1])
        res["check"] = check_outputs(out_dir, ref_dir, power_tol)
        return res

    spawn({}, env, deadline)  # untimed: compiles bytecode and warms the file cache
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(sample(len(plain) + len(traced), False))
        if args.trace:
            traced.append(sample(len(plain) + len(traced), True))
        elapsed = time.perf_counter() - start
        # start another sample only if it should end within --seconds
        if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
            break

    check = CheckResult()
    for res in plain + traced:
        check.add(res.pop("check"))
    setups = [res["setup_s"] for res in plain + traced]
    lines = [f"workload {args.workload}, seed {args.seed}, {len(plain)} untraced samples"]
    if args.trace:
        metrics = trace_metrics(args.workload, plain, traced, check, lines)
    else:
        values = {name: [res[name] for res in plain] for name in END_TO_END}
        values["setup_s"] = setups
        metrics = {}
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
            lines.append(f"{name}: {tail_note(values[name])} {unit}")
    lines.append(
        f"rows: {check.attempted} checked, {check.failed} failed "
        f"(rows_failed_frac {check.failed_frac:.4g}), {check.mismatches} mismatched"
    )
    seen = set()
    for msg in check.messages:
        if msg not in seen:
            seen.add(msg)
            lines.append(f"  {msg}")

    samples = [{k: v for k, v in res.items() if k != "layers"} for res in plain + traced]
    record = run_record(args, samples, setups)
    (out_root / f"record_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(dict(record, layers=[res.get("layers") for res in traced]), indent=1)
    )
    for line in lines:
        print(line)
    print("record: " + json.dumps({k: v for k, v in record.items() if k != "samples"}))
    print(
        json.dumps(
            {
                "correct": check.correct,
                "attempted": check.attempted,
                "failed": check.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def trace_metrics(workload, plain, traced, check, lines) -> dict:
    units = per_layer_units()
    layers = [res["layers"] for res in traced]
    values = {name: statistics.median_low(layer[name] for layer in layers) for name in layers[0]}
    traced_wall = statistics.median(res["wall_s"] for res in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(res["wall_s"] for res in plain)
    values["trace.unattributed_frac"] = values["cli.main.self_s"] / traced_wall
    heavy = WORKLOADS[workload]["heavy"] + COMMON_HEAVY
    silent = [name for name in heavy if values[f"{name}.calls"] == 0]
    values["trace.heavy_spans_missing"] = len(silent)
    values["rows_failed_frac"] = check.failed_frac
    missing = sorted({name for res in traced for name in res["missing_spans"]})
    lines.append(f"traced samples: {len(traced)}; tracing overhead {values['trace.overhead_s']:+.4f} s")
    lines.append(
        "coverage: "
        + ("ok" if not silent else "heavy spans that never fired: " + ", ".join(silent))
        + (f"; targets not found in the program: {', '.join(missing)}" if missing else "")
    )
    frac = values["trace.unattributed_frac"]
    lines.append(
        f"cli.main self time {frac:.2%} of traced wall_s "
        + ("(under" if frac < UNATTRIBUTED_LIMIT else "(NOT under")
        + f" {UNATTRIBUTED_LIMIT:.0%})"
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


if __name__ == "__main__":
    sys.exit(main())
