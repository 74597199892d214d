"""Command-line front end: build scenarios, run experiments, emit CSV.

Subcommands
-----------
propagate   plane-wave residuals against the leading-order image
norm        measured chain norms with the trivial, volume, and block bounds
cotlar      block decomposition: norms, cross tables, reassembly, decay
sweep       norm and propagate combined, plus plot-data projections

All subcommands share ``--config`` (JSON, see config.py), ``--out`` (CSV path,
stdout when omitted), ``--threads``, ``--seed``, and ``--profile``.  Exit
status: 0 on success, 2 for invalid configs or violated scenario
preconditions, 3 when an iterative norm estimate failed to converge (results
are still written).  The wall_ms column is populated only under ``--profile``
so that default outputs are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from .bounds import measure_chain_norms, thm2_bound, thm3_bound, trivial_bound
from .config import ConfigError, ExperimentConfig, load_config
from .cotlar import build_block_family, family_report
from .scenarios import build_scenario, make_operators
from .wkb import wkb_residual

__all__ = [
    "SCHEMA",
    "main",
    "run_propagate",
    "run_norm",
    "run_cotlar",
    "run_sweep",
    "write_rows",
]

SCHEMA = [
    "scenario",
    "hbar",
    "n",
    "measured_norm",
    "trivial_bound",
    "thm2_bound",
    "thm3_bound",
    "wkb_residual_rel",
    "converged",
    "wall_ms",
]

COTLAR_SCHEMA = [
    "scenario",
    "hbar",
    "n",
    "n_blocks",
    "n_nonzero_blocks",
    "cotlar_bound",
    "parent_norm",
    "sum_norm",
    "reconstruction_error",
    "max_block_norm",
    "decay_exponent",
    "decay_r_squared",
    "infinite_decay",
]

BLOCK_SCHEMA = ["scenario", "hbar", "ell", "block_norm"]

PAIR_SCHEMA = ["scenario", "hbar", "ell", "em", "separation", "star_norm", "prod_norm"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_rows(rows: list[dict], schema: list[str], stream) -> None:
    stream.write(",".join(schema) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(row.get(col)) for col in schema) + "\n")


def _write_output(rows: list[dict], schema: list[str], out: str | None) -> None:
    if out is None:
        write_rows(rows, schema, sys.stdout)
    else:
        with open(out, "w") as fh:
            write_rows(rows, schema, fh)


def _scenario_for(cfg: ExperimentConfig, hbar: float):
    params = dict(cfg.params)
    params["hbar"] = hbar
    return build_scenario(cfg.scenario, params)


def _map_over_hbar(cfg: ExperimentConfig, worker) -> list:
    """worker(hbar) for every hbar value, on up to cfg.threads threads, in hbar_values order."""
    if cfg.threads > 1 and len(cfg.hbar_values) > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(worker, cfg.hbar_values))
    return [worker(h) for h in cfg.hbar_values]


def _sorted_rows(chunks: list[list[dict]]) -> list[dict]:
    rows = [row for chunk in chunks for row in chunk]
    return sorted(rows, key=lambda r: (r["scenario"], r["hbar"], r["n"]))


def run_propagate(cfg: ExperimentConfig) -> list[dict]:
    """Relative residual of the chain image against the leading-order ansatz."""

    def worker(hbar: float) -> list[dict]:
        spec = _scenario_for(cfg, hbar)
        ns = cfg.resolve_ns(hbar)
        ops = make_operators(spec, max(ns))
        rows = []
        for n in ns:
            t0 = time.perf_counter()
            res = wkb_residual(ops, spec.xi0, n)
            wall = (time.perf_counter() - t0) * 1e3
            rows.append(
                {
                    "scenario": spec.name,
                    "hbar": hbar,
                    "n": n,
                    "wkb_residual_rel": res.relative,
                    "converged": not res.degenerate,
                    "wall_ms": wall if cfg.profile else None,
                }
            )
        return rows

    return _sorted_rows(_map_over_hbar(cfg, worker))


def _norm_rows(cfg: ExperimentConfig, hbar: float, with_residual: bool) -> list[dict]:
    spec = _scenario_for(cfg, hbar)
    ns = cfg.resolve_ns(hbar)
    ops = make_operators(spec, max(ns))
    estimates = measure_chain_norms(
        ops,
        ns,
        method=cfg.norm_method,
        tol=cfg.power_tol,
        max_iter=cfg.power_max_iter,
        seed=cfg.seed,
    )
    rows = []
    for n in ns:
        est = estimates[n]
        triv = trivial_bound(
            ops[:n],
            method=cfg.norm_method,
            tol=cfg.power_tol,
            max_iter=cfg.power_max_iter,
            seed=cfg.seed,
        )
        chain_n = spec.chain(n)
        t2 = thm2_bound(chain_n, hbar, spec.omega2_tilde, samples_per_axis=cfg.samples_per_axis)
        t3 = (
            thm3_bound(chain_n, hbar, spec.omega2_tilde, samples_per_axis=cfg.samples_per_axis)
            if spec.has_block
            else None
        )
        row = {
            "scenario": spec.name,
            "hbar": hbar,
            "n": n,
            "measured_norm": est.value,
            "trivial_bound": triv.value,
            "thm2_bound": t2,
            "thm3_bound": t3,
            "converged": est.converged and triv.converged,
            "wall_ms": est.wall_ms if cfg.profile else None,
        }
        if with_residual:
            res = wkb_residual(ops, spec.xi0, n)
            row["wkb_residual_rel"] = res.relative
        rows.append(row)
    return rows


def run_norm(cfg: ExperimentConfig) -> list[dict]:
    """Measured norms and bounds per (hbar, n)."""
    return _sorted_rows(_map_over_hbar(cfg, lambda h: _norm_rows(cfg, h, with_residual=False)))


def run_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Norm and residual columns combined, one row per (hbar, n)."""
    return _sorted_rows(_map_over_hbar(cfg, lambda h: _norm_rows(cfg, h, with_residual=True)))


def run_cotlar(cfg: ExperimentConfig):
    """Block decomposition per hbar: summary, block norms, pair tables."""

    def worker(hbar: float):
        spec = _scenario_for(cfg, hbar)
        ns = cfg.resolve_ns(hbar)
        if len(ns) != 1:
            raise ConfigError("cotlar needs a single chain length per hbar")
        n = ns[0]
        ops = make_operators(spec, n)
        family = build_block_family(ops, spec.omega2_tilde, label=spec.name)
        report = family_report(family, spec.name, hbar, n)
        summary = {col: getattr(report, col) for col in COTLAR_SCHEMA}
        cells = sorted(family.ells)
        norms = family.block_norms()
        key = (spec.name, hbar)
        blocks = [dict(zip(BLOCK_SCHEMA, (*key, _cell(l), norms[l]))) for l in cells]
        pn = family.pair_norms()
        pairs = [
            dict(zip(PAIR_SCHEMA, (*key, _cell(l), _cell(m), family.separation(l, m), *pn[l, m])))
            for l in cells
            for m in cells
        ]
        return summary, blocks, pairs

    results = _map_over_hbar(cfg, worker)
    summary_rows = _sorted_rows([[summary] for summary, _, _ in results])
    block_rows = [row for _, blocks, _ in results for row in blocks]
    pair_rows = [row for _, _, pairs in results for row in pairs]
    return summary_rows, block_rows, pair_rows


def _cell(ell) -> str:
    return " ".join(str(e) for e in ell)


def _write_side_files(out: str | None, tables) -> None:
    """Write each (suffix, rows, schema) next to the main CSV; none when that goes to stdout."""
    if out is not None:
        base = out[:-4] if out.endswith(".csv") else out
        for suffix, rows, schema in tables:
            with open(base + suffix, "w") as fh:
                write_rows(rows, schema, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fiochain",
        description="Chains of foliation-preserving oscillatory-integral operators: "
        "propagation, norm bounds, and block decompositions on a grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("propagate", "plane-wave residual against the leading-order image"),
        ("norm", "measured chain norms and analytic bounds"),
        ("cotlar", "block decomposition and almost-orthogonality constant"),
        ("sweep", "norms and residuals combined, with plot-data files"),
    ]:
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", default=None, help="output CSV path (stdout if omitted)")
        sp.add_argument("--threads", type=int, default=None, help="worker threads over hbar values")
        sp.add_argument("--seed", type=int, default=None, help="seed for iterative norm estimates")
        sp.add_argument("--profile", action="store_true", help="populate the wall_ms column")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.threads is not None:
            cfg.threads = args.threads
        if args.seed is not None:
            cfg.seed = args.seed
        if args.profile:
            cfg.profile = True
        cfg.validate()

        if args.command == "cotlar":
            rows, blocks, pairs = run_cotlar(cfg)
            _write_output(rows, COTLAR_SCHEMA, args.out)
            tables = [("_blocks.csv", blocks, BLOCK_SCHEMA), ("_pairs.csv", pairs, PAIR_SCHEMA)]
        else:
            run = {"propagate": run_propagate, "norm": run_norm, "sweep": run_sweep}[args.command]
            rows = run(cfg)
            _write_output(rows, SCHEMA, args.out)
            tables = []
            if args.command == "sweep":
                norms = ["hbar", "n", "measured_norm", "trivial_bound", "thm2_bound", "thm3_bound"]
                tables = [
                    ("_norm_vs_n.csv", rows, norms),
                    ("_residual_vs_hbar.csv", rows, ["hbar", "n", "wkb_residual_rel"]),
                ]
        _write_side_files(args.out, tables)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    if any(row.get("converged") is False for row in rows):
        print("warning: at least one estimate did not converge", file=sys.stderr)
        return 3
    return 0
