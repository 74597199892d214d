"""Command-line front end: build scenarios, run experiments, emit CSV.

Subcommands
-----------
propagate   plane-wave residuals against the leading-order image
norm        measured chain norms with the trivial, volume, and block bounds
cotlar      block decomposition: norms, cross tables, reassembly, decay
sweep       norm and propagate combined, plus plot-data projections

Each subcommand is one ``COMMANDS`` entry returning (rows, schema, side tables);
propagate, norm and sweep share one row builder, ``_chain_rows``.

All subcommands share ``--config`` (JSON, see config.py), ``--out`` (CSV path,
stdout when omitted; side files go next to it), ``--threads``, ``--seed``, and
``--profile``.  Exit status: 0 on success, 2 for invalid configs, violated
scenario preconditions, or an ``--out`` or side file that cannot be written,
an existing read-only file included (every path checked before any
computation), 3 when a ``propagate`` row is ``converged=false``, a degenerate
ansatz (results are still written).  Every norm is exact, so ``--seed`` feeds
nothing.  The wall_ms column is populated only under ``--profile`` so that
default outputs are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from functools import partial

from .bounds import measure_chain_norms, thm2_bound, thm3_bound, trivial_bound
from .config import ConfigError, ExperimentConfig, load_config
from .cotlar import CotlarReport, build_block_family, family_report
from .fio import chain_apply
from .grid import plane_wave
from .scenarios import build_scenario, make_operators
from .wkb import wkb_ansatzes, wkb_residual

__all__ = [
    "COMMANDS",
    "SCHEMA",
    "main",
    "run_chain",
    "run_cotlar",
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

COTLAR_SCHEMA = [f.name for f in dataclasses.fields(CotlarReport)]

BLOCK_SCHEMA = ["scenario", "hbar", "ell", "block_norm"]

PAIR_SCHEMA = ["scenario", "hbar", "ell", "em", "separation", "star_norm", "prod_norm"]

# side tables as (suffix, columns)
COTLAR_SIDE = [("_blocks.csv", BLOCK_SCHEMA), ("_pairs.csv", PAIR_SCHEMA)]


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
    """The table as CSV text, header first, in one write."""
    lines = [",".join(schema)] + [",".join(_fmt(row.get(col)) for col in schema) for row in rows]
    stream.write("\n".join(lines) + "\n")


def _scenario_for(cfg: ExperimentConfig, hbar: float):
    params = dict(cfg.params)
    params["hbar"] = hbar
    return build_scenario(cfg.scenario, params)


def _map_over_hbar(cfg: ExperimentConfig, worker) -> list:
    """worker(hbar) for every hbar value, on up to cfg.threads threads, in hbar_values order."""
    if cfg.threads > 1 and len(cfg.hbar_values) > 1:
        # imported here: concurrent.futures loads logging, threading and queue
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(worker, cfg.hbar_values))
    return [worker(h) for h in cfg.hbar_values]


def _sorted_rows(chunks: list[list[dict]]) -> list[dict]:
    rows = [row for chunk in chunks for row in chunk]
    return sorted(rows, key=lambda r: (r["scenario"], r["hbar"], r["n"]))


def _chain_rows(cfg: ExperimentConfig, hbar: float, norms: bool, residual: bool) -> list[dict]:
    """One row per n at one hbar: the norm and bound columns, the residual column, or both.

    With norms, ``converged`` and ``wall_ms`` describe the measured norm, the
    exact top eigenvalue of its K x K core whatever ``norm_method`` is: always
    true, and the time its measurement spent on that n.  Without norms they
    describe the residual: a degenerate ansatz (``wkb_residual_rel = inf``) is
    ``converged=false``, and ``wall_ms`` is the residual's time after the
    previous n (the first n's includes the ansatzes).  ``wall_ms`` is empty
    unless ``cfg.profile`` is set.  Per hbar the plane wave is propagated
    once, each n applying only the steps past the previous n, and
    `wkb_ansatzes` builds every n's ansatz in one pass.
    """
    spec = _scenario_for(cfg, hbar)
    ns = cfg.resolve_ns(hbar)
    ops = make_operators(spec, max(ns))
    # the bounds of every n read one evaluation of per-step determinants over the longest chain
    chain, window = spec.chain(max(ns)), spec.omega2_tilde
    estimates = measure_chain_norms(ops, ns) if norms else None
    rows = []
    if residual:
        t0 = time.perf_counter()
        wave, done = plane_wave(spec.grid, spec.xi0), 0
        ansatzes = wkb_ansatzes(chain, [op.symbol for op in ops], spec.xi0, ns, spec.grid)
    for i, n in enumerate(ns):
        row = {"scenario": spec.name, "hbar": hbar, "n": n}
        if norms:
            est = estimates[n]
            row["measured_norm"] = est.value
            row["trivial_bound"] = trivial_bound(ops[:n]).value
            row["thm2_bound"] = thm2_bound(chain, hbar, window, n)
            if spec.has_block:
                row["thm3_bound"] = thm3_bound(chain, hbar, window, n)
            row["converged"] = est.converged
            row["wall_ms"] = est.wall_ms
        if residual:
            wave, done = chain_apply(ops[done:n], wave), n
            res = wkb_residual(ops, spec.xi0, n, propagated=wave, ansatz=ansatzes[i])
            row["wkb_residual_rel"] = res.relative
            if not norms:
                row["converged"] = not res.degenerate
                row["wall_ms"] = (time.perf_counter() - t0) * 1e3
                t0 = time.perf_counter()
        if not cfg.profile:
            row["wall_ms"] = None
        rows.append(row)
    return rows


def run_chain(cfg: ExperimentConfig, norms: bool, residual: bool, side=()):
    """Chain rows over every hbar, with side tables projecting them onto (suffix, columns)."""
    rows = _sorted_rows(_map_over_hbar(cfg, lambda h: _chain_rows(cfg, h, norms, residual)))
    return rows, SCHEMA, [(suffix, rows, columns) for suffix, columns in side]


def run_cotlar(cfg: ExperimentConfig):
    """Block decomposition per hbar: summary rows, with block-norm and pair-norm side tables."""

    def worker(hbar: float):
        spec = _scenario_for(cfg, hbar)
        ns = cfg.resolve_ns(hbar)
        if len(ns) != 1:
            raise ConfigError("cotlar needs a single chain length per hbar")
        n = ns[0]
        ops = make_operators(spec, n)
        family = build_block_family(ops, spec.omega2_tilde, label=spec.name)
        summary = dataclasses.asdict(family_report(family, spec.name, hbar, n))
        cells = sorted(family.ells)
        labels = {l: _cell(l) for l in cells}
        norms = family.block_norms()
        key = (spec.name, hbar)
        blocks = [dict(zip(BLOCK_SCHEMA, (*key, labels[l], norms[l]))) for l in cells]
        pn = family.pair_norms()
        pairs = [
            dict(zip(PAIR_SCHEMA, (*key, labels[l], labels[m], family.separation(l, m), *pn[l, m])))
            for l in cells
            for m in cells
        ]
        return summary, blocks, pairs

    results = _map_over_hbar(cfg, worker)
    summaries, blocks, pairs = zip(*results)
    side = [
        (suffix, [row for chunk in table for row in chunk], columns)
        for (suffix, columns), table in zip(COTLAR_SIDE, (blocks, pairs))
    ]
    return _sorted_rows([[summary] for summary in summaries]), COTLAR_SCHEMA, side


def _cell(ell) -> str:
    return " ".join(str(e) for e in ell)


SWEEP_SIDE = [
    ("_norm_vs_n.csv", ["hbar", "n", "measured_norm", "trivial_bound", "thm2_bound", "thm3_bound"]),
    ("_residual_vs_hbar.csv", ["hbar", "n", "wkb_residual_rel"]),
]

# subcommand -> (help, run, side); run(cfg) returns (rows, schema, [(suffix, rows, schema), ...])
COMMANDS = {
    "propagate": (
        "plane-wave residual against the leading-order image",
        partial(run_chain, norms=False, residual=True),
        [],
    ),
    "norm": (
        "measured chain norms and analytic bounds",
        partial(run_chain, norms=True, residual=False),
        [],
    ),
    "cotlar": ("block decomposition and almost-orthogonality constant", run_cotlar, COTLAR_SIDE),
    "sweep": (
        "norms and residuals combined, with plot-data files",
        partial(run_chain, norms=True, residual=True, side=SWEEP_SIDE),
        SWEEP_SIDE,
    ),
}


def _out_paths(out: str, side) -> list[str]:
    """``out`` and each side table's path next to it, base + suffix."""
    base = out[:-4] if out.endswith(".csv") else out
    return [out] + [base + suffix for suffix, *_ in side]


def _write_all(out: str | None, rows: list[dict], schema: list[str], side) -> None:
    """Main CSV to ``out`` (stdout when None), each side table next to it as base + suffix."""
    if out is None:
        write_rows(rows, schema, sys.stdout)
        return
    tables = [(rows, schema)] + [(r, c) for _, r, c in side]
    for path, (table, columns) in zip(_out_paths(out, side), tables):
        with open(path, "w") as fh:
            write_rows(table, columns, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fiochain",
        description="Chains of foliation-preserving oscillatory-integral operators: "
        "propagation, norm bounds, and block decompositions on a grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, *_) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", default=None, help="output CSV path (stdout if omitted)")
        sp.add_argument("--threads", type=int, default=None, help="worker threads over hbar values")
        sp.add_argument("--seed", type=int, default=None, help="accepted; every norm is exact")
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
        _, run, side = COMMANDS[args.command]
        for path in [] if args.out is None else _out_paths(args.out, side):
            folder = os.path.dirname(path) or "."
            read_only = os.path.exists(path) and not os.access(path, os.W_OK)
            if os.path.isdir(path or ".") or read_only or not os.access(folder, os.W_OK | os.X_OK):
                print(f"output error: cannot write {path}", file=sys.stderr)
                return 2
        rows, schema, side = run(cfg)
        _write_all(args.out, rows, schema, side)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    # every norm is exact, so converged=false marks a degenerate ansatz
    if any(row.get("converged") is False for row in rows):
        print("warning: at least one ansatz is degenerate", file=sys.stderr)
        return 3
    return 0
