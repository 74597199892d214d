"""Tracing shim that wraps fiochain's public functions from outside the package.

`Tracer.install()` replaces every binding of each traced function, in every
loaded ``fiochain`` module (``cli`` and ``bounds`` import names directly, so
patching only the defining module would miss most calls), plus a few methods
on their classes and the numpy SVD entry points.  Each wrapped call records a
span (name, start, end, parent) in memory; `uninstall()` puts every original
object back.  The program itself is not modified.

Spans nest strictly because the benchmark runs the CLI with ``--threads 1``,
where ``_map_over_hbar`` runs inline on the calling thread.
"""

from __future__ import annotations

import functools
import math
import sys
import time

import numpy as np

# Span name -> (module, attribute) for module-level functions.
FUNCTIONS = {
    "grid.hbar_fourier": ("fiochain.grid", "hbar_fourier"),
    "grid.hbar_inverse_fourier": ("fiochain.grid", "hbar_inverse_fourier"),
    "dynamics.jacobian_chain": ("fiochain.dynamics", "jacobian_chain"),
    "dynamics.evolve_momentum": ("fiochain.dynamics", "evolve_momentum"),
    "dynamics.phase_cocycle": ("fiochain.dynamics", "phase_cocycle"),
    "dynamics.tilde_jacobian_chain": ("fiochain.dynamics", "tilde_jacobian_chain"),
    "symbols.leading_symbol_product": ("fiochain.symbols", "leading_symbol_product"),
    "bounds.measure_chain_norms": ("fiochain.bounds", "measure_chain_norms"),
    "bounds.operator_norm": ("fiochain.bounds", "operator_norm"),
    "bounds.trivial_bound": ("fiochain.bounds", "trivial_bound"),
    "bounds.thm2_bound": ("fiochain.bounds", "thm2_bound"),
    "bounds.thm3_bound": ("fiochain.bounds", "thm3_bound"),
    "wkb.wkb_residual": ("fiochain.wkb", "wkb_residual"),
    "cotlar.build_block_family": ("fiochain.cotlar", "build_block_family"),
    "cotlar.family_report": ("fiochain.cotlar", "family_report"),
    "scenarios.build_scenario": ("fiochain.scenarios", "build_scenario"),
    "scenarios.make_operators": ("fiochain.scenarios", "make_operators"),
    "config.load_config": ("fiochain.config", "load_config"),
    "cli.write_rows": ("fiochain.cli", "write_rows"),
    "cli.main": ("fiochain.cli", "main"),
}

# Span name -> (module, class, method).  Patching the class covers every instance.
METHODS = {
    "fio.assemble": ("fiochain.fio", "FioOperator", "_matrix"),
    "fio.apply": ("fiochain.fio", "FioOperator", "apply"),
    "fio.adjoint_apply": ("fiochain.fio", "FioOperator", "adjoint_apply"),
    "fio.to_dense": ("fiochain.fio", "FioOperator", "to_dense"),
    "cotlar.star_norm": ("fiochain.cotlar", "BlockFamily", "star_norm"),
    "cotlar.prod_norm": ("fiochain.cotlar", "BlockFamily", "prod_norm"),
    "cotlar.block_norm": ("fiochain.cotlar", "BlockFamily", "block_norm"),
}

# numpy.linalg entry points that run an SVD or a symmetric eigensolve; all are
# reported under one kernel span.  ``norm`` counts only for ord=2 on a matrix.
KERNEL_ENTRIES = ("norm", "svd", "svdvals", "eigvalsh")
KERNEL_SPAN = "linalg.svd"

SPAN_NAMES = tuple(FUNCTIONS) + tuple(METHODS) + (KERNEL_SPAN,)

# Work counts and ratios measured at the span boundaries, with their units.
COUNTERS = {
    "grid.fft_flops_computed": "flop",
    "bounds.power_iterations": "count",
    "bounds.det_sup_unique_ratio": "ratio",
    "cotlar.pair_unique_ratio": "ratio",
    "linalg.svd.flops_computed": "flop",
    "cli.write_rows.bytes": "B",
    "trace.spans": "count",
}

_BOUND_SPANS = ("bounds.thm2_bound", "bounds.thm3_bound")


def metric_units() -> dict[str, str]:
    """Name -> unit of every metric `Tracer.metrics` returns."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    return units


def _ratio(distinct: int, calls: int) -> float:
    """Distinct work over attempted work; 1 (nothing repeated) when no calls were made."""
    return distinct / calls if calls else 1.0


def _svd_flops(a) -> int:
    """m * n * min(m, n) per matrix: the computed, not the measured, flop count."""
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    return int(math.prod(shape[:-2]) * m * n * min(m, n))


class _CountingStream:
    """Forwards ``write`` and counts the characters (ASCII CSV, so bytes) written."""

    def __init__(self, stream):
        self.stream = stream
        self.count = 0

    def write(self, text):
        self.count += len(text)
        return self.stream.write(text)


class Tracer:
    """Span recorder plus the patch/restore bookkeeping for one traced run."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.fft_flops = 0
        self.power_iterations = 0
        self.svd_flops = 0
        self.bytes_written = 0
        self._det_calls = 0
        self._det_points: set = set()
        self._pair_calls = 0
        self._pairs: set = set()

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _in_bound_span(self) -> bool:
        return any(self.names[i] in _BOUND_SPANS for i in self._stack)

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters, called with (args, kwargs, result) after a span closes ------

    def _count_fft(self, args, kwargs, result):
        size = args[0].grid.size
        self.fft_flops += int(5 * size * math.log2(size))

    def _count_power_iterations(self, args, kwargs, result):
        if result.method == "power_iteration":
            self.power_iterations += result.iterations

    def _note_det_point(self, args, kwargs, result):
        if not self._in_bound_span():
            return
        chain, xi = args[0], args[1]
        n = args[2] if len(args) > 2 else kwargs.get("n")
        if n is None:
            n = len(chain)
        self._det_calls += 1
        self._det_points.add((n, np.asarray(xi, dtype=float).tobytes()))

    def _note_pair(self, kind):
        def note(args, kwargs, result):
            family, ell, em = args[0], tuple(args[1]), tuple(args[2])
            self._pair_calls += 1
            self._pairs.add((kind, family.grid.hbar, family.label, frozenset((ell, em))))

        return note

    # -- install / uninstall ---------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, replacement) -> None:
        """Rebind `original` wherever a loaded fiochain module holds it by name."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "fiochain" or modname.startswith("fiochain.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "grid.hbar_fourier": self._count_fft,
            "grid.hbar_inverse_fourier": self._count_fft,
            "bounds.operator_norm": self._count_power_iterations,
            "dynamics.jacobian_chain": self._note_det_point,
            "cotlar.star_norm": self._note_pair("star_norm"),
            "cotlar.prod_norm": self._note_pair("prod_norm"),
        }
        for name, (modname, attr) in FUNCTIONS.items():
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            fn = self._counting_write_rows(original) if name == "cli.write_rows" else original
            self._patch_everywhere(original, self._wrap(name, fn, hooks.get(name)))
        for name, (modname, clsname, attr) in METHODS.items():
            cls = getattr(sys.modules.get(modname), clsname, None)
            method = vars(cls).get(attr) if cls is not None else None
            if method is None:
                self.missing.append(name)
                continue
            if name == "fio.assemble":
                wrapped = self._assemble_wrapper(method)
            else:
                wrapped = self._wrap(name, method, hooks.get(name))
            self._set(cls, attr, wrapped)
        for attr in KERNEL_ENTRIES:
            fn = getattr(np.linalg, attr, None)
            if fn is not None:
                self._set(np.linalg, attr, self._kernel_wrapper(attr, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _counting_write_rows(self, fn):
        tracer = self

        @functools.wraps(fn)
        def write_rows(rows, schema, stream):
            counting = _CountingStream(stream)
            try:
                return fn(rows, schema, counting)
            finally:
                tracer.bytes_written += counting.count

        return write_rows

    def _assemble_wrapper(self, method):
        """Span only the `_matrix` calls that find the instance cache empty."""
        traced = self._wrap("fio.assemble", method)

        @functools.wraps(method)
        def _matrix(op, *args, **kwargs):
            if getattr(op, "_phase_matrix", None) is None:
                return traced(op, *args, **kwargs)
            return method(op, *args, **kwargs)

        return _matrix

    def _kernel_wrapper(self, attr, fn):
        tracer = self
        traced = self._wrap(KERNEL_SPAN, fn)

        @functools.wraps(fn)
        def kernel(a, *args, **kwargs):
            if attr == "norm":
                ord_ = args[0] if args else kwargs.get("ord")
                if ord_ != 2 or getattr(a, "ndim", 0) != 2:
                    return fn(a, *args, **kwargs)
            tracer.svd_flops += _svd_flops(a)
            return traced(a, *args, **kwargs)

        return kernel

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: calls and self time per span name, plus counters."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_ns = dict.fromkeys(SPAN_NAMES, 0)
        for name, own in zip(self.names, self_times_ns(self.starts, self.ends, self.parents)):
            calls[name] += 1
            self_ns[name] += own
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        out["grid.fft_flops_computed"] = self.fft_flops
        out["bounds.power_iterations"] = self.power_iterations
        out["bounds.det_sup_unique_ratio"] = _ratio(len(self._det_points), self._det_calls)
        out["cotlar.pair_unique_ratio"] = _ratio(len(self._pairs), self._pair_calls)
        out["linalg.svd.flops_computed"] = self.svd_flops
        out["cli.write_rows.bytes"] = self.bytes_written
        out["trace.spans"] = len(self.names)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,run_id\n")
            for i, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                fh.write(f"{i},{name},{start},{end},{parent},{self.run_id}\n")


def self_times_ns(starts, ends, parents) -> list[int]:
    """Duration of each span minus the part of its interval its child spans cover.

    Children are the spans whose parent index points at the span; overlapping
    children are merged and clipped to the parent interval before subtracting.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out
