"""Row-by-row correctness check of CLI outputs against stored reference values.

One operation is one CSV row, side files included.  A row fails when it is
missing, extra, or any of its columns misses its tolerance:

* ``measured_norm``: relative ``power_tol`` of the workload config;
* ``trivial_bound``: relative ``n * power_tol`` (a product of n step norms);
* ``reconstruction_error``: at most ``RECONSTRUCTION_LIMIT``, whatever the
  reference holds;
* the Cotlar-Stein norm columns (``FLOORED_COLUMNS``): relative
  ``FLOAT_RTOL``, or an absolute floor of ``ZERO_FLOOR`` times the largest
  magnitude in that reference column, so star norms that are rounding noise
  around zero compare as equal;
* every other float column: relative ``FLOAT_RTOL``;
* text, integer and boolean columns: exact;
* ``wall_ms``: never read (its meaning differs between norm paths).

Failures fall into two classes.  An *accuracy* failure concerns an iterative
norm estimate: ``measured_norm`` or ``trivial_bound`` below the exact
reference by more than its tolerance but by at most ``ESTIMATE_GAP_LIMIT``
relative (a valid lower bound that did not reach the accuracy its row claims),
or a ``converged`` flag that differs from the reference (power iteration
reporting that it stopped at ``power_max_iter``).  Every other failure is a
*mismatch*: a value the program should reproduce and did not, an estimate
above the exact norm or further below it than ``ESTIMATE_GAP_LIMIT``, or a
missing or extra row.  Both count as failed rows; only mismatches make a run
incorrect.

``ESTIMATE_GAP_LIMIT`` is 1e-2, five times the largest under-estimate seen on
these workloads (a ``trivial_bound`` 2.0e-3 below the product of dense step
norms at n = 6), so an estimator that stops after a few iterations or returns
a fraction of the norm makes the run incorrect.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

FLOAT_RTOL = 1e-9
ZERO_FLOOR = 1e-13
RECONSTRUCTION_LIMIT = 1e-12
ESTIMATE_GAP_LIMIT = 1e-2

KEY_COLUMNS = ("scenario", "hbar", "n", "ell", "em")
ESTIMATE_COLUMNS = {"measured_norm", "trivial_bound"}
FLOORED_COLUMNS = {"star_norm", "prod_norm", "block_norm"}
EXACT_COLUMNS = {
    "scenario",
    "hbar",
    "n",
    "ell",
    "em",
    "n_blocks",
    "n_nonzero_blocks",
    "separation",
    "converged",
    "infinite_decay",
}
IGNORED_COLUMNS = {"wall_ms"}


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    messages: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.mismatches == 0

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches += other.mismatches
        self.messages.extend(other.messages)


def read_csv(path) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [dict(zip(header, r)) for r in reader]
    return header, rows


def _float(text: str) -> float | None:
    return None if text == "" else float(text)


def _close(value: float, ref: float, rtol: float, atol: float) -> bool:
    if math.isnan(ref) or math.isinf(ref) or math.isnan(value) or math.isinf(value):
        return value == ref or (math.isnan(value) and math.isnan(ref))
    return abs(value - ref) <= max(rtol * abs(ref), atol)


def check_row(row: dict, ref: dict, header: list[str], floors: dict, power_tol: float):
    """Problems with one output row, as a list of (kind, message); kind is
    "accuracy" or "mismatch"."""
    problems = []
    for col in header:
        if col in IGNORED_COLUMNS:
            continue
        got, want = row.get(col, ""), ref[col]
        if col in EXACT_COLUMNS:
            if got != want:
                kind = "accuracy" if col == "converged" else "mismatch"
                problems.append((kind, f"{col}={got!r}, reference {want!r}"))
            continue
        try:
            value, expected = _float(got), _float(want)
        except ValueError:
            problems.append(("mismatch", f"{col}={got!r} is not a number"))
            continue
        if value is None or expected is None:
            if value is not expected:
                problems.append(("mismatch", f"{col}={got!r}, reference {want!r}"))
            continue
        if col == "reconstruction_error":
            if not value <= RECONSTRUCTION_LIMIT:
                problems.append(("mismatch", f"{col}={value:.3e} exceeds {RECONSTRUCTION_LIMIT:g}"))
            continue
        if col in ESTIMATE_COLUMNS:
            rtol = power_tol * (int(ref["n"]) if col == "trivial_bound" else 1)
            if not _close(value, expected, rtol, 0.0):
                rel = (value - expected) / expected if expected else math.inf
                gap_ok = (1.0 - ESTIMATE_GAP_LIMIT) * expected <= value < expected
                kind = "accuracy" if gap_ok else "mismatch"
                problems.append((kind, f"{col} off by {rel:+.2e} relative (tolerance {rtol:.1e})"))
            continue
        if not _close(value, expected, FLOAT_RTOL, floors.get(col, 0.0)):
            rel = (value - expected) / expected if expected else math.inf
            problems.append(("mismatch", f"{col} off by {rel:+.2e} relative"))
    return problems


def _column_floors(header: list[str], rows: list[dict]) -> dict:
    floors = {}
    for col in FLOORED_COLUMNS.intersection(header):
        mags = []
        for r in rows:
            try:
                v = _float(r[col])
            except ValueError:
                continue
            if v is not None and math.isfinite(v):
                mags.append(abs(v))
        floors[col] = ZERO_FLOOR * max(mags, default=0.0)
    return floors


def check_file(out_path, ref_path, power_tol: float) -> CheckResult:
    name = os.path.basename(ref_path)
    ref_header, ref_rows = read_csv(ref_path)
    result = CheckResult(attempted=len(ref_rows))
    if not os.path.exists(out_path):
        result.failed = result.mismatches = len(ref_rows)
        result.messages.append(f"{name}: missing output file")
        return result
    header, rows = read_csv(out_path)
    if header != ref_header:
        result.failed = result.mismatches = len(ref_rows)
        result.messages.append(f"{name}: header {header} differs from reference {ref_header}")
        return result
    keys = [c for c in KEY_COLUMNS if c in header]
    floors = _column_floors(header, ref_rows)
    got = {}
    for r in rows:
        got.setdefault(tuple(r.get(c, "") for c in keys), []).append(r)
    for ref in ref_rows:
        key = tuple(ref[c] for c in keys)
        matches = got.pop(key, [])
        if not matches:
            problems = [("mismatch", "row missing")]
        else:
            problems = check_row(matches[0], ref, header, floors, power_tol)
            if len(matches) > 1:
                problems.append(("mismatch", f"{len(matches) - 1} duplicate row(s)"))
        if problems:
            result.failed += 1
            if any(kind == "mismatch" for kind, _ in problems):
                result.mismatches += 1
            result.messages.append(f"{name} {dict(zip(keys, key))}: " + "; ".join(m for _, m in problems))
    extra = sum(len(v) for v in got.values())
    if extra:
        result.attempted += extra
        result.failed += extra
        result.mismatches += extra
        result.messages.append(f"{name}: {extra} row(s) not in the reference")
    return result


def check_outputs(out_dir, ref_dir, power_tol: float) -> CheckResult:
    """Check every reference file against the same-named file in `out_dir`."""
    total = CheckResult()
    ref_names = sorted(f for f in os.listdir(ref_dir) if f.endswith(".csv"))
    for name in ref_names:
        total.add(check_file(os.path.join(out_dir, name), os.path.join(ref_dir, name), power_tol))
    for name in sorted(set(os.listdir(out_dir)) - set(ref_names)):
        if name.endswith(".csv"):
            _, rows = read_csv(os.path.join(out_dir, name))
            total.attempted += len(rows)
            total.failed += len(rows)
            total.mismatches += len(rows)
            total.messages.append(f"{name}: output file not in the reference")
    return total
