#!/usr/bin/env python3
"""Measured chain norm against the analytic bounds as the chain grows.

Runs the 1-d contraction chain at one hbar for n = 1..n_max, prints measured
norm, trivial bound, and the dispersive bound per row, then fits the decay
rate of the measured norm over the rows where the dispersive bound has
overtaken half the trivial bound.  For step contraction rate lam*tau the
fitted slope should sit near -lam*tau/2.

Example:
  python3 scripts/decay_rate_study.py
  python3 scripts/decay_rate_study.py --hbar 0.01 --n-max 26
"""

from __future__ import annotations

import argparse

from fiochain.bounds import decay_rate_fit, measure_chain_norms, thm2_bound, trivial_bound
from fiochain.scenarios import build_scenario, make_operators


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--hbar", type=float, default=0.01)
    ap.add_argument("--n-max", type=int, default=26)
    ap.add_argument(
        "--method",
        default="dense_svd",
        choices=["auto", "dense_svd", "power_iteration"],
        help="how the measured norm is taken; the trivial bound's step norms are always exact",
    )
    args = ap.parse_args()

    spec = build_scenario("isotropic_contraction", {"hbar": args.hbar})
    ns = list(range(1, args.n_max + 1))
    ops = make_operators(spec, args.n_max)
    estimates = measure_chain_norms(ops, ns, method=args.method)

    gated_ns, gated_vals = [], []
    print(f"{'n':>3}  {'measured':>12}  {'trivial':>12}  {'dispersive':>12}  gated")
    for n in ns:
        meas = estimates[n].value
        triv = trivial_bound(ops[:n]).value
        t2 = thm2_bound(spec.chain(n), args.hbar, spec.omega2_tilde)
        gated = t2 < 0.5 * triv
        if gated:
            gated_ns.append(n)
            gated_vals.append(meas)
        print(f"{n:>3}  {meas:>12.6e}  {triv:>12.6e}  {t2:>12.6e}  {'*' if gated else ''}")

    rate = spec.params["lam"] * spec.params["tau"]
    target = -rate / 2.0
    if len(gated_ns) < 4:
        print("\nnot enough gated rows for a fit; increase n_max or lower hbar")
        return 1
    fit = decay_rate_fit(gated_ns, gated_vals)
    dev = abs(fit.slope - target) / abs(target)
    print(f"\nfitted slope over {len(gated_ns)} gated rows: {fit.slope:+.5f} (r^2 = {fit.r_squared:.4f})")
    print(f"half contraction rate: {target:+.5f}; relative deviation {dev:.2%}")
    return 0 if dev <= 0.15 else 1


if __name__ == "__main__":
    raise SystemExit(main())
