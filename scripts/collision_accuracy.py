#!/usr/bin/env python3
"""How good is the dispersive collision picture?

Scans the detuning ratio delta/omega and reports the worst-case overlap
between the effective collision propagator and the full detuned two-atom
model at the collision time pi/lambda, over the 8 encoded inputs the
gate actually feeds into the collision.
"""

import argparse
from dataclasses import replace

from cavity_toffoli.analysis import dispersive_validation
from cavity_toffoli.model import PhysicalParams


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ratios", default="2,3,4,6,8,12,16,24,50",
                    help="comma-separated delta/omega values (>= 1)")
    args = ap.parse_args()

    ratios = tuple(float(r) for r in args.ratios.split(","))
    params = PhysicalParams.from_frequency()
    reports = dispersive_validation(params, ratios)

    print(f"{'delta/omega':>12} {'t_col (ms)':>11} {'min overlap':>12} "
          f"{'worst infidelity':>17}")
    for rep in reports:
        t_col_ms = replace(params, delta=rep.ratio * params.omega).t_collision * 1e3
        print(f"{rep.ratio:>12.1f} {t_col_ms:>11.4f} {rep.min_overlap:>12.6f} "
              f"{1 - rep.min_overlap:>17.2e}")
    print("\nthe collision slows linearly in delta/omega while the error "
          "falls quadratically: longer gates buy accuracy")


if __name__ == "__main__":
    main()
