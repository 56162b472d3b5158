#!/usr/bin/env python3
"""Residual scan for the deformation-parameter compatibility system.

Prints the max residual of the twelve equations over a grid of sample points
and a ladder of precisions; a genuine identity shows residuals falling with
working precision, point-independently.
"""

import argparse
from fractions import Fraction

from mpmath import nstr

from bcpair import BranchAssignment, kn_check


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=Fraction, default=Fraction(-1))
    ap.add_argument("--points", default="1,3/2,2,3,5",
                    help="comma-separated rational x values")
    ap.add_argument("--precisions", default="30,60,120,240",
                    help="comma-separated decimal precisions")
    args = ap.parse_args()

    points = [Fraction(p) for p in args.points.split(",")]
    precisions = [int(p) for p in args.precisions.split(",")]

    print(f"eps = {args.eps}; points: {', '.join(str(p) for p in points)}")
    header = f"{'digits':>8} | {'max residual':>14} | {'gamma-eq residual':>18} | branch"
    print(header)
    print("-" * len(header))
    for prec in precisions:
        rep = kn_check(points=points, eps=args.eps, precision=prec)
        nonprincipal = rep.branch != BranchAssignment()
        print(f"{prec:>8} | {nstr(rep.max_residual, 5):>14} | "
              f"{nstr(rep.max_gamma_residual, 5):>18} | "
              f"{'searched' if nonprincipal else 'all principal'}")


if __name__ == "__main__":
    main()
