#!/usr/bin/env python3
"""End-to-end reconstruction experiment.

Starting from nothing but the curve data, re-derive the order-9 operator from
the chi expansions, re-derive the order-12 commutant family from the
commutation equation, rediscover the algebraic relation, and diff everything
against the catalogued tables.  Artifacts are written next to this script's
working directory.
"""

import argparse
import time

from bcpair import (DiffOp, XLAURENT_RING, XLaurent, bc_poly, chi_series_triple,
                    derive_L1_coeffs, find_bc_relation, make_l1, make_l2,
                    solve_commuting)
from bcpair.cli import print_op, write_op_file


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=16, help="series truncation")
    ap.add_argument("--outdir", default=".", help="artifact directory")
    args = ap.parse_args()

    t0 = time.time()
    print("expanding the chi data ...")
    chis = chi_series_triple(args.order)

    print("re-deriving the order-9 operator from the reduction conditions ...")
    coeffs = derive_L1_coeffs(*chis)
    derived = DiffOp(coeffs + [XLaurent.zero(), XLaurent.one()], XLAURENT_RING)
    assert derived == make_l1(), "re-derived operator differs from the catalog"
    write_op_file(f"{args.outdir}/l1_derived.txt", derived,
                  "order-9 operator, re-derived")
    print(f"  ok ({time.time() - t0:.1f}s): matches the catalogued table")

    t1 = time.time()
    print("solving the order-12 commutation equation ...")
    sol = solve_commuting(make_l1(), 12)
    print(f"  affine dimension {sol.dimension}; "
          f"contains catalogued operator: {sol.contains(make_l2())} "
          f"({time.time() - t1:.1f}s)")
    write_op_file(f"{args.outdir}/l2_derived.txt", sol.particular,
                  "order-12 commuting operator, particular solution")

    t2 = time.time()
    print("rediscovering the algebraic relation ...")
    q = find_bc_relation(make_l1(), make_l2(), 36)
    assert q == bc_poly()
    print(f"  {q}  ({time.time() - t2:.1f}s)")
    with open(f"{args.outdir}/relation_derived.txt", "w") as fh:
        fh.write(f"# minimal algebraic relation\n{q}\n")

    print(f"total {time.time() - t0:.1f}s; artifacts in {args.outdir}/")


if __name__ == "__main__":
    main()
