"""Count self-dual monic polynomials over F_q by degree and constant term.

With --list the polynomials at one (q, n) are printed, split by
constant term, which is where the q^(n/2) vs q^(n/2 - 1) split between
the two families comes from.
"""

import argparse
import sys

from uqchar.gf import GF, poly_to_str
from uqchar.selfdual import enumerate_self_dual


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=int, nargs="+", default=[2, 3, 5])
    ap.add_argument("--n", type=int, nargs="+", default=[2, 3, 4])
    ap.add_argument("--list", action="store_true",
                    help="print the polynomials for the first (q, n) pair")
    args = ap.parse_args()

    fields = [GF(q) for q in args.q]  # a bad q is refused before any output
    print(f"{'q':>3}  {'n':>3}  {'total':>6}  {'c=+1':>6}  {'c=-1':>6}")
    for q, F in zip(args.q, fields):
        for n in args.n:
            plus = enumerate_self_dual(F, n, 1)
            minus = enumerate_self_dual(F, n, -1)
            total = enumerate_self_dual(F, n)
            print(f"{q:>3}  {n:>3}  {len(total):>6}  {len(plus):>6}  "
                  f"{len(minus):>6}")

    if args.list:
        q, n, F = args.q[0], args.n[0], fields[0]
        for constant, tag in ((1, "constant +1"), (-1, "constant -1")):
            polys = enumerate_self_dual(F, n, constant)
            print(f"\nq={q} n={n} {tag}: {len(polys)}")
            for h in polys:
                print(" ", poly_to_str(F, h))


if __name__ == "__main__":
    try:
        main()
    except ValueError as exc:  # a refusal is one line, as in the CLI
        sys.exit(f"error: {exc}")
