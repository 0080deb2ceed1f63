"""Tabulate the real-character census over a grid of (q, n).

For even n = 2m and odd q the counts close up: q^(m-1) symplectic rows,
q^m orthogonal rows, q^m + q^(m-1) real semisimple rows in total.  The
grid prints the counted values next to the closed forms so the pattern
is visible at a glance.
"""

import argparse
import sys

from uqchar.characters import census_semisimple
from uqchar.torus import TorusContext


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=int, nargs="+", default=[2, 3, 5, 7])
    ap.add_argument("--n", type=int, nargs="+", default=[2, 4])
    args = ap.parse_args()

    header = ("q", "n", "semisimple", "real", "orthogonal",
              "symplectic", "q^m", "q^(m-1)")
    rows = [header]
    for q in args.q:
        for n in args.n:
            out = census_semisimple(TorusContext(q, n))
            m, rem = divmod(n, 2)
            closed = (str(q**m), str(q ** (m - 1))) if not rem else ("-", "-")
            rows.append((str(q), str(n), str(out["semisimple"]),
                         str(out["real_total"]), str(out["orthogonal"]),
                         str(out["symplectic"])) + closed)

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))


if __name__ == "__main__":
    try:
        main()
    except ValueError as exc:  # a refusal is one line, as in the CLI
        sys.exit(f"error: {exc}")
