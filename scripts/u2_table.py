"""Print the exact character table of U(2) over F_{q^2} as an aligned grid.

Rows are conjugacy classes, columns are characters, and every entry is
written exactly: integers and rationals as such, anything else as an
explicit cyclotomic combination in the field named by the header.  Class sizes sit in the margin, so the identity row
(size 1) reads off the character degrees directly.
"""

import argparse

from uqchar.conjclasses import class_table
from uqchar.cyclotomic import classify, to_text
from uqchar.symfunc import char_table
from uqchar.torus import TorusContext


def entry_text(v) -> str:
    kind, val = classify(v)
    if kind == "rational":
        return str(val)
    # drop the "Q(zeta_M): " prefix, the header already names the field
    return to_text(v).split(": ", 1)[1]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=int, default=2)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--max-cells", type=int, default=4096)
    args = ap.parse_args()

    ctx = TorusContext(args.q, args.n)
    table = char_table(ctx, max_cells=args.max_cells)
    sizes = {c.label: c.size for c in class_table(ctx)}

    print(f"U({args.n}) over F_{args.q**2}: {len(table.chars)} characters, "
          f"values in Q(zeta_{table.modulus})")
    print()

    cols = [lam.to_key() for lam in table.chars]
    body = [[entry_text(table.value(lam, mu)) for lam in table.chars]
            for mu in table.classes]
    size_col = [str(sizes[mu]) for mu in table.classes]

    # one printed row per class, transposed from the per-character storage
    grid = [["class", "size"] + cols]
    for mu, srow, brow in zip(table.classes, size_col, body):
        grid.append([mu.to_key(), srow] + brow)
    widths = [max(len(row[i]) for row in grid) for i in range(len(grid[0]))]
    for row in grid:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


if __name__ == "__main__":
    main()
