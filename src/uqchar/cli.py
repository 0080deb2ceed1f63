"""Command-line access to the character-theory computations.

Six subcommands: census (real semisimple indicator counts), degrees
(character degrees with family flags), chartable (the full exact table),
fs (indicators with the route used), selfdual (self-dual polynomial
enumeration), and verify (the cross-validation stack).  Output is JSON with
sorted keys or TSV with fixed column order, so identical invocations are
byte-identical.

Exit status: 0 on success, 1 on refusals, internal check failures and an
unwritable --out (diagnostic on stderr), 2 on usage errors (argparse),
including a negative --max-cells and a --max-n below 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cyclotomic
from .characters import (
    census_semisimple,
    degree,
    fs_bruteforce,
    fs_semisimple_regular,
    fs_unipotent,
    is_real,
    is_regular,
    is_semisimple,
    is_unipotent,
    real_semisimple_labels,
)
from .conjclasses import class_table, group_order
from .gf import GF, poly_to_str
from .multipartition import enumerate_multipartitions
from .selfdual import (
    brute_force_self_dual,
    char_to_polynomial,
    count_by_constant,
    enumerate_self_dual,
)
from .symfunc import TableTooLarge, char_table
from .torus import PHI, THETA, TorusContext

# --family choice -> label predicate, shared by degrees and fs
FAMILIES = {
    "semisimple": is_semisimple,
    "regular": is_regular,
    "unipotent": is_unipotent,
    "all": lambda lam: True,
}

# indicator route -> how it computes the indicator; _route picks the route.
# Each function is looked up when called, so a rebinding of the module-level
# name (as perfbench/tracer.py does) reaches every call.
INDICATOR_ROUTES = {
    "non-real": lambda ctx, lam: 0,
    "closed-form": lambda ctx, lam: fs_semisimple_regular(ctx, lam),
    "two-core": lambda ctx, lam: fs_unipotent(ctx, lam),
    # builds a character row; callers bound the table size with --max-cells
    "brute-force": lambda ctx, lam: fs_bruteforce(ctx, lam),
}


def _route(ctx, lam) -> str:
    """The key of INDICATOR_ROUTES that computes the indicator of lam."""
    if not is_real(ctx, lam):
        return "non-real"
    if is_semisimple(lam) or is_regular(lam):
        return "closed-form"
    if is_unipotent(lam):
        return "two-core"
    return "brute-force"


def _emit(args, text: str) -> None:
    if not args.out:
        sys.stdout.write(text)
        return
    # a symlink is followed; a device or FIFO is written to as it is
    path = os.path.realpath(args.out)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    # write beside the file, then rename over it: a write that fails
    # part-way leaves an existing file as it was and no partial file behind
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _tsv(rows) -> str:
    return "".join("\t".join(str(c) for c in row) + "\n" for row in rows)


def _approx_text(v) -> str:
    z = cyclotomic.approx(v)
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _family_labels(ctx, args):
    keep = FAMILIES[args.family]
    return [lam for lam in enumerate_multipartitions(ctx, args.n, THETA)
            if keep(lam)]


def cmd_census(args) -> int:
    ctx = TorusContext(args.q, args.n)
    out = census_semisimple(ctx)
    if args.format == "tsv":
        rows = [(k, out[k]) for k in sorted(out)]
        _emit(args, _tsv(rows))
    else:
        _emit(args, _json(out))
    return 0


def cmd_degrees(args) -> int:
    ctx = TorusContext(args.q, args.n)
    entries = sorted((
        {
            "label": lam.to_key(),
            "degree": degree(ctx, lam),
            "real": is_real(ctx, lam),
            "semisimple": is_semisimple(lam),
            "regular": is_regular(lam),
            "unipotent": is_unipotent(lam),
        }
        for lam in _family_labels(ctx, args)), key=lambda e: e["label"])
    if args.format == "tsv":
        rows = [("label", "degree", "real", "semisimple", "regular", "unipotent")]
        rows += [
            (e["label"], e["degree"], int(e["real"]), int(e["semisimple"]),
             int(e["regular"]), int(e["unipotent"]))
            for e in entries]
        _emit(args, _tsv(rows))
    else:
        _emit(args, _json({
            "q": args.q, "n": args.n, "family": args.family,
            "characters": entries}))
    return 0


def cmd_chartable(args) -> int:
    ctx = TorusContext(args.q, args.n)
    table = char_table(ctx, max_cells=args.max_cells)
    render = _approx_text if args.approx else cyclotomic.to_text
    if args.format == "tsv":
        rows = [("label",) + tuple(mu.to_key() for mu in table.classes)]
        for lam, row in zip(table.chars, table.values):
            rows.append((lam.to_key(),) + tuple(map(render, row)))
        _emit(args, _tsv(rows))
    else:
        _emit(args, _json(table.to_json(render)))
    return 0


def cmd_fs(args) -> int:
    ctx = TorusContext(args.q, args.n)
    routed = [(lam, _route(ctx, lam)) for lam in _family_labels(ctx, args)]
    # the brute-force route builds character rows; refuse oversized tables
    brute = sum(route == "brute-force" for _, route in routed)
    if brute:
        cells = brute * len(enumerate_multipartitions(ctx, args.n, PHI))
        if cells > args.max_cells:
            raise TableTooLarge(
                f"indicator run would need {cells} table cells "
                f"(bound {args.max_cells})")
    entries = sorted((
        {"label": lam.to_key(),
         "indicator": INDICATOR_ROUTES[route](ctx, lam),
         "route": route}
        for lam, route in routed), key=lambda e: e["label"])
    if args.format == "tsv":
        rows = [("label", "indicator", "route")]
        rows += [(e["label"], e["indicator"], e["route"]) for e in entries]
        _emit(args, _tsv(rows))
    else:
        _emit(args, _json({
            "q": args.q, "n": args.n, "family": args.family,
            "indicators": entries}))
    return 0


def cmd_selfdual(args) -> int:
    F = GF(args.q)
    want = None if args.constant == "any" else int(args.constant)
    polys = enumerate_self_dual(F, args.n, want)
    rendered = [poly_to_str(F, h) for h in polys]
    if args.format == "tsv":
        _emit(args, _tsv([(s,) for s in rendered]))
    else:
        _emit(args, _json({
            "q": args.q,
            "n": args.n,
            "constant": args.constant,
            "count": len(polys),
            "polynomials": rendered,
        }))
    return 0


def _rows_orthogonal(ctx, table, classes) -> bool:
    """sum_K |K| chi_j(K) conj(chi_i(K)) = |G| [i == j] for every pair of rows."""
    if any(v.den != 1 for row in table.values for v in row):
        return False  # character values are cyclotomic integers
    rows = [[v.coeffs for v in row] for row in table.values]
    size = {c.label: c.size for c in classes}
    order = group_order(ctx)
    for i, row in enumerate(rows):
        # conjugate (z^e -> z^-e) and weight row i once, then pair it with
        # the rows j >= i in integers, reducing each pair's sum once
        weighted = [[(-e, c * size[mu]) for e, c in terms]
                    for terms, mu in zip(row, table.classes)]
        for j in range(i, len(rows)):
            acc = cyclotomic.sum_of_products(table.modulus, zip(rows[j], weighted))
            if acc != (order if i == j else 0):
                return False
    return True


def cmd_verify(args) -> int:
    q = args.q
    lines = []
    ok = True

    def check(cond: bool, desc: str):
        nonlocal ok
        lines.append(("ok" if cond else "FAIL") + f": {desc}")
        ok = ok and cond

    # a table built below must fit cyclotomic.MAX_DEGREE: refuse before any
    # work; there are as many classes as labels
    per_n = []
    for n in range(1, args.max_n + 1):
        ctx = TorusContext(q, n)
        labels = enumerate_multipartitions(ctx, n, THETA)
        if len(labels) ** 2 <= args.max_cells:
            cyclotomic.check_degree(ctx.cyclo_modulus)
        per_n.append((n, ctx, labels))
    F = GF(q)
    for n, ctx, labels in per_n:
        classes = class_table(ctx)
        check(
            sum(c.size for c in classes) == group_order(ctx),
            f"n={n}: class sizes sum to |G|")
        check(
            sum(degree(ctx, lam) ** 2 for lam in labels) == group_order(ctx),
            f"n={n}: degree squares sum to |G|")
        census = census_semisimple(ctx)
        real_ss = real_semisimple_labels(ctx)
        sd_all = enumerate_self_dual(F, n)
        check(
            len(real_ss) == len(sd_all),
            f"n={n}: real semisimple labels match self-dual count")
        check(
            sd_all == brute_force_self_dual(F, n),
            f"n={n}: self-dual enumeration matches brute force")
        if q % 2:
            check(
                census["symplectic"] == count_by_constant(F, n, -1)
                if n % 2 == 0 else census["symplectic"] == 0,
                f"n={n}: symplectic count matches constant -1 polynomials")
        image = {char_to_polynomial(ctx, lam) for lam in real_ss}
        check(
            image == set(sd_all),
            f"n={n}: realization is a bijection onto self-dual polynomials")
        cells = len(labels) * len(classes)
        if cells > args.max_cells:
            lines.append(
                f"skip: n={n}: row orthogonality and indicator routes "
                f"(cells {cells} > {args.max_cells})")
        else:
            table = char_table(ctx, max_cells=args.max_cells)
            check(_rows_orthogonal(ctx, table, classes),
                  f"n={n}: row orthogonality over all pairs")
            # brute force runs on every label, for its own checks; a label
            # routed to brute force has no other route to compare with
            good = True
            for lam in labels:
                brute, route = fs_bruteforce(ctx, lam), _route(ctx, lam)
                if route != "brute-force":
                    good &= brute == INDICATOR_ROUTES[route](ctx, lam)
            check(good, f"n={n}: indicator routes agree with brute force")
    text = "".join(line + "\n" for line in lines)
    _emit(args, text)
    return 0 if ok else 1


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _cell_bound(text: str) -> int:
    return _int_at_least(text, 0)


def _max_degree(text: str) -> int:
    return _int_at_least(text, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqchar",
        description="exact character theory of the finite unitary groups")
    sub = parser.add_subparsers(dest="command", required=True)

    # main builds the parser on every call, so each run= is the function
    # the module holds under that name at that moment, not at import
    def command(name, run, summary, need_n=True, max_cells=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--q", type=int, required=True, help="prime power")
        if need_n:
            p.add_argument("--n", type=int, required=True, help="degree")
        p.add_argument("--format", choices=["json", "tsv"], default="json")
        p.add_argument("--out", metavar="FILE")
        if max_cells:
            p.add_argument("--max-cells", type=_cell_bound, default=4096,
                           help="refuse table-building work beyond this size")
        return p

    command("census", cmd_census, "real semisimple indicator counts")
    p = command("degrees", cmd_degrees, "character degrees")
    p.add_argument("--family", default="all", choices=FAMILIES)
    p = command("chartable", cmd_chartable, "full exact character table",
                max_cells=True)
    p.add_argument("--approx", action="store_true",
                   help="render values as floating-point complex numbers")
    p = command("fs", cmd_fs, "indicators with the route used", max_cells=True)
    p.add_argument("--family", default="all", choices=FAMILIES)
    p = command("selfdual", cmd_selfdual, "self-dual polynomial enumeration")
    p.add_argument("--constant", default="any", choices=["-1", "1", "any"])
    p = command("verify", cmd_verify, "cross-validation stack", need_n=False,
                max_cells=True)
    p.add_argument("--max-n", type=_max_degree, default=2)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:  # TableTooLarge is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
