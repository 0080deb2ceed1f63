"""Command-line access to the character-theory computations.

Six subcommands: census (real semisimple indicator counts), degrees
(character degrees with family flags), chartable (the full exact table),
fs (indicators with the route used), selfdual (self-dual polynomial
enumeration), and verify (the cross-validation stack).  Output is JSON with
sorted keys or TSV with fixed column order, so identical invocations are
byte-identical.  This module parses arguments, calls the library and
prints: --family labels and indicator routes come from characters.

Every value of a listing (labels, degrees, flags, indicators, rendered
cells) is computed before its first byte is written, so a run that fails
prints nothing on stdout.  The text is then written in batches of BATCH
items of the listing's one large entry, never held whole: the chunks add up
to the text that encoding the whole document at once would give.

Exit status: 0 on success, 1 on refusals, internal check failures and an
unwritable --out (diagnostic on stderr), 2 on usage errors (argparse),
including a negative --max-cells and a --max-n below 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import chain
from operator import itemgetter

from . import cyclotomic
from .characters import (
    FAMILIES,
    census_semisimple,
    degree,
    family_labels,
    fs_bruteforce,
    indicator,
    indicator_route,
    is_real,
    is_regular,
    is_semisimple,
    is_unipotent,
)
from .conjclasses import class_table, group_order
from .gf import GF, poly_to_str
from .multipartition import label_count
from .selfdual import (
    brute_force_self_dual,
    char_to_polynomial,
    count_by_constant,
    enumerate_self_dual,
)
from .symfunc import MAX_CELLS, TableTooLarge, char_table
from .torus import TorusContext


# items of a listing encoded at a time.  A record is one label, a row of a
# table holds a cell per class: at 32 the 53948 records of degrees (3, 9)
# encode about as fast as at 64 or 128, and chartable (7, 3) peaks at 35 MB
# (37.5 MB at 64, 53 MB at 1024)
BATCH = 32


def _emit(args, chunks) -> None:
    """Write chunks, the pieces of one output, one after another to stdout
    or to --out.  Every value in them is computed before this is called, so
    a failing run writes nothing; a listing's chunks are its batches, so its
    whole text is never held."""
    if not args.out:
        sys.stdout.writelines(chunks)
        return
    # a symlink is followed; a device or FIFO is written to as it is
    path = os.path.realpath(args.out)
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
            return
        # write beside the file, then rename over it: a write that fails
        # part-way leaves an existing file as it was and no partial file
        # behind
        tmp = f"{path}.{os.getpid()}.tmp"
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # the diagnostic names the FILE given, not the temporary file
        raise OSError(f"cannot write {args.out}: {exc.strerror or exc}") from None


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _tsv(rows) -> str:
    return "".join("\t".join(str(c) for c in row) + "\n" for row in rows)


def _batches(items):
    """items in slices of BATCH, the last one shorter."""
    return (items[i:i + BATCH] for i in range(0, len(items), BATCH))


def _json_chunks(doc, name, shape=list):
    """_json(doc) in chunks: doc[name], a list or a dict, is encoded BATCH
    items at a time, each batch made JSON-ready by shape first."""
    entry = doc[name]
    if isinstance(entry, dict):
        entry, shape = sorted(entry.items()), dict  # the order of sort_keys
    empty = _json(shape([]))  # the entry's brackets: "[]\n" or "{}\n"
    head, tail = _json({**doc, name: None}).split(f'"{name}":null')
    yield f'{head}"{name}":{empty[0]}'
    sep = ""
    for batch in _batches(entry):
        yield sep + _json(shape(batch))[1:-2]
        sep = ","
    yield empty[1] + tail


def _emit_records(args, name, header, records) -> None:
    """A label listing from one tuple per label, in header order: JSON with
    the records under name, or TSV rows of the header's columns with
    booleans as 0/1.  A record's dict exists only while its batch is
    written."""
    if args.format == "tsv":
        _emit(args, chain([_tsv([header])], (
            _tsv([[int(c) if isinstance(c, bool) else c for c in r] for r in batch])
            for batch in _batches(records))))
    else:
        _emit(args, _json_chunks(
            {"q": args.q, "n": args.n, "family": args.family, name: records},
            name, lambda batch: [dict(zip(header, r)) for r in batch]))


def _approx_text(v) -> str:
    z = cyclotomic.approx(v)
    return f"{z.real:.12g}{z.imag:+.12g}j"


def cmd_census(args) -> int:
    ctx = TorusContext(args.q, args.n)
    out = census_semisimple(ctx)
    if args.format == "tsv":
        rows = [(k, out[k]) for k in sorted(out)]
        _emit(args, [_tsv(rows)])
    else:
        _emit(args, [_json(out)])
    return 0


def cmd_degrees(args) -> int:
    ctx = TorusContext(args.q, args.n)
    entries = sorted((
        (lam.to_key(), degree(ctx, lam), is_real(ctx, lam), is_semisimple(lam),
         is_regular(lam), is_unipotent(lam))
        for lam in family_labels(ctx, args.family)), key=itemgetter(0))
    _emit_records(args, "characters", (
        "label", "degree", "real", "semisimple", "regular", "unipotent"), entries)
    return 0


def cmd_chartable(args) -> int:
    ctx = TorusContext(args.q, args.n)
    table = char_table(ctx, max_cells=args.max_cells)
    # a table holds few distinct values: render each once, for this table
    render = cache(_approx_text if args.approx else cyclotomic.to_text)
    if args.format == "tsv":
        rows = [("label",) + tuple(mu.to_key() for mu in table.classes)]
        for lam, row in zip(table.chars, table.values):
            rows.append((lam.to_key(),) + tuple(map(render, row)))
        _emit(args, map(_tsv, _batches(rows)))
    else:
        _emit(args, _json_chunks(table.to_json(render), "values"))
    return 0


def cmd_fs(args) -> int:
    ctx = TorusContext(args.q, args.n)
    routed = [(lam, indicator_route(ctx, lam))
              for lam in family_labels(ctx, args.family)]
    # brute force builds character rows: refuse an oversized table or field
    brute = sum(route == "brute-force" for _, route in routed)
    if brute:
        cells = brute * label_count(ctx)
        if cells > args.max_cells:
            raise TableTooLarge(
                f"indicator run would need {cells} table cells "
                f"(bound {args.max_cells})")
        cyclotomic.check_degree(ctx.cyclo_modulus)
    entries = sorted((
        (lam.to_key(), indicator(ctx, lam, route), route)
        for lam, route in routed), key=itemgetter(0))
    _emit_records(args, "indicators", ("label", "indicator", "route"), entries)
    return 0


def cmd_selfdual(args) -> int:
    F = GF(args.q)
    want = None if args.constant == "any" else int(args.constant)
    polys = enumerate_self_dual(F, args.n, want)
    rendered = [poly_to_str(F, h) for h in polys]
    if args.format == "tsv":
        _emit(args, map(_tsv, _batches([(s,) for s in rendered])))
    else:
        _emit(args, _json_chunks({
            "q": args.q,
            "n": args.n,
            "constant": args.constant,
            "count": len(polys),
            "polynomials": rendered,
        }, "polynomials"))
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

    def check(cond: bool, desc: str):
        lines.append(("ok" if cond else "FAIL") + f": {desc}")

    # a table built below must fit cyclotomic.MAX_DEGREE: refuse before any
    # work; there are as many classes as labels
    contexts = [TorusContext(q, n) for n in range(1, args.max_n + 1)]
    for ctx in contexts:
        if label_count(ctx) ** 2 <= args.max_cells:
            cyclotomic.check_degree(ctx.cyclo_modulus)
    F = GF(q)
    for n, ctx in enumerate(contexts, 1):
        labels = family_labels(ctx, "all")
        cells = label_count(ctx) ** 2
        classes = class_table(ctx)
        check(
            sum(c.size for c in classes) == group_order(ctx),
            f"n={n}: class sizes sum to |G|")
        check(
            sum(degree(ctx, lam) ** 2 for lam in labels) == group_order(ctx),
            f"n={n}: degree squares sum to |G|")
        census = census_semisimple(ctx)
        real_ss = [lam for lam in labels if is_semisimple(lam) and is_real(ctx, lam)]
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
                brute, route = fs_bruteforce(ctx, lam), indicator_route(ctx, lam)
                if route != "brute-force":
                    good &= brute == indicator(ctx, lam, route)
            check(good, f"n={n}: indicator routes agree with brute force")
    _emit(args, ["".join(line + "\n" for line in lines)])
    return 1 if any(line.startswith("FAIL:") for line in lines) else 0


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
            p.add_argument("--max-cells", type=_cell_bound, default=MAX_CELLS,
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
    except MemoryError:  # its text is empty
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
