"""End-to-end runs of the command-line interface.

Repeated invocations must be byte-identical, since downstream tooling diffs
the output.
"""

import ast
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from uqchar import (
    characters,
    cli,
    conjclasses,
    cyclotomic,
    gf,
    multipartition,
    partitions,
    selfdual,
    symfunc,
    torus,
)
from uqchar.characters import degree, indicator, indicator_route
from uqchar.cli import main
from uqchar.conjclasses import central_class, class_square, class_table
from uqchar.multipartition import enumerate_multipartitions
from uqchar.torus import PHI, THETA, TorusContext

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_census_u4_f9(capsys):
    code, out, err = run(capsys, ["census", "--q", "3", "--n", "4"])
    assert code == 0 and not err
    data = json.loads(out)
    assert data["symplectic"] == 3
    assert data["orthogonal"] == 9
    assert data["real_total"] == 12
    assert data["q"] == 3 and data["n"] == 4


def test_census_tsv(capsys):
    code, out, err = run(capsys, ["census", "--q", "3", "--n", "2",
                                  "--format", "tsv"])
    assert code == 0
    rows = dict(line.split("\t") for line in out.splitlines())
    assert rows["symplectic"] == "1"
    assert rows["orthogonal"] == "3"


def test_selfdual_constant_minus_one(capsys):
    code, out, err = run(capsys, ["selfdual", "--q", "3", "--n", "2",
                                  "--constant", "-1"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["polynomials"] == ["x^2 + 2"]


def test_selfdual_tsv(capsys):
    code, out, err = run(capsys, ["selfdual", "--q", "3", "--n", "2",
                                  "--constant", "any", "--format", "tsv"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert "x^2 + 2" in lines


def test_verify_exit_zero(capsys):
    code, out, err = run(capsys, ["verify", "--q", "3", "--max-n", "2"])
    assert code == 0, out + err
    assert out
    for line in out.splitlines():
        assert line.startswith("ok: ")


def test_verify_fails_on_a_corrupted_table(capsys, monkeypatch):
    real_char_table = cli.char_table

    def corrupted(ctx, **kw):
        table = real_char_table(ctx, **kw)
        if table.n != 2:
            return table
        first = (table.values[0][0] + cyclotomic.one(table.modulus),) \
            + table.values[0][1:]
        return table._replace(values=(first,) + table.values[1:])

    monkeypatch.setattr(cli, "char_table", corrupted)
    code, out, err = run(capsys, ["verify", "--q", "3", "--max-n", "2"])
    assert code == 1
    assert "FAIL: n=2: row orthogonality over all pairs" in out.splitlines()
    assert "ok: n=1: row orthogonality over all pairs" in out.splitlines()


def test_verify_fails_on_a_non_integral_value(capsys, monkeypatch):
    # character values are cyclotomic integers; 1/2 in a cell where the table
    # holds 0 must fail the check, not be rounded back to 0
    real_char_table = cli.char_table

    def halved(ctx, **kw):
        table = real_char_table(ctx, **kw)
        if table.n != 2:
            return table
        i, j = next((i, j) for i, row in enumerate(table.values)
                    for j, v in enumerate(row) if v.is_zero())
        row = list(table.values[i])
        row[j] = cyclotomic.from_terms(table.modulus, [(0, 1)], 2)
        values = table.values[:i] + (tuple(row),) + table.values[i + 1:]
        return table._replace(values=values)

    monkeypatch.setattr(cli, "char_table", halved)
    code, out, err = run(capsys, ["verify", "--q", "3", "--max-n", "2"])
    assert code == 1
    assert "FAIL: n=2: row orthogonality over all pairs" in out.splitlines()
    assert "ok: n=1: row orthogonality over all pairs" in out.splitlines()


def test_verify_fails_on_a_row_over_a_denominator(capsys, monkeypatch):
    # the trivial row with each 1 replaced by 1/2 keeps its numerators, and
    # so every orthogonality sum: only the integrality check can fail it
    real_char_table = cli.char_table

    def halved(ctx, **kw):
        table = real_char_table(ctx, **kw)
        if table.n != 2:
            return table
        one = cyclotomic.one(table.modulus)
        half = cyclotomic.from_terms(table.modulus, [(0, 1)], 2)
        assert half.coeffs == one.coeffs and half.den == 2
        i = table.values.index((one,) * len(table.classes))
        values = table.values[:i] + ((half,) * len(table.classes),) \
            + table.values[i + 1:]
        return table._replace(values=values)

    monkeypatch.setattr(cli, "char_table", halved)
    code, out, err = run(capsys, ["verify", "--q", "3", "--max-n", "2"])
    assert code == 1
    assert "FAIL: n=2: row orthogonality over all pairs" in out.splitlines()
    assert "ok: n=1: row orthogonality over all pairs" in out.splitlines()


@pytest.mark.parametrize("name,broken,line", [
    ("char_to_polynomial", lambda ctx, lam: (1,),
     "realization is a bijection onto self-dual polynomials"),
    ("brute_force_self_dual", lambda F, n: (),
     "self-dual enumeration matches brute force"),
], ids=["realization", "brute-force"])
def test_verify_fails_when_a_self_dual_check_breaks(capsys, monkeypatch, name,
                                                    broken, line):
    monkeypatch.setattr(cli, name, broken)
    code, out, err = run(capsys, ["verify", "--q", "3", "--max-n", "2"])
    assert code == 1
    assert f"FAIL: n=2: {line}" in out.splitlines()


def test_verify_computes_each_centralizer_order_once(capsys, monkeypatch):
    # U(1), U(2), U(3) over F_9 have 4 + 16 + 56 classes; the class table of
    # each degree is built once, for verify and every brute-force label
    conjclasses.class_table.cache_clear()
    characters._square_classes.cache_clear()
    real_centralizer_order = conjclasses.centralizer_order
    calls = []

    def counted(ctx, mu):
        calls.append(mu)
        return real_centralizer_order(ctx, mu)

    monkeypatch.setattr(conjclasses, "centralizer_order", counted)
    code, out, err = run(
        capsys, ["verify", "--q", "3", "--max-n", "3", "--max-cells", "100000"])
    assert code == 0, out + err
    assert len(calls) == 76


def test_verify_runs_brute_force_once_per_label(capsys, monkeypatch):
    # brute force checks every label once; a label that no other route
    # covers is not compared with itself
    real_fs_bruteforce = cli.fs_bruteforce
    calls = []

    def counted(ctx, lam):
        calls.append((ctx.n, lam))
        return real_fs_bruteforce(ctx, lam)

    monkeypatch.setattr(cli, "fs_bruteforce", counted)
    code, out, err = run(
        capsys, ["verify", "--q", "3", "--max-n", "3", "--max-cells", "100000"])
    assert code == 0, out + err
    assert "ok: n=3: indicator routes agree with brute force" in out.splitlines()
    labels = [(n, lam) for n in (1, 2, 3)
              for lam in enumerate_multipartitions(TorusContext(3, n), n, THETA)]
    assert len(calls) == len(labels) and set(calls) == set(labels)


def test_verify_even_q(capsys):
    code, out, err = run(capsys, ["verify", "--q", "2", "--max-n", "3"])
    assert code == 0, out + err
    assert all(line.startswith("ok: ") for line in out.splitlines())
    assert "ok: n=3: indicator routes agree with brute force" in out.splitlines()


def test_verify_reports_skipped_tables(capsys):
    code, out, err = run(capsys, ["verify", "--q", "3", "--max-n", "2",
                                  "--max-cells", "10"])
    assert code == 0, out + err
    skips = [line for line in out.splitlines() if line.startswith("skip: ")]
    assert skips == [
        "skip: n=1: row orthogonality and indicator routes (cells 16 > 10)",
        "skip: n=2: row orthogonality and indicator routes (cells 256 > 10)"]


def test_degrees_byte_identical_repeat(capsys):
    runs = []
    for _ in range(3):
        code, out, err = run(capsys, ["degrees", "--q", "3", "--n", "2"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1] == runs[2]
    data = json.loads(runs[0])
    degs = sorted(e["degree"] for e in data["characters"])
    assert degs == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4]


def test_degrees_family_filter(capsys):
    code, out, err = run(capsys, ["degrees", "--q", "3", "--n", "2",
                                  "--family", "unipotent"])
    assert code == 0
    data = json.loads(out)
    assert len(data["characters"]) == 2
    assert all(e["unipotent"] for e in data["characters"])


def test_chartable_json(capsys):
    code, out, err = run(capsys, ["chartable", "--q", "3", "--n", "1"])
    assert code == 0
    data = json.loads(out)
    assert len(data["characters"]) == 4
    assert len(data["classes"]) == 4
    assert data["zeta_modulus"] == 4


@pytest.mark.parametrize("argv,sha256", [
    (["--q", "2", "--n", "4"],
     "706c4e964fe2ea87c3bba1f66cd9671f1bfff6dd36af14dc71e247376ad4f85b"),
    (["--q", "3", "--n", "3", "--format", "tsv"],
     "5e8156d9b443a732f67894d086f21ab6a0556f64c157a1b443300f07ba753904"),
    (["--q", "9", "--n", "2", "--max-cells", "100000"],
     "d163ed929e8ff6f4544cad5d604f61c7f2c2e1e4d13431af775411a94788bf37"),
    (["--q", "3", "--n", "2", "--approx"],
     "9cfb6866265726a06031dd00f87b496afc1864c44eb38f031c7e4d168390a1cb"),
    (["--q", "5", "--n", "2", "--approx", "--format", "tsv"],
     "26863303d893ac525755ba266eb8869cd40771df17da88890cd5254e02e83f1f"),
    (["--q", "4", "--n", "3", "--approx", "--max-cells", "100000"],
     "0a833a1c4594433608dc5c25507f90a5cc103d801a3700bee0afde06eced83ab"),
    (["--q", "5", "--n", "3", "--max-cells", "100000"],
     "81d0a088435e43c52f4ac06d5be2cc59f34410849c4a741183a4454a770578d0"),
    (["--q", "3", "--n", "4", "--max-cells", "100000"],
     "dbd969c22b044763e2b99d3f78d82979f4ad07e59415e40f0223d6ca2b8306f7"),
], ids=["2-4", "3-3-tsv", "9-2", "3-2-approx", "5-2-approx-tsv", "4-3-approx",
        "5-3", "3-4"])
def test_chartable_bytes_are_pinned(capsys, argv, sha256):
    # recorded from the dense power-basis implementations of char_row and
    # of the values; --approx floats must not depend on how a value stores
    # its terms.  5-3 and 3-4 (moduli 504 and 560, whose unit groups need
    # four generators) were recorded from the implementation that expanded
    # every row through the characteristic map
    code, out, err = run(capsys, ["chartable", *argv])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_fs_bytes_are_pinned(capsys):
    # the brute-force route sums power-basis numerators; recorded from the
    # implementation that held every coefficient as a Fraction
    code, out, err = run(capsys, ["fs", "--q", "3", "--n", "4"])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "1ed3937f549f5f7ec44f40bfc0797893977ae50e6f04044b545efb7bfeb56f7a"


@pytest.mark.parametrize("argv,sha256", [
    (["--q", "4", "--n", "4"],
     "79f66092ee5b0616b4e3214f9a1fe2743cd39264ce4297a35a0f26d9284ba3e9"),
    (["--q", "8", "--n", "3", "--format", "tsv"],
     "c2d7a5d6e39a51fcc087402946e42fd593adb568b4d5ae842611c804fa299950"),
    (["--q", "9", "--n", "4", "--constant", "-1"],
     "5c1324f98b60599a49ec3c46fcd515ec5b2a79bef6a38a6d76f2838b9f8a6d6d"),
], ids=["4-4", "8-3-tsv", "9-4-minus"])
def test_selfdual_bytes_over_extension_fields_are_pinned(capsys, argv, sha256):
    # an extension field's elements, and so its modulus and the printed
    # coefficients, follow gf's counter order; recorded before the field
    # elements and monic polynomials shared one counter
    code, out, err = run(capsys, ["selfdual", *argv])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())


@pytest.mark.parametrize("case", sorted(REFERENCE))
def test_benchmark_cases_match_their_reference(capsys, case):
    # each benchmark case in process: stdout size, sha256 and exit code as
    # perfbench/reference.json records them
    code, out, err = run(capsys, case.split())
    data = out.encode()
    expect = REFERENCE[case]
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == \
        (expect["exit"], expect["bytes"], expect["sha256"]), err


def test_an_inexact_coefficient_exits_one_with_one_error_line(capsys, monkeypatch):
    # a float that reaches the cyclotomic layer is refused, not rounded into
    # a table
    real_transform = symfunc._transform_embedded

    def floating(ctx, k, phi):
        return tuple((f, r, tuple((x, float(c)) for x, c in val))
                     for f, r, val in real_transform(ctx, k, phi))

    monkeypatch.setattr(symfunc, "_transform_embedded", floating)
    # every cache a row is built through: a float sum equals and hashes like
    # its int twin, so one left in _shared would stand in for later sums
    caches = (symfunc.char_row, symfunc._row_sums, symfunc._reduced,
              symfunc._shared)
    for fn in caches:
        fn.cache_clear()
    try:
        code, out, err = run(capsys, ["chartable", "--q", "2", "--n", "2"])
    finally:
        for fn in caches:
            fn.cache_clear()
    assert code == 1 and not out
    assert err.splitlines() == [
        "error: inexact value of type float; need int"]


def test_a_missing_irreducible_exits_one_with_one_error_line(capsys, monkeypatch):
    # GF(4) needs an irreducible quadratic over F_2; with none found, the
    # command fails with a diagnostic, not a traceback
    monkeypatch.setattr(gf, "is_irreducible", lambda F, h: False)
    gf.GF.cache_clear()
    gf.ext_field.cache_clear()
    try:
        code, out, err = run(capsys, ["selfdual", "--q", "4", "--n", "2"])
    finally:
        gf.GF.cache_clear()
        gf.ext_field.cache_clear()
    assert code == 1 and not out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("argv", [
    ["verify", "--q", "4", "--max-n", "4", "--max-cells", "10000000"],
    ["chartable", "--q", "4", "--n", "4", "--max-cells", "10000000"],
    ["fs", "--q", "3", "--n", "5", "--max-cells", "100000000"],
])
def test_an_oversized_field_is_refused_before_any_row(capsys, monkeypatch, argv):
    # (4, 4) passes the raised cell bound but needs Q(zeta_3315), phi 1536 >
    # cyclotomic.MAX_DEGREE; verify refuses it before it runs n = 1..3.
    # fs at (3, 5) has labels routed to brute force, whose field
    # Q(zeta_34160) it refuses before it computes any indicator
    field = {"4": "3315 too large (phi = 1536)",
             "3": "34160 too large (phi = 11520)"}[argv[2]]
    real_char_row = symfunc.char_row
    calls = []

    def counted(ctx, lam):
        calls.append((ctx, lam))
        return real_char_row(ctx, lam)

    monkeypatch.setattr(symfunc, "char_row", counted)
    monkeypatch.setattr(characters, "char_row", counted)
    indicators = []
    real_indicator = characters.indicator

    def counting(ctx, lam, route):
        indicators.append(lam)
        return real_indicator(ctx, lam, route)

    monkeypatch.setattr(cli, "indicator", counting)
    code, out, err = run(capsys, argv)
    assert code == 1 and not out
    assert err.splitlines() == [f"error: cyclotomic modulus {field}"]
    assert calls == [] and indicators == []


def test_fs_without_a_brute_force_label_needs_no_field(capsys):
    # every label at (4, 4) has a closed-form route, so Q(zeta_3315) is
    # never needed
    code, out, err = run(capsys, ["fs", "--q", "4", "--n", "4",
                                  "--max-cells", "100000000"])
    assert code == 0 and not err
    routes = {e["route"] for e in json.loads(out)["indicators"]}
    assert "brute-force" not in routes


def test_the_field_bound_spares_a_table_verify_skips(capsys):
    # with the default cell bound the (4, 4) table is skipped, so its field
    # is never needed
    code, out, err = run(capsys, ["verify", "--q", "4", "--max-n", "4"])
    assert code == 0, out + err
    assert out.splitlines()[-1].startswith("skip: n=4: ")


def test_chartable_refusal(capsys):
    code, out, err = run(capsys, ["chartable", "--q", "3", "--n", "2",
                                  "--max-cells", "10"])
    assert code == 1
    assert "error:" in err


def test_chartable_approx(capsys):
    code, out, err = run(capsys, ["chartable", "--q", "3", "--n", "1",
                                  "--approx"])
    assert code == 0
    data = json.loads(out)
    some_row = next(iter(data["values"].values()))
    assert all("j" in v for v in some_row.values())


def test_fs_u2_f9(capsys):
    code, out, err = run(capsys, ["fs", "--q", "3", "--n", "2"])
    assert code == 0
    data = json.loads(out)
    eps = [e["indicator"] for e in data["indicators"]]
    assert sorted(eps) == [-1] + [0] * 10 + [1] * 5
    routes = {e["route"] for e in data["indicators"]}
    assert routes == {"non-real", "closed-form"}


def test_fs_reaches_every_route(capsys):
    code, out, err = run(capsys, ["fs", "--q", "3", "--n", "3",
                                  "--format", "tsv"])
    assert code == 0 and not err
    routes = [line.split("\t")[2] for line in out.splitlines()[1:]]
    counts = {r: routes.count(r) for r in set(routes)}
    assert counts == {"non-real": 44, "closed-form": 10, "two-core": 1,
                      "brute-force": 1}


@pytest.mark.parametrize("q,n,count", [
    (3, 2, 8), (3, 3, 128), (5, 2, 22), (2, 4, 316), (4, 3, 196)])
def test_indicator_sum_counts_square_roots_of_one(q, n, count):
    # Frobenius-Schur: sum_chi eps(chi) chi(1) = #{g : g^2 = 1}
    ctx = TorusContext(q, n)
    eps_deg = sum(
        indicator(ctx, lam, indicator_route(ctx, lam)) * degree(ctx, lam)
        for lam in enumerate_multipartitions(ctx, n, THETA))
    identity = central_class(ctx, 0)
    squares_to_one = sum(
        c.size for c in class_table(ctx) if class_square(ctx, c.label) == identity)
    assert eps_deg == squares_to_one == count


def test_fs_refusal_when_brute_needed_and_table_large(capsys):
    # q=3, n=3 has real rows outside the closed-form families; with a tiny
    # cell bound the command must refuse instead of grinding
    code, out, err = run(capsys, ["fs", "--q", "3", "--n", "3",
                                  "--max-cells", "5"])
    assert code == 1
    assert "error:" in err


def test_fs_prices_brute_force_without_enumerating_classes(capsys, monkeypatch):
    # the one brute-force label at (3, 3) costs a row over the 56 classes;
    # the classes are counted, and no class label is built to count them
    sides = []
    real = multipartition.multipartitions_from_units

    def recorded(side, *args):
        sides.append(side)
        return real(side, *args)

    multipartition.enumerate_multipartitions.cache_clear()
    monkeypatch.setattr(multipartition, "multipartitions_from_units", recorded)
    code, out, err = run(capsys, ["fs", "--q", "3", "--n", "3",
                                  "--max-cells", "5"])
    assert code == 1 and not out
    assert err == "error: indicator run would need 56 table cells (bound 5)\n"
    assert PHI not in sides


@pytest.mark.parametrize("command", ["degrees", "fs"])
def test_running_out_of_memory_is_one_error_line(capsys, monkeypatch, command):
    # the orbit scan at q = 1000003, n = 2 asks for a 10^12-byte bytearray;
    # the failed allocation is raised here, whatever the host would allow
    def exhausted(ctx, d):
        raise MemoryError

    monkeypatch.setattr(torus, "exact_orbits", exhausted)
    code, out, err = run(capsys, [command, "--q", "1000003", "--n", "2"])
    assert code == 1 and not out
    assert err == "error: out of memory\n"


EDGE_INPUTS = [
    ["--q", "1", "--n", "2"], ["--q", "6", "--n", "2"],
    ["--q", "3", "--n", "0"], ["--q", "3", "--n", "-1"]]


@pytest.mark.parametrize("argv", [
    [command] + (
        [a.replace("--n", "--max-n") for a in args] if command == "verify"
        else args)
    for command in ("census", "degrees", "chartable", "fs", "selfdual", "verify")
    for args in EDGE_INPUTS
] + [["chartable", "--q", "1000003", "--n", "1"],
     ["chartable", "--q", "101", "--n", "3"]], ids=" ".join)
def test_bad_input_ends_without_a_traceback(argv):
    # a refusal or a usage error, each with a diagnostic, never a traceback;
    # the two tables are refused from their label counts, at once
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-m", "uqchar.cli", *argv],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode in (1, 2) and not run.stdout
    assert run.stderr and "Traceback" not in run.stderr


def test_usage_error_exit_two(capsys):
    for argv in (["census", "--n", "4"],
                 ["degrees", "--q", "3", "--n", "2", "--jobs", "2"],
                 ["census", "--q", "3", "--n", "2", "--approx"],
                 ["selfdual", "--q", "3", "--n", "2", "--max-cells", "5"],
                 ["chartable", "--q", "3", "--n", "2", "--max-cells", "-1"],
                 ["fs", "--q", "3", "--n", "2", "--max-cells", "-1"],
                 ["verify", "--q", "3", "--max-n", "2", "--max-cells", "-1"],
                 ["verify", "--q", "3", "--max-n", "0"],
                 ["verify", "--q", "3", "--max-n", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_unknown_command_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--q", "3"])
    assert exc.value.code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "census.json"
    code, out, err = run(capsys, ["census", "--q", "3", "--n", "2",
                                  "--out", str(target)])
    assert code == 0 and not out
    data = json.loads(target.read_text())
    assert data["symplectic"] == 1


def test_out_into_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, ["census", "--q", "3", "--n", "2",
                                  "--out", str(target)])
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_an_unwritable_out_is_named_as_given(tmp_path, capsys):
    # the document goes to a temporary file beside FILE; the one error line
    # names FILE, the path the user gave
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, ["census", "--q", "3", "--n", "2",
                                  "--out", str(target)])
    assert code == 1 and not out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0] == f"error: cannot write {target}: No such file or directory"


def test_out_write_failure_keeps_the_old_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "census.json"
    target.write_text("old\n")

    def open_failing(*args, **kwargs):
        # a file whose write gets half the text to disk, then fails
        fh = open(*args, **kwargs)
        real_write = fh.write

        def write(text):
            real_write(text[: len(text) // 2])
            fh.flush()
            raise OSError(28, "No space left on device")

        fh.write = write
        return fh

    monkeypatch.setattr(cli, "open", open_failing, raising=False)
    code, out, err = run(capsys, ["census", "--q", "3", "--n", "2",
                                  "--out", str(target)])
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err == f"error: cannot write {target}: No space left on device\n"
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["census.json"]


def test_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    target = tmp_path / "census.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, out, err = run(capsys, ["census", "--q", "3", "--n", "2",
                                  "--out", str(link)])
    assert code == 0 and not out
    assert link.is_symlink() and link.resolve() == target
    assert json.loads(target.read_text())["symplectic"] == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["census.json", "link.json"]


def test_out_into_a_fifo_writes_to_its_reader(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # a reader opened first lets the writer open without blocking
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, out, err = run(capsys, ["census", "--q", "3", "--n", "2",
                                      "--out", str(fifo)])
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert code == 0 and not out, err
    assert json.loads(got)["symplectic"] == 1
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def whole_text(command, q, n, tsv):
    """What the CLI prints for a listing, built whole as records and rows
    and encoded by one _json or _tsv call: the reference that the batched
    writer must match."""
    ctx = TorusContext(q, n)
    if command in ("degrees", "fs"):
        if command == "degrees":
            name = "characters"
            header = ("label", "degree", "real", "semisimple", "regular", "unipotent")
            records = [
                {"label": lam.to_key(), "degree": degree(ctx, lam),
                 "real": characters.is_real(ctx, lam),
                 "semisimple": characters.is_semisimple(lam),
                 "regular": characters.is_regular(lam),
                 "unipotent": characters.is_unipotent(lam)}
                for lam in characters.family_labels(ctx, "all")]
        else:
            name, header = "indicators", ("label", "indicator", "route")
            records = [
                {"label": lam.to_key(), "indicator": indicator(ctx, lam, route),
                 "route": route}
                for lam in characters.family_labels(ctx, "all")
                for route in [indicator_route(ctx, lam)]]
        records.sort(key=lambda r: r["label"])
        if tsv:
            return cli._tsv([header] + [
                [int(r[k]) if isinstance(r[k], bool) else r[k] for k in header]
                for r in records])
        return cli._json({"q": q, "n": n, "family": "all", name: records})
    if command == "chartable":
        table = symfunc.char_table(ctx)
        if tsv:
            return cli._tsv(
                [("label",) + tuple(mu.to_key() for mu in table.classes)]
                + [(lam.to_key(),) + tuple(map(cyclotomic.to_text, row))
                   for lam, row in zip(table.chars, table.values)])
        return cli._json(table.to_json(cyclotomic.to_text))
    F = gf.GF(q)
    rendered = [gf.poly_to_str(F, h) for h in selfdual.enumerate_self_dual(F, n)]
    if tsv:
        return cli._tsv([(s,) for s in rendered])
    return cli._json({"q": q, "n": n, "constant": "any", "count": len(rendered),
                      "polynomials": rendered})


@pytest.mark.parametrize("batch", [1, 2, 7, None], ids=lambda b: f"batch-{b or 'default'}")
@pytest.mark.parametrize("command,q,n", [
    ("degrees", 3, 4), ("fs", 3, 3), ("chartable", 3, 3), ("selfdual", 3, 4)])
@pytest.mark.parametrize("tsv", [False, True], ids=["json", "tsv"])
def test_listings_match_their_whole_document(capsys, monkeypatch, batch,
                                             command, q, n, tsv):
    # batches of 1, 2 and 7 items, and the default: the chunks add up to the
    # document encoded whole, byte for byte
    if batch is not None:
        monkeypatch.setattr(cli, "BATCH", batch)
    argv = [command, "--q", str(q), "--n", str(n)] + ["--format", "tsv"] * tsv
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out == whole_text(command, q, n, tsv)


@pytest.mark.parametrize("batch", [1, 2, 7, None], ids=lambda b: f"batch-{b or 'default'}")
@pytest.mark.parametrize("doc,name", [
    ({"a": 1, "x": [], "z": 2}, "x"),
    ({"x": {}}, "x"),
    ({"q": 3, "x": ["b", "a", "c"]}, "x"),
    ({"w": None, "v": {"c": {"k": 1, "j": 2}, "a": {"k": 3}, "b": {}}}, "v"),
], ids=["empty-list", "empty-dict", "list", "dict"])
def test_json_chunks_add_up_to_the_whole_document(monkeypatch, batch, doc, name):
    # a list keeps its order; a dict's keys are sorted at every level, as
    # sort_keys sorts them; an empty entry keeps its brackets
    if batch is not None:
        monkeypatch.setattr(cli, "BATCH", batch)
    assert "".join(cli._json_chunks(doc, name)) == cli._json(doc)


@pytest.mark.parametrize("tsv", [False, True], ids=["json", "tsv"])
def test_an_empty_listing_keeps_its_brackets(capsys, monkeypatch, tsv):
    monkeypatch.setattr(cli, "enumerate_self_dual", lambda F, n, want: [])
    code, out, err = run(capsys, ["selfdual", "--q", "3", "--n", "2"]
                         + ["--format", "tsv"] * tsv)
    assert code == 0 and err == ""
    assert out == ("" if tsv else cli._json(
        {"q": 3, "n": 2, "constant": "any", "count": 0, "polynomials": []}))


class ChunkRecorder(io.StringIO):
    """A stdout that keeps every string written to it."""

    def __init__(self):
        super().__init__()
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)


def test_listings_are_written_in_chunks(monkeypatch):
    # the 774056 bytes of degrees (3, 7) never exist as one string: joining
    # the text back together before writing it makes one chunk of all of it
    stdout = ChunkRecorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["degrees", "--q", "3", "--n", "7"]) == 0
    text = "".join(stdout.chunks)
    assert hashlib.sha256(text.encode()).hexdigest() == REFERENCE[
        "degrees --q 3 --n 7"]["sha256"]
    assert max(map(len, stdout.chunks)) < len(text) / 4


def test_a_failure_on_the_last_label_prints_nothing(capsys, monkeypatch):
    # every value is computed before the first chunk is written
    labels = multipartition.label_count(TorusContext(3, 5))
    calls = []

    def failing(ctx, lam):
        calls.append(lam)
        if len(calls) == labels:
            raise ValueError("no degree for the last label")
        return degree(ctx, lam)

    monkeypatch.setattr(cli, "degree", failing)
    code, out, err = run(capsys, ["degrees", "--q", "3", "--n", "5"])
    assert (code, out, err) == (1, "", "error: no degree for the last label\n")
    assert len(calls) == labels


def test_out_failing_on_the_third_chunk_keeps_the_old_file(tmp_path, capsys,
                                                          monkeypatch):
    target = tmp_path / "degrees.json"
    target.write_text("old\n")
    writes = []

    def open_failing(*args, **kwargs):
        # two chunks reach the temporary file, the third write fails
        fh = open(*args, **kwargs)
        real_write = fh.write

        def write(text):
            writes.append(text)
            if len(writes) == 3:
                raise OSError(28, "No space left on device")
            return real_write(text)

        fh.write = write
        return fh

    monkeypatch.setattr(cli, "open", open_failing, raising=False)
    code, out, err = run(capsys, ["degrees", "--q", "3", "--n", "4",
                                  "--out", str(target)])
    assert len(writes) == 3
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {target}: No space left on device\n"
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["degrees.json"]


@pytest.mark.parametrize("argv", [
    ["census", "--q", "3", "--n", "4"],
    ["verify", "--q", "3", "--max-n", "2"],
    ["chartable", "--q", "3", "--n", "2"],
    ["fs", "--q", "3", "--n", "3"],
    # every label through is_real, at an even q
    ["degrees", "--q", "4", "--n", "3"],
    # Q(zeta_560) through the Moebius product, and brute-force indicators
    ["fs", "--q", "3", "--n", "4"],
    # listings of several batches
    ["degrees", "--q", "3", "--n", "5"],
    ["chartable", "--q", "4", "--n", "3", "--max-cells", "100000"],
])
def test_same_output_under_python_O(argv):
    # python -O strips assert statements; the checks that decide the output
    # must not depend on them
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "uqchar.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120)
        for flags in ([], ["-O"])]
    assert runs[0].returncode == runs[1].returncode == 0, runs[1].stderr
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout


def test_the_cli_imports_no_dataclasses():
    # dataclasses pulls in inspect; every CLI process would pay for it.  -S
    # keeps site-packages hooks from importing it on their own
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-S", "-c",
         "import uqchar.cli, sys; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_chartable_works_once_per_distinct_value(capsys, monkeypatch):
    # at (4, 3) the 12100 cells hold 181 distinct values.  The 110 rows take
    # sigma_k of the group-ring sums of 28 expanded rows and meet 258
    # distinct (sum, denominator) pairs: each is reduced once, no value goes
    # through galois, and the text is rendered once per value.  from_terms
    # runs once more, for the zero of the empty cells; a first run fills the
    # transform caches, whose zero tests call it too
    argv = ["chartable", "--q", "4", "--n", "3", "--max-cells", "100000"]
    run(capsys, argv)
    for fn in (symfunc.char_row, symfunc.galois_orbits, symfunc._row_sums,
               symfunc._reduced):
        fn.cache_clear()
    calls = {"from_terms": 0, "galois": 0, "to_text": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cyclotomic, name, counted(name, getattr(cyclotomic, name)))
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE[
        "chartable --q 4 --n 3 --max-cells 100000"]["sha256"]
    assert calls == {"from_terms": 258 + 1, "galois": 0, "to_text": 181}
    assert symfunc._reduced.cache_info().misses == 258
    assert symfunc._row_sums.cache_info().misses == 28


def test_degrees_work_once_per_distinct_entry(capsys, monkeypatch):
    # the 5816 labels at (3, 7) hold 15284 (orbit, partition) entries, but
    # only 706 distinct entries, 57 distinct (level, partition) pairs and 44
    # distinct partitions: the hooks run once per pair, a partition is
    # checked once and an entry's key text is written once
    multipartition.enumerate_multipartitions.cache_clear()
    multipartition._entry_key.cache_clear()
    characters._entry_factors.cache_clear()
    partitions._checked_partition.cache_clear()
    calls = {"hooks": 0}

    def counted_hooks(parts):
        calls["hooks"] += 1
        return partitions.hooks(parts)

    monkeypatch.setattr(characters, "hooks", counted_hooks)
    code, out, err = run(capsys, ["degrees", "--q", "3", "--n", "7"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE[
        "degrees --q 3 --n 7"]["sha256"]
    assert calls["hooks"] == characters._entry_factors.cache_info().misses == 57
    assert partitions._checked_partition.cache_info().misses == 44
    assert multipartition._entry_key.cache_info().misses == 706


def test_fs_tests_each_label_for_reality_once(capsys, monkeypatch):
    # indicator applies the route that indicator_route found: the 36
    # closed-form labels among the 972 are not tested for reality again
    calls = {"is_real": 0}
    is_real = characters.is_real

    def counted_is_real(ctx, lam):
        calls["is_real"] += 1
        return is_real(ctx, lam)

    monkeypatch.setattr(characters, "is_real", counted_is_real)
    code, out, err = run(capsys, ["fs", "--q", "3", "--n", "6", "--family", "semisimple"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE[
        "fs --q 3 --n 6 --family semisimple"]["sha256"]
    assert calls["is_real"] == 972


@pytest.mark.parametrize("argv,sha256", [
    (["degrees", "--q", "3", "--n", "7", "--format", "tsv"],
     "24db24ae5274a1ba52bd1a1633326496a102c287c6c82541afa4861fc025f9fa"),
    (["degrees", "--q", "4", "--n", "4", "--family", "semisimple"],
     "91c376b07ccea94107a9bda2bec0260b5c0da9a566be513c05141417279525be"),
    (["fs", "--q", "5", "--n", "4", "--family", "semisimple"],
     "eeecedd6aba57c84d9a3b5a58c8255b367874b9d5add4b3c4e10400fa8e431d1"),
    (["degrees", "--q", "3", "--n", "7", "--family", "regular"],
     "3cd027765cdf3f7dcc0cb908f800c9657b3cfc5b9d8ad61d8c25fc52c473fe00"),
    (["degrees", "--q", "4", "--n", "4", "--family", "unipotent",
      "--format", "tsv"],
     "8d7e66957b2d64569fd2cf6c603afdd7ba34f540129f63795e66b3cf7af3bccf"),
    (["fs", "--q", "3", "--n", "5", "--family", "regular"],
     "91d20e1a58ffc7002cf24e7f036173ffaa92cd9a3dadb845479b8eb84012710f"),
], ids=["degrees-3-7-tsv", "degrees-4-4-semisimple", "fs-5-4-semisimple",
        "degrees-3-7-regular", "degrees-4-4-unipotent-tsv", "fs-3-5-regular"])
def test_label_lists_are_pinned(capsys, argv, sha256):
    # the first three recorded from the implementation that computed every
    # hook product per label and filtered the semisimple family out of every
    # label; the last three from the one that filtered the regular and
    # unipotent families out of every label
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_a_family_is_generated_without_enumerating_every_label(capsys, monkeypatch):
    # the 15 unipotent labels at (3, 7) are the partitions of 7 on the
    # trivial orbit, not a filter over all 5816 labels
    calls = []

    def counted(*args):
        calls.append(args)
        return enumerate_multipartitions(*args)

    monkeypatch.setattr(characters, "enumerate_multipartitions", counted)
    code, out, err = run(
        capsys, ["degrees", "--q", "3", "--n", "7", "--family", "unipotent"])
    assert code == 0 and err == ""
    assert len(json.loads(out)["characters"]) == 15
    assert calls == []


def test_no_assert_statement_in_the_library_or_the_scripts():
    # python -O strips assert statements, so no check in the program may be
    # one; each raises an exception of its own instead
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert paths
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)]
    assert found == []


def test_byte_identical_repeat(capsys):
    a = run(capsys, ["chartable", "--q", "3", "--n", "2"])
    b = run(capsys, ["chartable", "--q", "3", "--n", "2"])
    assert a == b
    assert a[0] == 0
