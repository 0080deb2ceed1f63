"""End-to-end runs of the command-line interface.

Repeated invocations must be byte-identical, since downstream tooling diffs
the output.
"""

import dataclasses
import hashlib
import json
import os
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from uqchar import characters, cli, conjclasses, cyclotomic, gf, symfunc
from uqchar.characters import degree
from uqchar.cli import main
from uqchar.conjclasses import central_class, class_square, class_table
from uqchar.multipartition import enumerate_multipartitions
from uqchar.torus import THETA, TorusContext

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
        first = (table.values[0][0] + 1,) + table.values[0][1:]
        return dataclasses.replace(table, values=(first,) + table.values[1:])

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
        row[j] = cyclotomic.from_rational(table.modulus, Fraction(1, 2))
        values = table.values[:i] + (tuple(row),) + table.values[i + 1:]
        return dataclasses.replace(table, values=values)

    monkeypatch.setattr(cli, "char_table", halved)
    code, out, err = run(capsys, ["verify", "--q", "3", "--max-n", "2"])
    assert code == 1
    assert "FAIL: n=2: row orthogonality over all pairs" in out.splitlines()
    assert "ok: n=1: row orthogonality over all pairs" in out.splitlines()


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
], ids=["2-4", "3-3-tsv", "9-2", "3-2-approx", "5-2-approx-tsv", "4-3-approx"])
def test_chartable_bytes_are_pinned(capsys, argv, sha256):
    # recorded from the dense power-basis implementations of char_row and
    # of the values; --approx floats must not depend on how a value stores
    # its terms
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


def test_an_inexact_coefficient_exits_one_with_one_error_line(capsys, monkeypatch):
    # a float that reaches the cyclotomic layer is refused, not rounded into
    # a table
    real_transform = symfunc._transform_embedded

    def floating(ctx, k, phi):
        return tuple((f, r, tuple((x, float(c)) for x, c in val))
                     for f, r, val in real_transform(ctx, k, phi))

    monkeypatch.setattr(symfunc, "_transform_embedded", floating)
    symfunc.char_row.cache_clear()
    try:
        code, out, err = run(capsys, ["chartable", "--q", "2", "--n", "2"])
    finally:
        symfunc.char_row.cache_clear()
    assert code == 1 and not out
    assert err.splitlines() == [
        "error: inexact coefficient of type float; need int or Fraction"]


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
])
def test_an_oversized_field_is_refused_before_any_row(capsys, monkeypatch, argv):
    # (4, 4) passes the raised cell bound but needs Q(zeta_3315), phi 1536 >
    # cyclotomic.MAX_DEGREE; verify refuses it before it runs n = 1..3
    real_char_row = symfunc.char_row
    calls = []

    def counted(ctx, lam):
        calls.append((ctx, lam))
        return real_char_row(ctx, lam)

    monkeypatch.setattr(symfunc, "char_row", counted)
    monkeypatch.setattr(characters, "char_row", counted)
    code, out, err = run(capsys, argv)
    assert code == 1 and not out
    assert err.splitlines() == [
        "error: cyclotomic modulus 3315 too large (phi = 1536)"]
    assert calls == []


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
        cli.INDICATOR_ROUTES[cli._route(ctx, lam)](ctx, lam) * degree(ctx, lam)
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


@pytest.mark.parametrize("argv", [
    ["census", "--q", "3", "--n", "4"],
    ["verify", "--q", "3", "--max-n", "2"],
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


def test_byte_identical_repeat(capsys):
    a = run(capsys, ["chartable", "--q", "3", "--n", "2"])
    b = run(capsys, ["chartable", "--q", "3", "--n", "2"])
    assert a == b
    assert a[0] == 0
