"""End-to-end runs of the command-line interface.

Repeated invocations must be byte-identical, since downstream tooling diffs
the output.
"""

import dataclasses
import json

import pytest

from uqchar import cli
from uqchar.characters import degree
from uqchar.cli import main
from uqchar.conjclasses import central_class, class_square, class_table
from uqchar.multipartition import enumerate_multipartitions
from uqchar.torus import THETA, TorusContext


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
                 ["selfdual", "--q", "3", "--n", "2", "--max-cells", "5"]):
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


def test_byte_identical_repeat(capsys):
    a = run(capsys, ["chartable", "--q", "3", "--n", "2"])
    b = run(capsys, ["chartable", "--q", "3", "--n", "2"])
    assert a == b
    assert a[0] == 0
