"""Centralizer orders, class sizes, central classes, and class squaring."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from uqchar import conjclasses
from uqchar.conjclasses import (
    a_partition_poly,
    central_class,
    centralizer_order,
    class_square,
    class_table,
    group_order,
)
from uqchar.multipartition import MultiPartition, enumerate_multipartitions
from uqchar.torus import PHI, OrbitLabel, TorusContext, one_orbit


def mp(*pairs):
    return MultiPartition.make(PHI, list(pairs))


def test_a_partition_poly():
    x = Fraction(-3)
    assert a_partition_poly((), x) == 1
    assert a_partition_poly((1,), x) == -4          # -3 * (1 + 1/3)
    assert a_partition_poly((1, 1), x) == 96        # 81 * (4/3) * (8/9)
    assert a_partition_poly((2,), x) == 12          # 9 * (4/3)
    assert a_partition_poly((1,), Fraction(9)) == 8
    with pytest.raises(ValueError):
        a_partition_poly((1,), Fraction(0))


def test_group_orders():
    assert group_order(TorusContext(2, 2)) == 18
    assert group_order(TorusContext(3, 2)) == 96
    assert group_order(TorusContext(3, 3)) == 24192
    assert group_order(TorusContext(2, 3)) == 648
    assert group_order(TorusContext(5, 2)) == 5 * 6 * 24


def class_sizes(ctx):
    return {row.label: row.size for row in class_table(ctx)}


def test_centralizer_examples_q3():
    ctx = TorusContext(3, 2)
    sizes = class_sizes(ctx)
    central = mp((OrbitLabel(1, 0), (1, 1)))
    assert centralizer_order(ctx, central) == 96
    assert sizes[central] == 1
    two_singletons = mp((OrbitLabel(1, 0), (1,)), (OrbitLabel(1, 1), (1,)))
    assert centralizer_order(ctx, two_singletons) == 16
    assert sizes[two_singletons] == 6
    level2 = mp((OrbitLabel(2, 1), (1,)))
    assert centralizer_order(ctx, level2) == 8
    assert sizes[level2] == 12
    unipotent = mp((OrbitLabel(1, 0), (2,)))
    assert centralizer_order(ctx, unipotent) == 12
    assert sizes[unipotent] == 8


def test_classes_only_on_phi_side():
    ctx = TorusContext(3, 2)
    theta_mp = MultiPartition.make("theta", [(OrbitLabel(1, 0), (1, 1))])
    with pytest.raises(ValueError):
        centralizer_order(ctx, theta_mp)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (3, 3), (5, 2)])
def test_class_sum_identity(q, n):
    ctx = TorusContext(q, n)
    table = class_table(ctx)
    assert all(row.size >= 1 and row.centralizer >= 1 for row in table)
    assert sum(row.size for row in table) == group_order(ctx)


def test_class_count_q3_n2():
    assert len(class_table(TorusContext(3, 2))) == 16


def test_class_table_is_built_once_per_degree():
    ctx = TorusContext(3, 2)
    assert class_table(ctx) is class_table(ctx)
    assert class_table(ctx) is class_table(TorusContext(3, 2))


def test_central_classes():
    ctx = TorusContext(3, 2)
    sizes = class_sizes(ctx)
    for alpha in range(4):
        cls = central_class(ctx, alpha)
        assert cls.size == 2
        assert sizes[cls] == 1
        assert centralizer_order(ctx, cls) == 96


def test_class_square_examples():
    ctx = TorusContext(3, 2)
    # central alpha I squares to alpha^2 I
    assert class_square(ctx, central_class(ctx, 1)) == central_class(ctx, 2)
    assert class_square(ctx, central_class(ctx, 2)) == central_class(ctx, 0)
    # unipotent class is fixed (eigenvalue 1, Jordan type preserved)
    uni = mp((OrbitLabel(1, 0), (2,)))
    assert class_square(ctx, uni) == uni
    # {g} (1) + {-g} (1) squares to the central class of g^2
    pair = mp((OrbitLabel(1, 1), (1,)), (OrbitLabel(1, 3), (1,)))
    assert class_square(ctx, pair) == mp((OrbitLabel(1, 2), (1, 1)))
    # the regular semisimple T_2 class squares to the central class of -g:
    # alpha of order 8 has alpha^2 of order 4 with both eigenvalues equal
    lvl2 = mp((OrbitLabel(2, 1), (1,)))
    assert class_square(ctx, lvl2) == mp((OrbitLabel(1, 3), (1, 1)))


@pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (5, 2), (2, 3), (4, 2)])
def test_class_square_total_size_preserved(q, n):
    ctx = TorusContext(q, n)
    labels = enumerate_multipartitions(ctx, n, PHI)
    for mu in labels:
        sq = class_square(ctx, mu)
        assert sq.size == mu.size
        assert sq in labels


def test_class_square_even_q_splits_unipotent_blocks():
    # in characteristic two (1 + N)^2 = 1 + N^2: a block of size 3 becomes 2 + 1
    ctx = TorusContext(2, 3)
    uni = mp((one_orbit(ctx, PHI), (3,)))
    assert class_square(ctx, uni) == mp((one_orbit(ctx, PHI), (2, 1)))


# -- checks that survive python -O: each is fed a broken input ------------


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(1)])
def test_centralizer_order_rejects_a_value_that_is_not_a_positive_integer(
        monkeypatch, bad):
    # one orbit of size 1: the order is -a(-q), so 1/2 is not integral and 1
    # makes it negative
    monkeypatch.setattr(conjclasses, "a_partition_poly", lambda parts, x: bad)
    ctx = TorusContext(3, 1)
    with pytest.raises(ValueError, match="not a positive integer"):
        centralizer_order(ctx, mp((one_orbit(ctx, PHI), (1,))))


def test_class_table_rejects_a_centralizer_that_does_not_divide(monkeypatch):
    # __wrapped__: the patched result must not stay in class_table's cache
    monkeypatch.setattr(conjclasses, "centralizer_order", lambda ctx, mu: 7)
    ctx = TorusContext(3, 2)  # |G| = 96
    with pytest.raises(ValueError, match="does not divide"):
        class_table.__wrapped__(ctx)


def test_class_square_rejects_a_square_orbit_that_does_not_divide(monkeypatch):
    monkeypatch.setattr(conjclasses, "frobenius_orbit",
                        lambda ctx, d, e: OrbitLabel(3, 0))
    ctx = TorusContext(3, 2)
    with pytest.raises(ValueError, match="has size 3"):
        class_square(ctx, mp((OrbitLabel(2, 1), (1,))))


def test_class_square_rejects_a_square_of_another_size(monkeypatch):
    # a label constructor that loses the last orbit
    monkeypatch.setattr(conjclasses, "MultiPartition", SimpleNamespace(
        make=lambda side, pairs: MultiPartition.make(side, list(pairs)[:-1])))
    ctx = TorusContext(3, 2)
    mu = mp((OrbitLabel(1, 0), (1,)), (OrbitLabel(1, 1), (1,)))
    with pytest.raises(ValueError, match="of size 1"):
        class_square(ctx, mu)
