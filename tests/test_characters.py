"""Degrees, central characters and indicator routes, triangulated.

The degree formula is checked against the identity column of the exactly
computed table for U(2) over F_9, and against the sum-of-squares identity
sum deg^2 = |G| for several (q, n).  Indicators are checked three ways on
all sixteen characters of U(2, F_9): brute-force averaging over squared
classes, the closed form on the semisimple and regular families, and the
two-core rule on unipotent labels.
"""

from types import SimpleNamespace

import pytest

from uqchar import characters, cyclotomic
from uqchar.characters import (
    RouteDisagreement,
    census_semisimple,
    central_value,
    degree,
    fs_bruteforce,
    fs_semisimple_regular,
    fs_unipotent,
    is_real,
    is_regular,
    is_semisimple,
    is_unipotent,
    omega_exponent,
    real_semisimple_labels,
)
from uqchar.conjclasses import central_class, group_order
from uqchar.multipartition import MultiPartition, enumerate_multipartitions
from uqchar.nt import prime_power
from uqchar.symfunc import char_table
from uqchar.torus import (
    PHI,
    THETA,
    TorusContext,
    frobenius_orbit,
    one_orbit,
    sigma_orbit,
)


def _label(ctx, side, *pairs):
    resolved = []
    for (level, exponent), parts in pairs:
        resolved.append((frobenius_orbit(ctx, level, exponent), parts))
    return MultiPartition.make(side, resolved)


# -- degrees ---------------------------------------------------------------


def test_degree_sum_of_squares_is_group_order():
    for q, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2)]:
        ctx = TorusContext(q, n)
        total = sum(
            degree(ctx, lam) ** 2
            for lam in enumerate_multipartitions(ctx, n, THETA))
        assert total == group_order(ctx), (q, n)


def test_degree_sum_of_squares_u4():
    ctx = TorusContext(3, 4)
    total = sum(
        degree(ctx, lam) ** 2
        for lam in enumerate_multipartitions(ctx, 4, THETA))
    assert total == group_order(ctx)


def test_degree_matches_table_identity_column():
    ctx = TorusContext(3, 2)
    table = char_table(ctx)
    ident = _label(ctx, PHI, ((1, 0), (1, 1)))
    for lam in table.chars:
        assert table.value(lam, ident) == degree(ctx, lam)


def test_steinberg_degree_is_q_power():
    for q in (2, 3, 5):
        for n in range(1, 6):
            ctx = TorusContext(q, n)
            st = MultiPartition.make(THETA, [(one_orbit(ctx, THETA), (n,))])
            assert degree(ctx, st) == q ** (n * (n - 1) // 2)


def test_trivial_degree_is_one():
    for q in (2, 3, 4, 5):
        for n in range(1, 6):
            ctx = TorusContext(q, n)
            triv = MultiPartition.make(THETA, [(one_orbit(ctx, THETA), (1,) * n)])
            assert degree(ctx, triv) == 1


def test_degree_rejects_class_side():
    ctx = TorusContext(3, 2)
    mu = _label(ctx, PHI, ((1, 0), (2,)))
    with pytest.raises(ValueError):
        degree(ctx, mu)


def test_degree_rejects_a_hook_product_that_does_not_divide(monkeypatch):
    ctx = TorusContext(3, 1)
    triv = _label(ctx, THETA, ((1, 0), (1,)))
    monkeypatch.setattr(characters, "mp_weighted_hooks", lambda lam: (2, 2))
    with pytest.raises(ValueError, match="hook product does not divide"):
        degree(ctx, triv)


def test_degree_rejects_a_degree_that_is_not_positive():
    # TorusContext refuses q = -3; with it the hook quotient of the
    # Steinberg label of U(2) comes out as -3
    ctx = TorusContext(3, 2)
    st = _label(ctx, THETA, ((1, 0), (2,)))
    with pytest.raises(ValueError, match="is not positive"):
        degree(SimpleNamespace(q=-3), st)


# -- predicates ------------------------------------------------------------


@pytest.mark.parametrize("q,max_n", [
    (2, 6), (3, 5), (4, 3), (5, 3), (7, 2), (8, 2), (9, 2)])
def test_degree_is_prime_to_p_exactly_on_semisimple_labels(q, max_n):
    # the paper counts the characters of degree prime to p; they are the
    # semisimple labels, so census's "semisimple" counts them too
    p = prime_power(q)[0]
    for n in range(1, max_n + 1):
        ctx = TorusContext(q, n)
        for lam in enumerate_multipartitions(ctx, n, THETA):
            assert (degree(ctx, lam) % p != 0) == is_semisimple(lam), (q, lam)


def test_family_predicates():
    ctx = TorusContext(3, 2)
    triv = _label(ctx, THETA, ((1, 0), (1, 1)))
    st = _label(ctx, THETA, ((1, 0), (2,)))
    pair = MultiPartition.make(THETA, [
        (one_orbit(ctx, THETA), (1,)),
        (sigma_orbit(ctx), (1,)),
    ])
    lvl2 = _label(ctx, THETA, ((2, 1), (1,)))
    assert is_unipotent(triv) and is_unipotent(st)
    assert not is_unipotent(pair) and not is_unipotent(lvl2)
    assert is_semisimple(triv) and is_semisimple(pair) and is_semisimple(lvl2)
    assert not is_semisimple(st)
    assert is_regular(st) and is_regular(pair) and is_regular(lvl2)
    assert not is_regular(triv)


def test_reality_count_u2_f9():
    ctx = TorusContext(3, 2)
    labels = enumerate_multipartitions(ctx, 2, THETA)
    real = [lam for lam in labels if is_real(ctx, lam)]
    assert len(real) == 6
    real_ss = [lam for lam in real if is_semisimple(lam)]
    assert len(real_ss) == 4  # q^m + q^(m-1) at q = 3, m = 1


# -- central characters ----------------------------------------------------


def test_omega_examples():
    ctx = TorusContext(3, 2)
    # determinant-composed character theta_1: omega = 2 (z has determinant z^2)
    det1 = _label(ctx, THETA, ((1, 1), (1, 1)))
    assert omega_exponent(ctx, det1) == 2
    assert omega_exponent(ctx, _label(ctx, THETA, ((1, 0), (1, 1)))) == 0
    assert omega_exponent(ctx, _label(ctx, THETA, ((1, 0), (2,)))) == 0
    # the level-2 orbit {1,5} has exponent sum 6, descending to 3
    assert omega_exponent(ctx, _label(ctx, THETA, ((2, 1), (1,)))) == 3


def test_central_values_match_table():
    ctx = TorusContext(3, 2)
    table = char_table(ctx)
    for lam in table.chars:
        for alpha in range(4):
            mu = central_class(ctx, alpha)
            assert cyclotomic.same_value(
                table.value(lam, mu), central_value(ctx, lam, alpha))


def test_omega_additive_in_central_twist():
    # twisting a character by the determinant character shifts omega by 2c
    ctx = TorusContext(3, 2)
    for c in range(4):
        lam = _label(ctx, THETA, ((1, c), (1, 1)))
        assert omega_exponent(ctx, lam) == (2 * c) % 4


# -- indicators ------------------------------------------------------------


def test_fs_bruteforce_u2_f9_all_rows():
    ctx = TorusContext(3, 2)
    eps = {
        lam: fs_bruteforce(ctx, lam)
        for lam in enumerate_multipartitions(ctx, 2, THETA)}
    assert sorted(eps.values()) == [-1] + [0] * 10 + [1] * 5
    # the single symplectic row is the pair on the trivial and order-two
    # characters
    symp = MultiPartition.make(THETA, [
        (one_orbit(ctx, THETA), (1,)),
        (sigma_orbit(ctx), (1,)),
    ])
    assert eps[symp] == -1


def test_fs_triangulation_u2_f9():
    ctx = TorusContext(3, 2)
    for lam in enumerate_multipartitions(ctx, 2, THETA):
        brute = fs_bruteforce(ctx, lam)
        if not is_real(ctx, lam):
            assert brute == 0
            continue
        if is_semisimple(lam) or is_regular(lam):
            assert brute == fs_semisimple_regular(ctx, lam)
        if is_unipotent(lam):
            assert brute == fs_unipotent(ctx, lam)


def test_fs_bruteforce_u1():
    for q in (3, 5):
        ctx = TorusContext(q, 1)
        m1 = q + 1
        for lam in enumerate_multipartitions(ctx, 1, THETA):
            c = lam.orbits()[0].min_exponent
            expect = 1 if c in (0, m1 // 2) else 0
            assert fs_bruteforce(ctx, lam) == expect


def test_fs_bruteforce_rejects_a_label_of_another_degree():
    ctx = TorusContext(3, 2)
    small = enumerate_multipartitions(TorusContext(3, 1), 1, THETA)[0]
    with pytest.raises(ValueError, match="of size 1 at degree 2"):
        fs_bruteforce(ctx, small)


def test_fs_bruteforce_rejects_an_irrational_average(monkeypatch):
    ctx = TorusContext(3, 1)
    triv = _label(ctx, THETA, ((1, 0), (1,)))
    real_char_row = characters.char_row

    def rotated(ctx, lam):
        # every value times a primitive fourth root of unity
        i = cyclotomic.zeta(ctx.cyclo_modulus, ctx.cyclo_modulus // 4)
        return {mu: v * i for mu, v in real_char_row(ctx, lam).items()}

    monkeypatch.setattr(characters, "char_row", rotated)
    with pytest.raises(ValueError, match="is not rational"):
        fs_bruteforce(ctx, triv)


def test_fs_bruteforce_rejects_a_value_outside_minus_one_to_one(monkeypatch):
    ctx = TorusContext(3, 1)
    triv = _label(ctx, THETA, ((1, 0), (1,)))
    real_group_order = characters.group_order
    monkeypatch.setattr(
        characters, "group_order", lambda ctx: real_group_order(ctx) // 2)
    with pytest.raises(ValueError, match="is not -1, 0 or 1"):
        fs_bruteforce(ctx, triv)


def test_fs_bruteforce_rejects_a_zero_that_disagrees_with_reality(monkeypatch):
    ctx = TorusContext(3, 1)
    triv = _label(ctx, THETA, ((1, 0), (1,)))
    real_is_real = characters.is_real
    monkeypatch.setattr(
        characters, "is_real", lambda ctx, lam: not real_is_real(ctx, lam))
    with pytest.raises(ValueError, match="label is not real"):
        fs_bruteforce(ctx, triv)


def test_fs_unipotent_examples():
    ctx = TorusContext(3, 6)
    lam = MultiPartition.make(THETA, [(one_orbit(ctx, THETA), (3, 2, 1))])
    assert fs_unipotent(ctx, lam) == -1
    for n in (3, 5, 7, 9):
        ctx_n = TorusContext(3, n)
        hook = MultiPartition.make(
            THETA, [(one_orbit(ctx_n, THETA), (n - 1, 1))])
        assert fs_unipotent(ctx_n, hook) == -1
    ctx2 = TorusContext(3, 2)
    for parts, expect in [((1, 1), 1), ((2,), 1)]:
        lam = MultiPartition.make(THETA, [(one_orbit(ctx2, THETA), parts)])
        assert fs_unipotent(ctx2, lam) == expect


def test_fs_closed_form_rejects_non_real():
    ctx = TorusContext(3, 2)
    lam = _label(ctx, THETA, ((1, 1), (1, 1)))
    assert not is_real(ctx, lam)
    with pytest.raises(ValueError):
        fs_semisimple_regular(ctx, lam)


# -- census ----------------------------------------------------------------


def test_census_u2_f9():
    out = census_semisimple(TorusContext(3, 2))
    assert out["symplectic"] == 1
    assert out["orthogonal"] == 3
    assert out["real_total"] == 4
    assert out["route_agreement"] == 4


def test_census_u4_f9():
    out = census_semisimple(TorusContext(3, 4))
    assert out["symplectic"] == 3
    assert out["orthogonal"] == 9
    assert out["real_total"] == 12
    assert out["route_agreement"] == 12


@pytest.mark.parametrize("q,n", [(3, 3), (2, 4), (4, 2)])
def test_census_route_agreement_needs_both_routes(q, n):
    # the sigma route covers even n and odd q only; elsewhere nothing is
    # cross-checked, though every label still gets its indicator
    out = census_semisimple(TorusContext(q, n))
    assert out["real_total"] > 0
    assert out["route_agreement"] == 0


def test_census_raises_when_routes_disagree(monkeypatch):
    real_sigma = characters.fs_via_sigma

    def flipped(ctx, lam):
        eps = real_sigma(ctx, lam)
        return None if eps is None else -eps

    monkeypatch.setattr(characters, "fs_via_sigma", flipped)
    with pytest.raises(RouteDisagreement):
        census_semisimple(TorusContext(3, 2))
    # odd n runs the centre route alone, so there is nothing to disagree with
    assert census_semisimple(TorusContext(3, 3))["route_agreement"] == 0


def test_census_route_agreement_compares_the_routes_itself(monkeypatch):
    # with an indicator that skips the comparison, a sigma route that always
    # disagrees must count as no agreement, not as 12 labels it covers
    centre = characters.fs_via_centre
    monkeypatch.setattr(characters, "fs_semisimple_regular", centre)
    monkeypatch.setattr(characters, "fs_via_sigma", lambda ctx, lam: -centre(ctx, lam))
    out = census_semisimple(TorusContext(3, 4))
    assert out["real_total"] == 12
    assert out["route_agreement"] == 0


def test_census_u2_f25():
    out = census_semisimple(TorusContext(5, 2))
    assert out["symplectic"] == 1
    assert out["orthogonal"] == 5
    assert out["real_total"] == 6


def test_census_odd_degree_has_no_symplectics():
    for q, n in [(3, 1), (3, 3), (5, 1)]:
        out = census_semisimple(TorusContext(q, n))
        assert out["symplectic"] == 0
        assert out["orthogonal"] == out["real_total"]


def test_census_even_q_has_no_symplectics():
    for q, n in [(2, 2), (4, 2)]:
        out = census_semisimple(TorusContext(q, n))
        assert out["symplectic"] == 0


# n stops where filtering every label would cost the suite more than about
# a quarter second; the labels at q <= 5, n <= 6 are enumerated (and
# cached) for test_multipartition's generating-function test as well
ORACLE_MAX_N = {2: 8, 3: 6, 4: 6, 5: 5, 7: 4, 8: 4, 9: 3}


@pytest.mark.parametrize("q", sorted(ORACLE_MAX_N))
def test_real_semisimple_labels_match_filtered_enumeration(q):
    # the direct generation against filtering every multipartition
    for n in range(1, ORACLE_MAX_N[q] + 1):
        ctx = TorusContext(q, n)
        semisimple = [
            lam for lam in enumerate_multipartitions(ctx, n, THETA)
            if is_semisimple(lam)]
        real = [lam for lam in semisimple if is_real(ctx, lam)]
        assert real_semisimple_labels(ctx) == real, (q, n)
        assert census_semisimple(ctx)["semisimple"] == len(semisimple), (q, n)


@pytest.mark.parametrize(
    "q,n", [(3, 10), (3, 12), (5, 8), (9, 6), (3, 16), (7, 8)])
def test_census_closed_forms(q, n):
    # U(2m) with q odd: q^(m-1) symplectic and q^m orthogonal characters
    m = n // 2
    out = census_semisimple(TorusContext(q, n))
    assert out["symplectic"] == q ** (m - 1)
    assert out["orthogonal"] == q**m
    assert out["real_total"] == out["route_agreement"] == q**m + q ** (m - 1)


def test_symplectic_labels_carry_odd_sigma_part():
    ctx = TorusContext(3, 4)
    labels = [lam for lam in real_semisimple_labels(ctx)
              if fs_semisimple_regular(ctx, lam) == -1]
    assert len(labels) == 3
    sig = sigma_orbit(ctx)
    for lam in labels:
        assert sum(lam.part_for(sig)) % 2 == 1
        assert is_semisimple(lam) and is_real(ctx, lam)
