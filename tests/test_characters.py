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

from oracles import (
    ORACLE_MAX_N,
    census_by_enumeration,
    real_semisimple_labels,
    self_conjugate_orbits,
    sort_key,
)
from uqchar import characters, cyclotomic, multipartition, torus
from uqchar.characters import (
    FAMILIES,
    RouteDisagreement,
    census_semisimple,
    central_value,
    degree,
    family_labels,
    fs_bruteforce,
    fs_semisimple_regular,
    fs_via_centre,
    fs_unipotent,
    is_real,
    is_regular,
    is_semisimple,
    is_unipotent,
    omega_exponent,
)
from uqchar.conjclasses import central_class, group_order
from uqchar.multipartition import (
    MultiPartition,
    enumerate_multipartitions,
    label_count,
    mp_bar,
)
from uqchar.nt import prime_power
from uqchar.partitions import hooks
from uqchar.symfunc import char_table
from uqchar.torus import (
    PHI,
    THETA,
    OrbitLabel,
    TorusContext,
    conjugate_orbit,
    count_exact_orbits,
    frobenius_orbit,
    lift_character,
    one_orbit,
    orbit_exponents,
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
    # the entry's factors as if its hooks were (2, 2): the hook product
    # (q^2 - 1)^2 = 64 does not divide the numerator q + 1 = 4
    ctx = TorusContext(3, 1)
    triv = _label(ctx, THETA, ((1, 0), (1,)))
    monkeypatch.setattr(characters, "_entry_factors",
                        lambda q, level, parts: (1, (q**2 - 1) ** 2))
    with pytest.raises(ValueError, match="hook product does not divide"):
        degree(ctx, triv)


def _weighted_hooks(lam):
    """Oracle: the multiset of |orbit| * hook over all boxes, descending."""
    return tuple(sorted(
        (o.level * h for o, parts in lam.entries for h in hooks(parts)),
        reverse=True))


def _n_conjugate(lam):
    """Oracle: n(lam') = sum |orbit| * n(partition'), n(p') = sum C(p_i, 2)."""
    return sum(o.level * sum(a * (a - 1) for a in parts)
               for o, parts in lam.entries) // 2


def _hook_formula_degree(q, lam):
    """Oracle: q^n(lam') prod_{k<=n} (q^k - (-1)^k) / prod_h (q^h - (-1)^h)."""
    num = q ** _n_conjugate(lam)
    for k in range(1, lam.size + 1):
        num *= q**k - (-1) ** k
    den = 1
    for h in _weighted_hooks(lam):
        den *= q**h - (-1) ** h
    assert num % den == 0, lam
    return num // den


def test_hook_oracle_on_a_known_label():
    ctx = TorusContext(3, 2)
    lam = _label(ctx, THETA, ((1, 0), (2, 1)), ((2, 1), (1, 1)))
    # hooks of (2,1) are (3,1,1); of (1,1) are (2,1), weighted by orbit size 2
    assert _weighted_hooks(lam) == (4, 3, 2, 1, 1)
    # n((2,1)') = 1, n((1,1)') = n((2)) = 0
    assert _n_conjugate(lam) == 1 * 1 + 2 * 0


@pytest.mark.parametrize("q,n", [(2, 5), (3, 5), (4, 4), (5, 3), (9, 3)])
def test_degree_matches_the_spelled_out_hook_formula(q, n):
    # the per-entry factors against the hook product over the whole label,
    # on every label at degree n
    ctx = TorusContext(q, n)
    for lam in enumerate_multipartitions(ctx, n, THETA):
        assert degree(ctx, lam) == _hook_formula_degree(q, lam), lam


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


@pytest.mark.parametrize("q,n", [(2, 4), (3, 4), (4, 3), (5, 3), (9, 2)])
def test_is_real_agrees_with_the_conjugate_label(q, n):
    # the oracle relabels the whole multipartition along conjugation
    ctx = TorusContext(q, n)
    labels = enumerate_multipartitions(ctx, n, THETA)
    got = [is_real(ctx, lam) for lam in labels]
    assert got == [mp_bar(ctx, lam) == lam for lam in labels]
    assert True in got and False in got


def test_is_real_refuses_an_orbit_above_the_degree():
    ctx = TorusContext(3, 2)
    high = frobenius_orbit(TorusContext(3, 3), 3, 1)
    # the first entry is not real already; the level-3 orbit is still refused
    lam = MultiPartition.make(THETA, [(OrbitLabel(1, 1), (1,)), (high, (1,))])
    for _ in range(2):  # a cached conjugation does not swallow a refusal
        with pytest.raises(ValueError, match="level 3 is not in 1..2"):
            is_real(ctx, lam)


def test_is_real_builds_no_multipartition(monkeypatch):
    ctx = TorusContext(3, 4)
    labels = enumerate_multipartitions(ctx, 4, THETA)
    expect = [mp_bar(ctx, lam) == lam for lam in labels]

    def refuse(side, pairs):
        raise AssertionError("is_real built a MultiPartition")

    monkeypatch.setattr(MultiPartition, "make", staticmethod(refuse))
    assert [is_real(ctx, lam) for lam in labels] == expect


# -- central characters ----------------------------------------------------


def test_omega_examples():
    ctx = TorusContext(3, 2)
    # determinant-composed character theta_1: omega = 2 (z has determinant z^2)
    det1 = _label(ctx, THETA, ((1, 1), (1, 1)))
    assert omega_exponent(ctx, det1) == 2
    assert omega_exponent(ctx, _label(ctx, THETA, ((1, 0), (1, 1)))) == 0
    assert omega_exponent(ctx, _label(ctx, THETA, ((1, 0), (2,)))) == 0
    # the level-2 orbit {1,5} restricts to -1 = 3 mod 4; its exponent sum 6
    # descends to 3 as well
    assert omega_exponent(ctx, _label(ctx, THETA, ((2, 1), (1,)))) == 3


def _omega_by_orbit_sum(ctx, lam):
    """omega the long way: each orbit's exponent sum, descended to level one.

    The sum of an orbit at level d is Frobenius-fixed, hence a multiple of
    M_d / M_1, and the quotient is the level-one exponent whose
    transpose-of-norm lift gives the sum back.
    """
    m1 = ctx.modulus(1)
    total = 0
    for phi, parts in lam.entries:
        mod = ctx.modulus(phi.level)
        s = sum(orbit_exponents(ctx, phi)) % mod
        assert (-ctx.q * s) % mod == s, phi
        step = mod // m1
        assert s % step == 0, phi
        down = s // step
        assert lift_character(ctx, 1, phi.level, down) == s, phi
        total += down * sum(parts)
    return total % m1


@pytest.mark.parametrize(
    "q,n", [(2, 4), (3, 4), (4, 3), (5, 3), (8, 2), (9, 2)])
def test_omega_matches_the_orbit_sum_on_every_label(q, n):
    ctx = TorusContext(q, n)
    for lam in enumerate_multipartitions(ctx, n, THETA):
        assert omega_exponent(ctx, lam) == _omega_by_orbit_sum(ctx, lam), lam


@pytest.mark.parametrize("q,n", [(3, 12), (5, 8), (2, 12)])
def test_omega_matches_the_orbit_sum_on_real_semisimple_labels(q, n):
    ctx = TorusContext(q, n)
    for lam in real_semisimple_labels(ctx):
        assert omega_exponent(ctx, lam) == _omega_by_orbit_sum(ctx, lam), lam


def test_central_values_match_table():
    # orbits at levels 2 and 3, and even q, against the characteristic map
    for q, n in [(3, 2), (2, 3), (3, 3), (4, 3), (5, 3)]:
        ctx = TorusContext(q, n)
        table = char_table(ctx, max_cells=100000)
        for lam in table.chars:
            for alpha in range(ctx.modulus(1)):
                mu = central_class(ctx, alpha)
                assert cyclotomic.same_value(
                    table.value(lam, mu), central_value(ctx, lam, alpha)), \
                    (q, n, lam, alpha)


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
            c = lam.entries[0][0].min_exponent
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
    # with sigma moved to (1, 1), which is not self-conjugate, no unit carries
    # the sigma bit, so the sigma route reads +1 on the one symplectic label
    monkeypatch.setattr(characters, "sigma_orbit", lambda ctx: OrbitLabel(1, 1))
    with pytest.raises(RouteDisagreement, match="differ on 1 of 4$"):
        census_semisimple(TorusContext(3, 2))
    # odd n runs the centre route alone, so there is nothing to disagree with
    assert census_semisimple(TorusContext(3, 3))["route_agreement"] == 0


def test_census_route_agreement_compares_the_routes_itself(monkeypatch):
    # with sigma moved onto the self-conjugate level-2 orbit, the sigma route
    # reads the parity of that orbit's column: the census must count the
    # labels on which it differs from the centre route, not copy real_total
    # or the symplectic count
    ctx = TorusContext(5, 4)
    (moved,) = self_conjugate_orbits(ctx, 2)
    real = real_semisimple_labels(ctx)
    symplectic = sum(fs_via_centre(ctx, lam) == -1 for lam in real)
    differ = sum((fs_via_centre(ctx, lam) == -1) != sum(lam.part_for(moved)) % 2
                 for lam in real)
    assert (len(real), symplectic, differ) == (30, 5, 8)
    monkeypatch.setattr(characters, "sigma_orbit", lambda ctx: moved)
    with pytest.raises(RouteDisagreement, match="differ on 8 of 30$"):
        census_semisimple(ctx)
    # on the trivial orbit instead, the level-1 columns of an even degree
    # have even total size, so its parity is sigma's and nothing differs
    monkeypatch.setattr(characters, "sigma_orbit", lambda ctx: OrbitLabel(1, 0))
    assert census_semisimple(ctx)["route_agreement"] == 30


def test_closed_form_raises_when_routes_disagree(monkeypatch):
    real_sigma = characters.fs_via_sigma

    def flipped(ctx, lam):
        eps = real_sigma(ctx, lam)
        return None if eps is None else -eps

    monkeypatch.setattr(characters, "fs_via_sigma", flipped)
    ctx = TorusContext(3, 2)
    for lam in real_semisimple_labels(ctx):
        with pytest.raises(RouteDisagreement):
            fs_semisimple_regular(ctx, lam)
    # odd n runs the centre route alone, so there is nothing to disagree with
    ctx = TorusContext(3, 3)
    assert [fs_semisimple_regular(ctx, lam)
            for lam in real_semisimple_labels(ctx)] == [1] * 6


def test_census_builds_no_label(monkeypatch):
    # the 8748 real semisimple labels at (3, 16) are counted from their
    # units: no label is enumerated or normalized; at (3, 22) no orbit is
    # walked either, the self-conjugate ones included, except the one
    # level-1 walk that tells whether sigma is its own conjugate
    calls = {"make": 0, "from_units": 0}
    walks = []
    make = MultiPartition.make
    from_units = characters.multipartitions_from_units
    walk = torus._orbit_exponents_at

    def counted_make(side, pairs):
        calls["make"] += 1
        return make(side, pairs)

    def counted_from_units(*args):
        calls["from_units"] += 1
        return from_units(*args)

    def recorded_walk(q, m, e):
        walks.append((q, m, e))
        return walk(q, m, e)

    monkeypatch.setattr(MultiPartition, "make", staticmethod(counted_make))
    monkeypatch.setattr(characters, "multipartitions_from_units", counted_from_units)
    monkeypatch.setattr(multipartition, "multipartitions_from_units",
                        counted_from_units)
    monkeypatch.setattr(torus, "_orbit_exponents_at", recorded_walk)
    out = census_semisimple(TorusContext(3, 16))
    assert out["real_total"] == 8748
    assert calls == {"make": 0, "from_units": 0}
    conjugate_orbit.cache_clear()
    walks.clear()
    out = census_semisimple(TorusContext(3, 22))
    assert out["real_total"] == 3**11 + 3**10
    assert calls == {"make": 0, "from_units": 0}
    assert walks == [(3, 1, -sigma_orbit(TorusContext(3, 22)).min_exponent)]


def test_census_refuses_a_sigma_that_is_not_real(monkeypatch):
    # sigma is found by identity, and its omega bit is read off its label;
    # a central character that is not of order one or two is refused
    monkeypatch.setattr(characters, "omega_exponent", lambda ctx, lam: 1)
    with pytest.raises(ValueError, match=r"central character of .* is not real \(1\)"):
        census_semisimple(TorusContext(3, 2))


def test_census_refuses_unpaired_orbits(monkeypatch):
    # the orbits that are not self-conjugate come in pairs {o, o-bar}; a
    # level whose count leaves one over is refused, not halved
    monkeypatch.setattr(characters, "count_exact_orbits",
                        lambda ctx, d: count_exact_orbits(ctx, d) + (d == 1))
    with pytest.raises(ValueError, match="level 1: .* do not pair up"):
        census_semisimple(TorusContext(3, 2))


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


@pytest.mark.parametrize("q", sorted(ORACLE_MAX_N))
def test_real_semisimple_labels_match_filtered_enumeration(q):
    # the pair-unit oracle against filtering every multipartition, and the
    # counted census against the census made one filtered label at a time
    for n in range(1, ORACLE_MAX_N[q] + 1):
        ctx = TorusContext(q, n)
        semisimple = [
            lam for lam in enumerate_multipartitions(ctx, n, THETA)
            if is_semisimple(lam)]
        real = [lam for lam in semisimple if is_real(ctx, lam)]
        assert real_semisimple_labels(ctx) == tuple(real), (q, n)
        census = census_semisimple(ctx)
        assert census["semisimple"] == len(semisimple), (q, n)
        assert census == {**census_by_enumeration(ctx, real),
                          "semisimple": len(semisimple)}, (q, n)


@pytest.mark.parametrize(
    "q,n", [(2, 20), (3, 16), (4, 10), (5, 10), (7, 8), (8, 8), (9, 8), (11, 6),
            (13, 6), (16, 6), (25, 4), (27, 4)])
def test_census_matches_the_enumerating_oracle(q, n):
    # beyond the filtering grid, against the census made one label at a
    # time on the pair-unit oracle's labels; the oracle takes at most about
    # 0.2 s a case, at (3, 16)
    ctx = TorusContext(q, n)
    census = census_semisimple(ctx)
    assert census == {**census_by_enumeration(ctx, real_semisimple_labels(ctx)),
                      "semisimple": label_count(ctx, "semisimple")}


@pytest.mark.parametrize("q", sorted(ORACLE_MAX_N))
def test_semisimple_labels_match_filtered_enumeration(q):
    # every family's generated labels against filtering every multipartition
    # by the family's predicate, and the counted families against the
    # generating-function count
    keeps = {"semisimple": is_semisimple, "regular": is_regular,
             "unipotent": is_unipotent, "all": lambda lam: True}
    assert list(keeps) == list(FAMILIES)
    for n in range(1, ORACLE_MAX_N[q] + 1):
        ctx = TorusContext(q, n)
        for family, keep in keeps.items():
            filtered = tuple(
                lam for lam in enumerate_multipartitions(ctx, n, THETA)
                if keep(lam))
            assert family_labels(ctx, family) == filtered, (q, n, family)
            if family != "unipotent":
                assert label_count(ctx, family) == len(filtered), (q, n, family)


@pytest.mark.parametrize("q", sorted(ORACLE_MAX_N))
def test_every_family_is_built_canonical_and_sorted(q):
    # enumeration builds labels as it walks them; the oracle normalizes
    # each one with make() and sorts them by the canonical sort key
    for n in range(1, ORACLE_MAX_N[q] + 1):
        ctx = TorusContext(q, n)
        families = {family: family_labels(ctx, family) for family in FAMILIES}
        families["classes"] = enumerate_multipartitions(ctx, n, PHI)
        for family, labels in families.items():
            assert all(lam == MultiPartition.make(lam.side, lam.entries)
                       for lam in labels), (q, n, family)
            assert labels == tuple(sorted(labels, key=sort_key)), \
                (q, n, family)
            assert len(set(labels)) == len(labels), (q, n, family)
            if family in ("all", "semisimple", "regular"):
                assert len(labels) == label_count(ctx, family), (q, n, family)
            elif family == "classes":
                assert len(labels) == label_count(ctx), (q, n)


def test_enumeration_neither_normalizes_nor_sorts(monkeypatch):
    # the 5816 labels at (3, 7) are built canonical and in canonical order,
    # so no label goes through make(); the library has no label sort key,
    # and test_every_family_is_built_canonical_and_sorted checks the order
    calls = {"make": 0}
    make = MultiPartition.make

    def counted_make(side, pairs):
        calls["make"] += 1
        return make(side, pairs)

    monkeypatch.setattr(MultiPartition, "make", staticmethod(counted_make))
    enumerate_multipartitions.cache_clear()
    try:
        labels = family_labels(TorusContext(3, 7), "all")
    finally:
        enumerate_multipartitions.cache_clear()
    assert len(labels) == 5816
    assert calls == {"make": 0}


@pytest.mark.parametrize("q,n", list(dict.fromkeys(
    [(3, 10), (3, 12), (5, 8), (9, 6), (3, 16), (7, 8), (3, 20)]
    + [(q, 2 * m) for q in (3, 5, 7, 9, 11) for m in range(1, 5)]
    + [(q, 2 * m) for q in (3, 5, 7, 9, 11, 25, 27, 101) for m in (10, 50, 100)])))
def test_census_closed_forms(q, n):
    # U(2m) with q odd: q^(m-1) symplectic and q^m orthogonal characters, up
    # to m = 100, where U(200, F_(101^2)) has 101^100 + 101^99 real ones
    m = n // 2
    out = census_semisimple(TorusContext(q, n))
    assert out["symplectic"] == q ** (m - 1)
    assert out["orthogonal"] == q**m
    assert out["real_total"] == out["route_agreement"] == q**m + q ** (m - 1)


def test_symplectic_labels_carry_odd_sigma_part():
    ctx = TorusContext(3, 4)
    labels = [lam for lam in family_labels(ctx, "semisimple")
              if is_real(ctx, lam) and fs_semisimple_regular(ctx, lam) == -1]
    assert len(labels) == 3
    sig = sigma_orbit(ctx)
    for lam in labels:
        assert sum(lam.part_for(sig)) % 2 == 1
        assert is_semisimple(lam) and is_real(ctx, lam)
