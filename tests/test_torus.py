"""Frobenius orbits, norms, character lifts, and the torus pairing."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqchar import torus
from uqchar.cyclotomic import embed, from_rational, zeta
from uqchar.multipartition import MultiPartition
from uqchar.torus import (
    PHI,
    THETA,
    OrbitLabel,
    TorusContext,
    conjugate_orbit,
    count_exact_orbits,
    exact_orbits,
    frobenius_orbit,
    lift_character,
    lift_element,
    modulus_of,
    norm_multiplier,
    one_orbit,
    orbit_exponent_sum,
    orbit_exponents,
    orbits_up_to,
    pairing,
    self_conjugate_orbits,
    sigma_orbit,
    to_level_one,
)


def test_context_validation():
    with pytest.raises(ValueError):
        TorusContext(6, 2)  # not a prime power
    with pytest.raises(ValueError):
        TorusContext(1, 2)
    with pytest.raises(ValueError):
        TorusContext(3, 0)
    ctx = TorusContext(3, 4)
    assert ctx.top_level == 12
    with pytest.raises(ValueError):
        ctx.modulus(5)  # 5 does not divide lcm(1..4)


def test_moduli_values():
    assert [modulus_of(3, d) for d in (1, 2, 3, 4)] == [4, 8, 28, 80]
    assert [modulus_of(2, d) for d in (1, 2, 3, 4)] == [3, 3, 9, 15]
    assert [modulus_of(5, d) for d in (1, 2)] == [6, 24]
    # M_r | M_m whenever r | m
    for q in (2, 3, 4, 5, 7, 9):
        for m in range(1, 7):
            for r in (d for d in range(1, m + 1) if m % d == 0):
                assert modulus_of(q, m) % modulus_of(q, r) == 0


def test_norm_multiplier():
    assert norm_multiplier(3, 2, 1) == 1 - 3 == -2
    assert norm_multiplier(3, 4, 2) == 1 + 9 == 80 // 8  # sum of (-3)^(2i), i < 2
    assert norm_multiplier(3, 4, 1) == 1 - 3 + 9 - 27 == -80 // 4
    # transitivity of the multipliers as exact integers
    for q in (2, 3, 5):
        for m, r, s in [(4, 2, 1), (6, 3, 1), (6, 2, 1), (4, 4, 2)]:
            assert norm_multiplier(q, m, r) * norm_multiplier(q, r, s) == \
                norm_multiplier(q, m, s)


def test_level_one_orbits_q3():
    ctx = TorusContext(3, 2)
    orbits = exact_orbits(ctx, 1)
    assert [o.min_exponent for o in orbits] == [0, 1, 2, 3]
    assert all(o.size == 1 for o in orbits)


def test_level_two_orbits_q3():
    ctx = TorusContext(3, 2)
    orbits = exact_orbits(ctx, 2)
    assert [(o.min_exponent, orbit_exponents(ctx, o)) for o in orbits] == [
        (1, (1, 5)), (3, (3, 7))]
    # the remaining level-2 exponents 0, 2, 4, 6 descend to level 1
    down = [frobenius_orbit(ctx, 2, e) for e in (0, 2, 4, 6)]
    assert [(o.level, o.min_exponent) for o in down] == [
        (1, 0), (1, 3), (1, 2), (1, 1)]


def test_q2_levels_collapse():
    # M_1 = M_2 = 3 at q = 2: no exact level-2 orbits at all
    ctx = TorusContext(2, 2)
    assert exact_orbits(ctx, 2) == ()
    o = frobenius_orbit(ctx, 2, 1)
    assert (o.level, o.min_exponent) == (1, 2)  # g_2 = g_1^(-1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_orbit_partition_and_moebius_counts(q):
    ctx = TorusContext(q, 6)
    for d in range(1, 7):
        orbits = exact_orbits(ctx, d)
        assert len(orbits) == count_exact_orbits(ctx, d)
        # orbits of exact sizes r | d tile T_d
        assert sum(r * count_exact_orbits(ctx, r)
                   for r in range(1, d + 1) if d % r == 0) == ctx.modulus(d)
        for o in orbits:
            exps = orbit_exponents(ctx, o)
            assert len(set(exps)) == d and min(exps) == o.min_exponent


def test_orbit_label_serialization():
    # a label is (level, min_exponent); its key takes the side from the
    # multipartition that carries it
    o = OrbitLabel(2, 1)
    assert MultiPartition.make(THETA, [(o, (1,))]).to_key() == "theta:2:1[1]"
    assert MultiPartition.make(PHI, [(OrbitLabel(1, 3), (1,))]).to_key() == "phi:1:3[1]"
    with pytest.raises(ValueError, match="side must be one of"):
        MultiPartition.make("chi", [(OrbitLabel(1, 0), (1,))])


def test_conjugate_orbit():
    ctx = TorusContext(3, 2)
    assert conjugate_orbit(ctx, OrbitLabel(1, 1)) == OrbitLabel(1, 3)
    assert conjugate_orbit(ctx, OrbitLabel(2, 1)) == OrbitLabel(2, 3)
    for q in (3, 5):
        ctx = TorusContext(q, 4)
        for o in orbits_up_to(ctx, 4):
            assert conjugate_orbit(ctx, conjugate_orbit(ctx, o)) == o


def norm(ctx, m, r, e):
    """N_{m,r} in exponent coordinates: reduction mod M_r.

    The literal norm multiplies the ambient exponent by S_{m,r}; the reduced
    image, included back into T_m, must give the same element.
    """
    if m % r:
        raise ValueError(f"need r | m, got r={r}, m={m}")
    out = e % ctx.modulus(r)
    literal = (norm_multiplier(ctx.q, m, r) * e) % ctx.modulus(m)
    assert lift_element(ctx, r, m, out) == literal
    return out


def test_norm_example_and_transitivity():
    ctx = TorusContext(3, 4)
    # q=3, m=2, r=1, e=1: multiplier S = -2; image generates T_1
    assert norm(ctx, 2, 1, 1) == 1
    assert gcd(norm(ctx, 2, 1, 1), ctx.modulus(1)) == 1
    # exhaustive transitivity through level 2, all of T_4
    for e in range(ctx.modulus(4)):
        assert norm(ctx, 4, 1, e) == norm(ctx, 2, 1, norm(ctx, 4, 2, e))
    with pytest.raises(ValueError):
        norm(ctx, 4, 3, 1)


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([2, 3, 5, 7]),
       mr=st.sampled_from([(2, 1), (3, 1), (4, 2), (4, 1), (6, 2), (6, 3)]),
       e=st.integers(0, 10**6))
def test_norm_after_inclusion_is_power(q, mr, e):
    m, r = mr
    ctx = TorusContext(q, 6 if m in (3, 6) else 4)
    x = e % ctx.modulus(r)
    # N_{m,r} restricted to T_r raises to the (m/r)-th power
    assert norm(ctx, m, r, lift_element(ctx, r, m, x)) == (m // r) * x % ctx.modulus(r)


def test_pairing_basics():
    ctx = TorusContext(3, 2)
    assert pairing(ctx, 1, 1, 1, 1) == zeta(4)
    assert pairing(ctx, 0, 1, 3, 1) == from_rational(4, 1)
    # U(1) character table is the Fourier matrix of Z/4
    for c in range(4):
        for e in range(4):
            assert pairing(ctx, c, 1, e, 1) == zeta(4, c * e)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_sigma_pairs_to_minus_one_with_generators(q):
    ctx = TorusContext(q, 4)
    sig = sigma_orbit(ctx)
    assert sig.min_exponent == (q + 1) // 2
    for d in (1, 2, 4):
        val = pairing(ctx, sig.min_exponent, 1, 1, d)
        assert val == from_rational(ctx.modulus(d), -1)


def test_pairing_norm_compatibility_sample():
    # xi(a)_m = xi(a)_r^(m/r): the full r | m <= 4 sweep is acceptance 9
    ctx = TorusContext(3, 4)
    for (r, m) in [(1, 2), (2, 4), (1, 4)]:
        big = ctx.modulus(m)
        for c in range(ctx.modulus(r)):
            for a in range(ctx.modulus(r)):
                lhs = pairing(ctx, c, r, lift_element(ctx, r, m, a), m)
                rhs = embed(pairing(ctx, c, r, a, r), big) ** (m // r)
                assert lhs == rhs, (r, m, c, a)


def test_to_level_one():
    ctx = TorusContext(3, 2)
    assert [to_level_one(ctx, 2, c) for c in (0, 2, 4, 6)] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        to_level_one(ctx, 2, 1)  # not Frobenius-fixed
    # round trip through the character lift
    for c1 in range(4):
        assert to_level_one(ctx, 2, lift_character(ctx, 1, 2, c1)) == c1


def test_orbit_exponent_sum_descends():
    ctx = TorusContext(3, 2)
    s = orbit_exponent_sum(ctx, OrbitLabel(2, 1))
    assert s == 6
    assert to_level_one(ctx, 2, s) == 3


def test_an_orbit_label_is_the_same_on_both_sides():
    # the character orbit and the class orbit of an exponent are one label;
    # only the multipartition that carries it says which side it is on
    ctx = TorusContext(3, 1)
    assert one_orbit(ctx, THETA) == one_orbit(ctx, PHI) == OrbitLabel(1, 0)
    assert sigma_orbit(ctx) == OrbitLabel(1, 2)
    theta = MultiPartition.make(THETA, [(sigma_orbit(ctx), (1,))])
    phi = MultiPartition.make(PHI, [(sigma_orbit(ctx), (1,))])
    assert theta.entries == phi.entries
    assert (theta.to_key(), phi.to_key()) == ("theta:1:2[1]", "phi:1:2[1]")


@pytest.mark.parametrize("q", [3, 5])
def test_odd_self_conjugate_orbits_are_one_or_sigma(q):
    # levels <= 5: every self-conjugate orbit of odd size is {1} or {sigma}
    ctx = TorusContext(q, 5)
    allowed = {one_orbit(ctx), sigma_orbit(ctx)}
    for d in (1, 3, 5):
        for o in exact_orbits(ctx, d):
            if conjugate_orbit(ctx, o) == o:
                assert o in allowed, o


def test_sigma_needs_odd_q():
    with pytest.raises(ValueError):
        sigma_orbit(TorusContext(4, 2))


@pytest.mark.parametrize("q,n", [(3, 8), (5, 6), (2, 8), (4, 6), (9, 4), (3, 12)])
def test_self_conjugate_orbits_match_the_full_scan(q, n):
    ctx = TorusContext(q, n)
    for d in range(1, n + 1):
        scanned = tuple(o for o in exact_orbits(ctx, d)
                        if conjugate_orbit(ctx, o) == o)
        assert self_conjugate_orbits(ctx, d) == scanned


# -- checks that survive python -O: each is fed a broken input ------------


def test_norm_multiplier_and_lift_element_reject_a_level_that_does_not_divide():
    with pytest.raises(ValueError, match="need r | m"):
        norm_multiplier(3, 4, 3)
    with pytest.raises(ValueError, match="need r | m"):
        lift_element(TorusContext(3, 4), 3, 4, 1)


def test_norm_multiplier_rejects_a_sum_that_is_not_the_modulus_ratio(monkeypatch):
    monkeypatch.setattr(torus, "modulus_of", lambda q, d: 1)
    with pytest.raises(ValueError, match="is not"):
        norm_multiplier(3, 2, 1)


def test_frobenius_orbit_rejects_an_orbit_size_that_does_not_divide(monkeypatch):
    monkeypatch.setattr(torus, "_orbit_exponents_at", lambda q, m, e: (0, 1, 2))
    with pytest.raises(ValueError, match="has size 3, not a divisor"):
        frobenius_orbit(TorusContext(3, 4), 4, 1)


def test_frobenius_orbit_rejects_an_exponent_outside_the_subtorus(monkeypatch):
    # exponent 1 at level 2 claimed to be Frobenius-fixed, but T_1 is the
    # multiples of M_2 / M_1 = 2
    monkeypatch.setattr(torus, "_orbit_exponents_at", lambda q, m, e: (e,))
    with pytest.raises(ValueError, match="does not lie in T_1"):
        frobenius_orbit(TorusContext(3, 2), 2, 1)


def test_frobenius_orbit_rejects_a_descended_orbit_of_another_size(monkeypatch):
    real = torus._orbit_exponents_at
    # exponent 2 at level 2 is fixed; its descent is given a second exponent
    monkeypatch.setattr(torus, "_orbit_exponents_at",
                        lambda q, m, e: real(q, m, e) if m == 2 else (e, e + 1))
    with pytest.raises(ValueError, match="has size 2"):
        frobenius_orbit(TorusContext(3, 2), 2, 2)


def test_orbit_exponents_rejects_an_orbit_of_another_size(monkeypatch):
    monkeypatch.setattr(torus, "_orbit_exponents_at", lambda q, m, e: (e,))
    with pytest.raises(ValueError, match="has 1 exponents"):
        orbit_exponents(TorusContext(3, 2), OrbitLabel(2, 1))


def test_count_exact_orbits_rejects_a_count_that_does_not_divide(monkeypatch):
    # without the Moebius correction, M_3 = 28 elements are not 3-orbits
    monkeypatch.setattr(torus, "divisors", lambda d: [d])
    with pytest.raises(ValueError, match="not divisible by d = 3"):
        count_exact_orbits(TorusContext(3, 3), 3)


def test_to_level_one_rejects_a_fixed_exponent_outside_level_one(monkeypatch):
    # with M_1 read as 2 the step is 4, and the fixed exponent 2 is off it
    real = TorusContext.modulus
    monkeypatch.setattr(TorusContext, "modulus",
                        lambda self, d: 2 if d == 1 else real(self, d))
    with pytest.raises(ValueError, match="is not in T_1"):
        to_level_one(TorusContext(3, 2), 2, 2)


def test_to_level_one_rejects_an_exponent_that_does_not_lift_back(monkeypatch):
    monkeypatch.setattr(torus, "lift_character", lambda ctx, r, m, c: 0)
    with pytest.raises(ValueError, match="does not lift back"):
        to_level_one(TorusContext(3, 2), 2, 2)
