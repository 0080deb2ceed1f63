"""Cyclotomic field arithmetic: reduction, conjugation, classification, text."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqchar import cyclotomic
from uqchar.cyclotomic import (
    Cyclotomic,
    ModulusMismatch,
    _poly_divexact_int,
    approx,
    classify,
    cyclotomic_polynomial,
    embed,
    from_rational,
    from_terms,
    one,
    same_value,
    sum_of_products,
    to_text,
    zero,
    zeta,
)
from uqchar.nt import divisors, euler_phi


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    # oracle for Phi_8: multiply the three proper factors and divide x^8-1 by hand
    assert poly_mul(poly_mul([-1, 1], [1, 1]), [1, 0, 1]) == [-1, 0, 0, 0, 1]
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)


@pytest.mark.parametrize("m", range(1, 61))
def test_cyclotomic_product_identity(m):
    # prod over d | m of Phi_d(x) = x^m - 1, multiplied out independently
    prod = [1]
    for d in divisors(m):
        prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
    expect = [-1] + [0] * (m - 1) + [1]
    assert prod == expect
    assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)


def test_zeta_powers_reduce():
    assert zeta(8, 4) == from_rational(8, -1)
    assert zeta(8, 8) == one(8)
    assert zeta(4, 1) * zeta(4, 3) == one(4)
    assert zeta(5, 0) == one(5)
    # 1 + z + z^2 + z^3 + z^4 = 0 in Q(zeta_5)
    total = zero(5)
    for k in range(5):
        total = total + zeta(5, k)
    assert total.is_zero()


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12, 24])
def test_zeta_has_exact_order(m):
    z = zeta(m)
    acc = z
    for k in range(1, m):
        assert not acc == 1, (m, k)
        acc = acc * z
    assert acc == 1


def test_arith_basics():
    a = zeta(8) + 2 * zeta(8, 3)
    b = Fraction(1, 2) - zeta(8, 2)
    assert a + b == b + a
    assert a * b == b * a
    assert (a - a).is_zero()
    assert a * one(8) == a
    assert (a * Fraction(1, 2)) * 2 == a
    assert a**0 == 1
    assert a**3 == a * a * a


def test_modulus_mismatch_raises():
    with pytest.raises(ModulusMismatch):
        zeta(8) + zeta(4)
    with pytest.raises(ModulusMismatch):
        zeta(8) * zeta(12)
    with pytest.raises(ModulusMismatch):
        embed(zeta(8), 12)


def test_embed_and_same_value():
    assert embed(zeta(4), 8) == zeta(8, 2)
    assert same_value(zeta(4), zeta(8, 2))
    assert same_value(from_rational(4, 7), from_rational(6, 7))
    assert not same_value(zeta(4), zeta(8))
    a = zeta(4) + 3
    assert embed(a, 12).conjugate() == embed(a.conjugate(), 12)


def test_conjugation():
    assert zeta(8).conjugate() == zeta(8, 7)
    a = zeta(8) + zeta(8, 7)
    assert a.conjugate() == a
    b = zeta(8) - zeta(8, 3)
    assert b.conjugate().conjugate() == b
    r = from_rational(8, Fraction(-3, 5))
    assert r.conjugate() == r


def test_classify():
    assert classify(from_rational(8, Fraction(3, 2))) == ("rational", Fraction(3, 2))
    # zeta_6 + zeta_6^5 = 2 cos(pi/3) = 1, rational despite nontrivial support
    assert classify(zeta(6) + zeta(6, 5)) == ("rational", Fraction(1))
    # zeta_8 + zeta_8^-1 = sqrt(2): real, not rational
    kind, val = classify(zeta(8) + zeta(8, 7))
    assert kind == "real" and val is None
    assert classify(zeta(8)) == ("nonreal", None)
    with pytest.raises(ValueError):
        (zeta(8)).rational_value()


def test_text_examples():
    a = Fraction(1, 2) * one(8) - zeta(8) + 3 * zeta(8, 2)
    assert to_text(a) == "Q(zeta_8): 1/2 - z + 3*z^2"
    assert to_text(zero(12)) == "Q(zeta_12): 0"
    assert to_text(-zeta(4)) == "Q(zeta_4): -z"
    assert to_text(zeta(8, 9)) == "Q(zeta_8): z"


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([3, 4, 5, 7, 8, 9, 12]),
    cs=st.lists(small_fracs, min_size=1, max_size=6),
    ds=st.lists(small_fracs, min_size=1, max_size=6),
)
def test_ring_laws_and_conj_hom(m, cs, ds):
    a = sum((c * zeta(m, k) for k, c in enumerate(cs)), zero(m))
    b = sum((d * zeta(m, k) for k, d in enumerate(ds)), zero(m))
    assert a * b == b * a
    assert (a + b) * (a - b) == a * a - b * b
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate() == a


def test_approx_is_consistent():
    z = approx(zeta(8))
    assert abs(z - complex(2**-0.5, 2**-0.5)) < 1e-12
    assert abs(approx(zeta(8) + zeta(8, 7)) - 2**0.5) < 1e-12


def test_poly_division_rejects_a_divisor_that_is_not_monic():
    with pytest.raises(ValueError, match="not monic"):
        _poly_divexact_int((1, 0, 1), (1, 2))


def test_poly_division_rejects_a_remainder():
    # x^2 + 1 = (x - 1)(x + 1) + 2
    with pytest.raises(ValueError, match="does not divide"):
        _poly_divexact_int((1, 0, 1), (1, 1))


def test_to_text_renders_zeros_that_are_not_the_shared_zero():
    # the constructor makes a fresh Fraction(0) for every 0
    assert to_text(Cyclotomic(8, [0, 1, 0, 0])) == "Q(zeta_8): z"
    assert to_text(Cyclotomic(8, [0, 0, 0, 0])) == "Q(zeta_8): 0"
    assert to_text(Cyclotomic(8, [0, -1, Fraction(1, 2), 0])) == \
        "Q(zeta_8): -z + 1/2*z^2"


def test_cyclotomic_polynomial_rejects_a_wrong_degree(monkeypatch):
    monkeypatch.setattr(cyclotomic, "euler_phi", lambda m: 1)
    with pytest.raises(ValueError, match="degree"):
        cyclotomic_polynomial.__wrapped__(12)


def test_from_terms_sums_powers_of_zeta():
    terms = [(0, 2), (3, -1), (13, Fraction(1, 2)), (-1, 5), (3, 1)]
    want = zero(12)
    for e, c in terms:
        want = want + zeta(12, e % 12) * c
    assert from_terms(12, terms) == want
    assert from_terms(12, []) == zero(12)
    assert from_terms(4, [(0, 1), (1, 1), (2, 1), (3, 1)]).is_zero()


sparse_terms = st.lists(
    st.tuples(st.integers(-30, 30), st.integers(-5, 5)), max_size=4)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 8, 12, 15]),
       st.lists(st.tuples(sparse_terms, sparse_terms), max_size=4))
def test_sum_of_products_matches_field_arithmetic(m, pairs):
    want = zero(m)
    for a, b in pairs:
        want = want + from_terms(m, a) * from_terms(m, b)
    assert sum_of_products(m, pairs) == want
