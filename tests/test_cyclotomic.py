"""Cyclotomic field arithmetic: reduction, conjugation, rationality, text.

Values are made only by from_terms, from int terms over an int denominator;
a rational such as 1/2 is the term (0, 1) over 2.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqchar import cyclotomic
from uqchar.cyclotomic import (
    MAX_DEGREE,
    Cyclotomic,
    ModulusMismatch,
    approx,
    cyclotomic_polynomial,
    embed,
    from_terms,
    galois,
    one,
    same_value,
    sum_of_products,
    to_text,
    zero,
    zeta,
)
from uqchar.nt import divisors, euler_phi, prime_power
from uqchar.torus import TorusContext


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


def _cli_moduli():
    """The modulus of every field the CLI can build for a prime power q <= 13."""
    moduli = set()
    for q in range(2, 14):
        if prime_power(q) is None:
            continue
        n = 1
        while euler_phi(TorusContext(q, n).cyclo_modulus) <= MAX_DEGREE:
            moduli.add(TorusContext(q, n).cyclo_modulus)
            n += 1
    return sorted(moduli)


CLI_MODULI = _cli_moduli()


def test_cli_moduli_run_from_3_to_3465():
    assert len(CLI_MODULI) == 24
    assert (CLI_MODULI[0], CLI_MODULI[-1]) == (3, 3465)


@pytest.mark.parametrize("m", CLI_MODULI)
def test_cyclotomic_product_identity_on_cli_fields(m):
    # prod over d | m of Phi_d(x) = x^m - 1, evaluated by Horner mod a prime
    p = 2**61 - 1
    for x in (2, 3, 10):
        prod = 1
        for d in divisors(m):
            value = 0
            for c in reversed(cyclotomic_polynomial(d)):
                value = (value * x + c) % p
            prod = prod * value % p
        assert prod == (pow(x, m, p) - 1) % p
    phi = cyclotomic_polynomial(m)
    assert phi[-1] == 1 and len(phi) - 1 == euler_phi(m)


def test_zeta_powers_reduce():
    assert zeta(8, 4) == from_terms(8, [(0, -1)])
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
    a = zeta(8) + zeta(8, 3) * 2
    b = from_terms(8, [(0, 1), (2, -2)], 2)  # 1/2 - z^2
    assert a + b == b + a
    assert a * b == b * a
    assert (a + a * -1).is_zero()
    assert a * one(8) == a
    assert from_terms(8, a.coeffs, 2 * a.den) * 2 == a
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
    assert same_value(from_terms(4, [(0, 7)]), from_terms(6, [(0, 7)]))
    assert not same_value(zeta(4), zeta(8))
    a = zeta(4) + from_terms(4, [(0, 3)])
    assert embed(a, 12).conjugate() == embed(a.conjugate(), 12)


def test_conjugation():
    assert zeta(8).conjugate() == zeta(8, 7)
    a = zeta(8) + zeta(8, 7)
    assert a.conjugate() == a
    b = from_terms(8, [(1, 1), (3, -1)])
    assert b.conjugate().conjugate() == b
    r = from_terms(8, [(0, -3)], 5)
    assert r.conjugate() == r


def test_rational_values():
    assert from_terms(8, [(0, 3)], 2).rational_value() == Fraction(3, 2)
    # zeta_6 + zeta_6^5 = 2 cos(pi/3) = 1, rational despite nontrivial support
    assert (zeta(6) + zeta(6, 5)).rational_value() == 1
    # zeta_8 + zeta_8^-1 = sqrt(2): real, not rational
    sqrt2 = zeta(8) + zeta(8, 7)
    assert sqrt2 == sqrt2.conjugate() and not sqrt2.is_rational()
    assert not zeta(8).is_rational()
    with pytest.raises(ValueError):
        (zeta(8)).rational_value()


def test_text_examples():
    a = from_terms(8, [(0, 1), (1, -2), (2, 6)], 2)
    assert to_text(a) == "Q(zeta_8): 1/2 - z + 3*z^2"
    assert to_text(zero(12)) == "Q(zeta_12): 0"
    assert to_text(zeta(4) * -1) == "Q(zeta_4): -z"
    assert to_text(zeta(8, 9)) == "Q(zeta_8): z"


small_ints = st.integers(-24, 24)
dens = st.integers(-12, 12).filter(bool)


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([3, 4, 5, 7, 8, 9, 12]),
    cs=st.lists(small_ints, min_size=1, max_size=6),
    ds=st.lists(small_ints, min_size=1, max_size=6),
    da=dens, db=dens,
)
def test_ring_laws_and_conj_hom(m, cs, ds, da, db):
    a = from_terms(m, enumerate(cs), da)
    b = from_terms(m, enumerate(ds), db)
    assert a * b == b * a
    assert (a + b) * (a + b * -1) == a * a + b * b * -1
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate() == a


def test_approx_is_consistent():
    z = approx(zeta(8))
    assert abs(z - complex(2**-0.5, 2**-0.5)) < 1e-12
    assert abs(approx(zeta(8) + zeta(8, 7)) - 2**0.5) < 1e-12


def test_to_text_renders_zeros_that_are_not_the_shared_zero():
    # zero terms render as nothing; a numerator equal to the common
    # denominator renders as 1
    assert to_text(from_terms(8, [(0, 0), (1, 1), (2, 0)])) == "Q(zeta_8): z"
    assert to_text(from_terms(8, [(1, 0), (3, 0)])) == "Q(zeta_8): 0"
    assert to_text(from_terms(8, [(1, -2), (2, 1)], 2)) == \
        "Q(zeta_8): -z + 1/2*z^2"
    assert to_text(from_terms(8, [(0, -1), (3, 3)], 3)) == \
        "Q(zeta_8): -1/3 + z^3"


@pytest.mark.parametrize("make,kind", [
    (lambda: from_terms(8, [(0, 1), (3, 0.5)]), "float"),
    (lambda: from_terms(8, [(0, 0.0)]), "float"),
    (lambda: from_terms(8, [(0, 1)], 2.0), "float"),
    (lambda: from_terms(8, [(0, 1), (3, Fraction(1, 2))]), "Fraction"),
    (lambda: from_terms(8, [(0, Fraction(0))]), "Fraction"),
    (lambda: from_terms(8, [(0, 1)], Fraction(2)), "Fraction"),
    (lambda: from_terms(8, [(0, 1), (4, 1)], 0.5), "float"),
    (lambda: from_terms(8, [(0, 1)], 0), None),
], ids=["from_terms", "float-zero", "float-denominator", "fraction",
        "fraction-zero", "fraction-denominator", "float-denominator-zero-sum",
        "zero-denominator"])
def test_inexact_or_undefined_input_raises_value_error(make, kind):
    # the error names the type that is not an int
    match = f"of type {kind}; need int" if kind else "zero denominator"
    with pytest.raises(ValueError, match=match):
        make()


def test_the_dense_constructor_makes_no_value():
    with pytest.raises(TypeError):
        Cyclotomic(4, [0, 1])
    with pytest.raises(TypeError):
        Cyclotomic(8, [0, 1, 0, 0])


def test_values_keep_their_equality_hash_and_immutability():
    # the hash is stored at construction and equality tests the Cyclotomic
    # case first; the comparisons with ints and Fractions, the hash and
    # immutability are as they were, and no attribute can be deleted
    a = from_terms(12, [(1, 2), (13, 1)], 6)  # 3 z / 6 = z / 2
    b = from_terms(12, [(1, 1)], 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash((12, ((1, 1),), 2))
    assert len({a, b}) == 1 and {a: 1}[b] == 1
    assert a != zeta(12) and a != from_terms(24, [(2, 1)], 2)
    half = from_terms(12, [(0, 3)], 6)
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert half != 0 and half != Fraction(1, 3) and a != Fraction(1, 2)
    assert one(12) == 1 and 1 == one(12) and zero(12) == 0 and one(12) != 2
    assert from_terms(12, [(0, -4)], 2) == -2
    assert (a == "z") is False and a != "z"
    for field in ("modulus", "coeffs", "den", "_hash"):
        with pytest.raises(AttributeError):
            setattr(a, field, 1)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert (a.modulus, a.coeffs, a.den) == (12, ((1, 1),), 2)


def test_integral_values_hold_ints_over_one():
    a = from_terms(12, [(0, 2), (5, -3), (13, 1)])
    assert a.den == 1
    assert all(type(c) is int for _, c in a.coeffs)
    # integral in the field although a term over 2 is not:
    # (z + z^-1)/2 + (z - z^-1)/2
    b = from_terms(8, [(1, 1), (7, 1), (1, 1), (7, -1)], 2)
    assert (b.coeffs, b.den) == (zeta(8).coeffs, 1)
    assert from_terms(8, [(0, 3)]).rational_value() == 3
    assert type(from_terms(8, [(0, 3)]).rational_value()) is int


def test_cyclotomic_polynomial_rejects_a_wrong_degree(monkeypatch):
    monkeypatch.setattr(cyclotomic, "euler_phi", lambda m: 1)
    with pytest.raises(ValueError, match="degree"):
        cyclotomic_polynomial(12)


def test_from_terms_sums_powers_of_zeta():
    terms = [(0, 2), (3, -1), (13, 1), (-1, 5), (3, 1)]
    want = zero(12)
    for e, c in terms:
        want = want + zeta(12, e % 12) * c
    assert from_terms(12, terms) == want
    assert from_terms(12, terms, 2) * 2 == want
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


def _oracle(m, terms):
    """sum c * z^e as Fractions in the power basis, one power of z at a time.

    Each z^e is reached by multiplying 1 by z e mod m times and replacing
    z^phi by -(Phi_m - z^phi) at every step.
    """
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    out = [Fraction(0)] * deg
    for e, c in terms:
        v = [Fraction(1)] + [Fraction(0)] * (deg - 1)
        for _ in range(e % m):
            top = v[-1]
            v = [a - top * p for a, p in zip([Fraction(0)] + v[:-1], phi)]
        out = [o + Fraction(c) * a for o, a in zip(out, v)]
    return tuple(out)


def _dense(a):
    """a's power-basis coefficients as Fractions, zeros included."""
    out = [Fraction(0)] * euler_phi(a.modulus)
    for i, c in a.coeffs:
        out[i] = Fraction(c, a.den)
    return tuple(out)


def _is_canonical(a):
    """Nonzero int terms at strictly increasing indices in [0, phi), over a
    positive denominator coprime to them; zero is ((), 1)."""
    indices = [i for i, _ in a.coeffs]
    nums = [c for _, c in a.coeffs]
    return (all(type(x) is int for x in indices + nums)
            and indices == sorted(set(indices))
            and all(0 <= i < euler_phi(a.modulus) for i in indices)
            and all(nums) and type(a.den) is int and a.den > 0
            and math.gcd(a.den, *nums) == 1
            and (a.coeffs != () or a.den == 1))


exact_terms = st.lists(
    st.tuples(st.integers(-40, 40), small_ints), max_size=6)


@settings(max_examples=80, deadline=None)
@given(m=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15]),
       terms=exact_terms, other=exact_terms, den=dens, k=st.integers(-3, 3))
def test_canonical_form(m, terms, other, den, k):
    a = from_terms(m, terms, den)
    b = from_terms(m, other, 6)
    minus_a = a * -1
    for v in (a, b, a + b, a + b * -1, a * b, minus_a, a * k,
              from_terms(m, a.coeffs, 7 * a.den) * k, a.conjugate(),
              a + minus_a, embed(a, 2 * m)):
        assert _is_canonical(v), v
    assert (a + minus_a).den == 1
    assert (zero(m).coeffs, zero(m).den) == ((), 1)


@settings(max_examples=80, deadline=None)
@given(m=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15]),
       terms=exact_terms, den=dens)
def test_a_value_is_its_own_term_list(m, terms, den):
    v = from_terms(m, terms, den)
    assert from_terms(m, v.coeffs, v.den) == v
    assert sum_of_products(m, [(v.coeffs, [(0, 1)])], v.den) == v


@settings(max_examples=80, deadline=None)
@given(m=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15]),
       terms=exact_terms, other=exact_terms)
def test_product_matches_the_oracle_of_the_convolved_terms(m, terms, other):
    a, b = from_terms(m, terms), from_terms(m, other)
    conv = [(e + f, Fraction(c) * d) for e, c in terms for f, d in other]
    assert _dense(a * b) == _oracle(m, conv)
    assert _is_canonical(a * b)


@settings(max_examples=80, deadline=None)
@given(m=st.sampled_from([1, 3, 4, 5, 6, 8, 9, 12]), terms=exact_terms,
       other=exact_terms, split=st.booleans(), lap=st.integers(-2, 2))
def test_equality_and_hash_agree_with_a_fraction_oracle(m, terms, other, split, lap):
    a = from_terms(m, terms)
    want = _oracle(m, terms)
    assert _dense(a) == want
    # the same value written another way: exponents moved by a multiple of
    # m, each term written twice over a denominator of 2, plus a sum of
    # roots that is 0
    p = next(p for p in range(2, m + 1) if m % p == 0) if m > 1 else 1
    same = [(e + lap * m, c) for e, c in terms]
    if split:
        same += [(e, c) for e, c in terms]
    if m > 1:
        same += [(1 + j * (m // p), 3) for j in range(p)]
    b = from_terms(m, same, 2 if split else 1)
    assert a == b and hash(a) == hash(b)
    c = from_terms(m, other)
    assert (a == c) == (want == _oracle(m, other))
    if a == c:
        assert hash(a) == hash(c)
    if all(x == 0 for x in want[1:]):
        assert a == want[0] and a.rational_value() == want[0]


def _units(m):
    return [k for k in range(-m, 2 * m) if math.gcd(k, m) == 1]


@settings(max_examples=80, deadline=None)
@given(m=st.sampled_from([1, 2, 3, 4, 5, 8, 9, 12, 15, 20]), data=st.data(),
       terms=exact_terms, other=exact_terms, den=dens)
def test_galois_is_a_field_automorphism(m, data, terms, other, den):
    k = data.draw(st.sampled_from(_units(m)))
    l = data.draw(st.sampled_from(_units(m)))
    a, b = from_terms(m, terms, den), from_terms(m, other)
    s = galois(a, k)
    assert _is_canonical(s)
    # z -> z^k on the terms the value was made from
    assert _dense(s) == tuple(
        x / den for x in _oracle(m, [(k * e, c) for e, c in terms]))
    assert galois(a * b, k) == s * galois(b, k)
    assert galois(a + b, k) == s + galois(b, k)
    assert galois(galois(a, l), k) == galois(a, k * l)
    assert galois(a, m - 1) == a.conjugate()
    assert _dense(a.conjugate()) == tuple(
        x / den for x in _oracle(m, [(-e, c) for e, c in terms]))
    assert galois(a, 1) == a


@pytest.mark.parametrize("m,k", [(12, 2), (12, 3), (12, 0), (9, 6), (15, -5), (4, 2)])
def test_galois_refuses_a_non_unit(m, k):
    # an if, not an assert: it raises under python -O as well
    with pytest.raises(ValueError, match="not a unit"):
        galois(zeta(m), k)


def test_galois_fixes_a_rational_value():
    for a in (zero(12), one(12), from_terms(12, [(0, -3)], 4)):
        assert galois(a, 5) is a


def test_galois_refuses_a_non_unit_on_a_rational_value():
    # the unit check comes before the shortcut for a rational input, and
    # holds on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="2 is not a unit mod 12"):
            galois(one(12), 2)
