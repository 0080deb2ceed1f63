"""Finite fields checked against counting formulas and hand examples.

The number of monic irreducibles of degree d over F_q is
(1/d) sum_{r | d} mu(d/r) q^r; comparing the trial-division enumeration
against it exercises both.  Field axioms are property-tested on sampled
elements, and the deterministic generator scan is pinned by hand values.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqchar import gf
from uqchar.gf import (
    GF,
    ExtField,
    PrimeField,
    ext_field,
    field_pow,
    is_irreducible,
    least_irreducible,
    monic_polys,
    poly_divmod,
    poly_mul,
    poly_sub,
    poly_to_str,
    poly_trim,
    subgroup_generator,
)
from uqchar.nt import moebius


def irreducibles(F, degree):
    """The monic irreducibles of the given degree, in counter order."""
    return tuple(g for g in monic_polys(F, degree) if is_irreducible(F, g))


def poly_add(F, a, b):
    """a + b, coefficientwise."""
    n = max(len(a), len(b))
    a = a + (F.zero,) * (n - len(a))
    b = b + (F.zero,) * (n - len(b))
    return poly_trim(F, tuple(F.add(x, y) for x, y in zip(a, b)))


def test_prime_field_basics():
    F = GF(5)
    assert isinstance(F, PrimeField)
    assert F.add(3, 4) == 2
    assert F.mul(3, 4) == 2
    assert F.inv(2) == 3
    assert F.neg(1) == 4
    assert list(F.elements()) == [0, 1, 2, 3, 4]
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_gf_rejects_non_prime_power():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_gf9_modulus_is_least():
    F = GF(9)
    assert isinstance(F, ExtField)
    assert F.modulus == (1, 0, 1)  # y^2 + 1
    assert F.describe() == "GF(9)=GF(3)[y]/(y^2 + 1)"


def test_gf4_modulus():
    F = GF(4)
    assert F.modulus == (1, 1, 1)  # y^2 + y + 1
    y = (0, 1)
    assert F.mul(y, y) == (1, 1)  # y^2 = y + 1
    assert field_pow(F, y, 3) == F.one


def test_field_pow_refuses_a_negative_exponent():
    # every caller raises to k >= 0; a negative k is refused, not looped on
    with pytest.raises(ValueError, match="negative exponent"):
        field_pow(GF(4), (0, 1), -1)


def test_ext_field_inverse_and_embed():
    # every nonzero element's inverse, in each extension field up to 27
    for q in (4, 8, 9, 16, 25, 27):
        F = GF(q)
        inverses = {a: F.inv(a) for a in F.elements() if a != F.zero}
        assert all(F.mul(a, b) == F.one for a, b in inverses.items())
        assert sorted(inverses.values()) == sorted(inverses)
        with pytest.raises(ZeroDivisionError):
            F.inv(F.zero)
    F = GF(9)
    assert F.to_base((2, 0)) == 2
    with pytest.raises(ValueError):
        F.to_base((0, 1))


def test_field_axioms_gf9_exhaustive():
    F = GF(9)
    elts = list(F.elements())
    assert len(elts) == len(set(elts)) == 9
    for a in elts:
        assert F.add(a, F.zero) == a
        assert F.mul(a, F.one) == a
        assert F.add(a, F.neg(a)) == F.zero
    for a in elts[:4]:
        for b in elts:
            for c in elts[:5]:
                lhs = F.mul(a, F.add(b, c))
                rhs = F.add(F.mul(a, b), F.mul(a, c))
                assert lhs == rhs


def test_frobenius_is_additive():
    for q in (4, 9, 25):
        F = GF(q)
        p = F.char
        elts = list(F.elements())
        for a in elts[::3]:
            for b in elts[::4]:
                assert field_pow(F, F.add(a, b), p) == F.add(
                    field_pow(F, a, p), field_pow(F, b, p))


def test_subgroup_generator_gf9():
    F = GF(9)
    # first primitive element in counter order is 1 + y
    assert subgroup_generator(F, 8) == (1, 1)
    assert subgroup_generator(F, 4) == F.mul((1, 1), (1, 1))
    assert subgroup_generator(F, 1) == F.one
    with pytest.raises(ValueError):
        subgroup_generator(F, 3)


def test_subgroup_generator_orders():
    for q, order in [(4, 3), (9, 4), (25, 8), (7, 6), (7, 2)]:
        F = GF(q)
        g = subgroup_generator(F, order)
        seen = {F.one}
        x = g
        while x != F.one:
            seen.add(x)
            x = F.mul(x, g)
        assert len(seen) == order


def test_tower_field_per_level():
    # the field holding level-2 eigenvalues over F_3 has 81 elements
    F = ext_field(GF(3), 4)
    assert F.size == 81
    g = subgroup_generator(F, 8)
    assert field_pow(F, g, 8) == F.one
    assert field_pow(F, g, 4) != F.one


def test_irreducible_counts_match_moebius_formula():
    for q in (2, 3, 5):
        F = GF(q)
        for d in (1, 2, 3):
            count = sum(q**r * moebius(d // r) for r in range(1, d + 1) if d % r == 0)
            assert len(irreducibles(F, d)) == count // d
    assert len(irreducibles(GF(4), 2)) == (16 - 4) // 2


def test_irreducibles_gf3_degree2():
    F = GF(3)
    assert irreducibles(F, 2) == ((1, 0, 1), (2, 1, 1), (2, 2, 1))


def test_least_irreducible_degree8_gf3():
    F = GF(3)
    h = least_irreducible(F, 8)
    assert len(h) == 9 and h[-1] == 1
    assert is_irreducible(F, h)


def test_is_irreducible_examples():
    F = GF(2)
    assert is_irreducible(F, (1, 1, 0, 1))  # x^3 + x + 1
    assert not is_irreducible(F, (1, 0, 1))  # x^2 + 1 = (x+1)^2
    assert not is_irreducible(F, (1,))  # constants are not irreducible
    F3 = GF(3)
    assert not is_irreducible(F3, (1, 0, 0, 0, 1))  # x^4 + 1 over F_3


def test_poly_to_str():
    F = GF(3)
    assert poly_to_str(F, (2, 1, 1)) == "x^2 + x + 2"
    assert poly_to_str(F, (0, 0, 1)) == "x^2"
    assert poly_to_str(F, ()) == "0"
    assert poly_to_str(F, (1,)) == "1"
    assert poly_to_str(F, (0, 2)) == "2*x"
    F9 = GF(9)
    h = (F9.zero, (1, 1), F9.one)
    assert poly_to_str(F9, h) == "x^2 + (y + 1)*x"


def test_monic_polys_order_and_count():
    F = GF(3)
    got = list(monic_polys(F, 2))
    assert len(got) == 9
    assert got[0] == (0, 0, 1)
    assert got[1] == (1, 0, 1)
    assert got[3] == (0, 1, 1)


def _poly(F, digits):
    """The polynomial with the given coefficient indices into F's elements."""
    elements = list(F.elements())
    return poly_trim(F, tuple(elements[d] for d in digits))


@settings(max_examples=120, deadline=None)
@given(q=st.sampled_from([5, 4]), data=st.data())
def test_poly_divmod_round_trip(q, data):
    # quot * b + r divides back to (quot, r) for every r of lower degree
    # than b, over GF(5) and GF(4)
    F = GF(q)
    coeffs = st.integers(0, q - 1)
    quot = _poly(F, data.draw(st.lists(coeffs, max_size=4)))
    b = _poly(F, data.draw(st.lists(coeffs, min_size=1, max_size=4)))
    if not b:
        return
    r = _poly(F, data.draw(st.lists(coeffs, max_size=len(b) - 1)))
    a = poly_add(F, poly_mul(F, quot, b), r)
    assert poly_divmod(F, a, b) == (quot, r)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 2), max_size=5),
    st.lists(st.integers(0, 2), max_size=5),
    st.lists(st.integers(0, 2), max_size=5))
def test_poly_ring_laws(a, b, c):
    F = GF(3)
    a, b, c = (poly_trim(F, tuple(v)) for v in (a, b, c))
    assert poly_mul(F, a, b) == poly_mul(F, b, a)
    lhs = poly_mul(F, a, poly_add(F, b, c))
    rhs = poly_add(F, poly_mul(F, a, b), poly_mul(F, a, c))
    assert lhs == rhs
    assert poly_sub(F, poly_add(F, a, b), b) == a


def test_poly_square_and_eval():
    F = GF(3)
    sq = poly_mul(F, (1, 1), (1, 1))  # (x + 1)^2 = x^2 + 2x + 1
    assert sq == (1, 2, 1)
    # evaluation at a is the remainder on division by x - a
    assert poly_divmod(F, sq, (F.neg(2), 1))[1] == ()  # 4 + 4 + 1 = 9
    assert poly_divmod(F, sq, (F.neg(1), 1))[1] == (1,)  # 1 + 2 + 1 = 4
    assert poly_divmod(F, (), (F.neg(1), 1))[1] == ()


# -- checks that survive python -O: each is fed a broken input ------------


def test_inverse_rejects_a_reducible_modulus(monkeypatch):
    # y^2 + 1 = (y + 1)^2 over GF(2): y + 1 has no inverse
    monkeypatch.setattr(gf, "least_irreducible", lambda F, degree: (1, 0, 1))
    F = ExtField(PrimeField(2), 2)
    with pytest.raises(ValueError, match="not irreducible"):
        F.inv((1, 1))


def test_subgroup_generator_rejects_a_field_without_primitive_root(monkeypatch):
    monkeypatch.setattr(gf, "field_pow", lambda F, a, k: F.one)
    with pytest.raises(ValueError, match="no primitive root"):
        subgroup_generator(GF(7), 3)


def test_subgroup_generator_rejects_a_generator_of_smaller_order(monkeypatch):
    # in GF(7) only the exact-order check raises to the power 3 // 3 = 1
    real = gf.field_pow
    monkeypatch.setattr(
        gf, "field_pow", lambda F, a, k: F.one if k == 1 else real(F, a, k))
    with pytest.raises(ValueError, match="has a smaller order"):
        subgroup_generator(GF(7), 3)


def test_subgroup_generator_rejects_a_generator_of_larger_order(monkeypatch):
    # in GF(13) only the last check raises to the power order = 3
    real = gf.field_pow
    monkeypatch.setattr(
        gf, "field_pow", lambda F, a, k: F.zero if k == 3 else real(F, a, k))
    with pytest.raises(ValueError, match="does not divide 3"):
        subgroup_generator(GF(13), 3)
