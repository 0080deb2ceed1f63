"""Exact arithmetic in the cyclotomic fields Q(zeta_M).

A value is sum c_i z^i over the power basis 1, z, ..., z^(phi(M)-1) of
Q[z]/(Phi_M(z)), divided by one positive denominator, and it is stored as its
nonzero terms: coeffs = ((i, c_i), ...) with i increasing and every c_i a
nonzero int, and den > 0 with gcd(den, *c_i) == 1; zero is ((), 1).  So
equality of values is equality of (coeffs, den) and hashing is sound.
Character values are cyclotomic integers, mostly sparse in this basis: their
denominator is 1, and no Fraction is built for them; a Fraction appears only
to render or return a rational that is not an integer.  Coefficients come in
as int or Fraction; anything else, a float say, raises ValueError.  Complex
conjugation is the field automorphism z -> z^(M-1).  Nothing in this module
touches floating point; approx() exists only so the CLI can attach labelled
decimal renderings.

Values carry their modulus.  Mixing moduli in arithmetic raises
ModulusMismatch; callers lift explicitly with embed(a, L) for M | L.

Sums of many products are cheapest left unreduced: a value is then a sparse
element of the group ring Z[Z/M], a sequence of (exponent mod M,
coefficient) terms, in which multiplying adds exponents.  A value's own
coeffs are such terms.  from_terms reduces an element, divided by one
integer, to the power basis and to canonical form; every value is made
there.  sum_of_products pairs sparse elements and reduces only their sum; a
product of two values is one such pair.  Character rows and verify's
orthogonality are built this way, with one reduction per table cell or per
pair of rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .nt import divisors, euler_phi

# phi(M) caps the degree of the reduction tables.  No option raises it; the
# table builders call check_degree beside their cell bound, so an oversized
# field is refused before any row is built.
MAX_DEGREE = 1500


class ModulusMismatch(ValueError):
    """Arithmetic was attempted between values in different Q(zeta_M)."""


def _poly_divexact_int(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    """Exact division of integer polynomials (low-to-high coeffs), den monic."""
    if den[-1] != 1:
        raise ValueError(f"divisor {den} is not monic")
    num_l = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    out = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num_l[k + dd]
        out[k] = c
        if c:
            for j, dj in enumerate(den):
                num_l[k + j] -= c * dj
    if any(num_l):
        raise ValueError(f"{den} does not divide {num} exactly")
    return tuple(out)


@cache
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, low to high, monic with integer entries."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if m == 1:
        return (-1, 1)
    num = tuple([-1] + [0] * (m - 1) + [1])  # x^m - 1
    for d in divisors(m):
        if d < m:
            num = _poly_divexact_int(num, cyclotomic_polynomial(d))
    if len(num) - 1 != euler_phi(m):
        raise ValueError(
            f"Phi_{m} came out of degree {len(num) - 1}, not {euler_phi(m)}")
    return num


def check_degree(modulus: int) -> int:
    """phi(modulus), the degree of Q(zeta_modulus); ValueError above MAX_DEGREE."""
    degree = euler_phi(modulus)
    if degree > MAX_DEGREE:
        raise ValueError(f"cyclotomic modulus {modulus} too large (phi = {degree})")
    return degree


class _Field:
    """Reduction tables for one modulus: z^e mod Phi_M as integer rows.

    A row holds the (index, coefficient) pairs of its nonzero entries.
    """

    def __init__(self, modulus: int):
        self.modulus = modulus
        self.degree = check_degree(modulus)
        self.poly = cyclotomic_polynomial(modulus)
        # z^degree = -(lower part of Phi); higher rows extend on demand from
        # the dense form of the last one.
        self._rows: list[tuple[tuple[int, int], ...]] = [
            ((e, 1),) for e in range(self.degree)]
        self._last = tuple(int(i == self.degree - 1) for i in range(self.degree))
        self._grow(2 * self.degree - 2)

    def _grow(self, upto: int) -> None:
        top = tuple(-c for c in self.poly[: self.degree])
        while len(self._rows) <= upto:
            prev = self._last
            shifted = (0,) + prev[:-1]
            carry = prev[-1]
            if carry:
                shifted = tuple(s + carry * t for s, t in zip(shifted, top))
            self._last = shifted
            self._rows.append(tuple((i, r) for i, r in enumerate(shifted) if r))

    def row(self, e: int) -> tuple[tuple[int, int], ...]:
        if e >= len(self._rows):
            self._grow(e)
        return self._rows[e]


_fields: dict[int, _Field] = {}


def _field(modulus: int) -> _Field:
    f = _fields.get(modulus)
    if f is None:
        f = _fields[modulus] = _Field(modulus)
    return f


def _over_one_denominator(values: list) -> tuple[list[int], int]:
    """(numerators, d): the int or Fraction values as integers over d > 0.

    A list of ints comes back as it is, with d = 1.  Raises ValueError on
    any other type, such as a float.
    """
    kinds = set(map(type, values))
    if kinds <= {int}:
        return values, 1
    for kind in kinds:
        if not issubclass(kind, (int, Fraction)):
            raise ValueError(
                f"inexact coefficient of type {kind.__name__}; "
                "need int or Fraction")
    den = lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


def _rational(num: int, den: int) -> int | Fraction:
    """num / den as an int when den is 1, else as a Fraction."""
    return num if den == 1 else Fraction(num, den)


class Cyclotomic:
    """An element of Q(zeta_M): its nonzero power-basis terms over den.

    coeffs = ((i, c), ...) with i increasing in [0, phi(M)) and every c a
    nonzero int; den > 0 is coprime to the c.  Cyclotomic(M, dense) takes
    all phi(M) power-basis coefficients, int or Fraction; from_terms makes
    every value.
    """

    __slots__ = ("modulus", "coeffs", "den")

    def __new__(cls, modulus: int, coeffs):
        coeffs = list(coeffs)
        degree = _field(modulus).degree
        if len(coeffs) != degree:
            raise ValueError(
                f"need {degree} coefficients for Q(zeta_{modulus}), got {len(coeffs)}")
        return from_terms(modulus, enumerate(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic values are immutable")

    # -- ring ops ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.modulus != self.modulus:
                raise ModulusMismatch(
                    f"Q(zeta_{self.modulus}) vs Q(zeta_{other.modulus}); embed first")
            return other
        if isinstance(other, (int, Fraction)):
            return from_rational(self.modulus, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        return from_terms(
            self.modulus,
            [(i, a * db) for i, a in self.coeffs] + [(i, b * da) for i, b in o.coeffs],
            da * db)

    __radd__ = __add__

    def __neg__(self):
        return from_terms(self.modulus, [(i, -a) for i, a in self.coeffs], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = other.numerator
            return from_terms(
                self.modulus, [(i, a * s) for i, a in self.coeffs],
                self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return sum_of_products(
            self.modulus, [(self.coeffs, o.coeffs)], self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = one(self.modulus)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, the automorphism z -> z^(M-1)."""
        m = self.modulus
        return from_terms(
            m, ((j * (m - 1), c) for j, c in self.coeffs), self.den)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _constant(self) -> int | None:
        """The numerator c of a rational value c / den; None if not rational."""
        terms = self.coeffs
        if not terms:
            return 0
        if len(terms) == 1 and terms[0][0] == 0:
            return terms[0][1]
        return None

    def is_rational(self) -> bool:
        return self._constant() is not None

    def rational_value(self) -> int | Fraction:
        c = self._constant()
        if c is None:
            raise ValueError(f"{self!r} is not rational")
        return _rational(c, self.den)

    def is_real(self) -> bool:
        return self == self.conjugate()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # both denominators are positive: compare by cross-multiplying
            c = self._constant()
            return c is not None and c * other.denominator == other.numerator * self.den
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return (self.modulus == other.modulus and self.den == other.den
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.modulus, self.coeffs, self.den))

    def __repr__(self):
        return f"<{to_text(self)}>"


def zero(modulus: int) -> Cyclotomic:
    return from_rational(modulus, 0)


def one(modulus: int) -> Cyclotomic:
    return from_rational(modulus, 1)


def from_rational(modulus: int, r) -> Cyclotomic:
    return from_terms(modulus, [(0, r)])


def zeta(modulus: int, k: int = 1) -> Cyclotomic:
    """zeta_M^k as an exact value."""
    return from_terms(modulus, [(k, 1)])


def from_terms(modulus: int, terms, den: int = 1) -> Cyclotomic:
    """(sum c * zeta_M^e over the (e, c) in terms) / den, in canonical form.

    terms is a group-ring element of Z/M (or Q[Z/M]) in sparse form: any
    integer exponents, repeated or not, with int or Fraction coefficients; a
    value's coeffs are such terms.  den is a nonzero integer.  The sum is
    reduced to the power basis once, in integers over den times the
    coefficients' common denominator, and then divided by its gcd with that
    denominator.  This is the only place a value is made.
    """
    if not isinstance(den, int):
        raise ValueError(f"denominator {den!r} is not an integer")
    if not den:
        raise ValueError("zero denominator")
    terms = list(terms)
    cs = [c for _, c in terms]
    nums, scale = _over_one_denominator(cs)
    if nums is not cs:  # not all ints: reduce the numerators instead
        terms = zip([e for e, _ in terms], nums)
    fld = _field(modulus)
    row = fld.row
    out = [0] * fld.degree
    for e, c in terms:
        if c:
            for i, r in row(e % modulus):
                out[i] += c * r
    den *= scale
    g = gcd(den, *out)  # den itself when the sum is zero
    if den < 0:
        g = -g
    obj = object.__new__(Cyclotomic)
    object.__setattr__(obj, "modulus", modulus)
    object.__setattr__(
        obj, "coeffs", tuple((i, c // g) for i, c in enumerate(out) if c))
    object.__setattr__(obj, "den", den // g)
    return obj


def sum_of_products(modulus: int, pairs, den: int = 1) -> Cyclotomic:
    """(sum a * b over the pairs (a, b) of sparse terms) / den, reduced once.

    Each of a and b is a sequence of (e, c) terms as taken by from_terms, a
    value's coeffs among them; the products are convolved in the group ring
    of Z/M and only their sum is reduced to the power basis.
    """
    conv = [0] * modulus
    for a, b in pairs:
        for e, c in a:
            for f, d in b:
                conv[(e + f) % modulus] += c * d
    return from_terms(modulus, enumerate(conv), den)


def classify(a: Cyclotomic) -> tuple[str, int | Fraction | None]:
    """("rational", value) / ("real", None) / ("nonreal", None), exactly."""
    if a.is_rational():
        return ("rational", a.rational_value())
    if a.is_real():
        return ("real", None)
    return ("nonreal", None)


def embed(a: Cyclotomic, modulus: int) -> Cyclotomic:
    """The image of a under Q(zeta_M) -> Q(zeta_L), zeta_M -> zeta_L^(L/M)."""
    if modulus % a.modulus:
        raise ModulusMismatch(
            f"cannot embed Q(zeta_{a.modulus}) in Q(zeta_{modulus})")
    if modulus == a.modulus:
        return a
    step = modulus // a.modulus
    return from_terms(modulus, ((j * step, c) for j, c in a.coeffs), a.den)


def same_value(a: Cyclotomic, b: Cyclotomic) -> bool:
    """Equality as complex numbers, lifting to a common modulus first."""
    if a.modulus == b.modulus:
        return a == b
    common = lcm(a.modulus, b.modulus)
    return embed(a, common) == embed(b, common)


# -- canonical text form ---------------------------------------------------

def to_text(a: Cyclotomic) -> str:
    """Canonical text form, e.g. 'Q(zeta_8): 1/2 - z + 3*z^2'."""
    parts = []
    den = a.den
    for e, c in a.coeffs:
        neg = c < 0
        mag = _rational(-c if neg else c, den)
        if e == 0:
            body = str(mag)
        else:
            zs = "z" if e == 1 else f"z^{e}"
            body = zs if mag == 1 else f"{mag}*{zs}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    body = " ".join(parts) if parts else "0"
    return f"Q(zeta_{a.modulus}): {body}"


def approx(a: Cyclotomic) -> complex:
    """Float approximation (CLI rendering only; never used in computations)."""
    from cmath import exp, pi

    z = exp(2j * pi / a.modulus)
    dense = [0] * _field(a.modulus).degree
    for e, c in a.coeffs:
        dense[e] = c
    val = 0j
    # Horner over every power, zeros included, so the float operations are
    # the same for every value of a field; c / den is the correctly rounded
    # float of the rational coefficient
    for c in reversed(dense):
        val = val * z + complex(c / a.den)
    return val
