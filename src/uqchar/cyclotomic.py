"""Exact arithmetic in the cyclotomic fields Q(zeta_M).

Phi_M is the Moebius product of the (1 - x^d)^mu(M/d) over d | M, built in
one pass over the divisors of M.  The rows of z^e in the power basis past
z^(phi(M)-1) grow on demand, up to the largest exponent a reduction meets.

A value is sum c_i z^i over the power basis 1, z, ..., z^(phi(M)-1) of
Q[z]/(Phi_M(z)), divided by one positive denominator, and it is stored as its
nonzero terms: coeffs = ((i, c_i), ...) with i increasing and every c_i a
nonzero int, and den > 0 with gcd(den, *c_i) == 1; zero is ((), 1).  So
equality of values is equality of (coeffs, den) and hashing is sound.
Character values are cyclotomic integers, mostly sparse in this basis: their
denominator is 1.  A value has one way in, from_terms: int terms over one
int denominator, anything else (a float, a Fraction) raising ValueError.
A Fraction appears only to render or return a non-integer rational.
galois(a, k) is the field automorphism sigma_k: z -> z^k, k prime to M;
complex conjugation is sigma_(M-1).  Nothing in this module touches floating
point; approx() exists only so the CLI can attach labelled decimal
renderings.

The operators are those the program and its acceptance tests use: a + b,
a * b, a * n for an int n, a ** k, conjugate() and ==.  Values carry their
modulus.  Mixing moduli in arithmetic raises ModulusMismatch; callers lift
explicitly with embed(a, L) for M | L.

Sums of many products are cheapest left unreduced: a value is then a sparse
element of the group ring Z[Z/M], a sequence of (exponent mod M,
coefficient) terms, in which multiplying adds exponents.  A value's own
coeffs are such terms.  from_terms reduces an element, divided by one
integer, to the power basis and to canonical form; every value is made
there.  sum_of_products pairs sparse elements and reduces only their sum; a
product of two values is one such pair.  Both accumulate into a dict of the
terms they meet, never into a list as long as phi(M) or M.  Character rows
and verify's orthogonality are built this way, with one reduction per table
cell or per pair of rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .nt import divisors, euler_phi, moebius

# phi(M) caps the degree of the reduction tables.  No option raises it; the
# table builders call check_degree beside their cell bound, so an oversized
# field is refused before any row is built.
MAX_DEGREE = 1500


class ModulusMismatch(ValueError):
    """Arithmetic was attempted between values in different Q(zeta_M)."""


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, low to high, monic with integer entries.

    Phi_m = prod over d | m of (1 - x^d)^mu(m/d) for m > 1, taken as a power
    series cut at degree phi(m): a factor 1 - x^d subtracts the series
    shifted by d, a factor 1 / (1 - x^d) = 1 + x^d + x^2d + ... adds it.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if m == 1:
        return (-1, 1)
    top = euler_phi(m)
    s = [1] + [0] * top
    for d in divisors(m):
        mu = moebius(m // d)
        if mu == 1:
            for i in range(top, d - 1, -1):
                s[i] -= s[i - d]
        elif mu == -1:
            for i in range(d, top + 1):
                s[i] += s[i - d]
    if s[top] != 1 or s != s[::-1]:
        raise ValueError(f"Phi_{m} is not monic and palindromic of degree {top}")
    return tuple(s)


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
        # z^degree = -(lower part of Phi); higher rows extend on demand from
        # the dense form of the last one.
        self._top = tuple(-c for c in cyclotomic_polynomial(modulus)[:-1])
        self._rows: list[tuple[tuple[int, int], ...]] = [
            ((e, 1),) for e in range(self.degree)]
        self._last = tuple(int(i == self.degree - 1) for i in range(self.degree))

    def _grow(self, upto: int) -> None:
        top = self._top
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


def _rational(num: int, den: int) -> int | Fraction:
    """num / den as an int when den is 1, else as a Fraction."""
    return num if den == 1 else Fraction(num, den)


class Cyclotomic:
    """An element of Q(zeta_M): its nonzero power-basis terms over den.

    coeffs = ((i, c), ...) with i increasing in [0, phi(M)) and every c a
    nonzero int; den > 0 is coprime to the c.  from_terms makes every value
    and stores its hash: values key the memos of every table layer.

    The one value type that is not a NamedTuple.  coeffs can hold phi(M)
    terms, a tuple's hash is recomputed on every lookup, and the render
    cache and symfunc._shared look a value up once per table cell; a tuple
    base would also give values len, indexing and 3 * v as repetition.
    """

    __slots__ = ("modulus", "coeffs", "den", "_hash")

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic values are immutable")

    __delattr__ = __setattr__

    # -- ring ops ----------------------------------------------------------

    def _operand(self, other):
        if not isinstance(other, Cyclotomic):
            return None
        if other.modulus != self.modulus:
            raise ModulusMismatch(
                f"Q(zeta_{self.modulus}) vs Q(zeta_{other.modulus}); embed first")
        return other

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        return from_terms(
            self.modulus,
            [(i, a * db) for i, a in self.coeffs] + [(i, b * da) for i, b in o.coeffs],
            da * db)

    def __mul__(self, other):
        if isinstance(other, int):
            return from_terms(
                self.modulus, [(i, a * other) for i, a in self.coeffs], self.den)
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return sum_of_products(
            self.modulus, [(self.coeffs, o.coeffs)], self.den * o.den)

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
        return galois(self, self.modulus - 1)

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

    def __eq__(self, other):
        # values meet values in the memos' dict lookups: that case first
        if isinstance(other, Cyclotomic):
            return (self._hash == other._hash and self.modulus == other.modulus
                    and self.den == other.den and self.coeffs == other.coeffs)
        if isinstance(other, (int, Fraction)):
            # both denominators are positive: compare by cross-multiplying
            c = self._constant()
            return c is not None and c * other.denominator == other.numerator * self.den
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<{to_text(self)}>"


def zero(modulus: int) -> Cyclotomic:
    return from_terms(modulus, ())


def one(modulus: int) -> Cyclotomic:
    return from_terms(modulus, [(0, 1)])


def zeta(modulus: int, k: int = 1) -> Cyclotomic:
    """zeta_M^k as an exact value."""
    return from_terms(modulus, [(k, 1)])


def from_terms(modulus: int, terms, den: int = 1) -> Cyclotomic:
    """(sum c * zeta_M^e over the (e, c) in terms) / den, in canonical form.

    terms is a group-ring element of Z/M in sparse form: any integer
    exponents, repeated or not, with int coefficients; a value's coeffs are
    such terms.  den is a nonzero int.  The sum is reduced to the power
    basis once, in integers, and then divided by its gcd with den.  This is
    the only place a value is made.  A coefficient or den that is not an
    int, a float or a Fraction, raises ValueError: the final gcd refuses a
    nonzero one, and a zero term is checked where it is skipped.
    """
    if not den:
        raise ValueError("zero denominator")
    row = _field(modulus).row
    out: dict[int, int] = {}  # power-basis index -> numerator
    for e, c in terms:
        if c:
            for i, r in row(e % modulus):
                out[i] = out.get(i, 0) + c * r
        elif not isinstance(c, int):
            raise _not_int(c)
    try:
        g = gcd(den, *out.values())  # den itself when the sum is zero
    except TypeError:
        raise _not_int(next(
            x for x in (den, *out.values()) if not isinstance(x, int))) from None
    if den < 0:
        g = -g
    obj = object.__new__(Cyclotomic)
    coeffs = tuple((i, c // g) for i, c in sorted(out.items()) if c)
    den //= g
    object.__setattr__(obj, "modulus", modulus)
    object.__setattr__(obj, "coeffs", coeffs)
    object.__setattr__(obj, "den", den)
    object.__setattr__(obj, "_hash", hash((modulus, coeffs, den)))
    return obj


def _not_int(value) -> ValueError:
    return ValueError(f"inexact value of type {type(value).__name__}; need int")


def sum_of_products(modulus: int, pairs, den: int = 1) -> Cyclotomic:
    """(sum a * b over the pairs (a, b) of sparse terms) / den, reduced once.

    Each of a and b is a sequence of (e, c) terms as taken by from_terms, a
    value's coeffs among them; the products are convolved in the group ring
    of Z/M and only their sum is reduced to the power basis.
    """
    conv: dict[int, int] = {}  # exponent mod M -> coefficient
    for a, b in pairs:
        for e, c in a:
            for f, d in b:
                x = (e + f) % modulus
                conv[x] = conv.get(x, 0) + c * d
    return from_terms(modulus, conv.items(), den)


def galois(a: Cyclotomic, k: int) -> Cyclotomic:
    """sigma_k(a), the automorphism z -> z^k of Q(zeta_M); k prime to M."""
    m = a.modulus
    if gcd(k, m) != 1:
        raise ValueError(f"{k} is not a unit mod {m}")
    if a.is_rational():  # sigma_k fixes Q
        return a
    return from_terms(m, ((j * k, c) for j, c in a.coeffs), a.den)


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
