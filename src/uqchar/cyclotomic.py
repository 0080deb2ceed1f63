"""Exact arithmetic in the cyclotomic fields Q(zeta_M).

A value is a vector of Fractions in the power basis 1, z, ..., z^(phi(M)-1)
of Q[z]/(Phi_M(z)), eagerly reduced, so equality of values is equality of
coefficient tuples and hashing is sound.  Complex conjugation is the field
automorphism z -> z^(M-1).  Nothing in this module touches floating point;
approx() exists only so the CLI can attach labelled decimal renderings.

Values carry their modulus.  Mixing moduli in arithmetic raises
ModulusMismatch; callers lift explicitly with embed(a, L) for M | L.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import lcm

from .nt import divisors, euler_phi

_ZERO = Fraction(0)
_ONE = Fraction(1)

# phi(M) caps the degree of the reduction tables; large moduli would only
# arise from resource-bounded paths that refuse earlier.
MAX_DEGREE = 1500


class ModulusMismatch(ValueError):
    """Arithmetic was attempted between values in different Q(zeta_M)."""


def _poly_divexact_int(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    """Exact division of integer polynomials (low-to-high coeffs), den monic."""
    assert den[-1] == 1
    num_l = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    out = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num_l[k + dd]
        out[k] = c
        if c:
            for j, dj in enumerate(den):
                num_l[k + j] -= c * dj
    assert all(c == 0 for c in num_l), "non-exact cyclotomic division"
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
    assert len(num) - 1 == euler_phi(m)
    return num


class _Field:
    """Reduction tables for one modulus: z^e mod Phi_M as integer rows."""

    def __init__(self, modulus: int):
        self.modulus = modulus
        self.degree = euler_phi(modulus)
        if self.degree > MAX_DEGREE:
            raise ValueError(
                f"cyclotomic modulus {modulus} too large (phi = {self.degree})")
        self.poly = cyclotomic_polynomial(modulus)
        # z^degree = -(lower part of Phi); higher rows extend on demand.
        self._rows: list[tuple[int, ...]] = [
            tuple(1 if i == e else 0 for i in range(self.degree))
            for e in range(self.degree)
        ]
        self._grow(2 * self.degree - 2)

    def _grow(self, upto: int) -> None:
        top = tuple(-c for c in self.poly[: self.degree])
        while len(self._rows) <= upto:
            prev = self._rows[-1]
            shifted = (0,) + prev[:-1]
            carry = prev[-1]
            if carry:
                shifted = tuple(s + carry * t for s, t in zip(shifted, top))
            self._rows.append(shifted)

    def row(self, e: int) -> tuple[int, ...]:
        if e >= len(self._rows):
            self._grow(e)
        return self._rows[e]


_fields: dict[int, _Field] = {}


def _field(modulus: int) -> _Field:
    f = _fields.get(modulus)
    if f is None:
        f = _fields[modulus] = _Field(modulus)
    return f


class Cyclotomic:
    """An element of Q(zeta_M) in reduced power-basis form."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs):
        fld = _field(modulus)
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != fld.degree:
            raise ValueError(
                f"need {fld.degree} coefficients for Q(zeta_{modulus}), got {len(cs)}")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic values are immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _raw(modulus: int, coeffs: tuple[Fraction, ...]) -> "Cyclotomic":
        obj = object.__new__(Cyclotomic)
        object.__setattr__(obj, "modulus", modulus)
        object.__setattr__(obj, "coeffs", coeffs)
        return obj

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
        return Cyclotomic._raw(
            self.modulus, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._raw(self.modulus, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._raw(
            self.modulus, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return Cyclotomic._raw(self.modulus, tuple(a * s for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        fld = _field(self.modulus)
        deg = fld.degree
        conv = [_ZERO] * (2 * deg - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(o.coeffs):
                    if bj:
                        conv[i + j] += ai * bj
        out = list(conv[:deg])
        for e in range(deg, 2 * deg - 1):
            c = conv[e]
            if c:
                row = fld.row(e)
                for i, ri in enumerate(row):
                    if ri:
                        out[i] += c * ri
        return Cyclotomic._raw(self.modulus, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            if s == 0:
                raise ZeroDivisionError("division of cyclotomic value by zero")
            return self * (1 / s)
        return NotImplemented

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
        fld = _field(self.modulus)
        out = [_ZERO] * fld.degree
        for j, cj in enumerate(self.coeffs):
            if cj:
                row = fld.row((j * (self.modulus - 1)) % self.modulus)
                for i, ri in enumerate(row):
                    if ri:
                        out[i] += cj * ri
        return Cyclotomic._raw(self.modulus, tuple(out))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def is_real(self) -> bool:
        return self == self.conjugate()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.modulus == other.modulus and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.modulus, self.coeffs))

    def __repr__(self):
        return f"<{to_text(self)}>"


def zero(modulus: int) -> Cyclotomic:
    return from_rational(modulus, 0)


def one(modulus: int) -> Cyclotomic:
    return from_rational(modulus, 1)


def from_rational(modulus: int, r) -> Cyclotomic:
    fld = _field(modulus)
    return Cyclotomic._raw(
        modulus, (Fraction(r),) + (_ZERO,) * (fld.degree - 1))


def zeta(modulus: int, k: int = 1) -> Cyclotomic:
    """zeta_M^k as an exact value."""
    fld = _field(modulus)
    row = fld.row(k % modulus)
    return Cyclotomic._raw(modulus, tuple(Fraction(c) for c in row))


def classify(a: Cyclotomic) -> tuple[str, Fraction | None]:
    """("rational", value) / ("real", None) / ("nonreal", None), exactly."""
    if a.is_rational():
        return ("rational", a.coeffs[0])
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
    fld = _field(modulus)
    out = [_ZERO] * fld.degree
    for j, cj in enumerate(a.coeffs):
        if cj:
            row = fld.row((j * step) % modulus)
            for i, ri in enumerate(row):
                if ri:
                    out[i] += cj * ri
    return Cyclotomic._raw(modulus, tuple(out))


def same_value(a: Cyclotomic, b: Cyclotomic) -> bool:
    """Equality as complex numbers, lifting to a common modulus first."""
    if a.modulus == b.modulus:
        return a == b
    common = lcm(a.modulus, b.modulus)
    return embed(a, common) == embed(b, common)


# -- canonical text form ---------------------------------------------------

_HEADER_RE = re.compile(r"^Q\(zeta_(\d+)\):\s*(.*)$")
_TERM_RE = re.compile(
    r"^(?:(?P<coeff>-?\d+(?:/\d+)?)(?:\*(?P<mz>z(?:\^(?P<mk>\d+))?))?"
    r"|(?P<sign>-?)(?P<z>z(?:\^(?P<k>\d+))?))$")


def to_text(a: Cyclotomic) -> str:
    """Canonical text form, e.g. 'Q(zeta_8): 1/2 - z + 3*z^2'."""
    parts = []
    for e, c in enumerate(a.coeffs):
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if e == 0:
            body = str(mag)
        else:
            zs = "z" if e == 1 else f"z^{e}"
            body = zs if mag == 1 else f"{mag}*{zs}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    body = " ".join(parts) if parts else "0"
    return f"Q(zeta_{a.modulus}): {body}"


def from_text(text: str) -> Cyclotomic:
    m = _HEADER_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a cyclotomic literal: {text!r}")
    modulus = int(m.group(1))
    body = m.group(2).strip()
    acc = zero(modulus)
    if body == "0" or body == "":
        return acc
    body = body.replace(" - ", " + -").split(" + ")
    for raw in body:
        t = _TERM_RE.match(raw.replace(" ", ""))
        if not t:
            raise ValueError(f"bad cyclotomic term {raw!r} in {text!r}")
        if t.group("coeff") is not None:
            c = Fraction(t.group("coeff"))
            if t.group("mz"):
                e = int(t.group("mk") or 1)
            else:
                e = 0
        else:
            c = Fraction(-1 if t.group("sign") == "-" else 1)
            e = int(t.group("k") or 1)
        acc = acc + c * zeta(modulus, e)
    return acc


def approx(a: Cyclotomic) -> complex:
    """Float approximation (CLI rendering only; never used in computations)."""
    from cmath import exp, pi

    z = exp(2j * pi / a.modulus)
    val = 0j
    for e in range(len(a.coeffs) - 1, -1, -1):
        val = val * z + complex(a.coeffs[e])
    return val
