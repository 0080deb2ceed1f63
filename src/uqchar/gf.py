"""Small finite fields and polynomial arithmetic over them.

Fields are either a prime field (elements are ints 0..p-1) or a single
extension of one (elements are fixed-length tuples of base elements,
low-degree coordinate first).  One counter orders everything that is
enumerated: counter(F, k) lists the k-tuples over F as base-q digits with the
first coordinate varying fastest.  An extension field's elements are its
counter over the base, and monic_polys lists the coefficients below the
leading one in the same order.  Extensions reduce modulo the first monic
irreducible in that order, and subgroup generators come from the first
primitive element in it, so every field, modulus and generator is
reproducible across runs.

Polynomials over a field are trimmed tuples of coefficients, low degree
first; the zero polynomial is ().  Each job has one algorithm: products by
schoolbook multiplication, division by long division (poly_divmod, whose
quotient the extended Euclid of ExtField.inv reads), and powers by
field_pow's square-and-multiply.  Everything here is sized for degrees in
the single digits over fields with at most a few thousand elements.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .nt import factorint, prime_power


class PrimeField:
    def __init__(self, p: int):
        hit = prime_power(p)
        if hit is None or hit[1] != 1:
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.size = p
        self.char = p
        self.zero = 0
        self.one = 1

    def elements(self):
        return range(self.p)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def describe(self) -> str:
        return f"GF({self.p})"

    def coeff_str(self, a) -> str:
        return str(a)


class ExtField:
    """base[y] / (modulus), elements as length-degree tuples over base."""

    def __init__(self, base, degree: int):
        if degree < 2:
            raise ValueError("extension degree must be at least 2")
        self.base = base
        self.degree = degree
        self.size = base.size**degree
        self.char = base.char
        self.modulus = least_irreducible(base, degree)
        self.zero = (base.zero,) * degree
        self.one = (base.one,) + (base.zero,) * (degree - 1)

    def elements(self):
        return counter(self.base, self.degree)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        prod = poly_mul(self.base, poly_trim(self.base, a), poly_trim(self.base, b))
        _, rem = poly_divmod(self.base, prod, self.modulus)
        return self._pad(rem)

    def inv(self, a):
        # extended Euclid in base[y]
        r0, r1 = self.modulus, poly_trim(self.base, a)
        if not r1:
            raise ZeroDivisionError("inverse of zero")
        s0, s1 = (), (self.base.one,)
        while r1:
            quot, rem = poly_divmod(self.base, r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, poly_sub(self.base, s0, poly_mul(self.base, quot, s1))
        if len(r0) != 1:
            raise ValueError(f"modulus {self.modulus} is not irreducible")
        scale = self.base.inv(r0[0])
        return self._pad(tuple(self.base.mul(scale, c) for c in s0))

    def to_base(self, a):
        """The base field element a stands for; raises if a is not in the base field."""
        if any(c != self.base.zero for c in a[1:]):
            raise ValueError(f"{a} does not lie in the base field")
        return a[0]

    def _pad(self, cs):
        return tuple(cs) + (self.base.zero,) * (self.degree - len(cs))

    def describe(self) -> str:
        body = poly_to_str(self.base, self.modulus, var="y")
        return f"GF({self.size})={self.base.describe()}[y]/({body})"

    def coeff_str(self, a) -> str:
        s = poly_to_str(self.base, poly_trim(self.base, a), var="y")
        return f"({s})" if ("+" in s or "-" in s or "y" in s) else s


def field_pow(F, a, k: int):
    if k < 0:
        raise ValueError(f"negative exponent {k}")
    out = F.one
    base = a
    while k:
        if k & 1:
            out = F.mul(out, base)
        base = F.mul(base, base)
        k >>= 1
    return out


@cache
def GF(q: int):
    hit = prime_power(q)
    if hit is None:
        raise ValueError(f"{q} is not a prime power")
    p, k = hit
    return PrimeField(p) if k == 1 else ExtField(PrimeField(p), k)


@cache
def ext_field(base, degree: int) -> ExtField:
    return ExtField(base, degree)


# -- polynomials (tuples, low degree first) --------------------------------


def poly_trim(F, cs):
    cs = tuple(cs)
    while cs and cs[-1] == F.zero:
        cs = cs[:-1]
    return cs


def poly_sub(F, a, b):
    n = max(len(a), len(b))
    a = a + (F.zero,) * (n - len(a))
    b = b + (F.zero,) * (n - len(b))
    return poly_trim(F, tuple(F.sub(x, y) for x, y in zip(a, b)))


def poly_mul(F, a, b):
    if not a or not b:
        return ()
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == F.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return poly_trim(F, tuple(out))


def poly_divmod(F, a, b):
    b = poly_trim(F, b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(poly_trim(F, a))
    lead_inv = F.inv(b[-1])
    deg_b = len(b) - 1
    quot = [F.zero] * max(0, len(a) - deg_b)
    while len(a) - 1 >= deg_b and a:
        shift = len(a) - 1 - deg_b
        factor = F.mul(a[-1], lead_inv)
        quot[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] = F.sub(a[shift + i], F.mul(factor, c))
        while a and a[-1] == F.zero:
            a.pop()
    return poly_trim(F, tuple(quot)), poly_trim(F, tuple(a))


def counter(F, k: int):
    """All k-tuples over F in counter order: the first coordinate varies fastest."""
    return (tuple(reversed(t)) for t in product(F.elements(), repeat=k))


def monic_polys(F, degree: int):
    """All monic polynomials of the given degree, in counter order."""
    return (digits + (F.one,) for digits in counter(F, degree))


def is_irreducible(F, h) -> bool:
    """Trial division by every monic polynomial up to half the degree."""
    h = poly_trim(F, h)
    deg = len(h) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for g in monic_polys(F, d):
            if not poly_divmod(F, h, g)[1]:
                return False
    return True


def least_irreducible(F, degree: int):
    for g in monic_polys(F, degree):
        if is_irreducible(F, g):
            return g
    raise ValueError(f"no irreducible of degree {degree} over {F.describe()}")


@cache
def subgroup_generator(F, order: int):
    """An element of exact multiplicative order `order`, deterministically.

    Scans the canonical element order for the first primitive root, then
    powers it down; the subgroup of each order therefore gets a fixed,
    reproducible generator.  Cached: GF and ext_field hand out one field
    object per field, so each scan runs once per (field, order).
    """
    group = F.size - 1
    if order < 1 or group % order:
        raise ValueError(f"no subgroup of order {order} in {F.describe()}")
    primes = [p for p, _ in factorint(group)]
    prim = None
    for a in F.elements():
        if a == F.zero:
            continue
        if all(field_pow(F, a, group // p) != F.one for p in primes):
            prim = a
            break
    if prim is None:
        raise ValueError(f"no primitive root found in {F.describe()}")
    g = field_pow(F, prim, group // order)
    for p, _ in factorint(order):
        if field_pow(F, g, order // p) == F.one:
            raise ValueError(f"generator for order {order} has a smaller order")
    if field_pow(F, g, order) != F.one:
        raise ValueError(f"generator's order does not divide {order}")
    return g


def poly_to_str(F, h, var: str = "x") -> str:
    h = poly_trim(F, h)
    if not h:
        return "0"
    pieces = []
    for i in range(len(h) - 1, -1, -1):
        c = h[i]
        if c == F.zero:
            continue
        if i == 0:
            pieces.append(F.coeff_str(c))
        else:
            head = "" if c == F.one else f"{F.coeff_str(c)}*"
            power = var if i == 1 else f"{var}^{i}"
            pieces.append(f"{head}{power}")
    return " + ".join(pieces)
