"""Tori of the unitary groups in exponent coordinates, with Frobenius orbits.

T_d is cyclic of order M_d = q^d - (-1)^d, and at working degree n the levels
d run over 1..n.  A compatible family of generators g_d = N_{N,d}(g_N), with
N = lcm(1..n) so that every level divides it, is fixed once and for all;
every element of T_d is stored as its exponent in g_d, every character of T_d
as its exponent against g_d.  In these coordinates:

  * the Frobenius acts on both sides by e -> -q e  (mod M_d);
  * the norm N_{m,r}: T_m -> T_r for r | m is reduction mod M_r, because the
    geometric multiplier S_{m,r} = sum_{i<m/r} (-q)^{ri} satisfies
    S_{N,m} S_{m,r} = S_{N,r} as integers (the torus tests compare the
    reduction with the literal multiplier);
  * the inclusion T_r -> T_m is multiplication by S_{m,r};
  * the transpose-of-norm on characters is multiplication by M_m / M_r, and
    a character exponent c restricts to T_1 as S_{m,1} c = (-1)^(m-1) c
    mod M_1, alike for every exponent of an orbit since -q = 1 mod M_1.

Orbits are canonicalized at their exact level (the level equals the orbit
size), keyed by the minimal exponent in the orbit at that level.  Both sides
are Z/M_d under the same action, so a character orbit and an element orbit
with the same exponents are the same (level, min_exponent) label; the side a
label speaks of is recorded by the multipartition that carries it.  Orbits
are counted without a walk: F^k fixes exactly T_k, of order M_k, and
subgroups of a cyclic group meet in the one of gcd order, so the subgroup of
Z/M_d of order A holds (1/d) sum_{k | d} mu(d/k) gcd(A, M_k) orbits of exact
size d.  A = M_d counts them all.
"""

from __future__ import annotations

from functools import cache
from math import gcd, lcm
from typing import NamedTuple

from . import cyclotomic
from .nt import divisors, moebius, prime_power

THETA = "theta"   # character side
PHI = "phi"       # element side
SIDES = (THETA, PHI)


def modulus_of(q: int, d: int) -> int:
    """M_d = q^d - (-1)^d."""
    return q**d - (-1) ** d


def norm_multiplier(q: int, m: int, r: int) -> int:
    """S_{m,r} = sum_{i=0}^{m/r-1} (-q)^{ri} = (-1)^(m-r) M_m / M_r."""
    if m % r:
        raise ValueError(f"need r | m, got r={r}, m={m}")
    s = sum((-q) ** (r * i) for i in range(m // r))
    if s != (-1) ** (m - r) * modulus_of(q, m) // modulus_of(q, r):
        raise ValueError(f"S_{{{m},{r}}} = {s} is not (-1)^(m-r) M_m / M_r")
    return s


class _Context(NamedTuple):
    q: int
    n: int


class TorusContext(_Context):
    """Fixes q and a working degree n; levels run over 1..n.

    A NamedTuple of (q, n), so it equals and hashes like that pair; the
    subclass only refuses a q that is not a prime power and an n below 1.
    """

    __slots__ = ()

    def __new__(cls, q: int, n: int):
        if prime_power(q) is None:
            raise ValueError(f"q must be a prime power >= 2, got {q}")
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        return super().__new__(cls, q, n)

    def modulus(self, d: int) -> int:
        if not 1 <= d <= self.n:
            raise ValueError(f"level {d} is not in 1..{self.n}")
        return modulus_of(self.q, d)

    @property
    def cyclo_modulus(self) -> int:
        """Common cyclotomic modulus for all values at degree n: lcm of M_1..M_n."""
        return cyclo_modulus_of(self.q, self.n)


@cache
def cyclo_modulus_of(q: int, n: int) -> int:
    """lcm of M_1..M_n."""
    return lcm(*(modulus_of(q, d) for d in range(1, n + 1)))


class OrbitLabel(NamedTuple):
    """A Frobenius orbit at its exact level; size always equals level.

    The same label names a character orbit and an element orbit.  Ordering is
    (level, exponent), which is the canonical orbit order everywhere.
    """

    level: int
    min_exponent: int


def _orbit_exponents_at(q: int, m: int, e: int) -> tuple[int, ...]:
    """The orbit of e under e -> -q e mod M_m, starting from e."""
    mod = modulus_of(q, m)
    e %= mod
    out = [e]
    cur = (-q * e) % mod
    while cur != e:
        out.append(cur)
        cur = (-q * cur) % mod
    return tuple(out)


def frobenius_orbit(ctx: TorusContext, d: int, e: int) -> OrbitLabel:
    """Canonical label of the orbit of exponent e at level d.

    The orbit size s divides d and the element already lies in T_s, so the
    label is expressed at level s with the minimal exponent of the orbit.
    """
    ctx.modulus(d)
    orbit = _orbit_exponents_at(ctx.q, d, e)
    s = len(orbit)
    if s == d:
        return OrbitLabel(d, min(orbit))
    # descend e to level s: e must be a multiple of M_d / M_s
    if d % s:
        raise ValueError(f"orbit of {e} at level {d} has size {s}, not a divisor")
    big, small = ctx.modulus(d), ctx.modulus(s)
    step = big // small
    e %= big
    if e % step:
        raise ValueError(f"exponent {e} at level {d} does not lie in T_{s}")
    down = ((-1) ** (d - s) * (e // step)) % small
    sub = _orbit_exponents_at(ctx.q, s, down)
    if len(sub) != s:
        raise ValueError(f"orbit of {down} at level {s} has size {len(sub)}")
    return OrbitLabel(s, min(sub))


def orbit_exponents(ctx: TorusContext, o: OrbitLabel) -> tuple[int, ...]:
    """All exponents of the orbit at its own level, starting at the minimum."""
    orbit = _orbit_exponents_at(ctx.q, o.level, o.min_exponent)
    if len(orbit) != o.level:
        raise ValueError(f"orbit {o} has {len(orbit)} exponents")
    return orbit


def exact_orbits(ctx: TorusContext, d: int) -> tuple[OrbitLabel, ...]:
    """All orbits of exact size d (at level d), in canonical order."""
    mod = ctx.modulus(d)
    seen = bytearray(mod)
    out = []
    for e in range(mod):
        if seen[e]:
            continue
        orbit = _orbit_exponents_at(ctx.q, d, e)
        for x in orbit:
            seen[x] = 1
        if len(orbit) == d:
            out.append(OrbitLabel(d, e))
    return tuple(out)


def _orbit_count(ctx: TorusContext, d: int, order: int) -> int:
    """Orbits of exact size d in the subgroup of Z/M_d of that order (see above)."""
    total = sum(moebius(d // k) * gcd(order, ctx.modulus(k)) for k in divisors(d))
    if total % d:
        raise ValueError(f"Moebius count {total} is not divisible by d = {d}")
    return total // d


def count_exact_orbits(ctx: TorusContext, d: int) -> int:
    """Moebius count over all of T_d: (1/d) sum_{k | d} mu(d/k) M_k."""
    return _orbit_count(ctx, d, ctx.modulus(d))


def count_self_conjugate_orbits(ctx: TorusContext, d: int) -> tuple[int, int]:
    """Self-conjugate orbits of exact size d: (trivial, order two) on T_1.

    -e = (-q)^i e with d | 2i: for even d, i = d/2 and M_(d/2) divides e;
    else 2e = 0, so no orbit has odd size d > 1.  Trivial on T_1: M_1 | e.
    """
    mod = ctx.modulus(d)
    order = gcd(2, mod) if d % 2 else mod // ctx.modulus(d // 2)
    trivial = _orbit_count(ctx, d, gcd(order, mod // ctx.modulus(1)))
    return trivial, _orbit_count(ctx, d, order) - trivial


def orbits_up_to(ctx: TorusContext, n: int) -> tuple[OrbitLabel, ...]:
    """All orbits of size <= n, canonically ordered; the label universe at degree n."""
    out = []
    for d in range(n, 0, -1):  # the largest table first: a failed allocation fails fast
        out.extend(exact_orbits(ctx, d))
    return tuple(sorted(out))


@cache
def conjugate_orbit(ctx: TorusContext, o: OrbitLabel) -> OrbitLabel:
    """The orbit of the inverse element / inverse character."""
    return frobenius_orbit(ctx, o.level, -o.min_exponent)


def lift_element(ctx: TorusContext, r: int, m: int, e: int) -> int:
    """Exponent of the inclusion T_r -> T_m: multiply by S_{m,r}."""
    return (norm_multiplier(ctx.q, m, r) * e) % ctx.modulus(m)


def lift_character(ctx: TorusContext, r: int, m: int, c: int) -> int:
    """Transpose of the norm on characters: multiply by M_m / M_r."""
    if m % r:
        raise ValueError(f"need r | m, got r={r}, m={m}")
    return (c * (ctx.modulus(m) // ctx.modulus(r))) % ctx.modulus(m)


def pairing(ctx: TorusContext, c: int, r: int, e: int, m: int) -> cyclotomic.Cyclotomic:
    """Value of the level-r character c on the level-m element e, in Q(zeta_M_m).

    The character is lifted through the transpose-of-norm, so for a in T_r the
    compatibility xi(a)_m = xi(a)_r^(m/r) holds on the nose.
    """
    cm = lift_character(ctx, r, m, c)
    return cyclotomic.zeta(ctx.modulus(m), (cm * e) % ctx.modulus(m))


def one_orbit(ctx: TorusContext, side: str = THETA) -> OrbitLabel:
    """The orbit of exponent 0 at level 1, the same label on either side.

    It is the trivial character for THETA and the identity element for PHI;
    side names which one the caller means, and must be one of SIDES.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    return OrbitLabel(1, 0)


def sigma_orbit(ctx: TorusContext) -> OrbitLabel:
    """The orbit of the order-2 character of T_1; q odd."""
    if ctx.q % 2 == 0:
        raise ValueError("sigma needs q odd")
    return OrbitLabel(1, ctx.modulus(1) // 2)
