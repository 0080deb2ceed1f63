"""Tori of the unitary groups in exponent coordinates, with Frobenius orbits.

T_d is cyclic of order M_d = q^d - (-1)^d.  A compatible family of generators
g_d = N_{N,d}(g_N) (N = lcm(1..n)) is fixed once and for all; every element of
T_d is stored as its exponent in g_d, every character of T_d as its exponent
against g_d.  In these coordinates:

  * the Frobenius acts on both sides by e -> -q e  (mod M_d);
  * the norm N_{m,r}: T_m -> T_r for r | m is reduction mod M_r, because the
    geometric multiplier S_{m,r} = sum_{i<m/r} (-q)^{ri} satisfies
    S_{N,m} S_{m,r} = S_{N,r} as integers (the torus tests compare the
    reduction with the literal multiplier);
  * the inclusion T_r -> T_m is multiplication by S_{m,r};
  * the transpose-of-norm on characters is multiplication by M_m / M_r.

Orbits are canonicalized at their exact level (the level equals the orbit
size), keyed by the minimal exponent in the orbit at that level.  Both sides
are Z/M_d under the same action, so a character orbit and an element orbit
with the same exponents are the same (level, min_exponent) label; the side a
label speaks of is recorded by the multipartition that carries it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

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


@dataclass(frozen=True)
class TorusContext:
    """Fixes q and a working degree n; levels live over N = lcm(1..n)."""

    q: int
    n: int

    def __post_init__(self):
        if prime_power(self.q) is None:
            raise ValueError(f"q must be a prime power >= 2, got {self.q}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")

    @cached_property
    def top_level(self) -> int:
        return lcm(*range(1, self.n + 1))

    def modulus(self, d: int) -> int:
        if d < 1 or self.top_level % d:
            raise ValueError(f"level {d} does not divide N = {self.top_level}")
        return modulus_of(self.q, d)

    @cached_property
    def cyclo_modulus(self) -> int:
        """Common cyclotomic modulus for all values at degree n: lcm of M_1..M_n."""
        return lcm(*(self.modulus(d) for d in range(1, self.n + 1)))

    @cached_property
    def sigma_exponent(self) -> int:
        """Exponent of the order-2 character sigma of T_1 (q odd only)."""
        if self.q % 2 == 0:
            raise ValueError("sigma needs q odd")
        return modulus_of(self.q, 1) // 2


@dataclass(frozen=True, order=True)
class OrbitLabel:
    """A Frobenius orbit at its exact level; size always equals level.

    The same label names a character orbit and an element orbit.  Ordering is
    (level, exponent), which is the canonical orbit order everywhere.
    """

    level: int
    min_exponent: int

    @property
    def size(self) -> int:
        return self.level


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
    if len(orbit) != o.size:
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


def self_conjugate_orbits(ctx: TorusContext, d: int) -> tuple[OrbitLabel, ...]:
    """The orbits of exact size d closed under e -> -e, in canonical order.

    Such an orbit has -e = (-q)^i e with 2i a multiple of d.  For even d,
    i = d/2: ((-q)^(d/2) + 1) e = 0 (mod M_d), i.e. M_{d/2} divides e, so
    only the cyclic subgroup of multiples of M_{d/2} (order M_d / M_{d/2}) is
    scanned.  Otherwise i = 0 and 2e = 0, an orbit of size 1: none for odd
    d > 1.
    """
    mod = ctx.modulus(d)
    if d % 2:
        if d > 1:
            return ()
        step = mod // gcd(2, mod)
    else:
        step = ctx.modulus(d // 2)
    out = []
    for e in range(0, mod, step):
        orbit = _orbit_exponents_at(ctx.q, d, e)
        if len(orbit) == d and e == min(orbit):
            out.append(OrbitLabel(d, e))
    return tuple(out)


def count_exact_orbits(ctx: TorusContext, d: int) -> int:
    """Moebius count: (1/d) sum_{e | d} mu(d/e) M_e."""
    total = sum(moebius(d // e) * ctx.modulus(e) for e in divisors(d))
    if total % d:
        raise ValueError(f"Moebius count {total} is not divisible by d = {d}")
    return total // d


def orbits_up_to(ctx: TorusContext, n: int) -> tuple[OrbitLabel, ...]:
    """All orbits of size <= n, canonically ordered; the label universe at degree n."""
    out = []
    for d in range(1, n + 1):
        out.extend(exact_orbits(ctx, d))
    return tuple(sorted(out))


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


def to_level_one(ctx: TorusContext, d: int, c: int) -> int:
    """Descend a Frobenius-fixed character exponent at level d to level 1."""
    mod, m1 = ctx.modulus(d), ctx.modulus(1)
    c %= mod
    if (-ctx.q * c) % mod != c:
        raise ValueError(f"character exponent {c} at level {d} is not Frobenius-fixed")
    step = mod // m1
    if c % step:
        raise ValueError(f"Frobenius-fixed exponent {c} at level {d} is not in T_1")
    down = c // step
    if lift_character(ctx, 1, d, down) != c:
        raise ValueError(f"level-one exponent {down} does not lift back to {c}")
    return down


def orbit_exponent_sum(ctx: TorusContext, o: OrbitLabel) -> int:
    """Sum of the orbit's exponents mod its modulus; Frobenius-fixed by construction."""
    return sum(orbit_exponents(ctx, o)) % ctx.modulus(o.level)


def one_orbit(ctx: TorusContext, side: str = THETA) -> OrbitLabel:
    """The orbit of exponent 0 at level 1, the same label on either side.

    It is the trivial character for THETA and the identity element for PHI;
    side is accepted so that callers can name which one they mean.
    """
    return OrbitLabel(1, 0)


def sigma_orbit(ctx: TorusContext) -> OrbitLabel:
    """The orbit of the order-2 character of T_1; q odd."""
    return OrbitLabel(1, ctx.sigma_exponent)
