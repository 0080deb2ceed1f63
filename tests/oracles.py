"""Slow, independent ways to get what the library builds or counts.

The library builds every label canonical and in canonical order, and counts
the census without building a label or walking an orbit.  The tests hold
these oracles against it: the canonical order as a sort key, the
self-conjugate orbits found by a scan, the real semisimple labels generated
from pair units and normalized one by one, and the census computed on those
labels one label at a time.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd

from uqchar.characters import fs_semisimple_regular, fs_via_sigma
from uqchar.multipartition import MultiPartition
from uqchar.partitions import n_stat
from uqchar.torus import (
    THETA,
    OrbitLabel,
    TorusContext,
    conjugate_orbit,
    frobenius_orbit,
    orbits_up_to,
)

# the degrees n up to which each q's labels and classes are held against the
# oracles: n stops where filtering every label would cost the suite more
# than about a quarter second; the labels at q <= 5, n <= 6 are enumerated
# (and cached) for test_multipartition's generating-function test as well
ORACLE_MAX_N = {2: 8, 3: 6, 4: 6, 5: 5, 7: 4, 8: 4, 9: 3}


def sort_key(lam: MultiPartition):
    """The canonical label order: entries by orbit, partitions reverse-lex."""
    return tuple((o, tuple(-a for a in parts)) for o, parts in lam.entries)


def self_conjugate_orbits(ctx: TorusContext, d: int) -> tuple[OrbitLabel, ...]:
    """The orbits of exact size d closed under e -> -e, in canonical order.

    Such an orbit has -e = (-q)^i e with 2i a multiple of d.  For even d,
    i = d/2: ((-q)^(d/2) + 1) e = 0 (mod M_d), i.e. M_{d/2} divides e, so
    only the multiples of M_{d/2} are walked, and e is kept when it is the
    least exponent of an orbit of size d.  Otherwise i = 0 and 2e = 0, an
    orbit of size 1: none for odd d > 1.
    """
    mod = ctx.modulus(d)
    if d % 2:
        if d > 1:
            return ()
        step = mod // gcd(2, mod)
    else:
        step = ctx.modulus(d // 2)
    return tuple(OrbitLabel(d, e) for e in range(0, mod, step)
                 if frobenius_orbit(ctx, d, e) == (d, e))


@cache
def real_semisimple_labels(ctx: TorusContext) -> tuple[MultiPartition, ...]:
    """The real semisimple labels at degree ctx.n, in canonical order.

    Units are the self-conjugate orbits o (weight |o|) and the pairs
    {o, o-bar} of conjugate orbits (weight 2|o|); a unit chosen k times puts
    the column (1^k) on each of its orbits.  A pair puts o-bar next to o, out
    of orbit order, so each label is normalized by make() and the labels are
    sorted by sort_key.
    """
    n = ctx.n
    units = [(d, (o,)) for d in range(1, n + 1)
             for o in self_conjugate_orbits(ctx, d)]
    for o in orbits_up_to(ctx, n // 2):
        bar = conjugate_orbit(ctx, o)
        if o < bar:
            units.append((2 * o.level, (o, bar)))
    units.sort()
    labels = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            labels.append(MultiPartition.make(THETA, acc))
            return
        for j in range(idx, len(units)):
            weight, orbits = units[j]
            if weight > remaining:
                break
            for k in range(1, remaining // weight + 1):
                rec(j + 1, remaining - weight * k,
                    acc + [(o, (1,) * k) for o in orbits])

    rec(0, n, [])
    return tuple(sorted(labels, key=sort_key))


def census_by_enumeration(ctx: TorusContext, real) -> dict:
    """census_semisimple's counts of real labels, one label at a time.

    Every key but semisimple, which counts labels that are not real.  Each
    label's indicator comes from fs_semisimple_regular, which raises
    RouteDisagreement where its two routes differ, and route_agreement
    counts the labels on which fs_via_sigma gives that indicator.
    """
    orthogonal = symplectic = cross_checked = 0
    for lam in real:
        eps = fs_semisimple_regular(ctx, lam)
        if eps == 1:
            orthogonal += 1
        else:
            symplectic += 1
        cross_checked += fs_via_sigma(ctx, lam) == eps
    return {
        "q": ctx.q,
        "n": ctx.n,
        "real_total": len(real),
        "orthogonal": orthogonal,
        "symplectic": symplectic,
        "route_agreement": cross_checked,
    }


def a_partition_poly(parts: tuple[int, ...], x: Fraction) -> Fraction:
    """a_lam(x) = x^(|lam| + 2 n(lam)) prod_i prod_{j<=m_i} (1 - x^(-j))."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("a_lam needs x != 0")
    val = x ** (sum(parts) + 2 * n_stat(parts))
    for m in Counter(parts).values():
        for j in range(1, m + 1):
            val *= 1 - x ** (-j)
    return val


def centralizer_by_fractions(ctx: TorusContext, mu: MultiPartition) -> Fraction:
    """(-1)^|mu| prod_f a_{mu^(f)}((-q)^|f|), multiplied out in Fractions."""
    val = Fraction((-1) ** mu.size)
    for orbit, parts in mu.entries:
        val *= a_partition_poly(parts, Fraction(-ctx.q) ** orbit.level)
    return val
