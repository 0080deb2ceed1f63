"""Conjugacy classes of U(n, F_q2) as size-n multipartitions on element orbits.

The centralizer order of the class labelled by mu is the Ennola-Wall value

    a_mu = (-1)^|mu| prod_f a_{mu^(f)}((-q)^|f|),
    a_lam(x) = x^(|lam| + 2 n(lam)) prod_i prod_{j=1}^{m_i} (1 - x^(-j)),

evaluated exactly in Fractions and checked to be a positive integer.
class_table computes it once per class and is cached, so the class data of
one (q, n) are built once however many rows or labels read them.  Class
squaring works orbit by orbit: the square of the orbit f = [alpha] is the
orbit f' = [alpha^2], every element of f' has exactly |f| / |f'| preimages,
so the partition on f is repeated that many times on f'.  For even q each
part k is first split into (ceil(k/2), floor(k/2)), the Jordan type of the
square of a unipotent block in characteristic two.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .multipartition import MultiPartition, enumerate_multipartitions
from .partitions import n_stat
from .torus import PHI, OrbitLabel, TorusContext, frobenius_orbit


def a_partition_poly(parts: tuple[int, ...], x: Fraction) -> Fraction:
    """a_lam(x); the one-partition factor of the centralizer order."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("a_lam needs x != 0")
    mult = Counter(parts)
    val = x ** (sum(parts) + 2 * n_stat(parts))
    for m in mult.values():
        for j in range(1, m + 1):
            val *= 1 - x ** (-j)
    return val


def group_order(ctx: TorusContext) -> int:
    """|U(n, F_q2)| = q^(n(n-1)/2) prod_{i<=n} (q^i - (-1)^i), n = ctx.n."""
    n, q = ctx.n, ctx.q
    order = q ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        order *= q**i - (-1) ** i
    return order


def centralizer_order(ctx: TorusContext, mu: MultiPartition) -> int:
    """Exact centralizer order of the class mu; checked integral and positive."""
    if mu.side != PHI:
        raise ValueError("classes live on the phi side")
    val = Fraction((-1) ** mu.size)
    for orbit, parts in mu.entries:
        val *= a_partition_poly(parts, Fraction(-ctx.q) ** orbit.size)
    if val.denominator != 1 or val <= 0:
        raise ValueError(f"centralizer order of {mu} is not a positive integer: {val}")
    return int(val)


@dataclass(frozen=True)
class ClassData:
    label: MultiPartition
    centralizer: int
    size: int


@cache
def class_table(ctx: TorusContext) -> tuple[ClassData, ...]:
    """All classes of U(n, F_q2), n = ctx.n, with centralizer orders and sizes.

    Built once per ctx; the size of a class is |G| / |C(K)|, checked to be
    integral.
    """
    order = group_order(ctx)
    out = []
    for mu in enumerate_multipartitions(ctx, ctx.n, PHI):
        cent = centralizer_order(ctx, mu)
        if order % cent:
            raise ValueError(f"centralizer order {cent} of {mu} does not divide |G|")
        out.append(ClassData(mu, cent, order // cent))
    return tuple(out)


def central_class(ctx: TorusContext, alpha: int) -> MultiPartition:
    """The class of the central element alpha * I, alpha a T_1 exponent."""
    orbit = frobenius_orbit(ctx, 1, alpha)
    return MultiPartition.make(PHI, [(orbit, (1,) * ctx.n)])


def class_square(ctx: TorusContext, mu: MultiPartition) -> MultiPartition:
    """The class of g^2 for g in the class mu.

    For even q the unipotent part changes too: a Jordan block 1 + N of size k
    squares to 1 + N^2, whose Jordan type is (ceil(k/2), floor(k/2)).  Tori
    then have odd order, so every fiber is 1.
    """
    if mu.side != PHI:
        raise ValueError("classes live on the phi side")
    merged: dict[OrbitLabel, list[int]] = {}
    for orbit, parts in mu.entries:
        doubled = frobenius_orbit(ctx, orbit.level, 2 * orbit.min_exponent)
        if orbit.size % doubled.size:
            raise ValueError(f"the square of {orbit} has size {doubled.size}")
        fiber = orbit.size // doubled.size
        if ctx.q % 2 == 0:
            parts = [h for k in parts for h in ((k + 1) // 2, k // 2) if h]
        merged.setdefault(doubled, []).extend(list(parts) * fiber)
    out = MultiPartition.make(
        PHI, [(o, tuple(sorted(ps, reverse=True))) for o, ps in merged.items()])
    if out.size != mu.size:
        raise ValueError(f"the square of {mu} came out of size {out.size}")
    return out
