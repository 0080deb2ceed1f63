"""Conjugacy classes of U(n, F_q2) as size-n multipartitions on element orbits.

The centralizer order of the class labelled by mu is the Ennola-Wall value

    a_mu = (-1)^|mu| prod_f a_{mu^(f)}((-q)^|f|),
    a_lam(x) = x^(|lam| + 2 n(lam)) prod_i prod_{j=1}^{m_i} (1 - x^(-j)),

m_i the multiplicity of the part i in lam.  It is computed in integers.  For
x = (-q)^level, 1 - x^(-j) = x^(-j) (x^j - 1) and x^j - 1 = (-1)^(level j)
M_(level j), M_k = q^k - (-1)^k, so

    a_lam(x) = x^e prod_i prod_{j=1}^{m_i} (-1)^(level j) M_(level j),
    e = |lam| + 2 n(lam) - sum_i m_i (m_i + 1) / 2.

The exponent e is never negative: |lam| >= sum_i m_i and n(lam) >=
sum_i C(m_i, 2), so e >= sum_i m_i (m_i - 1) / 2.  Each entry's factor
depends only on (q, level, partition) and is cached, as degrees cache their
entries' hook products, and the product over the entries is checked positive.
class_table computes the orders once per class and is cached, so the class
data of one (q, n) are built once however many rows or labels read them.
Class squaring works orbit by orbit: the square of the orbit f = [alpha] is
the orbit f' = [alpha^2], every element of f' has exactly |f| / |f'|
preimages, so the partition on f is repeated that many times on f'.  For
even q each part k is first split into (ceil(k/2), floor(k/2)), the Jordan
type of the square of a unipotent block in characteristic two.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import prod
from typing import NamedTuple

from .multipartition import MultiPartition, enumerate_multipartitions
from .partitions import n_stat
from .torus import PHI, OrbitLabel, TorusContext, frobenius_orbit, modulus_of


@cache
def _entry_centralizer(q: int, level: int, parts: tuple[int, ...]) -> int:
    """a_lam((-q)^level) of one entry lam = parts, an int by construction."""
    mult = Counter(parts).values()
    e = sum(parts) + 2 * n_stat(parts) - sum(m * (m + 1) // 2 for m in mult)
    val = (-q) ** (level * e)
    for m in mult:
        for j in range(1, m + 1):
            val *= (-1) ** (level * j) * modulus_of(q, level * j)
    return val


@cache
def order_factor(q: int, n: int) -> int:
    """prod_{k<=n} M_k, M_k = q^k - (-1)^k: |U(n, F_q2)| without its q-part."""
    return prod(modulus_of(q, k) for k in range(1, n + 1))


def group_order(ctx: TorusContext) -> int:
    """|U(n, F_q2)| = q^(n(n-1)/2) prod_{k<=n} M_k, n = ctx.n."""
    q, n = ctx.q, ctx.n
    return q ** (n * (n - 1) // 2) * order_factor(q, n)


def centralizer_order(ctx: TorusContext, mu: MultiPartition) -> int:
    """Exact centralizer order of the class mu; checked positive."""
    if mu.side != PHI:
        raise ValueError("classes live on the phi side")
    val = (-1) ** mu.size
    for orbit, parts in mu.entries:
        val *= _entry_centralizer(ctx.q, orbit.level, parts)
    if val <= 0:
        raise ValueError(f"centralizer order of {mu} is not positive: {val}")
    return val


class ClassData(NamedTuple):
    label: MultiPartition
    size: int


@cache
def class_table(ctx: TorusContext) -> tuple[ClassData, ...]:
    """All classes of U(n, F_q2), n = ctx.n, with their sizes.

    Built once per ctx; the size of a class is |G| / |C(K)|, and each
    centralizer order is checked to divide |G|.
    """
    order = group_order(ctx)
    out = []
    for mu in enumerate_multipartitions(ctx, ctx.n, PHI):
        cent = centralizer_order(ctx, mu)
        if order % cent:
            raise ValueError(f"centralizer order {cent} of {mu} does not divide |G|")
        out.append(ClassData(mu, order // cent))
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
        if orbit.level % doubled.level:
            raise ValueError(f"the square of {orbit} has size {doubled.level}")
        fiber = orbit.level // doubled.level
        if ctx.q % 2 == 0:
            parts = [h for k in parts for h in ((k + 1) // 2, k // 2) if h]
        merged.setdefault(doubled, []).extend(list(parts) * fiber)
    out = MultiPartition.make(
        PHI, [(o, tuple(sorted(ps, reverse=True))) for o, ps in merged.items()])
    if out.size != mu.size:
        raise ValueError(f"the square of {mu} came out of size {out.size}")
    return out
