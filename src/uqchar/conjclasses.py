"""Conjugacy classes of U(n, F_q2) as size-n multipartitions on element orbits.

The centralizer order of the class labelled by mu is the Ennola-Wall value

    a_mu = (-1)^|mu| prod_f a_{mu^(f)}((-q)^|f|),
    a_lam(x) = x^(|lam| + 2 n(lam)) prod_i prod_{j=1}^{m_i} (1 - x^(-j)),

evaluated exactly in Fractions and asserted to be a positive integer.  Class
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

from .multipartition import MultiPartition, enumerate_multipartitions
from .partitions import n_stat
from .torus import PHI, OrbitLabel, TorusContext, frobenius_orbit, orbit_exponents


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


def group_order(ctx: TorusContext, n: int | None = None) -> int:
    """|U(n, F_q2)| = q^(n(n-1)/2) prod_{i<=n} (q^i - (-1)^i)."""
    n = ctx.n if n is None else n
    q = ctx.q
    order = q ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        order *= q**i - (-1) ** i
    return order


def centralizer_order(ctx: TorusContext, mu: MultiPartition) -> int:
    """Exact centralizer order of the class mu; asserted integral and positive."""
    if mu.side != PHI:
        raise ValueError("classes live on the phi side")
    val = Fraction((-1) ** mu.size)
    for orbit, parts in mu.entries:
        val *= a_partition_poly(parts, Fraction(-ctx.q) ** orbit.size)
    assert val.denominator == 1 and val > 0, (mu, val)
    return int(val)


def class_size(ctx: TorusContext, mu: MultiPartition) -> int:
    order = group_order(ctx, mu.size)
    cent = centralizer_order(ctx, mu)
    assert order % cent == 0, (mu, cent)
    return order // cent


@dataclass(frozen=True)
class ClassData:
    label: MultiPartition
    centralizer: int
    size: int

    def to_json(self) -> dict:
        return {
            "label": self.label.to_json(),
            "centralizer": self.centralizer,
            "size": self.size,
        }


def class_table(ctx: TorusContext, n: int | None = None) -> tuple[ClassData, ...]:
    """All classes of U(n, F_q2) with centralizer orders and sizes, sorted."""
    n = ctx.n if n is None else n
    return tuple(
        ClassData(mu, centralizer_order(ctx, mu), class_size(ctx, mu))
        for mu in enumerate_multipartitions(ctx, n, PHI)
    )


def central_class(ctx: TorusContext, alpha: int, n: int | None = None) -> MultiPartition:
    """The class of the central element alpha * I, alpha a T_1 exponent."""
    n = ctx.n if n is None else n
    orbit = frobenius_orbit(ctx, 1, alpha, PHI)
    return MultiPartition.make(PHI, [(orbit, (1,) * n)])


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
        doubled = frobenius_orbit(
            ctx, orbit.level, 2 * orbit.min_exponent, PHI)
        fiber = orbit.size // doubled.size
        assert orbit.size % doubled.size == 0
        if ctx.q % 2 == 0:
            parts = [h for k in parts for h in ((k + 1) // 2, k // 2) if h]
        merged.setdefault(doubled, []).extend(list(parts) * fiber)
    out = MultiPartition.make(
        PHI, [(o, tuple(sorted(ps, reverse=True))) for o, ps in merged.items()])
    assert out.size == mu.size
    return out
