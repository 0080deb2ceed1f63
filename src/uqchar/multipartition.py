"""Multipartitions: partition-valued functions on Frobenius orbits.

A MultiPartition assigns a nonempty partition to finitely many orbit labels
and names the side they live on (theta = characters, phi = classes).  An
orbit label is (level, min_exponent) and is the same on both sides, so the
side belongs to the multipartition alone.  Its size is
sum |orbit| * |partition|; size-n multipartitions on the phi side index the
conjugacy classes of U(n, F_q2), on the theta side the irreducible characters.

Canonical order: entries sorted by orbit label; multipartitions compare by
their entry sequences with partitions in reverse-lexicographic order.
Enumeration walks the orbits in canonical order, so it builds each label in
canonical form and in canonical order, with no make() or sort.
to_key() is the string form that JSON and TSV output use: each entry is
written "side:level:min_exponent[parts]".
"""

from __future__ import annotations

from functools import cache
from math import comb
from typing import NamedTuple

from .partitions import check_partition, n_stat, partitions_of
from .torus import (
    SIDES,
    OrbitLabel,
    TorusContext,
    count_exact_orbits,
    frobenius_orbit,
    orbits_up_to,
)


class MultiPartition(NamedTuple):
    """A nonempty partition on each of finitely many orbits, on one side.

    A NamedTuple of (side, entries), so it equals and hashes like that pair;
    make() gives the canonical entries.  Labels key the dicts and caches of
    every layer.  Enumeration builds labels in canonical order, not tuple order.
    """

    side: str
    entries: tuple[tuple[OrbitLabel, tuple[int, ...]], ...]

    @staticmethod
    def make(side: str, pairs) -> "MultiPartition":
        """Normalize: drop empty partitions, sort by orbit, validate."""
        if side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {side!r}")
        entries = []
        for orbit, parts in pairs:
            parts = check_partition(parts)
            if parts:
                entries.append((orbit, parts))
        entries.sort()
        for (a, _), (b, _) in zip(entries, entries[1:]):
            if a == b:
                raise ValueError(f"orbit {a} assigned twice")
        return MultiPartition(side, tuple(entries))

    def part_for(self, orbit: OrbitLabel) -> tuple[int, ...]:
        for o, parts in self.entries:
            if o == orbit:
                return parts
        return ()

    @property
    def size(self) -> int:
        return sum(o.level * sum(parts) for o, parts in self.entries)

    def to_key(self) -> str:
        """Compact string form, usable as a dict key in JSON documents."""
        keys = [_entry_key(self.side, o, parts) for o, parts in self.entries]
        return "+".join(keys) or "empty:" + self.side

    def __repr__(self):
        return f"<mp {self.to_key()}>"


@cache
def _entry_key(side: str, orbit: OrbitLabel, parts: tuple[int, ...]) -> str:
    """One entry of to_key; labels share entries, so each is written once."""
    return f"{side}:{orbit.level}:{orbit.min_exponent}[{','.join(map(str, parts))}]"


def mp_n_stat(mp: MultiPartition) -> int:
    """n(mp) = sum |orbit| * n(partition)."""
    return sum(o.level * n_stat(parts) for o, parts in mp.entries)


def mp_bar(ctx: TorusContext, mp: MultiPartition) -> MultiPartition:
    """Relabel along orbit conjugation (inverse elements / inverse characters)."""
    return mp_galois(ctx, mp, -1)


def mp_galois(ctx: TorusContext, mp: MultiPartition, k: int) -> MultiPartition:
    """Relabel along e -> k e (k a unit mod ctx.cyclo_modulus), partitions kept.

    On the theta side this is the label of sigma_k(chi^mp), sigma_k the
    automorphism zeta -> zeta^k of the value field.  On the phi side it is
    the class of g^k' for g in class mp, with k' = k mod ctx.cyclo_modulus
    and k' = 1 modulo the p-part of the order of g: the semisimple part goes
    to its k-th power and the unipotent part is kept, so chi(mp^k) =
    sigma_k(chi(mp)).
    """
    return MultiPartition.make(
        mp.side,
        [(frobenius_orbit(ctx, o.level, k * o.min_exponent), parts)
         for o, parts in mp.entries])


def multipartitions_from_units(
    side: str, n: int, orbits, shapes
) -> tuple[MultiPartition, ...]:
    """All multipartitions of size n with their entries on the given orbits.

    The orbits come in canonical order.  Each is used at most once, with a
    multiplicity k >= 1, and carries a partition in shapes(k).  The shapes
    of every k are checked once and walked in canonical order, so each label
    is built canonical, the labels come out in canonical order, and labels
    share each distinct entry.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    choices = sorted(
        ((k, check_partition(parts)) for k in range(1, n + 1) for parts in shapes(k)),
        key=lambda choice: [-a for a in choice[1]])
    # the choices an orbit can take with k <= budget, in the same order
    within = [[c for c in choices if c[0] <= budget] for budget in range(n + 1)]
    out = []
    shared = {}  # entry -> (entry,), one object per distinct entry

    def rec(idx, remaining, acc):
        if remaining == 0:
            out.append(MultiPartition(side, acc))
            return
        for j in range(idx, len(orbits)):
            o = orbits[j]
            if o.level > remaining:
                break  # orbits are sorted by level: every later one is larger
            for k, parts in within[remaining // o.level]:
                entry = (o, parts)
                rec(j + 1, remaining - o.level * k,
                    acc + shared.setdefault(entry, (entry,)))

    rec(0, n, ())
    return tuple(out)


@cache
def enumerate_multipartitions(
    ctx: TorusContext, n: int, side: str
) -> tuple[MultiPartition, ...]:
    """All multipartitions of size n over the orbits of size <= n, sorted."""
    return multipartitions_from_units(side, n, orbits_up_to(ctx, n), partitions_of)


def label_count(ctx: TorusContext, family: str = "all") -> int:
    """The number of labels of a family at degree ctx.n, on either side.

    With N_d orbits of size d, it is the coefficient of x^n in
    prod_d F(x^d)^(N_d): F = prod_k 1/(1 - x^k), the partition series, for
    all labels, and F = 1/(1 - x) for semisimple (column) and regular (row)
    labels, which have one shape per size.
    """
    if family not in ("all", "semisimple", "regular"):
        raise ValueError(f"no label count for family {family!r}")
    n = ctx.n
    factors = []
    for d in range(1, n + 1):
        c = count_exact_orbits(ctx, d)
        sizes = range(d, n + 1, d) if family == "all" else (d,)
        factors += [(m, c, 1) for m in sizes]
    return binomial_product(n, factors)


def binomial_product(n: int, factors) -> int:
    """The x^n coefficient of prod (1 - s x^m)^(-c) over factors (m, c, s),
    s = +-1: each factor is sum_j C(c + j - 1, j) s^j x^(mj)."""
    series = [1] + [0] * n
    for m, c, s in factors:
        if not c:
            continue  # comb(-1, 0) would raise
        series = [
            sum(series[i - m * j] * comb(c + j - 1, j) * s**j
                for j in range(i // m + 1))
            for i in range(n + 1)]
    return series[n]
