"""Multipartitions: partition-valued functions on Frobenius orbits.

A MultiPartition assigns a nonempty partition to finitely many orbit labels
and names the side they live on (theta = characters, phi = classes).  An
orbit label is (level, min_exponent) and is the same on both sides, so the
side belongs to the multipartition alone.  Its size is
sum |orbit| * |partition|; size-n multipartitions on the phi side index the
conjugacy classes of U(n, F_q2), on the theta side the irreducible characters.

Canonical order: entries sorted by orbit label; multipartitions compare by
their entry sequences with partitions in reverse-lexicographic order.
to_key() is the string form that JSON and TSV output use: each entry is
written "side:level:min_exponent[parts]".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .partitions import check_partition, hooks, n_stat, partitions_of
from .torus import SIDES, THETA, OrbitLabel, TorusContext, conjugate_orbit, orbits_up_to


@dataclass(frozen=True)
class MultiPartition:
    side: str
    entries: tuple[tuple[OrbitLabel, tuple[int, ...]], ...]

    @staticmethod
    def make(side: str, pairs) -> "MultiPartition":
        """Normalize: drop empty partitions, sort by orbit, validate."""
        if side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {side!r}")
        cleaned = []
        seen = set()
        for orbit, parts in pairs:
            parts = check_partition(tuple(parts))
            if not parts:
                continue
            if orbit in seen:
                raise ValueError(f"orbit {orbit} assigned twice")
            seen.add(orbit)
            cleaned.append((orbit, parts))
        cleaned.sort(key=lambda item: item[0])
        return MultiPartition(side, tuple(cleaned))

    def part_for(self, orbit: OrbitLabel) -> tuple[int, ...]:
        for o, parts in self.entries:
            if o == orbit:
                return parts
        return ()

    def orbits(self) -> tuple[OrbitLabel, ...]:
        return tuple(o for o, _ in self.entries)

    @property
    def size(self) -> int:
        return sum(o.size * sum(parts) for o, parts in self.entries)

    def sort_key(self):
        # reverse-lex on partitions via negated parts
        return tuple((o, tuple(-a for a in parts)) for o, parts in self.entries)

    def to_key(self) -> str:
        """Compact string form, usable as a dict key in JSON documents."""
        return "+".join(
            f"{self.side}:{o.level}:{o.min_exponent}[{','.join(map(str, parts))}]"
            for o, parts in self.entries
        ) or "empty:" + self.side

    def __repr__(self):
        return f"<mp {self.to_key()}>"


def mp_n_stat(mp: MultiPartition) -> int:
    """n(mp) = sum |orbit| * n(partition)."""
    return sum(o.size * n_stat(parts) for o, parts in mp.entries)


def mp_weighted_hooks(mp: MultiPartition) -> tuple[int, ...]:
    """Multiset of |orbit| * hook over all boxes, descending."""
    out = []
    for o, parts in mp.entries:
        out.extend(o.size * h for h in hooks(parts))
    return tuple(sorted(out, reverse=True))


def mp_n_conjugate(mp: MultiPartition) -> int:
    """n(mp') = sum |orbit| * n(partition'), with n(p') = sum C(p_i, 2)."""
    return sum(o.size * sum(a * (a - 1) for a in parts)
               for o, parts in mp.entries) // 2


def mp_bar(ctx: TorusContext, mp: MultiPartition) -> MultiPartition:
    """Relabel along orbit conjugation (inverse elements / inverse characters)."""
    return MultiPartition.make(
        mp.side, [(conjugate_orbit(ctx, o), parts) for o, parts in mp.entries])


@cache
def enumerate_multipartitions(
    ctx: TorusContext, n: int, side: str = THETA
) -> tuple[MultiPartition, ...]:
    """All multipartitions of size n over the orbits of size <= n, sorted."""
    universe = orbits_up_to(ctx, n)
    out = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            out.append(MultiPartition.make(side, acc))
            return
        for j in range(idx, len(universe)):
            orbit = universe[j]
            if orbit.size > remaining:
                break  # the universe is sorted by level: every later orbit is larger
            for k in range(1, remaining // orbit.size + 1):
                for parts in partitions_of(k):
                    rec(j + 1, remaining - orbit.size * k, acc + [(orbit, parts)])

    rec(0, n, [])
    out.sort(key=MultiPartition.sort_key)
    return tuple(out)
