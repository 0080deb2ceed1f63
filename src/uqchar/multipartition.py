"""Multipartitions: partition-valued functions on Frobenius orbits.

A MultiPartition assigns a nonempty partition to finitely many orbit labels,
all on one side (theta = characters, phi = classes).  Its size is
sum |orbit| * |partition|; size-n multipartitions on the phi side index the
conjugacy classes of U(n, F_q2), on the theta side the irreducible characters.

Canonical order: entries sorted by orbit label; multipartitions compare by
their entry sequences with partitions in reverse-lexicographic order.  The
JSON form is a list of [orbit-string, [parts...]] pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

from .partitions import check_partition, conjugate, hooks, n_stat, partitions_of
from .torus import (
    PHI,
    THETA,
    OrbitLabel,
    TorusContext,
    conjugate_orbit,
    delta_orbit,
    delta_orbit_inv,
    orbits_up_to,
)


@dataclass(frozen=True)
class MultiPartition:
    side: str
    entries: tuple[tuple[OrbitLabel, tuple[int, ...]], ...]

    @staticmethod
    def make(side: str, pairs) -> "MultiPartition":
        """Normalize: drop empty partitions, sort by orbit, validate."""
        cleaned = []
        seen = set()
        for orbit, parts in pairs:
            parts = check_partition(tuple(parts))
            if not parts:
                continue
            if orbit.side != side:
                raise ValueError(f"orbit {orbit} is not on side {side!r}")
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
            f"{o.to_str()}[{','.join(map(str, parts))}]" for o, parts in self.entries
        ) or "empty:" + self.side

    def to_json(self) -> list:
        return [[o.to_str(), list(parts)] for o, parts in self.entries]

    @staticmethod
    def from_json(doc, side: str | None = None) -> "MultiPartition":
        if isinstance(doc, str):
            doc = json.loads(doc)
        pairs = [(OrbitLabel.from_str(o), tuple(parts)) for o, parts in doc]
        if side is None:
            if not pairs:
                raise ValueError("cannot infer the side of an empty multipartition")
            side = pairs[0][0].side
        return MultiPartition.make(side, pairs)

    def __repr__(self):
        return f"<mp {self.to_key()}>"


def mp_n_stat(mp: MultiPartition) -> int:
    """n(mp) = sum |orbit| * n(partition)."""
    return sum(o.size * n_stat(parts) for o, parts in mp.entries)


def mp_length(mp: MultiPartition) -> int:
    return sum(len(parts) for _, parts in mp.entries)


def mp_weighted_hooks(mp: MultiPartition) -> tuple[int, ...]:
    """Multiset of |orbit| * hook over all boxes, descending."""
    out = []
    for o, parts in mp.entries:
        out.extend(o.size * h for h in hooks(parts))
    return tuple(sorted(out, reverse=True))


def mp_conjugate(mp: MultiPartition) -> MultiPartition:
    """Conjugate every constituent partition in place."""
    return MultiPartition.make(
        mp.side, [(o, conjugate(parts)) for o, parts in mp.entries])


def mp_bar(ctx: TorusContext, mp: MultiPartition) -> MultiPartition:
    """Relabel along orbit conjugation (inverse elements / inverse characters)."""
    return MultiPartition.make(
        mp.side, [(conjugate_orbit(ctx, o), parts) for o, parts in mp.entries])


def mp_stats(ctx: TorusContext, mp: MultiPartition) -> dict:
    return {
        "size": mp.size,
        "length": mp_length(mp),
        "n": mp_n_stat(mp),
        "n_conjugate": mp_n_stat(mp_conjugate(mp)),
        "weighted_hooks": mp_weighted_hooks(mp),
        "bar": mp_bar(ctx, mp),
    }


@cache
def enumerate_multipartitions(
    ctx: TorusContext, n: int, side: str = THETA
) -> tuple[MultiPartition, ...]:
    """All multipartitions of size n over the orbits of size <= n, sorted."""
    universe = orbits_up_to(ctx, n, side)
    out = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            out.append(MultiPartition.make(side, acc))
            return
        for j in range(idx, len(universe)):
            orbit = universe[j]
            if orbit.size > remaining:
                continue
            for k in range(1, remaining // orbit.size + 1):
                for parts in partitions_of(k):
                    rec(j + 1, remaining - orbit.size * k, acc + [(orbit, parts)])

    rec(0, n, [])
    out.sort(key=MultiPartition.sort_key)
    return tuple(out)


def delta_map(ctx: TorusContext, mp: MultiPartition) -> MultiPartition:
    """The exponent-identity bijection from Theta-labels to Phi-labels."""
    return MultiPartition.make(
        PHI, [(delta_orbit(o), parts) for o, parts in mp.entries])


def delta_map_inv(ctx: TorusContext, mp: MultiPartition) -> MultiPartition:
    return MultiPartition.make(
        THETA, [(delta_orbit_inv(o), parts) for o, parts in mp.entries])
