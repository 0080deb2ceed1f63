"""Integer partition combinatorics.

Partitions are plain tuples of weakly decreasing positive ints, () for the
empty partition.  Enumeration follows reverse-lexicographic order: (n) first,
(1,...,1) last.  The 2-core is computed on a 2-runner abacus via beta-numbers;
hook lengths use the standard formula h(i,j) = lam_i + lam'_j - i - j + 1.
"""

from functools import cache


def check_partition(p) -> tuple[int, ...]:
    """p as a tuple, refused with ValueError unless it is a partition.

    p may be any sequence of ints, a list too.  Each distinct partition is
    checked once, and its first tuple is returned for every equal one; a
    refusal is not cached, so a bad partition is refused on every call.
    """
    p = tuple(p)
    checked = _checked_partition(p)
    # an equal tuple found in the cache may hold other types: (2.0,) == (2,)
    if checked is not p and any(type(a) is not int for a in p):
        raise ValueError(f"not a partition: {p}")
    return checked


@cache
def _checked_partition(p: tuple[int, ...]) -> tuple[int, ...]:
    if (any(type(a) is not int or a < 1 for a in p)
            or any(a < b for a, b in zip(p, p[1:]))):
        raise ValueError(f"not a partition: {p}")
    return p


@cache
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in reverse-lexicographic order."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(maxpart, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return tuple(out)


def conjugate(p: tuple[int, ...]) -> tuple[int, ...]:
    if not p:
        return ()
    return tuple(sum(1 for a in p if a >= j) for j in range(1, p[0] + 1))


def n_stat(p: tuple[int, ...]) -> int:
    """n(lam) = sum (i-1) lam_i, rows indexed from 1."""
    return sum(i * part for i, part in enumerate(p))


def hooks(p: tuple[int, ...]) -> tuple[int, ...]:
    """Multiset of hook lengths, descending.  Size equals |p|."""
    conj = conjugate(p)
    out = []
    for i, row in enumerate(p):
        for j in range(row):
            out.append(row + conj[j] - i - j - 1)
    return tuple(sorted(out, reverse=True))


def beta_set(p: tuple[int, ...], length: int) -> tuple[int, ...]:
    """First-column hook lengths on `length` beads: lam_i + length - i, descending."""
    if length < len(p):
        raise ValueError("beta set needs at least len(p) beads")
    padded = p + (0,) * (length - len(p))
    return tuple(part + (length - 1 - i) for i, part in enumerate(padded))


def from_beta_set(betas) -> tuple[int, ...]:
    """Recover the partition from a set of distinct nonnegative beta-numbers."""
    betas = sorted(betas, reverse=True)
    if any(b < 0 for b in betas) or len(set(betas)) != len(betas):
        raise ValueError(f"not a beta set: {betas}")
    length = len(betas)
    parts = tuple(b - (length - 1 - i) for i, b in enumerate(betas))
    return tuple(part for part in parts if part > 0)


def two_core(p: tuple[int, ...]) -> tuple[int, ...]:
    """The 2-core: push all beads down on a 2-runner abacus."""
    betas = beta_set(p, len(p))
    counts = [0, 0]
    for b in betas:
        counts[b % 2] += 1
    settled = [r + 2 * j for r in (0, 1) for j in range(counts[r])]
    return from_beta_set(settled)


def odd_even_hooks(p: tuple[int, ...]) -> tuple[int, int]:
    """(number of odd hook lengths, number of even hook lengths)."""
    hs = hooks(p)
    odd = sum(1 for h in hs if h % 2)
    return odd, len(hs) - odd
