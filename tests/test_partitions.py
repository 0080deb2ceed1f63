"""Partition combinatorics, with an independent domino-removal oracle for 2-cores."""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqchar.partitions import (
    beta_set,
    check_partition,
    conjugate,
    hooks,
    n_stat,
    odd_even_hooks,
    partitions_of,
    two_core,
)

# p(0), ..., p(20): textbook values
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135,
                    176, 231, 297, 385, 490, 627]

parts_strategy = st.lists(st.integers(1, 8), max_size=8).map(
    lambda v: tuple(sorted(v, reverse=True)))


def is_partition(p):
    return all(a >= b for a, b in zip(p, p[1:])) and all(a >= 1 for a in p)


def _valid_rows(rows):
    """Weakly decreasing and nonnegative, zeros allowed only as a tail."""
    if any(a < b for a, b in zip(rows, rows[1:])) or any(a < 0 for a in rows):
        return None
    return tuple(a for a in rows if a)


@cache
def core_by_domino_removal(p):
    """Oracle: remove dominoes in every possible order; the end must be unique."""
    results = set()
    for i in range(len(p)):  # horizontal domino at end of row i
        cand = _valid_rows(p[:i] + (p[i] - 2,) + p[i + 1:])
        if cand is not None:
            results.add(core_by_domino_removal(cand))
    for i in range(len(p) - 1):  # vertical domino in rows i, i+1
        if p[i] == p[i + 1]:
            cand = _valid_rows(p[:i] + (p[i] - 1, p[i] - 1) + p[i + 2:])
            if cand is not None:
                results.add(core_by_domino_removal(cand))
    if not results:
        return p
    assert len(results) == 1, f"domino removal not confluent from {p}"
    return results.pop()


def test_enumeration_counts_and_order():
    for n, expect in enumerate(PARTITION_COUNTS):
        ps = partitions_of(n)
        assert len(ps) == expect
        assert len(set(ps)) == expect
        assert all(sum(p) == n and is_partition(p) for p in ps)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions_of(0) == ((),)


def test_check_partition():
    assert check_partition((3, 1, 1)) == (3, 1, 1)
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


def test_check_partition_is_cached_and_refuses_every_time():
    # the check runs once per distinct partition; a refusal is not cached
    for _ in range(2):
        with pytest.raises(ValueError, match="not a partition"):
            check_partition((1, 2))
    # a list is taken as its tuple, before and after that tuple is cached
    assert check_partition([3, 1]) == (3, 1)
    assert check_partition((3, 1)) == (3, 1)
    assert check_partition([3, 1]) == (3, 1)
    # parts must be ints: a cached (2,) must not answer for (2.0,)
    assert check_partition((2,)) == (2,)
    for bad in ((2.0,), (True,)):
        with pytest.raises(ValueError, match="not a partition"):
            check_partition(bad)


def test_conjugate_examples():
    assert conjugate((3, 2, 1)) == (3, 2, 1)
    assert conjugate((4, 1)) == (2, 1, 1, 1)
    assert conjugate(()) == ()


@settings(max_examples=100, deadline=None)
@given(parts_strategy)
def test_conjugate_involution_and_nstat(p):
    assert conjugate(conjugate(p)) == p
    assert sum(conjugate(p)) == sum(p)
    # n(p') = sum over rows of C(lam_i, 2)
    assert n_stat(conjugate(p)) == sum(a * (a - 1) // 2 for a in p)


def test_hooks_examples():
    assert hooks((3, 2, 1)) == (5, 3, 3, 1, 1, 1)
    assert hooks((2,)) == (2, 1)
    assert hooks((1, 1)) == (2, 1)
    assert hooks(()) == ()
    assert hooks((2, 2)) == (3, 2, 2, 1)


@settings(max_examples=100, deadline=None)
@given(parts_strategy)
def test_hooks_basic_properties(p):
    hs = hooks(p)
    assert len(hs) == sum(p)
    assert hooks(conjugate(p)) == hs  # hook multiset is conjugation invariant
    if p:
        assert max(hs) == p[0] + len(p) - 1


def test_n_stat_examples():
    assert n_stat(()) == 0
    assert n_stat((2,)) == 0
    assert n_stat((1, 1)) == 1
    assert n_stat((1, 1, 1)) == 3
    assert n_stat((3, 2, 1)) == 2 + 2


def test_beta_set():
    assert beta_set((3, 1), 2) == (4, 1)
    assert beta_set((3, 1), 4) == (6, 3, 1, 0)
    with pytest.raises(ValueError):
        beta_set((3, 1), 1)


def test_two_core_examples():
    assert two_core((2,)) == ()
    assert two_core((1, 1)) == ()
    assert two_core((1,)) == (1,)
    assert two_core((2, 1)) == (2, 1)
    assert two_core((3, 2, 1)) == (3, 2, 1)
    assert two_core((2, 2)) == ()
    assert two_core((4, 1)) == (2, 1)  # two dominoes off the first row


@pytest.mark.parametrize("n", range(0, 15))
def test_two_core_matches_domino_oracle(n):
    for p in partitions_of(n):
        assert two_core(p) == core_by_domino_removal(p), p
        # the 2-weight, the number of dominoes removed, is the number of
        # even hook lengths
        odd, even = odd_even_hooks(p)
        assert sum(p) == sum(two_core(p)) + 2 * even
        # 2-cores are staircases
        core = two_core(p)
        assert all(h % 2 == 1 for h in hooks(core))


@pytest.mark.parametrize("n", range(0, 15))
def test_hook_parity_lemma_small(n):
    # odd hooks minus even hooks = size of the 2-core (full range in acceptance)
    for p in partitions_of(n):
        odd, even = odd_even_hooks(p)
        assert odd - even == sum(two_core(p)), p
