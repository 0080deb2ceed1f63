"""MultiPartition construction, stats, enumeration, and the shared orbit labels."""

import pytest

from uqchar.multipartition import (
    MultiPartition,
    enumerate_multipartitions,
    mp_bar,
    mp_n_conjugate,
    mp_n_stat,
    mp_weighted_hooks,
)
from uqchar.partitions import conjugate
from uqchar.torus import PHI, THETA, OrbitLabel, TorusContext, count_exact_orbits


def mp(side, *pairs):
    return MultiPartition.make(side, [(o, p) for o, p in pairs])


def mp_conjugate(a):
    """Oracle: conjugate every constituent partition in place."""
    return MultiPartition.make(
        a.side, [(o, conjugate(parts)) for o, parts in a.entries])


O10 = OrbitLabel(1, 0)
O12 = OrbitLabel(1, 2)
O21 = OrbitLabel(2, 1)


def test_make_normalizes():
    a = mp(THETA, (O21, (1,)), (O10, (2, 1)), (O12, ()))
    assert a.orbits() == (O10, O21)
    assert a.part_for(O10) == (2, 1)
    assert a.part_for(O12) == ()
    assert a.size == 3 + 2
    with pytest.raises(ValueError):
        mp(THETA, (O10, (1, 2)))
    with pytest.raises(ValueError):
        mp(THETA, (O10, (1,)), (O10, (2,)))
    # an orbit label carries no side: the same orbit serves either side
    assert mp(PHI, (O10, (1,))).entries == mp(THETA, (O10, (1,))).entries
    with pytest.raises(ValueError, match="side must be one of"):
        mp("chi", (O10, (1,)))


def test_stats():
    a = mp(THETA, (O10, (2, 1)), (O21, (1, 1)))
    assert a.size == 3 + 4
    assert sum(len(parts) for _, parts in a.entries) == 4
    assert mp_n_stat(a) == 1 * (0 + 1) + 2 * (0 + 1)
    # hooks of (2,1) are (3,1,1); of (1,1) are (2,1), weighted by orbit size 2
    assert mp_weighted_hooks(a) == (4, 3, 2, 1, 1)
    assert mp_conjugate(a).part_for(O10) == (2, 1)
    assert mp_conjugate(a).part_for(O21) == (2,)
    assert mp_n_conjugate(a) == mp_n_stat(mp_conjugate(a)) == 1 * 1 + 2 * 0


@pytest.mark.parametrize("q", [2, 3, 4])
def test_n_of_the_conjugate_read_from_the_parts(q):
    # n(lam') summed from the parts equals n of the conjugated label, at
    # every label up to n = 4
    for n in range(1, 5):
        ctx = TorusContext(q, n)
        for lam in enumerate_multipartitions(ctx, n, THETA):
            assert mp_n_conjugate(lam) == mp_n_stat(mp_conjugate(lam)), lam


def test_bar_relabels_conjugate_orbits():
    ctx = TorusContext(3, 2)
    o1 = OrbitLabel(1, 1)
    o3 = OrbitLabel(1, 3)
    a = mp(THETA, (o1, (1,)), (O10, (2,)))
    b = mp_bar(ctx, a)
    assert b.part_for(o3) == (1,)
    assert b.part_for(O10) == (2,)
    assert mp_bar(ctx, b) == a
    assert b.size == a.size == 3


def test_enumeration_counts_q3():
    ctx = TorusContext(3, 2)
    assert len(enumerate_multipartitions(ctx, 1, THETA)) == 4
    labels = enumerate_multipartitions(ctx, 2, THETA)
    assert len(labels) == 16
    assert len(set(labels)) == 16
    assert all(l.size == 2 for l in labels)
    # composition: 4 orbits x 2 partitions + C(4,2) pairs + 2 level-2 orbits
    assert len(enumerate_multipartitions(ctx, 2, PHI)) == 16


def test_enumeration_matches_class_count_q2():
    ctx = TorusContext(2, 2)
    # 3 level-1 orbits, no level-2 orbits: 3*2 + 3 = 9 classes of U(2, F_4)
    assert len(enumerate_multipartitions(ctx, 2, PHI)) == 9


@pytest.mark.parametrize("side", [THETA, PHI])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_enumeration_counts_match_generating_function(q, side):
    # sum_n #{multipartitions of n} x^n = prod_d P(x^d)^(N_d), P(x) the
    # partition series and N_d the number of orbits of size d; a pruning
    # step that skips an orbit it should keep shows up as a shortfall
    n = 6
    ctx = TorusContext(q, n)
    series = [1] + [0] * n
    for d in range(1, n + 1):
        for _ in range(count_exact_orbits(ctx, d)):
            for k in range(1, n // d + 1):  # P(x^d) = prod_k 1 / (1 - x^(dk))
                for i in range(d * k, n + 1):
                    series[i] += series[i - d * k]
    for m in range(1, n + 1):
        assert len(enumerate_multipartitions(TorusContext(q, m), m, side)) \
            == series[m], (q, m)


def test_enumeration_is_sorted_and_canonical():
    ctx = TorusContext(3, 2)
    labels = enumerate_multipartitions(ctx, 2, THETA)
    keys = [l.sort_key() for l in labels]
    assert keys == sorted(keys)
    # first label: everything on the smallest orbit, largest partition first;
    # (1) is a prefix of (1,1), so the two-orbit labels sort between them
    assert labels[0] == mp(THETA, (O10, (2,)))
    assert labels[1] == mp(THETA, (O10, (1,)), (OrbitLabel(1, 1), (1,)))
    assert labels[4] == mp(THETA, (O10, (1, 1)))
    assert labels[-1] == mp(THETA, (OrbitLabel(2, 3), (1,)))


def test_key_string():
    a = mp(THETA, (O10, (2, 1)), (O21, (1,)))
    assert a.to_key() == "theta:1:0[2,1]+theta:2:1[1]"


def test_characters_and_classes_share_their_orbit_labels():
    # both sides are Z/M_d under e -> -q e, so the character labels and the
    # class labels of each degree are the same entries in the same order
    for q, n in [(2, 4), (3, 4), (4, 3), (5, 3), (9, 2)]:
        ctx = TorusContext(q, n)
        for m in range(1, n + 1):
            thetas = enumerate_multipartitions(ctx, m, THETA)
            phis = enumerate_multipartitions(ctx, m, PHI)
            assert [t.entries for t in thetas] == [p.entries for p in phis]
            assert all(t.side == THETA for t in thetas)
            assert all(p.side == PHI for p in phis)
