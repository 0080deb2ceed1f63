"""MultiPartition construction, stats, enumeration, and the shared orbit labels."""

import pytest

from oracles import sort_key
from uqchar.characters import _entry_factors
from uqchar.multipartition import (
    MultiPartition,
    binomial_product,
    enumerate_multipartitions,
    label_count,
    mp_bar,
    mp_n_stat,
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
    assert [o for o, _ in a.entries] == [O10, O21]
    assert a.part_for(O10) == (2, 1)
    assert a.part_for(O12) == ()
    assert a.size == 3 + 2
    with pytest.raises(ValueError):
        mp(THETA, (O10, (1, 2)))
    with pytest.raises(ValueError):
        mp(THETA, (O10, (1,)), (O10, (2,)))
    # a repeated orbit is found after sorting, wherever it stands; an empty
    # partition is dropped before the check
    with pytest.raises(ValueError, match=r"orbit .* assigned twice"):
        mp(THETA, (O10, (1,)), (O21, (1,)), (O10, (1,)))
    assert mp(THETA, (O10, (1,)), (O10, ())).entries == ((O10, (1,)),)
    # an orbit label carries no side: the same orbit serves either side
    assert mp(PHI, (O10, (1,))).entries == mp(THETA, (O10, (1,))).entries
    with pytest.raises(ValueError, match="side must be one of"):
        mp("chi", (O10, (1,)))


def test_multipartitions_are_immutable_values():
    a = mp(THETA, (O21, (1,)), (O10, (2, 1)))
    b = mp(THETA, (OrbitLabel(1, 0), (2, 1)), (OrbitLabel(2, 1), (1,)))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != mp(PHI, (O10, (2, 1)), (O21, (1,)))  # the side counts
    assert a != mp(THETA, (O10, (2, 1)))
    assert len({a, b}) == 1 and {a: 1}[b] == 1
    for field in ("side", "entries"):
        with pytest.raises(AttributeError):
            setattr(a, field, ())
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a.side == THETA and a.entries == ((O10, (2, 1)), (O21, (1,)))


def test_stats():
    a = mp(THETA, (O10, (2, 1)), (O21, (1, 1)))
    assert a.size == 3 + 4
    assert sum(len(parts) for _, parts in a.entries) == 4
    assert mp_n_stat(a) == 1 * (0 + 1) + 2 * (0 + 1)
    assert mp_conjugate(a).part_for(O10) == (2, 1)
    assert mp_conjugate(a).part_for(O21) == (2,)
    assert mp_n_stat(mp_conjugate(a)) == 1 * 1 + 2 * 0


@pytest.mark.parametrize("q", [2, 3, 4])
def test_n_of_the_conjugate_read_from_the_parts(q):
    # the degree's per-entry powers q^(|o| n(p')), n(p') read from the parts,
    # multiply to q^n(lam') of the conjugated label, at every label up to
    # n = 4
    for n in range(1, 5):
        ctx = TorusContext(q, n)
        for lam in enumerate_multipartitions(ctx, n, THETA):
            power = 1
            for o, parts in lam.entries:
                power *= _entry_factors(q, o.level, parts)[0]
            assert power == q ** mp_n_stat(mp_conjugate(lam)), lam


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
        assert label_count(TorusContext(q, m)) == series[m], (q, m)


def test_label_count_needs_no_enumeration():
    # (q + 1)(q + 4)/2 labels on the q + 1 level-1 orbits and one on each of
    # the (q^2 - q - 2)/2 level-2 ones: (q + 1)^2 at q = 1000003, read off
    # the series without building an orbit
    assert label_count(TorusContext(1000003, 2)) == 1_000_008_000_016
    assert label_count(TorusContext(1000003, 1), "semisimple") == 1_000_004


def test_label_count_skips_a_size_with_no_orbit():
    # at q = 2, M_1 = M_2 = 3: no orbit of size 2, so the semisimple series
    # has no (1 - x^2) factor; the 3 columns (1,1) and the 3 pairs of
    # distinct level-1 orbits remain
    ctx = TorusContext(2, 2)
    assert count_exact_orbits(ctx, 2) == 0
    assert label_count(ctx, "semisimple") == label_count(ctx, "regular") == 6
    assert label_count(ctx) == 9


def test_binomial_product_takes_signed_factors():
    # 1/(1 + x) = 1 - x + x^2 - ..., (1 + x^2)^(-2) = 1 - 2x^2 + 3x^4 - ...,
    # and a factor with c = 0 is 1
    assert [binomial_product(n, [(1, 1, -1)]) for n in range(4)] == [1, -1, 1, -1]
    assert [binomial_product(n, [(2, 2, -1), (1, 0, 1)]) for n in range(5)] == \
        [1, 0, -2, 0, 3]
    # 1/((1 - x)(1 + x)) = 1/(1 - x^2)
    assert [binomial_product(n, [(1, 1, 1), (1, 1, -1)]) for n in range(5)] == \
        [1, 0, 1, 0, 1]


def test_label_count_refuses_an_uncounted_family():
    with pytest.raises(ValueError, match="no label count for family 'unipotent'"):
        label_count(TorusContext(3, 2), "unipotent")


def test_enumeration_is_sorted_and_canonical():
    ctx = TorusContext(3, 2)
    labels = enumerate_multipartitions(ctx, 2, THETA)
    keys = [sort_key(l) for l in labels]
    assert keys == sorted(keys)
    # first label: everything on the smallest orbit, largest partition first;
    # (1) is a prefix of (1,1), so the two-orbit labels sort between them
    assert labels[0] == mp(THETA, (O10, (2,)))
    assert labels[1] == mp(THETA, (O10, (1,)), (OrbitLabel(1, 1), (1,)))
    assert labels[4] == mp(THETA, (O10, (1, 1)))
    assert labels[-1] == mp(THETA, (OrbitLabel(2, 3), (1,)))


def test_labels_share_each_distinct_entry():
    # the 5816 labels at (3, 7) hold 15284 entries, 706 of them distinct:
    # each distinct (orbit, partition) entry is one object
    labels = enumerate_multipartitions(TorusContext(3, 7), 7, THETA)
    entries = [e for lam in labels for e in lam.entries]
    assert (len(labels), len(entries)) == (5816, 15284)
    assert len({id(e) for e in entries}) == len(set(entries)) == 706


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
