"""Oracles for the symmetric-function engine and small character tables.

The monomial expansion of s_lam (Kostka numbers, computed by horizontal-strip
recursion) and of p_nu (counting the ways to drop parts into rows) are
independent code paths; comparing chi-weighted power sums against Kostka
vectors checks the Murnaghan-Nakayama recursion.  Hall-Littlewood expansions
are checked against Schur and monomial functions at t = 0 and 1, against
closed forms, and by substituting them back into power sums.  Character values
for U(1) and U(2) over F_9 are checked against hand calculations.
"""

from fractions import Fraction
from functools import cache
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqchar import cyclotomic, symfunc, torus
from uqchar.conjclasses import centralizer_order, class_table, group_order
from uqchar.multipartition import (
    MultiPartition,
    enumerate_multipartitions,
    mp_galois,
)
from uqchar.partitions import conjugate, partitions_of
from uqchar.symfunc import (
    TableTooLarge,
    char_row,
    char_table,
    hl_m_vector,
    power_m_vector,
    power_to_hl,
    schur_to_power,
    sym_group_char,
    z_weight,
)
from uqchar.torus import (
    PHI,
    THETA,
    OrbitLabel,
    TorusContext,
    frobenius_orbit,
    lift_character,
    one_orbit,
    sigma_orbit,
)


# -- oracles: Kostka numbers and the monomial expansion of Schur functions --


@cache
def kostka(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of shape lam and content mu."""
    if sum(lam) != sum(mu):
        return 0
    if not mu:
        return 1
    k, rest = mu[-1], mu[:-1]
    return sum(kostka(smaller, rest)
               for smaller in symfunc._horizontal_strips(lam, k))


def schur_m_vector(lam: tuple[int, ...], nvars: int) -> dict[tuple[int, ...], int]:
    """Monomial coefficients of s_lam in nvars variables (Kostka numbers)."""
    if len(lam) > nvars:
        return {}
    vec = {mu: kostka(lam, mu) for mu in partitions_of(sum(lam)) if len(mu) <= nvars}
    return {mu: c for mu, c in vec.items() if c}


# -- symmetric group characters -------------------------------------------


def test_z_weights():
    assert z_weight(()) == 1
    assert z_weight((1, 1, 1)) == 6
    assert z_weight((2, 1)) == 2
    assert z_weight((3,)) == 3
    assert z_weight((2, 2)) == 8
    assert z_weight((4, 2, 1, 1)) == 4 * 2 * 2


def test_sym_char_table_s3():
    # rows (3), (2,1), (1,1,1); columns (1,1,1), (2,1), (3)
    cols = [(1, 1, 1), (2, 1), (3,)]
    assert [sym_group_char((3,), nu) for nu in cols] == [1, 1, 1]
    assert [sym_group_char((2, 1), nu) for nu in cols] == [2, 0, -1]
    assert [sym_group_char((1, 1, 1), nu) for nu in cols] == [1, -1, 1]


def test_sym_char_hook_lengths_give_dimension():
    # chi^lam(1^n) equals n! / prod hooks
    from math import factorial

    from uqchar.partitions import hooks

    for n in range(1, 8):
        for lam in partitions_of(n):
            dim = factorial(n)
            for h in hooks(lam):
                dim //= h
            assert sym_group_char(lam, (1,) * n) == dim


def test_sym_char_conjugate_twists_by_sign():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for nu in partitions_of(n):
                sign = (-1) ** (n - len(nu))
                assert sym_group_char(conjugate(lam), nu) == sign * sym_group_char(lam, nu)


def test_sym_char_column_orthogonality():
    for n in range(1, 7):
        for nu in partitions_of(n):
            for rho in partitions_of(n):
                dot = sum(
                    sym_group_char(lam, nu) * sym_group_char(lam, rho)
                    for lam in partitions_of(n))
                assert dot == (z_weight(nu) if nu == rho else 0)


def test_schur_to_power_matches_monomial_expansion():
    # expand sum_nu chi(nu)/z_nu p_nu into monomials and compare with Kostka
    for n in range(1, 7):
        for lam in partitions_of(n):
            acc = {}
            for nu, w in schur_to_power(lam).items():
                for mu, c in power_m_vector(nu).items():
                    acc[mu] = acc.get(mu, Fraction(0)) + w * c
            acc = {k: v for k, v in acc.items() if v}
            expect = {mu: Fraction(c) for mu, c in schur_m_vector(lam, n).items()}
            assert acc == expect


# -- Kostka and Hall-Littlewood -------------------------------------------


def test_kostka_basics():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2, 1), (2, 1)) == 1
    assert kostka((2, 1), (3,)) == 0
    assert kostka((3,), (1, 1, 1)) == 1
    assert kostka((2, 2), (2, 1, 1)) == 1
    assert kostka((2, 2), (1, 1, 1, 1)) == 2
    # dominance: K_{lam,mu} > 0 iff lam dominates mu
    assert kostka((2, 2), (3, 1)) == 0


def test_kostka_triangular_with_ones_on_diagonal():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert kostka(lam, lam) == 1


def test_hl_small_literal():
    t = Fraction(1, 5)
    # P_(1,1) = m_(1,1) = e_2
    assert hl_m_vector((1, 1), t) == {(1, 1): Fraction(1)}
    # P_(2) = m_(2) + (1-t) m_(1,1)
    assert hl_m_vector((2,), t) == {(2,): Fraction(1), (1, 1): 1 - t}
    # P_(1) = m_(1) = p_1
    assert hl_m_vector((1,), t) == {(1,): Fraction(1)}
    # P_(2,1) = m_(2,1) + (2 - t - t^2) m_(1,1,1)
    assert hl_m_vector((2, 1), t) == {
        (2, 1): Fraction(1), (1, 1, 1): 2 - t - t * t}


def test_hl_at_t_zero_is_schur():
    for n in range(5):
        for lam in partitions_of(n):
            got = hl_m_vector(lam, Fraction(0))
            expect = {
                mu: Fraction(c) for mu, c in schur_m_vector(lam, n or 1).items()}
            assert got == expect


def test_hl_at_t_one_is_monomial():
    for n in range(1, 6):
        for lam in partitions_of(n):
            got = hl_m_vector(lam, Fraction(1))
            assert got == {lam: Fraction(1)}


def test_hl_one_row_closed_form():
    # P_(n) = sum_mu (1-t)^(l(mu)-1) m_mu
    t = Fraction(-1, 3)
    for n in range(1, 8):
        assert hl_m_vector((n,), t) == {
            mu: (1 - t) ** (len(mu) - 1) for mu in partitions_of(n)}


def test_hl_monic_leading_term():
    t = Fraction(-1, 3)
    for n in range(1, 7):
        for lam in partitions_of(n):
            vec = hl_m_vector(lam, t)
            assert vec[lam] == 1


def test_hl_support_is_every_dominated_monomial():
    # P_lam = m_lam + sum over mu below lam in dominance, down to m_(1^n):
    # no monomial is cut for its length.  Dominance read off Kostka numbers.
    t = Fraction(2, 7)
    for lam in [(2,), (2, 1), (3, 1), (2, 2), (3, 2, 1)]:
        support = {mu for mu in partitions_of(sum(lam)) if kostka(lam, mu)}
        assert set(hl_m_vector(lam, t)) == support


def test_power_to_hl_degree_two_identities():
    t = Fraction(3, 7)
    # p_1^2 = P_(2) + (1+t) P_(1,1)
    assert power_to_hl((1, 1), t) == {(2,): Fraction(1), (1, 1): 1 + t}
    # p_2 = P_(2) - (1-t) P_(1,1)
    assert power_to_hl((2,), t) == {(2,): Fraction(1), (1, 1): -(1 - t)}
    assert power_to_hl((), t) == {(): Fraction(1)}


def test_power_to_hl_round_trip():
    # substituting the monomial expansions back reproduces p_rho
    t = Fraction(-1, 3)
    for n in range(1, 8):
        for rho in partitions_of(n):
            acc = {}
            for lam, c in power_to_hl(rho, t).items():
                for mu, k in hl_m_vector(lam, t).items():
                    acc[mu] = acc.get(mu, Fraction(0)) + c * k
            acc = {k: v for k, v in acc.items() if v}
            expect = {mu: Fraction(c) for mu, c in power_m_vector(rho).items()}
            assert acc == expect


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.sampled_from(partitions_of(n))),
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3)).filter(
        lambda t: t not in (1, -1)))
def test_power_to_hl_never_leaves_remainder(rho, t):
    # the zero-remainder check lives inside power_to_hl; also check grading
    out = power_to_hl(rho, t)
    assert out
    assert all(sum(lam) == sum(rho) for lam in out)


def test_power_to_hl_rejects_a_non_monic_expansion(monkeypatch):
    def doubled(lam, t):
        return {mu: 2 * c for mu, c in hl_m_vector(lam, t).items()}

    monkeypatch.setattr(symfunc, "hl_m_vector", doubled)
    with pytest.raises(ValueError, match="not monic"):
        power_to_hl.__wrapped__((1, 1), Fraction(1, 3))


def test_power_to_hl_rejects_a_remainder(monkeypatch):
    # a monomial that is no partition of |rho| is never cleared
    monkeypatch.setattr(symfunc, "power_m_vector", lambda rho: {(3,): 1})
    with pytest.raises(ValueError, match="left a remainder"):
        power_to_hl.__wrapped__((1, 1), Fraction(1, 3))


# -- transform to class alphabets ------------------------------------------


def field_transform(ctx, k, phi):
    """The fiber sum of _transform_terms, summed in Q(zeta_{M_{k|phi|}}).

    For each class exponent e at level k|phi|, add xi(e) to the term of the
    class orbit f of e; xi is phi lifted through the transpose of the norm.
    """
    level = k * phi.level
    mod = ctx.modulus(level)
    lifted = lift_character(ctx, phi.level, level, phi.min_exponent)
    acc = {}
    for e in range(mod):
        f = frobenius_orbit(ctx, level, e)
        key = (f, level // f.level)
        val = cyclotomic.zeta(mod, (lifted * e) % mod)
        acc[key] = acc[key] + val if key in acc else val
    sign = (-1) ** (level - 1)
    return tuple(
        (f, r, val * sign) for (f, r), val in sorted(acc.items())
        if not val.is_zero())


@pytest.mark.parametrize("q,n", [(3, 3), (4, 3), (2, 4), (9, 2)])
def test_group_ring_transforms_match_the_field_oracle(q, n):
    # every (k, phi) that char_table reaches: the parts k of the power sums
    # in the Schur expansion of each partition lam^(phi)
    ctx = TorusContext(q, n)
    reached = {
        (k, phi)
        for lam in enumerate_multipartitions(ctx, n, THETA)
        for phi, parts in lam.entries
        for nu in schur_to_power(parts)
        for k in nu}
    big = ctx.cyclo_modulus
    for k, phi in sorted(reached):
        want = field_transform(ctx, k, phi)
        got = symfunc._transform_embedded(ctx, k, phi)
        assert [(f, r) for f, r, _ in got] == [(f, r) for f, r, _ in want]
        for (_, _, ring), (_, _, val) in zip(got, want):
            assert cyclotomic.from_terms(big, ring) == cyclotomic.embed(val, big)


def transform(ctx, k, phi):
    """p_k(Y^(phi)) as {(f, r): coefficient of p_r(X^(f)) in Q(zeta_{M_{k|phi|}})}."""
    mod = ctx.modulus(k * phi.level)
    return {(f, r): cyclotomic.from_terms(mod, val)
            for f, r, val in symfunc._transform_terms(ctx, k, phi)}


def test_transform_trivial_character_level_one():
    ctx = TorusContext(3, 2)
    got = transform(ctx, 1, one_orbit(ctx, THETA))
    # p_1(Y^1) = sum over all four level-1 class orbits with coefficient 1
    assert len(got) == 4
    for (f, r), coeff in got.items():
        assert f.level == 1 and r == 1
        assert coeff == 1


def test_transform_sigma_character_alternates():
    ctx = TorusContext(3, 2)
    got = {
        f.min_exponent: coeff
        for (f, _), coeff in transform(ctx, 1, sigma_orbit(ctx)).items()}
    assert got[0] == 1 and got[2] == 1
    assert got[1] == -1 and got[3] == -1


def test_transform_coefficients_sum_to_zero_off_identity():
    # summing xi(alpha) over all characters xi kills every alpha except 0
    ctx = TorusContext(3, 2)
    totals = {}
    for phi in [frobenius_orbit(ctx, 1, e) for e in range(4)]:
        for (f, _), coeff in transform(ctx, 1, phi).items():
            e = f.min_exponent
            totals[e] = totals.get(e, cyclotomic.zero(4)) + coeff
    assert totals[0] == 4
    for e in (1, 2, 3):
        assert totals[e].is_zero()


def test_transform_level_two_character():
    # p_1 on a size-2 character orbit expands at level 2 with sign -1
    ctx = TorusContext(3, 2)
    phi = frobenius_orbit(ctx, 2, 1)
    assert phi.level == 2
    got = transform(ctx, 1, phi)
    # the two exact level-2 class orbits get coefficient zeta8 + zeta8^5 = 0,
    # so only the four descended level-1 orbits survive, each carrying p_2
    assert len(got) == 4
    assert all(f.level == 1 for f, _ in got)
    assert {r for _, r in got} == {2}


# -- character values: U(1) ------------------------------------------------


def test_u1_table_is_fourier_matrix():
    ctx = TorusContext(3, 1)
    table = char_table(ctx)
    assert len(table.chars) == 4 and len(table.classes) == 4
    for lam in table.chars:
        c = lam.entries[0][0].min_exponent
        for mu in table.classes:
            e = mu.entries[0][0].min_exponent
            assert cyclotomic.same_value(
                table.value(lam, mu), cyclotomic.zeta(4, (c * e) % 4))


def test_u1_q2():
    ctx = TorusContext(2, 1)
    table = char_table(ctx)
    assert len(table.chars) == 3
    for lam in table.chars:
        c = lam.entries[0][0].min_exponent
        for mu in table.classes:
            e = mu.entries[0][0].min_exponent
            assert cyclotomic.same_value(
                table.value(lam, mu), cyclotomic.zeta(3, (c * e) % 3))


# -- character values: U(2) over F_9 ---------------------------------------


@pytest.fixture(scope="module")
def u2():
    ctx = TorusContext(3, 2)
    return ctx, char_table(ctx)


def _label(ctx, side, *pairs):
    resolved = []
    for (level, exponent), parts in pairs:
        resolved.append((frobenius_orbit(ctx, level, exponent), parts))
    return MultiPartition.make(side, resolved)


def test_u2_shape(u2):
    ctx, table = u2
    assert len(table.chars) == 16
    assert len(table.classes) == 16
    assert table.modulus == 8


def test_u2_trivial_row_is_all_ones(u2):
    ctx, table = u2
    triv = _label(ctx, THETA, ((1, 0), (1, 1)))
    for mu in table.classes:
        assert table.value(triv, mu) == 1


def test_u2_degrees(u2):
    # identity column: degrees 1 (4 times), q-1=2 (6), q=3 (4), q+1=4 (2)
    ctx, table = u2
    ident = _label(ctx, PHI, ((1, 0), (1, 1)))
    degs = sorted(
        int(table.value(lam, ident).rational_value()) for lam in table.chars)
    assert degs == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4]
    assert sum(d * d for d in degs) == group_order(ctx)


def test_u2_linear_character_values(u2):
    # chi^{(1,1) on theta-orbit c} is theta_c composed with the determinant;
    # on the level-2 class of exponent e it evaluates to zeta_4^(c e)
    ctx, table = u2
    for c in range(4):
        lam = _label(ctx, THETA, ((1, c), (1, 1)))
        for e in (1, 3):
            mu = _label(ctx, PHI, ((2, e), (1,)))
            expect = cyclotomic.zeta(4, (c * e) % 4)
            assert cyclotomic.same_value(table.value(lam, mu), expect)
    # the hand-checked single value: c = 1, class exponent 1 gives i
    lam = _label(ctx, THETA, ((1, 1), (1, 1)))
    mu = _label(ctx, PHI, ((2, 1), (1,)))
    assert cyclotomic.same_value(table.value(lam, mu), cyclotomic.zeta(4, 1))


def test_u2_level_two_rows_vanish_on_level_two_classes(u2):
    # zeta_8 + zeta_8^5 = 0: the q=3 degenerate case
    ctx, table = u2
    ident = _label(ctx, PHI, ((1, 0), (1, 1)))
    for ce in (1, 3):
        lam = _label(ctx, THETA, ((2, ce), (1,)))
        assert table.value(lam, ident) == 4
        for ee in (1, 3):
            mu = _label(ctx, PHI, ((2, ee), (1,)))
            assert table.value(lam, mu).is_zero()


def test_u2_steinberg_values(u2):
    # hand computation: the degree-q row vanishes on the regular unipotent
    # class and takes value -1 on split and +1 on nonsplit regular
    # semisimple classes (the Ennola turn of the GL(2) pattern)
    ctx, table = u2
    st_row = _label(ctx, THETA, ((1, 0), (2,)))
    assert table.value(st_row, _label(ctx, PHI, ((1, 0), (1, 1)))) == 3
    assert table.value(st_row, _label(ctx, PHI, ((1, 0), (2,)))).is_zero()
    split = MultiPartition.make(PHI, [
        (frobenius_orbit(ctx, 1, 0), (1,)),
        (frobenius_orbit(ctx, 1, 1), (1,)),
    ])
    assert table.value(st_row, split) == -1
    assert table.value(st_row, _label(ctx, PHI, ((2, 1), (1,)))) == 1


def test_u2_row_orthogonality(u2):
    ctx, table = u2
    classes = {c.label: c for c in class_table(ctx)}
    order = group_order(ctx)
    for i, lam in enumerate(table.chars):
        for lam2 in table.chars[i:]:
            acc = cyclotomic.zero(table.modulus)
            for mu in table.classes:
                v1 = table.value(lam, mu)
                v2 = table.value(lam2, mu)
                acc = acc + v1 * v2.conjugate() * classes[mu].size
            expect = order if lam == lam2 else 0
            assert acc == expect


def test_u2_column_orthogonality_identity_column(u2):
    ctx, table = u2
    ident = _label(ctx, PHI, ((1, 0), (1, 1)))
    lvl2 = _label(ctx, PHI, ((2, 1), (1,)))
    acc = cyclotomic.zero(table.modulus)
    for lam in table.chars:
        v = table.value(lam, lvl2)
        acc = acc + v * v.conjugate()
    assert acc == centralizer_order(ctx, lvl2)
    acc2 = cyclotomic.zero(table.modulus)
    for lam in table.chars:
        acc2 = acc2 + table.value(lam, ident) * table.value(lam, lvl2).conjugate()
    assert acc2.is_zero()


@pytest.mark.parametrize("q,n", [(3, 2), (2, 3), (3, 3), (2, 4), (9, 2),
                                 (4, 3), (5, 3), (3, 4)])
def test_column_orthogonality(q, n):
    # sum_chi chi(g) conj(chi(h)) = |C(g)| [g == h], one column g at a time,
    # against centralizer_order on the classes of class_table
    ctx = TorusContext(q, n)
    table = char_table(ctx, max_cells=10**5)
    centralizer = {c.label: centralizer_order(ctx, c.label) for c in class_table(ctx)}
    assert centralizer.keys() == set(table.classes)
    # character values are cyclotomic integers: their terms are over 1
    assert all(v.den == 1 for row in table.values for v in row)
    columns = list(zip(*([v.coeffs for v in row] for row in table.values)))
    for j, g in enumerate(table.classes):
        conj_g = [[(-e, c) for e, c in terms] for terms in columns[j]]
        for k in range(j, len(columns)):  # the sum for (h, g) is the conjugate
            acc = cyclotomic.sum_of_products(table.modulus, zip(columns[k], conj_g))
            assert acc == (centralizer[g] if j == k else 0), (g, table.classes[k])


def test_u2_q2_row_orthogonality():
    # q = 2: the two torus orders collapse to 3 and the table is 9 x 9
    ctx = TorusContext(2, 2)
    table = char_table(ctx)
    assert len(table.chars) == 9
    classes = {c.label: c for c in class_table(ctx)}
    order = group_order(ctx)
    for i, lam in enumerate(table.chars):
        for lam2 in table.chars[i:]:
            acc = cyclotomic.zero(table.modulus)
            for mu in table.classes:
                acc = (acc + table.value(lam, mu)
                       * table.value(lam2, mu).conjugate() * classes[mu].size)
            assert acc == (order if lam == lam2 else 0)


def test_char_value_single_entry(u2):
    ctx, table = u2
    lam = _label(ctx, THETA, ((1, 0), (2,)))
    mu = _label(ctx, PHI, ((1, 0), (2,)))
    zero = cyclotomic.zero(table.modulus)
    assert char_row(ctx, lam).get(mu, zero) == table.value(lam, mu)


def test_char_row_rejects_wrong_side():
    ctx = TorusContext(3, 2)
    wrong = MultiPartition.make(PHI, [(one_orbit(ctx, PHI), (2,))])
    with pytest.raises(ValueError):
        char_row(ctx, wrong)


def test_table_size_refusal():
    ctx = TorusContext(3, 2)
    with pytest.raises(TableTooLarge):
        char_table(ctx, max_cells=10)


def test_a_table_is_priced_before_any_label_is_built(monkeypatch):
    # the (q + 1)^2 cells at (1000003, 1) are counted, not enumerated: with
    # the orbit scan and the enumeration broken, the refusal still comes
    def broken(*args):
        raise AssertionError("enumerated before the refusal")

    monkeypatch.setattr(symfunc, "enumerate_multipartitions", broken)
    monkeypatch.setattr(torus, "exact_orbits", broken)
    with pytest.raises(TableTooLarge) as exc:
        char_table(TorusContext(1000003, 1))
    assert str(exc.value) == (
        "table would have 1000008000016 entries (bound 4096); "
        "raise the bound explicitly to proceed")


@pytest.mark.parametrize("q,n,classes", [(4, 3, 110), (9, 2, 100)])
def test_class_expansions_are_shared_by_all_rows(q, n, classes):
    # the Hall-Littlewood expansion of a power-sum product depends only on
    # (q, n) and the product, and there is one product per class
    ctx = TorusContext(q, n)
    char_row.cache_clear()
    symfunc._row_sums.cache_clear()
    symfunc._class_expansion.cache_clear()
    table = char_table(ctx, max_cells=classes**2)
    assert len(table.classes) == classes
    assert symfunc._class_expansion.cache_info().currsize == classes


# -- Galois-conjugate rows -------------------------------------------------


def coset_representatives(m, base):
    """One unit k of each coset k<base> of the cyclic subgroup <base> of (Z/m)^x."""
    seen, reps = set(), []
    for k in range(1, m):
        if gcd(k, m) == 1 and k not in seen:
            reps.append(k)
            x = k
            while x not in seen:
                seen.add(x)
                x = x * base % m
    return reps


def expanded_row(ctx, lam):
    """chi^lam with no cache and no sigma_k: lam's own group-ring sums,
    each reduced by one from_terms."""
    big = ctx.cyclo_modulus
    mus, sums = symfunc._row_sums.__wrapped__(ctx, lam)
    row = {mu: cyclotomic.from_terms(big, ring, den)
           for mu, (ring, den) in zip(mus, sums)}
    return {mu: v for mu, v in row.items() if not v.is_zero()}


@pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (2, 4), (4, 3), (9, 2)])
def test_rows_are_galois_equivariant(q, n):
    # sigma_k(chi^lam) = chi^(lam^k) for every label and every unit k, with
    # each label expanded through the characteristic map on its own as the
    # oracle.  sigma_(-q) fixes each row (lam^(-q) = lam), so every unit is
    # covered by checking that and one unit per coset of <-q>
    ctx = TorusContext(q, n)
    big = ctx.cyclo_modulus
    units = coset_representatives(big, -q % big)
    for lam in enumerate_multipartitions(ctx, n, THETA):
        direct = expanded_row(ctx, lam)
        assert mp_galois(ctx, lam, -q) == lam
        assert {mu: cyclotomic.galois(v, -q) for mu, v in direct.items()} == direct
        for k in units:
            assert char_row(ctx, mp_galois(ctx, lam, k)) == {
                mu: cyclotomic.galois(v, k) for mu, v in direct.items()}, (lam, k)


@pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (2, 4), (4, 3), (9, 2), (3, 4), (5, 3)])
def test_columns_are_galois_equivariant(q, n):
    # chi(mu^k) = sigma_k(chi(mu)) for every class mu and unit k, where mu^k
    # is mp_galois on the class side.  The tables never use this identity,
    # and sigma_k here acts on values, so it checks the characteristic map
    # apart from the rows' sigma_k on group-ring sums.  mu^(-q) = mu, so one
    # unit per coset of <-q> covers them all
    ctx = TorusContext(q, n)
    table = char_table(ctx, max_cells=10**5)
    big = table.modulus
    column = {mu: j for j, mu in enumerate(table.classes)}
    assert all(mp_galois(ctx, mu, -q) == mu for mu in table.classes)
    for k in coset_representatives(big, -q % big):
        for j, mu in enumerate(table.classes):
            image = column[mp_galois(ctx, mu, k)]
            for lam, row in zip(table.chars, table.values):
                assert row[image] == cyclotomic.galois(row[j], k), (lam, mu, k)


@pytest.mark.parametrize("q,n,orbits", [(4, 3, 28), (9, 2, 27), (5, 3, 84), (3, 4, 99)])
def test_galois_orbits_of_labels(q, n, orbits):
    ctx = TorusContext(q, n)
    labels = enumerate_multipartitions(ctx, n, THETA)
    found = symfunc.galois_orbits(ctx)
    assert set(found) == set(labels)
    assert len({rep for rep, _ in found.values()}) == orbits
    for lam, (rep, k) in found.items():
        assert gcd(k, ctx.cyclo_modulus) == 1
        assert mp_galois(ctx, rep, k) == lam
        # the representative is the first member in canonical order
        assert labels.index(rep) <= labels.index(lam)
        assert found[rep] == (rep, 1)


@pytest.mark.parametrize("size", [1, 3])
def test_char_row_rejects_a_label_of_another_degree(size):
    # a label of U(1) or U(3) names no row of the U(2) table
    ctx = TorusContext(3, 2)
    other = enumerate_multipartitions(TorusContext(3, size), size, THETA)[0]
    with pytest.raises(ValueError, match=f"of size {size} at degree 2"):
        char_row(ctx, other)


def test_char_row_rejects_a_label_that_is_not_enumerated():
    # an orbit keyed by an exponent that is not its minimum names no label
    ctx = TorusContext(3, 2)
    wrong = MultiPartition.make(THETA, [(OrbitLabel(2, 7), (1,))])
    with pytest.raises(ValueError, match="not a character label"):
        char_row(ctx, wrong)


# -- scalar products through centralizer weights ---------------------------


def test_characters_are_orthonormal_under_class_pairing():
    # sum over classes of chi(mu) conj(chi'(mu)) / |centralizer(mu)| = delta
    for q, n in [(3, 1), (3, 2)]:
        ctx = TorusContext(q, n)
        table = char_table(ctx)
        cents = {
            mu: centralizer_order(ctx, mu)
            for mu in enumerate_multipartitions(ctx, n, PHI)}
        # in integers over one denominator, the lcm of the centralizer orders
        den = lcm(*cents.values())
        for lam in table.chars:
            acc = cyclotomic.zero(table.modulus)
            for mu in table.classes:
                v = table.value(lam, mu)
                acc = acc + v * v.conjugate() * (den // cents[mu])
            assert acc == den


def test_rows_share_one_object_per_distinct_value():
    # representative and image rows alike hold the first object of each value
    table = char_table(TorusContext(4, 2))
    cells = [v for row in table.values for v in row]
    assert len({id(v) for v in cells}) == len(set(cells)) < len(cells) // 4
