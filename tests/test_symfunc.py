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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqchar import cyclotomic
from uqchar.conjclasses import centralizer_order, class_table, group_order
from uqchar.cyclotomic import Cyclotomic
from uqchar.multipartition import (
    MultiPartition,
    enumerate_multipartitions,
)
from uqchar.partitions import conjugate, partitions_of
from uqchar.symfunc import (
    CharTable,
    TableTooLarge,
    char_row,
    char_table,
    char_value,
    dl_expand,
    dl_label,
    hl_m_vector,
    kostka,
    power_m_vector,
    power_to_hl,
    schur_m_vector,
    schur_to_power,
    sym_group_char,
    transform_y_to_x,
    z_weight,
)
from uqchar.torus import (
    PHI,
    THETA,
    OrbitLabel,
    TorusContext,
    frobenius_orbit,
    one_orbit,
    sigma_orbit,
)


def mp(side, *pairs):
    return MultiPartition.make(side, list(pairs))


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
                for mu, c in power_m_vector(nu, n).items():
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
    assert hl_m_vector((1, 1), t, 3) == {(1, 1): Fraction(1)}
    # P_(2) = m_(2) + (1-t) m_(1,1)
    assert hl_m_vector((2,), t, 3) == {(2,): Fraction(1), (1, 1): 1 - t}
    # P_(1) = m_(1) = p_1
    assert hl_m_vector((1,), t, 2) == {(1,): Fraction(1)}
    # P_(2,1) = m_(2,1) + (2 - t - t^2) m_(1,1,1)
    assert hl_m_vector((2, 1), t, 3) == {
        (2, 1): Fraction(1), (1, 1, 1): 2 - t - t * t}


def test_hl_at_t_zero_is_schur():
    for n in range(5):
        for lam in partitions_of(n):
            got = hl_m_vector(lam, Fraction(0), n or 1)
            expect = {
                mu: Fraction(c) for mu, c in schur_m_vector(lam, n or 1).items()}
            assert got == expect


def test_hl_at_t_one_is_monomial():
    for n in range(1, 6):
        for lam in partitions_of(n):
            got = hl_m_vector(lam, Fraction(1), n)
            assert got == {lam: Fraction(1)}


def test_hl_one_row_closed_form():
    # P_(n) = sum_mu (1-t)^(l(mu)-1) m_mu
    t = Fraction(-1, 3)
    for n in range(1, 8):
        assert hl_m_vector((n,), t, n) == {
            mu: (1 - t) ** (len(mu) - 1) for mu in partitions_of(n)}


def test_hl_monic_leading_term():
    t = Fraction(-1, 3)
    for n in range(1, 7):
        for lam in partitions_of(n):
            vec = hl_m_vector(lam, t, n)
            assert vec[lam] == 1


def test_hl_independent_of_extra_variables():
    # coefficient of a monomial with k nonzero parts is stable once nvars >= k
    t = Fraction(2, 7)
    for lam in [(2,), (2, 1), (3, 1), (2, 2)]:
        small = hl_m_vector(lam, t, sum(lam))
        large = hl_m_vector(lam, t, sum(lam) + 2)
        assert small == large


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
                for mu, k in hl_m_vector(lam, t, n).items():
                    acc[mu] = acc.get(mu, Fraction(0)) + c * k
            acc = {k: v for k, v in acc.items() if v}
            expect = {mu: Fraction(c) for mu, c in power_m_vector(rho, n).items()}
            assert acc == expect


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.sampled_from(partitions_of(n))),
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3)).filter(
        lambda t: t not in (1, -1)))
def test_power_to_hl_never_leaves_remainder(rho, t):
    # the zero-remainder assertion lives inside power_to_hl; also check grading
    out = power_to_hl(rho, t)
    assert out
    assert all(sum(lam) == sum(rho) for lam in out)


# -- transform to class alphabets ------------------------------------------


def test_transform_trivial_character_level_one():
    ctx = TorusContext(3, 2)
    expr = transform_y_to_x(ctx, 1, one_orbit(ctx, THETA))
    got = expr.as_dict()
    # p_1(Y^1) = sum over all four level-1 class orbits with coefficient 1
    assert len(got) == 4
    for label, coeff in got.items():
        assert label.side == PHI
        assert coeff == 1


def test_transform_sigma_character_alternates():
    ctx = TorusContext(3, 2)
    expr = transform_y_to_x(ctx, 1, sigma_orbit(ctx))
    got = {
        label.orbits()[0].min_exponent: coeff
        for label, coeff in expr.as_dict().items()}
    assert got[0] == 1 and got[2] == 1
    assert got[1] == -1 and got[3] == -1


def test_transform_coefficients_sum_to_zero_off_identity():
    # summing xi(alpha) over all characters xi kills every alpha except 0
    ctx = TorusContext(3, 2)
    totals = {}
    for phi in [frobenius_orbit(ctx, 1, e, THETA) for e in range(4)]:
        for label, coeff in transform_y_to_x(ctx, 1, phi).as_dict().items():
            e = label.orbits()[0].min_exponent
            totals[e] = totals.get(e, cyclotomic.zero(4)) + coeff
    assert totals[0] == 4
    for e in (1, 2, 3):
        assert totals[e].is_zero()


def test_transform_level_two_character():
    # p_1 on a size-2 character orbit expands at level 2 with sign -1
    ctx = TorusContext(3, 2)
    phi = frobenius_orbit(ctx, 2, 1, THETA)
    assert phi.size == 2
    got = transform_y_to_x(ctx, 1, phi).as_dict()
    # the two exact level-2 class orbits get coefficient zeta8 + zeta8^5 = 0,
    # so only the four descended level-1 orbits survive, each carrying p_2
    assert len(got) == 4
    assert all(label.orbits()[0].size == 1 for label in got)
    assert {label.entries[0][1] for label in got} == {(2,)}


# -- character values: U(1) ------------------------------------------------


def test_u1_table_is_fourier_matrix():
    ctx = TorusContext(3, 1)
    table = char_table(ctx)
    assert len(table.chars) == 4 and len(table.classes) == 4
    for lam in table.chars:
        c = lam.orbits()[0].min_exponent
        for mu in table.classes:
            e = mu.orbits()[0].min_exponent
            assert cyclotomic.same_value(
                table.value(lam, mu), cyclotomic.zeta(4, (c * e) % 4))


def test_u1_q2():
    ctx = TorusContext(2, 1)
    table = char_table(ctx)
    assert len(table.chars) == 3
    for lam in table.chars:
        c = lam.orbits()[0].min_exponent
        for mu in table.classes:
            e = mu.orbits()[0].min_exponent
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
        resolved.append((frobenius_orbit(ctx, level, exponent, side), parts))
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
        (frobenius_orbit(ctx, 1, 0, PHI), (1,)),
        (frobenius_orbit(ctx, 1, 1, PHI), (1,)),
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
    assert char_value(ctx, lam, mu) == table.value(lam, mu)


def test_char_row_rejects_wrong_side():
    ctx = TorusContext(3, 2)
    wrong = MultiPartition.make(PHI, [(one_orbit(ctx, PHI), (2,))])
    with pytest.raises(ValueError):
        char_row(ctx, wrong)


def test_table_size_refusal():
    ctx = TorusContext(3, 2)
    with pytest.raises(TableTooLarge):
        char_table(ctx, max_cells=10)


# -- scalar products through centralizer weights ---------------------------


def test_characters_are_orthonormal_under_class_pairing():
    # sum over classes of chi(mu) conj(chi'(mu)) / |centralizer(mu)| = delta
    for q, n in [(3, 1), (3, 2)]:
        ctx = TorusContext(q, n)
        table = char_table(ctx)
        cents = {
            mu: centralizer_order(ctx, mu)
            for mu in enumerate_multipartitions(ctx, n, PHI)}
        for lam in table.chars:
            acc = cyclotomic.zero(table.modulus)
            for mu in table.classes:
                v = table.value(lam, mu)
                acc = acc + v * v.conjugate() * Fraction(1, cents[mu])
            assert acc == 1


# -- virtual characters from torus data ------------------------------------


def test_dl_label_examples():
    ctx = TorusContext(3, 2)
    lab = dl_label(ctx, (1, 1), (0, 0))
    assert lab == mp(THETA, (one_orbit(ctx, THETA), (1, 1)))
    lab2 = dl_label(ctx, (2,), (1,))
    assert lab2 == mp(THETA, (frobenius_orbit(ctx, 2, 1, THETA), (1,)))
    # exponent 2 at level 2 descends to level 1, giving a single part 2
    lab3 = dl_label(ctx, (2,), (2,))
    orb = lab3.orbits()[0]
    assert orb.size == 1 and lab3.part_for(orb) == (2,)


def test_dl_expand_split_torus_trivial_character():
    # nu = (1,1), trivial theta: R = chi^{(1,1)} - chi^{(2)}
    ctx = TorusContext(3, 2)
    one = one_orbit(ctx, THETA)
    out = dl_expand(ctx, mp(THETA, (one, (1, 1))))
    assert out == {
        mp(THETA, (one, (1, 1))): 1,
        mp(THETA, (one, (2,))): -1,
    }


def test_dl_expand_coxeter_torus_trivial_character():
    # nu = (2), trivial theta: R = chi^{(2)} + chi^{(1,1)}
    ctx = TorusContext(3, 2)
    one = one_orbit(ctx, THETA)
    out = dl_expand(ctx, mp(THETA, (one, (2,))))
    assert out == {
        mp(THETA, (one, (1, 1))): 1,
        mp(THETA, (one, (2,))): 1,
    }


def test_dl_norm_two():
    ctx = TorusContext(3, 2)
    one = one_orbit(ctx, THETA)
    for entry in [(one, (1, 1)), (one, (2,))]:
        out = dl_expand(ctx, mp(THETA, entry))
        assert sum(c * c for c in out.values()) == 2


def test_dl_expansion_matches_table_values(u2):
    # the virtual character reassembled from the table equals
    # (+-) sum over classes of the power-sum image: check via inner products
    ctx, table = u2
    one = one_orbit(ctx, THETA)
    classes = {c.label: c for c in class_table(ctx)}
    order = group_order(ctx)
    out = dl_expand(ctx, mp(THETA, (one, (2,))))
    # norm of R computed from the table must also be 2
    acc = cyclotomic.zero(table.modulus)
    for mu in table.classes:
        v = cyclotomic.zero(table.modulus)
        for lam, c in out.items():
            v = v + table.value(lam, mu) * c
        acc = acc + v * v.conjugate() * classes[mu].size
    assert acc == 2 * order


def test_dl_label_rejects_length_mismatch():
    ctx = TorusContext(3, 2)
    with pytest.raises(ValueError):
        dl_label(ctx, (2,), (1, 0))
