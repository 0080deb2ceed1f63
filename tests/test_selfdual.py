"""Self-dual polynomials: enumeration vs brute force, and the realization
of real semisimple character labels as polynomials.

The headline cross-check: over F_q with q odd, the labels with indicator -1
map bijectively onto the self-dual polynomials with constant term -1, and
the orthogonal ones onto constant +1.
"""

import pytest

from uqchar import gf, selfdual
from uqchar.characters import family_labels, fs_semisimple_regular, is_real
from uqchar.gf import GF, poly_to_str, poly_trim
from uqchar.multipartition import MultiPartition
from uqchar.selfdual import (
    brute_force_self_dual,
    char_to_polynomial,
    count_by_constant,
    dual_poly,
    enumerate_self_dual,
    is_self_dual,
    orbit_polynomial,
)
from uqchar.torus import (
    THETA,
    TorusContext,
    conjugate_orbit,
    frobenius_orbit,
    one_orbit,
    sigma_orbit,
)


def test_dual_examples():
    F = GF(3)
    assert dual_poly(F, (2, 1, 1)) == (2, 2, 1)  # dual(x^2+x+2) = x^2+2x+2
    assert dual_poly(F, (2, 2, 1)) == (2, 1, 1)
    assert dual_poly(F, (1, 0, 1)) == (1, 0, 1)
    with pytest.raises(ValueError):
        dual_poly(F, (0, 1))


def test_dual_is_involution():
    F = GF(5)
    for h in [(2, 3, 1), (4, 0, 0, 1), (1, 1, 1, 1), (3, 1)]:
        assert dual_poly(F, dual_poly(F, h)) == poly_trim(F, h)


def test_self_dual_examples():
    F = GF(3)
    assert is_self_dual(F, (1, 0, 1))  # x^2 + 1
    assert is_self_dual(F, (2, 0, 1))  # x^2 + 2
    assert is_self_dual(F, (1, 1, 1))
    assert not is_self_dual(F, (2, 1, 1))
    assert not is_self_dual(F, (0, 1))  # zero constant term


def test_enumerate_degree2_f3():
    F = GF(3)
    minus = enumerate_self_dual(F, 2, -1)
    assert minus == ((2, 0, 1),)  # x^2 + 2 only
    plus = enumerate_self_dual(F, 2, 1)
    assert plus == ((1, 0, 1), (1, 1, 1), (1, 2, 1))
    assert len(enumerate_self_dual(F, 2)) == 4


def test_enumerate_degree4_f3():
    F = GF(3)
    minus = enumerate_self_dual(F, 4, -1)
    assert len(minus) == 3
    # x^4 + a x^3 - a x - 1 with the middle coefficient forced to zero
    for h in minus:
        assert h[0] == 2 and h[2] == 0 and h[4] == 1
        assert h[3] == (-h[1]) % 3
    assert len(enumerate_self_dual(F, 4, 1)) == 9


def test_counts_match_powers_of_q():
    for q in (3, 5, 7):
        F = GF(q)
        for n in (2, 4):
            assert count_by_constant(F, n, 1) == q ** (n // 2)
            assert count_by_constant(F, n, -1) == q ** (n // 2 - 1)
        assert count_by_constant(F, 3, 1) == q


def test_enumerate_matches_brute_force():
    cases = [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (2, 2), (2, 4), (7, 2),
             (4, 3), (4, 4), (8, 2), (8, 3), (9, 2), (9, 3), (2, 5), (3, 5)]
    for q, n in cases:
        F = GF(q)
        for constant in (1, -1, None):
            got = enumerate_self_dual(F, n, constant)
            expect = brute_force_self_dual(F, n, constant)
            assert got == expect, (q, n, constant)


def test_brute_force_char2_constants_collapse():
    F = GF(2)
    assert enumerate_self_dual(F, 2, 1) == enumerate_self_dual(F, 2, -1)


@pytest.mark.parametrize("constant", [0, 2, -2, "1"])
def test_a_constant_other_than_plus_or_minus_one_is_refused(constant):
    # h(0)^2 = 1 for a self-dual h: any other constant names no polynomial,
    # and is refused rather than read as -1
    F = GF(5)
    for call in (enumerate_self_dual, brute_force_self_dual, count_by_constant):
        with pytest.raises(ValueError, match="constant must be 1, -1 or None"):
            call(F, 2, constant)


def test_orbit_polynomial_oracles_q3():
    ctx = TorusContext(3, 4)
    one = frobenius_orbit(ctx, 1, 0)
    assert orbit_polynomial(ctx, one) == (1, 1)  # x + 1
    sig = frobenius_orbit(ctx, 1, 2)
    assert orbit_polynomial(ctx, sig) == (2, 1)  # x + 2, the -1 eigenvalue
    pair = frobenius_orbit(ctx, 1, 1)
    assert orbit_polynomial(ctx, pair) == (1, 0, 1)  # x^2 + 1
    lvl2 = frobenius_orbit(ctx, 2, 1)
    assert orbit_polynomial(ctx, lvl2) == (1, 0, 0, 0, 1)  # x^4 + 1


def test_orbit_polynomial_self_conjugate_level2_q5():
    # the orbit {6, 18} at level 2 over F_5 is its own conjugate; its
    # eigenvalues are the order-4 scalars 2 and 3, giving (x+2)(x+3)
    ctx = TorusContext(5, 2)
    orb = frobenius_orbit(ctx, 2, 6)
    assert orb.level == 2
    from uqchar.torus import conjugate_orbit

    assert conjugate_orbit(ctx, orb) == orb
    assert orbit_polynomial(ctx, orb) == (1, 0, 1)


def test_realization_u2_f9():
    ctx = TorusContext(3, 2)
    one = one_orbit(ctx, THETA)
    sig = sigma_orbit(ctx)
    triv = MultiPartition.make(THETA, [(one, (1, 1))])
    assert char_to_polynomial(ctx, triv) == (1, 2, 1)  # (x+1)^2
    sig2 = MultiPartition.make(THETA, [(sig, (1, 1))])
    assert char_to_polynomial(ctx, sig2) == (1, 1, 1)  # (x+2)^2 = x^2+x+1
    symp = MultiPartition.make(THETA, [(one, (1,)), (sig, (1,))])
    assert char_to_polynomial(ctx, symp) == (2, 0, 1)  # x^2 - 1
    pair = MultiPartition.make(THETA, [(frobenius_orbit(ctx, 1, 1), (1,)),
                                       (frobenius_orbit(ctx, 1, 3), (1,))])
    assert char_to_polynomial(ctx, pair) == (1, 0, 1)


def test_realization_rejects_wrong_labels():
    ctx = TorusContext(3, 2)
    one = one_orbit(ctx, THETA)
    with pytest.raises(ValueError):
        char_to_polynomial(ctx, MultiPartition.make(THETA, [(one, (2,))]))
    nonreal = MultiPartition.make(
        THETA, [(frobenius_orbit(ctx, 1, 1), (1, 1))])
    with pytest.raises(ValueError):
        char_to_polynomial(ctx, nonreal)


def test_enumerate_rejects_a_polynomial_that_is_not_self_dual(monkeypatch):
    monkeypatch.setattr(selfdual, "is_self_dual", lambda F, h: False)
    with pytest.raises(ValueError, match="not self-dual"):
        enumerate_self_dual(GF(3), 2)


# a symplectic label of U(2, F_9): x^2 - 1 = (x - 1)(x + 1)
def _symplectic_u2():
    ctx = TorusContext(3, 2)
    lam = MultiPartition.make(
        THETA, [(one_orbit(ctx, THETA), (1,)), (sigma_orbit(ctx), (1,))])
    return ctx, lam


def test_realization_rejects_a_polynomial_of_the_wrong_degree(monkeypatch):
    monkeypatch.setattr(selfdual, "orbit_polynomial", lambda ctx, f: (1,))
    with pytest.raises(ValueError, match="not monic of degree 2"):
        char_to_polynomial(*_symplectic_u2())


def test_realization_rejects_a_polynomial_that_is_not_self_dual(monkeypatch):
    monkeypatch.setattr(selfdual, "is_self_dual", lambda F, h: False)
    with pytest.raises(ValueError, match="not self-dual"):
        char_to_polynomial(*_symplectic_u2())


def _real_semisimple(ctx):
    """The real labels of the semisimple family, filtered."""
    return [lam for lam in family_labels(ctx, "semisimple") if is_real(ctx, lam)]


@pytest.mark.parametrize("q,n", [(3, 2), (3, 4), (5, 2)])
def test_bijection_with_self_dual_polynomials(q, n):
    ctx = TorusContext(q, n)
    F = GF(q)
    labels = _real_semisimple(ctx)
    image = {}
    for lam in labels:
        h = char_to_polynomial(ctx, lam)
        assert h not in image, "realization must be injective"
        image[h] = lam
    assert set(image) == set(enumerate_self_dual(F, n))
    # indicator -1 iff constant term -1
    minus = set(enumerate_self_dual(F, n, -1))
    for h, lam in image.items():
        eps = fs_semisimple_regular(ctx, lam)
        assert (h in minus) == (eps == -1), (h, lam)


def test_each_subgroup_generator_is_found_once_per_level():
    # orbit_polynomial asks for the generator of order M_d in F_(q^(2d)) once
    # per orbit; the scan for a primitive root runs once per level
    ctx = TorusContext(5, 4)
    selfdual.orbit_polynomial.cache_clear()
    gf.subgroup_generator.cache_clear()
    labels = _real_semisimple(ctx)
    for lam in labels:
        char_to_polynomial(ctx, lam)
    info = gf.subgroup_generator.cache_info()
    assert len(labels) > info.misses
    assert info.hits and info.misses <= ctx.n


@pytest.mark.parametrize("q,n", [(5, 4), (27, 3)])
def test_each_orbit_polynomial_is_computed_once_per_orbit(q, n):
    # the real labels hold each orbit many times; its factor is multiplied
    # out once per (ctx, orbit), for the smaller orbit of a conjugate pair
    ctx = TorusContext(q, n)
    selfdual.orbit_polynomial.cache_clear()
    labels = _real_semisimple(ctx)
    for lam in labels:
        char_to_polynomial(ctx, lam)
    held = [o for lam in labels for o, _ in lam.entries
            if o <= conjugate_orbit(ctx, o)]
    info = selfdual.orbit_polynomial.cache_info()
    assert info.misses == len(set(held))
    assert info.hits + info.misses == len(held) > info.misses


def test_poly_rendering_for_cli():
    F = GF(3)
    assert poly_to_str(F, (2, 0, 1)) == "x^2 + 2"
    assert [poly_to_str(F, h) for h in enumerate_self_dual(F, 2, -1)] == ["x^2 + 2"]
