"""Degrees, reality, central characters and Frobenius-Schur indicators.

The degree of the character labelled by a multipartition lam is

    q^(n(lam')) prod_{k<=n} (q^k - (-1)^k) / prod_b (q^h(b) - (-1)^h(b)),

the product in the denominator running over the boxes of all constituent
partitions with hooks weighted by the orbit size.  The central character is
read off torus exponents: each orbit phi contributes its exponent sum,
descended to level one, with multiplicity |lam^(phi)|.

For the indicator there are three routes: the closed-form value on the
semisimple and regular families (the sign of the central character at a
generator of the centre, equivalently the parity of the partition sitting on
the order-two character), the two-core parity rule on unipotent labels, and
the brute-force average of chi over squared classes.  They are computed
independently so tests can triangulate.
"""

from __future__ import annotations

from fractions import Fraction

from . import cyclotomic
from .conjclasses import class_square, class_table, group_order
from .cyclotomic import Cyclotomic
from .multipartition import (
    MultiPartition,
    enumerate_multipartitions,
    mp_bar,
    mp_conjugate,
    mp_n_stat,
    mp_weighted_hooks,
)
from .partitions import two_core
from .symfunc import char_row
from .torus import (
    THETA,
    TorusContext,
    one_orbit,
    orbit_exponent_sum,
    sigma_orbit,
    to_level_one,
)

BRUTE_FS_MAX_N = 2


def degree(ctx: TorusContext, lam: MultiPartition) -> int:
    """chi^lam(1) by the weighted hook product; exact."""
    if lam.side != THETA:
        raise ValueError("character labels live on the theta side")
    n = lam.size
    q = ctx.q
    num = q ** mp_n_stat(mp_conjugate(lam))
    for k in range(1, n + 1):
        num *= q**k - (-1) ** k
    den = 1
    for h in mp_weighted_hooks(lam):
        den *= q**h - (-1) ** h
    assert num % den == 0, f"hook product does not divide for {lam}"
    deg = num // den
    assert deg > 0
    return deg


def is_unipotent(lam: MultiPartition) -> bool:
    """Support entirely on the trivial character orbit."""
    return all(o.level == 1 and o.min_exponent == 0 for o in lam.orbits())


def is_semisimple(lam: MultiPartition) -> bool:
    """Every constituent partition is a column (all parts equal to 1)."""
    return all(
        all(p == 1 for p in parts) for _, parts in lam.entries)


def is_regular(lam: MultiPartition) -> bool:
    """Every constituent partition is a row (a single part)."""
    return all(len(parts) == 1 for _, parts in lam.entries)


def is_real(ctx: TorusContext, lam: MultiPartition) -> bool:
    """chi^lam is real-valued iff the label is fixed by orbit conjugation."""
    return mp_bar(ctx, lam) == lam


def omega_exponent(ctx: TorusContext, lam: MultiPartition) -> int:
    """Exponent of the central character on the generator of the centre.

    chi(z^alpha g) = zeta_{M_1}^(omega alpha) chi(g).  Each orbit's exponent
    sum is Frobenius-fixed, so it descends to a level-one exponent; boxes of
    the same orbit all restrict to the centre identically.
    """
    if lam.side != THETA:
        raise ValueError("character labels live on the theta side")
    m1 = ctx.modulus(1)
    total = 0
    for phi, parts in lam.entries:
        s = orbit_exponent_sum(ctx, phi)
        total += to_level_one(ctx, phi.level, s) * sum(parts)
    return total % m1


def central_value(ctx: TorusContext, lam: MultiPartition, alpha: int) -> Cyclotomic:
    """Value of chi^lam on the central element z^alpha, in Q(zeta_{M_1})."""
    w = omega_exponent(ctx, lam)
    m1 = ctx.modulus(1)
    return cyclotomic.zeta(m1, (w * alpha) % m1) * degree(ctx, lam)


def fs_semisimple_regular(ctx: TorusContext, lam: MultiPartition) -> int:
    """Indicator of a real character in the semisimple or regular family.

    n odd: always orthogonal.  n even: the sign of the central character at
    a generator of the centre; for odd q this must agree with the parity of
    the partition carried by the order-two character, and both are checked.
    """
    if not (is_semisimple(lam) or is_regular(lam)):
        raise ValueError("closed form only covers semisimple or regular labels")
    if not is_real(ctx, lam):
        raise ValueError("indicator routes expect a real character")
    n = lam.size
    if n % 2:
        return 1
    w = omega_exponent(ctx, lam)
    m1 = ctx.modulus(1)
    if ctx.q % 2 == 0:
        # the centre has odd order, so a real central character is trivial
        assert w == 0, (lam, w)
        return 1
    assert w in (0, m1 // 2), (lam, w)
    via_centre = 1 if w == 0 else -1
    sigma_part = lam.part_for(sigma_orbit(ctx))
    via_sigma = -1 if sum(sigma_part) % 2 else 1
    assert via_centre == via_sigma, (lam, via_centre, via_sigma)
    return via_centre


def fs_unipotent(ctx: TorusContext, lam: MultiPartition) -> int:
    """Indicator of a unipotent character: parity of half the two-core size."""
    if not is_unipotent(lam):
        raise ValueError("two-core rule only covers unipotent labels")
    core = two_core(lam.part_for(one_orbit(ctx, THETA)))
    return (-1) ** (sum(core) // 2)


def fs_bruteforce(
    ctx: TorusContext, lam: MultiPartition, max_n: int = BRUTE_FS_MAX_N
) -> int:
    """Indicator as the exact average of chi over squares of group elements.

    Sums |K| chi(K^2) over conjugacy classes K, divided by |G|; any q.
    Guarded by max_n because it builds a full character row.
    """
    n = lam.size
    if n > max_n:
        raise ValueError(
            f"brute-force indicator at degree {n} exceeds the bound {max_n}; "
            "raise max_n explicitly to proceed")
    row = char_row(ctx, lam)
    big = ctx.cyclo_modulus
    zero = cyclotomic.zero(big)
    acc = zero
    for cls in class_table(ctx, n):
        sq = class_square(ctx, cls.label)
        acc = acc + row.get(sq, zero) * cls.size
    acc = acc * Fraction(1, group_order(ctx, n))
    kind, value = cyclotomic.classify(acc)
    assert kind == "rational", f"indicator of {lam} is not rational: {acc}"
    eps = int(value)
    assert eps in (-1, 0, 1) and Fraction(eps) == value, (lam, value)
    assert (eps == 0) == (not is_real(ctx, lam)), (lam, eps)
    return eps


def census_semisimple(ctx: TorusContext, n: int | None = None) -> dict:
    """Count real semisimple characters by indicator at degree n.

    Returns q, n, the number of semisimple labels, the number of real ones,
    and the orthogonal/symplectic split.  route_agreement reports how many
    labels had their indicator confirmed by two independent routes (the
    closed form asserts agreement internally for even n, odd q).
    """
    n = ctx.n if n is None else n
    semisimple = sum(map(is_semisimple, enumerate_multipartitions(ctx, n, THETA)))
    real = real_semisimple_labels(ctx, n)
    orthogonal = symplectic = 0
    cross_checked = 0
    for lam in real:
        eps = fs_semisimple_regular(ctx, lam)
        if eps == 1:
            orthogonal += 1
        else:
            symplectic += 1
        if n % 2 == 0 and ctx.q % 2 == 1:
            cross_checked += 1
    return {
        "q": ctx.q,
        "n": n,
        "semisimple": semisimple,
        "real_total": len(real),
        "orthogonal": orthogonal,
        "symplectic": symplectic,
        "route_agreement": cross_checked,
    }


def real_semisimple_labels(
    ctx: TorusContext, n: int | None = None
) -> list[MultiPartition]:
    """The real semisimple labels at degree n, in canonical order."""
    n = ctx.n if n is None else n
    return [
        lam for lam in enumerate_multipartitions(ctx, n, THETA)
        if is_semisimple(lam) and is_real(ctx, lam)]


def symplectic_labels(ctx: TorusContext, n: int | None = None) -> list[MultiPartition]:
    """The real semisimple labels with indicator -1, in canonical order."""
    return [
        lam for lam in real_semisimple_labels(ctx, n)
        if fs_semisimple_regular(ctx, lam) == -1]
