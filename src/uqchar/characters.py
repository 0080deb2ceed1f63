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

from functools import cache
from math import comb, lcm

from . import cyclotomic
from .conjclasses import class_square, class_table, group_order
from .cyclotomic import Cyclotomic
from .multipartition import (
    MultiPartition,
    mp_bar,
    mp_n_conjugate,
    mp_weighted_hooks,
)
from .partitions import two_core
from .symfunc import char_row
from .torus import (
    THETA,
    TorusContext,
    conjugate_orbit,
    count_exact_orbits,
    one_orbit,
    orbit_exponent_sum,
    orbits_up_to,
    self_conjugate_orbits,
    sigma_orbit,
    to_level_one,
)


class RouteDisagreement(ValueError):
    """Two indicator routes gave different values for the same label."""


def degree(ctx: TorusContext, lam: MultiPartition) -> int:
    """chi^lam(1) by the weighted hook product; exact."""
    if lam.side != THETA:
        raise ValueError("character labels live on the theta side")
    n = lam.size
    q = ctx.q
    num = q ** mp_n_conjugate(lam)
    for k in range(1, n + 1):
        num *= q**k - (-1) ** k
    den = 1
    for h in mp_weighted_hooks(lam):
        den *= q**h - (-1) ** h
    if num % den:
        raise ValueError(f"hook product does not divide for {lam}")
    deg = num // den
    if deg <= 0:
        raise ValueError(f"degree of {lam} is not positive: {deg}")
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


def fs_via_centre(ctx: TorusContext, lam: MultiPartition) -> int:
    """Indicator of a real semisimple or regular label from its central character.

    n odd: always orthogonal.  n even: the sign of the central character at a
    generator of the centre; it is real, so its exponent is 0 or M_1 / 2, and
    for even q, where the centre has odd order, always 0.
    """
    if lam.size % 2:
        return 1
    w = omega_exponent(ctx, lam)
    if w == 0:
        return 1
    if 2 * w == ctx.modulus(1):
        return -1
    raise ValueError(f"central character of {lam} is not real (exponent {w})")


def fs_via_sigma(ctx: TorusContext, lam: MultiPartition) -> int | None:
    """The same indicator from the parity of the partition on sigma.

    sigma is the order-two character, which exists for odd q only; the rule
    covers even n.  None where it does not apply.
    """
    if lam.size % 2 or ctx.q % 2 == 0:
        return None
    return -1 if sum(lam.part_for(sigma_orbit(ctx))) % 2 else 1


def fs_semisimple_regular(ctx: TorusContext, lam: MultiPartition) -> int:
    """Indicator of a real character in the semisimple or regular family.

    The centre route gives it; where the sigma route applies too, the two must
    agree, or RouteDisagreement is raised.
    """
    if not (is_semisimple(lam) or is_regular(lam)):
        raise ValueError("closed form only covers semisimple or regular labels")
    if not is_real(ctx, lam):
        raise ValueError("indicator routes expect a real character")
    via_centre = fs_via_centre(ctx, lam)
    via_sigma = fs_via_sigma(ctx, lam)
    if via_sigma not in (None, via_centre):
        raise RouteDisagreement(
            f"indicator of {lam}: {via_centre} via the centre, "
            f"{via_sigma} via sigma")
    return via_centre


def fs_unipotent(ctx: TorusContext, lam: MultiPartition) -> int:
    """Indicator of a unipotent character: parity of half the two-core size."""
    if not is_unipotent(lam):
        raise ValueError("two-core rule only covers unipotent labels")
    core = two_core(lam.part_for(one_orbit(ctx, THETA)))
    return (-1) ** (sum(core) // 2)


@cache
def _square_classes(ctx: TorusContext) -> tuple[tuple[MultiPartition, int], ...]:
    """(class L, sum of |K| over the classes K with K^2 = L) at degree ctx.n.

    Depends only on (q, n), so fs_bruteforce reads it once per degree.
    """
    sizes: dict[MultiPartition, int] = {}
    for cls in class_table(ctx):
        square = class_square(ctx, cls.label)
        sizes[square] = sizes.get(square, 0) + cls.size
    return tuple(sizes.items())


def fs_bruteforce(ctx: TorusContext, lam: MultiPartition) -> int:
    """Indicator as the exact average of chi over squares of group elements.

    Sums |K| chi(K^2) over conjugacy classes K, divided by |G|; any q.  The
    label's size must be ctx.n.  The classes are grouped by their square
    once per degree.  The row values are reduced already, so their weighted
    terms go to one from_terms call, which sums repeated powers and makes
    one value, with |G| in its denominator.  It builds a full character
    row, so callers bound the work beforehand.
    """
    if lam.size != ctx.n:
        raise ValueError(f"label {lam} of size {lam.size} at degree {ctx.n}")
    row = char_row(ctx, lam)
    values = [(row[square], size)
              for square, size in _square_classes(ctx) if square in row]
    # integer numerators over the values' common denominator, then over |G|
    den = lcm(*(chi.den for chi, _ in values))
    acc = cyclotomic.from_terms(
        ctx.cyclo_modulus,
        [(i, c * size * (den // chi.den))
         for chi, size in values for i, c in chi.coeffs],
        den * group_order(ctx))
    kind, value = cyclotomic.classify(acc)
    if kind != "rational":
        raise ValueError(f"indicator of {lam} is not rational: {acc}")
    if value not in (-1, 0, 1):
        raise ValueError(f"indicator of {lam} is not -1, 0 or 1: {value}")
    eps = int(value)
    if (eps == 0) != (not is_real(ctx, lam)):
        raise ValueError(
            f"indicator of {lam} is {eps}, but the label is "
            f"{'real' if eps == 0 else 'not real'}")
    return eps


def _semisimple_count(ctx: TorusContext) -> int:
    """The number of semisimple labels at degree ctx.n.

    A semisimple label puts a column (1^k), k >= 0, on every orbit, so the
    count is the coefficient of x^n in prod_{d<=n} (1 - x^d)^(-N_d), where
    N_d is the number of orbits of size d.
    """
    n = ctx.n
    series = [1] + [0] * n
    for d in range(1, n + 1):
        # (1 - x^d)^(-N) = sum_j C(N + j - 1, j) x^(dj); 1 when N = 0
        orbits = count_exact_orbits(ctx, d)
        if not orbits:
            continue
        series = [
            sum(series[i - d * j] * comb(orbits + j - 1, j)
                for j in range(i // d + 1))
            for i in range(n + 1)]
    return series[n]


def census_semisimple(ctx: TorusContext) -> dict:
    """Count real semisimple characters by indicator at degree ctx.n.

    Returns q, n, the number of semisimple labels, the number of real ones,
    and the orthogonal/symplectic split.  route_agreement counts the labels
    on which the sigma route gives the indicator that was reported; where
    the sigma route applies and disagrees, fs_semisimple_regular has already
    raised RouteDisagreement.
    """
    real = real_semisimple_labels(ctx)
    orthogonal = symplectic = 0
    cross_checked = 0
    for lam in real:
        eps = fs_semisimple_regular(ctx, lam)
        if eps == 1:
            orthogonal += 1
        else:
            symplectic += 1
        cross_checked += fs_via_sigma(ctx, lam) == eps
    return {
        "q": ctx.q,
        "n": ctx.n,
        "semisimple": _semisimple_count(ctx),
        "real_total": len(real),
        "orthogonal": orthogonal,
        "symplectic": symplectic,
        "route_agreement": cross_checked,
    }


def real_semisimple_labels(ctx: TorusContext) -> list[MultiPartition]:
    """The real semisimple labels at degree ctx.n, in canonical order.

    Such a label is built from "units": a self-conjugate orbit (weight |o|)
    or a pair {o, o-bar} of conjugate orbits (weight 2|o|).  Each chosen unit
    gets a multiplicity k >= 1, which puts the column (1^k) on each of its
    orbits; the weights add up to n.
    """
    n = ctx.n
    units = []
    # conjugate pairs fit only at levels up to n/2; above, scan only the
    # self-conjugate orbits
    for o in orbits_up_to(ctx, n // 2):
        bar = conjugate_orbit(ctx, o)
        if bar == o:
            units.append((o.size, (o,)))
        elif o < bar:
            units.append((2 * o.size, (o, bar)))
    for d in range(n // 2 + 1, n + 1):
        units.extend((d, (o,)) for o in self_conjugate_orbits(ctx, d))
    units.sort(key=lambda unit: unit[0])
    out = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            out.append(MultiPartition.make(THETA, acc))
            return
        for j in range(idx, len(units)):
            weight, orbits = units[j]
            if weight > remaining:
                break  # units are sorted by weight: every later one is heavier
            for k in range(1, remaining // weight + 1):
                rec(j + 1, remaining - weight * k,
                    acc + [(o, (1,) * k) for o in orbits])

    rec(0, n, [])
    out.sort(key=MultiPartition.sort_key)
    return out
