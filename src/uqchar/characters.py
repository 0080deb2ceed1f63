"""Degrees, reality, central characters and Frobenius-Schur indicators.

The degree of the character labelled by a multipartition lam is

    q^(n(lam')) prod_{k<=n} (q^k - (-1)^k) / prod_b (q^h(b) - (-1)^h(b)),

the product in the denominator running over the boxes of all constituent
partitions with hooks weighted by the orbit size.  Both q^(n(lam')) and the
hook product split over the label's (orbit, partition) entries, and labels
share few distinct entries, so each entry's factors are computed once.

The central character, reality and the families are read off the orbit
labels.  Each orbit phi of exponent e restricts to the centre T_1 as
(-1)^(|phi|-1) e, with multiplicity |lam^(phi)|; chi^lam is real iff each
lam^(phi) also sits on phi's conjugate.  A semisimple label puts a column on
every orbit, a regular one a row, and a unipotent one any partition on the
trivial orbit alone; family_labels generates each family from these shapes.

For the indicator there are three routes: the closed-form value on the
semisimple and regular families (the sign of the central character at a
generator of the centre, equivalently the parity of the partition sitting on
the order-two character), the two-core parity rule on unipotent labels, and
the brute-force average of chi over squared classes.  They are computed
independently so tests can triangulate; indicator_route picks one per label.
"""

from __future__ import annotations

from functools import cache
from math import lcm

from . import cyclotomic
from .conjclasses import class_square, class_table, group_order, order_factor
from .cyclotomic import Cyclotomic
from .multipartition import (
    MultiPartition,
    binomial_product,
    enumerate_multipartitions,
    label_count,
    multipartitions_from_units,
)
from .partitions import hooks, partitions_of, two_core
from .symfunc import char_row
from .torus import (
    THETA,
    TorusContext,
    conjugate_orbit,
    count_exact_orbits,
    count_self_conjugate_orbits,
    modulus_of,
    one_orbit,
    orbits_up_to,
    sigma_orbit,
)


class RouteDisagreement(ValueError):
    """Two indicator routes gave different values for the same label."""


@cache
def _entry_factors(q: int, level: int, parts: tuple[int, ...]) -> tuple[int, int]:
    """(q^(level n(p')), prod_h M_(level h)) of one entry.

    n(p') = sum C(p_i, 2); h runs over the hook lengths of p.
    """
    hook_product = 1
    for h in hooks(parts):
        hook_product *= modulus_of(q, level * h)
    return q ** (level * sum(a * (a - 1) // 2 for a in parts)), hook_product


def degree(ctx: TorusContext, lam: MultiPartition) -> int:
    """chi^lam(1) by the weighted hook product; exact."""
    if lam.side != THETA:
        raise ValueError("character labels live on the theta side")
    q = ctx.q
    num = order_factor(q, lam.size)
    den = 1
    for o, parts in lam.entries:
        power, hook_product = _entry_factors(q, o.level, parts)
        num *= power
        den *= hook_product
    if num % den:
        raise ValueError(f"hook product does not divide for {lam}")
    deg = num // den
    if deg <= 0:
        raise ValueError(f"degree of {lam} is not positive: {deg}")
    return deg


def is_unipotent(lam: MultiPartition) -> bool:
    """Support entirely on the trivial character orbit (level 1, exponent 0)."""
    return all(o == (1, 0) for o, _ in lam.entries)


def is_semisimple(lam: MultiPartition) -> bool:
    """Every constituent partition is a column: its largest part is 1."""
    return all(parts[0] == 1 for _, parts in lam.entries)


def is_regular(lam: MultiPartition) -> bool:
    """Every constituent partition is a row (a single part)."""
    return all(len(parts) == 1 for _, parts in lam.entries)


def is_real(ctx: TorusContext, lam: MultiPartition) -> bool:
    """chi^lam is real-valued iff the label is fixed by orbit conjugation."""
    return {conjugate_orbit(ctx, o): p for o, p in lam.entries} == dict(lam.entries)


def omega_exponent(ctx: TorusContext, lam: MultiPartition) -> int:
    """Exponent of the central character on the generator of the centre.

    chi(z^alpha g) = zeta_{M_1}^(omega alpha) chi(g).  omega sums, over the
    boxes of each lam^(phi), the restriction (-1)^(d-1) e mod M_1 of phi's
    level-d exponent e to the centre T_1 (see the torus module).
    """
    if lam.side != THETA:
        raise ValueError("character labels live on the theta side")
    return sum((-1) ** (phi.level - 1) * phi.min_exponent * sum(parts)
               for phi, parts in lam.entries) % ctx.modulus(1)


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
    return _closed_form(ctx, lam)


def _closed_form(ctx: TorusContext, lam: MultiPartition) -> int:
    """fs_semisimple_regular without its guards, for a label known to pass them."""
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
    return _two_core_rule(ctx, lam)


def _two_core_rule(ctx: TorusContext, lam: MultiPartition) -> int:
    """fs_unipotent without its guard, for a label known to pass it."""
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
    if not acc.is_rational():
        raise ValueError(f"indicator of {lam} is not rational: {acc}")
    value = acc.rational_value()
    if value not in (-1, 0, 1):
        raise ValueError(f"indicator of {lam} is not -1, 0 or 1: {value}")
    eps = int(value)
    if (eps == 0) != (not is_real(ctx, lam)):
        raise ValueError(
            f"indicator of {lam} is {eps}, but the label is "
            f"{'real' if eps == 0 else 'not real'}")
    return eps


def indicator_route(ctx: TorusContext, lam: MultiPartition) -> str:
    """The route of indicator that covers lam; "non-real" gives 0."""
    if not is_real(ctx, lam):
        return "non-real"
    if is_semisimple(lam) or is_regular(lam):
        return "closed-form"
    if is_unipotent(lam):
        return "two-core"
    return "brute-force"


def indicator(ctx: TorusContext, lam: MultiPartition, route: str) -> int:
    """The indicator of lam by route; brute force builds a character row.

    route is indicator_route's finding, so the closed-form and two-core
    rules apply without re-running its reality and family tests.
    """
    if route == "non-real":
        return 0
    if route == "closed-form":
        return _closed_form(ctx, lam)
    if route == "two-core":
        return _two_core_rule(ctx, lam)
    if route == "brute-force":
        return fs_bruteforce(ctx, lam)
    raise ValueError(f"unknown indicator route {route!r}")


def census_semisimple(ctx: TorusContext) -> dict:
    """Count real semisimple characters by indicator at degree ctx.n.

    Returns q, n, the number of semisimple labels, the number of real ones,
    the orthogonal/symplectic split, and route_agreement, the labels on
    which the sigma route gives the centre route's indicator.  No label is
    built.  A real one picks units, each k >= 1 times with (1^k) on each of
    its orbits: self-conjugate orbits o (weight |o|) and pairs {o, o-bar}
    (weight 2|o|), counted per level by torus's Moebius sums, not walked.  A
    unit's omega bit is its restriction to the centre (0 or M_1/2, 0 for a
    pair), its sigma bit whether it is sigma, which is found by identity; for
    even n a route gives -1 when its bits, k times, add up odd.  The counts
    are x^n coefficients of prod 1/(1 - a^omega b^sigma x^weight) at
    (a, b) = (1, 1), (-1, 1) and (-1, -1).
    """
    n = ctx.n
    units: dict[tuple[int, int, int], int] = {}  # (weight, omega, sigma) -> count
    for d in range(1, n + 1):
        trivial, order_two = count_self_conjugate_orbits(ctx, d)
        units[d, 0, 0] = units.get((d, 0, 0), 0) + trivial
        units[d, 1, 0] = order_two
        if 2 * d <= n:
            pairs, odd = divmod(count_exact_orbits(ctx, d) - trivial - order_two, 2)
            if odd:
                raise ValueError(f"level {d}: orbits not self-conjugate do not pair up")
            units[2 * d, 0, 0] = pairs
    sigma = sigma_orbit(ctx) if ctx.q % 2 else None
    if sigma is not None and sigma.level <= n and conjugate_orbit(ctx, sigma) == sigma:
        w = omega_exponent(ctx, MultiPartition(THETA, ((sigma, (1,)),)))
        if 2 * w % ctx.modulus(1):
            raise ValueError(f"central character of {sigma} is not real ({w})")
        units[sigma.level, int(w != 0), 0] -= 1
        units[sigma.level, int(w != 0), 1] = 1

    def coefficient(a: int, b: int) -> int:
        return binomial_product(n, [(weight, c, a**omega * b**sig)
                                    for (weight, omega, sig), c in units.items()])

    real = coefficient(1, 1)
    symplectic = agree = 0
    if n % 2 == 0:
        symplectic = (real - coefficient(-1, 1)) // 2
        if sigma is not None:
            agree = (real + coefficient(-1, -1)) // 2
            if agree != real:
                raise RouteDisagreement(f"routes differ on {real - agree} of {real}")
    return {
        "q": ctx.q,
        "n": n,
        "semisimple": label_count(ctx, "semisimple"),
        "real_total": real,
        "orthogonal": real - symplectic,
        "symplectic": symplectic,
        "route_agreement": agree,
    }


# family -> the shapes an orbit of multiplicity k carries, in the CLI's order;
# unipotent labels have one orbit, the trivial one
FAMILIES = {
    "semisimple": lambda k: ((1,) * k,),
    "regular": lambda k: ((k,),),
    "unipotent": partitions_of,
    "all": partitions_of,
}


def family_labels(ctx: TorusContext, family: str) -> tuple[MultiPartition, ...]:
    """The labels of a family (a key of FAMILIES) at degree ctx.n, sorted."""
    n = ctx.n
    if family == "all":
        return enumerate_multipartitions(ctx, n, THETA)
    orbits = [one_orbit(ctx)] if family == "unipotent" else orbits_up_to(ctx, n)
    return multipartitions_from_units(THETA, n, orbits, FAMILIES[family])
