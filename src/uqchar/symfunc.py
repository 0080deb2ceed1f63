"""The symmetric-function side of the characteristic map for U(n, F_q2).

Pipeline for one irreducible character, labelled by a Theta-multipartition lam:

  1. per orbit phi, expand the Schur function s_{lam^(phi)}(Y^(phi)) into
     power sums with symmetric-group character coefficients (Murnaghan-
     Nakayama on beta-numbers);
  2. rewrite each p_k(Y^(phi)) in the class alphabets X^(f) over element
     orbits f: p_k(Y^(phi)) = (-1)^(k|phi|-1) sum over alpha in T_{k|phi|}
     of xi(alpha) p_{k|phi|/|f_alpha|}(X^(f_alpha)), xi in phi lifted through
     the transpose-of-norm (the fiber sum makes the choice of xi immaterial);
  3. multiply out, keeping each coefficient as an element of the group ring
     Z[Z/M] (M = ctx.cyclo_modulus: a map from exponent mod M to integer
     count, multiplied by adding exponents), and expand each power-sum
     product in Hall-Littlewood functions P_lambda(X^(f); t) at
     t = (-q)^(-|f|);
  4. the coefficient of prod_f P_{mu^(f)}, times the normalization
     (-q)^(n(mu)) of P_mu and the sign (-1)^(floor(n/2) + n(lam)), is the
     character value chi^lam at the class mu: the group-ring elements of all
     products that reach mu are summed with these rational weights and the
     sum is reduced to the power basis of Q(zeta_M) once per cell.  The
     Hall-Littlewood expansion of a power-sum product, with its
     normalizations, depends only on (q, n) and the product
     (_class_expansion), so it is computed once per product and shared by
     every row; only the sign belongs to the character.

Hall-Littlewood functions expand into monomials by the tableau formula of
Macdonald, Symmetric Functions and Hall Polynomials, III (5.11'): a
horizontal-strip recursion with each strip weighted by psi_{lam/nu}(t).  Power
sums expand by counting the ways to drop their parts into rows.  All of it is
exact: Fractions for t-coefficients and weights, integers from there on.
Each cell's group-ring sum is integral over one common denominator, and
cyclotomic.from_terms takes the sum and that denominator as integers; the
character values come out as cyclotomic integers with denominator 1, so no
Fraction is built per table cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from math import factorial, lcm, prod

from . import cyclotomic
from .cyclotomic import Cyclotomic
from .multipartition import (
    MultiPartition,
    enumerate_multipartitions,
    mp_n_stat,
)
from .partitions import (
    beta_set,
    check_partition,
    from_beta_set,
    partitions_of,
)
from .torus import (
    PHI,
    THETA,
    OrbitLabel,
    TorusContext,
    frobenius_orbit,
    lift_character,
)


class TableTooLarge(ValueError):
    """A character table was refused because it exceeds the configured bound."""


# -- symmetric group characters -------------------------------------------


@cache
def z_weight(nu: tuple[int, ...]) -> int:
    """|centralizer of cycle type nu in S_|nu||: prod i^m_i m_i!."""
    out = 1
    for part in set(nu):
        m = nu.count(part)
        out *= part**m * factorial(m)
    return out


@cache
def sym_group_char(lam: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """chi^lam(nu) by rim-hook removal on beta-numbers."""
    if not nu:
        return 1 if not lam else 0
    k, rest = nu[0], nu[1:]
    betas = beta_set(lam, len(lam) or 1)
    total = 0
    bset = set(betas)
    for b in betas:
        if b - k >= 0 and (b - k) not in bset:
            crossed = sum(1 for x in bset if b - k < x < b)
            smaller = from_beta_set((bset - {b}) | {b - k})
            total += (-1) ** crossed * sym_group_char(smaller, rest)
    return total


@cache
def schur_to_power(lam: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    """s_lam = sum_nu chi^lam(nu) / z_nu * p_nu."""
    out = {}
    for nu in partitions_of(sum(lam)):
        c = sym_group_char(lam, nu)
        if c:
            out[nu] = Fraction(c, z_weight(nu))
    return out


# -- monomial expansions ---------------------------------------------------


def _horizontal_strips(lam, k):
    """Partitions lam2 with lam/lam2 a horizontal strip of size k."""
    lam = tuple(lam)
    results = []

    def rec(i, remaining, acc):
        if i == len(lam):
            if remaining == 0:
                results.append(tuple(a for a in acc if a))
            return
        lo = lam[i + 1] if i + 1 < len(lam) else 0
        for v in range(lam[i], max(lo, lam[i] - remaining) - 1, -1):
            rec(i + 1, remaining - (lam[i] - v), acc + [v])

    rec(0, k, [])
    return results


@cache
def _hl_coeff(lam: tuple[int, ...], mu: tuple[int, ...], t: Fraction) -> Fraction:
    """Coefficient of m_mu in P_lam(t), by Macdonald III (5.11') and (5.8').

    The largest entry of a tableau fills a horizontal strip lam/nu of size
    mu[-1], weighted by psi_{lam/nu}(t) = prod (1 - t^(m_j(nu))) over the
    columns j that hold no box of the strip while column j+1 does.
    """
    if not mu:
        return Fraction(int(not lam))
    total = Fraction(0)
    for nu in _horizontal_strips(lam, mu[-1]):
        padded = nu + (0,) * (len(lam) - len(nu))
        strip = {j for a, b in zip(lam, padded) for j in range(b + 1, a + 1)}
        psi = Fraction(1)
        for j in strip:
            if j > 1 and j - 1 not in strip:
                psi *= 1 - t ** nu.count(j - 1)
        total += psi * _hl_coeff(nu, mu[:-1], t)
    return total


@cache
def hl_m_vector(
    lam: tuple[int, ...], t: Fraction
) -> dict[tuple[int, ...], Fraction]:
    """Nonzero monomial coefficients of the Hall-Littlewood P_lam(x; t)."""
    lam = check_partition(lam)
    vec = {mu: _hl_coeff(lam, mu, t) for mu in partitions_of(sum(lam))}
    return {mu: c for mu, c in vec.items() if c}


@cache
def _fillings(parts: tuple[int, ...], rows: tuple[int, ...]) -> int:
    """Ways to drop the parts, in order, into rows with that much room each."""
    if not parts:
        return int(not any(rows))
    k = parts[0]
    return sum(_fillings(parts[1:], tuple(sorted(rows[:i] + (r - k,) + rows[i + 1:])))
               for i, r in enumerate(rows) if r >= k)


@cache
def power_m_vector(nu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Nonzero monomial coefficients of p_nu = prod p_{nu_i}."""
    vec = {mu: _fillings(tuple(nu), tuple(sorted(mu))) for mu in partitions_of(sum(nu))}
    return {mu: c for mu, c in vec.items() if c}


@cache
def power_to_hl(
    rho: tuple[int, ...], t: Fraction
) -> dict[tuple[int, ...], Fraction]:
    """Expand p_rho in Hall-Littlewood P_lam(x; t); unitriangular back-substitution."""
    rho = tuple(sorted(rho, reverse=True))
    n = sum(rho)
    if n == 0:
        return {(): Fraction(1)}
    target = {mu: Fraction(c) for mu, c in power_m_vector(rho).items()}
    out = {}
    for lam in partitions_of(n):  # reverse-lex refines dominance, top down
        c = target.get(lam)
        if not c:
            continue
        vec = hl_m_vector(lam, t)
        if vec.get(lam) != 1:
            raise ValueError(f"P_{lam} is not monic at m_{lam}")
        out[lam] = c
        for mu, k in vec.items():
            r = target.get(mu, Fraction(0)) - c * k
            if r:
                target[mu] = r
            else:
                target.pop(mu, None)
    if target:
        raise ValueError(f"power_to_hl left a remainder for {rho}")
    return out


# -- the characteristic-map transform --------------------------------------


# A group-ring element of Z/M in sparse form: (exponent mod M, count) pairs
# standing for sum count * zeta_M^exponent, exponents increasing.
Ring = tuple[tuple[int, int], ...]


@cache
def _transform_terms(
    ctx: TorusContext, k: int, phi: OrbitLabel
) -> tuple[tuple[OrbitLabel, int, Ring], ...]:
    """p_k(Y^(phi)) as sum of coeff * p_r(X^(f)); coeffs in Z[Z/M_{k|phi|}].

    Terms whose coefficient is zero in Q(zeta_{M_{k|phi|}}) are dropped.
    """
    d = phi.size
    level = k * d
    mod = ctx.modulus(level)
    lifted = lift_character(ctx, d, level, phi.min_exponent)
    sign = (-1) ** (level - 1)
    acc: dict[tuple[OrbitLabel, int], dict[int, int]] = {}
    for e in range(mod):
        f = frobenius_orbit(ctx, level, e)
        ring = acc.setdefault((f, level // f.size), {})
        x = (lifted * e) % mod
        ring[x] = ring.get(x, 0) + sign
    out = []
    for (f, r), ring in sorted(acc.items()):
        val = tuple(sorted(ring.items()))
        if not cyclotomic.from_terms(mod, val).is_zero():
            out.append((f, r, val))
    return tuple(out)


@cache
def _transform_embedded(
    ctx: TorusContext, k: int, phi: OrbitLabel
) -> tuple[tuple[OrbitLabel, int, Ring], ...]:
    """_transform_terms in Z[Z/M], M = ctx.cyclo_modulus.

    zeta_{M_level} -> zeta_M^(M/M_level): each exponent is scaled by M/M_level.
    """
    step = ctx.cyclo_modulus // ctx.modulus(k * phi.size)
    return tuple(
        (f, r, tuple((x * step, c) for x, c in val))
        for f, r, val in _transform_terms(ctx, k, phi))


# -- character values ------------------------------------------------------


@cache
def _class_expansion(
    ctx: TorusContext, key: tuple[tuple[OrbitLabel, int], ...]
) -> tuple[tuple[MultiPartition, int, int], ...]:
    """The power-sum product prod p_r(X^(f)) over key's (f, r) by class.

    Each (mu, a, b): a / b, in lowest terms, is the coefficient of
    prod_f P_{mu^(f)}(X^(f); t), t = (-q)^(-|f|), times the normalization
    (-q)^(n(mu)) of P_mu.  It depends only on (q, n) and the key, not on
    the character.
    """
    by_orbit: dict[OrbitLabel, list[int]] = {}
    for f, r in key:
        by_orbit.setdefault(f, []).append(r)
    expansions = []
    for f, rs in sorted(by_orbit.items()):
        t = Fraction(-ctx.q) ** (-f.size)
        rho = tuple(sorted(rs, reverse=True))
        expansions.append((f, list(power_to_hl(rho, t).items())))
    out = []
    for picks in iproduct(*(e for _, e in expansions)):
        scalar = Fraction(1)
        assignment = []
        for (f, _), (shape, c) in zip(expansions, picks):
            scalar *= c
            assignment.append((f, shape))
        mu = MultiPartition.make(PHI, assignment)
        scalar *= Fraction(-ctx.q) ** mp_n_stat(mu)
        out.append((mu, scalar.numerator, scalar.denominator))
    return tuple(out)


@cache
def char_row(
    ctx: TorusContext, lam: MultiPartition
) -> dict[MultiPartition, Cyclotomic]:
    """All nonzero values of chi^lam, keyed by class multipartition.

    Every intermediate is a group-ring element {exponent mod M: coefficient};
    each cell is reduced to the power basis once.
    """
    if lam.side != THETA:
        raise ValueError("characters are labelled on the theta side")
    n = lam.size
    if n > ctx.n:
        raise ValueError(f"label of size {n} exceeds context degree {ctx.n}")
    big = ctx.cyclo_modulus

    # expand: per orbit, the (nu, weight) pairs of the Schur expansion, with
    # the weights over one common denominator so the group ring stays integral
    orbit_terms = [(phi, list(schur_to_power(parts).items()))
                   for phi, parts in lam.entries]
    den = prod(lcm(*(w.denominator for _, w in e)) for _, e in orbit_terms)

    # transform: distribute each product of transforms over all (phi, k)
    # powers, summed per product key ((f, r), ...) of class power sums
    acc: dict[tuple, dict[int, int]] = {}
    for combo in iproduct(*(e for _, e in orbit_terms)):
        weight = Fraction(den)
        pairs: list[tuple[OrbitLabel, int]] = []
        for (phi, _), (nu, w) in zip(orbit_terms, combo):
            weight *= w
            pairs.extend((phi, k) for k in nu)
        terms: dict[tuple, dict[int, int]] = {(): {0: weight.numerator}}
        for phi, k in pairs:
            nxt: dict[tuple, dict[int, int]] = {}
            for f, r, val in _transform_embedded(ctx, k, phi):
                for key, ring in terms.items():
                    dst = nxt.setdefault(tuple(sorted(key + ((f, r),))), {})
                    for e, c in ring.items():
                        for x, y in val:
                            z = (e + x) % big
                            dst[z] = dst.get(z, 0) + c * y
            terms = nxt
        for key, ring in terms.items():
            dst = acc.setdefault(key, {})
            for e, c in ring.items():
                dst[e] = dst.get(e, 0) + c

    # assemble: per class mu, the scalars of _class_expansion
    cells: dict[MultiPartition, list[tuple[int, int, dict[int, int]]]] = {}
    for key, ring in acc.items():
        for mu, a, b in _class_expansion(ctx, key):
            cells.setdefault(mu, []).append((a, b, ring))

    # reduce: bring each cell's scalars to one denominator, sum its group-ring
    # elements with integer coefficients, and reduce the sum once over that
    # denominator, which also carries the row's sign
    sign = (-1) ** (n // 2 + mp_n_stat(lam))
    out: dict[MultiPartition, Cyclotomic] = {}
    for mu, parts in cells.items():
        common = lcm(*(b for _, b, _ in parts))
        total: dict[int, int] = {}
        for a, b, ring in parts:
            c = a * (common // b)
            for e, x in ring.items():
                total[e] = total.get(e, 0) + c * x
        val = cyclotomic.from_terms(big, total.items(), sign * common * den)
        if not val.is_zero():
            out[mu] = val
    return out


@dataclass(frozen=True)
class CharTable:
    """Full exact character table of U(n, F_q2)."""

    q: int
    n: int
    modulus: int
    chars: tuple[MultiPartition, ...]
    classes: tuple[MultiPartition, ...]
    values: tuple[tuple[Cyclotomic, ...], ...]  # rows follow chars, cols classes

    def value(self, lam: MultiPartition, mu: MultiPartition) -> Cyclotomic:
        return self.values[self.chars.index(lam)][self.classes.index(mu)]

    def to_json(self, render=None) -> dict:
        """The table with each value rendered by render, to_text by default.

        The default is looked up when called, so a rebinding of
        cyclotomic.to_text (as perfbench/tracer.py does) reaches it.
        """
        render = render or cyclotomic.to_text
        classes = [c.to_key() for c in self.classes]
        return {
            "q": self.q,
            "n": self.n,
            "zeta_modulus": self.modulus,
            "characters": [c.to_key() for c in self.chars],
            "classes": classes,
            "values": {
                lam.to_key(): dict(zip(classes, map(render, row)))
                for lam, row in zip(self.chars, self.values)
            },
        }


def char_table(ctx: TorusContext, max_cells: int | None = 4096) -> CharTable:
    """The character table at degree ctx.n; refused beyond max_cells or MAX_DEGREE."""
    n = ctx.n
    chars = enumerate_multipartitions(ctx, n, THETA)
    classes = enumerate_multipartitions(ctx, n, PHI)
    cells = len(chars) * len(classes)
    if max_cells is not None and cells > max_cells:
        raise TableTooLarge(
            f"table would have {cells} entries (bound {max_cells}); "
            "raise the bound explicitly to proceed")
    cyclotomic.check_degree(ctx.cyclo_modulus)
    zero_big = cyclotomic.zero(ctx.cyclo_modulus)
    rows = []
    for lam in chars:
        row = char_row(ctx, lam)
        rows.append(tuple(row.get(mu, zero_big) for mu in classes))
    return CharTable(ctx.q, n, ctx.cyclo_modulus, chars, classes, tuple(rows))

