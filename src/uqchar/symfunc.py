"""The symmetric-function side of the characteristic map for U(n, F_q2).

Pipeline for one irreducible character, labelled by a Theta-multipartition lam:

  1. per orbit phi, expand the Schur function s_{lam^(phi)}(Y^(phi)) into
     power sums with symmetric-group character coefficients (Murnaghan-
     Nakayama on beta-numbers);
  2. rewrite each p_k(Y^(phi)) in the class alphabets X^(f) over element
     orbits f: p_k(Y^(phi)) = (-1)^(k|phi|-1) sum over alpha in T_{k|phi|}
     of xi(alpha) p_{k|phi|/|f_alpha|}(X^(f_alpha)), xi in phi lifted through
     the transpose-of-norm (the fiber sum makes the choice of xi immaterial);
  3. multiply out and expand each power-sum product in Hall-Littlewood
     functions P_lambda(X^(f); t) at t = (-q)^(-|f|);
  4. the coefficient of prod_f P_{mu^(f)}, times the normalization
     (-q)^(n(mu)) of P_mu and the sign (-1)^(floor(n/2) + n(lam)), is the
     character value chi^lam at the class mu.

Hall-Littlewood functions expand into monomials by the tableau formula of
Macdonald, Symmetric Functions and Hall Polynomials, III (5.11'): the Kostka
horizontal-strip recursion with each strip weighted by psi_{lam/nu}(t).  Power
sums expand by counting the ways to drop their parts into rows.  All of it is
exact: Fractions for t-coefficients, cyclotomic integers for character values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from math import factorial

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


@cache
def kostka(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of shape lam and content mu."""
    if sum(lam) != sum(mu):
        return 0
    if not mu:
        return 1
    k, rest = mu[-1], mu[:-1]
    total = 0
    for smaller in _horizontal_strips(lam, k):
        total += kostka(smaller, rest)
    return total


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
def schur_m_vector(lam: tuple[int, ...], nvars: int) -> dict[tuple[int, ...], int]:
    """Monomial coefficients of s_lam in nvars variables (Kostka numbers)."""
    if len(lam) > nvars:
        return {}
    out = {}
    for mu in partitions_of(sum(lam)):
        if len(mu) <= nvars:
            c = kostka(lam, mu)
            if c:
                out[mu] = c
    return out


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
    lam: tuple[int, ...], t: Fraction, nvars: int
) -> dict[tuple[int, ...], Fraction]:
    """Monomial coefficients of the Hall-Littlewood P_lam(x_1..x_nvars; t)."""
    lam = check_partition(lam)
    vec = {mu: _hl_coeff(lam, mu, t)
           for mu in partitions_of(sum(lam)) if len(mu) <= nvars}
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
def power_m_vector(nu: tuple[int, ...], nvars: int) -> dict[tuple[int, ...], int]:
    """Monomial coefficients of p_nu = prod p_{nu_i} in nvars variables."""
    vec = {mu: _fillings(tuple(nu), tuple(sorted(mu)))
           for mu in partitions_of(sum(nu)) if len(mu) <= nvars}
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
    target = {mu: Fraction(c) for mu, c in power_m_vector(rho, n).items()}
    out = {}
    for lam in partitions_of(n):  # reverse-lex refines dominance, top down
        c = target.get(lam)
        if not c:
            continue
        vec = hl_m_vector(lam, t, n)
        assert vec[lam] == 1, "P_lam is monic at m_lam"
        out[lam] = c
        for mu, k in vec.items():
            r = target.get(mu, Fraction(0)) - c * k
            if r:
                target[mu] = r
            else:
                target.pop(mu, None)
    assert not target, f"power_to_hl left a remainder for {rho}"
    return out


# -- the characteristic-map transform --------------------------------------


@dataclass(frozen=True)
class SymExpr:
    """A finite sum of basis terms keyed by multipartitions."""

    basis: str
    terms: tuple[tuple[MultiPartition, Cyclotomic], ...]

    def as_dict(self) -> dict[MultiPartition, Cyclotomic]:
        return dict(self.terms)


@cache
def _transform_terms(
    ctx: TorusContext, k: int, phi: OrbitLabel
) -> tuple[tuple[OrbitLabel, int, Cyclotomic], ...]:
    """p_k(Y^(phi)) as sum of coeff * p_r(X^(f)); coeffs in Q(zeta_{M_{k|phi|}})."""
    d = phi.size
    level = k * d
    mod = ctx.modulus(level)
    lifted = lift_character(ctx, d, level, phi.min_exponent)
    acc: dict[tuple[OrbitLabel, int], Cyclotomic] = {}
    for e in range(mod):
        f = frobenius_orbit(ctx, level, e, PHI)
        key = (f, level // f.size)
        val = cyclotomic.zeta(mod, (lifted * e) % mod)
        acc[key] = acc[key] + val if key in acc else val
    sign = (-1) ** (level - 1)
    out = []
    for (f, r), val in sorted(acc.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        val = val if sign == 1 else -val
        if not val.is_zero():
            out.append((f, r, val))
    return tuple(out)


def transform_y_to_x(ctx: TorusContext, k: int, phi: OrbitLabel) -> SymExpr:
    """The power sum p_k on the character alphabet of phi, in class alphabets."""
    if phi.side != THETA:
        raise ValueError("transform expects a character orbit")
    terms = []
    for f, r, val in _transform_terms(ctx, k, phi):
        mp = MultiPartition.make(PHI, [(f, (r,))])
        terms.append((mp, val))
    return SymExpr("power_x", tuple(terms))


@cache
def _transform_embedded(
    ctx: TorusContext, k: int, phi: OrbitLabel
) -> tuple[tuple[OrbitLabel, int, Cyclotomic], ...]:
    big = ctx.cyclo_modulus
    return tuple(
        (f, r, cyclotomic.embed(val, big))
        for f, r, val in _transform_terms(ctx, k, phi))


# -- character values ------------------------------------------------------


@cache
def char_row(
    ctx: TorusContext, lam: MultiPartition
) -> dict[MultiPartition, Cyclotomic]:
    """All nonzero values of chi^lam, keyed by class multipartition."""
    if lam.side != THETA:
        raise ValueError("characters are labelled on the theta side")
    n = lam.size
    if n > ctx.n:
        raise ValueError(f"label of size {n} exceeds context degree {ctx.n}")
    big = ctx.cyclo_modulus
    one_big = cyclotomic.one(big)

    # per orbit: list of (nu, weight) from the Schur expansion
    orbit_terms = []
    for phi, parts in lam.entries:
        expansion = [(nu, w) for nu, w in schur_to_power(parts).items()]
        orbit_terms.append((phi, expansion))

    acc: dict[tuple, Cyclotomic] = {}
    for combo in iproduct(*(e for _, e in orbit_terms)):
        weight = Fraction(1)
        pairs: list[tuple[OrbitLabel, int]] = []
        for (phi, _), (nu, w) in zip(orbit_terms, combo):
            weight *= w
            pairs.extend((phi, k) for k in nu)
        # distribute the product of transforms over all (phi, k) powers
        terms: dict[tuple, Cyclotomic] = {(): one_big * weight}
        for phi, k in pairs:
            nxt: dict[tuple, Cyclotomic] = {}
            for f, r, val in _transform_embedded(ctx, k, phi):
                for key, coeff in terms.items():
                    nkey = tuple(sorted(key + ((f, r),)))
                    add = coeff * val
                    nxt[nkey] = nxt[nkey] + add if nkey in nxt else add
            terms = nxt
        for key, coeff in terms.items():
            acc[key] = acc[key] + coeff if key in acc else coeff

    # per class-orbit Hall-Littlewood expansion and final assembly
    out: dict[MultiPartition, Cyclotomic] = {}
    sign = (-1) ** (n // 2 + mp_n_stat(lam))
    for key, coeff in acc.items():
        if coeff.is_zero():
            continue
        by_orbit: dict[OrbitLabel, list[int]] = {}
        for f, r in key:
            by_orbit.setdefault(f, []).append(r)
        expansions = []
        for f, rs in sorted(by_orbit.items()):
            t = Fraction(-ctx.q) ** (-f.size)
            rho = tuple(sorted(rs, reverse=True))
            expansions.append((f, list(power_to_hl(rho, t).items())))
        for picks in iproduct(*(e for _, e in expansions)):
            scalar = Fraction(1)
            assignment = []
            for (f, _), (shape, c) in zip(expansions, picks):
                scalar *= c
                assignment.append((f, shape))
            mu = MultiPartition.make(PHI, assignment)
            val = coeff * (scalar * Fraction(-ctx.q) ** mp_n_stat(mu) * sign)
            out[mu] = out[mu] + val if mu in out else val
    return {mu: v for mu, v in out.items() if not v.is_zero()}


def char_value(
    ctx: TorusContext, lam: MultiPartition, mu: MultiPartition
) -> Cyclotomic:
    """chi^lam evaluated on the class mu, exactly."""
    if mu.side != PHI:
        raise ValueError("classes live on the phi side")
    if mu.size != lam.size:
        raise ValueError("character and class labels must have equal size")
    return char_row(ctx, lam).get(mu, cyclotomic.zero(ctx.cyclo_modulus))


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

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "zeta_modulus": self.modulus,
            "characters": [c.to_key() for c in self.chars],
            "classes": [c.to_key() for c in self.classes],
            "values": {
                lam.to_key(): {
                    mu.to_key(): cyclotomic.to_text(v)
                    for mu, v in zip(self.classes, row)
                }
                for lam, row in zip(self.chars, self.values)
            },
        }


def char_table(
    ctx: TorusContext, n: int | None = None, max_cells: int | None = 4096
) -> CharTable:
    """The character table at degree n, refused if larger than max_cells."""
    n = ctx.n if n is None else n
    chars = enumerate_multipartitions(ctx, n, THETA)
    classes = enumerate_multipartitions(ctx, n, PHI)
    cells = len(chars) * len(classes)
    if max_cells is not None and cells > max_cells:
        raise TableTooLarge(
            f"table would have {cells} entries (bound {max_cells}); "
            "raise the bound explicitly to proceed")
    zero_big = cyclotomic.zero(ctx.cyclo_modulus)
    rows = []
    for lam in chars:
        row = char_row(ctx, lam)
        rows.append(tuple(row.get(mu, zero_big) for mu in classes))
    return CharTable(ctx.q, n, ctx.cyclo_modulus, chars, classes, tuple(rows))


# -- Deligne-Lusztig style virtual characters ------------------------------


def dl_label(
    ctx: TorusContext, nu: tuple[int, ...], theta: tuple[int, ...]
) -> MultiPartition:
    """The Theta-multipartition of the torus datum (T_nu, theta).

    theta[i] is a character exponent at level nu[i]; characters falling in one
    orbit phi contribute parts nu_i / |phi| to the partition on phi.
    """
    nu = check_partition(nu)
    if len(nu) != len(theta):
        raise ValueError("need one character exponent per part of nu")
    grouped: dict[OrbitLabel, list[int]] = {}
    for part, c in zip(nu, theta):
        phi = frobenius_orbit(ctx, part, c, THETA)
        if part % phi.size:
            raise ValueError(
                f"part {part} is not a multiple of the orbit size {phi.size}")
        grouped.setdefault(phi, []).append(part // phi.size)
    return MultiPartition.make(
        THETA, [(phi, tuple(sorted(ps, reverse=True))) for phi, ps in grouped.items()])


def dl_expand(ctx: TorusContext, nu_mp: MultiPartition) -> dict[MultiPartition, int]:
    """Decompose R_nu = ch^{-1}((-1)^(|nu|+l(nu)) p_nu) into irreducible labels."""
    if nu_mp.side != THETA:
        raise ValueError("torus data live on the theta side")
    n = nu_mp.size
    base_sign = (-1) ** (n + sum(len(parts) for _, parts in nu_mp.entries))
    out: dict[MultiPartition, int] = {}
    per_orbit = []
    for phi, parts in nu_mp.entries:
        shapes = [(lam, sym_group_char(lam, parts)) for lam in partitions_of(sum(parts))]
        per_orbit.append((phi, [(lam, c) for lam, c in shapes if c]))
    for combo in iproduct(*(s for _, s in per_orbit)):
        coeff = base_sign
        assignment = []
        for (phi, _), (shape, c) in zip(per_orbit, combo):
            coeff *= c
            assignment.append((phi, shape))
        lam_mp = MultiPartition.make(THETA, assignment)
        coeff *= (-1) ** (n // 2 + mp_n_stat(lam_mp))
        total = out.get(lam_mp, 0) + coeff
        if total:
            out[lam_mp] = total
        else:
            out.pop(lam_mp, None)
    return out
