"""Self-dual polynomials over F_q and their match with character labels.

For monic h with h(0) != 0 the dual is h~(x) = h(0)^(-1) x^deg(h) h(1/x),
i.e. the reversed coefficient tuple scaled monic again.  Self-dual means
h~ = h, which forces h(0)^2 = 1 and the coefficient symmetry
c_i = h(0) c_(n-i); for constant -1 in odd characteristic the middle
coefficient of an even-degree polynomial must vanish.  Counting by the free
coefficients gives q^(n/2) polynomials with constant +1 and q^(n/2 - 1)
with constant -1 in even degree n.

A real semisimple character label is realized as a polynomial by reading its
orbits as element orbits, which are the same labels: each Frobenius orbit of
eigenvalue exponents, taken together with its conjugate orbit, multiplies
out to an F_q-rational factor prod (x + gamma^e) computed in the field
F_{q^(2d)} that holds the order-M_d eigenvalues.  The product over the label
is monic of degree n and self-dual, and the sign of its constant term is the
subject of the census cross-check.
"""

from __future__ import annotations

from itertools import product as iproduct

from .characters import is_real, is_semisimple
from .gf import (
    GF,
    ext_field,
    field_pow,
    poly_mul,
    poly_pow,
    poly_trim,
    subgroup_generator,
)
from .multipartition import MultiPartition
from .torus import THETA, TorusContext, conjugate_orbit, orbit_exponents


def dual_poly(F, h):
    """h(0)^(-1) x^deg h(1/x): reverse the coefficients, rescale monic."""
    h = poly_trim(F, h)
    if not h or h[0] == F.zero:
        raise ValueError("dual needs a nonzero constant term")
    scale = F.inv(h[0])
    return tuple(F.mul(scale, c) for c in reversed(h))


def is_self_dual(F, h) -> bool:
    h = poly_trim(F, h)
    if not h or h[0] == F.zero:
        return False
    return dual_poly(F, h) == h


def enumerate_self_dual(F, n: int, constant: int | None = None):
    """All monic self-dual polynomials of degree n, sorted by coefficients.

    constant restricts h(0) to +1 or -1 (ints); None allows both.  In
    characteristic two the two constants coincide.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    sides = [F.one, F.neg(F.one)] if constant is None else [
        F.one if constant == 1 else F.neg(F.one)]
    seen = set()
    out = []
    for c0 in sides:
        if c0 in seen:
            continue
        seen.add(c0)
        sign = 1 if c0 == F.one else -1
        free = list(range(1, (n + 1) // 2))
        has_middle = n % 2 == 0
        middle_free = has_middle and (c0 == F.one)
        slots = free + ([n // 2] if middle_free else [])
        for choice in iproduct(list(F.elements()), repeat=len(slots)):
            h = [F.zero] * (n + 1)
            h[0] = c0
            h[n] = F.one
            for pos, val in zip(slots, choice):
                h[pos] = val
            for i in range(1, (n + 1) // 2):
                h[n - i] = h[i] if sign == 1 else F.neg(h[i])
            # middle coefficient: forced zero when the constant is -1
            hh = tuple(h)
            if not is_self_dual(F, hh):
                raise ValueError(f"enumerated {hh}, which is not self-dual")
            out.append(hh)
    return tuple(sorted(out))


def count_by_constant(F, n: int, constant: int) -> int:
    return len(enumerate_self_dual(F, n, constant))


def brute_force_self_dual(F, n: int, constant: int | None = None):
    """Filter all monic degree-n polynomials; the independent oracle."""
    out = []
    want = None
    if constant is not None:
        want = F.one if constant == 1 else F.neg(F.one)
    for tail in iproduct(list(F.elements()), repeat=n):
        h = tail + (F.one,)
        if h[0] == F.zero:
            continue
        if want is not None and h[0] != want:
            continue
        if is_self_dual(F, h):
            out.append(h)
    return tuple(sorted(out))


def orbit_polynomial(ctx: TorusContext, orbit):
    """The F_q-rational factor of an element orbit: prod (x + gamma^e) over
    the orbit joined with its conjugate, coefficients coerced to F_q."""
    base = GF(ctx.q)
    d = orbit.level
    L = ext_field(base, 2 * d)
    gamma = subgroup_generator(L, ctx.modulus(d))
    exps = set(orbit_exponents(ctx, orbit))
    exps |= set(orbit_exponents(ctx, conjugate_orbit(ctx, orbit)))
    poly = (L.one,)
    for e in sorted(exps):
        poly = poly_mul(L, poly, (field_pow(L, gamma, e), L.one))
    return tuple(L.to_base(c) for c in poly)


def char_to_polynomial(ctx: TorusContext, lam: MultiPartition):
    """The self-dual polynomial of a real semisimple character label."""
    if lam.side != THETA:
        raise ValueError("expected a character label")
    if not is_semisimple(lam):
        raise ValueError("realization covers semisimple labels only")
    if not is_real(ctx, lam):
        raise ValueError("realization covers real labels only")
    n = lam.size
    base = GF(ctx.q)
    h = (base.one,)
    done = set()
    for f, parts in lam.entries:
        if f in done:
            continue
        partner = conjugate_orbit(ctx, f)
        if lam.part_for(partner) != parts:
            raise ValueError(f"{lam} puts different parts on {f} and {partner}")
        done.add(f)
        done.add(partner)
        h = poly_mul(base, h, poly_pow(base, orbit_polynomial(ctx, f), sum(parts)))
    if len(h) - 1 != n or h[-1] != base.one:
        raise ValueError(f"polynomial {h} of {lam} is not monic of degree {n}")
    if not is_self_dual(base, h):
        raise ValueError(f"polynomial {h} of {lam} is not self-dual")
    return h
