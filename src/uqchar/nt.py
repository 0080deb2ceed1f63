"""Small number-theoretic helpers used across the package.

Everything here works by trial division.  The moduli that show up in practice
(q^d - (-1)^d for d up to 6, field orders up to q^8 for q <= 9) are desk-scale,
so no clever factoring is needed or wanted.
"""

from functools import cache
from math import isqrt


@cache
def factorint(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, multiplicity), ...), p ascending."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            m = 0
            while n % d == 0:
                n //= d
                m += 1
            out.append((d, m))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@cache
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return tuple(small + large[::-1])


@cache
def moebius(n: int) -> int:
    if n < 1:
        raise ValueError(f"moebius needs n >= 1, got {n}")
    mu = 1
    for _, m in factorint(n):
        if m > 1:
            return 0
        mu = -mu
    return mu


@cache
def euler_phi(n: int) -> int:
    phi = n
    for p, _ in factorint(n):
        phi -= phi // p
    return phi


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k if n is a prime power, else None."""
    if n < 2:
        return None
    fac = factorint(n)
    if len(fac) != 1:
        return None
    return fac[0]
