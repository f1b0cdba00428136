"""Exact integer number theory: totient, Moebius, and Ramanujan sums.

Ramanujan's sum c_d(k) is evaluated two independent ways: the closed
formula phi(d) * mu(d/g) / phi(d/g) with g = gcd(d, k), and the divisor
sum sum_{e | gcd(d,k)} e * mu(d/e).  Both are exact; no roots of unity
are ever evaluated numerically.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import integer


@lru_cache(maxsize=None, typed=True)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division, as ((p, e), ...)."""
    integer(n, "factorize argument", 1)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def totient(d: int) -> int:
    """Euler's phi."""
    out = integer(d, "totient argument", 1)
    for p, _ in factorize(d):
        out -= out // p
    return out


def moebius(d: int) -> int:
    """Moebius mu: 0 on non-squarefree, else (-1)^(number of prime factors)."""
    fac = factorize(integer(d, "moebius argument", 1))
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, increasing."""
    out = [1]
    for p, e in factorize(integer(n, "divisors argument", 1)):
        out = [d * p**j for d in out for j in range(e + 1)]
    return tuple(sorted(out))


def ramanujan_sum(d: int, k: int) -> int:
    """c_d(k) by the closed formula; k is reduced mod d first.

    c_d(0) = totient(d) and c_1(k) = 1 for every k.
    """
    d = integer(d, "Ramanujan sum modulus d", 1)
    k = integer(k, "Ramanujan sum argument k") % d
    g = gcd(d, k)
    m = d // g
    mu = moebius(m)
    if mu == 0:
        return 0
    q, r = divmod(totient(d), totient(m))
    assert r == 0, "phi(m) must divide phi(d) when m divides d"
    return mu * q


def ramanujan_sum_oracle(d: int, k: int) -> int:
    """c_d(k) by the divisor sum sum_{e | gcd(d,k)} e * mu(d/e)."""
    d = integer(d, "Ramanujan sum modulus d", 1)
    k = integer(k, "Ramanujan sum argument k") % d
    g = gcd(d, k)
    return sum(e * moebius(d // e) for e in divisors(g))
