"""Exact integer number theory: totient, Moebius, and Ramanujan sums.

Ramanujan's sum c_d(k) is evaluated two independent ways: the closed
formula phi(d) * mu(d/g) / phi(d/g) with g = gcd(d, k), and the divisor
sum sum_{e | gcd(d,k)} e * mu(d/e).  Both are exact; no roots of unity
are ever evaluated numerically.

Each public function checks its arguments with `integer` on every call and
only then reads a bounded cache keyed on the checked ints, so a warm cache
never answers for 2.0, True or "2":
- `factorize`: maxsize 1024, typed, its check inside (a miss on a
  lookalike runs the check and raises);
- `_totient`, `_moebius`, `_divisors`: maxsize 1024 each, behind
  `totient`, `moebius` and `divisors`;
- `_ramanujan(d, g)`: maxsize 4096, the closed form behind `ramanujan_sum`,
  which depends on k only through g = gcd(d, k).

`ramanujan_sum_oracle` is computed anew on every call.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import integer


@lru_cache(maxsize=1024, typed=True)  # typed: 2.0 and True must miss and raise
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
    return _totient(integer(d, "totient argument", 1))


def moebius(d: int) -> int:
    """Moebius mu: 0 on non-squarefree, else (-1)^(number of prime factors)."""
    return _moebius(integer(d, "moebius argument", 1))


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, increasing."""
    return _divisors(integer(n, "divisors argument", 1))


def ramanujan_sum(d: int, k: int) -> int:
    """c_d(k) by the closed formula; k is reduced mod d first.

    c_d(0) = totient(d) and c_1(k) = 1 for every k.
    """
    d = integer(d, "Ramanujan sum modulus d", 1)
    k = integer(k, "Ramanujan sum argument k") % d
    return _ramanujan(d, gcd(d, k))


def ramanujan_sum_oracle(d: int, k: int) -> int:
    """c_d(k) by the divisor sum sum_{e | gcd(d,k)} e * mu(d/e)."""
    d = integer(d, "Ramanujan sum modulus d", 1)
    k = integer(k, "Ramanujan sum argument k") % d
    g = gcd(d, k)
    return sum(e * _moebius(d // e) for e in _divisors(g))


# The kernels below take ints already checked by the public functions above.


@lru_cache(maxsize=1024)
def _totient(d: int) -> int:
    out = d
    for p, _ in factorize(d):
        out -= out // p
    return out


@lru_cache(maxsize=1024)
def _moebius(d: int) -> int:
    fac = factorize(d)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


@lru_cache(maxsize=1024)
def _divisors(n: int) -> tuple[int, ...]:
    out = [1]
    for p, e in factorize(n):
        out = [d * p**j for d in out for j in range(e + 1)]
    return tuple(sorted(out))


@lru_cache(maxsize=4096)
def _ramanujan(d: int, g: int) -> int:
    """c_d(k) for any k with gcd(d, k) = g: mu(m) * phi(d) / phi(m), m = d/g."""
    m = d // g
    mu = _moebius(m)
    if mu == 0:
        return 0
    q, r = divmod(_totient(d), _totient(m))
    assert r == 0, "phi(m) must divide phi(d) when m divides d"
    return mu * q
