"""Reference computations for checking the workloads' outputs, made apart from symcon.

Nothing here imports symcon.  Partitions, centralizer orders, hook lengths
and the partition families are derived again from their definitions, and
each check returns a list of problems (empty when the output is right).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def partitions(n: int, largest: int | None = None):
    """Partitions of n as decreasing tuples, largest first part first."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def centralizer(lam) -> int:
    z = 1
    for part in set(lam):
        m = lam.count(part)
        z *= part**m * factorial(m)
    return z


def sign(lam) -> int:
    """Sign of a permutation of cycle type lam."""
    return -1 if (sum(lam) - len(lam)) % 2 else 1


def hook_dimension(lam) -> int:
    """f^lam = n! / (product of hook lengths)."""
    cols = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j - 1) + (cols[j] - i - 1) + 1
    return factorial(sum(lam)) // hooks


def _odd(lam) -> bool:
    return all(p % 2 for p in lam)


def _distinct(lam) -> bool:
    return len(set(lam)) == len(lam)


def divides_k(lam, k: int) -> bool:
    return all(k % p == 0 for p in lam)


def thm59_member(lam, k: int) -> bool:
    """Odd parts divide k; an even part m occurs once, with m not dividing k and m/2 dividing k."""
    for part in set(lam):
        if part % 2:
            if k % part:
                return False
        elif lam.count(part) > 1 or k % part == 0 or k % (part // 2):
            return False
    return True


HALF = Fraction(1, 2)


def module_coefficient(mid: str, lam) -> Fraction:
    """Power-sum coefficient c_lam of a named module, from its closed form in the paper."""
    odd, distinct = _odd(lam), _distinct(lam)
    do = odd and distinct
    even_sign = sign(lam) == 1
    if mid == "psi":
        return Fraction(1)
    if mid == "eps":
        return Fraction(odd)
    if mid == "psi-a":
        return Fraction(1) if do else HALF
    if mid == "psi-abar":
        return Fraction(0) if do else HALF
    if mid == "eps-a":
        return sign(lam) * HALF * (odd + distinct)
    if mid == "eps-abar":
        return sign(lam) * HALF * (odd - distinct)
    if mid == "u-plus":
        return Fraction(even_sign and not do)
    if mid == "u-minus":
        return Fraction(not even_sign)
    if mid == "u-do":
        return Fraction(do)
    if mid == "alt-induced":
        return Fraction(2 * do + (even_sign and not do))
    raise ValueError(f"no closed form for module {mid!r}")


def module_terms(mid: str, n: int) -> dict:
    """{lam: c_lam} with the zero coefficients left out."""
    out = {}
    for lam in partitions(n):
        c = module_coefficient(mid, lam)
        if c:
            out[lam] = c
    return out


def family_terms(member, n: int) -> dict:
    """The sum of p_lam over the partitions of n that satisfy `member`."""
    return {lam: Fraction(1) for lam in partitions(n) if member(lam)}


def parse_partition(key: str) -> tuple:
    """'[3,1,1]' -> (3, 1, 1), as symcon renders partitions in JSON."""
    inner = key.strip()[1:-1]
    return tuple(int(x) for x in inner.split(",")) if inner.strip() else ()


def check_expansion(mid: str, n: int, mults: dict, verdict: str | None = None) -> list[str]:
    """Check a Schur expansion {nu: mult} of a named module at degree n.

    Uses the module's power-sum coefficients c_lam:
      Parseval:   sum_nu mult(nu)^2 = sum_lam c_lam^2 z_lam
      dimension:  sum_nu mult(nu) f^nu = n! c_(1^n)
      trivial:    mult((n)) = sum_lam c_lam
      sign:       mult((1^n)) = sum_lam c_lam sign(lam)
    and, for psi and eps, that every nu |- n occurs (Theorem 1.1).
    """
    problems = []
    shapes = list(partitions(n))
    known = set(shapes)
    for nu in mults:
        if nu not in known:
            problems.append(f"{mid}: {nu} is not a partition of {n}")
    if problems:
        return problems
    coeffs = {lam: module_coefficient(mid, lam) for lam in shapes}
    mult = {nu: Fraction(mults.get(nu, 0)) for nu in shapes}
    lhs = sum(m * m for m in mult.values())
    rhs = sum(c * c * centralizer(lam) for lam, c in coeffs.items())
    if lhs != rhs:
        problems.append(f"{mid}: Parseval {lhs} != {rhs}")
    dim = sum(m * hook_dimension(nu) for nu, m in mult.items())
    want = factorial(n) * coeffs[(1,) * n]
    if dim != want:
        problems.append(f"{mid}: dimension {dim} != {want}")
    trivial = sum(coeffs.values())
    if mult[(n,)] != trivial:
        problems.append(f"{mid}: trivial multiplicity {mult[(n,)]} != {trivial}")
    signed = sum(c * sign(lam) for lam, c in coeffs.items())
    if mult[(1,) * n] != signed:
        problems.append(f"{mid}: sign multiplicity {mult[(1,) * n]} != {signed}")
    if mid in ("psi", "eps"):
        missing = [nu for nu in shapes if not (mult[nu].denominator == 1 and mult[nu] >= 1)]
        if missing:
            problems.append(f"{mid}: not Schur-positive, e.g. at {missing[0]}")
        if verdict != "POSITIVE":
            problems.append(f"{mid}: verdict {verdict!r}, expected POSITIVE")
    return problems


def check_equal_terms(label: str, got: dict, want: dict) -> list[str]:
    """Exact equality of two {partition: coefficient} maps, zero coefficients ignored."""
    a = {k: Fraction(v) for k, v in got.items() if v}
    b = {k: Fraction(v) for k, v in want.items() if v}
    if a == b:
        return []
    diff = sorted(set(a) ^ set(b) | {k for k in set(a) & set(b) if a[k] != b[k]})
    return [f"{label}: differ at p{list(diff[0])} ({a.get(diff[0], 0)} vs {b.get(diff[0], 0)})"]


def odd_sign_count(n: int) -> int:
    return sum(1 for lam in partitions(n) if sign(lam) == -1)
