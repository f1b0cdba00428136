"""Characteristics of the conjugacy-type representations.

The building block is the cyclic-induction family with weight function
psi_k: f_n = (1/n) * sum_{d|n} psi_k(d) * p_d^(n/d), where psi_k(d) is
the Ramanujan sum c_d(k).  k = 0 is the conjugation case (psi = totient);
k = 1 is the Moebius case (the free Lie character).

Every named module is produced two ways: a closed power-sum combination,
and a plethystic sum of h_m[f_i] / e_m[f_i] products over partitions.
Both forms of the ten modules are written once, in MODULE_FORMS, as
sides: linear combinations of named terms (power-sum families on one
side, the plethystic sums of SUMS on the other), evaluated by
linear_combination.  The two routes agreeing exactly is part of the
verification contract.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import ParameterError
from .numbertheory import divisors, ramanujan_sum
from .partitions import FamilySpec, members, parse_family
from .symfunc import (
    PExpr,
    Series,
    omega,
    plethystic_sum,
    series_E,
    series_H,
)


def cyclic_weight(d: int, k: int) -> int:
    """psi_k(d): the Ramanujan sum c_d(k); c_d(0) is the totient."""
    return ramanujan_sum(d, k)


@lru_cache(maxsize=None)
def foulkes(n: int, k: int) -> PExpr:
    """Characteristic of the k-th cyclic character induced from C_n to S_n."""
    if n < 1:
        raise ParameterError(f"foulkes needs n >= 1, got {n}")
    if k < 0:
        raise ParameterError(f"foulkes needs k >= 0, got {k}")
    return PExpr({(d,) * (n // d): cyclic_weight(d, k) for d in divisors(n)}) * Fraction(1, n)


def f_eval_direct(n: int, k: int, sign: int) -> Fraction:
    """Direct evaluation of the one-variable polynomial f_n at +-1."""
    if sign not in (1, -1):
        raise ParameterError("sign must be +1 or -1")
    total = Fraction(0)
    for d in divisors(n):
        total += Fraction(cyclic_weight(d, k), n) * sign ** (n // d)
    return total


def f_eval(n: int, k: int, sign: int) -> int:
    """f_n(+-1) by the closed case tables.

    k = 0 (conjugation): f_n(1) = 1; f_n(-1) = -1 for odd n, else 0.
    k >= 1: f_n(1) = 1 iff n | k; f_n(-1) = -1 if n odd and n | k,
    +1 if n even with (n/2) | k but n not | k, else 0.
    """
    if n < 1:
        raise ParameterError(f"f_eval needs n >= 1, got {n}")
    if sign not in (1, -1):
        raise ParameterError("sign must be +1 or -1")
    if k == 0:
        if sign == 1:
            return 1
        return -1 if n % 2 == 1 else 0
    if sign == 1:
        return 1 if k % n == 0 else 0
    if n % 2 == 1:
        return -1 if k % n == 0 else 0
    if k % (n // 2) == 0 and k % n != 0:
        return 1
    return 0


@lru_cache(maxsize=None)
def foulkes_series(k: int, trunc: int) -> Series:
    """Graded series of foulkes(i, k) for 1 <= i <= trunc (shared, read-only)."""
    return Series.from_function(lambda i: foulkes(i, k), trunc)


def power_sum_family(spec: FamilySpec, n: int) -> PExpr:
    """sum of p_lam over the members of the family among partitions of n."""
    return PExpr(dict.fromkeys(members(spec, n), 1))


# ---------------------------------------------------------------------------
# Named modules

HALF = Fraction(1, 2)

# A side is a tuple of (coefficient, name) terms; "~name" is omega(name).
# mid -> (power-sum form over family kinds, plethystic form over SUMS).
MODULE_FORMS = {
    "psi": (((1, "all"),), ((1, "H"),)),
    "eps": (((1, "odd-parts"),), ((1, "E"),)),
    "psi-a": (((HALF, "do"), (HALF, "all")), ((1, "H0"),)),
    "psi-abar": (((HALF, "not-do"),), ((1, "H1"),)),
    "eps-a": (((HALF, "~odd-parts"), (HALF, "~distinct")), ((1, "E0"),)),
    "eps-abar": (((HALF, "~odd-parts"), (-HALF, "~distinct")), ((1, "E1"),)),
    "u-plus": (((1, "not-do-even-sign"),), ((1, "H1"), (1, "~H1"))),
    "u-minus": (((1, "odd-sign"),), ((HALF, "H"), (-HALF, "~H"))),
    "u-do": (((1, "do"),), ((1, "Hs"),)),
    "alt-induced": (((2, "do"), (1, "not-do-even-sign")), ((1, "H0"), (1, "~H0"))),
}

MODULE_IDS = tuple(MODULE_FORMS)

# name -> (kind, parity, signed) arguments of plethystic_sum: the sum over
# lam |- n of H_lambda or E_lambda, its halves with n - len(lam) even (0)
# or odd (1), and its twist by (-1)^(n - len(lam)) (s).
SUMS = {
    "H": ("h", None, None),
    "H0": ("h", 0, None),
    "H1": ("h", 1, None),
    "Hs": ("h", None, "sign-exponent"),
    "E": ("e", None, None),
    "E0": ("e", 0, None),
    "E1": ("e", 1, None),
    "Es": ("e", None, "sign-exponent"),
}


def linear_combination(side, term) -> PExpr:
    """sum of c * term(name) over the (c, name) terms of a side; "~name" takes omega."""
    total = None
    for c, name in side:
        f = omega(term(name[1:])) if name.startswith("~") else term(name)
        if c != 1:
            f = c * f
        total = f if total is None else total + f
    return PExpr.zero() if total is None else total


def module_char(mid: str, n: int) -> PExpr:
    """Closed power-sum form of a named module's characteristic."""
    if n < 1:
        raise ParameterError(f"module characteristics need n >= 1, got {n}")
    if mid in MODULE_FORMS:
        return linear_combination(
            MODULE_FORMS[mid][0], lambda kind: power_sum_family(FamilySpec(kind), n)
        )
    if mid.startswith("w:"):
        return w_route_a(n, int(mid.split(":", 1)[1]))
    if mid.startswith("family:"):
        return power_sum_family(parse_family(mid.split(":", 1)[1]), n)
    raise ParameterError(f"unknown module id {mid!r}")


def module_char_plethystic(mid: str, n: int) -> PExpr:
    """The same characteristic as an explicit sum of induced centralizer pieces."""
    if n < 1:
        raise ParameterError(f"module characteristics need n >= 1, got {n}")
    if mid in MODULE_FORMS:
        F = foulkes_series(0, n)
        return linear_combination(
            MODULE_FORMS[mid][1], lambda name: plethystic_sum(F, n, *SUMS[name])
        )
    if mid.startswith("w:"):
        return w_route_b(n, int(mid.split(":", 1)[1]))
    raise ParameterError(f"no plethystic route for module id {mid!r}")


def parse_module(text: str) -> str:
    """Validate a CLI module string and return it in canonical form."""
    if text in MODULE_IDS:
        return text
    if text.startswith("w:"):
        k = text.split(":", 1)[1]
        try:
            kk = int(k)
        except ValueError as exc:
            raise ParameterError(f"w needs an integer parameter, got {k!r}") from exc
        if kk < 2:
            raise ParameterError("w needs k >= 2")
        return text
    if text.startswith("family:"):
        parse_family(text.split(":", 1)[1])
        return text
    raise ParameterError(f"unknown module or family {text!r}")


# ---------------------------------------------------------------------------
# The parts-in-{1,k} module, two routes


def w_route_a(n: int, k: int) -> PExpr:
    """sum_r p_k^r * p_1^(n - k*r)."""
    if n < 0 or k < 2:
        raise ParameterError("w needs n >= 0 and k >= 2")
    return PExpr(dict.fromkeys(((k,) * r + (1,) * (n - k * r) for r in range(n // k + 1)), 1))


def w_route_b(n: int, k: int) -> PExpr:
    """p_1^t times the binomial closed form on the full k-multiple block.

    With n = m*k + t, alpha = p_1^k - p_k and beta = p_1^k + p_k:
    block = 2^(-m) * sum over odd j of C(m+1, j) * beta^(m+1-j) * alpha^(j-1).
    """
    if n < 0 or k < 2:
        raise ParameterError("w needs n >= 0 and k >= 2")
    m, t = divmod(n, k)
    alpha = PExpr.p(1) ** k - PExpr.p(k)
    beta = PExpr.p(1) ** k + PExpr.p(k)
    block = PExpr.zero()
    for j in range(1, m + 2, 2):
        block = block + comb(m + 1, j) * beta ** (m + 1 - j) * alpha ** (j - 1)
    return PExpr.p(1) ** t * block * Fraction(1, 2**m) if t else block * Fraction(1, 2**m)


# ---------------------------------------------------------------------------
# Series identities for the Moebius (free Lie) family


def lie_series(trunc: int) -> Series:
    """L(t): the Moebius-weighted family, k = 1."""
    return foulkes_series(1, trunc)


def pi_alt_series(trunc: int) -> Series:
    """pi^alt(t) = sum (-1)^(i-1) * omega(L_i); degree-i component carries its sign."""
    L = lie_series(trunc)
    return L.omega().alternate()


def h_minus_one_series(trunc: int) -> Series:
    """sum_{i>=1} h_i as a graded series."""
    from .symfunc import h_n

    return Series.from_function(h_n, trunc)


def lie_series_identities(n_max: int) -> list[tuple[str, int, bool, str]]:
    """Degreewise checks of the free-Lie generating identities.

    Returns (identity name, degree, ok, detail) tuples for:
      pbw:      sum_lam H_lam[L] at degree n equals p_1^n;
      cadogan:  sum_lam H_lam[pi^alt] vanishes beyond degree 1 (and is h_1 there);
      cadogan-inverse: pi^alt composed into sum h_i returns p_1;
      lie-ext:  sum_lam E_lam[L] at degree n equals the coefficient of
                (1 - t^2 p_2)/(1 - t p_1);
      pi-ext:   sum_lam E_lam[pi^alt] matches (1 + t p_1)/(1 + t^2 p_2).
    """
    out = []
    L = lie_series(n_max)
    PA = pi_alt_series(n_max)
    p1 = PExpr.p(1)

    HL = series_H(L)
    for n in range(n_max + 1):
        want = p1**n
        out.append(("pbw", n, HL.component(n) == want, "H[L] vs p1^n"))

    HPA = series_H(PA)
    for n in range(n_max + 1):
        want = PExpr.one() if n == 0 else (p1 if n == 1 else PExpr.zero())
        out.append(("cadogan", n, HPA.component(n) == want, "H[pi-alt] vs 1 + h1"))

    from .symfunc import plethysm_into

    HM = h_minus_one_series(n_max)
    composed = Series({}, n_max)
    for i in range(1, n_max + 1):
        composed = composed + plethysm_into(PA.component(i), HM)
    for n in range(1, n_max + 1):
        want = p1 if n == 1 else PExpr.zero()
        out.append(
            ("cadogan-inverse", n, composed.component(n) == want, "pi-alt o (H-1) vs h1")
        )

    EL = series_E(L)
    one_minus_p2 = Series({0: PExpr.one(), 2: -PExpr.p(2)}, n_max)
    geom_p1 = Series(
        {d: PExpr.term((1,) * d) for d in range(n_max + 1)}, n_max
    )
    rhs = one_minus_p2 * geom_p1
    for n in range(n_max + 1):
        out.append(("lie-ext", n, EL.component(n) == rhs.component(n), "E[L] vs (1-t2p2)/(1-tp1)"))

    EPA = series_E(PA)
    one_plus_p2 = Series({0: PExpr.one(), 2: PExpr.p(2)}, n_max)
    num = Series({0: PExpr.one(), 1: p1}, n_max)
    rhs2 = num * one_plus_p2.inverse()
    for n in range(n_max + 1):
        out.append(
            ("pi-ext", n, EPA.component(n) == rhs2.component(n), "E[pi-alt] vs (1+tp1)/(1+t2p2)")
        )
    return out


def exterior_from_symmetric(G: Series) -> Series:
    """G / G[p_2]: the exterior-power series of whatever G is the symmetric power of."""
    sub = G.substitute_p(2).truncate(G.trunc)
    return G * sub.inverse()
