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
verification contract.  Every Foulkes series is read at one truncation,
SERIES_TRUNC, so each weight k has one cached series for every reader.

The free-Lie identities (k = 1: Corollary 5.2 and Proposition 5.4) are
evaluated one degree at a time by lie_identity: a plethystic sum over the
cached series L or pi^alt against the closed product form that
product_expansion gives at that degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import ParameterError, integer
from .numbertheory import divisors, ramanujan_sum
from .partitions import FamilySpec, _parse_int, members, parse_family
from .symfunc import (
    PExpr,
    Series,
    _expr,
    h_n,
    omega,
    plethysm_into,
    plethystic_sum,
    product_expansion,
)


def cyclic_weight(d: int, k: int) -> int:
    """psi_k(d): the Ramanujan sum c_d(k); c_d(0) is the totient."""
    return ramanujan_sum(d, k)


def foulkes(n: int, k: int) -> PExpr:
    """Characteristic of the k-th cyclic character induced from C_n to S_n."""
    integer(n, "foulkes degree n", 1)
    integer(k, "foulkes weight k", 0)
    return PExpr({(d,) * (n // d): cyclic_weight(d, k) for d in divisors(n)}) * Fraction(1, n)


def f_eval_direct(n: int, k: int, sign: int) -> Fraction:
    """Direct evaluation of the one-variable polynomial f_n at +-1: the divisor sum
    (1/n) sum_{d | n} c_d(k) * sign^(n/d), summed over the integers."""
    if sign not in (1, -1):
        raise ParameterError("sign must be +1 or -1")
    return Fraction(sum(cyclic_weight(d, k) * sign ** (n // d) for d in divisors(n)), n)


def f_eval(n: int, k: int, sign: int) -> int:
    """f_n(+-1) by the closed case table: f_n(1) = 1 iff n | k; f_n(-1) = -1 if
    n is odd and n | k, +1 if n is even with (n/2) | k but n not | k, else 0.

    Every n divides 0, so k = 0 (conjugation) reads the same table:
    f_n(1) = 1, and f_n(-1) = -1 for odd n, else 0.
    """
    integer(n, "f_eval degree n", 1)
    integer(k, "f_eval weight k")
    if sign not in (1, -1):
        raise ParameterError("sign must be +1 or -1")
    if sign == 1:
        return 1 if k % n == 0 else 0
    if n % 2 == 1:
        return -1 if k % n == 0 else 0
    if k % (n // 2) == 0 and k % n != 0:
        return 1
    return 0


# The truncation of every Foulkes series read here and in the catalog: each
# degree up to 31 packs in the 5-bit fields that degree 20 already uses, and
# 31 covers n + 1 for every n <= 30.
SERIES_TRUNC = 31


@lru_cache(maxsize=None, typed=True)
def foulkes_series(k: int, trunc: int) -> Series:
    """Graded series of foulkes(i, k) for 1 <= i <= trunc (shared, read-only)."""
    integer(k, "foulkes_series weight k")
    return Series.from_function(lambda i: foulkes(i, k), trunc)  # from_function checks trunc


def power_sum_family(spec: FamilySpec, n: int) -> PExpr:
    """sum of p_lam over the members of the family among partitions of n."""
    return _expr((1, dict.fromkeys(members(spec, n), 1)))  # members yields canonical keys


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
    """Closed power-sum form of a named module's characteristic.

    mid is a name in MODULE_IDS, "w:<k>" or "family:<spec>"; a "w:<k>" whose k
    is not an integer >= 2 raises ParameterError, as in parse_module."""
    integer(n, "module degree", 1)
    if mid in MODULE_FORMS:
        return linear_combination(
            MODULE_FORMS[mid][0], lambda kind: power_sum_family(FamilySpec(kind), n)
        )
    if mid.startswith("w:"):
        return w_route_a(n, _w_weight(mid))
    if mid.startswith("family:"):
        return power_sum_family(parse_family(mid.split(":", 1)[1]), n)
    raise ParameterError(f"unknown module id {mid!r}")


def module_char_plethystic(mid: str, n: int) -> PExpr:
    """The same characteristic as an explicit sum of induced centralizer pieces;
    TruncationError for a named module at n > SERIES_TRUNC."""
    integer(n, "module degree", 1)
    if mid in MODULE_FORMS:
        F = foulkes_series(0, SERIES_TRUNC)
        return linear_combination(
            MODULE_FORMS[mid][1], lambda name: plethystic_sum(F, n, *SUMS[name])
        )
    if mid.startswith("w:"):
        return w_route_b(n, _w_weight(mid))
    raise ParameterError(f"no plethystic route for module id {mid!r}")


def parse_module(text: str) -> str:
    """Validate a CLI module string and return it in canonical form; a "w:<k>" is
    read by the same parse as module_char and module_char_plethystic."""
    if text in MODULE_IDS:
        return text
    if text.startswith("w:"):
        _w_weight(text)
        return text
    if text.startswith("family:"):
        parse_family(text.split(":", 1)[1])
        return text
    raise ParameterError(f"unknown module or family {text!r}")


def _w_weight(mid: str) -> int:
    """k of the module id "w:<k>"; ParameterError unless k reads as an integer >= 2."""
    return integer(_parse_int(mid[2:]), "w parameter k", 2)


# ---------------------------------------------------------------------------
# The parts-in-{1,k} module, two routes


def w_route_a(n: int, k: int) -> PExpr:
    """sum_r p_k^r * p_1^(n - k*r)."""
    integer(n, "w degree n", 0)
    integer(k, "w parameter k", 2)
    return PExpr(dict.fromkeys(((k,) * r + (1,) * (n - k * r) for r in range(n // k + 1)), 1))


def w_route_b(n: int, k: int) -> PExpr:
    """p_1^t times the binomial closed form on the full k-multiple block.

    With n = m*k + t, alpha = p_1^k - p_k and beta = p_1^k + p_k:
    block = 2^(-m) * sum over odd j of C(m+1, j) * beta^(m+1-j) * alpha^(j-1).
    """
    integer(n, "w degree n", 0)
    integer(k, "w parameter k", 2)
    m, t = divmod(n, k)
    alpha = PExpr.p(1) ** k - PExpr.p(k)
    beta = PExpr.p(1) ** k + PExpr.p(k)
    block = PExpr.zero()
    for j in range(1, m + 2, 2):
        block = block + comb(m + 1, j) * beta ** (m + 1 - j) * alpha ** (j - 1)
    return PExpr.p(1) ** t * block * Fraction(1, 2**m) if t else block * Fraction(1, 2**m)


# ---------------------------------------------------------------------------
# Series identities for the Moebius (free Lie) family
#
# L = foulkes_series(1, SERIES_TRUNC) and pi^alt = sum (-1)^(i-1) omega(L_i).
# name -> (series of the left side's plethystic sum, its kind, the factors
# (m, c, sign) of the right side's product_expansion, detail); cadogan-inverse
# composes pi^alt into sum_{i>=1} h_i instead, and its right side is h_1.
LIE_IDENTITIES = {
    "pbw": ("L", "h", ((1, -1, -1),), "H[L] vs p1^n"),
    "cadogan": ("pi-alt", "h", ((1, 1, 1),), "H[pi-alt] vs 1 + h1"),
    "cadogan-inverse": (None, None, None, "pi-alt o (H-1) vs h1"),
    "lie-ext": ("L", "e", ((2, 1, -1), (1, -1, -1)), "E[L] vs (1-t2p2)/(1-tp1)"),
    "pi-ext": ("pi-alt", "e", ((1, 1, 1), (2, -1, 1)), "E[pi-alt] vs (1+tp1)/(1+t2p2)"),
}


@lru_cache(maxsize=None)
def _pi_alt() -> Series:
    """pi^alt, shared by every degree up to SERIES_TRUNC."""
    return foulkes_series(1, SERIES_TRUNC).omega().alternate()


def lie_identity(name: str, n: int) -> tuple[PExpr, PExpr]:
    """(left, right): both sides of the named free-Lie identity at degree n, over
    the series truncated at SERIES_TRUNC; TruncationError for n > SERIES_TRUNC.

    The degree-n part of pi^alt o (H - 1) needs only pi^alt_1..pi^alt_n and
    h_1..h_n, so cadogan-inverse composes those and nothing beyond.
    """
    if name not in LIE_IDENTITIES:
        raise ParameterError(f"unknown free-Lie identity {name!r}")
    integer(n, "free-Lie identity degree", 0)
    series, kind, factors, _ = LIE_IDENTITIES[name]
    if series is None:  # cadogan-inverse
        outer = sum(map(_pi_alt().component, range(1, n + 1)), PExpr.zero())
        left = plethysm_into(outer, Series.from_function(h_n, n)).component(n)
        return left, (PExpr.p(1) if n == 1 else PExpr.zero())
    F = foulkes_series(1, SERIES_TRUNC) if series == "L" else _pi_alt()
    return plethystic_sum(F, n, kind), product_expansion(factors, n)


def lie_series_identities(n_max: int) -> list[tuple[str, int, bool, str]]:
    """(identity name, degree, ok, detail) for every free-Lie identity at every
    degree up to n_max, from lie_identity; cadogan-inverse from degree 1 on.
    TruncationError for n_max > SERIES_TRUNC."""
    integer(n_max, "free-Lie identity degree")
    out = []
    for name, (*_, detail) in LIE_IDENTITIES.items():
        for n in range(name == "cadogan-inverse", n_max + 1):
            left, right = lie_identity(name, n)
            out.append((name, n, left == right, detail))
    return out
