"""Characteristics of the conjugacy-type representations.

The building block is the cyclic-induction family with weight function
psi_k: f_n = (1/n) * sum_{d|n} psi_k(d) * p_d^(n/d), where psi_k(d) is
the Ramanujan sum c_d(k).  k = 0 is the conjugation case (psi = totient);
k = 1 is the Moebius case (the free Lie character).

named_term(k, n, name) is the one resolver of a name at weight k and
degree n, and linear_combination evaluates a side: a linear combination of
named terms, among them Cauchy products "A * B" of names behind MODIFIERS.
Inside a run (in_run; verify opens one for each catalog run) each (k, n,
name) is resolved once and kept in the run's memo, so a name that many
checks read, or that a module form reads inside another term, is built
once; the memo goes with the run, and outside a run nothing is kept.
Every named module is produced two ways: a closed power-sum combination,
and a plethystic sum of h_m[f_i] / e_m[f_i] products over partitions, both
written once, in MODULE_FORMS.  named_term reads every module string that
parse_module accepts (a module id as its closed side), and module_char is
named_term at k = 0.  The two routes agreeing exactly is part of
the verification contract.  Every Foulkes series is read at one
truncation, SERIES_TRUNC, so each weight k has one cached series for every
reader; a plethystic sum "X" of SUMS reads it, and "X[over]" the series
F_k[over] derived from it (DERIVED_SERIES), built here once per (k, over).

The free-Lie identities (Corollary 5.2 and Proposition 5.4) are pairs of
names in LIE_IDENTITIES, read at k = 1 since the free Lie series L is F_1:
a plethystic sum over F_1 or pi^alt_1, or Cadogan's composition, against a
product form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import comb

from .errors import ParameterError, integer, string
from .numbertheory import divisors, ramanujan_sum
from .partitions import FAMILY_KINDS, FamilySpec, _parse_int, members, parse_family
from .symfunc import (
    H_lambda,
    PExpr,
    Series,
    _expr,
    _products,
    _reduce,
    _sum_exprs,
    h_n,
    omega,
    p1_derivative,
    plethysm_into,
    plethysm_p,
    plethystic_sum,
    product_expansion,
)


def foulkes(n: int, k: int) -> PExpr:
    """Characteristic of the k-th cyclic character induced from C_n to S_n:
    (1/n) sum_{d|n} c_d(k) p_d^(n/d), built straight into its reduced fields.

    Each key (d,) * (n // d) is canonical and each c_d(k) an int, so the one
    _reduce over the denominator n drops the zero weights and divides out the gcd."""
    integer(n, "foulkes degree n", 1)
    integer(k, "foulkes weight k", 0)
    return _expr(_reduce(n, {(d,) * (n // d): ramanujan_sum(d, k) for d in divisors(n)}))


def f_eval_direct(n: int, k: int, sign: int) -> Fraction:
    """Direct evaluation of the one-variable polynomial f_n at +-1: the divisor sum
    (1/n) sum_{d | n} c_d(k) * sign^(n/d), summed over the integers.  n and k are
    checked first; inside a run the sums at +1 and -1 are then read from, or kept in,
    the run's memo, one pass over the divisors giving both."""
    if sign not in (1, -1):
        raise ParameterError("sign must be +1 or -1")
    key = ("f_eval_direct", integer(n, "f_eval_direct degree n", 1))
    integer(k, "f_eval_direct weight k")
    memo = run_memo()
    sums = memo.get(key)
    if sums is None:
        sums = memo[key] = {}  # k -> (the sum at +1, the sum at -1)
    pair = sums.get(k)
    if pair is None:
        terms = [(ramanujan_sum(d, k), n // d) for d in divisors(n)]
        pair = sums[k] = (Fraction(sum(c for c, _ in terms), n),
                          Fraction(sum(-c if e & 1 else c for c, e in terms), n))
    return pair[0] if sign == 1 else pair[1]


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


def foulkes_series(k: int, trunc: int) -> Series:
    """Graded series of foulkes(i, k) for 1 <= i <= trunc (shared, read-only); k and
    trunc are checked before the cache reads them."""
    k = integer(k, "foulkes_series weight k", 0)
    return _foulkes_series(k, integer(trunc, "series truncation", 0))


@lru_cache(maxsize=None)
def _foulkes_series(k: int, trunc: int) -> Series:
    return Series.from_function(lambda i: foulkes(i, k), trunc)


# over -> F_k[over] built from F_k: pi^alt_k, or F_k on the degrees d it keeps
DERIVED_SERIES = {
    "pi-alt": lambda F: F.omega().alternate(),
    "odd": lambda F: F.restrict(lambda d: d % 2 == 1),
    "even": lambda F: F.restrict(lambda d: d % 2 == 0),
    "one": lambda F: F.restrict(lambda d: d == 1),
    "not-one": lambda F: F.restrict(lambda d: d != 1),
}


@lru_cache(maxsize=None)
def _derived_series(k: int, over: str) -> Series:
    """F_k[over] at SERIES_TRUNC (shared, read-only), over a key of DERIVED_SERIES;
    pi^alt_k = sum (-1)^(i-1) omega(F_k,i)."""
    return DERIVED_SERIES[over](foulkes_series(k, SERIES_TRUNC))


def power_sum_family(spec: FamilySpec, n: int) -> PExpr:
    """sum of p_lam over the members of the family among partitions of n."""
    return _expr((1, dict.fromkeys(members(spec, n), 1)))  # members yields canonical keys


# ---------------------------------------------------------------------------
# Named terms and modules

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
# or odd (1), and its twist by (-1)^(n - len(lam)) (s); "X[over]" sums over F_k[over].
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


# Product forms prod_m (1 + s_m t^m p_m)^(c * f_m(x)) of the weight-k family,
# as name -> (x, c, s_m on odd m, s_m on even m).
PRODUCT_FORMS = {
    "sym": (1, -1, -1, -1),  # prod (1 - t^m p_m)^(-f_m(1))
    "ext": (-1, 1, -1, -1),  # prod (1 - t^m p_m)^(f_m(-1))
    "omega-ext": (-1, 1, -1, 1),  # omega of ext
    "alt-ext": (1, 1, 1, 1),  # prod (1 + t^m p_m)^(f_m(1))
    "alt-sym": (-1, -1, 1, 1),  # prod (1 + t^m p_m)^(-f_m(-1))
    "mixed-ext": (1, 1, 1, -1),  # omega of alt-ext
    "mixed-sym": (-1, -1, 1, -1),  # omega of alt-sym
}


# The memos of the open runs, innermost last.  A run is one dict: named_term keeps
# each term it resolves under (k, n, name), and verify its Schur expansions under
# keys of its own.  Outside a run the list is empty and nothing is kept.
_RUNS: list[dict] = []


class in_run:
    """`with in_run(memo):` makes memo the open run for the block; the outer run, if
    any, is open again after it, however the block ends.  A class rather than a
    generator, as a catalog run enters one for every check."""

    __slots__ = ("memo",)

    def __init__(self, memo: dict):
        self.memo = memo

    def __enter__(self) -> dict:
        _RUNS.append(self.memo)
        return self.memo

    def __exit__(self, *exc) -> None:
        _RUNS.pop()


def run_memo() -> dict:
    """The open run's memo; outside a run, a new dict that nothing keeps."""
    return _RUNS[-1] if _RUNS else {}


# The modifiers of a factor of a product term, read outside in: prefix -> the factor at
# degree a, given A, the rest of the factor as a function of its degree.  "p2 o A" reads
# A at odd a too, so an unknown name raises there as well.
MODIFIERS = {
    "(-1)^deg ": lambda A, a: (-1) ** a * A(a),
    "d/dp1 ": lambda A, a: p1_derivative(A(a + 1)),
    "p2 o ": lambda A, a: plethysm_p(2, A(a // 2)) * (1 - a % 2),  # 0 at odd a
}


def named_term(k: int, n: int, name: str) -> PExpr:
    """The term `name` at weight k and degree n: a module id (its closed side), "w:<k>"
    (the family one-or-k) or "family:<spec>", a plethystic sum "X" of SUMS over F_k or
    "X[over]" over F_k[over], "1 + pi-alt o (H-1)" (Cadogan's inverse), a product form,
    "one-or-k binomial" (w_route_b at weight k), "termwise" (Theorem 4.15.1),
    "1/(1-p1)" (p_1^n), a family kind, a product "A * B" (the sum over a + b = n of
    A_a B_b) or one factor A, each factor a name behind any MODIFIERS;
    ParameterError("unknown term ...") for any other name, or for a factor that is no
    name, naming it.  The arguments are checked first; inside a run the term is then
    read from, or kept in, the run's memo."""
    key = (integer(k, "term weight k", 0), integer(n, "term degree", 0), string(name, "term name"))
    memo = run_memo()
    if key not in memo:
        memo[key] = _resolve(*key)
    return memo[key]


def _resolve(k: int, n: int, name: str) -> PExpr:
    """named_term(k, n, name) built anew, its arguments already checked."""
    if name in MODULE_FORMS:
        return linear_combination(MODULE_FORMS[name][0], partial(named_term, 0, n))
    if name.startswith("family:"):  # before the product split: an explicit path may hold " * "
        return power_sum_family(_family(name), n)
    base, bracket, over = name.partition("[")
    if base in SUMS and (not bracket or over.endswith("]") and over[:-1] in DERIVED_SERIES):
        F = _derived_series(k, over[:-1]) if bracket else foulkes_series(k, SERIES_TRUNC)
        return plethystic_sum(F, n, *SUMS[base])
    if name == "1 + pi-alt o (H-1)":  # degree n needs only pi^alt_1..n and h_1..h_n
        pi = _derived_series(k, "pi-alt")
        outer = _sum_exprs([(1, PExpr.one())] + [(1, pi.component(d)) for d in range(1, n + 1)])
        return plethysm_into(outer, Series.from_function(h_n, n)).component(n)
    if name in PRODUCT_FORMS:
        x, c, odd, even = PRODUCT_FORMS[name]
        fs = ((m, f_eval(m, k, x)) for m in range(1, n + 1))
        return product_expansion([(m, c * f, odd if m % 2 else even) for m, f in fs if f], n)
    left, star, right = name.partition(" * ")  # no other name holds " * " or a modifier
    if star:
        return _products((1, _factor(k, a, left), _factor(k, n - a, right)) for a in range(n + 1))
    if name.startswith(tuple(MODIFIERS)):
        return _factor(k, n, name)
    if name.startswith("w:"):
        return power_sum_family(FamilySpec("one-or-k", k=_w_weight(name)), n)
    if name == "one-or-k binomial":
        return w_route_b(n, k)
    if name == "termwise":  # sum of H_lam + omega(H_lam) over lam with odd sign
        F = foulkes_series(k, SERIES_TRUNC)
        total = _sum_exprs((1, H_lambda(lam, F)) for lam in members(FamilySpec("odd-sign"), n))
        return total + omega(total)
    if name == "1/(1-p1)":
        return _expr((1, {(1,) * n: 1}))
    if name not in FAMILY_KINDS:
        raise ParameterError(f"unknown term {name!r}")
    return power_sum_family(FamilySpec(name, k=k or None), n)


def _factor(k: int, a: int, text: str) -> PExpr:
    """The factor `text` of a product term at weight k and degree a: a name behind any MODIFIERS."""
    for prefix, modify in MODIFIERS.items():
        if text.startswith(prefix):
            return modify(lambda d: _factor(k, d, text.removeprefix(prefix)), a)
    return named_term(k, a, text)


def linear_combination(side, term) -> PExpr:
    """sum of c * term(name) over the (c, name) terms of a side; "~name" takes omega."""
    return _sum_exprs(
        (c, omega(term(name[1:])) if name.startswith("~") else term(name)) for c, name in side
    )


def module_char(mid: str, n: int) -> PExpr:
    """Closed power-sum form of a named module's characteristic: named_term at k = 0
    of mid, a name in MODULE_IDS, "w:<k>" or "family:<spec>" as parse_module reads it."""
    integer(n, "module degree", 1)
    return named_term(0, n, parse_module(mid))


def module_char_plethystic(mid: str, n: int) -> PExpr:
    """The same characteristic as an explicit sum of induced centralizer pieces;
    TruncationError for a named module at n > SERIES_TRUNC."""
    integer(n, "module degree", 1)
    if string(mid, "module id") in MODULE_FORMS:
        return linear_combination(MODULE_FORMS[mid][1], partial(named_term, 0, n))
    if mid.startswith("w:"):
        return named_term(_w_weight(mid), n, "one-or-k binomial")
    raise ParameterError(f"no plethystic route for module id {mid!r}")


def parse_module(text: str) -> str:
    """Validate a module string (a name in MODULE_IDS, "w:<k>" with k an integer >= 2,
    or "family:<spec>") and return it in canonical form; named_term reads it."""
    if string(text, "module") in MODULE_IDS:
        return text
    if text.startswith("w:"):
        _w_weight(text)
        return text
    if text.startswith("family:"):
        _family(text)
        return text
    raise ParameterError(f"unknown module or family {text!r}")


def _family(text: str) -> FamilySpec:
    """The family of the module string "family:<spec>", parsed once per run: inside a run
    it is kept in the run's memo, so an explicit family's file is read once."""
    key = ("family", text)
    memo = run_memo()
    if key not in memo:
        memo[key] = parse_family(text.removeprefix("family:"))
    return memo[key]


def _w_weight(mid: str) -> int:
    """k of the module id "w:<k>"; ParameterError unless k reads as an integer >= 2."""
    return integer(_parse_int(mid[2:]), "w parameter k", 2)


# ---------------------------------------------------------------------------
# The parts-in-{1,k} module: the binomial route (the other is the family one-or-k)


def w_route_b(n: int, k: int) -> PExpr:
    """p_1^t times the binomial closed form on the full k-multiple block.

    With n = m*k + t, X = p_1^k, Y = p_k, alpha = X - Y and beta = X + Y:
    block = 2^(-m) * sum over odd j of C(m+1, j) * beta^(m+1-j) * alpha^(j-1),
    a form of degree m in X and Y, expanded here in integers: c[i] is the
    coefficient of X^(m-i) Y^i, and the result is 2^(-m) * sum_i c[i] p_k^i p_1^(k(m-i)+t).
    """
    integer(n, "w degree n", 0)
    integer(k, "w parameter k", 2)
    m, t = divmod(n, k)
    c = [0] * (m + 1)
    for j in range(1, m + 2, 2):  # Y^a from beta^(m+1-j), Y^b from alpha^(j-1)
        for a in range(m + 2 - j):
            for b in range(j):
                c[a + b] += comb(m + 1, j) * comb(m + 1 - j, a) * comb(j - 1, b) * (-1) ** b
    return _expr(_reduce(2**m, {(k,) * i + (1,) * (k * (m - i) + t): ci for i, ci in enumerate(c)}))


# ---------------------------------------------------------------------------
# Series identities for the Moebius (free Lie) family
#
# name -> (left name, right name, detail), both names read by named_term at
# k = 1: L = F_1, so pbw and lie-ext are Theorem 5.9.1 and 5.9.3 at k = 1.
LIE_IDENTITIES = {
    "pbw": ("H", "sym", "H[L] vs p1^n"),
    "cadogan": ("H[pi-alt]", "alt-ext", "H[pi-alt] vs 1 + h1"),
    "cadogan-inverse": ("1 + pi-alt o (H-1)", "alt-ext", "pi-alt o (H-1) vs h1"),
    "lie-ext": ("E", "ext", "E[L] vs (1-t2p2)/(1-tp1)"),
    "pi-ext": ("E[pi-alt]", "alt-sym", "E[pi-alt] vs (1+tp1)/(1+t2p2)"),
}


def lie_series_identities(n_max: int) -> list[tuple[str, int, bool, str]]:
    """(identity name, degree, ok, detail) for every free-Lie identity at every
    degree up to n_max; cadogan-inverse from degree 1 on.
    TruncationError for n_max > SERIES_TRUNC."""
    integer(n_max, "free-Lie identity degree")
    return [
        (name, n, named_term(1, n, left) == named_term(1, n, right), detail)
        for name, (left, right, detail) in LIE_IDENTITIES.items()
        for n in range(name == "cadogan-inverse", n_max + 1)
    ]
