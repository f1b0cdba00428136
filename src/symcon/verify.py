"""Identity catalog and batch verification harness.

Every checkable claim is an Entry: a stable id, a group tag, the degrees
it is declared for (data: a range or a tuple), a floor it always runs to,
and a runner returning (status, detail) at one degree.  Entry.ns(max_n)
is the declared degrees up to max_n, or up to the floor if that is higher;
a run stops at DEFAULT_MAX_N unless asked for another degree.  A runner
never sees the id; Entry.check names the result.  Ids follow the external
naming contract (thm/prop/cor/lem prefixes with equation-style suffixes,
k-parameterized entries carrying ':k<k>').  Entries are independent; they
run one after another and results are emitted in catalog order.

run_selector runs all of its checks in one run (repmodels.in_run), whose
memo keeps every named term and Schur expansion for the later checks;
_expand keys an expansion on the expression (by its reduced fields), the
degree and the table cap, so thm1.1.all and psi share one.  A bare
Entry.check, and check_identity and the helpers over it, run in a run of
their own, so nothing they build outlives them.  The run is open only
while a check computes and is dropped once the generator is exhausted or
closed; this module keeps no cache that outlives it.

Every identity (Theorems 4.2, 4.11, 4.15, 5.9 and 3.4, Propositions 2.3,
3.6, 4.13 and 6.5, Lemma 5.5 and Corollary 5.10) is a row of data, all
evaluated by one runner: each row pairs two sides, a side being a linear
combination of named terms -- plethystic sums, product forms, module
characteristics, power-sum families and Cauchy products of these.  This
module defines no term: every name is resolved by repmodels.named_term.
Theorem 4.2 is the k = 0 member of the weight-k family of Theorem 5.9,
since c_d(0) = phi(d), and Corollary 5.10 is Theorem 5.9 at k = 2 read
through the parts-in-{1,2} module; Propositions 2.3 and 3.6 and Lemma 5.5
read their right sides as Cauchy products ("E * p2 o H", ...).  The routes
entries of the ten named modules are rows of the same runner, pairing the
two sides of repmodels.MODULE_FORMS, and so are routes.w:k (one-or-k
against its binomial closed form, at weight k) and the free-Lie identities
of Corollary 5.2 and Proposition 5.4: the name pairs of
repmodels.LIE_IDENTITIES at k = 1, since the free Lie series L is F_1.

A row of that runner also carries claims (reader, side, argument): _claim
reads Schur positivity both ways (the side is Schur-nonnegative, and with
exceptions every shape occurs but a documented one, which is absent), and
_dimension reads that the side has dimension argument * n!.  The rows of
Theorem 1.1, the strictness rows (Theorems 4.5, 4.9, 4.17, 4.19,
Corollaries 4.12 and 4.18), the half sums of Theorem 3.4 and Corollary
5.10 and the dims.* rows (k = 0: each self-conjugacy a pair (label, side,
~side), the dimension a claim) are such rows, and so is Theorem 6.4: only
its n = 3 closed form 2 p_3 + p_1^3 has code of its own.  The trivial, sign
and near-trivial counts of Propositions 4.21 and 4.22 and Lemma 4.7 are
read off the power sums (symfunc._hook_numerators) with no table; only
lem4.7's prime coverage expands f_n.  TABLES names each decomposition
table's fixture and modules; the tables.* entries take their degrees from
the fixture's keys.

The oracle, lemma and coverage rows compute each value once.
oracles.mn-alternant decodes each table column once and reads the alternant
oracle's class columns, which share one classification of the exponent
vectors per degree.  oracles.ramanujan reads c_d(k) once for every k it
checks, against the divisor-sum oracle, phi(d) at k = 0 and its own value at
k mod d.  The lemma rows read each divisor sum f_n(+-1) once per run, as
repmodels.f_eval_direct keeps it in the run's memo.  The per-class coverage
scan of Remark 4.20 is witness-first: H_lam[F] or E_lam[F] contains every
irreducible only if each of s_(n), s_(1^n), s_(n-1,1) and s_(2,1^(n-2))
occurs.  Those four multiplicities come from four integer scalars per factor
h_m[f_i] or e_m[f_i], combined by product and the Leibniz rule
(symfunc._lambda_hooks), with no table and no product built: the sieve.  So
from n = 2 only the classes that pass it are built and expanded in full;
that expansion is the proof.  At n = 20 that is 14 of 1254 classes.

Statuses: PASS/FAIL for theorem-backed claims, REPORT for scans that are
observations rather than assertions (counterexample confirmations,
segment scans, per-class coverage).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import factorial

from .characters import (
    ALTERNANT_MAX_N,
    TABLE_CAP,
    SchurExpansion,
    alternant_oracle,
    character_table,
    to_schur,
)
from .errors import CatalogError, ParameterError, integer
from .numbertheory import divisors, ramanujan_sum, ramanujan_sum_oracle, totient
from .partitions import (
    FamilySpec,
    Partition,
    conjugate,
    maj_multiplicity,
    members,
    partition,
    partitions_of,
)
from .repmodels import (
    HALF,
    LIE_IDENTITIES,
    MODULE_FORMS,
    MODULE_IDS,
    SERIES_TRUNC,
    f_eval,
    f_eval_direct,
    foulkes,
    foulkes_series,
    in_run,
    kept,
    linear_combination,
    module_char,
    named_term,
    power_sum_family,
    run_memo,
)
from .symfunc import E_lambda, H_lambda, PExpr, _hook_numerators, _lambda_hooks, dimension
from . import tables_data

# the degree a catalog run stops at unless the caller asks for another
DEFAULT_MAX_N = 12
# the k of the k-parameterised entries: the k-families of thm1.1 and thm5.9 take
# every k in KS, the w:k modules every k but the first (w needs k >= 2)
KS = range(1, 7)
# the degrees of each documented counterexample: cex.b and cex.c are explicit
# families of partitions of 6
CEX_DEGREES = {"a": (4, 5, 6), "b": (6,), "c": (6,)}
# the number-theory entries are cheap, so they run to these degrees at any max_n
LEMMA_TOP = 30  # lem3.3, lem4.1, lem5.1, lem5.7
RAMANUJAN_TOP = 60  # oracles.ramanujan
# their weights k: c_d(k) against the divisor-sum oracle, c_d(k) = c_d(k mod d),
# and lem3.3 at every k of LEMMA_KS, lem5.7 at every k >= 1
RAMANUJAN_KS = range(61)
RAMANUJAN_PERIOD_KS = range(121)
LEMMA_KS = range(13)
# the highest degree of the positivity and strictness rows, thm6.4 and routes.w:k
POSITIVITY_TOP = 12


@dataclass(frozen=True)
class CheckResult:
    id: str
    n: int
    status: str  # PASS | FAIL | REPORT
    detail: dict | None = None

    def to_json_dict(self) -> dict:
        out = {"id": self.id, "n": self.n, "status": self.status}
        if self.detail is not None:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class Entry:
    id: str
    group: str
    degrees: range | tuple[int, ...]  # every degree the entry is declared for, ascending
    run: object  # callable n -> (status, detail)
    tags: tuple[str, ...] = ()
    floor: int = 0  # the entry runs up to this degree whatever max_n is

    def ns(self, max_n: int) -> list[int]:
        """The declared degrees a run to max_n checks: those up to max_n, or up
        to the floor if that is higher."""
        top = max(self.floor, max_n)
        return [n for n in self.degrees if n <= top]

    def check(self, n: int) -> CheckResult:
        """The entry's result at degree n, in the open run, or in a run of its own."""
        n = integer(n, "degree", 0)
        with in_run(run_memo()):
            return CheckResult(self.id, n, *self.run(n))

    def matches(self, selector: str) -> bool:
        if selector in ("all", self.id, self.group) or selector in self.tags:
            return True
        return self.id.startswith((selector + ".", selector + ":"))


# ---------------------------------------------------------------------------
# Result helpers


def _diff_witness(lhs: PExpr, rhs: PExpr, limit: int = 4) -> dict:
    diff = (lhs - rhs).terms
    keys = sorted(diff, key=lambda k: (sum(k), k), reverse=True)[:limit]
    return {"mismatch": [{"p": list(k), "lhs-rhs": str(diff[k])} for k in keys]}


def _eq(pairs) -> tuple:
    """PASS iff every (label, lhs, rhs) pair agrees exactly."""
    for label, lhs, rhs in pairs:
        if lhs != rhs:
            return "FAIL", {"failed": label, **_diff_witness(lhs, rhs)}
    return "PASS", None


# the hooks s_(n), s_(1^n), s_(n-1,1) and s_(2,1^(n-2)) of n, indexing _hook_numerators
TRIVIAL, SIGN, NEAR_TRIVIAL, NEAR_SIGN = range(4)


def _hooks(f: PExpr, n: int, checks) -> tuple:
    """PASS iff every (label, hook, want) check has that hook's multiplicity in f equal to
    want, read off f's power sums with no table; else FAIL naming the first that does not."""
    counts = _hook_numerators(f, n)
    for label, hook, want in checks:
        got = Fraction(counts[hook], f.denominator)
        if got != want:
            return "FAIL", {"failed": label, "got": str(got), "want": str(want)}
    return "PASS", None


def _expand(f: PExpr, n: int, max_n: int = TABLE_CAP) -> SchurExpansion:
    """to_schur of f at degree n and table cap max_n, kept in the open run under (f, n, max_n):
    n and max_n are checked before the memo is read, so 2.0 and True raise and never hit."""
    n, max_n = integer(n, "Schur expansion degree"), integer(max_n, "character table cap")
    return kept((f, n, max_n), to_schur, f, n, max_n)


def check_positivity(
    spec_or_expr,
    n: int,
    mode: str = "NONNEG",
    exceptions: tuple[Partition, ...] = (),
    check_id: str = "positivity",
) -> CheckResult:
    """Schur-positivity check of a family sum (or explicit expression).

    NONNEG: all multiplicities integral and >= 0.
    STRICT: additionally every nu |- n occurs (mult >= 1).
    STRICT_EXCEPT: strict outside `exceptions`, each read as a partition of n
    by partitions.partition; excepted shapes only need nonnegativity (their
    absence is allowed, not required).  No catalog row calls it: a row's claim
    (_claim) also requires its excepted shape to be absent.
    """
    if mode not in ("NONNEG", "STRICT", "STRICT_EXCEPT"):
        raise ParameterError(f"mode must be NONNEG, STRICT or STRICT_EXCEPT, got {mode!r}")
    if exceptions and mode != "STRICT_EXCEPT":
        raise ParameterError(f"exceptions need mode STRICT_EXCEPT, got {mode!r}")
    try:
        exceptions = tuple(partition(e, n) for e in exceptions)
    except TypeError:  # exceptions is not iterable
        raise ParameterError(f"exceptions must be partitions, got {exceptions!r}") from None
    f = power_sum_family(spec_or_expr, n) if isinstance(spec_or_expr, FamilySpec) else spec_or_expr
    if not isinstance(f, PExpr):
        raise ParameterError(f"not a FamilySpec or a PExpr: {spec_or_expr!r}")
    return CheckResult(check_id, n, *_positivity(_expand(f, n), mode, exceptions))


def _positivity(se: SchurExpansion, mode: str, exceptions=()) -> tuple:
    """check_positivity on an expansion already computed, read from its integers;
    exceptions are only given with STRICT_EXCEPT."""
    d = se.denominator
    floor = 0 if mode == "NONNEG" else d
    bad = [
        (nu, m)
        for nu, m in zip(partitions_of(se.n), se.numerators)
        if m % d or m < (0 if nu in exceptions else floor)
    ]
    if bad:
        return "FAIL", {"witness": [{"nu": list(nu), "mult": str(Fraction(m, d))} for nu, m in bad[:6]]}
    return "PASS", None


# ---------------------------------------------------------------------------
# Linear identities as data
#
# A row is (equation, pairs); a pair is (label, left side, right side), and a
# side is a tuple of (coefficient, name) terms, "~name" meaning omega(name)
# (repmodels.linear_combination).  A name is a term at the row's weight k,
# resolved by repmodels.named_term.


def _one(name: str) -> tuple:
    return ((1, name),)


def _gf(rows) -> tuple:
    """Rows (equation, left name, right name) with the one pair "lhs == rhs"."""
    return tuple((eq, (("lhs == rhs", _one(lhs), _one(rhs)),)) for eq, lhs, rhs in rows)


_THM42 = _gf((  # k = 0
    (1, "H", "sym"), (2, "H", "all"), (3, "E", "ext"), (4, "E", "odd-parts"),
    (5, "~Es", "alt-ext"), (6, "~Es", "distinct"), (7, "~Hs", "alt-sym"), (8, "~Hs", "do"),
))
_THM59 = _gf((  # k >= 1
    (1, "H", "sym"), (2, "H", "divides-k"), (3, "E", "ext"), (4, "~E", "omega-ext"),
    (5, "~E", "thm59"), (6, "~Es", "alt-ext"), (7, "~Hs", "alt-sym"), (8, "Hs", "mixed-sym"),
))
# Half sums of two product forms; their left sides must be Schur-nonnegative.
_THM34 = tuple(
    (eq, (("half-sum identity", _one(lhs), ((HALF, a), (sign * HALF, b))),))
    for eq, lhs, a, sign, b in (
        (5, "E0", "ext", 1, "mixed-ext"),
        (6, "E1", "ext", -1, "mixed-ext"),
        (7, "H0", "sym", 1, "mixed-sym"),
        (8, "H1", "sym", -1, "mixed-sym"),
    )
)
_PSI_SELF = ((HALF, "psi"), (HALF, "~psi"))  # (psi + omega(psi)) / 2
_U_EVEN = ((1, "u-plus"), (1, "u-do"))
_THM411 = (
    (1, (("split", _one("H"), ((1, "H0"), (1, "H1"))),
         ("power-sum", _one("H"), _one("all")))),
    (2, (("even H", _one("H0"), _one("psi-a")),)),
    (3, (("odd H", _one("H1"), _one("psi-abar")),)),
    (4, (("half sum", _PSI_SELF, _one("even-sign")),)),
    (5, (("split", _one("E"), ((1, "E0"), (1, "E1"))),
         ("power-sum", _one("E"), _one("odd-parts")))),
    (6, (("omega even E", _one("~E0"), _one("~eps-a")),)),
    (7, (("omega odd E", _one("~E1"), _one("~eps-abar")),)),
)
_PROP413 = (
    (1, (("alternating H", _one("Hs"), _one("u-do")),
         ("self-conjugate", _one("~u-do"), _one("u-do")))),
    (2, (("u+ self-conjugate", _one("~u-plus"), _one("u-plus")),
         ("u- anti", _one("~u-minus"), ((-1, "u-minus"),)))),
    (3, (("sum", _one("psi"), ((1, "u-plus"), (1, "u-minus"), (1, "u-do"))),)),
    (4, (("omega sum", _one("~psi"), ((1, "u-plus"), (-1, "u-minus"), (1, "u-do"))),)),
    (5, (("even block", _one("H0"), ((HALF, "u-plus"), (HALF, "u-minus"), (1, "u-do"))),)),
    (6, (("odd block", _one("H1"), ((HALF, "u-plus"), (HALF, "u-minus"))),)),
    (7, (("2 u-", ((2, "u-minus"),), ((1, "psi"), (-1, "~psi"))),)),
    (8, (("difference", _one("u-do"), ((1, "H0"), (-1, "H1"))),)),
    (9, (("u+", _one("u-plus"), ((1, "H1"), (1, "~H1"))),)),
    (10, (("u+ + u-do", _U_EVEN, ((1, "H0"), (1, "~H1"))), ("half", _U_EVEN, _PSI_SELF))),
)
_THM415 = (
    (1, (("termwise", _one("u-plus"), _one("termwise")),
         ("coset form", _one("u-plus"), ((1, "H1"), (1, "~H1"))))),
    (2, (("even-sign family", _U_EVEN, _one("even-sign")),
         ("coset form", _U_EVEN, ((1, "H0"), (1, "~H1"))))),
    (3, (("half", _U_EVEN, _PSI_SELF),)),
    (4, (("swapped coset form", _U_EVEN, ((1, "~H0"), (1, "H1"))),)),
)
_PROP65 = (
    (1, (("induced", _one("alt-induced"), ((1, "H0"), (1, "~H0"))),)),
    (2, (("u decomposition", _one("alt-induced"), ((1, "u-plus"), (2, "u-do"))),)),
    (3, (("doubled", ((2, "alt-induced"),), ((1, "psi"), (1, "~psi"), (2, "u-do"))),)),
    (4, (("u+ recovery", _one("u-plus"), ((1, "psi"), (1, "~psi"), (-1, "alt-induced"))),)),
)
# Lemma 5.5, E[F] = G / G[p2] with G = H[F], multiplied out: G[p2] has constant term 1.
_LEM55 = (("G == E[F] G[p2]", _one("H"), _one("E * p2 o H")),)
# Proposition 3.6 at k = 0: d/dp_1 H_(n+1) = sum_i H_(n-i) p_1^i, and the e form likewise.
_PROP36 = tuple((f"{kind} recurrence", _one(f"d/dp1 {kind.upper()}"),
                 _one(f"{kind.upper()} * 1/(1-p1)")) for kind in ("h", "e"))
# Proposition 2.3 at k = 0: H[over]_n = sum_a (-1)^a Es[rest]_a H_(n-a), and E[over] through
# Hs: the sum over lam |- a of (-1)^len(lam) E_lam is (-1)^a Es_a.
_PROP23 = tuple(
    (over, tuple((f"{kind} restricted", _one(f"{kind}[{over}]"),
                  _one(f"(-1)^deg {dual}[{rest}] * {kind}"))
                 for kind, dual in (("H", "Es"), ("E", "Hs"))))
    for over, rest in (("odd", "even"), ("one", "not-one"))
)
_COR510 = (  # at k = 2; its two half sums must be Schur-nonnegative
    ("W == sum H", _one("w:2"), _one("H")),
    ("alternating form", _one("mixed-sym"), _one("Hs")),
)
_COR510_HALVES = tuple(((HALF, "w:2"), (sign * HALF, "mixed-sym")) for sign in (1, -1))
# The free-Lie identities, read at k = 1: name -> the pair labelled by its name.
_LIE = {name: (name, _one(lhs), _one(rhs)) for name, (lhs, rhs, _) in LIE_IDENTITIES.items()}


def _run_linear(k: int, pairs, claims, n: int) -> tuple:
    """PASS iff both sides of every pair agree and then reader(side, argument, n) of every
    claim; a name on several sides is built once, in the run's memo."""
    term = partial(named_term, k, n)
    res = _eq([
        (label, linear_combination(lhs, term), linear_combination(rhs, term))
        for label, lhs, rhs in pairs
    ])
    for reader, side, argument in claims:
        if res[0] != "PASS":
            return res
        res = reader(linear_combination(side, term), argument, n)
    return res


def _claim(f: PExpr, exceptions, n: int) -> tuple:
    """Schur positivity of f at degree n, checked both ways: with no exceptions (None)
    every multiplicity is an integer >= 0; otherwise also every shape occurs but the
    excepted one, which must be absent.  exceptions is {degree: shape}, a shape absent at
    a documented degree, whose multiplicity is always reported, or "sign", the sign shape
    absent at every degree."""
    se = _expand(f, n)
    absent = (1,) * n if exceptions == "sign" else (exceptions or {}).get(n)
    if absent is None:
        return _positivity(se, "NONNEG" if exceptions is None else "STRICT")
    res = _positivity(se, "STRICT_EXCEPT", (absent,))
    mult = se.mult(absent)
    if exceptions == "sign":
        if res[0] == "PASS" and mult != 0:
            return "FAIL", {"witness": [{"nu": list(absent), "mult": "nonzero"}]}
        return res
    if res[0] != "PASS" and mult == 0:  # a shape outside the exception fails
        return res
    detail = {"expected-exception": {"nu": list(absent), "mult": str(mult)}}
    return ("PASS" if mult == 0 else "FAIL"), detail


def _dimension(f: PExpr, ratio, n: int) -> tuple:
    """PASS iff f has dimension ratio * n!; else FAIL with the dimension it has."""
    got = dimension(f, n)
    if got != ratio * factorial(n):
        return "FAIL", {"failed": "dimension", "got": str(got)}
    return "PASS", None


def _self_conjugate(side, label: str = "self-conjugacy") -> tuple:
    """The pair (label, side, ~side): side is fixed by omega."""
    return label, side, tuple((c, "~" + name) for c, name in side)


# ---------------------------------------------------------------------------
# Positivity and strictness rows
#
# Each row runs from its lowest degree to POSITIVITY_TOP, as one claim of
# _run_linear on one term.  A Theorem 1.1 row (id suffix, lowest degree, weight
# k, family term) is Schur-nonnegative; a strictness row (id, lowest degree,
# term, exceptions) is strict, with the exceptions _claim reads.


_THM11 = (
    [(kind, lo, 0, kind) for kind, lo in (
        ("all", 1), ("odd-parts", 1), ("even-sign", 1), ("not-do-even-sign", 2), ("not-do", 2))]
    + [(f"{kind}:{k}", 1, k, kind) for kind in ("one-or-k", "divides-k", "thm59") for k in KS]
    + [(f"prime-family:{p}", 1, 0, f"family:prime-family:{p}") for p in (3, 5, 7)]
)
_STRICT = (
    ("thm4.5", 2, "psi", {2: (1, 1)}),
    ("thm4.9", 1, "eps", {}),
    ("thm4.17.1", 4, "psi-a", {}),
    ("thm4.17.2", 2, "psi-abar", "sign"),
    ("thm4.19.1", 4, "eps-a", {4: (2, 2)}),
    ("thm4.19.2", 2, "eps-abar", "sign"),
    ("cor4.18", 4, "u-plus", {}),
)


_ALT = _one("alt-induced")
# Theorem 6.4: alt-induced is self-conjugate, of dimension n!, and strict but for (2, 1) at n = 3
_THM64 = ((_self_conjugate(_ALT, "self-conjugate"),),
          ((_dimension, _ALT, 1), (_claim, _ALT, {3: (2, 1)})))


def _run_thm64(n: int) -> tuple:
    """_THM64's pair and claims (_run_linear), and at n = 3 the closed form 2 p_3 + p_1^3."""
    res = _run_linear(0, *_THM64, n)
    if n == 3:
        closed = 2 * PExpr.p(3) + PExpr.p(1) ** 3
        ok = res[0] == "PASS" and named_term(0, n, "alt-induced") == closed
        return ("PASS" if ok else "FAIL"), {"expected-exception": {"nu": [2, 1]}}
    return res


# ---------------------------------------------------------------------------
# Dimension / self-conjugacy / structural entries


# mid -> (lowest degree, dimension / n!)
_DIMS = {
    "psi": (1, 1), "eps": (1, 1), "psi-a": (2, HALF), "psi-abar": (2, HALF),
    "eps-a": (2, HALF), "eps-abar": (2, HALF), "u-plus": (2, 1), "u-minus": (1, 0),
    "u-do": (2, 0), "alt-induced": (2, 1),
} | {f"w:{k}": (0, 1) for k in KS[1:]}
# mid -> the self-conjugacy pairs of its dims row
_SELF_CONJUGATE = {
    "eps": (_self_conjugate(_one("eps")),),
    "u-plus": (_self_conjugate(_one("u-plus")),),
    "u-do": (_self_conjugate(_one("u-do")), _self_conjugate(_U_EVEN, "u+ + u-do self-conjugacy")),
    "alt-induced": (_self_conjugate(_one("alt-induced")),),
}


def _run_cor414(n: int) -> tuple:
    se, u_minus = (_expand(module_char(mid, n), n) for mid in ("psi", "u-minus"))
    for nu in partitions_of(n):
        nut = conjugate(nu)
        if nu == nut:
            if u_minus.mult(nu) != 0:
                return "FAIL", {"witness": [{"nu": list(nu), "where": "u-minus"}]}
        elif (se.mult(nu) - se.mult(nut)) % 2 != 0:
            return "FAIL", {"witness": [{"nu": list(nu), "where": "parity"}]}
    return "PASS", None


def _run_prop421(n: int) -> tuple:
    checks = [
        ("trivial", TRIVIAL, len(partitions_of(n))),
        ("sign", SIGN, len(members(FamilySpec("do"), n))),
    ]
    if n >= 2:
        want = sum(len(set(lam)) - 1 for lam in partitions_of(n))
        checks.append(("near-trivial", NEAR_TRIVIAL, want))
    return _hooks(module_char("psi", n), n, checks)


def _run_prop422(n: int) -> tuple:
    distinct = members(FamilySpec("distinct"), n)
    odd_count = len(members(FamilySpec("odd-parts"), n))
    if odd_count != len(distinct):
        return "FAIL", {"failed": "euler"}
    checks = [("trivial", TRIVIAL, odd_count), ("sign", SIGN, odd_count)]
    if n >= 2:
        want = sum(len(lam) - 1 for lam in distinct) + sum(
            1  # one part twice, every other part once
            for lam in partitions_of(n)
            if len(lam) == len(set(lam)) + 1
        )
        checks += [("near-trivial", NEAR_TRIVIAL, want), ("near-sign", NEAR_SIGN, want)]
    return _hooks(module_char("eps", n), n, checks)


def _run_lem47(n: int) -> tuple:
    f = foulkes(n, 0)
    checks = [("trivial once", TRIVIAL, 1)]
    if n >= 2:
        checks += [
            ("near-trivial absent", NEAR_TRIVIAL, 0),
            ("sign iff odd", SIGN, n % 2),
            ("near-sign iff even", NEAR_SIGN, 1 - n % 2),
        ]
    res = _hooks(f, n, checks)
    if res[0] == "PASS" and n % 2 == 1 and divisors(n) == (1, n):
        # odd primes: every shape but the two hooks occurs
        se, hooks = _expand(f, n), ((n - 1, 1), (2,) + (1,) * (n - 2))
        if any(se.mult(nu) < 1 for nu in partitions_of(n) if nu not in hooks):
            return "FAIL", {"failed": "prime coverage"}
    return res


# ---------------------------------------------------------------------------
# Route and oracle entries


def _run_mn_alternant(n: int) -> tuple:
    table = character_table(n)
    parts = partitions_of(n)
    columns = [table.column(mu) for mu in parts]  # columns[j][i] = chi^parts[i](parts[j])
    for i, nu in enumerate(parts):
        for mu, column in zip(parts, columns):
            if column[i] != alternant_oracle(nu, mu):
                return "FAIL", {"witness": [{"nu": list(nu), "mu": list(mu)}]}
    return "PASS", None


def _run_ramanujan(d: int) -> tuple:
    # closed[k] = c_d(k) for every k checked, both ranges starting at k = 0: the
    # oracle reads its first RAMANUJAN_KS, and k mod d <= k indexes it too
    closed = [ramanujan_sum(d, k) for k in RAMANUJAN_PERIOD_KS]
    for k in RAMANUJAN_KS:
        if closed[k] != ramanujan_sum_oracle(d, k):
            return "FAIL", {"witness": [{"d": d, "k": k}]}
    if closed[0] != totient(d):
        return "FAIL", {"failed": "c_d(0) == phi(d)", "witness": [{"d": d, "k": 0}]}
    for k in RAMANUJAN_PERIOD_KS:
        if closed[k] != closed[k % d]:
            return "FAIL", {"failed": "periodicity", "witness": [{"d": d, "k": k}]}
    return "PASS", None


def _run_maj(n: int) -> tuple:
    se = _expand(foulkes(n, 0), n)
    for nu in partitions_of(n):
        if se.mult(nu) != maj_multiplicity(nu, n, 0):
            return "FAIL", {"witness": [{"nu": list(nu)}]}
    return "PASS", None


def _run_lem33(n: int) -> tuple:
    for k in LEMMA_KS:
        lhs = f_eval_direct(n, k, -1)
        if n % 2 == 1:
            rhs = -f_eval_direct(n, k, 1)
        else:
            rhs = f_eval_direct(n // 2, k, 1) - f_eval_direct(n, k, 1)
        if lhs != rhs:
            return "FAIL", {"witness": [{"k": k}]}
    return "PASS", None


def _run_feval_lemma(ks, n: int) -> tuple:
    for k in ks:
        for sign in (1, -1):
            if f_eval(n, k, sign) != f_eval_direct(n, k, sign):  # an int against a Fraction
                return "FAIL", {"witness": [{"k": k, "sign": sign}]}
    return "PASS", None


# ---------------------------------------------------------------------------
# Tables, counterexamples, scans


# table kind -> (fixture, the modules of its blocks, the degree the catalog
# always checks it to), in table order; a fixture's keys are its degrees
TABLES = {
    "t1": (tables_data.T1, ("psi",), 10),
    "t2": (tables_data.T2, ("eps",), 10),
    "t3": (tables_data.T3, ("psi-a", "psi-abar"), 0),
    "t4": (tables_data.T4, ("eps-a", "eps-abar"), 0),
}


def _table_kind(kind: str) -> str:
    """kind in lower case, a key of TABLES; ParameterError for anything else."""
    key = kind.lower() if isinstance(kind, str) else None
    if key not in TABLES:
        raise ParameterError(f"unknown table {kind!r}")
    return key


def reproduce_table(kind: str, n: int) -> CheckResult:
    """Compare the computed decomposition with the transcribed fixture."""
    return check_identity(f"tables.{_table_kind(kind)}", n)


def _run_table(kind: str, n: int) -> tuple:
    fixtures, mids, _ = TABLES[kind]
    if n not in fixtures:
        raise ParameterError(f"table {kind} has no fixture column for n={n}")
    fixture = fixtures[n]
    if len(mids) == 1:  # one column: the leading partitions of n, in order
        wants = [(mids[0], nu, m) for nu, m in zip(partitions_of(n), fixture)]
    else:  # one block per module, absent shapes 0
        wants = [
            (mid, nu, fix.get(nu, 0))
            for mid, fix in zip(mids, map(dict, fixture))
            for nu in partitions_of(n)
        ]
    got = {mid: dict(_expand(module_char(mid, n), n).terms()) for mid in mids}
    for mid, nu, want in wants:
        m = got[mid].get(nu, 0)
        if m != want:
            witness = {"nu": list(nu), "computed": str(m), "fixture": want}
            return "FAIL", {"witness": [witness if len(mids) == 1 else {"block": mid} | witness]}
    return "PASS", None


def table_decomposition(kind: str, n: int, max_n: int = TABLE_CAP) -> dict[str, SchurExpansion]:
    """Computed decomposition(s) rendered by the CLI `table` command; max_n caps the
    character table's degree, as in to_schur; both are checked before the cache reads them."""
    n, max_n = integer(n, "table degree"), integer(max_n, "character table cap")
    return {mid: _expand(module_char(mid, n), n, max_n) for mid in TABLES[_table_kind(kind)][1]}


# cex.b and cex.c: (explicit family, the shape of multiplicity -1)
_CEX = {
    "b": (((1,) * 6, (2, 1, 1, 1, 1), (3, 3), (4, 2), (4, 1, 1)), (2, 1, 1, 1, 1)),
    "c": (((1,) * 6, (2, 2, 2), (3, 1, 1, 1), (4, 1, 1), (4, 2)), (3, 3)),
}


def _run_cex(which: str, n: int) -> tuple:
    """REPORT iff the documented shape has the documented multiplicity: for cex.a,
    u-minus + p_(1^n) at the sign shape, 1 minus the number of odd-sign shapes."""
    if which == "a":
        f = named_term(0, n, "u-minus") + PExpr.term((1,) * n)
        nu, want = (1,) * n, 1 - len(members(FamilySpec("odd-sign"), n))
    else:
        items, nu = _CEX[which]
        f, want = power_sum_family(FamilySpec("explicit", items=items), n), -1
    got = _expand(f, n).mult(nu)
    status = "REPORT" if got == want else "FAIL"
    return status, {"nu": list(nu), "mult": str(got), "expected": str(want)}


def counterexamples() -> list[CheckResult]:
    """Confirm the three documented failures of naive positivity."""
    return list(run_selector("counterexamples"))


def _run_conjecture(n: int) -> tuple:
    segments = character_table(n).negative_segments()
    bad = [{"from": list(mu), "nu": [list(nu) for nu in nus[:3]]} for mu, nus in segments]
    return "REPORT", {"segments": len(partitions_of(n)), "violations": bad}


def conjecture_scan(n: int) -> list[CheckResult]:
    """Schur-nonnegativity of every final reverse-lex segment sum (report only)."""
    return [check_identity("conjecture1.5", n)]


def per_class_coverage(n: int) -> CheckResult:
    """Classes whose single-orbit (twisted) conjugation piece hits every irreducible."""
    return check_identity("remark4.20", n)


def _covers(kind: str, lam: Partition, F, n: int) -> bool:
    """H_lam[F] ("h") or E_lam[F] ("e") contains every s_nu, nu |- n: from n = 2 its four
    hook multiplicities first, read off its factors' scalars with no product built (the
    sieve), then the full expansion of a class that passes them."""
    if n >= 2:
        counts, denominator = _lambda_hooks(kind, lam, F)
        if min(counts) < denominator:
            return False
    return _expand((H_lambda if kind == "h" else E_lambda)(lam, F), n).verdict == "POSITIVE"


def _run_coverage(n: int) -> tuple:
    F = foulkes_series(0, SERIES_TRUNC)
    return "REPORT", {
        f"{kind}-covering": [list(lam) for lam in partitions_of(n) if _covers(kind, lam, F, n)]
        for kind in ("h", "e")
    }


# ---------------------------------------------------------------------------
# Catalog assembly


def _build_catalog() -> list[Entry]:
    """Catalog entries from rows (id, group, degrees, runner, runner arguments),
    a sixth field being the entry's floor."""
    ten = range(1, 11)

    def linear(group, rows, ks=None, nonneg=False):
        """One table of linear identities: id group.eq, or group.eq:k<k> for each k in
        ks; with nonneg, each row's first left side must be Schur-nonnegative."""
        return [
            (f"{group}.{eq}" if ks is None else f"{group}.{eq}:k{k}", group, ten,
             _run_linear, (k, pairs, ((_claim, pairs[0][1], None),) if nonneg else ()))
            for eq, pairs in rows
            for k in ks or (0,)
        ]

    identities = (
        linear("thm4.2", _THM42)
        + linear("thm4.11", _THM411)
        + linear("prop4.13", _PROP413)
        + linear("thm4.15", _THM415)
        + linear("prop6.5", _PROP65)
        + linear("thm5.9", _THM59, ks=KS)
        + [
            (f"cor5.2.{i}", "cor5.2", ten, _run_linear,
             (1, tuple(_LIE[name] for name in names), ()))
            for i, names in enumerate((("pbw",), ("cadogan", "cadogan-inverse"), ("lie-ext",)), 1)
        ]
        + [("prop5.4", "prop5.4", ten, _run_linear, (1, (_LIE["pi-ext"],), ()))]
        + [(f"lem5.5:k{k}", "lem5.5", ten, _run_linear, (k, _LEM55, ())) for k in (0, 1, 2)]
        + [("prop3.6", "prop3.6", ten, _run_linear, (0, _PROP36, ()))]
        + linear("prop2.3", _PROP23)
        + linear("thm3.4", _THM34, ks=(0, 1, 2), nonneg=True)
        + [("cor5.10", "cor5.10", ten, _run_linear,
            (2, _COR510, tuple((_claim, half, None) for half in _COR510_HALVES)))]
    )
    top = POSITIVITY_TOP + 1

    def claim(cid, group, degrees, k, name, exceptions):
        """A row of _run_linear with the one claim (the term name at weight k, exceptions)."""
        return cid, group, degrees, _run_linear, (k, (), ((_claim, _one(name), exceptions),))

    thm11 = [claim(f"thm1.1.{suffix}", "thm1.1", range(lo, top), k, name, None)
             for suffix, lo, k, name in _THM11]
    strict = [claim(cid, "strict", range(lo, top), 0, name, exceptions)
              for cid, lo, name, exceptions in _STRICT] + [
        # the even-sign family is strict at n = 2 too; the row leaves that degree out only
        # so that the catalog's pinned output stays as it is
        claim("cor4.12", "strict", (1, *range(3, top)), 0, "even-sign", {}),
        ("thm6.4", "strict", range(2, top), _run_thm64, ()),
    ]
    dims = (
        [(f"dims.{mid}", "dims", range(lo, 11), _run_linear,
          (0, _SELF_CONJUGATE.get(mid, ()), ((_dimension, _one(mid), ratio),)))
         for mid, (lo, ratio) in _DIMS.items()]
        + [("cor4.14", "dims", ten, _run_cor414, ()),
           ("prop4.21", "dims", ten, _run_prop421, ()),
           ("prop4.22", "dims", ten, _run_prop422, ()),
           ("lem4.7", "dims", ten, _run_lem47, ())]
    )
    routes = (
        [
            (f"routes.{mid}", "routes", ten, _run_linear,
             (0, (("power-sum vs plethystic", *MODULE_FORMS[mid]),), ()))
            for mid in MODULE_IDS
        ]
        + [
            (f"routes.w:{k}", "routes", range(POSITIVITY_TOP + 1), _run_linear,
             (k, (("route A vs route B", _one("one-or-k"), _one("one-or-k binomial")),), ()))
            for k in KS[1:]
        ]
    )
    oracles = [
        ("oracles.mn-alternant", "oracles", range(1, ALTERNANT_MAX_N + 1), _run_mn_alternant, ()),
        ("oracles.ramanujan", "oracles", range(1, RAMANUJAN_TOP + 1), _run_ramanujan, (),
         RAMANUJAN_TOP),
        ("oracles.maj", "oracles", range(1, 10), _run_maj, ()),
    ]
    lemma_ns = range(1, LEMMA_TOP + 1)
    lemmas = [("lem3.3", "lemmas", lemma_ns, _run_lem33, (), LEMMA_TOP)] + [
        (cid, "lemmas", lemma_ns, _run_feval_lemma, (ks,), LEMMA_TOP)
        for cid, ks in (("lem4.1", (0,)), ("lem5.1", (1,)), ("lem5.7", LEMMA_KS[1:]))
    ]
    tables = [
        (f"tables.{kind}", "tables", tuple(fixture), _run_table, (kind,), floor)
        for kind, (fixture, _, floor) in TABLES.items()
    ]
    cex = [
        (f"cex.{which}", "counterexamples", ns, _run_cex, (which,))
        for which, ns in CEX_DEGREES.items()
    ]
    scans = [
        ("conjecture1.5", "conjecture", range(1, 9), _run_conjecture, ()),
        ("remark4.20", "coverage", ten, _run_coverage, ()),
    ]
    sections = (
        ("identities", identities), ("positivity", thm11), ("strict", strict),
        ("dims", dims), ("routes", routes), ("oracles", oracles), ("lemmas", lemmas),
        ("tables", tables), ("counterexamples", cex), ("scans", scans),
    )
    return [
        Entry(cid, group, degrees, partial(runner, *args), (tag,), *floor)
        for tag, rows in sections
        for cid, group, degrees, runner, args, *floor in rows
    ]


CATALOG: list[Entry] = _build_catalog()
_BY_ID = {e.id: e for e in CATALOG}


def check_identity(check_id: str, n: int) -> CheckResult:
    """Run one catalog entry at degree n, in a run of its own: inside an open run too,
    which it leaves as it found it."""
    entry = _BY_ID.get(check_id) if isinstance(check_id, str) else None
    if entry is None:
        raise CatalogError(f"unknown catalog id {check_id!r}")
    with in_run({}):
        return entry.check(n)


def select_entries(selector: str) -> list[Entry]:
    chosen = [e for e in CATALOG if e.matches(selector)] if isinstance(selector, str) else []
    if not chosen:
        raise CatalogError(f"selector {selector!r} matches no catalog entries")
    return chosen


def run_selector(selector: str, max_n: int = DEFAULT_MAX_N):
    """Yield CheckResults for all matching entries, in catalog order, every check in
    one run.  The run is open only while a check computes, never across a yield, and
    its memo is dropped once the generator is exhausted or closed."""
    integer(max_n, "max_n")
    memo = {}
    try:
        for entry in select_entries(selector):
            for n in entry.ns(max_n):
                with in_run(memo):
                    result = entry.check(n)
                yield result
    finally:
        memo.clear()

