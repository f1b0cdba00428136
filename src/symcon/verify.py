"""Identity catalog and batch verification harness.

Every checkable claim is an Entry: a stable id, a group tag, the degrees
it applies to, and a runner returning (status, detail) at one degree.  A
runner never sees the id; Entry.check names the result.  Ids follow the
external naming contract (thm/prop/cor/lem prefixes with equation-style
suffixes, k-parameterized entries carrying ':k<k>').  Entries are
independent; they run one after another and results are emitted in
catalog order.

The linear identities (Theorems 4.2, 4.11, 4.15, 5.9 and 3.4,
Propositions 4.13 and 6.5, Lemma 5.5 and Corollary 5.10) are rows of data,
all evaluated by one runner: each row pairs two sides, a side being a
combination of named terms -- plethystic sums, product forms, module
characteristics and power-sum families.  Theorem 4.2 is the k = 0 member
of the weight-k family of Theorem 5.9, since c_d(0) = phi(d), and
Corollary 5.10 is Theorem 5.9 at k = 2 read through the parts-in-{1,2}
module.  The routes entries of the ten named modules are rows of the same
runner, pairing the two sides of repmodels.MODULE_FORMS.  The free-Lie
identities of Corollary 5.2 and Proposition 5.4 compare the two sides of
repmodels.lie_identity at the degree checked.

The positivity and strictness claims (Theorem 1.1, Theorems 4.5, 4.9,
4.17, 4.19, Corollaries 4.12, 4.18 and the positivity half of Theorem 6.4)
are rows of one table, checked by one runner in both directions: every
shape occurs but a documented exception, and the exception is absent.  The
dimension and self-conjugacy claims are rows of another table, checked by
one runner.

Statuses: PASS/FAIL for theorem-backed claims, REPORT for scans that are
observations rather than assertions (counterexample confirmations,
segment scans, per-class coverage).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from math import factorial

from .characters import (
    ALTERNANT_MAX_N,
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
    multiplicities,
    partitions_of,
    sign_exponent,
)
from .repmodels import (
    HALF,
    MODULE_FORMS,
    MODULE_IDS,
    SERIES_TRUNC,
    SUMS,
    f_eval,
    f_eval_direct,
    foulkes,
    foulkes_series,
    lie_identity,
    linear_combination,
    module_char,
    power_sum_family,
    w_route_a,
    w_route_b,
)
from .symfunc import (
    E_lambda,
    H_lambda,
    PExpr,
    Series,
    dimension,
    omega,
    p1_derivative,
    plethysm_p,
    plethystic_sum,
    product_expansion,
)
from . import tables_data

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
    ns: object  # callable max_n -> iterable of degrees
    run: object  # callable n -> (status, detail)
    tags: tuple[str, ...] = ()

    def check(self, n: int) -> CheckResult:
        """The entry's result at degree n."""
        return CheckResult(self.id, integer(n, "degree", 0), *self.run(n))

    def matches(self, selector: str) -> bool:
        if selector in ("all", self.id, self.group) or selector in self.tags:
            return True
        return self.id.startswith(selector + ".") or self.id.startswith(
            selector + ":"
        )


def _span(lo: int, hi: int, floor: int = 0):
    """Degrees lo..hi, cut at max_n but never below `floor`."""

    def ns(max_n: int):
        return range(lo, max(floor, min(hi, max_n)) + 1)

    return ns


def _fixed(values):
    vals = tuple(values)

    def ns(max_n: int):
        return [v for v in vals if v <= max_n]

    return ns


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
            detail = {"failed": label}
            detail.update(_diff_witness(lhs, rhs))
            return "FAIL", detail
    return "PASS", None


def _first_failed(checks) -> tuple:
    """FAIL naming the first (label, ok) check that does not hold, else PASS."""
    for label, ok in checks:
        if not ok:
            return "FAIL", {"failed": label}
    return "PASS", None


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 and True must miss and raise
def _module_schur(mid: str, n: int, max_n: int = 20) -> SchurExpansion:
    return to_schur(module_char(mid, n), n, max_n)


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
    STRICT_EXCEPT: strict outside `exceptions`; excepted shapes only need
    nonnegativity (their absence is allowed, not required).  Its caller in
    the catalog is _run_positivity, for the rows with an exception, and that
    runner then also requires the excepted shape to be absent.
    """
    if mode not in ("NONNEG", "STRICT", "STRICT_EXCEPT"):
        raise ParameterError(f"mode must be NONNEG, STRICT or STRICT_EXCEPT, got {mode!r}")
    if exceptions and mode != "STRICT_EXCEPT":
        raise ParameterError(f"exceptions need mode STRICT_EXCEPT, got {mode!r}")
    if isinstance(spec_or_expr, FamilySpec):
        f = power_sum_family(spec_or_expr, n)
    else:
        f = spec_or_expr
    return CheckResult(check_id, n, *_positivity(to_schur(f, n), mode, exceptions))


def _positivity(se: SchurExpansion, mode: str, exceptions=()) -> tuple:
    """check_positivity on an expansion already computed, read from its integers."""
    d = se.denominator
    floor = d if mode in ("STRICT", "STRICT_EXCEPT") else 0
    exempt = exceptions if mode == "STRICT_EXCEPT" else ()
    bad = [
        (nu, m)
        for nu, m in zip(partitions_of(se.n), se.numerators)
        if m % d or m < (0 if nu in exempt else floor)
    ]
    if bad:
        return "FAIL", {"witness": [{"nu": list(nu), "mult": str(Fraction(m, d))} for nu, m in bad[:6]]}
    return "PASS", None


# ---------------------------------------------------------------------------
# Shared series and product forms


def _F(k: int) -> Series:
    return foulkes_series(k, SERIES_TRUNC)


# Product forms prod_m (1 + s_m t^m p_m)^(c * f_m(x)) of the weight-k family,
# as flavor -> (x, c, s_m on odd m, s_m on even m).
_FLAVORS = {
    "sym": (1, -1, -1, -1),  # prod (1 - t^m p_m)^(-f_m(1))
    "ext": (-1, 1, -1, -1),  # prod (1 - t^m p_m)^(f_m(-1))
    "omega-ext": (-1, 1, -1, 1),  # omega of ext
    "alt-ext": (1, 1, 1, 1),  # prod (1 + t^m p_m)^(f_m(1))
    "alt-sym": (-1, -1, 1, 1),  # prod (1 + t^m p_m)^(-f_m(-1))
    "mixed-ext": (1, 1, 1, -1),  # omega of alt-ext
    "mixed-sym": (-1, -1, 1, -1),  # omega of alt-sym
}


def _general_factors(n: int, k: int, flavor: str):
    """Factor list (m, exponent, sign) of one product form of the weight-k family."""
    x, c, odd, even = _FLAVORS[flavor]
    out = []
    for m in range(1, n + 1):
        f = f_eval(m, k, x)
        if f:
            out.append((m, c * f, odd if m % 2 else even))
    return out


# ---------------------------------------------------------------------------
# Linear identities as data
#
# A row is (equation, pairs); a pair is (label, left side, right side), and a
# side is a tuple of (coefficient, name) terms, "~name" meaning omega(name)
# (repmodels.linear_combination).  A name at weight k is a plethystic sum of
# SUMS over F_k, a product form of _FLAVORS, a module id or w:<k>, the
# termwise sum of Theorem 4.15.1, the product E[F] G[p2] of Lemma 5.5 at
# degree n, or a power-sum family kind (given k when k >= 1).


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
_LEM55 = (("G == E[F] G[p2]", _one("H"), _one("E G[p2]")),)
_COR510 = (  # at k = 2; its two half sums must be Schur-nonnegative
    ("W == sum H", _one("w:2"), _one("H")),
    ("alternating form", _one("mixed-sym"), _one("Hs")),
)
_COR510_HALVES = (((HALF, "w:2"), (HALF, "mixed-sym")), ((HALF, "w:2"), (-HALF, "mixed-sym")))


def _term(k: int, n: int, name: str) -> PExpr:
    """The named term of a linear identity at weight k and degree n."""
    if name in SUMS:
        return plethystic_sum(_F(k), n, *SUMS[name])
    if name in _FLAVORS:
        return product_expansion(_general_factors(n, k, name), n)
    if name in MODULE_IDS:
        return module_char(name, n)
    if name.startswith("w:"):  # the parts-in-{1,k} module, also at n = 0
        return w_route_a(n, int(name[2:]))
    if name == "termwise":  # sum of H_lam + omega(H_lam) over lam with odd sign
        total = PExpr.zero()
        for lam in partitions_of(n):
            if sign_exponent(lam) % 2 == 1:
                h = H_lambda(lam, _F(k))
                total = total + h + omega(h)
        return total
    if name == "E G[p2]":  # sum over j of E[F] at n - 2j times G = H[F] at j, through p2
        F = _F(k)
        return sum(
            (plethystic_sum(F, n - 2 * j, "e") * plethysm_p(2, plethystic_sum(F, j))
             for j in range(n // 2 + 1)),
            PExpr.zero(),
        )
    return power_sum_family(FamilySpec(name, k=k or None), n)


def _run_linear(k: int, pairs, nonneg, n: int) -> tuple:
    """PASS iff both sides of every pair agree and every side of `nonneg` is
    Schur-nonnegative."""
    term = cache(partial(_term, k, n))  # a name on several sides is built once
    res = _eq([
        (label, linear_combination(lhs, term), linear_combination(rhs, term))
        for label, lhs, rhs in pairs
    ])
    for side in nonneg:
        if res[0] != "PASS":
            return res
        res = _positivity(to_schur(linear_combination(side, term), n), "NONNEG")
    return res


def _run_lie(names, n: int) -> tuple:
    """PASS iff both sides of each named free-Lie identity agree at degree n."""
    return _eq((name, *lie_identity(name, n)) for name in names)


def _run_prop36(n: int) -> tuple:
    pairs = []
    p1 = PExpr.p(1)
    for kind in ("h", "e"):
        comp = lambda d: plethystic_sum(_F(0), d, kind)
        lhs = p1_derivative(comp(n + 1))
        rhs = PExpr.zero()
        for i in range(n + 1):
            rhs = rhs + comp(n - i) * p1**i
        pairs.append((f"{kind} recurrence", lhs, rhs))
    return _eq(pairs)


@lru_cache(maxsize=None)
def _restricted(which: str) -> tuple[Series, Series]:
    """F_0 restricted to its odd degrees ("odd") or to degree 1 ("one"), and to the rest."""
    keep = (lambda d: d % 2 == 1) if which == "odd" else (lambda d: d == 1)
    return _F(0).restrict(keep), _F(0).restrict(lambda d: not keep(d))


def _run_prop23(which: str, n: int) -> tuple:
    F = _F(0)
    FS, FSbar = _restricted(which)
    pairs = []
    for kind, dual in (("h", "e"), ("e", "h")):
        lhs = plethystic_sum(FS, n, kind)
        rhs = PExpr.zero()
        for a in range(n + 1):
            signed = plethystic_sum(FSbar, a, dual, signed="length")
            if signed:
                rhs = rhs + signed * plethystic_sum(F, n - a, kind)
        pairs.append((f"{kind.upper()} restricted", lhs, rhs))
    return _eq(pairs)


# ---------------------------------------------------------------------------
# Positivity and strictness entries
#
# A row is (id, lowest degree, target, mode, exceptions).  The target is a
# module id or a FamilySpec; the lowest degree is an int (degrees run from it
# to 12) or a tuple of the degrees themselves.  Exceptions are {degree:
# shape}, a shape absent at a documented degree, or "sign", the sign shape
# absent at every degree.


_POSITIVITY = (
    [
        (f"thm1.1.{kind}", lo, FamilySpec(kind), "NONNEG", {})
        for kind, lo in (
            ("all", 1), ("odd-parts", 1), ("even-sign", 1),
            ("not-do-even-sign", 2), ("not-do", 2),
        )
    ]
    + [
        (f"thm1.1.{kind}:{k}", 1, FamilySpec(kind, k=k), "NONNEG", {})
        for kind in ("one-or-k", "divides-k", "thm59")
        for k in KS
    ]
    + [
        (f"thm1.1.prime-family:{p}", 1, FamilySpec("prime-family", p=p), "NONNEG", {})
        for p in (3, 5, 7)
    ]
    + [
        ("thm4.5", 2, "psi", "STRICT", {2: (1, 1)}),
        ("thm4.9", 1, "eps", "STRICT", {}),
        ("thm4.17.1", 4, "psi-a", "STRICT", {}),
        ("thm4.17.2", 2, "psi-abar", "STRICT", "sign"),
        ("thm4.19.1", 4, "eps-a", "STRICT", {4: (2, 2)}),
        ("thm4.19.2", 2, "eps-abar", "STRICT", "sign"),
        ("cor4.18", 4, "u-plus", "STRICT", {}),
        ("cor4.12", (1,) + tuple(range(3, 13)), FamilySpec("even-sign"), "STRICT", {}),
    ]
)
_THM64 = ("alt-induced", "STRICT", {3: (2, 1)})  # target, mode, exceptions


def _run_positivity(target, mode: str, exceptions, n: int) -> tuple:
    """Schur positivity of a row's target at degree n, checked both ways.

    NONNEG: every multiplicity is an integer >= 0.  STRICT: every shape occurs,
    except the excepted one, which must be absent; every multiplicity is an
    integer >= 0 either way.  A degree exception always reports the excepted
    shape's multiplicity.
    """
    if isinstance(target, FamilySpec):
        se = to_schur(power_sum_family(target, n), n)
    else:
        se = _module_schur(target, n)
    absent = (1,) * n if exceptions == "sign" else exceptions.get(n)
    if absent is None:
        return _positivity(se, mode)
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


def _run_thm64(n: int) -> tuple:
    """Self-conjugacy, dimension n! and, at n = 3, the closed form 2 p_3 + p_1^3,
    then the positivity row _THM64."""
    f = module_char("alt-induced", n)
    res = _eq([("self-conjugate", omega(f), f)])
    if res[0] != "PASS":
        return res
    if dimension(f, n) != factorial(n):
        return "FAIL", {"failed": "dimension"}
    res = _run_positivity(*_THM64, n)
    if n == 3:
        ok = res[0] == "PASS" and f == 2 * PExpr.p(3) + PExpr.p(1) ** 3
        return ("PASS" if ok else "FAIL"), {"expected-exception": {"nu": [2, 1]}}
    return res


# ---------------------------------------------------------------------------
# Dimension / self-conjugacy / structural entries


def _self_conjugate(mid: str) -> tuple:
    return (("self-conjugacy", _one(mid)),)


# mid -> (lowest degree, dimension / n!, labelled sides that must be self-conjugate)
_DIMS = {
    "psi": (1, 1, ()),
    "eps": (1, 1, _self_conjugate("eps")),
    "psi-a": (2, HALF, ()),
    "psi-abar": (2, HALF, ()),
    "eps-a": (2, HALF, ()),
    "eps-abar": (2, HALF, ()),
    "u-plus": (2, 1, _self_conjugate("u-plus")),
    "u-minus": (1, 0, ()),
    "u-do": (2, 0, _self_conjugate("u-do") + (("u+ + u-do self-conjugacy", _U_EVEN),)),
    "alt-induced": (2, 1, _self_conjugate("alt-induced")),
} | {f"w:{k}": (0, 1, ()) for k in KS[1:]}


def _run_dims(mid: str, n: int) -> tuple:
    _, ratio, sides = _DIMS[mid]
    term = cache(partial(_term, 0, n))  # a name on several sides is built once
    got = dimension(term(mid), n)
    if got != ratio * factorial(n):
        return "FAIL", {"failed": "dimension", "got": str(got)}
    for label, side in sides:
        g = linear_combination(side, term)
        if omega(g) != g:
            return "FAIL", {"failed": label}
    return "PASS", None


def _run_cor414(n: int) -> tuple:
    se = _module_schur("psi", n)
    u_minus = _module_schur("u-minus", n)
    for nu in partitions_of(n):
        nut = conjugate(nu)
        if nu == nut:
            if u_minus.mult(nu) != 0:
                return "FAIL", {"witness": [{"nu": list(nu), "where": "u-minus"}]}
        elif (se.mult(nu) - se.mult(nut)) % 2 != 0:
            return "FAIL", {"witness": [{"nu": list(nu), "where": "parity"}]}
    return "PASS", None


def _run_prop421(n: int) -> tuple:
    se = _module_schur("psi", n)
    pairs = [
        ("trivial", se.mult((n,)), Fraction(len(partitions_of(n)))),
        ("sign", se.mult((1,) * n), Fraction(len(members(FamilySpec("do"), n)))),
    ]
    if n >= 2:
        want = sum(len(set(lam)) - 1 for lam in partitions_of(n))
        pairs.append(("near-trivial", se.mult((n - 1, 1)), Fraction(want)))
    for label, got, want in pairs:
        if got != want:
            return "FAIL", {"failed": label, "got": str(got), "want": str(want)}
    return "PASS", None


def _run_prop422(n: int) -> tuple:
    se = _module_schur("eps", n)
    odd_count = len(members(FamilySpec("odd-parts"), n))
    distinct_count = len(members(FamilySpec("distinct"), n))
    checks = [
        ("euler", odd_count == distinct_count),
        ("trivial", se.mult((n,)) == odd_count),
        ("sign", se.mult((1,) * n) == odd_count),
    ]
    if n >= 2:
        want = sum(len(lam) - 1 for lam in members(FamilySpec("distinct"), n)) + sum(
            1
            for lam in partitions_of(n)
            if sorted(multiplicities(lam).values(), reverse=True)[0] == 2
            and list(multiplicities(lam).values()).count(2) == 1
            and all(m <= 2 for m in multiplicities(lam).values())
        )
        checks.append(("near-trivial", se.mult((n - 1, 1)) == want))
        checks.append(("near-sign", se.mult((2,) + (1,) * (n - 2)) == want))
    return _first_failed(checks)


def _run_lem47(n: int) -> tuple:
    se = to_schur(foulkes(n, 0), n)
    checks = [("trivial once", se.mult((n,)) == 1)]
    if n >= 2:
        checks.append(("near-trivial absent", se.mult((n - 1, 1)) == 0))
        checks.append(
            ("sign iff odd", se.mult((1,) * n) == (1 if n % 2 == 1 else 0))
        )
        checks.append(
            (
                "near-sign iff even",
                se.mult((2,) + (1,) * (n - 2)) == (1 if n % 2 == 0 else 0),
            )
        )
    if n % 2 == 1 and divisors(n) == (1, n):  # odd primes: everything else present
        hooks_out = {(n - 1, 1), (2,) + (1,) * (n - 2)}
        checks.append(
            (
                "prime coverage",
                all(
                    se.mult(nu) >= 1
                    for nu in partitions_of(n)
                    if nu not in hooks_out
                ),
            )
        )
    return _first_failed(checks)


# ---------------------------------------------------------------------------
# Route and oracle entries


def _run_routes_w(k: int, n: int) -> tuple:
    return _eq([("route A vs route B", w_route_a(n, k), w_route_b(n, k))])


def _run_mn_alternant(n: int) -> tuple:
    table = character_table(n)
    for nu in partitions_of(n):
        for mu in partitions_of(n):
            if table.chi(nu, mu) != alternant_oracle(nu, mu):
                return "FAIL", {"witness": [{"nu": list(nu), "mu": list(mu)}]}
    return "PASS", None


def _run_ramanujan(d: int) -> tuple:
    for k in RAMANUJAN_KS:
        if ramanujan_sum(d, k) != ramanujan_sum_oracle(d, k):
            return "FAIL", {"witness": [{"d": d, "k": k}]}
    if ramanujan_sum(d, 0) != totient(d):
        return "FAIL", {"failed": "c_d(0) == phi(d)"}
    for k in RAMANUJAN_PERIOD_KS:
        if ramanujan_sum(d, k) != ramanujan_sum(d, k % d):
            return "FAIL", {"failed": "periodicity"}
    return "PASS", None


def _run_maj(n: int) -> tuple:
    se = to_schur(foulkes(n, 0), n)
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
            if Fraction(f_eval(n, k, sign)) != f_eval_direct(n, k, sign):
                return "FAIL", {"witness": [{"k": k, "sign": sign}]}
    return "PASS", None


# ---------------------------------------------------------------------------
# Tables, counterexamples, scans


# table kind -> the modules of its blocks
_TABLE_MODULES = {
    "t1": ("psi",),
    "t2": ("eps",),
    "t3": ("psi-a", "psi-abar"),
    "t4": ("eps-a", "eps-abar"),
}


def reproduce_table(kind: str, n: int) -> CheckResult:
    """Compare the computed decomposition with the transcribed fixture."""
    kind = kind.lower()
    if kind not in tables_data.TABLE_KINDS:
        raise ParameterError(f"unknown table {kind!r}")
    return _BY_ID[f"tables.{kind}"].check(n)


def _run_table(kind: str, n: int) -> tuple:
    lo, hi = tables_data.table_range(kind)
    if not lo <= n <= hi:
        raise ParameterError(f"table {kind} has no fixture column for n={n}")
    fixture = getattr(tables_data, kind.upper())[n]  # T1 .. T4
    mids = _TABLE_MODULES[kind]
    if len(mids) == 1:  # one column: the leading partitions of n, in order
        wants = [(mids[0], nu, m) for nu, m in zip(partitions_of(n), fixture)]
    else:  # one block per module, absent shapes 0
        wants = [
            (mid, nu, fix.get(nu, 0))
            for mid, fix in zip(mids, map(dict, fixture))
            for nu in partitions_of(n)
        ]
    got = {mid: dict(_module_schur(mid, n).terms()) for mid in mids}
    for mid, nu, want in wants:
        m = got[mid].get(nu, 0)
        if m != want:
            witness = {"nu": list(nu), "computed": str(m), "fixture": want}
            return "FAIL", {"witness": [witness if len(mids) == 1 else {"block": mid} | witness]}
    return "PASS", None


def table_decomposition(kind: str, n: int, max_n: int = 20) -> dict[str, SchurExpansion]:
    """Computed decomposition(s) rendered by the CLI `table` command; max_n caps the
    character table's degree, as in to_schur."""
    mids = _TABLE_MODULES.get(kind.lower())
    if mids is None:
        raise ParameterError(f"unknown table {kind!r}")
    return {mid: _module_schur(mid, n, max_n) for mid in mids}


_CEX_B = FamilySpec(
    "explicit",
    items=((1,) * 6, (2, 1, 1, 1, 1), (3, 3), (4, 2), (4, 1, 1)),
)
_CEX_C = FamilySpec(
    "explicit",
    items=((1,) * 6, (2, 2, 2), (3, 1, 1, 1), (4, 1, 1), (4, 2)),
)


def _run_cex(which: str, n: int) -> tuple:
    if which == "a":
        f = module_char("u-minus", n) + PExpr.term((1,) * n)
        nu = (1,) * n
        odd_count = len(members(FamilySpec("odd-sign"), n))
        want = Fraction(1 - odd_count)
    elif which == "b":
        f = power_sum_family(_CEX_B, n)
        nu = (2, 1, 1, 1, 1)
        want = Fraction(-1)
    else:
        f = power_sum_family(_CEX_C, n)
        nu = (3, 3)
        want = Fraction(-1)
    got = to_schur(f, n).mult(nu)
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
    return [_BY_ID["conjecture1.5"].check(n)]


def per_class_coverage(n: int) -> CheckResult:
    """Classes whose single-orbit (twisted) conjugation piece hits every irreducible."""
    return _BY_ID["remark4.20"].check(n)


def _run_coverage(n: int) -> tuple:
    F = _F(0)
    return "REPORT", {
        f"{kind}-covering": [
            list(lam)
            for lam in partitions_of(n)
            if to_schur(form(lam, F), n).verdict == "POSITIVE"
        ]
        for kind, form in (("h", H_lambda), ("e", E_lambda))
    }


# ---------------------------------------------------------------------------
# Catalog assembly


def _build_catalog() -> list[Entry]:
    """Catalog entries from rows (id, group, degrees, runner, runner arguments)."""
    ten = _span(1, 10)

    def linear(group, rows, ks=None, nonneg=False):
        """One table of linear identities: id group.eq, or group.eq:k<k> for each k in
        ks; with nonneg, each row's first left side must be Schur-nonnegative."""
        return [
            (f"{group}.{eq}" if ks is None else f"{group}.{eq}:k{k}", group, ten,
             _run_linear, (k, pairs, (pairs[0][1],) if nonneg else ()))
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
            (f"cor5.2.{i}", "cor5.2", ten, _run_lie, (names,))
            for i, names in enumerate((("pbw",), ("cadogan", "cadogan-inverse"), ("lie-ext",)), 1)
        ]
        + [("prop5.4", "prop5.4", ten, _run_lie, (("pi-ext",),))]
        + [(f"lem5.5:k{k}", "lem5.5", ten, _run_linear, (k, _LEM55, ())) for k in (0, 1, 2)]
        + [("prop3.6", "prop3.6", ten, _run_prop36, ())]
        + [(f"prop2.3.{w}", "prop2.3", ten, _run_prop23, (w,)) for w in ("odd", "one")]
        + linear("thm3.4", _THM34, ks=(0, 1, 2), nonneg=True)
        + [("cor5.10", "cor5.10", ten, _run_linear, (2, _COR510, _COR510_HALVES))]
    )
    def positivity(mode, group):
        """The positivity rows of one mode, each up to degree 12."""
        return [
            (row[0], group, _fixed(row[1]) if isinstance(row[1], tuple) else _span(row[1], 12),
             _run_positivity, row[2:])
            for row in _POSITIVITY
            if row[3] == mode
        ]

    thm11 = positivity("NONNEG", "thm1.1")
    strict = positivity("STRICT", "strict") + [
        ("thm6.4", "strict", _span(2, 12), _run_thm64, ())
    ]
    dims = (
        [(f"dims.{mid}", "dims", _span(lo, 10), _run_dims, (mid,))
         for mid, (lo, _, _) in _DIMS.items()]
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
            (f"routes.w:{k}", "routes", _span(0, 12), _run_routes_w, (k,))
            for k in KS[1:]
        ]
    )
    oracles = [
        ("oracles.mn-alternant", "oracles", _span(1, ALTERNANT_MAX_N), _run_mn_alternant, ()),
        ("oracles.ramanujan", "oracles", _span(1, RAMANUJAN_TOP, floor=RAMANUJAN_TOP),
         _run_ramanujan, ()),
        ("oracles.maj", "oracles", _span(1, 9), _run_maj, ()),
    ]
    lemma_ns = _span(1, LEMMA_TOP, floor=LEMMA_TOP)
    lemmas = [("lem3.3", "lemmas", lemma_ns, _run_lem33, ())] + [
        (cid, "lemmas", lemma_ns, _run_feval_lemma, (ks,))
        for cid, ks in (("lem4.1", (0,)), ("lem5.1", (1,)), ("lem5.7", LEMMA_KS[1:]))
    ]
    tables = [  # each over the degrees its fixture holds; t1 and t2 always reach 10
        (f"tables.{kind}", "tables", _span(*tables_data.table_range(kind), floor=floor),
         _run_table, (kind,))
        for kind, floor in (("t1", 10), ("t2", 10), ("t3", 0), ("t4", 0))
    ]
    cex = [
        (f"cex.{which}", "counterexamples", _fixed(ns), _run_cex, (which,))
        for which, ns in CEX_DEGREES.items()
    ]
    scans = [
        ("conjecture1.5", "conjecture", _span(1, 8), _run_conjecture, ()),
        ("remark4.20", "coverage", ten, _run_coverage, ()),
    ]
    sections = (
        ("identities", identities), ("positivity", thm11), ("strict", strict),
        ("dims", dims), ("routes", routes), ("oracles", oracles), ("lemmas", lemmas),
        ("tables", tables), ("counterexamples", cex), ("scans", scans),
    )
    return [
        Entry(cid, group, ns, partial(runner, *args), (tag,))
        for tag, rows in sections
        for cid, group, ns, runner, args in rows
    ]


CATALOG: list[Entry] = _build_catalog()
_BY_ID = {e.id: e for e in CATALOG}


def check_identity(check_id: str, n: int) -> CheckResult:
    """Run one catalog entry at degree n."""
    entry = _BY_ID.get(check_id)
    if entry is None:
        raise CatalogError(f"unknown catalog id {check_id!r}")
    return entry.check(n)


def select_entries(selector: str) -> list[Entry]:
    chosen = [e for e in CATALOG if e.matches(selector)]
    if not chosen:
        raise CatalogError(f"selector {selector!r} matches no catalog entries")
    return chosen


def run_selector(selector: str, max_n: int = 12):
    """Yield CheckResults for all matching entries, in catalog order."""
    integer(max_n, "max_n")
    for entry in select_entries(selector):
        for n in entry.ns(max_n):
            yield entry.check(n)


def catalog_ids() -> list[str]:
    return [e.id for e in CATALOG]
