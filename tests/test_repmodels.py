import re
from fractions import Fraction
from functools import partial
from math import comb, factorial

import pytest

from symcon import repmodels
from symcon.characters import to_schur
from symcon.errors import ParameterError, TruncationError
from symcon.numbertheory import divisors, ramanujan_sum
from symcon.partitions import (
    FAMILY_KINDS,
    FamilySpec,
    conjugate,
    maj_multiplicity,
    members,
    partitions_of,
)
from symcon.repmodels import (
    LIE_IDENTITIES,
    MODULE_FORMS,
    MODULE_IDS,
    SERIES_TRUNC,
    SUMS,
    _foulkes_series,
    f_eval,
    f_eval_direct,
    foulkes,
    foulkes_series,
    in_run,
    lie_series_identities,
    linear_combination,
    module_char,
    module_char_plethystic,
    named_term,
    parse_module,
    power_sum_family,
    w_route_b,
)
from symcon.symfunc import (
    PExpr, dimension, e_n, h_n, omega, p1_derivative, plethysm_p, plethystic_sum, product_expansion
)

p = PExpr.p


def test_foulkes_base_cases():
    assert foulkes(2, 0) == h_n(2)
    assert foulkes(1, 0) == p(1)
    # Moebius weights: (p_1^n - ... ) / n with mu(d) coefficients
    assert foulkes(5, 1) == Fraction(1, 5) * (p(1, 1, 1, 1, 1) - p(5))
    assert foulkes(6, 1) == Fraction(1, 6) * (
        PExpr.term((1,) * 6) - PExpr.term((2, 2, 2)) - PExpr.term((3, 3))
        + PExpr.term((6,))
    )


def test_foulkes_fields_match_the_canonicalising_constructor():
    # built straight into reduced fields: the same denominator, numerators and key
    # order as the validating constructor scaled by 1/n
    for n in range(1, 41):
        for k in range(25):
            want = PExpr({(d,) * (n // d): ramanujan_sum(d, k) for d in divisors(n)})
            want = want * Fraction(1, n)
            got = foulkes(n, k)
            assert got.denominator == want.denominator, (n, k)
            assert list(got.numerators.items()) == list(want.numerators.items()), (n, k)


def test_foulkes_series_components_are_the_characters():
    for k in range(7):
        F = foulkes_series(k, SERIES_TRUNC)
        for i in range(1, SERIES_TRUNC + 1):
            assert F.component(i) == foulkes(i, k), (k, i)


@pytest.mark.parametrize("args", [(2.0, 1), (True, 1), (0, 1), (3, 2.0), (3, True), (3, -1)])
def test_foulkes_refuses_before_any_work(args, monkeypatch):
    def no_work(*_):
        raise AssertionError("foulkes read a divisor or a weight before its checks")

    monkeypatch.setattr(repmodels, "divisors", no_work)
    monkeypatch.setattr(repmodels, "ramanujan_sum", no_work)
    with pytest.raises(ParameterError):
        foulkes(*args)


def test_foulkes_dimension():
    for n in range(1, 11):
        for k in (0, 1, 2, 3):
            want = factorial(n - 1) if (k == 0 or k % 1 == 0) else 0
            got = dimension(foulkes(n, k), n)
            assert got == factorial(n - 1), (n, k, got)


def test_foulkes_schur_is_maj_statistic():
    for n in range(1, 10):
        se = to_schur(foulkes(n, 0), n)
        for nu in partitions_of(n):
            assert se.mult(nu) == maj_multiplicity(nu, n, 0), (n, nu)


def test_foulkes_five_expansion():
    se = to_schur(foulkes(5, 0), 5)
    assert se.mults == {
        (5,): 1,
        (3, 2): 1,
        (3, 1, 1): 2,
        (2, 2, 1): 1,
        (1, 1, 1, 1, 1): 1,
    }


def test_f_eval_closed_forms():
    for n in range(1, 31):
        assert f_eval(n, 0, 1) == 1
        assert f_eval(n, 0, -1) == (-1 if n % 2 else 0)
        assert f_eval(n, 1, 1) == (1 if n == 1 else 0)
    assert f_eval(1, 1, -1) == -1 and f_eval(2, 1, -1) == 1
    assert f_eval(6, 2, -1) == 0
    assert f_eval(4, 2, -1) == 1


def test_f_eval_matches_direct_evaluation():
    for n in range(1, 31):
        for k in range(0, 13):
            for sign in (1, -1):
                assert Fraction(f_eval(n, k, sign)) == f_eval_direct(n, k, sign)


def test_parity_relations_of_evaluations():
    # odd degrees negate; even degrees fold to the half-degree value
    for k in range(0, 13):
        for m in range(1, 15):
            assert f_eval_direct(2 * m + 1, k, -1) == -f_eval_direct(2 * m + 1, k, 1)
            assert f_eval_direct(2 * m, k, -1) == f_eval_direct(m, k, 1) - f_eval_direct(2 * m, k, 1)


def test_power_sum_family_examples():
    assert power_sum_family(FamilySpec("all"), 3) == p(3) + p(2, 1) + p(1, 1, 1)
    assert power_sum_family(FamilySpec("odd-parts"), 2) == p(1, 1)
    assert power_sum_family(FamilySpec("do"), 3) == p(3)


def _family_specs(n):
    """One spec of every family kind at degree n, the parameterised kinds at several values."""
    for kind in FAMILY_KINDS:
        if kind in ("one-or-k", "divides-k", "thm59"):
            yield from (FamilySpec(kind, k=k) for k in (1, 2, 3, 6))
        elif kind == "prime-family":
            yield from (FamilySpec(kind, p=q) for q in (3, 5))
        elif kind == "lex-from":
            lams = partitions_of(n)
            yield from (FamilySpec(kind, mu=lams[i]) for i in {0, len(lams) // 2, len(lams) - 1})
        elif kind == "explicit":
            yield FamilySpec(kind, items=())
            yield FamilySpec(kind, items=partitions_of(n)[::2] + ((9, 1),))
        else:
            yield FamilySpec(kind)


def test_power_sum_family_fields_match_the_canonicalising_constructor():
    for n in range(9):
        for spec in _family_specs(n):
            got = power_sum_family(spec, n)
            want = PExpr(dict.fromkeys(members(spec, n), 1))
            assert got.denominator == want.denominator, (spec, n)
            assert got.numerators == want.numerators, (spec, n)
            assert list(got.numerators) == list(want.numerators), (spec, n)


def test_module_char_examples():
    alt3 = module_char("alt-induced", 3)
    assert alt3 == 2 * p(3) + p(1) ** 3
    assert to_schur(alt3, 3).mults == {(3,): 3, (1, 1, 1): 3}

    se = to_schur(module_char("psi-a", 4), 4)
    assert se.mults == {(4,): 3, (3, 1): 1, (2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1}

    for n in range(1, 11):
        um = module_char("u-minus", n)
        assert omega(um) == -um


def test_two_route_equality():
    for n in range(1, 11):
        for mid in MODULE_IDS:
            assert module_char(mid, n) == module_char_plethystic(mid, n), (mid, n)


def test_linear_relations():
    for n in range(1, 11):
        psi = module_char("psi", n)
        assert psi == module_char("psi-a", n) + module_char("psi-abar", n)
        assert module_char("u-do", n) == module_char("psi-a", n) - module_char("psi-abar", n)
        abar = module_char("psi-abar", n)
        assert module_char("u-plus", n) == abar + omega(abar)
        assert 2 * module_char("u-minus", n) == psi - omega(psi)
        assert module_char("alt-induced", n) == module_char("u-plus", n) + 2 * module_char("u-do", n)
        a = module_char("psi-a", n)
        assert module_char("alt-induced", n) == a + omega(a)
        assert module_char("u-plus", n) == psi + omega(psi) - module_char("alt-induced", n)


def test_dimensions():
    for n in range(2, 11):
        assert dimension(module_char("psi", n), n) == factorial(n)
        assert dimension(module_char("eps", n), n) == factorial(n)
        assert dimension(module_char("u-plus", n), n) == factorial(n)
        assert dimension(module_char("alt-induced", n), n) == factorial(n)
        for mid in ("psi-a", "psi-abar", "eps-a", "eps-abar"):
            assert dimension(module_char(mid, n), n) == Fraction(factorial(n), 2)
        assert dimension(module_char("u-minus", n), n) == 0
        assert dimension(module_char("u-do", n), n) == 0


def test_self_conjugacy():
    for n in range(1, 11):
        for mid in ("eps", "u-do", "alt-induced"):
            f = module_char(mid, n)
            assert omega(f) == f, (mid, n)
    for n in range(2, 11):
        f = module_char("u-plus", n)
        assert omega(f) == f
        g = f + module_char("u-do", n)
        assert omega(g) == g


def test_parity_of_conjugate_multiplicities():
    for n in range(1, 11):
        se = to_schur(module_char("psi", n), n)
        um = to_schur(module_char("u-minus", n), n)
        for nu in partitions_of(n):
            nut = conjugate(nu)
            if nu == nut:
                assert um.mult(nu) == 0
            else:
                assert (se.mult(nu) - se.mult(nut)) % 2 == 0


def test_multiplicity_formulas():
    for n in range(1, 11):
        se = to_schur(module_char("psi", n), n)
        assert se.mult((n,)) == len(partitions_of(n))
        assert se.mult((1,) * n) == len(members(FamilySpec("do"), n))
        if n >= 2:
            want = sum(len(set(lam)) - 1 for lam in partitions_of(n))
            assert se.mult((n - 1, 1)) == want
        te = to_schur(module_char("eps", n), n)
        odd = len(members(FamilySpec("odd-parts"), n))
        assert te.mult((n,)) == odd
        assert te.mult((1,) * n) == odd


def test_w_examples():
    assert named_term(0, 4, "w:2") == p(1) ** 4 + p(2) * p(1) ** 2 + p(2, 2)
    h2, e2 = h_n(2), e_n(2)
    assert w_route_b(4, 2) == 3 * h2 * h2 + e2 * e2
    assert named_term(0, 3, "w:5") == p(1) ** 3  # k > n keeps only the identity block
    with pytest.raises(ParameterError):
        named_term(0, 4, "w:1")


def test_w_routes_agree():
    # route B reads no family: its binomial sum is expanded in integers by power of p_k
    for n in range(0, 31):
        for k in range(2, 13):
            assert named_term(0, n, f"w:{k}") == w_route_b(n, k), (n, k)


def test_w_even_binomial_form():
    h2, e2 = h_n(2), e_n(2)
    for m in range(1, 6):
        rhs = PExpr.zero()
        for j in range(1, m + 2, 2):
            rhs = rhs + comb(m + 1, j) * h2 ** (m + 1 - j) * e2 ** (j - 1)
        assert named_term(0, 2 * m, "w:2") == rhs


def test_lie_series_identities():
    failures = [r for r in lie_series_identities(10) if not r[2]]
    assert failures == []


# The right side of each free-Lie identity as factors (m, c, sign) of product_expansion:
# 1/(1 - t p1), 1 + t p1, (1 - t^2 p2)/(1 - t p1) and (1 + t p1)/(1 + t^2 p2).
_LIE_FACTORS = {
    "pbw": ((1, -1, -1),),
    "cadogan": ((1, 1, 1),),
    "lie-ext": ((2, 1, -1), (1, -1, -1)),
    "pi-ext": ((1, 1, 1), (2, -1, 1)),
}


def test_lie_right_sides_are_product_forms_at_k1():
    # the catalog reads these rows only up to n = 20
    for name, factors in _LIE_FACTORS.items():
        form = LIE_IDENTITIES[name][1]
        for n in range(SERIES_TRUNC + 1):
            assert named_term(1, n, form) == product_expansion(factors, n), (name, n)


def test_named_term_reads_every_kind_of_name():
    assert named_term(0, 0, "w:3") == named_term(0, 0, "family:one-or-k:3") == PExpr.one()
    assert named_term(0, 5, "psi") == module_char("psi", 5)
    assert named_term(0, 5, "H") == module_char_plethystic("psi", 5)
    assert named_term(2, 5, "divides-k") == power_sum_family(FamilySpec("divides-k", k=2), 5)
    assert named_term(0, 4, "sym") == named_term(0, 4, "all")  # Theorem 4.2.1 against 4.2.2


def test_module_ids_are_named_terms_at_degree_0():
    # the trivial module of S_0 is 1: each id's closed side there is its plethystic side
    for mid, c in zip(MODULE_IDS, (1, 1, 1, 0, 1, 0, 0, 0, 1, 2)):
        pleth = linear_combination(MODULE_FORMS[mid][1], partial(named_term, 0, 0))
        assert named_term(0, 0, mid) == pleth == c * PExpr.one(), mid
    # so a product reads a module id as a factor at degree 0 too
    for n in range(9):
        psi = [PExpr.one()] + [module_char("psi", a) for a in range(1, n + 1)]
        assert named_term(0, n, "psi * H") == sum(
            (psi[a] * named_term(0, n - a, "H") for a in range(n + 1)), PExpr.zero()), n


def test_module_char_is_named_term_at_weight_0():
    mids = MODULE_IDS + tuple(f"w:{k}" for k in range(2, 7))
    for mid in mids + ("family:odd-parts", "family:prime-family:3"):
        for n in range(1, 9):
            assert module_char(mid, n) == named_term(0, n, mid), (mid, n)
    assert module_char("w:3", 6) == module_char("family:one-or-k:3", 6)


# The right sides of Proposition 2.3, Proposition 3.6 and Lemma 5.5 as their own runners
# once wrote them, pairwise sums of products, pinned against the product terms that replace them.
def _prop23_sum(n, kind, dual):
    """sum over a of (-1)^a dual_a * kind_(n-a) at k = 0."""
    rhs = PExpr.zero()
    for a in range(n + 1):
        signed = named_term(0, a, dual)
        if signed:
            rhs = rhs + (-signed if a % 2 else signed) * named_term(0, n - a, kind)
    return rhs


def _prop36_sides(n, kind):
    """(d/dp_1 kind_(n+1), sum over i of kind_(n-i) p_1^i) at k = 0."""
    rhs = PExpr.zero()
    for i in range(n + 1):
        rhs = rhs + named_term(0, n - i, kind) * p(1) ** i
    return p1_derivative(named_term(0, n + 1, kind)), rhs


def _lemma55_sum(k, n):
    """E[F] times G[p2], G = H[F], at degree n."""
    F = foulkes_series(k, SERIES_TRUNC)
    parts = (plethystic_sum(F, n - 2 * j, "e") * plethysm_p(2, plethystic_sum(F, j))
             for j in range(n // 2 + 1))
    return sum(parts, PExpr.zero())


def test_product_terms_equal_the_retired_runners():
    with in_run({}):
        for n in range(SERIES_TRUNC):
            for kind, dual in (("H", "Es"), ("E", "Hs")):
                for rest in ("even", "not-one"):
                    want = _prop23_sum(n, kind, f"{dual}[{rest}]")
                    assert named_term(0, n, f"(-1)^deg {dual}[{rest}] * {kind}") == want, (n, kind)
                lhs, rhs = _prop36_sides(n, kind)
                assert named_term(0, n, f"d/dp1 {kind}") == lhs, (n, kind)
                assert named_term(0, n, f"{kind} * 1/(1-p1)") == rhs, (n, kind)
            for k in (0, 1, 2):
                assert named_term(k, n, "E * p2 o H") == _lemma55_sum(k, n), (k, n)


def test_product_terms_read_factors_and_modifiers():
    assert named_term(0, 4, "1/(1-p1)") == p(1) ** 4
    assert named_term(0, 0, "1/(1-p1)") == PExpr.one()
    # a factor with no modifier is the name itself, and a product with 1/(1-p1) at degree 0
    assert named_term(0, 3, "H * 1/(1-p1)") == sum((named_term(0, a, "H") * p(1) ** (3 - a)
                                                     for a in range(4)), PExpr.zero())
    assert named_term(1, 5, "(-1)^deg E") == -named_term(1, 5, "E")
    assert named_term(1, 4, "(-1)^deg E") == named_term(1, 4, "E")
    assert named_term(0, 3, "p2 o H") == PExpr.zero()
    assert named_term(0, 6, "p2 o H") == plethysm_p(2, named_term(0, 3, "H"))
    assert named_term(0, 3, "d/dp1 d/dp1 H") == p1_derivative(p1_derivative(named_term(0, 5, "H")))
    # a factor read by a prefix of its own
    assert named_term(0, 3, "w:2 * H") == sum(
        (named_term(0, a, "w:2") * named_term(0, 3 - a, "H") for a in range(4)), PExpr.zero())
    # three factors: A * (B * C)
    assert named_term(0, 4, "H * E * 1/(1-p1)") == sum(
        (named_term(0, a, "H") * named_term(0, 4 - a, "E * 1/(1-p1)") for a in range(5)),
        PExpr.zero())
    # d/dp1 reads its factor one degree up, so the last degree the series holds is refused
    with pytest.raises(TruncationError):
        named_term(0, SERIES_TRUNC, "d/dp1 H")


@pytest.mark.parametrize("name, unknown", [
    ("H *", "H *"), ("* H", "* H"), ("H * nope", "nope"), ("nope * H", "nope"), ("H * ", ""),
    ("d/dp1", "d/dp1"), ("p2 o", "p2 o"), ("(-1)^deg", "(-1)^deg"), ("p2 o nope", "nope"),
    ("X[p2]", "X[p2]"), ("H[p2]", "H[p2]"), ("E G[p2]", "E G[p2]"),
])
def test_malformed_product_names_are_unknown_terms(name, unknown):
    # a product or modifier whose factor is no name raises, naming that factor, at odd
    # degrees too, where p2 o reads nothing
    for n in (0, 3):
        with pytest.raises(ParameterError, match=f"^{re.escape(f'unknown term {unknown!r}')}$"):
            named_term(0, n, name)


def test_lie_identity_raises_outside_its_series():
    # every left name of a free-Lie identity reads a series truncated at SERIES_TRUNC
    for left, _, _ in LIE_IDENTITIES.values():
        with pytest.raises(TruncationError):
            named_term(1, SERIES_TRUNC + 1, left)
        with pytest.raises(ParameterError):
            named_term(1, -1, left)
    with pytest.raises(ParameterError):
        named_term(1, 3, "pbw2")


def test_pi_alt_sums_are_omega_of_the_signed_sums():
    # the pi^alt route is a second route to Theorem 5.9.6 and 5.9.7's left sides
    for k in range(4):
        for n in range(13):
            assert named_term(k, n, "H[pi-alt]") == omega(named_term(k, n, "Es")), (k, n)
            assert named_term(k, n, "E[pi-alt]") == omega(named_term(k, n, "Hs")), (k, n)


@pytest.mark.parametrize("x", [2.5, 2.0, True])
def test_degree_and_weight_arguments_must_be_integers(x):
    with pytest.raises(ParameterError):
        foulkes(x, 0)
    with pytest.raises(ParameterError):
        foulkes(4, x)
    with pytest.raises(ParameterError):
        named_term(0, x, "w:2")
    with pytest.raises(ParameterError):
        w_route_b(x, 2)
    with pytest.raises(ParameterError):
        module_char(f"w:{x}", 4)
    with pytest.raises(ParameterError):
        w_route_b(4, x)
    with pytest.raises(ParameterError):
        module_char("psi", x)
    with pytest.raises(ParameterError):
        power_sum_family(FamilySpec("all"), x)
    for left, _, _ in LIE_IDENTITIES.values():
        with pytest.raises(ParameterError):
            named_term(1, x, left)
        with pytest.raises(ParameterError):
            named_term(x, 3, left)
    # warm: 2.0 and True compare equal to the cached 2 and 1
    foulkes_series(0, 2), foulkes_series(1, 1), foulkes_series(2, 1)
    for args in ((x, 0, 1), (2, x, 1)):
        with pytest.raises(ParameterError):
            f_eval(*args)
    for args in ((0, x), (x, 2)):
        with pytest.raises(ParameterError):
            foulkes_series(*args)
    with pytest.raises(ParameterError):
        lie_series_identities(x)


def test_foulkes_series_refuses_a_negative_weight():
    # the series agrees with foulkes(n, k), which refuses k < 0, and caches nothing
    _foulkes_series.cache_clear()
    with pytest.raises(ParameterError):
        foulkes(1, -1)
    for trunc in (0, 3):
        with pytest.raises(ParameterError):
            foulkes_series(-1, trunc)
    assert _foulkes_series.cache_info().currsize == 0


@pytest.mark.parametrize("N", [15, 16, 17])
def test_two_routes_across_packed_width_boundaries(N):
    # a series truncated at N packs in N.bit_length() bits: 4 at 15, 5 at 16 and 17
    _foulkes_series.cache_clear()
    F = foulkes_series(0, N)
    for mid in MODULE_IDS:
        pleth = linear_combination(
            MODULE_FORMS[mid][1], lambda name: plethystic_sum(F, N, *SUMS[name])
        )
        assert pleth == module_char(mid, N), mid


def test_module_routes_share_one_series():
    # every degree of every named module reads the one series of weight 0
    _foulkes_series.cache_clear()
    for n in range(1, 21):
        for mid in MODULE_IDS:
            module_char_plethystic(mid, n)
    assert _foulkes_series.cache_info().currsize == 1


def test_foulkes_products_report():
    # the product forms of the weight-k family (Theorem 5.9) and the k = 2
    # block and half sums (Corollary 5.10), as catalog entries
    from symcon.verify import check_identity, run_selector

    for selector in ("thm5.9", "cor5.10"):
        results = list(run_selector(selector, max_n=8))
        assert results and all(r.status == "PASS" for r in results), selector
    for k in (3, 6):
        assert check_identity(f"thm5.9.5:k{k}", 0).status == "PASS"


def test_divides_family_products():
    # symmetric powers of the weight-k family collect exactly the partitions
    # into divisors of k
    from symcon.symfunc import plethystic_sum

    for k in (1, 2, 3, 6):
        F = foulkes_series(k, 8)
        for n in range(0, 9):
            assert plethystic_sum(F, n, "h") == power_sum_family(
                FamilySpec("divides-k", k=k), n
            )


def test_one_or_k_from_prime_weights():
    # prime k: the symmetric powers coincide with the parts-in-{1,k} module
    from symcon.symfunc import plethystic_sum

    for k in (2, 3, 5):
        F = foulkes_series(k, 8)
        for n in range(0, 9):
            assert plethystic_sum(F, n, "h") == named_term(0, n, f"w:{k}")


def test_parse_module():
    assert parse_module("psi") == "psi"
    assert parse_module("w:3") == "w:3"
    assert parse_module("family:odd-parts") == "family:odd-parts"
    with pytest.raises(ParameterError):
        parse_module("w:1")
    with pytest.raises(ParameterError):
        parse_module("nonsense")


@pytest.mark.parametrize("mid", ["w:x", "w:", "w:2.0", "w:1", "w:-3"])
def test_w_module_ids_are_read_by_one_parse(mid):
    # ParameterError subclasses ValueError, so assert the subclass: int() alone raised ValueError
    for read in (parse_module, lambda m: module_char(m, 3), lambda m: module_char_plethystic(m, 3)):
        with pytest.raises(ParameterError):
            read(mid)
    assert module_char("w:3", 7) == power_sum_family(FamilySpec("one-or-k", k=3), 7)
    assert module_char_plethystic("w:3", 7) == w_route_b(7, 3)
