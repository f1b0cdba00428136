from fractions import Fraction
from math import comb, factorial

import pytest

from symcon.characters import to_schur
from symcon.errors import ParameterError, TruncationError
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
    cyclic_weight,
    f_eval,
    f_eval_direct,
    foulkes,
    foulkes_series,
    lie_identity,
    lie_series_identities,
    linear_combination,
    module_char,
    module_char_plethystic,
    parse_module,
    power_sum_family,
    w_route_a,
    w_route_b,
)
from symcon.symfunc import PExpr, dimension, e_n, h_n, omega, plethystic_sum

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
    assert w_route_a(4, 2) == p(1) ** 4 + p(2) * p(1) ** 2 + p(2, 2)
    h2, e2 = h_n(2), e_n(2)
    assert w_route_b(4, 2) == 3 * h2 * h2 + e2 * e2
    assert w_route_a(3, 5) == p(1) ** 3  # k > n keeps only the identity block
    with pytest.raises(ParameterError):
        w_route_a(4, 1)


def test_w_routes_agree():
    for n in range(0, 13):
        for k in range(2, 7):
            assert w_route_a(n, k) == w_route_b(n, k), (n, k)


def test_w_even_binomial_form():
    h2, e2 = h_n(2), e_n(2)
    for m in range(1, 6):
        rhs = PExpr.zero()
        for j in range(1, m + 2, 2):
            rhs = rhs + comb(m + 1, j) * h2 ** (m + 1 - j) * e2 ** (j - 1)
        assert w_route_a(2 * m, 2) == rhs


def test_lie_series_identities():
    failures = [r for r in lie_series_identities(10) if not r[2]]
    assert failures == []


def test_lie_identity_raises_outside_its_series():
    for name in LIE_IDENTITIES:
        with pytest.raises(TruncationError):
            lie_identity(name, SERIES_TRUNC + 1)
        with pytest.raises(ParameterError):
            lie_identity(name, -1)
    with pytest.raises(ParameterError):
        lie_identity("pbw2", 3)


@pytest.mark.parametrize("x", [2.5, 2.0, True])
def test_degree_and_weight_arguments_must_be_integers(x):
    with pytest.raises(ParameterError):
        foulkes(x, 0)
    with pytest.raises(ParameterError):
        foulkes(4, x)
    with pytest.raises(ParameterError):
        w_route_a(x, 2)
    with pytest.raises(ParameterError):
        w_route_b(x, 2)
    with pytest.raises(ParameterError):
        w_route_a(4, x)
    with pytest.raises(ParameterError):
        w_route_b(4, x)
    with pytest.raises(ParameterError):
        module_char("psi", x)
    with pytest.raises(ParameterError):
        power_sum_family(FamilySpec("all"), x)
    for name in LIE_IDENTITIES:
        with pytest.raises(ParameterError):
            lie_identity(name, x)
    # warm: 2.0 and True compare equal to the cached 2 and 1
    foulkes_series(0, 2), foulkes_series(1, 1), foulkes_series(2, 1)
    for args in ((x, 0), (4, x)):
        with pytest.raises(ParameterError):
            cyclic_weight(*args)
    for args in ((x, 0, 1), (2, x, 1)):
        with pytest.raises(ParameterError):
            f_eval(*args)
    for args in ((0, x), (x, 2)):
        with pytest.raises(ParameterError):
            foulkes_series(*args)
    with pytest.raises(ParameterError):
        lie_series_identities(x)


@pytest.mark.parametrize("N", [15, 16, 17])
def test_two_routes_across_packed_width_boundaries(N):
    # a series truncated at N packs in N.bit_length() bits: 4 at 15, 5 at 16 and 17
    foulkes_series.cache_clear()
    F = foulkes_series(0, N)
    for mid in MODULE_IDS:
        pleth = linear_combination(
            MODULE_FORMS[mid][1], lambda name: plethystic_sum(F, N, *SUMS[name])
        )
        assert pleth == module_char(mid, N), mid


def test_module_routes_share_one_series():
    # every degree of every named module reads the one series of weight 0
    foulkes_series.cache_clear()
    for n in range(1, 21):
        for mid in MODULE_IDS:
            module_char_plethystic(mid, n)
    assert foulkes_series.cache_info().currsize == 1


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
            assert plethystic_sum(F, n, "h") == w_route_a(n, k)


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
    assert module_char("w:3", 7) == w_route_a(7, 3)
    assert module_char_plethystic("w:3", 7) == w_route_b(7, 3)
