from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from symcon.errors import DegreeError, ParameterError, TruncationError
from symcon.partitions import partitions_of
from symcon.symfunc import (
    E_lambda,
    H_lambda,
    PExpr,
    Series,
    dimension,
    e_n,
    h_n,
    inner_product,
    omega,
    p1_derivative,
    plethysm_e,
    plethysm_h,
    plethysm_into,
    plethysm_p,
    plethystic_sum,
    product_expansion,
)

p = PExpr.p


def pexprs(max_deg=5):
    # keys come with their parts in any order; the constructor sorts and merges them
    keys = [lam for n in range(0, max_deg + 1) for lam in partitions_of(n)]
    key = st.sampled_from(keys).flatmap(lambda lam: st.permutations(lam).map(tuple))
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.dictionaries(key, coeff, max_size=4).map(PExpr)


# ---------------------------------------------------------------------------
# Ring structure


def test_mul_examples():
    assert p(2) * p(1, 1) == p(2, 1, 1)
    assert (p(1) + p(2)) * (p(1) - p(2)) == p(1, 1) - p(2, 2)
    f = p(3) + 2 * p(2, 1)
    assert f + PExpr.zero() == f


def _fraction_product(f, g):
    """f * g term by term in Fraction arithmetic, zero coefficients dropped."""
    out = {}
    for k1, v1 in f.terms.items():
        for k2, v2 in g.terms.items():
            key = tuple(sorted(k1 + k2, reverse=True))
            out[key] = out.get(key, Fraction(0)) + v1 * v2
    return {k: v for k, v in out.items() if v}


def mixed_pexprs():
    # few low-degree keys, so products collide; denominators with shared factors
    keys = [lam for n in range(0, 4) for lam in partitions_of(n)]
    coeff = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 9, 10]))
    return st.dictionaries(st.sampled_from(keys), coeff, max_size=5).map(PExpr)


@settings(max_examples=80)
@given(mixed_pexprs(), mixed_pexprs())
def test_mul_matches_fraction_reference(f, s):
    # (f + s) * (f - s): the cross terms cancel and must leave no zero behind
    a, b = f + s, f - s
    prod = a * b
    assert prod.terms == _fraction_product(a, b)
    assert prod.terms == (f * f - s * s).terms
    assert all(prod.terms.values())
    assert (f * s).terms == _fraction_product(f, s)


def test_mul_large_parts_and_mixed_degrees():
    terms = (p(70) * p(70, 1)).terms
    assert terms == {(70, 70, 1): 1}
    terms = (p(1) ** 40).terms
    assert terms == {(1,) * 40: 1}
    one = PExpr.one()
    f = Fraction(1, 2) * one + p(1) - 3 * p(2, 2) + Fraction(5, 6) * p(33, 1, 1)
    g = p(3) - Fraction(2, 9) * p(1, 1, 1) + 7 * one + p(64, 64)
    for a, b in ((f, g), (g, g), (f ** 3, g ** 2)):
        terms, want = (a * b).terms, _fraction_product(a, b)
        assert terms == want


@pytest.mark.parametrize("scalar", ["x", None, [1], object()])
def test_mul_rejects_non_numeric_scalar(scalar):
    with pytest.raises(ParameterError):
        p(1) * scalar
    with pytest.raises(ParameterError):
        scalar * p(2, 1)


@pytest.mark.parametrize("value", [0.1, 0.5, 2.0, float("nan")])
def test_float_coefficients_are_rejected(value):
    # a float has no exact value to keep: 0.1 is not 1/10
    with pytest.raises(ParameterError):
        p(1) * value
    with pytest.raises(ParameterError):
        value * p(2, 1)
    with pytest.raises(ParameterError):
        PExpr({(2,): value})
    with pytest.raises(ParameterError):
        PExpr.term((2, 1), value)


def test_exact_coefficients_are_accepted():
    assert p(1) * Fraction(1, 10) == PExpr({(1,): "1/10"}) == PExpr.term((1,), Fraction(1, 10))
    assert (3 * p(2)).coefficient((2,)) == 3
    assert PExpr({(2,): "0.25"}).coefficient((2,)) == Fraction(1, 4)


def test_repr_orders_by_degree_then_descending_key():
    # the order partitions_of(d) enumerates, degree by degree
    keys = [lam for d in range(9) for lam in partitions_of(d)]
    want = " + ".join(f"{i + 1}*p{list(k)}" for i, k in enumerate(keys))
    f = PExpr({k: i + 1 for i, k in reversed(list(enumerate(keys)))})
    assert repr(f) == want
    assert repr(PExpr.zero()) == "0"


def test_repr_does_not_enumerate_partitions(monkeypatch):
    import symcon.symfunc

    def refuse(n):
        raise AssertionError(f"partitions_of({n}) called")

    monkeypatch.setattr(symcon.symfunc, "partitions_of", refuse)
    assert repr(p(70, 70, 1)) == "1*p[70, 70, 1]"
    assert repr(p(50) - Fraction(1, 2) * p(1)) == "-1/2*p[1] + 1*p[50]"


def test_coefficient_canonicalises_key():
    assert PExpr.term((1, 2)) == p(2, 1)
    assert p(2, 1).coefficient((1, 2)) == 1
    assert p(2, 1).coefficient([2, 1]) == 1
    assert (3 * p(3, 1, 1)).coefficient((1, 3, 1)) == 3
    assert p(2, 1).coefficient((2, 2)) == 0


@settings(max_examples=60)
@given(pexprs(), pexprs(), pexprs())
def test_ring_laws(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(pexprs())
def test_equal_expressions_hash_alike(f):
    half = Fraction(1, 2)
    g = (2 * f) * half
    assert g == f and hash(g) == hash(f)
    assert (f + f) - f == f and hash((f + f) - f) == hash(f)
    assert PExpr(f.terms) == f and hash(PExpr(f.terms)) == hash(f)
    # the fields are reduced: no zero numerator, and no common factor left
    assert f.denominator >= 1 and all(f.numerators.values())
    assert gcd(f.denominator, *f.numerators.values()) == 1


@given(pexprs())
def test_omega_involution(f):
    assert omega(omega(f)) == f


def test_omega_examples():
    assert omega(p(2, 1)) == -p(2, 1)
    assert omega(p(3, 1)) == p(3, 1)
    for n in range(0, 8):
        assert omega(h_n(n)) == e_n(n)


def test_inner_product():
    assert inner_product(p(2, 1), p(2, 1)) == 2
    assert inner_product(p(3), p(2, 1)) == 0
    for n in range(1, 9):
        assert inner_product(h_n(n), h_n(n)) == 1
    with pytest.raises(DegreeError):
        inner_product(p(2), p(1))


@settings(max_examples=40)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.dictionaries(st.sampled_from(partitions_of(n)),
                        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)),
                        max_size=3).map(PExpr),
        st.dictionaries(st.sampled_from(partitions_of(n)),
                        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)),
                        max_size=3).map(PExpr),
    )
))
def test_inner_product_symmetric_bilinear(args):
    n, f, g = args
    assert inner_product(f, g) == inner_product(g, f)
    assert inner_product(f + f, g) == 2 * inner_product(f, g)


def test_p1_derivative():
    assert p1_derivative(p(1) ** 3) == 3 * p(1) ** 2
    assert p1_derivative(p(2, 2)) == PExpr.zero()
    assert p1_derivative(p(3, 1, 1)) == 2 * p(3, 1)


def test_dimension():
    for n in range(1, 11):
        full = sum((PExpr.term(lam) for lam in partitions_of(n)), PExpr.zero())
        assert dimension(full) == factorial(n)
    assert dimension(p(1, 1)) == 2
    # distinct-odd sums are degree zero for n >= 2
    for n in range(2, 11):
        do = sum(
            (PExpr.term(lam) for lam in partitions_of(n)
             if len(set(lam)) == len(lam) and all(q % 2 for q in lam)),
            PExpr.zero(),
        )
        assert dimension(do, n) == 0


# ---------------------------------------------------------------------------
# Plethysm


def test_plethysm_p_examples():
    assert plethysm_p(2, p(3)) == p(6)
    g = p(2, 1) + 3 * p(1)
    assert plethysm_p(1, g) == g
    assert plethysm_p(2, p(1) + p(2)) == p(2) + p(4)


@settings(max_examples=40)
@given(st.integers(1, 3), st.integers(1, 3), pexprs(4))
def test_plethysm_p_composes(a, b, g):
    assert plethysm_p(a, plethysm_p(b, g)) == plethysm_p(a * b, g)


def test_plethysm_h_e_base_cases():
    g = p(2) + p(1, 1)
    assert plethysm_h(0, g) == PExpr.one()
    assert plethysm_e(0, g) == PExpr.one()
    assert plethysm_h(1, g) == g
    assert plethysm_e(1, g) == g


def test_plethysm_h_example():
    assert plethysm_h(2, p(2)) == (p(2, 2) + p(4)) * Fraction(1, 2)


def test_plethysm_on_p1_gives_basis():
    for m in range(0, 7):
        assert plethysm_e(m, p(1)) == e_n(m)
        assert plethysm_h(m, p(1)) == h_n(m)


@settings(max_examples=25)
@given(st.integers(1, 5), pexprs(4))
def test_newton_telescoping(m, g):
    # sum_r (-1)^r e_r[g] h_{m-r}[g] == 0 for m >= 1
    acc = PExpr.zero()
    for r in range(m + 1):
        t = plethysm_e(r, g) * plethysm_h(m - r, g)
        acc = acc + (t if r % 2 == 0 else -t)
    assert acc == PExpr.zero()


# -- brute-force monomial oracle for plethysm ------------------------------


def _monomials(f: PExpr, nvars: int) -> dict[tuple[int, ...], Fraction]:
    """Expand a power-sum expression into monomials in nvars variables."""
    out: dict[tuple[int, ...], Fraction] = {}
    for lam, c in f.terms.items():
        poly = {(0,) * nvars: Fraction(1)}
        for part in lam:
            nxt: dict[tuple[int, ...], Fraction] = {}
            for expo, coeff in poly.items():
                for i in range(nvars):
                    key = expo[:i] + (expo[i] + part,) + expo[i + 1 :]
                    nxt[key] = nxt.get(key, Fraction(0)) + coeff
            poly = nxt
        for expo, coeff in poly.items():
            out[expo] = out.get(expo, Fraction(0)) + c * coeff
    return {k: v for k, v in out.items() if v}


def _ssyt_schur(shape, nvars) -> dict[tuple[int, ...], Fraction]:
    """Schur polynomial via semistandard tableaux enumeration."""
    rows = len(shape)
    out: dict[tuple[int, ...], Fraction] = {}
    tab = [[0] * shape[r] for r in range(rows)]

    def fill(r, c):
        if r == rows:
            expo = [0] * nvars
            for row in tab:
                for v in row:
                    expo[v - 1] += 1
            key = tuple(expo)
            out[key] = out.get(key, Fraction(0)) + 1
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = max(lo, tab[r][c - 1])  # weakly increasing along rows
        if r > 0:
            lo = max(lo, tab[r - 1][c] + 1)  # strictly increasing down columns
        for v in range(lo, nvars + 1):
            tab[r][c] = v
            fill(nr, nc)

    fill(0, 0)
    return out


def test_h2_of_h2_against_monomial_oracle():
    nvars = 4
    # h2[h2] by raw monomial substitution: h2(x1..x4) is squarefree-or-square
    # degree-2 monomials; plethysm of h2 on a multiplicity-free monomial sum
    # is the sum over unordered pairs (with repetition) of products.
    h2_monoms = []
    for i, j in combinations_with_replacement(range(nvars), 2):
        expo = [0] * nvars
        expo[i] += 1
        expo[j] += 1
        h2_monoms.append(tuple(expo))
    brute: dict[tuple[int, ...], Fraction] = {}
    for a, b in combinations_with_replacement(h2_monoms, 2):
        key = tuple(x + y for x, y in zip(a, b))
        brute[key] = brute.get(key, Fraction(0)) + 1

    computed = _monomials(plethysm_h(2, h_n(2)), nvars)
    assert computed == brute

    schur_side = _ssyt_schur((4,), nvars)
    for k, v in _ssyt_schur((2, 2), nvars).items():
        schur_side[k] = schur_side.get(k, Fraction(0)) + v
    assert computed == schur_side

    from symcon.characters import to_schur

    assert to_schur(plethysm_h(2, h_n(2))).mults == {(4,): 1, (2, 2): 1}


def test_h_e_match_monomial_expansions():
    nvars = 3
    for n in range(0, 5):
        assert _monomials(h_n(n), nvars) == _ssyt_schur((n,) if n else (), nvars)
    # e_n = s_(1^n)
    for n in range(0, 4):
        shape = (1,) * n
        assert _monomials(e_n(n), nvars) == _ssyt_schur(shape, nvars)


# ---------------------------------------------------------------------------
# Partition-indexed products and series


def _totient_series(trunc):
    from symcon.repmodels import foulkes_series

    return foulkes_series(0, trunc)


def test_H_lambda_examples():
    F = _totient_series(8)
    for n in range(3, 8):
        assert H_lambda((n - 1, 1), F) == F.component(n - 1) * F.component(1)
    # equal for distinct-part shapes
    for n in range(1, 9):
        for lam in partitions_of(n):
            if len(set(lam)) == len(lam):
                assert H_lambda(lam, F) == E_lambda(lam, F)
    # column shape with f1 = p1 gives the elementary function
    for n in range(1, 7):
        assert E_lambda((1,) * n, F) == e_n(n)
    assert H_lambda((), F) == PExpr.one()


def test_lambda_products_canonicalise_the_partition():
    F = _totient_series(8)
    for product in (H_lambda, E_lambda):
        assert product((1, 2, 1), F) == product((2, 1, 1), F)
        assert product([1, 3, 1, 3], F) == product((3, 3, 1, 1), F)
        with pytest.raises(ParameterError):
            product((2, 0), F)


def test_lambda_products_beyond_truncation():
    # |lam| above the truncation, every part within it
    F = Series({1: p(1)}, 15)
    assert H_lambda((1,) * 16, F) == h_n(16)
    assert E_lambda((1,) * 17, F) == e_n(17)
    with pytest.raises(TruncationError):
        H_lambda((16,), F)


def _reference_sum(F, n, kind, parity=None, signed=None):
    """The literal sum over lam |- n of (optional sign) * H_lambda or E_lambda."""
    F = Series(F.components, F.trunc)  # its own plethysm cache
    product = H_lambda if kind == "h" else E_lambda
    total = PExpr.zero()
    for lam in partitions_of(n):
        odd = (n - len(lam)) % 2
        if parity is not None and odd != parity:
            continue
        term = product(lam, F)
        if (signed == "sign-exponent" and odd) or (signed == "length" and len(lam) % 2):
            term = -term
        total = total + term
    return total


def _reference_series():
    from symcon.repmodels import _pi_alt, foulkes_series

    out = {f"k{k}": foulkes_series(k, 10) for k in (0, 1, 2, 5)}
    F = foulkes_series(0, 10)
    # the restricted series of Proposition 2.3
    for name, keep in (("odd", lambda d: d % 2 == 1), ("one", lambda d: d == 1)):
        out[name] = F.restrict(keep)
        out[f"not-{name}"] = F.restrict(lambda d, keep=keep: not keep(d))
    out["dense"] = Series.from_function(h_n, 10)
    out["pi-alt"] = _pi_alt()  # fractional and negative coefficients
    out["even"] = F.restrict(lambda d: d % 2 == 0)
    return out


SUM_OPTIONS = [
    (parity, signed)
    for parity in (None, 0, 1)
    for signed in (None, "sign-exponent", "length")
]


@pytest.mark.parametrize("name", sorted(_reference_series()))
def test_plethystic_sum_matches_partition_sum(name):
    F = _reference_series()[name]
    for kind in ("h", "e"):
        for n in range(0, 11):
            for parity, signed in SUM_OPTIONS:
                got = plethystic_sum(F, n, kind, parity=parity, signed=signed)
                want = _reference_sum(F, n, kind, parity, signed)
                assert got == want, (name, kind, n, parity, signed)


def test_plethystic_sum_independent_of_cache_state():
    from symcon.repmodels import foulkes_series

    F = foulkes_series(1, 10)
    fresh = {
        (kind, n, opts): plethystic_sum(Series(F.components, 10), n, kind, *opts)
        for kind in ("h", "e")
        for n in range(0, 11)
        for opts in SUM_OPTIONS
    }
    warm = Series(F.components, 10)
    E_lambda((1,) * 10, warm)  # the e-recurrence on f_1 is already at m = 10
    for n in (9, 2, 10, 5):
        plethystic_sum(warm, n, "e", parity=1)
        plethystic_sum(warm, n, "h", signed="length")
    for (kind, n, opts), want in sorted(fresh.items(), key=lambda kv: -kv[0][1]):
        assert plethystic_sum(warm, n, kind, *opts) == want, (kind, n, opts)


def test_plethystic_sum_beyond_truncation():
    F = Series(_totient_series(5).components, 5)
    for kind in ("h", "e"):
        with pytest.raises(TruncationError):
            plethystic_sum(F, 6, kind)
        assert plethystic_sum(F, 5, kind) == _reference_sum(F, 5, kind)


@pytest.mark.parametrize(
    "options",
    [
        {"parity": 2},
        {"parity": -1},
        {"signed": "bogus"},
        {"parity": 2, "signed": "length"},
        {"parity": True},
        {"parity": False},
        {"parity": 1.0},
        {"parity": 0.0},
        {"parity": 1.0, "signed": "sign-exponent"},
    ],
)
def test_plethystic_sum_rejects_unknown_options(options):
    with pytest.raises(ParameterError):
        plethystic_sum(_totient_series(4), 4, "h", **options)


def test_plain_sum_leaves_the_signed_recurrence_cold():
    from symcon.repmodels import foulkes_series

    for kind in ("h", "e"):
        F = Series(foulkes_series(0, 10).components, 10)
        plethystic_sum(F, 10, kind)
        assert ("exp", kind, False) in F._pleth_cache
        assert not any(key[0] == "exp" and key[2] for key in F._pleth_cache), kind
        plethystic_sum(F, 10, kind, parity=1)
        assert ("exp", kind, True) in F._pleth_cache


@pytest.mark.parametrize("k", [0, 1])
def test_series_pleth_matches_plethysm(k):
    from symcon.repmodels import foulkes_series

    F = Series(foulkes_series(k, 12).components, 12)
    for kind, pleth in (("h", plethysm_h), ("e", plethysm_e)):
        for i in range(1, 13):
            # h ascends (the recurrence grows one step at a time), e descends
            ms = range(12 // i + 1) if kind == "h" else range(12 // i, -1, -1)
            for m in ms:
                got = F._unpack(F._pleth(kind, i, m)[m])
                assert got == pleth(m, F.component(i)), (kind, i, m)


@pytest.mark.parametrize("N", [15, 16, 17, 31, 32])
def test_packed_width_boundaries(N):
    # p_1^N has multiplicity N, which needs N.bit_length() bits
    for kind, basis, pleth in (("h", h_n, plethysm_h), ("e", e_n, plethysm_e)):
        want = basis(N)
        assert plethystic_sum(Series({1: p(1)}, N), N, kind) == want
        assert pleth(N, p(1)) == want
    # 1/(1 - p_1) = sum_d p_1^d, and its square is sum_d (d + 1) p_1^d
    geometric = Series({0: PExpr.one(), 1: -p(1)}, N).inverse()
    assert geometric.component(N) == PExpr.p(*[1] * N)
    assert (geometric * geometric).component(N) == (N + 1) * PExpr.p(*[1] * N)


@pytest.mark.parametrize("n", [3.0, 2.5, True])
def test_plethystic_sum_rejects_non_integer_degrees(n):
    from symcon.repmodels import foulkes

    F = Series({i: foulkes(i, 0) for i in range(1, 6)}, 5)
    with pytest.raises(ParameterError):  # cold
        plethystic_sum(F, n)
    for d in (1, 2, 3):
        plethystic_sum(F, d)
        plethystic_sum(F, d, "e", parity=1)
    for kind, parity in (("h", None), ("e", 1)):  # warm: degrees 1 and 3 are cached
        with pytest.raises(ParameterError):
            plethystic_sum(F, n, kind, parity)


@pytest.mark.parametrize("n", [2.0, 2.5, True])
def test_degree_arguments_must_be_integers(n):
    h_n(2)
    product_expansion([(1, -1, -1)], 2)
    with pytest.raises(ParameterError):
        h_n(n)
    with pytest.raises(ParameterError):
        e_n(n)
    for factors in ([], [(1, -1, -1)]):
        with pytest.raises(ParameterError):
            product_expansion(factors, n)
    with pytest.raises(ParameterError):
        dimension(p(1, 1), n)
    for pleth in (plethysm_h, plethysm_e):
        with pytest.raises(ParameterError):
            pleth(n, p(1))


@pytest.mark.parametrize("n", ["2", 2.0, 1.0, True])
def test_degrees_and_exponents_are_checked_before_they_are_compared(n):
    # a string degree would otherwise meet n < 0 or d > trunc and raise a bare TypeError
    with pytest.raises(ParameterError):
        h_n(n)
    with pytest.raises(ParameterError):
        e_n(n)
    with pytest.raises(ParameterError):
        product_expansion([], n)
    with pytest.raises(ParameterError):
        Series({1: p(1)}, 3).component(n)
    with pytest.raises(ParameterError):
        p(1) ** n


@pytest.mark.parametrize("x", [True, 2.0, "2"])
def test_integer_parameters_reject_lookalikes(x):
    with pytest.raises(ParameterError):
        plethysm_p(x, p(1))
    with pytest.raises(ParameterError):
        Series({}, x)
    with pytest.raises(ParameterError):
        product_expansion([(x, -1, -1)], 2)
    with pytest.raises(ParameterError):
        product_expansion([(1, x, -1)], 2)


def test_dimension_rejects_a_negative_degree():
    with pytest.raises(ParameterError):
        dimension(PExpr.zero(), -1)


def test_series_rejects_non_integer_truncation():
    for trunc in (2.5, "3", Fraction(3), None):
        with pytest.raises(ParameterError):
            Series({}, trunc)
    with pytest.raises(ParameterError):
        Series({}, -1)
    # the degree keys too: a string key failed in `d > trunc`, a float or bool one was stored
    for d in ("1", 1.0, True):
        with pytest.raises(ParameterError):
            Series({d: p(1)}, 3)
    # from_function checks trunc before range() sees it
    for trunc in (2.0, "2"):
        with pytest.raises(ParameterError):
            Series.from_function(h_n, trunc)


def test_series_component_truncation_error():
    F = _totient_series(5)
    with pytest.raises(TruncationError):
        F.component(6)



# ---------------------------------------------------------------------------
# Plethysm into a series


def _inner_series():
    # no constant term; rational coefficients and several keys per degree
    return Series(
        {
            1: p(1),
            2: Fraction(1, 2) * p(2) - p(1, 1),
            3: Fraction(2, 3) * p(2, 1) + p(3) - Fraction(1, 6) * p(1, 1, 1),
            5: Fraction(-3, 4) * p(4, 1) + p(1, 1, 1, 1, 1),
        },
        7,
    )


def _reference_plethysm_into(f, R):
    """sum over the keys of f of c * prod_i R[p -> p*lam_i], by PExpr products."""
    N = R.trunc
    r = sum((R.component(d) for d in range(1, N + 1)), PExpr.zero())

    def low(g):  # the components of g through degree N
        return PExpr({k: c for k, c in g.terms.items() if sum(k) <= N})

    total = PExpr.zero()
    for key, c in f.terms.items():
        term = PExpr.one()
        for part in key:
            term = low(term * plethysm_p(part, r))
        total = total + c * term
    return Series({d: total.component(d) for d in range(N + 1)}, N)


PLETHYSM_INTO_FS = [
    # repeated parts, several keys, a constant term, rational coefficients,
    # and a key whose product starts beyond the truncation
    PExpr({(2, 1, 1): Fraction(1, 3), (3, 3): -2, (1, 1, 1): Fraction(5, 2), (): 4,
           (4, 2, 2, 1): 1, (2,): Fraction(-1, 6)}),
    Fraction(7, 5) * p(1) + p(2, 2, 1) - Fraction(1, 9) * p(3, 2),
    h_n(3) + e_n(4),
    PExpr.zero(),
]


def test_plethysm_into_matches_reference():
    R = _inner_series()
    for f in PLETHYSM_INTO_FS:
        got = plethysm_into(f, R)
        assert got.trunc == R.trunc
        assert got == _reference_plethysm_into(f, R), f


def test_plethysm_into_independent_of_cache_state():
    want = [plethysm_into(f, _inner_series()) for f in PLETHYSM_INTO_FS]
    for order in (PLETHYSM_INTO_FS, PLETHYSM_INTO_FS[::-1]):
        R = _inner_series()
        got = {id(f): plethysm_into(f, R) for f in order}
        for f, w in zip(PLETHYSM_INTO_FS, want):
            assert got[id(f)] == w, f
            assert plethysm_into(f, R) == w, f  # again, on the warm cache


def test_plethysm_into_keeps_no_powers_on_the_inner_series():
    # the powers of R[p -> p*d] live for one call: nothing is cached on R
    R = _inner_series()
    for f in PLETHYSM_INTO_FS:
        plethysm_into(f, R)
    assert R._pleth_cache == {}


def test_plethysm_into_rejects_constant_term():
    R = Series({0: PExpr.one(), 1: p(1)}, 4)
    with pytest.raises(ParameterError):
        plethysm_into(p(1), R)


def test_lie_identities_at_16():
    from symcon.repmodels import lie_series_identities

    failures = [r for r in lie_series_identities(16) if not r[2]]
    assert not failures


def test_product_expansion_families():
    for n in range(0, 9):
        sym = product_expansion([(m, -1, -1) for m in range(1, n + 1)], n)
        assert sym == sum((PExpr.term(lam) for lam in partitions_of(n)), PExpr.zero())
        ext = product_expansion([(m, -1, -1) for m in range(1, n + 1, 2)], n)
        assert ext == sum(
            (PExpr.term(lam) for lam in partitions_of(n) if all(q % 2 for q in lam)),
            PExpr.zero(),
        )
        alt = product_expansion([(m, 1, 1) for m in range(1, n + 1)], n)
        assert alt == sum(
            (PExpr.term(lam) for lam in partitions_of(n) if len(set(lam)) == len(lam)),
            PExpr.zero(),
        )


def _product_series_reference(factors, n):
    """prod (1 + sign*t^m*p_m)^c at t^n, one truncated Series product per factor."""
    out = Series({0: PExpr.one()}, n)
    for m, c, sign in factors:
        if c == 0 or m > n:
            continue
        comps = {}
        for j in range(n // m + 1):
            binom = Fraction(1)
            for i in range(j):  # generalized binomial C(c, j)
                binom = binom * (c - i) / (i + 1)
            comps[m * j] = PExpr.term((m,) * j, binom * sign**j)
        out = out * Series(comps, n)
    return out.component(n)


@settings(max_examples=120)
@given(
    st.lists(
        st.tuples(st.integers(1, 5), st.integers(-3, 3), st.sampled_from((1, -1))),
        max_size=7,
    ),
    st.integers(0, 9),
)
def test_product_expansion_matches_series_product(factors, n):
    assert product_expansion(factors, n) == _product_series_reference(factors, n)


def test_product_expansion_examples_and_validation():
    # repeated m: (1 - t p_1)^-1 (1 + t p_1)^-1 = (1 - t^2 p_1^2)^-1
    assert product_expansion([(1, -1, -1), (1, -1, 1)], 4) == p(1, 1, 1, 1)
    assert product_expansion([(1, -1, -1), (1, -1, 1)], 3) == PExpr.zero()
    assert product_expansion([(2, 3, 1), (2, -3, 1)], 4) == PExpr.zero()
    assert product_expansion([], 0) == PExpr.one()
    assert product_expansion([(1, 2, -1)], 0) == PExpr.one()
    with pytest.raises(ParameterError, match="degree"):
        product_expansion([(0, 0, 5)], 3)  # m is checked before c == 0 is skipped
    with pytest.raises(ParameterError, match="sign"):
        product_expansion([(9, 0, 2), (0, 1, 1)], 3)  # in factor order
    with pytest.raises(ParameterError):
        product_expansion([], -1)
    with pytest.raises(ParameterError, match="exponent"):
        product_expansion([(1, Fraction(1, 2), 1)], 2)
    with pytest.raises(ParameterError, match="exponent"):
        product_expansion([(5, 0.5, 1)], 2)  # checked before m > n is skipped
    with pytest.raises(ParameterError, match="degree"):
        product_expansion([(1.5, 1, 1)], 3)
    with pytest.raises(ParameterError, match="degree"):
        product_expansion([(1.0, Fraction(1, 2), 1)], 3)  # m is checked before c
    with pytest.raises(ParameterError, match="sign"):
        product_expansion([(1, 0.5, 2)], 3)  # the sign is checked before c


def test_two_path_generating_functions():
    # partition-indexed sums match the product forms with exponents from the
    # one-variable evaluations, for the weight families k = 0, 1, 2
    from symcon.repmodels import f_eval, foulkes_series

    for k in (0, 1, 2):
        F = foulkes_series(k, 10)
        for n in range(0, 11):
            sym = plethystic_sum(F, n, "h")
            prod_sym = product_expansion(
                [(m, -f_eval(m, k, 1), -1) for m in range(1, n + 1)], n
            )
            assert sym == prod_sym, (k, n)
            ext = plethystic_sum(F, n, "e")
            prod_ext = product_expansion(
                [(m, f_eval(m, k, -1), -1) for m in range(1, n + 1)], n
            )
            assert ext == prod_ext, (k, n)


def test_subset_factorization():
    # restricting the family to a part-degree subset S factors the symmetric
    # power through the signed exterior power of the complement
    F = _totient_series(8)
    for keep in (lambda d: d % 2 == 1, lambda d: d == 1):
        FS = F.restrict(keep)
        FSbar = F.restrict(lambda d, k=keep: not k(d))
        for n in range(0, 9):
            lhs = plethystic_sum(FS, n, "h")
            rhs = PExpr.zero()
            for a in range(n + 1):
                epm = plethystic_sum(FSbar, a, "e", signed="length")
                if epm:
                    rhs = rhs + epm * plethystic_sum(F, n - a, "h")
            assert lhs == rhs, n
            lhs_e = plethystic_sum(FS, n, "e")
            rhs_e = PExpr.zero()
            for a in range(n + 1):
                hpm = plethystic_sum(FSbar, a, "h", signed="length")
                if hpm:
                    rhs_e = rhs_e + hpm * plethystic_sum(F, n - a, "e")
            assert lhs_e == rhs_e, n


def test_derivative_recurrence():
    # d/dp1 of the degree-(n+1) symmetric/exterior power telescopes
    from symcon.repmodels import foulkes

    F = _totient_series(10)
    for n in range(1, 10):
        assert p1_derivative(foulkes(n, 0)) == p(1) ** (n - 1)
    p1 = p(1)
    for kind in ("h", "e"):
        for n in range(0, 9):
            lhs = p1_derivative(plethystic_sum(F, n + 1, kind))
            rhs = PExpr.zero()
            for i in range(n + 1):
                rhs = rhs + plethystic_sum(F, n - i, kind) * p1**i
            assert lhs == rhs, (kind, n)


def test_series_inverse():
    F = _totient_series(8)
    G = Series({d: plethystic_sum(F, d) for d in range(9)}, 8)
    prod = G * G.inverse()
    assert prod.component(0) == PExpr.one()
    for d in range(1, 9):
        assert prod.component(d) == PExpr.zero()


def test_json_roundtrip():
    f = Fraction(1, 2) * p(2, 1) + 3 * p(1, 1, 1)
    assert PExpr.from_json_dict(f.to_json_dict()) == f


def test_noncanonical_keys_are_sorted():
    from symcon.characters import to_schur

    for f in (PExpr.term((1, 2)), PExpr.from_json_dict({"[1,2]": "1"})):
        assert f == p(2, 1)
        assert to_schur(f, 3).mults == to_schur(p(2, 1), 3).mults


def test_nonpositive_parts_rejected():
    with pytest.raises(ParameterError):
        PExpr.term((0, 1))
    with pytest.raises(ParameterError):
        PExpr.from_json_dict({"[2,-1]": "1"})
    # parts that are not integers, and keys that are not sequences of parts
    for build in (
        lambda: PExpr.p(1.5),
        lambda: PExpr({(True,): 1}),
        lambda: PExpr({3: 1}),
        lambda: PExpr({("a",): 1}),
        lambda: PExpr({("a", "b"): 1}),
        lambda: p(2, 1).coefficient((1.5,)),
        lambda: plethysm_p(1.5, p(1)),
    ):
        with pytest.raises(ParameterError):
            build()


@pytest.mark.parametrize("data", [{"[a]": "1"}, {"[2;1]": "1"}, {"[2,1]": "x"}])
def test_from_json_dict_rejects_malformed_input(data):
    with pytest.raises(ParameterError):
        PExpr.from_json_dict(data)


def test_constructor_canonicalises_keys():
    from symcon.characters import to_schur

    f = PExpr({(1, 2): 1})
    assert f == p(2, 1)
    assert to_schur(f, 3).mults == to_schur(p(2, 1), 3).mults
    # keys that coincide once sorted are summed; a cancelled term is dropped
    assert PExpr({(1, 2): 1, (2, 1): Fraction(1, 2)}) == Fraction(3, 2) * p(2, 1)
    assert PExpr({(1, 2): 1, (2, 1): -1}) == PExpr.zero()
    with pytest.raises(ParameterError):
        PExpr({(0, 1): 1})


@pytest.mark.parametrize("terms", [{(1,): "x"}, {(1,): None}, {(2, 1): [1]}])
def test_constructor_rejects_non_numeric_coefficient(terms):
    with pytest.raises(ParameterError):
        PExpr(terms)


def test_arithmetic_builds_no_fraction(monkeypatch):
    # every arithmetic path stays on integer numerators over one denominator
    import symcon.characters
    import symcon.symfunc
    from symcon.characters import to_schur
    from symcon.repmodels import foulkes

    F = Series.from_function(lambda i: foulkes(i, 0), 12)
    R = Series.from_function(lambda i: foulkes(i, 1), 12)
    f = PExpr({lam: Fraction(1, len(lam)) for lam in partitions_of(6)})
    g = h_n(6) - Fraction(1, 3) * p(3, 3)
    outer = h_n(2) - e_n(2) + Fraction(1, 2) * p(2)

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(symcon.symfunc, "Fraction", no_fraction)
    monkeypatch.setattr(symcon.characters, "Fraction", no_fraction)
    fg = f * g - 3 * (f + g) * f
    assert fg.homogeneous_degree() == 12
    assert omega(omega(fg)) == fg
    assert plethysm_p(2, f) - f != f
    total = plethystic_sum(F, 12)
    assert total == plethystic_sum(F, 12, parity=0) + plethystic_sum(F, 12, parity=1)
    assert H_lambda((3, 2, 1), F) * H_lambda((6,), F)
    assert plethysm_into(outer, R).component(12)
    assert product_expansion([(1, 2, 1), (2, -1, -1)], 12)
    assert to_schur(total, 12).verdict == "POSITIVE"
    assert to_schur(fg, 12).numerators
