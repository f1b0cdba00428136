import tracemalloc
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import given, settings, strategies as st

from symcon.characters import (
    ALTERNANT_MAX_N,
    COLUMN_WIDTH,
    _alternant_column,
    _build_table,
    _hook_numerators,
    _lanes,
    _mn,
    _strip_removals,
    alternant_oracle,
    character_table,
    mn_character,
    schur_to_power,
    to_schur,
)
from symcon.errors import CapacityError, DegreeError, ParameterError
from symcon.partitions import (
    conjugate,
    partition_index,
    partitions_of,
    _partitions_of,
    _sign_exponent,
    syt_count,
    z_lambda,
)
from symcon.symfunc import PExpr


def test_trivial_and_sign_characters():
    for n in range(1, 9):
        for mu in partitions_of(n):
            assert mn_character((n,), mu) == 1
            assert mn_character((1,) * n, mu) == (-1) ** (n - len(mu))


def test_hook_values_on_full_cycle():
    assert mn_character((2, 2), (4,)) == 0
    assert mn_character((3, 1, 1), (5,)) == 1
    for n in (4, 5, 6, 7):
        for r in range(n):
            hook = (n - r,) + (1,) * r
            assert mn_character(hook, (n,)) == (-1) ** r
        for nu in partitions_of(n):
            if len(nu) > 1 and nu[0] + len(nu) - 1 != n:
                assert mn_character(nu, (n,)) == 0


def test_size_mismatch():
    with pytest.raises(ParameterError):
        mn_character((2, 1), (4,))


def test_non_canonical_keys_are_canonicalised():
    # chi^(2,1) on a 3-cycle is -1, whatever order the parts come in
    for nu, mu in (((1, 2), (3,)), ((2, 1), (3, 0)), ((1, 2), [3])):
        assert mn_character(nu, mu) == -1
        assert alternant_oracle(nu, mu) == -1
        assert character_table(3).chi(nu, mu) == -1
    assert mn_character((1, 2, 1), (1, 3)) == mn_character((2, 1, 1), (3, 1))
    for bad in (((2, -1), (1,)), ((1,), (2, -1))):
        with pytest.raises(ParameterError):
            mn_character(*bad)
        with pytest.raises(ParameterError):
            alternant_oracle(*bad)
    with pytest.raises(ParameterError):
        character_table(3).chi((2, 2), (3,))  # a shape of 4, not of 3


def _rows(table):
    """The whole matrix chi^nu(mu), one row per nu, decoded through chi."""
    return tuple(tuple(table.chi(nu, mu) for mu in table.parts) for nu in table.parts)


def test_small_table_row():
    t3 = character_table(3)
    assert _rows(t3)[t3.index[(2, 1)]] == (-1, 0, 2)
    t1 = character_table(1)
    assert _rows(t1) == ((1,),)


def _strip_removals_by_beads(lam, k):
    """Reference: move each bead b to b-k on the full bead set and read off the shape."""
    length = len(lam)
    beta = {p + length - 1 - i for i, p in enumerate(lam)}
    out = []
    for b in sorted(beta, reverse=True):
        nb = b - k
        if nb >= 0 and nb not in beta:
            newbeta = sorted((beta - {b}) | {nb}, reverse=True)
            parts = (x - (length - 1 - j) for j, x in enumerate(newbeta))
            out.append((tuple(p for p in parts if p > 0), sum(nb < c < b for c in beta)))
    return out


def test_strip_removals_match_bead_moves():
    for n in range(0, 13):
        for lam in partitions_of(n):
            for k in range(1, n + 2):
                assert _strip_removals(lam, k) == _strip_removals_by_beads(lam, k)


def test_table_matches_mn_character():
    for n in range(0, 13):
        table = character_table(n)
        assert table.parts == partitions_of(n)
        rows = _rows(table)
        for nu in table.parts:
            assert rows[table.index[nu]] == tuple(
                mn_character(nu, mu) for mu in table.parts
            )


def test_table_build_leaves_mn_cache_alone():
    before = _mn.cache_info().currsize
    table = _build_table.__wrapped__(20)  # a fresh build, whatever is cached
    assert _mn.cache_info().currsize == before
    assert len(table.columns) == len(table.parts) == 627
    assert tuple(table.chi((20,), mu) for mu in table.parts) == (1,) * 627
    assert table.chi((19, 1), (1,) * 20) == 19


def test_table_capacity_error():
    with pytest.raises(CapacityError):
        character_table(11, max_n=10)
    # sqrt(34!) needs more than a signed 64-bit lane: refused before any enumeration
    misses = _partitions_of.cache_info().misses
    with pytest.raises(CapacityError):
        character_table(34, max_n=34)
    assert _partitions_of.cache_info().misses == misses


@pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
def test_table_degree_must_be_an_int(n):
    with pytest.raises(ParameterError):
        character_table(n)


@pytest.mark.parametrize("cap", [2.5, 20.0, True, "20", None])
def test_capacity_must_be_an_int(cap):
    with pytest.raises(ParameterError):
        character_table(3, cap)
    with pytest.raises(ParameterError):
        character_table(2, cap)
    with pytest.raises(ParameterError):
        to_schur(PExpr.p(1), 1, cap)


def test_lane_boundary_at_21():
    # the first degree whose bound sqrt(n!) needs 64-bit lanes in the build
    table = character_table(21, max_n=21)
    parts = table.parts
    assert len(parts) == 792
    for nu in parts:
        assert table.chi(nu, (1,) * 21) == syt_count(nu)
    for nu in parts[::61]:
        for mu in parts[5::97]:
            assert table.chi(nu, mu) == mn_character(nu, mu)


def test_column_orthogonality():
    for n in range(1, 11):
        table = character_table(n)
        parts, rows = table.parts, _rows(table)
        for i, lam in enumerate(parts):
            for j in range(i, len(parts)):
                s = sum(row[i] * row[j] for row in rows)
                assert s == (z_lambda(lam) if i == j else 0)


def test_degree_column_is_syt_count():
    for n in range(1, 21):
        table = character_table(n)
        for nu in table.parts:
            assert table.chi(nu, (1,) * n) == syt_count(nu)


def test_column_orthogonality_diagonal():
    # sum_nu chi^nu(mu)^2 = z_mu for every class, every column decoded whole
    for n in range(1, 21):
        table = character_table(n)
        count = len(table.parts)
        for mu, column in zip(table.parts, table.columns):
            assert sum(v * v for v in _lanes(column, count, COLUMN_WIDTH)) == z_lambda(mu), mu


# sha256 of every column as p(n) signed 64-bit little-endian lanes, in
# partitions_of(n) order, with the peak |chi|: computed by walking every
# border strip of every row
_PINNED = {
    20: ("cd7a7d31c1bbf553037549820666c8697a0c7dedf3391be17904c4790ba9b901", 249420600),
    21: ("440f39c5aa507c5e2c469e9607f78b7309b9b8a432edf6adbc6e231887adb692", 1118939184),
}


@pytest.mark.parametrize("n", sorted(_PINNED))
def test_columns_are_pinned(n):
    table = character_table(n, max_n=n)
    size = len(table.columns) * COLUMN_WIDTH // 8
    packed = b"".join(c.to_bytes(size, "little", signed=True) for c in table.columns)
    assert (sha256(packed).hexdigest(), table.peak) == _PINNED[n]


def test_conjugate_rows_against_mn_character():
    # Every self-conjugate shape, and both members of sampled conjugate pairs,
    # against the recursion: the build walks one row of a pair and derives the other.
    for n in range(13, 22):
        table = character_table(n, max_n=n)
        parts = table.parts
        shapes = [nu for nu in parts if conjugate(nu) == nu]
        for nu in parts[n % 5 :: 67]:
            if conjugate(nu) != nu:
                shapes += [nu, conjugate(nu)]
        for nu in shapes:
            assert [table.chi(nu, mu) for mu in parts] == [mn_character(nu, mu) for mu in parts], nu


def _fresh_build_peak(n):
    """The tracemalloc peak of one fresh build of degree n, partitions cached."""
    character_table(n, max_n=n)
    tracemalloc.start()
    try:
        _build_table.__wrapped__(n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_build_memory():
    # each level keeps only the lanes later levels read and level n is
    # scattered into the transpose as it is built: a fresh build at n = 20
    # peaks near 5.1 MiB under tracemalloc (6.3 MiB holding level n whole)
    peak = _fresh_build_peak(20)
    assert peak < 6.5 * 2**20, peak


def test_table_build_memory_64_bit_lanes():
    # n = 21 peaks near 10.9 MiB (14.5 MiB holding level n whole)
    peak = _fresh_build_peak(21)
    assert peak < 13.5 * 2**20, peak


@pytest.mark.parametrize("n", [0, 1, 2])
def test_fresh_build_of_smallest_degrees(n):
    # level n is level 0 at n = 0: its one row is scattered without a level loop
    table = _build_table.__wrapped__(n)
    assert table.parts == partitions_of(n)
    assert _rows(table) == tuple(
        tuple(mn_character(nu, mu) for mu in table.parts) for nu in table.parts
    )


def test_conjugate_row_sign_rule():
    for n in range(1, 11):
        table = character_table(n)
        for nu in table.parts:
            nut = conjugate(nu)
            for mu in table.parts:
                assert table.chi(nut, mu) == (-1) ** _sign_exponent(mu) * table.chi(nu, mu)


def test_alternant_oracle_exhaustive():
    # every value twice: each class column is built once, and the cache holds them all
    classes = [mu for n in range(ALTERNANT_MAX_N + 1) for mu in partitions_of(n)]
    assert _alternant_column.cache_info().maxsize == len(classes) == 30
    _alternant_column.cache_clear()
    for _ in range(2):
        for mu in classes:
            for nu in partitions_of(sum(mu)):
                assert alternant_oracle(nu, mu) == mn_character(nu, mu)
    info = _alternant_column.cache_info()
    assert (info.misses, info.currsize) == (len(classes), len(classes))
    assert alternant_oracle((2, 1), (3,)) == -1
    with pytest.raises(CapacityError):
        alternant_oracle((7,), (7,))


def test_hook_numerators_are_the_four_multiplicities():
    from symcon.repmodels import SERIES_TRUNC, foulkes_series
    from symcon.symfunc import E_lambda, H_lambda

    F = foulkes_series(0, SERIES_TRUNC)
    for n in range(2, 9):
        hooks = ((n,), (1,) * n, (n - 1, 1), (2,) + (1,) * (n - 2))
        exprs = [form(lam, F) for lam in partitions_of(n) for form in (H_lambda, E_lambda)]
        exprs += [PExpr.term(mu) for mu in partitions_of(n)]  # the character values themselves
        exprs += [Fraction(-3, 4) * PExpr.p(*(1,) * n) + Fraction(1, 6) * PExpr.p(n)]
        for f in exprs:
            se = to_schur(f, n)
            got = [Fraction(m, f.denominator) for m in _hook_numerators(f, n)]
            assert got == [se.mult(nu) for nu in hooks], (n, f)


def test_to_schur_examples():
    full3 = sum((PExpr.term(lam) for lam in partitions_of(3)), PExpr.zero())
    se = to_schur(full3)
    assert se.mults == {(3,): 3, (2, 1): 1, (1, 1, 1): 1}
    assert se.verdict == "POSITIVE"

    reg = to_schur(PExpr.p(*(1,) * 4))
    assert all(reg.mult(nu) == syt_count(nu) for nu in partitions_of(4))
    assert reg.verdict == "POSITIVE"

    # {(1^4)} plus the odd-sign classes: the sign multiplicity is negative
    fam = PExpr.term((1, 1, 1, 1)) + PExpr.term((4,)) + PExpr.term((2, 1, 1))
    mixed = to_schur(fam)
    assert mixed.mult((1, 1, 1, 1)) == -1
    assert mixed.verdict == "MIXED"


def test_to_schur_verdicts():
    assert to_schur(PExpr.p(2)).verdict == "MIXED"  # p2 = s2 - s11
    two_s2 = PExpr.p(1, 1) + PExpr.p(2)  # 2*s2, s11 absent
    assert to_schur(two_s2).verdict == "NONNEGATIVE"
    half = Fraction(1, 2) * PExpr.p(2)
    assert to_schur(half).verdict == "NON_INTEGRAL"
    with pytest.raises(DegreeError):
        to_schur(PExpr.p(1) + PExpr.p(2))


def test_schur_power_roundtrip():
    for n in range(1, 10):
        for nu in partitions_of(n):
            back = to_schur(schur_to_power(nu))
            assert back.mults == {nu: Fraction(1)}


@pytest.mark.parametrize(
    "nu", [(20,), (1,) * 20, (10, 10), (3,) * 6 + (2,), (5, 4, 3, 2, 2, 1, 1, 1, 1)]
)
def test_schur_to_power_reads_one_lane_at_n20(nu):
    # lanes far from 0 ((1^20) is lane 626), against the independent recursion
    f = schur_to_power(nu)
    for lam in partitions_of(20):
        assert f.coefficient(lam) == Fraction(mn_character(nu, lam), z_lambda(lam)), lam
    assert schur_to_power(list(reversed(nu)) + [0]) == f


def test_schur_to_power_reads_the_shape_before_its_size():
    with pytest.raises(ParameterError, match="partition part must be an integer >= 0, got 2.0"):
        schur_to_power((2.0, 1))


def test_json_shape():
    se = to_schur(sum((PExpr.term(lam) for lam in partitions_of(3)), PExpr.zero()))
    assert se.to_json_dict() == {
        "n": 3,
        "mults": {"[3]": 3, "[2,1]": 1, "[1,1,1]": 1},
        "verdict": "POSITIVE",
    }


def _fraction_sum(f, n):
    """mult(nu) as a plain Fraction sum of mn_character values, the reference for to_schur."""
    out = {}
    for nu in partitions_of(n):
        m = sum((c * mn_character(nu, lam) for lam, c in f.terms.items()), Fraction(0))
        if m:
            out[nu] = m
    return out


@st.composite
def homogeneous_pexprs(draw):
    n = draw(st.integers(0, 9))
    # numerators and denominators big enough that to_schur needs several limbs
    coeff = st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 10**30))
    terms = draw(st.dictionaries(st.sampled_from(partitions_of(n)), coeff, max_size=8))
    return n, PExpr(terms)


@settings(max_examples=80, deadline=None)
@given(homogeneous_pexprs())
def test_to_schur_matches_fraction_sum(case):
    n, f = case
    se = to_schur(f, n)
    assert se.mults == _fraction_sum(f, n)
    assert all(type(m) is Fraction for m in se.mults.values())


@pytest.mark.parametrize("n", [20, 21])
def test_to_schur_exact_at_large_degree(n):
    # h_n = sum p_lam / z_lam and e_n = sum eps_lam p_lam / z_lam; the common
    # denominator is large, so the numerators span several limbs
    h = PExpr({lam: Fraction(1, z_lambda(lam)) for lam in partitions_of(n)})
    e = PExpr({lam: Fraction((-1) ** _sign_exponent(lam), z_lambda(lam)) for lam in partitions_of(n)})
    se = to_schur(h, max_n=n)
    assert se.mults == {(n,): 1} and se.verdict == "NONNEGATIVE"
    assert to_schur(e, max_n=n).mults == {(1,) * n: 1}


def test_to_schur_capacity_error(monkeypatch):
    from symcon import characters

    # a table whose largest value leaves no room for a limb in a 64-bit lane
    table = character_table(3)
    huge = characters.CharacterTable(3, table.parts, table.columns, table.index, 2**61)
    monkeypatch.setattr(characters, "_build_table", lambda n: huge)
    with pytest.raises(CapacityError):
        to_schur(PExpr.p(3))


def test_segment_sums_cannot_wrap_under_the_cap():
    # a running sum of p(n) columns stays below 2^62 in every 64-bit lane
    for n in range(0, 21):
        table = character_table(n)
        assert table.peak.bit_length() + len(table.parts).bit_length() < 63, n
        assert table.index is partition_index(n)


def test_segment_scan_capacity_error():
    from symcon import characters

    table = character_table(3)
    # bits(peak) + bits(p(3)) = 63 is refused, 62 is scanned
    huge = characters.CharacterTable(3, table.parts, table.columns, table.index, 2**60)
    with pytest.raises(CapacityError):
        huge.negative_segments()
    large = characters.CharacterTable(3, table.parts, table.columns, table.index, 2**59)
    assert large.negative_segments() == []
    assert table.negative_segments() == []


def test_mult_canonicalises_and_rejects_keys():
    regular = to_schur(PExpr.p(1, 1, 1))  # mult(nu) = f^nu
    assert regular.mult((1, 2)) == regular.mult([2, 1]) == 2
    assert regular.mult((3, 0)) == 1
    assert to_schur(PExpr.p(2, 1)).mult((1, 2)) == 0  # chi^(2,1)(2,1) = 0
    for bad in ((2, -1), (2, 2), (4,)):
        with pytest.raises(ParameterError):
            regular.mult(bad)


@pytest.mark.parametrize("n", [22, 34])
def test_mult_looks_up_a_shape_without_a_table(monkeypatch, n):
    # a hand-built expansion past the cap: mult finds the position of a shape
    # in partitions_of(n) and never builds (or overflows) a character table
    from symcon import characters

    def no_table(n):
        raise AssertionError("a character table was built")

    monkeypatch.setattr(characters, "_build_table", no_table)
    parts = partitions_of(n)
    se = characters.SchurExpansion(n, tuple(range(1, len(parts) + 1)), 3, "NON_INTEGRAL")
    assert se.mult((n,)) == Fraction(1, 3)
    assert se.mult([1] * n) == Fraction(len(parts), 3)
    assert se.mult((1, n - 1)) == Fraction(2, 3)  # canonicalised to (n-1, 1)
    with pytest.raises(ParameterError):
        se.mult((n - 1,))


@pytest.mark.parametrize("n", [1.0, "1", True])
def test_to_schur_degree_must_be_an_int(n):
    with pytest.raises(ParameterError):
        to_schur(PExpr.p(1), n)
    with pytest.raises(ParameterError):
        to_schur(PExpr.zero(), n)


def test_to_schur_zero_and_non_integral():
    zero = to_schur(PExpr.zero(), 5)
    assert zero.mults == {} and zero.verdict == "NONNEGATIVE"
    f = Fraction(1, 3) * PExpr.p(3) + Fraction(5, 4) * PExpr.p(2, 1) - Fraction(1, 6) * PExpr.p(1, 1, 1)
    se = to_schur(f)
    assert se.mults == _fraction_sum(f, 3)
    assert se.mult((2, 1)) == Fraction(-2, 3)
    assert se.verdict == "NON_INTEGRAL"


def test_non_integral_rendering():
    half = to_schur(Fraction(1, 2) * PExpr.p(2))  # (s_2 - s_11) / 2
    assert half.to_json_dict() == {
        "n": 2, "mults": {"[2]": "1/2", "[1,1]": "-1/2"}, "verdict": "NON_INTEGRAL",
    }
    assert half.pretty() == "1/2·(2) + -1/2·(1,1)"
    # an integral multiplicity inside a non-integral expansion renders as an int
    regular = to_schur(Fraction(1, 2) * PExpr.p(1, 1, 1))  # (s_3 + 2 s_21 + s_111) / 2
    assert regular.to_json_dict()["mults"] == {"[3]": "1/2", "[2,1]": 1, "[1,1,1]": "1/2"}
    assert regular.pretty() == "1/2·(3) + 1·(2,1) + 1/2·(1,1,1)"
    assert list(regular.terms()) == [((3,), "1/2"), ((2, 1), 1), ((1, 1, 1), "1/2")]
    assert regular.denominator == 2 and regular.numerators == (1, 2, 1)


def test_integral_expansion_builds_no_fraction(monkeypatch):
    from symcon import characters

    f = PExpr({lam: Fraction(1) for lam in partitions_of(12)})  # the conjugation character
    expected = to_schur(f)

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(characters, "Fraction", no_fraction)
    se = to_schur(f)
    assert se.denominator == 1 and se.verdict == "POSITIVE"
    assert se.to_json_dict() == expected.to_json_dict()
    assert se.pretty() == expected.pretty()
    assert list(se.terms()) == list(zip(partitions_of(12), se.numerators))
