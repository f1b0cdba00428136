from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from symcon.errors import CatalogError, ParameterError, TruncationError
from symcon.partitions import FamilySpec, partitions_of, syt_count
from symcon.repmodels import module_char
from symcon.symfunc import PExpr
from symcon.verify import (
    CATALOG,
    NEAR_SIGN,
    NEAR_TRIVIAL,
    TRIVIAL,
    CheckResult,
    check_identity,
    check_positivity,
    conjecture_scan,
    counterexamples,
    per_class_coverage,
    reproduce_table,
    run_selector,
    select_entries,
    table_decomposition,
)
from symcon import tables_data


def test_catalog_ids_unique():
    ids = [e.id for e in CATALOG]
    assert len(ids) == len(set(ids))
    assert len(ids) > 150


def test_check_identity_examples():
    assert check_identity("thm4.2.6", 6).status == "PASS"
    assert check_identity("prop4.13.8", 8).status == "PASS"
    r = check_identity("prop6.5.2", 3)
    assert r.status == "PASS"
    with pytest.raises(CatalogError):
        check_identity("thm9.9.9", 3)


def test_check_positivity_modes():
    r = check_positivity(FamilySpec("all"), 4, "STRICT")
    assert r.status == "PASS"
    # degree 2: the sign shape is absent from the conjugation character
    r2 = check_positivity(FamilySpec("all"), 2, "STRICT")
    assert r2.status == "FAIL"
    assert r2.detail["witness"] == [{"nu": [1, 1], "mult": "0"}]
    assert check_positivity(FamilySpec("all"), 2, "NONNEG").status == "PASS"
    sign = (1, 1, 1)
    r3 = check_positivity(FamilySpec("odd-sign"), 3, "STRICT_EXCEPT", exceptions=(sign,))
    # odd-sign at n=3 is p_(2,1) = s_(2,1)... plus sign absent: (3) missing too
    assert r3.status == "FAIL"


@pytest.mark.parametrize(
    "mode,exceptions",
    [("strict", ()), ("NONNEGATIVE", ()), ("STRICT", ((1, 1),)), ("NONNEG", ((1, 1),))],
)
def test_check_positivity_rejects_unknown_mode_and_stray_exceptions(mode, exceptions):
    # a misspelled mode must not run as NONNEG, nor may exceptions be dropped in silence
    with pytest.raises(ParameterError):
        check_positivity(FamilySpec("all"), 2, mode, exceptions=exceptions)


def test_check_positivity_reads_each_exception_as_a_partition():
    # a list or a zero part names the same shape as its canonical tuple
    psi2 = module_char("psi", 2)
    for exception in ((1, 1), [1, 1], (1, 1, 0)):
        assert check_positivity(psi2, 2, "STRICT_EXCEPT", (exception,)).status == "PASS"


def test_fixture_checksums():
    for T, half in ((tables_data.T1, False), (tables_data.T2, False)):
        for n, col in T.items():
            parts = partitions_of(n)
            if len(col) != len(parts):
                continue
            assert sum(m * syt_count(nu) for m, nu in zip(col, parts)) == factorial(n)
    for T in (tables_data.T3, tables_data.T4):
        for n, blocks in T.items():
            for block in blocks:
                chk = sum(m * syt_count(nu) for nu, m in block)
                assert 2 * chk == factorial(n), n


def test_fixture_blocks_sum_to_full_columns():
    # the two coset blocks must add up to the full table column
    for n in range(2, 9):
        parts = partitions_of(n)
        for T, full in ((tables_data.T3, tables_data.T1), (tables_data.T4, tables_data.T2)):
            a, b = (dict(block) for block in T[n])
            for i, nu in enumerate(parts):
                assert a.get(nu, 0) + b.get(nu, 0) == full[n][i]


def test_reproduce_table_examples():
    assert reproduce_table("t1", 8).status == "PASS"
    assert reproduce_table("t2", 3).status == "PASS"
    assert reproduce_table("t4", 4).status == "PASS"
    assert reproduce_table("t1", 16).status == "PASS"  # partial column
    with pytest.raises(ParameterError):
        reproduce_table("t3", 12)  # no fixture block beyond 8
    with pytest.raises(ParameterError):
        reproduce_table("t5", 3)


def test_t1_n8_fixture_content():
    assert tables_data.T1[8] == [
        22, 23, 49, 33, 39, 78, 44, 25, 70, 67, 81, 34, 35, 53, 58, 52, 17,
        19, 19, 17, 5, 2,
    ]
    assert tables_data.T2[10][0] == 10


def test_counterexamples_confirmed():
    results = counterexamples()
    assert [r.status for r in results] == ["REPORT"] * 5
    assert [r.detail["mult"] for r in results] == ["-1", "-2", "-4", "-1", "-1"]
    assert results[3].detail["nu"] == [2, 1, 1, 1, 1]
    assert results[4].detail["nu"] == [3, 3]


def test_counterexample_full_expansions():
    # complete decompositions of the sign-plus-odd-coset sums
    from symcon.characters import to_schur
    from symcon.repmodels import power_sum_family

    expected = {
        4: {(4,): 3, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): -1},
        5: {(5,): 4, (4, 1): 5, (3, 2): 6, (3, 1, 1): 6, (2, 2, 1): 4,
            (2, 1, 1, 1): 3, (1, 1, 1, 1, 1): -2},
        6: {(6,): 6, (5, 1): 7, (4, 2): 14, (4, 1, 1): 10, (3, 3): 3,
            (3, 2, 1): 16, (3, 1, 1, 1): 10, (2, 2, 2): 7, (2, 2, 1, 1): 4,
            (2, 1, 1, 1, 1): 3, (1, 1, 1, 1, 1, 1): -4},
    }
    for n, want in expected.items():
        f = power_sum_family(FamilySpec("odd-sign"), n) + PExpr.term((1,) * n)
        assert to_schur(f, n).mults == want


def test_conjecture_scan_clean():
    for n in range(1, 7):
        (res,) = conjecture_scan(n)
        assert res.status == "REPORT"
        assert res.detail["violations"] == []
        assert res.detail["segments"] == len(partitions_of(n))


def test_conjecture_segments_match_to_schur():
    from symcon.characters import CharacterTable, character_table, to_schur

    for n in range(1, 9):
        parts = partitions_of(n)
        table = character_table(n)
        # the table with every column negated: its negative lanes are the
        # positive multiplicities of the table's own segments
        negated = CharacterTable(
            n, parts, tuple(-c for c in table.columns), table.index, table.peak
        )
        negative, positive = [], []
        tail = PExpr.zero()  # the reference: one to_schur call per segment
        for mu in reversed(parts):
            tail = tail + PExpr.term(mu)
            mults = to_schur(tail, n).mults
            for out, keep in ((negative, lambda m: m < 0), (positive, lambda m: m > 0)):
                shapes = tuple(nu for nu in parts if keep(mults.get(nu, 0)))
                if shapes:
                    out.append((mu, shapes))
        assert table.negative_segments() == negative, n
        assert negated.negative_segments() == positive, n
        assert [mu for mu, _ in positive] == list(reversed(parts))  # (n) occurs in each


def test_conjecture_scan_reports_violating_segments(monkeypatch):
    # a hand-built table whose running sums go negative, with values large
    # enough that lanes borrow from each other
    import random

    from symcon import verify
    from symcon.characters import CharacterTable
    from symcon.partitions import partition_index

    n, rng = 5, random.Random(5)
    parts = partitions_of(n)
    count = len(parts)
    # [nu][mu]: the column of (1^n), the first segment alone, is positive and
    # the others lean negative, so the sums go negative one lane after another
    matrix = [[rng.randrange(-2**50, 2**48) for _ in parts] for _ in parts]
    for row in matrix:
        row[-1] = rng.randrange(2**50, 2**51)
    peak = max(abs(v) for row in matrix for v in row)
    columns = tuple(
        sum(matrix[i][j] << 64 * i for i in range(count)) for j in range(count)
    )
    table = CharacterTable(n, parts, columns, partition_index(n), peak)
    assert all(table.chi(nu, mu) == matrix[i][j]
               for i, nu in enumerate(parts) for j, mu in enumerate(parts))
    want, sums, most = [], [0] * count, 0  # a plain running sum of the decoded columns
    for j in reversed(range(count)):
        sums = [s + table.chi(nu, parts[j]) for s, nu in zip(sums, parts)]
        bad = [list(nu) for nu, s in zip(parts, sums) if s < 0]
        if bad:
            want.append({"from": list(parts[j]), "nu": bad[:3]})
        most = max(most, len(bad))
    assert 0 < len(want) < count and most > 3  # clean, violating and cut segments
    monkeypatch.setattr(verify, "character_table", lambda n: table)
    status, detail = verify._run_conjecture(n)
    assert status == "REPORT"
    assert detail == {"segments": count, "violations": want}


def full_scan_coverage(n):
    """remark4.20's detail by the full scan: every class expanded in the Schur basis,
    kept when its verdict is POSITIVE (the reference for the witness-first scan)."""
    from symcon.characters import to_schur
    from symcon.repmodels import SERIES_TRUNC, foulkes_series
    from symcon.symfunc import E_lambda, H_lambda

    F = foulkes_series(0, SERIES_TRUNC)
    return {
        f"{kind}-covering": [
            list(lam) for lam in partitions_of(n) if to_schur(form(lam, F), n).verdict == "POSITIVE"
        ]
        for kind, form in (("h", H_lambda), ("e", E_lambda))
    }


def test_coverage_scan_equals_the_full_scan():
    for n in range(15):
        assert per_class_coverage(n).detail == full_scan_coverage(n), n


def test_coverage_scan_expands_only_the_survivors(monkeypatch):
    from symcon import verify

    expanded = []
    real = verify.to_schur
    monkeypatch.setattr(verify, "to_schur", lambda f, n, *cap: expanded.append(n) or real(f, n, *cap))
    detail = per_class_coverage(20).detail
    # seven classes cover, for h and e alike; every other class has a hook multiplicity 0
    assert len(detail["h-covering"]) == len(detail["e-covering"]) == 7
    assert len(expanded) <= 14


def test_coverage_sieve_equals_the_hooks_of_the_built_class():
    # the four hook numerators of H_lam[F] and E_lam[F], combined from per-factor scalars,
    # against _hook_numerators of the built product, as values over their denominators
    from fractions import Fraction

    from symcon.characters import _hook_numerators
    from symcon.repmodels import SERIES_TRUNC, foulkes_series
    from symcon.symfunc import E_lambda, H_lambda, _lambda_hooks

    F = foulkes_series(0, SERIES_TRUNC)
    for n in range(15):
        for lam in partitions_of(n):
            for kind, form in (("h", H_lambda), ("e", E_lambda)):
                f = form(lam, F)
                counts, denominator = _lambda_hooks(kind, lam, F)
                got = [Fraction(c, denominator) for c in counts]
                want = [Fraction(c, f.denominator) for c in _hook_numerators(f, n)]
                assert got == want, (kind, lam)


def test_coverage_sieve_builds_no_refuted_class(monkeypatch):
    from symcon import verify

    built = []
    for name in ("H_lambda", "E_lambda"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda lam, F, real=real: built.append(lam) or real(lam, F))
    detail = verify._run_coverage(8)[1]
    # at n = 8 two classes pass the four hooks, for h and e alike, and only they are built:
    # (7, 1) covers, and (5, 3) is refuted by its expansion
    assert built == [(7, 1), (5, 3)] * 2
    assert detail == {"h-covering": [[7, 1]], "e-covering": [[7, 1]]}


def test_per_class_coverage_small():
    assert per_class_coverage(1).detail == {"h-covering": [[1]], "e-covering": [[1]]}
    assert per_class_coverage(2).detail == {"h-covering": [], "e-covering": []}
    cov6 = per_class_coverage(6).detail
    assert cov6["h-covering"], "a covering class exists at degree 6"


def test_selectors():
    assert len(select_entries("thm4.2")) == 8
    assert len(select_entries("thm5.9")) == 48
    assert select_entries("thm4.2.6")[0].id == "thm4.2.6"
    assert select_entries("thm5.9.5:k2")[0].id == "thm5.9.5:k2"
    with pytest.raises(CatalogError):
        select_entries("bogus")


def test_catalog_shape():
    from collections import Counter

    from symcon.verify import CATALOG

    assert len(CATALOG) == 189
    assert Counter(e.group for e in CATALOG) == {
        "thm4.2": 8, "thm4.11": 7, "prop4.13": 10, "thm4.15": 4, "prop6.5": 4,
        "thm5.9": 48, "cor5.2": 3, "prop5.4": 1, "lem5.5": 3, "prop3.6": 1,
        "prop2.3": 2, "thm3.4": 12, "cor5.10": 1, "thm1.1": 26, "strict": 9,
        "dims": 19, "routes": 15, "oracles": 3, "lemmas": 4, "tables": 4,
        "counterexamples": 3, "conjecture": 1, "coverage": 1,
    }
    assert sum(len(e.ns(12)) for e in CATALOG) == 2051
    assert sum(len(e.ns(20)) for e in CATALOG) == 2055


def test_strict_group_passes():
    for res in run_selector("strict", max_n=8):
        assert res.status == "PASS", (res.id, res.n, res.detail)


def test_failure_reports_carry_witness():
    bad = PExpr.term((2,))  # p2 = s2 - s11
    res = check_positivity(bad, 2, "NONNEG", check_id="demo")
    assert res.status == "FAIL"
    assert res.detail["witness"][0]["nu"] == [1, 1]


def test_linear_runner_names_the_failing_pair():
    from symcon.verify import _run_linear

    pairs = (
        ("agrees", ((1, "H"),), ((1, "psi"),)),
        ("differs", ((1, "H0"),), ((1, "all"),)),  # H0 - psi = -(1/2) * not-do
    )
    status, detail = _run_linear(0, pairs, (), 4)
    assert status == "FAIL"
    assert detail["failed"] == "differs"
    assert detail["mismatch"][0] == {"p": [4], "lhs-rhs": "-1/2"}
    assert _run_linear(0, pairs[:1], (), 4)[0] == "PASS"
    # equal sides that are not Schur-nonnegative fail only under nonneg
    negative = (("omega", ((1, "~u-minus"),), ((-1, "u-minus"),)),)
    assert _run_linear(0, negative, (), 2)[0] == "PASS"
    status, detail = _run_linear(0, negative, ((negative[0][1], None),), 2)
    assert status == "FAIL" and detail["witness"][0]["nu"] == [2]


def test_linear_runner_builds_each_name_once(monkeypatch):
    from symcon import repmodels

    built = []
    build = repmodels._resolve
    monkeypatch.setattr(repmodels, "_resolve", lambda k, n, name: built.append(name) or build(k, n, name))
    # cor5.10 names w:2 and mixed-sym in its pairs and again in its two half sums
    assert check_identity("cor5.10", 6).status == "PASS"
    assert sorted(built) == ["H", "Hs", "mixed-sym", "w:2"]


def test_dims_runner_builds_each_name_once(monkeypatch):
    from collections import Counter

    from symcon import repmodels

    built = Counter()
    build = repmodels._resolve
    monkeypatch.setattr(
        repmodels, "_resolve", lambda k, n, name: built.update((name,)) or build(k, n, name)
    )
    # u-plus is read for the dimension and again for its self-conjugacy side;
    # u-do also for its "u+ + u-do" side; each module's power-sum form reads its
    # family once too
    for mid, names in (
        ("u-plus", {"u-plus", "not-do-even-sign"}),
        ("u-do", {"u-do", "do", "u-plus", "not-do-even-sign"}),
    ):
        built.clear()
        assert check_identity(f"dims.{mid}", 8).status == "PASS"
        assert built == Counter(names)


def test_ramanujan_fails_name_a_witness(monkeypatch):
    from symcon import numbertheory, verify

    assert verify._run_ramanujan(6) == ("PASS", None)
    real = numbertheory.ramanujan_sum
    # c_d(0) off by one on both routes: only the totient check sees it
    off_at_zero = lambda d, k: real(d, k) + (k == 0)
    monkeypatch.setattr(verify, "ramanujan_sum", off_at_zero)
    monkeypatch.setattr(verify, "ramanujan_sum_oracle", off_at_zero)
    assert verify._run_ramanujan(6) == (
        "FAIL", {"failed": "c_d(0) == phi(d)", "witness": [{"d": 6, "k": 0}]}
    )
    # wrong past the oracle's k range: the first k that breaks periodicity
    monkeypatch.undo()
    monkeypatch.setattr(verify, "ramanujan_sum", lambda d, k: real(d, k) + (k > 60))
    assert verify._run_ramanujan(6) == (
        "FAIL", {"failed": "periodicity", "witness": [{"d": 6, "k": 61}]}
    )


def test_routes_rows_share_the_catalog_series(monkeypatch):
    from symcon import repmodels, verify

    # the routes.<module> rows read the plethystic sums of the one catalog
    # series F_0, truncated at SERIES_TRUNC, never a per-degree foulkes_series(0, n)
    truncs = []
    series = repmodels.foulkes_series
    monkeypatch.setattr(
        repmodels, "foulkes_series", lambda k, trunc: truncs.append(trunc) or series(k, trunc)
    )
    assert {r.status for r in run_selector("routes", max_n=6)} == {"PASS"}
    assert truncs and set(truncs) == {repmodels.SERIES_TRUNC}
    # a broken plethystic side fails under the routes label
    term = verify.named_term
    monkeypatch.setattr(
        verify, "named_term",
        lambda k, n, name: 2 * term(k, n, name) if name == "H" else term(k, n, name),
    )
    res = check_identity("routes.psi", 3)
    assert res.status == "FAIL" and res.detail["failed"] == "power-sum vs plethystic"
    # a broken closed form of the parts-in-{1,k} module fails routes.w:k under its label
    assert check_identity("routes.w:3", 4).status == "PASS"
    route_b = repmodels.w_route_b
    monkeypatch.setattr(repmodels, "w_route_b", lambda n, k: 2 * route_b(n, k))
    res = check_identity("routes.w:3", 4)
    assert res.status == "FAIL" and res.detail["failed"] == "route A vs route B"


def test_positivity_rows_check_both_directions():
    from symcon.verify import _run_linear

    def strict(mid, exceptions, n):  # a strictness row: one claim on the module mid
        return _run_linear(0, (), ((((1, mid),), exceptions),), n)

    # psi at n = 3 contains the sign shape, so excepting it fails
    status, detail = strict("psi", {3: (1, 1, 1)}, 3)
    assert status == "FAIL"
    assert detail == {"expected-exception": {"nu": [1, 1, 1], "mult": "1"}}
    # psi at n = 2 lacks the sign shape, so the unexcepted row fails
    status, detail = strict("psi", {}, 2)
    assert status == "FAIL"
    assert detail == {"witness": [{"nu": [1, 1], "mult": "0"}]}
    status, detail = strict("psi", "sign", 3)
    assert status == "FAIL"
    assert detail == {"witness": [{"nu": [1, 1, 1], "mult": "nonzero"}]}
    # the documented exceptions hold
    status, detail = strict("psi", {2: (1, 1)}, 2)
    assert status == "PASS" and detail["expected-exception"]["mult"] == "0"
    assert strict("psi-abar", "sign", 5)[0] == "PASS"


def test_lem47_prime_coverage_beyond_seven(monkeypatch):
    import dataclasses

    from symcon import verify

    for n in (11, 13):
        assert check_identity("lem4.7", n).status == "PASS"
    real = verify.to_schur

    def drop_one_shape(f, n, *args, **kw):
        se = real(f, n, *args, **kw)
        numerators = tuple(
            0 if nu == (5, 4, 2) else m for nu, m in zip(partitions_of(n), se.numerators)
        )
        return dataclasses.replace(se, numerators=numerators)

    monkeypatch.setattr(verify, "to_schur", drop_one_shape)
    res = check_identity("lem4.7", 11)
    assert res.status == "FAIL"
    assert res.detail == {"failed": "prime coverage"}


def test_lie_identities_beyond_the_truncation_raise():
    # the series cover degrees 0..SERIES_TRUNC only: reading outside them is an
    # error, as for every other series-backed identity, not a silent PASS
    from symcon.repmodels import SERIES_TRUNC

    for cid in ("cor5.2.1", "cor5.2.2", "cor5.2.3", "prop5.4", "thm4.2.1"):
        assert check_identity(cid, 12).status == "PASS"
        with pytest.raises(TruncationError):
            check_identity(cid, SERIES_TRUNC + 1)
        with pytest.raises(ParameterError):
            check_identity(cid, -1)


@pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
def test_non_integer_degrees_raise(n):
    for m in (1, 3):  # warm caches at the integers that 3.0 and True equal
        check_positivity(FamilySpec("all"), m)
        table_decomposition("t1", m)
    with pytest.raises(ParameterError):
        check_identity("thm4.2.1", n)
    with pytest.raises(ParameterError):
        list(run_selector("thm4.2.1", n))
    with pytest.raises(ParameterError):
        reproduce_table("t1", n)
    with pytest.raises(ParameterError):
        check_positivity(FamilySpec("all"), n)
    with pytest.raises(ParameterError):
        table_decomposition("t1", n)


def test_every_entry_rejects_a_negative_degree():
    # prop3.6 passed at n = -1: its sums over 0..n are empty there
    for entry in CATALOG:
        with pytest.raises(ParameterError):
            check_identity(entry.id, -1)


def test_lie_identities_pass_without_detail_from_degree_zero():
    # degree 0 is checked like every other degree: both sides are 1 (0 for
    # cadogan-inverse, whose composition has no constant term)
    for cid in ("cor5.2.1", "cor5.2.2", "cor5.2.3", "prop5.4"):
        for n in range(13):
            assert check_identity(cid, n) == CheckResult(cid, n, "PASS", None)


def _cache_keys(F):
    """The keys of F._pleth_cache, each checked to be one of the kinds
    the Series docstring lists."""
    for key in F._pleth_cache:
        assert (
            key == ("pure",)
            or key[0] == "exp" and len(key) == 3 and key[1] in ("h", "e")
            or key[0] == "parts" and len(key) == 3 and key[1] in ("h", "e")
            or key[0] == "sum" and len(key) == 5 and key[1] in ("h", "e")
            or len(key) == 2 and key[0] in ("h", "e") and type(key[1]) is int
        ), key
    return list(F._pleth_cache)


def _exponential_degree(key, state):
    """The highest degree a cached state of the plethystic exponential reaches: the
    Newton pair (A, G) to len - 1; for the product over part values (Ns, Bs, G), each
    factor g_a to a times its last exponent, and G to its largest n."""
    if key[0] == "exp":
        return max(map(len, state)) - 1
    Ns, _, G = state
    return max(max(G), *(a * (len(N) - 1) for a, N in enumerate(Ns) if a))


def test_lie_identities_stay_at_the_degree_checked():
    # a run to degree 3 expands the plethystic sums of L and pi^alt to degree 3 only
    from symcon.repmodels import SERIES_TRUNC, _derived_series, foulkes_series

    for selector in ("cor5.2", "prop5.4"):
        _clear_run_caches()
        assert {r.status for r in run_selector(selector, 3)} == {"PASS"}
        degrees = {
            key[2]
            for F in (foulkes_series(1, SERIES_TRUNC), _derived_series(1, "pi-alt"))
            for key in _cache_keys(F)
            if key[0] == "sum"
        }
        assert max(degrees) == 3
        # the exponential sequences behind those sums are extended to degree 3 only
        reached = {
            _exponential_degree(key, state)
            for F in (foulkes_series(1, SERIES_TRUNC), _derived_series(1, "pi-alt"))
            for key, state in F._pleth_cache.items()
            if key[0] in ("exp", "parts")
        }
        assert max(reached) == 3


@pytest.mark.parametrize("n", [13, 20])
def test_identities_pass_past_twelve(n):
    # every series the identities read is truncated far above the hard cap of 20
    for entry in select_entries("identities"):
        assert entry.check(n).status == "PASS", entry.id


def test_lemma55_stays_at_the_degree_checked():
    # a run to degree 3 expands the plethystic sums of F_0, F_1 and F_2 to degree 3 only
    from symcon.repmodels import SERIES_TRUNC, foulkes_series

    _clear_run_caches()
    assert {r.status for r in run_selector("lem5.5", 3)} == {"PASS"}
    for k in (0, 1, 2):
        degrees = {
            key[2]
            for key in _cache_keys(foulkes_series(k, SERIES_TRUNC))
            if key[0] == "sum"
        }
        assert max(degrees) == 3, k


def test_cadogan_inverse_composes_only_to_the_degree_checked(monkeypatch):
    from symcon import repmodels

    truncs = []
    real = repmodels.plethysm_into

    def plethysm_into(f, R):
        truncs.append(R.trunc)
        return real(f, R)

    monkeypatch.setattr(repmodels, "plethysm_into", plethysm_into)
    _clear_run_caches()
    assert {r.status for r in run_selector("cor5.2.2", 3)} == {"PASS"}
    assert truncs and max(truncs) <= 3


def test_identities_do_not_depend_on_the_series_truncation(monkeypatch):
    # the truncation only bounds the degrees a check may read
    from symcon import repmodels, verify

    _clear_run_caches()
    at_trunc = list(run_selector("identities", 10))
    _clear_run_caches()
    for module in (repmodels, verify):
        monkeypatch.setattr(module, "SERIES_TRUNC", 12)
    try:
        assert list(run_selector("identities", 10)) == at_trunc
    finally:
        _clear_run_caches()


@pytest.mark.parametrize(
    "cid, broken", [
        ("cor5.2.1", "pbw"), ("cor5.2.2", "cadogan"), ("cor5.2.2", "cadogan-inverse"),
        ("cor5.2.3", "lie-ext"), ("prop5.4", "pi-ext"),
    ],
)
def test_a_broken_lie_side_fails_and_names_the_identity(monkeypatch, cid, broken):
    from symcon import verify
    from symcon.repmodels import LIE_IDENTITIES

    real, left = verify.named_term, LIE_IDENTITIES[broken][0]

    def named_term(k, n, name):
        term = real(k, n, name)
        return term + PExpr.p(1) ** n if name == left else term

    monkeypatch.setattr(verify, "named_term", named_term)
    res = check_identity(cid, 4)
    assert res.status == "FAIL"
    assert res.detail["failed"] == broken
    assert res.detail["mismatch"] == [{"p": [1, 1, 1, 1], "lhs-rhs": "1"}]


def test_cor52_1_and_3_are_thm59_1_and_3_at_k1():
    # L = F_1: pbw and lie-ext run the same linear runner on the same names
    runs = {e.id: e.run for e in CATALOG}
    for cor, thm in (("cor5.2.1", "thm5.9.1:k1"), ("cor5.2.3", "thm5.9.3:k1")):
        assert runs[cor].func is runs[thm].func
        (k, lie_pairs, _), (k59, thm_pairs, _) = runs[cor].args, runs[thm].args
        assert k == k59 == 1
        assert [pair[1:] for pair in lie_pairs] == [pair[1:] for pair in thm_pairs]


def test_exception_degrees_check_integrality(monkeypatch):
    from fractions import Fraction

    from symcon import verify
    from symcon.characters import SchurExpansion

    # thm4.5 excepts (1, 1) at degree 2; a fractional (2) there must fail
    fake = SchurExpansion(2, (3, 0), 2, "NON_INTEGRAL")
    assert fake.mults == {(2,): Fraction(3, 2)}
    monkeypatch.setattr(verify, "_expand", lambda f, n, *cap: fake)
    res = check_identity("thm4.5", 2)
    assert res.status == "FAIL"
    assert res.detail == {"witness": [{"nu": [2], "mult": "3/2"}]}


def _clear_run_caches():
    from symcon import characters, numbertheory, repmodels

    repmodels._RUNS.clear()  # the open runs' memos, with every module expansion
    for cached in (
        repmodels._foulkes_series, repmodels._derived_series,
        characters._build_table, characters._alternant_column,
        numbertheory._ramanujan, numbertheory._totient, numbertheory._moebius,
        numbertheory._divisors, numbertheory.factorize,
    ):
        cached.cache_clear()


def test_two_runs_in_one_process_agree():
    from symcon import repmodels

    first = list(run_selector("all", 8))
    assert not repmodels._RUNS
    assert list(run_selector("all", 8)) == first


def test_a_run_closed_early_leaves_no_run_open():
    from symcon import repmodels

    results = run_selector("all", 8)
    next(results)
    assert not repmodels._RUNS  # open only while a check computes
    results.close()
    assert not repmodels._RUNS
    # a check that raises inside its run closes the run too
    with pytest.raises(ParameterError, match="no fixture column"):
        check_identity("tables.t1", 99)
    assert not repmodels._RUNS


def test_a_run_keeps_each_term_until_it_ends():
    from symcon import repmodels
    from symcon.repmodels import in_run, named_term

    memo = {}
    with in_run(memo):
        term = named_term(0, 5, "sym")
        assert named_term(0, 5, "sym") is term
        assert list(memo) == [(0, 5, "sym")]
    assert not repmodels._RUNS
    assert named_term(0, 5, "sym") is not term  # outside a run nothing is kept


def test_check_identity_inside_a_run_leaves_its_memo_alone():
    from symcon import repmodels
    from symcon.repmodels import in_run, named_term

    memo = {}
    with in_run(memo):
        named_term(0, 4, "H")
        before = dict(memo)
        assert check_identity("thm4.2.1", 4).status == "PASS"  # reads H and sym at 4
        assert reproduce_table("t1", 4).status == "PASS"
        assert memo == before and all(memo[key] is before[key] for key in memo)
        assert repmodels._RUNS == [memo]
    assert not repmodels._RUNS


@pytest.mark.parametrize("in_a_run", [False, True])
def test_module_schur_refuses_float_and_bool_degrees(in_a_run):
    from contextlib import nullcontext

    from symcon.repmodels import in_run
    from symcon.verify import _expand

    with in_run({}) if in_a_run else nullcontext():
        psi = {n: module_char("psi", n) for n in (1, 2)}
        for n in (1, 2):  # in a run, the keys that True and 2.0 equal are kept
            _expand(psi[n], n)
        for bad in (2.0, True):
            with pytest.raises(ParameterError):
                _expand(psi[int(bad)], bad)
            with pytest.raises(ParameterError):
                _expand(psi[2], 2, bad)


def test_a_run_holds_no_term_or_expansion_once_it_ends():
    import gc
    from collections import Counter

    from symcon.characters import SchurExpansion

    def alive():
        gc.collect()
        kinds = (PExpr, SchurExpansion)
        return Counter(type(o).__name__ for o in gc.get_objects() if isinstance(o, kinds))

    list(run_selector("all", 6))  # the process caches are warm
    before = alive()
    assert list(run_selector("all", 6))
    assert alive() == before


def test_a_run_expands_each_expression_once(monkeypatch):
    import gc

    from symcon import verify
    from symcon.characters import TABLE_CAP, SchurExpansion

    calls = []
    real = verify.to_schur

    def record(f, n=None, max_n=TABLE_CAP):
        calls.append((f, n, max_n))
        return real(f, n, max_n)

    monkeypatch.setattr(verify, "to_schur", record)
    assert list(run_selector("all", 8))
    distinct = len(set(calls))  # thm1.1.all and psi share one expansion, ...
    assert 0 < len(calls) == distinct

    def alive():
        gc.collect()
        return sum(isinstance(o, SchurExpansion) for o in gc.get_objects())

    before = alive()
    assert check_positivity(FamilySpec("all"), 5).status == "PASS"
    assert set(table_decomposition("t3", 5)) == {"psi-a", "psi-abar"}
    assert alive() == before  # outside a run nothing is kept


def test_hook_rows_need_no_character_table(monkeypatch):
    from symcon import characters
    from symcon.errors import CapacityError

    def no_table(n):
        raise AssertionError(f"character table of degree {n} built")

    monkeypatch.setattr(characters, "_build_table", no_table)
    for n in range(21, 26):
        assert check_identity("prop4.21", n).status == "PASS"
        assert check_identity("prop4.22", n).status == "PASS"
    for n in (21, 22, 24, 25):
        assert check_identity("lem4.7", n).status == "PASS"
    # at an odd prime, lem4.7's coverage reads the full expansion: its one table
    with pytest.raises(CapacityError):
        check_identity("lem4.7", 23)


@pytest.fixture(scope="module")
def catalog_order_results():
    _clear_run_caches()
    return {(r.id, r.n): r for r in run_selector("all", max_n=7) if r.n <= 7}


@settings(max_examples=15)
@given(data=st.data())
def test_results_do_not_depend_on_order_or_cache_state(catalog_order_results, data):
    if data.draw(st.booleans(), label="cold caches"):
        _clear_run_caches()
    plan = data.draw(
        st.lists(st.sampled_from(sorted(catalog_order_results)), min_size=25, max_size=25)
    )
    for cid, n in plan:
        assert check_identity(cid, n) == catalog_order_results[cid, n]


@pytest.mark.parametrize("cid,ns", [
    ("oracles.mn-alternant", range(1, 7)),
    ("oracles.ramanujan", range(1, 61)),
    ("remark4.20", range(1, 11)),
])
def test_oracle_and_coverage_rows_equal_cold_and_warm(cid, ns):
    cold = []
    for n in ns:
        _clear_run_caches()
        cold.append(check_identity(cid, n))
    assert [check_identity(cid, n) for n in ns] == cold
    assert {r.status for r in cold} == {"REPORT" if cid == "remark4.20" else "PASS"}


def test_catalog_plan_pinned():
    # every (id, degree) a run plans, for every max_n from -1 to 31, in order
    import hashlib

    from symcon.verify import CATALOG

    plan = [(m, e.id, n) for m in range(-1, 32) for e in CATALOG for n in e.ns(m)]
    digest = hashlib.sha256(repr(plan).encode()).hexdigest()
    assert digest == "4e71c2ef7b4a4a733820b760f032188b7038fca363571c7a1aa44f511afadfda"
    counts = {m: sum(1 for e in CATALOG for _ in e.ns(m)) for m in (-1, 0, 1, 8, 12, 20, 30, 31)}
    assert counts == {-1: 210, 0: 210, 1: 371, 8: 1620, 12: 2051, 20: 2055, 30: 2055, 31: 2055}


def _schur(n, numerators):
    from symcon.characters import SchurExpansion

    return SchurExpansion(n, tuple(numerators), 1, "MIXED")


def _with_module(mid, numerators):
    """An _expand whose expansion of the module `mid` is replaced by the given numerators."""
    def make(real):
        return lambda f, n, *cap: (
            _schur(n, numerators) if f == module_char(mid, n) else real(f, n, *cap))
    return make


def _with_hooks(hook, count):
    """A _hook_numerators whose multiplicity of `hook` (an index such as verify.SIGN)
    is replaced by count."""
    def make(real):
        return lambda f, n: tuple(
            f.denominator * count if i == hook else m for i, m in enumerate(real(f, n)))
    return make


# (catalog id, degree, name in symcon.verify, replacement made from the real
# one, the detail keys the FAIL must carry); at n = 4 the shapes are (4),
# (3,1), (2,2), (2,1,1), (1^4), and psi is [5, 2, 3, 2, 1]
_BROKEN_INPUTS = [
    ("thm6.4", 4, "omega", lambda real: lambda f: -f, {"failed": "self-conjugate"}),
    ("thm6.4", 4, "dimension", lambda real: lambda f, n: 0, {"failed": "dimension"}),
    ("dims.psi", 4, "dimension", lambda real: lambda f, n: 0, {"failed": "dimension", "got": "0"}),
    ("dims.eps", 4, "omega", lambda real: lambda f: -f, {"failed": "self-conjugacy"}),
    ("cor4.14", 4, "_expand", _with_module("u-minus", (0, 0, 1, 0, 0)),
     {"witness": [{"nu": [2, 2], "where": "u-minus"}]}),
    ("cor4.14", 4, "_expand", _with_module("psi", (5, 2, 3, 2, 2)),
     {"witness": [{"nu": [4], "where": "parity"}]}),
    ("prop4.21", 4, "_hook_numerators", _with_hooks(TRIVIAL, 4),  # psi has (4) 5 times
     {"failed": "trivial", "got": "4", "want": "5"}),
    ("oracles.mn-alternant", 3, "alternant_oracle", lambda real: lambda nu, mu: 0,
     {"witness": [{"nu": [3], "mu": [3]}]}),
    ("oracles.ramanujan", 6, "ramanujan_sum_oracle",
     lambda real: lambda d, k: real(d, k) + (k == 3), {"witness": [{"d": 6, "k": 3}]}),
    ("oracles.maj", 4, "maj_multiplicity",
     lambda real: lambda nu, n, k: real(nu, n, k) + (nu == (2, 2)), {"witness": [{"nu": [2, 2]}]}),
    ("lem3.3", 6, "f_eval_direct",
     lambda real: lambda n, k, x: real(n, k, x) + (x == -1 and k == 2), {"witness": [{"k": 2}]}),
    ("lem5.7", 6, "f_eval",
     lambda real: lambda n, k, x: real(n, k, x) + (k == 3 and x == -1),
     {"witness": [{"k": 3, "sign": -1}]}),
    ("prop4.22", 4, "_hook_numerators", _with_hooks(NEAR_SIGN, 2),  # eps is [2, 3, 1, 3, 2]
     {"failed": "near-sign", "got": "2", "want": "3"}),
    ("prop4.22", 4, "members",
     lambda real: lambda spec, n: real(spec, n)[1:] if spec.kind == "distinct" else real(spec, n),
     {"failed": "euler"}),
    ("lem4.7", 4, "_hook_numerators", _with_hooks(NEAR_TRIVIAL, 1),  # f_4 has (3,1) 0 times
     {"failed": "near-trivial absent", "got": "1", "want": "0"}),
]


@pytest.mark.parametrize("cid,n,name,broken,want", _BROKEN_INPUTS)
def test_broken_inputs_fail_and_name_the_check(monkeypatch, cid, n, name, broken, want):
    from symcon import verify

    assert check_identity(cid, n).status == "PASS"
    monkeypatch.setattr(verify, name, broken(getattr(verify, name)))
    res = check_identity(cid, n)
    assert res.status == "FAIL"
    assert {key: res.detail.get(key) for key in want} == want


def test_table_block_witness_names_the_block(monkeypatch):
    even, odd = tables_data.T3[4]
    (nu, m), *rest = odd
    monkeypatch.setitem(tables_data.T3, 4, (even, [(nu, m + 1), *rest]))
    res = reproduce_table("t3", 4)
    assert res.status == "FAIL"
    assert res.detail == {
        "witness": [{"block": "psi-abar", "nu": list(nu), "computed": str(m), "fixture": m + 1}]
    }


def test_linear_runner_reports_a_failed_pair_before_a_nonneg_side():
    from symcon.verify import _run_linear

    pairs = (("differs", ((1, "H0"),), ((1, "all"),)),)
    status, detail = _run_linear(0, pairs, ((((-1, "H"),), None),), 4)  # -H is not nonnegative
    assert status == "FAIL" and detail["failed"] == "differs"
    status, detail = _run_linear(0, pairs[:0], ((((-1, "H"),), None),), 4)  # no pair: the side is read
    assert status == "FAIL" and detail["witness"][0] == {"nu": [4], "mult": "-5"}


def test_table_degrees_are_the_fixture_keys():
    from symcon.verify import TABLES

    spans = {kind: (min(fixture), max(fixture)) for kind, (fixture, _, _) in TABLES.items()}
    assert spans == {"t1": (1, 16), "t2": (1, 10), "t3": (2, 8), "t4": (2, 8)}  # in table order
    assert list(spans) == ["t1", "t2", "t3", "t4"]
    for kind, (fixture, _, _) in TABLES.items():
        lo, hi = spans[kind]
        assert list(fixture) == list(range(lo, hi + 1)), kind  # contiguous, ascending
        assert select_entries(f"tables.{kind}")[0].degrees == tuple(fixture)
