from math import factorial

import pytest
from hypothesis import given, strategies as st

import symcon.partitions
from symcon.errors import ParameterError
from symcon.partitions import (
    FAMILY_KINDS,
    FamilySpec,
    conjugate,
    in_family,
    maj_multiplicity,
    maj_residues,
    members,
    parse_family,
    partition,
    partition_from_json,
    partition_index,
    partition_position,
    partitions_of,
    syt_count,
    z_lambda,
)

import partition_reference as ref
from partition_reference import revlex_follows


def partitions_st(max_n=10):
    return st.integers(0, max_n).flatmap(
        lambda n: st.sampled_from(partitions_of(n))
    )


def test_partitions_of_small():
    assert partitions_of(0) == ((),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions_of(10)) == 42


@pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
def test_partitions_of_rejects_non_integers(n):
    partitions_of(2)
    partitions_of(1)  # the cache holds the integer degrees; their lookalikes still raise
    with pytest.raises(ParameterError):
        partitions_of(n)


def test_partition_positions():
    for n in range(0, 9):
        index = partition_index(n)
        assert index is partition_index(n)  # one shared map per degree
        assert list(index) == list(partitions_of(n))
        assert list(index.values()) == list(range(len(index)))
    assert partition_position((2, 1, 1), 4) == 3
    assert partition_position([1, 2, 1], 4) == partition_position((2, 1, 1, 0), 4) == 3
    for bad in ((3,), (5,), (2, -1), (2.5, 1.5)):
        with pytest.raises(ParameterError):
            partition_position(bad, 4)


def test_reverse_lex_order_is_total():
    for n in range(0, 13):
        parts = partitions_of(n)
        assert len(set(parts)) == len(parts)
        for i in range(len(parts) - 1):
            assert revlex_follows(parts[i + 1], parts[i])
            assert not revlex_follows(parts[i], parts[i + 1])


def test_partition_canonicalization():
    assert partition([1, 3, 2, 0]) == (3, 2, 1)
    with pytest.raises(ParameterError):
        partition([2, -1])
    with pytest.raises(ParameterError):
        partition([2.5])


def test_z_lambda():
    assert z_lambda((1, 1, 1)) == 6
    assert z_lambda((2, 1, 1)) == 4
    assert z_lambda((3,)) == 3
    # keys are canonicalised as mn_character does: zero parts dropped, parts sorted
    assert z_lambda((0,)) == z_lambda(()) == 1
    assert z_lambda((1, 2, 1)) == 4
    with pytest.raises(ParameterError):
        z_lambda((2, -1))


def test_class_sizes_sum_to_group_order():
    for n in range(1, 13):
        assert sum(factorial(n) // z_lambda(lam) for lam in partitions_of(n)) == factorial(n)


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate(()) == ()
    assert conjugate((1, 3)) == conjugate((3, 1, 0)) == (2, 1, 1)
    with pytest.raises(ParameterError):
        conjugate((2.5,))


@given(partitions_st(12))
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert len(conjugate(lam)) == (lam[0] if lam else 0)


def test_syt_count_examples():
    assert syt_count((7,)) == 1
    assert syt_count((2, 2)) == 2
    assert syt_count((3, 1, 1)) == 6
    assert syt_count((1, 2)) == syt_count((2, 1)) == 2
    with pytest.raises(ParameterError):
        syt_count((1, -1))


def test_syt_squares_sum_to_factorial():
    for n in range(1, 11):
        assert sum(syt_count(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_maj_examples():
    assert maj_multiplicity((2, 2), 4, 0) == 1
    assert maj_multiplicity((6,), 6, 0) == 1
    assert maj_multiplicity((2, 1), 3, 0) == 0
    assert maj_multiplicity((1, 2), 3, 1) == maj_multiplicity((2, 1), 3, 1) == 1
    with pytest.raises(ParameterError):
        maj_multiplicity((2, 1), 4, 0)


@pytest.mark.parametrize("n, r", [(3, True), (3.0, 0), (3, 1.0), (True, 0)])
def test_maj_arguments_must_be_integers(n, r):
    with pytest.raises(ParameterError):
        maj_multiplicity((2, 1) if n == 3 else (1,), n, r)


def test_maj_residues_partition_the_tableaux():
    for n in range(1, 15):
        for lam in partitions_of(n):
            counts = maj_residues(lam)
            assert len(counts) == n and sum(counts) == syt_count(lam), lam
    assert maj_residues((1, 2)) == (0, 1, 1) and maj_residues(()) == ()


def test_maj_matches_the_tableau_walk():
    for n in range(1, 10):
        for lam in partitions_of(n):
            for r in range(n):
                assert maj_multiplicity(lam, n, r) == ref.maj_multiplicity(lam, n, r), (lam, r)


def test_family_examples():
    assert members(FamilySpec("odd-parts"), 3) == ((3,), (1, 1, 1))
    assert members(FamilySpec("do"), 3) == ((3,),)
    assert members(FamilySpec("one-or-k", k=2), 4) == (
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    )


def test_euler_odd_equals_distinct():
    for n in range(0, 21):
        assert len(members(FamilySpec("odd-parts"), n)) == len(
            members(FamilySpec("distinct"), n)
        )


def test_do_count_equals_self_conjugate_count():
    for n in range(0, 17):
        self_conj = sum(1 for lam in partitions_of(n) if conjugate(lam) == lam)
        assert len(members(FamilySpec("do"), n)) == self_conj


def test_prime_family_matches_general_divisor_family():
    # parts in {1,2,p,2p} with each even part at most once == the odd-parts-
    # divide-k family at k = p
    for p in (3, 5, 7):
        for n in range(0, 13):
            assert members(FamilySpec("prime-family", p=p), n) == members(
                FamilySpec("thm59", k=p), n
            )


def test_lex_segment():
    spec = FamilySpec("lex-from", mu=(2, 2))
    assert members(spec, 4) == ((2, 2), (2, 1, 1), (1, 1, 1, 1))
    with pytest.raises(ParameterError):
        members(spec, 5)
    full = members(FamilySpec("lex-from", mu=(6,)), 6)
    assert full == partitions_of(6)


def test_family_parsing():
    assert parse_family("odd-parts") == FamilySpec("odd-parts")
    assert parse_family("one-or-k:3") == FamilySpec("one-or-k", k=3)
    assert parse_family("prime-family:5") == FamilySpec("prime-family", p=5)
    assert parse_family("lex-from:[2,1,1]") == FamilySpec("lex-from", mu=(2, 1, 1))
    with pytest.raises(ParameterError):
        parse_family("prime-family:4")
    with pytest.raises(ParameterError):
        parse_family("one-or-k")
    with pytest.raises(ParameterError):
        parse_family("no-such-family")


@pytest.mark.parametrize(
    "kind, params",
    [
        ("explicit", {"items": ((True,),)}),
        ("explicit", {"items": ((2.0, 1),)}),
        ("lex-from", {"mu": (True, True)}),
        ("one-or-k", {"k": True}),
        ("one-or-k", {"k": 2.0}),
        ("thm59", {"k": 3.0}),
        ("divides-k", {"k": "2"}),
        ("prime-family", {"p": 3.0}),
        ("prime-family", {"p": "3"}),
    ],
)
def test_family_parameters_must_be_integers(kind, params):
    with pytest.raises(ParameterError):
        FamilySpec(kind, **params)


def test_is_partition_needs_integer_parts():
    # a family's mu and explicit items must be tuples equal to their own `partition`
    for lam in ((2, 1, 1), ()):
        FamilySpec("lex-from", mu=lam)
        FamilySpec("explicit", items=(lam,))
    for parts in ((True,), (True, True), (2.0, 1), (2, 1.0), [2, 1], (1, 2), (1, 0)):
        with pytest.raises(ParameterError):
            FamilySpec("lex-from", mu=parts)
        with pytest.raises(ParameterError):
            FamilySpec("explicit", items=(parts,))


def test_partition_json_roundtrip():
    assert partition_from_json("[4,2,1,1]") == (4, 2, 1, 1)
    with pytest.raises(ParameterError):
        partition_from_json("[1,2]")


@given(partitions_st(10))
def test_explicit_family_membership(lam):
    spec = FamilySpec("explicit", items=(lam,))
    assert in_family(lam, spec)
    assert members(spec, sum(lam)) == (lam,)


def test_partitions_of_matches_recursive_reference():
    for n in range(0, 31):
        assert partitions_of(n) == tuple(ref.gen_partitions(n))


def _reference_specs(n):
    """One spec of every kind, with the parameters the families take at degree n."""
    specs = [FamilySpec(kind) for kind in FAMILY_KINDS if kind not in
             ("one-or-k", "divides-k", "thm59", "prime-family", "lex-from", "explicit")]
    specs += [FamilySpec(kind, k=k) for kind in ("one-or-k", "divides-k", "thm59")
              for k in range(1, 13)]
    specs += [FamilySpec("prime-family", p=p) for p in (3, 5, 7, 11)]
    if n <= 8:
        specs += [FamilySpec("lex-from", mu=mu) for mu in partitions_of(n)]
    specs.append(FamilySpec("explicit", items=((2, 1), (1,) * n, (3, 3, 1), (4, 2), (9, 9))))
    assert {spec.kind for spec in specs} | {"lex-from"} == set(FAMILY_KINDS)
    return specs


def test_members_match_reference_filter():
    for n in range(0, 15):
        for spec in _reference_specs(n):
            got = members(spec, n)
            assert got == ref.members(spec, n), (spec, n)
            for lam in partitions_of(n):
                assert in_family(lam, spec) == (lam in got), (lam, spec)


_DEGREE_SPECS = (
    FamilySpec("all"),
    FamilySpec("odd-parts"),
    FamilySpec("not-do-even-sign"),
    FamilySpec("thm59", k=4),
    FamilySpec("prime-family", p=3),
    FamilySpec("lex-from", mu=(1, 1)),
    FamilySpec("explicit", items=((2,),)),
)


@pytest.mark.parametrize("spec", _DEGREE_SPECS)
@pytest.mark.parametrize("n", [2.0, True, -1])
def test_members_checks_the_degree_first(spec, n):
    # cold: nothing cached yet, so the degree check is the first thing to run
    for cached in (symcon.partitions._partitions_of, symcon.partitions._partition_index,
                   symcon.partitions._masks, symcon.partitions._rule):
        cached.cache_clear()
    with pytest.raises(ParameterError):
        members(spec, n)
    members(spec, 2)  # warm: degree 2 is cached; its lookalikes still raise
    with pytest.raises(ParameterError):
        members(spec, n)
