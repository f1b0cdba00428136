from fractions import Fraction

import pytest

from symcon.characters import (
    alternant_oracle,
    character_table,
    mn_character,
    schur_to_power,
    to_schur,
)
from symcon.errors import ParameterError, integer
from symcon.numbertheory import (
    divisors,
    factorize,
    moebius,
    ramanujan_sum,
    ramanujan_sum_oracle,
    totient,
)
from symcon.partitions import (
    FamilySpec,
    conjugate,
    hook_lengths,
    maj_multiplicity,
    members,
    partition,
    partition_position,
    partitions_of,
    syt_count,
    z_lambda,
)
from symcon.repmodels import (
    f_eval,
    foulkes,
    foulkes_series,
    lie_identity,
    lie_series_identities,
    module_char,
    module_char_plethystic,
    w_route_a,
    w_route_b,
)
from symcon.symfunc import (
    E_lambda,
    H_lambda,
    PExpr,
    Series,
    dimension,
    e_n,
    h_n,
    plethysm_h,
    plethysm_p,
    plethystic_sum,
    product_expansion,
)
from symcon.verify import CATALOG, run_selector

p = PExpr.p


def test_integer_returns_the_int_itself():
    big = 10**30 + 1
    assert integer(big, "x") is big
    assert integer(-5, "x") == -5
    assert integer(0, "x", 0) == 0
    assert integer(2, "x", 2) == 2


@pytest.mark.parametrize("x", [True, False, 2.0, "2", None, Fraction(2)])
def test_integer_refuses_every_other_type(x):
    with pytest.raises(ParameterError) as info:
        integer(x, "weight k")
    assert str(info.value) == f"weight k must be an integer, got {x!r}"
    with pytest.raises(ParameterError):
        integer(x, "weight k", 0)


def test_integer_refuses_a_value_below_lo():
    with pytest.raises(ParameterError) as info:
        integer(0, "module degree", 1)
    assert str(info.value) == "module degree must be an integer >= 1, got 0"
    with pytest.raises(ParameterError, match="-3"):
        integer(-3, "degree", 0)


# Every integer argument the library checks, given 2.0: each raises through `integer`.
NON_INT = 2.0
F = foulkes_series(0, 4)
ENTRY_POINTS = {
    "character_table n": lambda: character_table(NON_INT),
    "character_table cap": lambda: character_table(2, NON_INT),
    "to_schur": lambda: to_schur(p(1, 1), NON_INT),
    "factorize": lambda: factorize(NON_INT),
    "totient": lambda: totient(NON_INT),
    "moebius": lambda: moebius(NON_INT),
    "divisors": lambda: divisors(NON_INT),
    "ramanujan_sum d": lambda: ramanujan_sum(NON_INT, 1),
    "ramanujan_sum k": lambda: ramanujan_sum(2, NON_INT),
    "ramanujan_sum_oracle d": lambda: ramanujan_sum_oracle(NON_INT, 1),
    "ramanujan_sum_oracle k": lambda: ramanujan_sum_oracle(2, NON_INT),
    "partition": lambda: partition([NON_INT, 1]),
    "partitions_of": lambda: partitions_of(NON_INT),
    "maj_multiplicity n": lambda: maj_multiplicity((1, 1), NON_INT, 0),
    "maj_multiplicity r": lambda: maj_multiplicity((1, 1), 2, NON_INT),
    "FamilySpec k": lambda: FamilySpec("one-or-k", k=NON_INT),
    "FamilySpec p": lambda: FamilySpec("prime-family", p=3.0),
    "foulkes n": lambda: foulkes(NON_INT, 0),
    "foulkes k": lambda: foulkes(2, NON_INT),
    "f_eval n": lambda: f_eval(NON_INT, 0, 1),
    "f_eval k": lambda: f_eval(2, NON_INT, 1),
    "foulkes_series k": lambda: foulkes_series(NON_INT, 2),
    "foulkes_series trunc": lambda: foulkes_series(0, NON_INT),
    "module_char": lambda: module_char("psi", NON_INT),
    "module_char_plethystic": lambda: module_char_plethystic("psi", NON_INT),
    "w_route_a": lambda: w_route_a(NON_INT, 2),
    "w_route_b": lambda: w_route_b(4, NON_INT),
    "lie_identity": lambda: lie_identity("pbw", NON_INT),
    "lie_series_identities": lambda: lie_series_identities(NON_INT),
    "PExpr.__pow__": lambda: p(1) ** NON_INT,
    "dimension": lambda: dimension(p(1, 1), NON_INT),
    "h_n": lambda: h_n(NON_INT),
    "e_n": lambda: e_n(NON_INT),
    "plethysm_p": lambda: plethysm_p(NON_INT, p(1)),
    "plethysm_h": lambda: plethysm_h(NON_INT, p(1)),
    "Series trunc": lambda: Series({}, NON_INT),
    "Series degree": lambda: Series({NON_INT: p(1, 1)}, 3),
    "Series.from_function": lambda: Series.from_function(h_n, NON_INT),
    "Series.component": lambda: F.component(NON_INT),
    "plethystic_sum": lambda: plethystic_sum(F, NON_INT),
    "product_expansion n": lambda: product_expansion([], NON_INT),
    "product_expansion m": lambda: product_expansion([(NON_INT, 1, 1)], 3),
    "product_expansion c": lambda: product_expansion([(1, NON_INT, 1)], 3),
    "Entry.check": lambda: CATALOG[0].check(NON_INT),
    "run_selector": lambda: list(run_selector("all", NON_INT)),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_integer_argument_goes_through_the_one_rule(name):
    with pytest.raises(ParameterError, match=r" must be an integer( >= -?\d+)?, got "):
        ENTRY_POINTS[name]()


# Every entry point that reads a partition, each given the same bad ones: all of
# them raise ParameterError through `partitions.partition`, cold and after a valid
# call on the equal canonical key (a warm cache or index must not let one through).
N = 4
TABLE = character_table(N)
SCHUR = to_schur(p(*(1,) * N))
PARTITION_ENTRY_POINTS = {
    "partition": lambda lam: partition(lam, N),
    "partition lo=1": lambda lam: partition(lam, N, lo=1),
    "z_lambda": z_lambda,
    "conjugate": conjugate,
    "hook_lengths": hook_lengths,
    "syt_count": syt_count,
    "maj_multiplicity": lambda lam: maj_multiplicity(lam, N, 0),
    "mn_character shape": lambda lam: mn_character(lam, (N,)),
    "mn_character class": lambda lam: mn_character((N,), lam),
    "alternant_oracle shape": lambda lam: alternant_oracle(lam, (N,)),
    "alternant_oracle class": lambda lam: alternant_oracle((N,), lam),
    "CharacterTable.chi shape": lambda lam: TABLE.chi(lam, (N,)),
    "CharacterTable.chi class": lambda lam: TABLE.chi((N,), lam),
    "SchurExpansion.mult": SCHUR.mult,
    "schur_to_power": schur_to_power,
    "partition_position": lambda lam: partition_position(lam, N),
    "PExpr.p": lambda lam: p(*lam),
    "PExpr.term": PExpr.term,
    "PExpr.coefficient": p(2, 2).coefficient,
    "H_lambda": lambda lam: H_lambda(lam, F),
    "E_lambda": lambda lam: E_lambda(lam, F),
    "FamilySpec lex-from": lambda lam: members(FamilySpec("lex-from", mu=lam), N),
    "FamilySpec explicit": lambda lam: FamilySpec("explicit", items=(lam,)),
}
SIZED = {
    "partition", "partition lo=1", "maj_multiplicity", "mn_character shape",
    "mn_character class", "alternant_oracle shape", "alternant_oracle class",
    "CharacterTable.chi shape", "CharacterTable.chi class", "SchurExpansion.mult",
    "partition_position", "FamilySpec lex-from",
}
BAD_PARTITIONS = {  # name: (bad input, a valid input to warm up on)
    "None": (None, (2, 2)),
    "int": (5, (2, 2)),
    "float part": ((2.0, 2), (2, 2)),
    "bool parts": ((True,) * N, (1,) * N),
    "negative part": ((2, -1), (2, 1, 1)),
    "wrong size": ((3,), (3, 1)),
}


@pytest.mark.parametrize("name", BAD_PARTITIONS)
def test_every_partition_argument_goes_through_the_one_rule(name):
    bad, warm = BAD_PARTITIONS[name]
    let_through = []
    for entry, call in PARTITION_ENTRY_POINTS.items():
        if name == "wrong size" and entry not in SIZED:
            continue  # (3,) is a partition; only a size makes it a wrong one
        if entry == "PExpr.p" and not isinstance(bad, tuple):
            continue  # p takes its parts as arguments: p(5) is p_5
        for state in ("cold", "warm"):
            if state == "warm":
                call(warm)
            try:
                got = call(bad)
            except ParameterError:
                continue
            except Exception as exc:
                got = exc
            let_through.append(f"{entry} ({state}): {got!r}")
    assert not let_through


@pytest.mark.parametrize("items", [5, [(2, 1)]])
def test_explicit_family_needs_a_tuple_of_partitions(items):
    with pytest.raises(ParameterError):
        FamilySpec("explicit", items=items)
