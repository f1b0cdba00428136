from fractions import Fraction
from functools import partial

import pytest

from symcon.characters import (
    alternant_oracle,
    character_table,
    mn_character,
    schur_to_power,
    to_schur,
)
from symcon.errors import CatalogError, DegreeError, ParameterError, SymconError, integer
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
from symcon.repmodels import (
    f_eval,
    f_eval_direct,
    foulkes,
    foulkes_series,
    lie_series_identities,
    module_char,
    module_char_plethystic,
    named_term,
    parse_module,
    power_sum_family,
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
from symcon.verify import (
    CATALOG,
    check_identity,
    check_positivity,
    reproduce_table,
    run_selector,
    table_decomposition,
)

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
    "named_term w:2": lambda: named_term(0, NON_INT, "w:2"),
    "w_route_b": lambda: w_route_b(4, NON_INT),
    "named_term": lambda: named_term(1, NON_INT, "1 + pi-alt o (H-1)"),
    "lie_series_identities": lambda: lie_series_identities(NON_INT),
    "PExpr.__pow__": lambda: p(1) ** NON_INT,
    "PExpr.component": lambda: p(1).component(NON_INT),
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
    "maj_residues": maj_residues,
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


# Every other refusal of a bad argument, each with the exact SymconError subclass it raises
# and, where the wording is pinned, a pattern its message must match.
REFUSALS = {
    "to_schur of zero without n": (lambda: to_schur(PExpr.zero()), DegreeError),
    "to_schur at a wrong n": (lambda: to_schur(p(2, 1), 4), DegreeError),
    "maj_multiplicity r >= n": (lambda: maj_multiplicity((2, 1), 3, 3), ParameterError),
    "prime-family:9": (lambda: parse_family("prime-family:9"), ParameterError),
    "prime-family": (lambda: parse_family("prime-family"), ParameterError),
    "lex-from": (lambda: parse_family("lex-from"), ParameterError),
    "explicit": (lambda: parse_family("explicit"), ParameterError),
    "odd-parts:2": (lambda: parse_family("odd-parts:2"), ParameterError),
    "partition_from_json non-JSON": (lambda: partition_from_json("[2,"), ParameterError),
    "partition_from_json non-list": (lambda: partition_from_json("5"), ParameterError),
    "f_eval sign 0": (lambda: f_eval(2, 1, 0), ParameterError),
    "f_eval_direct sign 0": (lambda: f_eval_direct(2, 1, 0), ParameterError),
    "module_char unknown id": (lambda: module_char("bogus", 3), ParameterError),
    "module_char_plethystic unknown id": (
        lambda: module_char_plethystic("bogus", 3), ParameterError),
    "Series component of a wrong degree": (lambda: Series({2: p(1)}, 3), DegreeError),
    "Series.inverse without constant 1": (
        lambda: Series({1: p(1)}, 3).inverse(), ParameterError),
    "plethystic_sum kind": (lambda: plethystic_sum(F, 2, kind="x"), ParameterError),
    "table_decomposition t9": (lambda: table_decomposition("t9", 3), ParameterError),
    "table_decomposition None": (lambda: table_decomposition(None, 3), ParameterError),
    "reproduce_table None": (lambda: reproduce_table(None, 3), ParameterError),
    "reproduce_table 3": (lambda: reproduce_table(3, 3), ParameterError),
    "check_positivity of a module id": (lambda: check_positivity("psi", 3), ParameterError),
    "check_positivity of None": (lambda: check_positivity(None, 3), ParameterError),
    "check_positivity int exceptions": (
        lambda: check_positivity(FamilySpec("all"), 3, "STRICT_EXCEPT", exceptions=5),
        ParameterError),
    "check_positivity exception of another size": (
        lambda: check_positivity(FamilySpec("all"), 2, "STRICT_EXCEPT", ((3,),)), ParameterError),
    "check_positivity string exception": (
        lambda: check_positivity(FamilySpec("all"), 2, "STRICT_EXCEPT", ("ab",)), ParameterError),
    "run_selector None": (lambda: list(run_selector(None)), CatalogError),
    "PExpr.from_json_dict list": (lambda: PExpr.from_json_dict([1]), ParameterError),
    "PExpr.from_json_dict None": (lambda: PExpr.from_json_dict(None), ParameterError),
    "PExpr.from_json_dict int key": (lambda: PExpr.from_json_dict({1: "1"}), ParameterError),
    "PExpr.from_json_dict float": (lambda: PExpr.from_json_dict({"[1]": 0.1}), ParameterError),
    "check_identity list id": (lambda: check_identity(["x"], 3), CatalogError),
    "check_identity dict id": (lambda: check_identity({}, 3), CatalogError),
    "product_expansion pair": (lambda: product_expansion([(1, 1)], 3), ParameterError),
    "product_expansion bare int": (lambda: product_expansion([1], 3), ParameterError),
    # a bad module id, refused by every reader in parse_module's words
    **{f"{reader} {mid}": (partial(read, mid), ParameterError, pattern)
       for reader, read in (("parse_module", parse_module), ("named_term", partial(named_term, 0, 3)),
                            ("module_char", lambda mid: module_char(mid, 3)))
       for mid, pattern in (("w:1", r"^w parameter k must be an integer >= 2, got 1$"),
                            ("w:x", r"^expected an integer parameter, got 'x'$"),
                            ("family:bogus", r"^unknown family kind 'bogus'$"))},
    # a name that is not a string
    "module_char None": (lambda: module_char(None, 3), ParameterError),
    "module_char 3": (lambda: module_char(3, 3), ParameterError),
    "module_char_plethystic None": (lambda: module_char_plethystic(None, 3), ParameterError),
    "parse_module None": (lambda: parse_module(None), ParameterError),
    "parse_family None": (lambda: parse_family(None), ParameterError),
    "named_term pi-alt list": (lambda: named_term(1, 3, ["H[pi-alt]"]), ParameterError),
    "product_expansion None": (lambda: product_expansion(None, 2), ParameterError),
    # a degree that cannot be hashed, refused before any cache reads it
    "partitions_of list": (lambda: partitions_of([2]), ParameterError),
    "partition_index list": (lambda: partition_index([2]), ParameterError),
    "members list degree": (lambda: members(FamilySpec("all"), [3]), ParameterError),
    "check_positivity list degree": (
        lambda: check_positivity(FamilySpec("all"), [3]), ParameterError),
    "foulkes_series list trunc": (lambda: foulkes_series(0, [3]), ParameterError),
    "named_term None": (lambda: named_term(0, 3, None), ParameterError),
    "named_term list": (lambda: named_term(0, 3, ["H"]), ParameterError),
    "named_term unknown name": (
        lambda: named_term(0, 3, "bogus"), ParameterError, r"^unknown term 'bogus'$"),
    "named_term unknown bracket name": (
        lambda: named_term(0, 3, "H[bogus]"), ParameterError, r"^unknown term 'H\[bogus\]'$"),
    # a product term "A * B", or one factor behind a modifier, with no name to read
    "named_term product with no right factor": (
        lambda: named_term(0, 3, "H *"), ParameterError, r"^unknown term 'H \*'$"),
    "named_term product with no left factor": (
        lambda: named_term(0, 3, "* H"), ParameterError, r"^unknown term '\* H'$"),
    "named_term product with an unknown factor": (
        lambda: named_term(0, 3, "H * nope"), ParameterError, r"^unknown term 'nope'$"),
    "named_term bare modifier": (
        lambda: named_term(0, 3, "d/dp1"), ParameterError, r"^unknown term 'd/dp1'$"),
    "named_term modifier of an unknown name at odd degree": (
        lambda: named_term(0, 3, "p2 o nope"), ParameterError, r"^unknown term 'nope'$"),
    "named_term bracket plethysm": (
        lambda: named_term(0, 3, "X[p2]"), ParameterError, r"^unknown term 'X\[p2\]'$"),
    # a real family kind with a bad parameter keeps the family's message
    "named_term family without its k": (
        lambda: named_term(0, 3, "one-or-k"), ParameterError, "family 'one-or-k' parameter k"),
    "named_term negative weight": (lambda: named_term(-1, 3, "all"), ParameterError),
    "named_term float degree": (lambda: named_term(0, 2.0, "sym"), ParameterError),
    "table_decomposition list degree": (lambda: table_decomposition("t1", [2]), ParameterError),
    "table_decomposition list cap": (
        lambda: table_decomposition("t1", 2, [20]), ParameterError),
    # a family that is not a FamilySpec
    "members of a string": (lambda: members("all", 3), ParameterError),
    "in_family of a string": (lambda: in_family((1,), "all"), ParameterError),
    "power_sum_family of a string": (lambda: power_sum_family("all", 3), ParameterError),
    # a constructor given something that is not a mapping
    "PExpr int": (lambda: PExpr(5), ParameterError),
    "PExpr list": (lambda: PExpr([((1,), 1)]), ParameterError),
    "Series None": (lambda: Series(None, 3), ParameterError),
    # a series component that is not a PExpr, falsy or not
    "Series component int": (
        lambda: Series({1: 5}, 3), ParameterError, r"^series component must be a PExpr, got 5$"),
    "Series component None": (lambda: Series({1: None}, 3), ParameterError),
    "Series.from_function of ints": (lambda: Series.from_function(lambda d: 3, 2), ParameterError),
    # a power-sum or series argument of another type
    "omega of an int": (
        lambda: omega(5), ParameterError, r"^omega argument must be a PExpr, got 5$"),
    "plethysm_p of an int": (lambda: plethysm_p(2, 5), ParameterError),
    "plethysm_h of an int": (lambda: plethysm_h(2, 5), ParameterError),
    "plethysm_e of None": (lambda: plethysm_e(2, None), ParameterError),
    "p1_derivative of an int": (lambda: p1_derivative(5), ParameterError),
    "dimension of an int": (lambda: dimension(5, 2), ParameterError),
    "inner_product with an int": (lambda: inner_product(p(1), 3), ParameterError),
    "to_schur of an int": (lambda: to_schur(5, 3), ParameterError),
    "plethysm_into of an int": (lambda: plethysm_into(3, F), ParameterError),
    "plethystic_sum of an int": (
        lambda: plethystic_sum(5, 2), ParameterError,
        r"^plethystic_sum series must be a Series, got 5$"),
    "H_lambda over an int": (lambda: H_lambda((2, 1), 5), ParameterError),
    "E_lambda over None": (lambda: E_lambda((1,), None), ParameterError),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_each_refusal_raises_its_symcon_error(name):
    call, kind, *pattern = REFUSALS[name]
    with pytest.raises(SymconError, match=pattern[0] if pattern else None) as info:
        call()
    assert type(info.value) is kind
