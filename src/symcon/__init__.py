"""Exact arithmetic for conjugacy-type characteristics of the symmetric group.

The package computes, in exact rational arithmetic over the power-sum
basis, the characteristics of the conjugation action of S_n on itself,
its sign-twisted analogue, their even/odd coset pieces, the induced
cyclic (Foulkes-type) characters with Ramanujan-sum weights, and the
associated Schur expansions; and it ships a batch catalog that verifies
the identities and positivity statements relating all of them.
"""

from .errors import (
    CapacityError,
    CatalogError,
    DegreeError,
    ParameterError,
    SymconError,
    TruncationError,
)
from .partitions import (
    FamilySpec,
    Partition,
    conjugate,
    in_family,
    maj_multiplicity,
    maj_residues,
    members,
    parse_family,
    partition,
    partitions_of,
    syt_count,
    z_lambda,
)
from .numbertheory import moebius, ramanujan_sum, ramanujan_sum_oracle, totient
from .symfunc import (
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
    plethysm_p,
    plethystic_sum,
    product_expansion,
)
from .characters import (
    CharacterTable,
    SchurExpansion,
    alternant_oracle,
    character_table,
    mn_character,
    schur_to_power,
    to_schur,
)
from .repmodels import (
    f_eval,
    foulkes,
    foulkes_series,
    module_char,
    module_char_plethystic,
    power_sum_family,
)
from .verify import (
    CheckResult,
    check_identity,
    check_positivity,
    conjecture_scan,
    counterexamples,
    per_class_coverage,
    reproduce_table,
    run_selector,
)

__version__ = "0.1.0"
