"""Finite linear spaces, predimension calculus, and seeded construction
of approximations to strongly minimal Steiner systems."""

from .amalgam import AmalgamResult, amalgamate_or_identify, free_amalgam
from .builder import (
    BuildStep,
    BuildTrace,
    build,
    chain_link_pair,
    default_templates,
    parse_trace_v1,
    stats,
    to_trace_v1,
)
from .dimension import (
    StrongExtensionWitness,
    check_exchange,
    check_flatness,
    d,
    d_closure,
    d_table,
    delta_table,
    icl,
    in_K0,
    is_strong,
    min_delta_interval,
)
from .errors import (
    AxiomViolation,
    BaseMismatch,
    BoundTooSmall,
    FormatError,
    NotStrong,
    NotZeroPrimitive,
    PairNotOnTriple,
    SizeLimit,
    SteinerGeomError,
    TooManyPoints,
)
from .gallery import CycleGraph, D_k, cycle_Ck, cycle_graph, fano, fano_chain
from .interop import (
    IncidenceStructure,
    PBDRecord,
    check_matroid_exchange,
    matroid_dependent,
    parse_inc_v1,
    to_inc_v1,
    to_one_sorted,
    to_pbd,
    to_pbd_text,
    to_two_sorted,
)
from .mu import (
    MuFunction,
    in_K_mu_bounded,
    mu_X,
    parse_mu_v1,
    to_mu_v1,
    validate_mu,
)
from .primitives import (
    ALPHA_CODE,
    GoodPair,
    alpha_pair,
    bases_of,
    canonical_code,
    chi,
    copies_over_base,
    decode_code,
    decompose,
    enumerate_good_pairs,
    is_good_pair,
    is_primitive,
    parse_gp_v1,
    to_gp_v1,
)
from .sampling import random_k0, random_space, random_strong_subset
from .space import (
    LinearSpace,
    delta,
    delta_rel,
    induced,
    lines_based_in,
    pair_coverage,
    parse_ls_v1,
    to_ls_v1,
    validate,
)

__version__ = "0.1.0"
