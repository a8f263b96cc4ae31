"""domkit: exact domination for integer distance digraphs and circulants.

The digraph on Z with step set S has edges x -> x + s for s in S.  For the
family S = {1, ..., d-2, s} the domination ratio has a closed form, an
explicit periodic dominating set attains it, and finite circulant
quotients certify it.  This package computes all three and cross-checks
them against each other.
"""

from .construct import (
    candidate_structures,
    check_block_lemma,
    construct_best,
    verify_dominating,
    verify_efficient,
)
from .formula import (
    RatioCase,
    RatioResult,
    decompose,
    domination_ratio,
    eds_exists_family,
    family_set,
    general_bounds,
    normalize,
)
from .model import (
    BlockStructure,
    CirculantInstance,
    ConsistencyError,
    Decomposition,
    DifferenceSet,
    PeriodicSet,
    block_to_periodic,
    blocks_of,
    density,
    format_ratio,
)
from .search import (
    ConsistencyReport,
    SearchReport,
    consistency_check,
    search_ratio,
)
from .solver import (
    GammaCertificate,
    gamma_bruteforce,
    gamma_exact,
    kernel_name,
    perfect_code_exists,
    reduce_mod,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BlockStructure",
    "CirculantInstance",
    "ConsistencyError",
    "ConsistencyReport",
    "Decomposition",
    "DifferenceSet",
    "GammaCertificate",
    "PeriodicSet",
    "RatioCase",
    "RatioResult",
    "SearchReport",
    "block_to_periodic",
    "blocks_of",
    "candidate_structures",
    "check_block_lemma",
    "consistency_check",
    "construct_best",
    "decompose",
    "density",
    "domination_ratio",
    "eds_exists_family",
    "family_set",
    "format_ratio",
    "gamma_bruteforce",
    "gamma_exact",
    "general_bounds",
    "kernel_name",
    "normalize",
    "perfect_code_exists",
    "reduce_mod",
    "search_ratio",
    "verify_dominating",
    "verify_efficient",
    "verify_witness",
]
