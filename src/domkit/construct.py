"""Explicit periodic dominating sets attaining the closed-form ratio.

Three block-structure templates cover every non-modular case:

    (d^k, e)                       density (k+1)/(d*k+e)
    (d^(k-1), d+e, d^(k-1), 1^e)   density (2k+e-1)/(2dk-d+2e)
    (d-1)                          density 1/(d-1)

Their densities are the three terms of the closed form, in the order
formula.domination_ratio lists them.  construct_best takes the template
of the term that the case split names, builds and converts only that
one to a periodic set, and refuses to return anything whose density is
not the ratio or that fails the domination check.  Checking one period
is exact for the periodic lift to Z, and the check is an OR of the
rotations of one n-bit residue mask (model.covers_cycle):
min(|residues|, |steps| + 1) shifts of a period-long integer.
"""

from __future__ import annotations

from .formula import RatioCase, RatioResult, domination_ratio, family_set
from .model import (
    BlockStructure,
    ConsistencyError,
    Decomposition,
    DifferenceSet,
    PeriodicSet,
    block_to_periodic,
    blocks_of,
    covers_cycle,
    density,
)


# largest d or emitted template period construct_best accepts; it builds
# only the emitted template and makes it a set of residues one period
# long, and every template is a tuple of at most 2k + d <= 3 * MAX_PERIOD
# blocks, since the case split gives k < d in CASE_D_MINUS_1 and
# d*k < period otherwise
MAX_PERIOD = 2**20

# index in candidate_structures (and _template's i) of the template whose
# density is the case's term
_TEMPLATE_OF = {RatioCase.CASE_E_GE_2: 0, RatioCase.CASE_E_EQ_1: 1, RatioCase.CASE_D_MINUS_1: 2}


def candidate_structures(dec: Decomposition) -> list[BlockStructure]:
    """The three templates instantiated at (d, k, e); d-runs vanish at k=1.

    Their order follows the three RatioCase terms, CASE_E_GE_2, CASE_E_EQ_1
    and CASE_D_MINUS_1: each template's block density is its case's term.
    """
    return [_template(dec, i) for i in range(3)]


def _template(dec: Decomposition, i: int) -> BlockStructure:
    """Template i of candidate_structures(dec), built alone."""
    d, k, e = dec.d, dec.k, dec.e
    if i == 0:
        return BlockStructure((d,) * k + (e,))
    if i == 1:
        return BlockStructure((d,) * (k - 1) + (d + e,) + (d,) * (k - 1) + (1,) * e)
    return BlockStructure((d - 1,))


def verify_dominating(pset: PeriodicSet, steps: DifferenceSet) -> bool:
    """Whether pset + steps covers Z, checked on one full period.

    The residue mask is rotated by each offset in {0} | steps mod period, or
    the offset mask by each residue, whichever set is smaller; a pair of
    sets too small to cover the period returns False without a mask.
    """
    p = pset.period
    offsets = {t % p for t in steps}
    offsets.add(0)
    return covers_cycle(p, pset.residues, offsets)


def verify_efficient(pset: PeriodicSet, steps: DifferenceSet) -> bool:
    """Whether every integer is dominated exactly once by the lift of pset.

    Each step is an offset in its own right: two steps congruent mod period
    give two distinct dominators in Z.  So the lift is efficient when it
    dominates and |residues| * (|steps| + 1) equals the period; steps that
    collide mod period then leave some residue uncovered.
    """
    p = pset.period
    return len(pset.residues) * (len(steps) + 1) == p and verify_dominating(pset, steps)


def construct_best(d: int, s: int) -> tuple[PeriodicSet, RatioResult]:
    """A verified periodic dominating set whose density is the exact ratio."""
    if d > MAX_PERIOD:
        raise ValueError(f"d = {d} above the construction limit {MAX_PERIOD}")
    result = domination_ratio(d, s)
    dec = result.decomposition
    if dec is not None:
        k, e = dec.k, dec.e
        # the period of the template the case names, in candidate_structures' order
        period = (d * k + e, 2 * d * k - d + 2 * e, d - 1)[_TEMPLATE_OF[result.case]]
        if period > MAX_PERIOD:
            raise ValueError(f"template period for s = {s} above the construction limit {MAX_PERIOD}")
    steps = family_set(d, s)
    if result.case is RatioCase.EDS_MOD:
        pset = PeriodicSet(d, frozenset({0}))
    else:
        pset = block_to_periodic(_template(dec, _TEMPLATE_OF[result.case]))
    if density(pset) != result.value or not verify_dominating(pset, steps):
        raise ConsistencyError(f"construction invalid for ({d}, {s})")
    return pset, result


def check_block_lemma(pset: PeriodicSet, d: int, s: int) -> bool:
    """Whether all blocks obey the size bound that any dominating set of the
    family must satisfy: b <= s+1 for s > 0, b <= -s+d-1 for s < 0.

    Raises ValueError if pset does not dominate, since the bound holds
    only for dominating sets."""
    steps = family_set(d, s)
    if not verify_dominating(pset, steps):
        raise ValueError("not a dominating set")
    bound = s + 1 if s > 0 else -s + d - 1
    # BlockStructure already holds every size to >= 1
    return max(blocks_of(pset).sizes) <= bound
