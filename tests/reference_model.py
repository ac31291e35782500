"""Per-state propensities and rate-matrix rows, kept as the tests'
reference for the array kernels.

The package computes propensities for whole arrays of states at once: the
chain builder's per-parameter rate matrices (``transient._chain_basis``)
and the lockstep simulator's rates.  These functions compute one state's
numbers with a loop over reactions instead, so tests can compare the
kernels against them.
"""

from crnverify.errors import StateSpaceCapError
from crnverify.model import _falling_product, point_values


def propensity(pcrn, state, reaction_index: int, point) -> float:
    """Mass-action propensity of ``pcrn.reactions[reaction_index]`` at ``state``:
    its rate times the falling-factorial reactant count, zero whenever a
    reactant count is below its required multiplicity."""
    r = pcrn.reactions[reaction_index]
    return point_values(pcrn.params.names, point)[r.rate] * _falling_product(r.reactants, state)


def rate_matrix_row(state, pcrn, point, space) -> dict[tuple[int, ...], float]:
    """Outgoing transition rates from ``state`` as a map target -> rate.

    Reactions with the same net effect are summed.  A positive-propensity
    target missing from ``space`` means the enumeration was capped short,
    which is an error; targets leaving the conserved manifold are dropped.
    """
    row: dict[tuple[int, ...], float] = {}
    state = tuple(int(c) for c in state)
    for j, r in enumerate(pcrn.reactions):
        a = propensity(pcrn, state, j, point)
        if a <= 0.0:
            continue
        target = tuple(c + d for c, d in zip(state, r.change))
        if space.ordinals([target])[0] < 0:
            if pcrn.conserved_total is not None and sum(target) > pcrn.conserved_total:
                continue
            raise StateSpaceCapError(f"transition target {target} missing from enumerated space")
        row[target] = row.get(target, 0.0) + a
    return row
