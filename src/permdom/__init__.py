"""Domination properties of permutation graphs.

Exact dominating-set solvers, the counting formulas for domination-number-1
and pair/efficient domination, extremal comb constructions, strong-fixed-
point sequences, and an exhaustive oracle that cross-validates all of it
over small S_n.
"""
from .constructions import (
    CombWitness,
    comb_sigma,
    comb_tau,
    connected_with_gamma,
    extend_preserving_gamma,
    is_comb,
)
from .counting import (
    disconnected_count,
    efficient_dom_count,
    f1,
    g1,
    pair_count_adjacent,
    pair_count_nonadjacent,
    singleton_dom_count,
)
from .domination import (
    DominationResult,
    all_minimum_dominating_sets,
    count_minimum_dominating_sets,
    count_singleton_dominators,
    domination_number_exact,
    heuristic_dominating_set,
    quick_rule_position_ends,
    quick_rule_value_ends,
)
from .graph import (
    PermutationGraph,
    build_graph,
    components,
    degree_bound_check,
    is_connected,
    is_connected_search,
)
from .oracle import TallyReport, full_tally
from .perm import (
    Permutation,
    parse_permutation,
    reverse,
    strong_fixed_points,
)
from .sequences import (
    RationalPolynomial,
    StOffsetFamily,
    lift_families,
    sequence_table,
    st,
    st_closed_form,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
