"""Minimum-cost small integral flows and vertex-disjoint connecting paths.

Randomized decision, pricing, and construction built on evaluations of
cancellation polynomials over GF(2^s), with brute-force oracles at desk
scale backing every randomized answer.
"""

from .field import GF2Field, derive_rng
from .network import (
    FlowInstance,
    ParseError,
    PathInstance,
    ProperWalkSet,
    Walk,
    parse_dimacs_flow,
    parse_paths_instance,
    random_flow_instance,
    random_paths_instance,
    serialize_dimacs_flow,
    serialize_paths_instance,
)
from .evaluator import (
    BudgetError,
    TablePlan,
    eval_length_bounded_seq,
    random_assignment,
)
from .decision import (
    NONZERO,
    RetriesExhaustedError,
    TestParams,
    Verdict,
    ZERO,
    decide_cost_bounded,
    decide_disjoint_paths,
    default_repetitions,
    min_cost_disjoint_paths,
)
from .extraction import (
    AssemblyError,
    PathSet,
    assemble_paths,
    classify_edges,
    find_disjoint_paths,
    find_min_perturbed_cost,
    perturb_costs,
)
from .flow import (
    Flow,
    GadgetNetwork,
    build_gadget_network,
    extract_cost,
    min_cost_flow,
    recover_flow,
    validate_flow,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
