"""Randomized non-identity tests with one-sided error.

A query evaluates its cancellation polynomial at uniformly random field
points.  A nonzero value certifies that the polynomial is nonzero, hence
that the queried structure exists (NONZERO answers are never wrong); a run
of zero evaluations is a probabilistic ZERO with per-repetition failure at
most degree / field size.  Repetitions draw independent derived streams
from (seed, repetition), so verdicts are reproducible byte for byte and
monotone in the repetition count.

Before any evaluation, after its input checks, every query asks
PathInstance.has_disjoint_paths() whether k disjoint paths exist at all.
When they do not, the polynomial is identically zero, and the query
answers an exact "none" (a ZERO verdict with degree None, or None) in
one linear pass, without building a scan graph, evaluating a table plan
or drawing an assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

from .evaluator import (
    ScanGraph,
    TablePlan,
    eval_length_bounded_seq,
    random_assignment,
    scan_min_cost_slice,
)
from .field import GF2Field, derive_rng
from .network import PathInstance

NONZERO = "NONZERO"
ZERO = "ZERO"


def default_repetitions(n: int) -> int:
    return max(3, math.ceil(math.log2(max(n, 2))))


@dataclass(frozen=True)
class TestParams:
    """Field, repetition count, and root seed for one randomized query;
    assignments() draws the query's random points from them."""

    __test__ = False  # not a pytest class, despite the name

    field: GF2Field = dataclass_field(default_factory=lambda: GF2Field(64))
    repetitions: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    def check_degree(self, degree: int):
        """The error bound d/r needs the field larger than the degree."""
        if self.field.order <= degree:
            raise ValueError(
                f"field of size 2^{self.field.exponent} too small for a "
                f"degree-{degree} polynomial test")

    def assignments(self, m: int, *stream):
        """One random point per repetition: the assignment of m edges
        drawn from derive_rng(seed, *stream, rep).  Each query names its
        own stream, so its points are independent of other queries' and
        reproducible byte for byte."""
        for rep in range(self.repetitions):
            yield random_assignment(self.field, m,
                                    derive_rng(self.seed, *stream, rep))


@dataclass(frozen=True)
class Verdict:
    answer: str  # NONZERO (certain) or ZERO
    witness_assignment: tuple | None = None
    # degree of the polynomial the query evaluated, whose ZERO errs with
    # probability at most (degree / 2^s)^t; None for an exact ZERO answered
    # without an evaluation (below a floor, or no k disjoint paths at all)
    degree: int | None = None

    @property
    def nonzero(self) -> bool:
        return self.answer == NONZERO


def decide_disjoint_paths(instance: PathInstance, l: int,
                          params: TestParams, parallelism: int = 1) -> Verdict:
    """Do k mutually vertex-disjoint X->Y paths of total length <= l exist?

    One TablePlan at unit costs serves every repetition.  The tables are
    evaluated at degree min(l, max_path_edges()): slices are homogeneous
    of distinct degrees, and the least nonzero one, when there is one, is
    certified by k disjoint simple paths, which have at most that many
    edges.  So the polynomial at l is nonzero exactly when it is nonzero
    at the clamped degree.  No walk set is shorter than the plan's floor,
    the sum of the sources' least lengths to a sink, so a clamped degree
    below it, or a source that reaches no sink, is ZERO without an
    evaluation; so is an instance without k disjoint paths at any length
    (has_disjoint_paths).  Those ZEROs are exact (their verdict has degree
    None; every other verdict has the clamped degree).  NONZERO is
    certain; an evaluated ZERO errs with probability at most
    (degree / 2^s)^t.
    parallelism > 1 spreads the pair recurrence's source rows over up to
    that many worker processes (at most k); the verdict is the same.
    """
    if not 1 <= l <= instance.k * (instance.n - 1):
        raise ValueError(
            f"length bound {l} outside [1, {instance.k * (instance.n - 1)}]")
    degree = min(l, instance.max_path_edges())
    if not degree:  # no edges at all
        return Verdict(ZERO)
    plan = TablePlan(instance, degree, [1] * instance.m)
    if plan.floor is None or degree < plan.floor \
            or not instance.has_disjoint_paths():
        return Verdict(ZERO)
    params.check_degree(degree)
    for f in params.assignments(instance.m, "decide-length"):
        if eval_length_bounded_seq(plan, f, params.field, parallelism):
            return Verdict(NONZERO, tuple(f), degree)
    return Verdict(ZERO, degree=degree)


def decide_cost_bounded(instance: PathInstance, u: int,
                        params: TestParams) -> Verdict:
    """Do k disjoint paths of total cost <= u exist?

    Scans exact-cost slices upward, capped by min(u, simple-set cost
    bound): when the cost-bounded polynomial is nonzero at all, its least
    nonzero slice is witnessed by simple paths and lies under that cap.
    The ZERO is exact, with degree None and no assignment drawn, when no k
    disjoint paths exist at all (has_disjoint_paths, checked before the
    scan graph is built) or when the cap is below the graph's floor, the
    least cost of any walk set; bounds below k are such a case (k walks
    cost >= k).  Otherwise the verdict's degree is the cap.
    """
    if u < 1:
        raise ValueError(f"cost bound {u} must be >= 1")
    cap = min(u, instance.simple_cost_cap())
    params.check_degree(cap)
    if not instance.has_disjoint_paths():
        return Verdict(ZERO)
    graph = ScanGraph(instance, instance.cost_list())
    if cap < graph.floor:
        return Verdict(ZERO)
    for f in params.assignments(instance.m, "decide-cost"):
        if scan_min_cost_slice(graph, f, params.field, cap=cap):
            return Verdict(NONZERO, tuple(f), cap)
    return Verdict(ZERO, degree=cap)


def min_cost_disjoint_paths(instance: PathInstance,
                            params: TestParams,
                            u_max: int | None = None, *,
                            _graph: ScanGraph | None = None) -> int | None:
    """Minimum total cost of k disjoint paths, or None if none exist.

    None is exact, and no scan graph is built, when has_disjoint_paths()
    finds no k disjoint paths at all; otherwise it is probabilistic.
    The search is least_nonzero_slice over one ScanGraph, capped at
    min(u_max, simple_cost_cap()).  `_graph` is internal: a query that
    scans the same graph again (find_disjoint_paths) passes the ScanGraph
    it built at the instance's costs, so that it is built once; that
    query has already run has_disjoint_paths(), so it is not run again.
    """
    if u_max is None:
        u_max = instance.max_cost() * instance.n * instance.n
    if u_max < instance.k:
        raise ValueError(f"cost ceiling {u_max} below k = {instance.k}")
    cap = min(u_max, instance.simple_cost_cap())
    params.check_degree(cap)
    graph = _graph
    if graph is None:
        if not instance.has_disjoint_paths():
            return None
        graph = ScanGraph(instance, instance.cost_list())
    return least_nonzero_slice(graph, params, cap, "min-cost")


def least_nonzero_slice(graph: ScanGraph, params: TestParams, cap: int,
                        stream: str) -> int | None:
    """Least cost at most cap with a nonzero slice at the graph's costs,
    over one assignment per repetition drawn from `stream`, or None.

    One slice scan per repetition; the least nonzero slice index is the
    answer for that repetition (each monomial lives in exactly one
    exact-cost slice), and repetitions combine by taking the minimum.
    After a hit at cost `best`, later repetitions scan only to best - 1,
    since only a lower hit changes the minimum; each still tests the true
    least nonzero slice when it lies below the cap, so the error bound is
    that of the initial cap.  No walk set costs less than the graph's
    floor, so once the cap is below it no repetition is left that could
    hit, and none is run.
    """
    best = None
    for f in params.assignments(graph.instance.m, stream):
        if graph.floor is None or cap < graph.floor:
            break
        hit = scan_min_cost_slice(graph, f, params.field, cap=cap)
        if hit:
            best = hit[0]
            cap = best - 1
    return best
