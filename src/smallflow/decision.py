"""Randomized non-identity tests with one-sided error.

A query evaluates its cancellation polynomial at uniformly random field
points.  A nonzero value certifies that the polynomial is nonzero, hence
that the queried structure exists (NONZERO answers are never wrong); a run
of zero evaluations is a probabilistic ZERO with per-repetition failure at
most degree / field size.  Repetitions draw independent derived streams
from (seed, repetition), so verdicts are reproducible byte for byte and
monotone in the repetition count.  Every query draws its points with
TestParams.assignments at its degree, which first checks the field.

Before any field check or evaluation, every query asks
PathInstance.has_disjoint_paths() whether k disjoint paths exist at all.
When they do not, the polynomial is identically zero, and the query
answers an exact "none" (a ZERO verdict with degree None, or None) in
one linear pass.  When they do, a minimum cost exists, so only a bounded
query (decide_*) answers a probabilistic ZERO, and a minimum-cost search
that finds no nonzero slice raises RetriesExhaustedError.
"""

from __future__ import annotations

import math
from collections import namedtuple

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


class RetriesExhaustedError(RuntimeError):
    """On an instance with k disjoint paths, every repetition was a false
    zero, or every attempt (fresh seed each) failed assembly."""


def default_repetitions(n: int) -> int:
    return max(3, math.ceil(math.log2(max(n, 2))))


def slice_degree(instance: PathInstance, cap: int, least_cost=1) -> int:
    """The degree of a test of the slices up to cost cap, at edge costs
    whose least is least_cost (1 for lengths).  An answer changes only by
    a false zero at the least nonzero slice of the graph tested: the
    optimum, U* at perturbed costs, or d0 of a subgraph (deleting edges
    only zeroes variables).  That slice's monomials are k disjoint simple
    paths, of at most max_path_edges() edges, and no walk set within cap
    has more than cap // least_cost, so Schwartz-Zippel holds here."""
    return min(cap // least_cost, instance.max_path_edges())


class TestParams(namedtuple("TestParams", "field repetitions seed")):
    """Field, repetition count, and root seed for one randomized query;
    assignments() checks the field against the query's degree and draws
    the query's random points from them."""

    __slots__ = ()
    __test__ = False  # not a pytest class, despite the name

    def __new__(cls, field=GF2Field(64), repetitions=3, seed=0):
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        return super().__new__(cls, field, repetitions, seed)

    def assignments(self, m: int, degree: int, *stream):
        """One random point per repetition of a test at `degree`: the
        assignment of m edges drawn from derive_rng(seed, *stream, rep).
        A field no larger than the degree (no error bound) raises
        ValueError at the call, before any point is drawn.  Each query
        names its own stream, so its points are independent of other
        queries' and reproducible byte for byte."""
        if self.field.order <= degree:
            raise ValueError(
                f"field of size 2^{self.field.exponent} too small for a "
                f"degree-{degree} polynomial test")
        return (random_assignment(self.field, m,
                                  derive_rng(self.seed, *stream, rep))
                for rep in range(self.repetitions))


class Verdict(namedtuple("Verdict", "answer witness_assignment degree",
                         defaults=(None, None))):
    """answer: NONZERO (certain) or ZERO.  degree: the test's slice_degree;
    its ZERO errs with probability at most (degree / 2^s)^t.  None for an
    exact ZERO answered without an evaluation (below a floor, or no k
    disjoint paths at all)."""

    __slots__ = ()

    @property
    def nonzero(self) -> bool:
        return self.answer == NONZERO


def decide_disjoint_paths(instance: PathInstance, l: int,
                          params: TestParams, parallelism: int = 1) -> Verdict:
    """Do k mutually vertex-disjoint X->Y paths of total length <= l exist?

    One TablePlan at unit costs serves every repetition.  Slices are
    homogeneous of distinct degrees, and a least nonzero one lies at or
    below slice_degree(instance, l), so the tables are evaluated up to
    that degree only.  An instance without k disjoint paths at any
    length (has_disjoint_paths, checked first) is ZERO without a plan.
    Otherwise no walk set is shorter than the plan's floor, the sum of
    the sources' least lengths to a sink, so a degree below it is ZERO
    without an evaluation.  Those ZEROs are exact, with degree None;
    every other verdict states the slice degree (see Verdict).
    parallelism > 1 spreads the table engine's source rows and subset
    terms over up to that many worker processes (at most k and the
    usable cores); the verdict is the same.  A parallelism below 1 is
    refused before any check, so it fails alike on every instance.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism {parallelism} below 1")
    if not 1 <= l <= instance.k * (instance.n - 1):
        raise ValueError(
            f"length bound {l} outside [1, {instance.k * (instance.n - 1)}]")
    if not instance.has_disjoint_paths():
        return Verdict(ZERO)
    degree = slice_degree(instance, l)
    plan = TablePlan(instance, degree)
    if degree < plan.floor:
        return Verdict(ZERO)
    for f in params.assignments(instance.m, degree, "decide-length"):
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
    cost >= k).  Otherwise the field is checked against the cap's
    slice_degree, and that is the verdict's degree.
    """
    if u < 1:
        raise ValueError(f"cost bound {u} must be >= 1")
    if not instance.has_disjoint_paths():
        return Verdict(ZERO)
    cap = min(u, instance.simple_cost_cap())
    graph = ScanGraph(instance, instance.cost_list())
    if cap < graph.floor:
        return Verdict(ZERO)
    degree = slice_degree(instance, cap, min(graph.costs))
    for f in params.assignments(instance.m, degree, "decide-cost"):
        if scan_min_cost_slice(graph, f, params.field, cap=cap):
            return Verdict(NONZERO, tuple(f), degree)
    return Verdict(ZERO, degree=degree)


def min_cost_disjoint_paths(instance: PathInstance, params: TestParams, *,
                            _graph: ScanGraph | None = None) -> int | None:
    """Minimum total cost of k disjoint paths, or None if none exist.

    None is exact: has_disjoint_paths() found no k disjoint paths, before
    any field check.  Otherwise the search is least_nonzero_slice over one
    ScanGraph, capped at simple_cost_cap(), whose slice_degree the field
    is checked against before the graph is built: the least nonzero slice
    is certified by k disjoint simple paths, which cost at most the cap.
    Such paths are a walk set, so the cap is at least the graph's floor
    and the search scans at least once.  When no repetition finds a
    nonzero slice, every one was a false zero, and it raises
    RetriesExhaustedError.
    `_graph` is internal: a query that scans the same graph again
    (find_disjoint_paths) passes the ScanGraph it built at the instance's
    costs, so that it is built once; that query has already run
    has_disjoint_paths(), so it is not run again.
    """
    if _graph is None and not instance.has_disjoint_paths():
        return None
    cap, costs = instance.simple_cost_cap(), instance.cost_list()
    points = params.assignments(
        instance.m, slice_degree(instance, cap, min(costs)), "min-cost")
    graph = ScanGraph(instance, costs) if _graph is None else _graph
    best = least_nonzero_slice(graph, points, params.field, cap)
    if best is None:
        raise RetriesExhaustedError(
            f"no nonzero slice up to cost {cap} in {params.repetitions} "
            f"repetition(s), though {instance.k} disjoint paths exist")
    return best


def least_nonzero_slice(graph: ScanGraph, points, field: GF2Field,
                        cap: int) -> int | None:
    """Least cost at most cap with a nonzero slice at the graph's costs,
    over `points`, the caller's TestParams.assignments at the cap's
    degree (one per repetition, drawn as the scans read them), or None.

    One slice scan per repetition; the least nonzero slice index is the
    answer for that repetition (each monomial lives in exactly one
    exact-cost slice), and repetitions combine by taking the minimum.
    After a hit at cost `best`, later repetitions scan only to best - 1,
    since only a lower hit changes the minimum; each still tests the true
    least nonzero slice when it lies below the cap, so the error bound is
    that of the initial cap.  A scan that finds no hit below best expands
    exactly the states with d + togo <= best - 1 (scan_slices' order and
    cap), and one that hits at d* < best those with d + togo <= d*.  No
    walk set costs less than the graph's floor, so once the cap is below
    it no repetition is left that could hit, and none is run.
    """
    best = None
    points = iter(points)
    while graph.floor is not None and cap >= graph.floor:
        f = next(points, None)
        if f is None:
            break
        hit = scan_min_cost_slice(graph, f, field, cap=cap)
        if hit:
            best = hit[0]
            cap = best - 1
    return best
