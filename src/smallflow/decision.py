"""Randomized non-identity tests with one-sided error.

A query evaluates its cancellation polynomial at uniformly random field
points, drawn by TestParams.assignments at the query's degree.  A nonzero
value certifies that the queried paths exist, so NONZERO is never wrong;
a run of t zero evaluations is a ZERO that errs with probability at most
(degree / 2^s)^t (Schwartz-Zippel).  The degree is never above n - 1,
n the vertex count of the graph tested, so default_repetitions(n, s) is
the least t that puts this bound at or below 2^-max(n, 64).  TestParams
owns t: the count given, or by default that least t, which
assignments() resolves for each test from the graph it runs on (for a
flow, its gadget).  Each repetition draws from its own (seed,
repetition) stream, so verdicts are reproducible byte for byte.

Every query first asks PathInstance.has_disjoint_paths() whether k
disjoint paths exist at all.  When they do not, it answers an exact
"none" (a ZERO with degree None, or None) before any field check.  When
they do, a minimum cost exists, so only a bounded query (decide_*)
answers a probabilistic ZERO, and a minimum-cost search that finds no
nonzero slice raises RetriesExhaustedError.
"""

from __future__ import annotations

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


def default_repetitions(n: int, field_exponent: int = 64) -> int:
    """The repetition count t of a test on a graph of n vertices when
    TestParams gives none: the least t with ((n - 1) / 2^s)^t <=
    2^-max(n, 64), s the field exponent, found in integers as
    (n - 1)^t * 2^max(n, 64) <= 2^(s t).

    Every test's degree is a slice_degree, at most max_path_edges() <=
    n - 1, so a probabilistic ZERO at this t errs with probability at
    most 2^-max(n, 64), exponentially small in n.  A field with
    2^s <= n - 1 meets the target at no t: ValueError, naming the
    field."""
    degree, target = max(n - 1, 0), max(n, 64)
    if 1 << field_exponent <= degree:
        raise ValueError(
            f"field of size 2^{field_exponent} meets no error target at "
            f"n = {n}: a test's degree reaches n - 1 = {degree}")

    def meets(t):
        return (degree ** t << target) <= 1 << (field_exponent * t)

    low, high = 0, 1  # meets(0) is false: 2^target > 1
    while not meets(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        if meets(mid):
            high = mid
        else:
            low = mid
    return high


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
    """Field, repetition count, and root seed for one randomized query.

    repetitions is a count >= 1, used as given, or None (the default):
    each test then draws default_repetitions(n, s) points, n the vertex
    count of the graph it runs on, so its ZERO errs with probability at
    most 2^-max(n, 64).  assignments() resolves the count, checks the
    field against the test's degree and draws the test's points."""

    __slots__ = ()
    __test__ = False  # not a pytest class, despite the name

    def __new__(cls, field=GF2Field(64), repetitions=None, seed=0):
        if repetitions is not None and repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        return super().__new__(cls, field, repetitions, seed)

    def repetitions_for(self, n: int) -> int:
        """The count of points a test on a graph of n vertices draws."""
        return self.repetitions or default_repetitions(n, self.field.exponent)

    def assignments(self, instance: PathInstance, degree: int, *stream):
        """One random point per repetition of a test of instance at
        `degree`: repetitions_for(instance.n) assignments of its m edges,
        each drawn from derive_rng(seed, *stream, rep).  A field no
        larger than the degree (no error bound), or one that meets no
        error target at the default count, raises ValueError at the
        call, before any point is drawn.  Each query names its own
        stream, so its points are independent of other queries' and
        reproducible byte for byte."""
        if self.field.order <= degree:
            raise ValueError(
                f"field of size 2^{self.field.exponent} too small for a "
                f"degree-{degree} polynomial test")
        return (random_assignment(self.field, instance.m,
                                  derive_rng(self.seed, *stream, rep))
                for rep in range(self.repetitions_for(instance.n)))


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
    """The Verdict on whether k vertex-disjoint X->Y paths of total length
    <= l exist, for l in [1, k(n - 1)] (ValueError otherwise).

    One TablePlan at unit costs serves every repetition, evaluated up to
    degree = slice_degree(instance, l) only: the least nonzero slice lies
    at or below it.  The ZERO is exact, with degree None and no
    evaluation, when has_disjoint_paths() finds no k disjoint paths or
    the degree is below the plan's floor (no walk set is shorter); every
    other verdict states the degree (Verdict).  parallelism > 1 spreads
    the table engine over up to that many worker processes with the
    same verdict; below 1 it raises ValueError before any check.
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
    for f in params.assignments(instance, degree, "decide-length"):
        if eval_length_bounded_seq(plan, f, params.field, parallelism):
            return Verdict(NONZERO, tuple(f), degree)
    return Verdict(ZERO, degree=degree)


def decide_cost_bounded(instance: PathInstance, u: int,
                        params: TestParams) -> Verdict:
    """The Verdict on whether k disjoint paths of total cost <= u exist,
    for u >= 1 (ValueError otherwise).

    One scan per repetition, capped at min(u, simple_cost_cap()): the
    least nonzero slice, when there is one, is witnessed by simple paths
    under that cap.  The ZERO is exact, with degree None and no point
    drawn, when has_disjoint_paths() finds no k disjoint paths or the
    cap is below the graph's floor (no walk set costs less); otherwise
    the verdict's degree is the cap's slice_degree, which the field is
    checked against.
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
    for f in params.assignments(instance, degree, "decide-cost"):
        if scan_min_cost_slice(graph, f, params.field, cap=cap):
            return Verdict(NONZERO, tuple(f), degree)
    return Verdict(ZERO, degree=degree)


def min_cost_disjoint_paths(instance: PathInstance, params: TestParams, *,
                            _graph: ScanGraph | None = None) -> int | None:
    """Minimum total cost of k disjoint paths, or None if none exist.

    None is exact: has_disjoint_paths() found no k disjoint paths, before
    any field check.  Otherwise the search is least_nonzero_slice over one
    ScanGraph, capped at simple_cost_cap(), whose slice_degree the field
    is checked against before the graph is built.  A cost it returns is
    never below the optimum (a nonzero slice certifies k pairwise
    disjoint walks of that cost), and above it only when every
    repetition misses the optimum's slice, each with probability at most
    degree / 2^s.  When none finds a nonzero slice it raises
    RetriesExhaustedError.  `_graph` is internal:
    find_disjoint_paths passes the ScanGraph it built at the instance's
    costs, after its own has_disjoint_paths() check.
    """
    if _graph is None and not instance.has_disjoint_paths():
        return None
    cap, costs = instance.simple_cost_cap(), instance.cost_list()
    points = params.assignments(
        instance, slice_degree(instance, cap, min(costs)), "min-cost")
    graph = ScanGraph(instance, costs) if _graph is None else _graph
    best = least_nonzero_slice(graph, points, params.field, cap)
    if best is None:
        raise RetriesExhaustedError(
            f"no nonzero slice up to cost {cap} in "
            f"{params.repetitions_for(instance.n)} repetition(s), though "
            f"{instance.k} disjoint paths exist")
    return best


def least_nonzero_slice(graph: ScanGraph, points, field: GF2Field,
                        cap: int) -> int | None:
    """Least cost at most cap with a nonzero slice at the graph's costs,
    over `points`, the caller's TestParams.assignments at the cap's
    degree (one per repetition, drawn as the scans read them), or None.
    A nonzero slice certifies its cost; the answer misses the least one
    only when it vanishes at every point.

    One scan per repetition; repetitions combine by taking the minimum.
    After a hit at cost `best`, later repetitions scan only to best - 1,
    since only a lower hit changes the minimum; each still tests the
    true least nonzero slice when it lies below the cap, so the error
    bound is that of the initial cap.  No walk set costs less than the
    graph's floor, so once the cap is below it no repetition is run.
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
