"""Construction of a minimum-cost set of k vertex-disjoint paths.

Two strategies return a PathSet of the same least original cost:

* deletion (the default): with the optimum D0 known, classify_edges
  walks the edges in id order and deletes each one whose removal still
  leaves a cost-D0 set among the survivors.  What remains is the support
  of a single optimal set.  It needs no perturbed costs.  It is the
  faster strategy on path instances, and isolation on small flow gadgets
  (ROADMAP, "Measured and kept": deletion as the default strategy).

* isolation, the paper's construction (Mulmuley-Vazirani-Vazirani):
  perturb edge costs to c'(e) = c(e)*(r*m + 1) + w(e) with random weights
  w(e) in [1, r], r = n^2 m, making the minimum-cost set unique with
  probability >= 1 - m/r = 1 - 1/n^2; build the scan graph at the
  perturbed costs, the same scan that the optimum and deletion use; find
  the minimum perturbed cost U*, its least nonzero slice; mark the
  essential edges with classify_edges at U*; assemble them into paths,
  of original cost U* // (r*m + 1).  It runs no search at the
  instance's costs.  Where a tie, between optima or with a colliding
  walk system, leaves some edge unsettled by the support at U*, the
  polynomial tests run on exactly those edges.

Either way every test checks its field at decision.slice_degree.  An
answer errs only by a false zero in the search for D0 or U*.  An edge
test runs at one point: its false zero fails assembly, and the attempt
is retried with fresh randomness.
"""

from __future__ import annotations

from collections import namedtuple

from .decision import (
    RetriesExhaustedError,
    TestParams,
    least_nonzero_slice,
    min_cost_disjoint_paths,
    slice_degree,
)
from .evaluator import ScanGraph, scan_min_cost_slice, slice_support
# not called here: kept only because perfbench/tracing.py patches this
# name, until ROADMAP item 15 or phase B of item 2 frees it
from .evaluator import scan_min_cost_slice as perturbed_scan  # noqa: F401
from .field import derive_rng
from .network import PathInstance


class AssemblyError(RuntimeError):
    """Essential edges do not form k disjoint paths of the expected cost."""


class PathSet(namedtuple("PathSet", "paths edge_ids total_cost")):
    """k pairwise vertex-disjoint simple paths, one per terminal pair:
    paths holds vertex tuples, in source order, edge_ids the matching
    edge-id tuples, and total_cost is under the instance's original
    costs."""

    __slots__ = ()

    @property
    def k(self):
        return len(self.paths)

    def all_edge_ids(self):
        return [e for es in self.edge_ids for e in es]


def perturb_costs(instance: PathInstance, r: int, rng) -> tuple:
    """Isolation-perturbed costs c'(e) = c(e)*scale + w(e), edge by edge,
    with w(e) = rng.randint(1, r) drawn in id order and scale = r*m + 1.

    The scale exceeds any weight sum over distinct edges (at most r*m), so
    a set's perturbed total decomposes as original_cost * scale +
    weight_sum.
    """
    if r < 1:
        raise ValueError("isolation range must be >= 1")
    scale = r * instance.m + 1
    return tuple(c * scale + rng.randint(1, r) for c in instance.cost_list())


def paper_isolation_range(instance: PathInstance) -> int:
    """The isolation range r = n^2 m: weights in [1, r] make the optimum
    unique with probability >= 1 - m/r = 1 - 1/n^2."""
    return instance.n * instance.n * instance.m


def find_min_perturbed_cost(pgraph: ScanGraph,
                            params: TestParams) -> int | None:
    """Least perturbed cost U* of a disjoint path set, or None when no
    repetition finds one.

    The search is min_cost_disjoint_paths' (least_nonzero_slice) on
    pgraph, a ScanGraph at perturbed costs, capped at their
    simple_cost_cap, at that cap's slice_degree.
    """
    cap = pgraph.instance.simple_cost_cap(pgraph.costs)
    degree = slice_degree(pgraph.instance, cap, min(pgraph.costs))
    points = params.assignments(pgraph.instance, degree, "find-perturbed")
    return least_nonzero_slice(pgraph, points, params.field, cap)


def classify_edges(graph: ScanGraph, d: int, point, field) -> set:
    """The edge ids of one disjoint path set of cost d, d the least
    nonzero slice of graph (a ScanGraph at any costs) that the caller's
    search found, unless a false zero at point (the caller's one
    assignment at d's degree) kept an edge that could go: assemble_paths
    then fails, which costs a retry, never a wrong answer.

    slice_support settles most edges without a scan, before the first
    test and again after each deletion: an edge on no walk set of cost d
    is deleted (its variable is not in slice d), and one on every such
    set is kept (deleting it empties slice d, and the slices below d are
    zero).  Every other edge is tested in id order by one scan at point,
    and deleted for good when that scan finds a nonzero slice at or below
    d without it.  Colliding walk systems cancel in pairs with the same
    edges, so what remains is one disjoint path set of cost d.
    """
    m = graph.instance.m
    live, forced = slice_support(graph, [True] * m, d)
    for eid in range(m):
        if not live[eid] or forced[eid]:
            continue
        live[eid] = False
        # Subgraphs only ever raise the optimum, so any hit means == d.
        if scan_min_cost_slice(
                graph, [fe if keep else 0 for fe, keep in zip(point, live)],
                field, cap=d):
            live, forced = slice_support(graph, live, d)
        else:
            live[eid] = True
    return {e for e in range(m) if live[e]}


def assemble_paths(instance: PathInstance, essential, cost_map,
                   expected_total: int) -> PathSet:
    """Check that the essential edges are exactly k disjoint paths.

    Degree conditions (every internal endpoint on exactly one in- and one
    out-edge, sources only out, sinks only in), tracing from each source,
    no leftover edges (a leftover cycle or stray edge means the tests did
    not isolate), and the total under cost_map must equal expected_total.
    Raises AssemblyError naming the first violated condition.

    Once the degrees hold, each trace ends at a sink: an edge's head is a
    sink or a non-terminal with one out-edge, and a trace's first repeated
    vertex would be the source (which has no in-edge) or would share its
    one in-edge with an earlier vertex, repeated before it.
    """
    essential = sorted(essential)
    out_by_vertex = {}
    in_by_vertex = {}
    for eid in essential:
        u, v = instance.tails[eid], instance.heads[eid]
        out_by_vertex.setdefault(u, []).append(eid)
        in_by_vertex.setdefault(v, []).append(eid)
    for v in set(out_by_vertex) | set(in_by_vertex):
        outs = len(out_by_vertex.get(v, ()))
        ins = len(in_by_vertex.get(v, ()))
        if v in instance.source_index:
            if outs != 1 or ins != 0:
                raise AssemblyError(
                    f"degree violation at source {v}: out={outs} in={ins}")
        elif v in instance.sink_index:
            if ins != 1 or outs != 0:
                raise AssemblyError(
                    f"degree violation at sink {v}: out={outs} in={ins}")
        elif outs != 1 or ins != 1:
            raise AssemblyError(
                f"degree violation at vertex {v}: out={outs} in={ins}")
    paths = []
    edge_ids = []
    used = set()
    for x in instance.sources:
        if x not in out_by_vertex:
            raise AssemblyError(f"source {x} has no essential edge")
        vs = [x]
        es = []
        v = x
        while v not in instance.sink_index:
            eid = out_by_vertex[v][0]
            es.append(eid)
            used.add(eid)
            v = instance.heads[eid]
            vs.append(v)
        paths.append(tuple(vs))
        edge_ids.append(tuple(es))
    if len(used) != len(essential):
        raise AssemblyError(
            f"{len(essential) - len(used)} essential edges off every path")
    total = sum(cost_map[e] for e in used)
    if total != expected_total:
        raise AssemblyError(
            f"assembled cost {total} != expected {expected_total}")
    original = sum(instance.cost(e) for e in used)
    return PathSet(paths=tuple(paths), edge_ids=tuple(edge_ids),
                   total_cost=original)


def _isolation_attempt(instance, params, attempt, r):
    rng = derive_rng(params.seed, "perturb", attempt)
    perturbed = perturb_costs(instance, r, rng)
    sub = params._replace(seed=derive_rng(params.seed, "attempt", attempt)
                          .getrandbits(63))
    pgraph = ScanGraph(instance, list(perturbed))
    u_star = find_min_perturbed_cost(pgraph, sub)
    if u_star is None:
        raise AssemblyError("no perturbed optimum found")
    return _settle(pgraph, u_star, sub, "isolation-tests")


def _deletion_attempt(instance, params, attempt, d0, graph):
    return _settle(graph, d0, params, "deletion", attempt)


def _settle(graph, d, params, *stream):
    """classify_edges at d, graph's least nonzero slice, by one point of
    stream at slice_degree; then assemble_paths at graph.costs."""
    degree = slice_degree(graph.instance, d, min(graph.costs))
    point = next(params.assignments(graph.instance, degree, *stream))
    essential = classify_edges(graph, d, point, params.field)
    return assemble_paths(graph.instance, essential, graph.costs, d)


def find_disjoint_paths(instance: PathInstance, params: TestParams,
                        max_retries: int = 3, strategy: str = "deletion",
                        report: dict | None = None) -> PathSet | None:
    """Minimum original-cost PathSet, or None when no k disjoint paths exist.

    strategy is "deletion" (the default) or "isolation", the paper's route,
    with weights from [1, r], r = paper_isolation_range(instance).  A dict
    passed as `report` receives strategy, attempts made and, under
    isolation, r.  None is exact, with 0 attempts, before any field check
    or scan graph: has_disjoint_paths() found no k disjoint paths.
    Deletion first finds the optimum d0 on the ScanGraph that its attempts
    share; isolation builds one per attempt.  An answer errs only by a
    false zero in the search for d0 or U*; an edge test's costs a retry.
    A search's false zeros, or failed attempts, raise
    RetriesExhaustedError.
    """
    if strategy not in ("isolation", "deletion"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if max_retries < 0:
        raise ValueError(f"max_retries {max_retries} below 0")
    report = {} if report is None else report
    report.update(strategy=strategy, attempts=0)
    if strategy == "isolation":
        r = report["r"] = paper_isolation_range(instance)
    if not instance.has_disjoint_paths():
        return None
    if strategy == "deletion":
        graph = ScanGraph(instance, instance.cost_list())
        d0 = min_cost_disjoint_paths(instance, params, _graph=graph)
    failures = []
    for attempt in range(max_retries + 1):
        report["attempts"] = attempt + 1
        try:
            if strategy == "isolation":
                return _isolation_attempt(instance, params, attempt, r)
            return _deletion_attempt(instance, params, attempt, d0, graph)
        except AssemblyError as exc:
            failures.append(f"attempt {attempt}: {exc}")
    how = f"{strategy}, r={r}" if strategy == "isolation" else strategy
    raise RetriesExhaustedError(
        f"no attempt succeeded in {max_retries + 1} tries "
        f"(strategy={how}): " + "; ".join(failures))
