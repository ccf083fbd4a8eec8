"""Construction of a minimum-cost set of k vertex-disjoint paths.

Two strategies produce the same object:

* deletion (the default): with the optimum D0 known, walk the edges in
  id order and delete each one whose removal still leaves a cost-D0 set
  among the survivors.  What remains is the support of a single optimal
  set.  It needs no perturbed costs, and it was the faster strategy on
  every input measured, gadget networks and small path instances alike.
  Most edges lie on no walk set of cost D0 at all (evaluator.slice_support,
  a boolean pass over the scan's state graph).  Their variables do not
  occur in the D0 slice, so deleting one leaves the slice's values as
  they were, and the test would pass: such edges are deleted without a
  scan, before the first test and again after each deletion, as the
  support shrinks.  The same pass finds the forced edges, those on every
  walk set of cost D0: deleting one leaves the D0 slice an empty sum,
  and the slices below D0 are zero at the optimum, so the test would
  fail, and they are kept without a scan.  The result is the one the
  edge-by-edge tests give.

* isolation, the paper's construction (Mulmuley-Vazirani-Vazirani):
  perturb edge costs to c'(e) = c(e)*(r*m + 1) + w(e) with random weights
  w(e) in [1, r], r = n^2 m, making the minimum-cost set unique with
  probability >= 1 - m/r = 1 - 1/n^2; build the scan graph at the
  perturbed costs, the same scan that the optimum and deletion use; find
  the minimum perturbed cost U*, its least nonzero slice; read the
  essential edges off slice_support at U*; assemble them into paths.
  The search for U* stops at (D0 + 1) * (r*m + 1) - 1, above every
  cost-D0 set.  The paper marks each essential edge by a polynomial
  test; here no edge is tested (classify_edges), and an attempt whose
  support at U* leaves some edge unsettled is retried.

Either way a failed attempt (a rare false zero, or a perturbation that
failed to isolate) is detected structurally and retried with fresh
randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decision import (
    RetriesExhaustedError,
    TestParams,
    least_nonzero_slice,
    min_cost_disjoint_paths,
)
from .evaluator import ScanGraph, scan_min_cost_slice, slice_support
# not called here: kept only because perfbench/tracing.py patches this
# name, until ROADMAP item 15 or phase B of item 2 frees it
from .evaluator import scan_min_cost_slice as perturbed_scan  # noqa: F401
from .field import derive_rng
from .network import PathInstance


class AssemblyError(RuntimeError):
    """Essential edges do not form k disjoint paths of the expected cost."""


@dataclass(frozen=True)
class PerturbedCosts:
    """Isolation-perturbed costs c'(e) = c(e)*scale + w(e), w uniform on
    [1, r], scale = r*m + 1.

    The scale exceeds any weight sum over distinct edges (at most r*m), so
    a set's perturbed total decomposes as original_cost * scale +
    weight_sum.
    """

    r: int
    m: int
    weights: tuple
    perturbed: tuple

    @property
    def scale(self) -> int:
        return self.r * self.m + 1


@dataclass(frozen=True)
class PathSet:
    """k pairwise vertex-disjoint simple paths, one per terminal pair."""

    paths: tuple      # tuple of vertex tuples, in source order
    edge_ids: tuple   # matching tuple of edge-id tuples
    total_cost: int   # under the instance's original costs

    @property
    def k(self):
        return len(self.paths)

    def all_edge_ids(self):
        return [e for es in self.edge_ids for e in es]


def perturb_costs(instance: PathInstance, r: int, rng) -> PerturbedCosts:
    if r < 1:
        raise ValueError("isolation range must be >= 1")
    m = instance.m
    weights = tuple(rng.randint(1, r) for _ in range(m))
    costs = instance.cost_list()
    perturbed = tuple(costs[e] * (r * m + 1) + weights[e] for e in range(m))
    return PerturbedCosts(r=r, m=m, weights=weights, perturbed=perturbed)


def paper_isolation_range(instance: PathInstance) -> int:
    """The isolation range r = n^2 m: weights in [1, r] make the optimum
    unique with probability >= 1 - m/r = 1 - 1/n^2."""
    return instance.n * instance.n * instance.m


def find_min_perturbed_cost(pgraph: ScanGraph, pc: PerturbedCosts, d0: int,
                            params: TestParams) -> int | None:
    """Least perturbed cost U* of a disjoint path set of original cost at
    most d0, or None when no repetition finds one.

    pgraph is a ScanGraph at the perturbed costs pc.perturbed, and the
    search is min_cost_disjoint_paths' (least_nonzero_slice) at those
    costs, capped at (d0 + 1) * pc.scale - 1, the degree the field is
    checked against.  At any positive integer costs a nonzero slice is
    certified by k disjoint simple paths, whose weights sum to less than
    the scale: every set of original cost d0 lies under the cap, and a
    hit under it decodes (U* // scale) to d0 or less.  d0 caps the search
    because of that field check: simple_cost_cap at the perturbed costs
    can outgrow a field that holds this cap (76,093 against 61,454 in
    test_isolation_field_checked_below_the_optimum's GF(2^16) instance).
    """
    cap = (d0 + 1) * pc.scale - 1
    params.check_degree(cap)
    return least_nonzero_slice(pgraph, params, cap, "find-perturbed")


def classify_edges(pgraph: ScanGraph, u_star: int) -> set:
    """The edges of the disjoint path set of least perturbed cost U*, read
    off slice_support at U* without a scan.

    pgraph is the attempt's ScanGraph at the perturbed costs, and U* its
    least nonzero slice.  Colliding walk systems cancel in pairs with the
    same edges, so the nonzero U* slice holds a disjoint path set; when
    support equals forced, every walk system of cost U* uses that set's
    edges, which are returned.  Otherwise some support edge is unsettled,
    and AssemblyError is raised so that the attempt is retried with fresh
    weights.
    """
    m = pgraph.instance.m
    support, forced = slice_support(pgraph, [True] * m, u_star)
    if support != forced:
        raise AssemblyError("support at U* leaves "
                            f"{sum(support) - sum(forced)} edges unsettled")
    return {e for e in range(m) if forced[e]}


def assemble_paths(instance: PathInstance, essential, cost_map,
                   expected_total: int) -> PathSet:
    """Check that the essential edges are exactly k disjoint paths.

    Degree conditions (every internal endpoint on exactly one in- and one
    out-edge, sources only out, sinks only in), tracing from each source,
    no leftover edges (a leftover cycle or stray edge means the tests did
    not isolate), and the total under cost_map must equal expected_total.
    Raises AssemblyError naming the first violated condition.
    """
    essential = sorted(essential)
    out_by_vertex = {}
    in_by_vertex = {}
    for eid in essential:
        u, v = instance.edges[eid]
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
        for _ in range(instance.n):
            eid = out_by_vertex[v][0]
            es.append(eid)
            used.add(eid)
            v = instance.edges[eid][1]
            vs.append(v)
            if v in instance.sink_index:
                break
            if v not in out_by_vertex:
                raise AssemblyError(f"trace from source {x} dead-ends at {v}")
        else:
            raise AssemblyError(f"trace from source {x} does not terminate")
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


def _isolation_attempt(instance, params, attempt, r, d0):
    rng = derive_rng(params.seed, "perturb", attempt)
    pc = perturb_costs(instance, r, rng)
    sub = TestParams(field=params.field, repetitions=params.repetitions,
                     seed=derive_rng(params.seed, "attempt", attempt)
                     .getrandbits(63))
    pgraph = ScanGraph(instance, list(pc.perturbed))
    u_star = find_min_perturbed_cost(pgraph, pc, d0, sub)
    if u_star is None:
        raise AssemblyError("no perturbed optimum found")
    essential = classify_edges(pgraph, u_star)
    return assemble_paths(instance, essential, pc.perturbed, u_star)


def _deletion_attempt(instance, params, attempt, d0, graph):
    assignments = list(params.assignments(instance.m, "deletion", attempt))
    # Edges off the cost-d0 support pass their test without a scan: the
    # d0 slice does not contain their variable.  Forced edges, on every
    # walk set of cost d0, fail it without one: every monomial holds them.
    live, forced = slice_support(graph, [True] * instance.m, d0)

    def survives():
        # Subgraphs only ever raise the optimum, so any hit means == d0.
        return any(scan_min_cost_slice(
            graph, [fe if keep else 0 for fe, keep in zip(f, live)],
            params.field, cap=d0) for f in assignments)

    for eid in range(instance.m):
        if not live[eid] or forced[eid]:
            continue
        live[eid] = False
        if survives():
            live, forced = slice_support(graph, live, d0)
        else:
            live[eid] = True
    kept = [e for e in range(instance.m) if live[e]]
    return assemble_paths(instance, kept, instance.cost_list(), d0)


def find_disjoint_paths(instance: PathInstance, params: TestParams,
                        max_retries: int = 3, strategy: str = "deletion",
                        report: dict | None = None) -> PathSet | None:
    """Minimum original-cost PathSet, or None when no k disjoint paths exist.

    strategy is "deletion" (the default) or "isolation", the paper's
    route, which draws its weights from [1, r] with r =
    paper_isolation_range(instance) = n^2 m.  A dict passed as `report`
    receives attempts/strategy for reporting, and r under isolation.
    None is exact, with 0 attempts, before any field check or scan graph:
    has_disjoint_paths() found no k disjoint paths.  False zeros in the
    search for the optimum, or failed attempts, raise
    RetriesExhaustedError.
    """
    if strategy not in ("isolation", "deletion"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if max_retries < 0:
        raise ValueError(f"max_retries {max_retries} below 0")
    r = paper_isolation_range(instance) if strategy == "isolation" else None
    if report is not None:
        report.update(strategy=strategy, attempts=0)
        if r is not None:
            report["r"] = r
    if not instance.has_disjoint_paths():
        return None
    # one state graph at the instance's costs serves the optimum and every
    # deletion attempt; an isolation attempt builds its own at its
    # perturbed costs
    graph = ScanGraph(instance, instance.cost_list())
    d0 = min_cost_disjoint_paths(instance, params, _graph=graph)
    failures = []
    for attempt in range(max_retries + 1):
        if report is not None:
            report["attempts"] = attempt + 1
        try:
            if strategy == "isolation":
                ps = _isolation_attempt(instance, params, attempt, r, d0)
            else:
                ps = _deletion_attempt(instance, params, attempt, d0, graph)
        except AssemblyError as exc:
            failures.append(f"attempt {attempt}: {exc}")
            continue
        if ps.total_cost != d0:
            failures.append(
                f"attempt {attempt}: assembled cost {ps.total_cost} != {d0}")
            continue
        return ps
    how = strategy if r is None else f"{strategy}, r={r}"
    raise RetriesExhaustedError(
        f"no attempt succeeded in {max_retries + 1} tries "
        f"(strategy={how}): " + "; ".join(failures))
