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
  w(e) in [1, r], making the minimum-cost set unique with probability
  >= 1 - m/r; build the scan graph at the perturbed costs, the same scan
  that the optimum and deletion use; find the minimum perturbed cost U*,
  its least nonzero slice; mark an edge essential when deleting it kills
  every slice at or below U*; assemble the essential edges into paths.
  Edges off the support of the U* slice are non-essential without a
  test, and edges on every walk set of perturbed cost U* essential
  without one.  The rest are tested by scans capped at U*, and all
  per-edge tests in one repetition share a fresh assignment.

Either way a failed assembly (a rare false zero, or a perturbation that
failed to isolate) is detected structurally and retried with fresh
randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decision import (
    TestParams,
    least_nonzero_slice,
    min_cost_disjoint_paths,
)
from .evaluator import ScanGraph, scan_min_cost_slice, slice_support
# isolation's edge-test scans, by the name under which perfbench traces them
from .evaluator import scan_min_cost_slice as perturbed_scan
from .field import derive_rng
from .network import PathInstance


class AssemblyError(RuntimeError):
    """Essential edges do not form k disjoint paths of the expected cost."""


class RetriesExhaustedError(RuntimeError):
    """Every attempt (fresh seed each) failed assembly or verification."""


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
    return instance.n * instance.n * instance.m


def desk_isolation_range(instance: PathInstance) -> int:
    """Memory-friendly default; trades the 1 - m/r bound for table size,
    relying on retry-on-failure."""
    return max(64, 4 * instance.m)


def find_min_perturbed_cost(pgraph: ScanGraph, pc: PerturbedCosts,
                            params: TestParams) -> int | None:
    """Least perturbed cost U* of a disjoint path set, or None if
    infeasible.

    pgraph is a ScanGraph at the perturbed costs pc.perturbed, and the
    search is min_cost_disjoint_paths' (least_nonzero_slice) at those
    costs, capped at the simple-set cost bound at the perturbed costs,
    the degree the field is checked against: at any positive integer
    costs the least nonzero slice is certified by k disjoint simple
    paths.
    """
    cap = pgraph.instance.simple_cost_cap(pc.perturbed)
    params.check_degree(cap)
    return least_nonzero_slice(pgraph, params, cap, "find-perturbed")


def classify_edges(pgraph: ScanGraph, u_star: int,
                   params: TestParams) -> set:
    """Edges whose removal kills every slice at or below the optimum U*.

    pgraph is the attempt's ScanGraph at the perturbed costs, and U* its
    least nonzero slice.  Under a unique perturbed optimum these are
    exactly the optimum's edges.  A false zero can only add edges (never
    drop one), which the assembly checks catch.  slice_support at U*
    settles most edges without a scan: an edge off the support of the U*
    slice is non-essential, since deleting it leaves that slice as it
    was, and a forced edge (on every walk set of perturbed cost U*) is
    essential, since deleting it zeroes that slice.  Each other support
    edge is tested by scans capped at U*, one per repetition, each at
    that repetition's fresh assignment, which all tests share, with the
    edge's variable zeroed: it is essential when no scan finds a nonzero
    slice.
    """
    m = pgraph.instance.m
    assignments = list(params.assignments(m, "classify"))
    support, forced = slice_support(pgraph, [True] * m, u_star)
    essential = {e for e in range(m) if forced[e]}
    for eid in range(m):
        if not support[eid] or forced[eid]:
            continue
        for f in assignments:
            patched = list(f)
            patched[eid] = 0
            if perturbed_scan(pgraph, patched, params.field, u_star):
                break  # a slice at or below U* survives the deletion
        else:
            essential.add(eid)
    return essential


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
    u_star = find_min_perturbed_cost(pgraph, pc, sub)
    if u_star is None:
        raise AssemblyError("no perturbed optimum found")
    if u_star // pc.scale != d0:
        raise AssemblyError(
            f"perturbed optimum decodes to cost {u_star // pc.scale}, "
            f"expected {d0}")
    essential = classify_edges(pgraph, u_star, sub)
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
                        max_retries: int = 3, r: int | None = None,
                        strategy: str = "deletion",
                        report: dict | None = None) -> PathSet | None:
    """Minimum original-cost PathSet, or None when no k disjoint paths exist.

    strategy is "deletion" (the default) or "isolation", the paper's
    route.  r is the isolation range, accepted with "isolation" only: it
    defaults to the desk-scale range; pass paper_isolation_range(instance)
    for the n^2 m setting.  A dict passed as `report` receives
    attempts/strategy for reporting, and r under isolation.  None is
    exact, with 0 attempts and no scan graph built, when
    has_disjoint_paths() finds no k disjoint paths at all; after the
    search for the optimum found none, it is probabilistic.
    """
    if strategy not in ("isolation", "deletion"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if r is not None and strategy != "isolation":
        raise ValueError("an isolation range needs strategy='isolation'")
    if max_retries < 0:
        raise ValueError(f"max_retries {max_retries} below 0")
    if strategy == "isolation" and r is None:
        r = desk_isolation_range(instance)
    if report is not None:
        report.update(strategy=strategy, attempts=0)
        if r is not None:
            report["r"] = r
    # the field check min_cost_disjoint_paths makes at its default ceiling,
    # due before any answer
    params.check_degree(instance.simple_cost_cap())
    if not instance.has_disjoint_paths():
        return None
    # one state graph at the instance's costs serves the optimum and every
    # deletion attempt; an isolation attempt builds its own at its
    # perturbed costs
    graph = ScanGraph(instance, instance.cost_list())
    d0 = min_cost_disjoint_paths(instance, params, _graph=graph)
    if d0 is None:
        return None
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
