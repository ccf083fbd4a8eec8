"""Construction of a minimum-cost set of k vertex-disjoint paths.

Two strategies produce the same object:

* deletion (the default): with the optimum D0 known, walk the edges in
  id order and delete each one whose removal still leaves a cost-D0 set
  among the survivors.  What remains is the support of a single optimal
  set.  It needs no perturbed costs, and it was the faster strategy on
  every input measured, gadget networks and small path instances alike.

* isolation, the paper's construction (Mulmuley-Vazirani-Vazirani):
  perturb edge costs to c'(e) = c(e)*r*m + w(e) with random weights w(e)
  in [1, r], making the minimum-cost set unique with probability
  >= 1 - m/r; find the minimum perturbed cost U*; mark an edge essential
  when deleting it kills every slice at or below U*; assemble the
  essential edges into paths.  All per-edge tests in one repetition share
  a fresh assignment.

Either way a failed assembly (a rare false zero, or a perturbation that
failed to isolate) is detected structurally and retried with fresh
randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decision import TestParams, min_cost_disjoint_paths
from .evaluator import perturbed_scan, random_assignment, scan_min_cost_slice
from .field import derive_rng
from .network import PathInstance


class AssemblyError(RuntimeError):
    """Essential edges do not form k disjoint paths of the expected cost."""


class RetriesExhaustedError(RuntimeError):
    """Every attempt (fresh seed each) failed assembly or verification."""


@dataclass(frozen=True)
class PerturbedCosts:
    """Isolation-perturbed costs c'(e) = c(e)*r*m + w(e), w uniform on [1, r].

    scale = r*m dominates any weight sum over distinct edges, so a set's
    perturbed total decomposes as original_cost * scale + weight_sum.
    """

    r: int
    m: int
    weights: tuple
    perturbed: tuple

    @property
    def scale(self) -> int:
        return self.r * self.m


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
    perturbed = tuple(costs[e] * r * m + weights[e] for e in range(m))
    return PerturbedCosts(r=r, m=m, weights=weights, perturbed=perturbed)


def paper_isolation_range(instance: PathInstance) -> int:
    return instance.n * instance.n * instance.m


def desk_isolation_range(instance: PathInstance) -> int:
    """Memory-friendly default; trades the 1 - m/r bound for table size,
    relying on retry-on-failure."""
    return max(64, 4 * instance.m)


def _perturbed_caps(instance: PathInstance, pc: PerturbedCosts):
    edges = instance.max_path_edges()
    return instance.simple_cost_cap(), edges * pc.r


def find_min_perturbed_cost(instance: PathInstance, pc: PerturbedCosts,
                            params: TestParams) -> int | None:
    """Least perturbed cost of a disjoint path set, or None if infeasible.

    Scans (original cost, weight) slices in lexicographic order, which
    coincides with perturbed-cost order because weight sums stay below the
    scale; the minimum over repetitions is reported.
    """
    costs = instance.cost_list()
    d_cap, w_cap = _perturbed_caps(instance, pc)
    params.check_degree(d_cap * pc.scale + w_cap)
    best = None
    for rep in range(params.repetitions):
        rng = derive_rng(params.seed, "find-perturbed", rep)
        f = random_assignment(params.field, instance.m, rng)
        hit = perturbed_scan(instance, f, params.field, costs,
                             list(pc.weights), d_cap, w_cap)
        if hit is not None:
            u = hit[0] * pc.scale + hit[1]
            if best is None or u < best:
                best = u
    return best


def classify_edges(instance: PathInstance, pc: PerturbedCosts, u_star: int,
                   params: TestParams) -> set:
    """Edges whose removal kills every slice at or below the optimum U*.

    Under a unique perturbed optimum these are exactly the optimum's
    edges.  A false zero can only add edges (never drop one), which the
    assembly checks catch.  One fresh assignment per repetition is shared
    by all m per-edge tests.
    """
    costs = instance.cost_list()
    weights = list(pc.weights)
    d_star, w_star = divmod(u_star, pc.scale)
    _, w_cap = _perturbed_caps(instance, pc)
    w_star = min(w_star, w_cap)
    assignments = []
    for rep in range(params.repetitions):
        rng = derive_rng(params.seed, "classify", rep)
        assignments.append(random_assignment(params.field, instance.m, rng))
    essential = set()
    for eid in range(instance.m):
        survives = False
        for f in assignments:
            patched = list(f)
            patched[eid] = 0
            if not perturbed_scan(instance, patched, params.field, costs,
                                  weights, d_star, w_cap,
                                  stop_d=d_star, stop_w=w_star):
                survives = True
                break
        if not survives:
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
    u_star = find_min_perturbed_cost(instance, pc, sub)
    if u_star is None:
        raise AssemblyError("no perturbed optimum found")
    if u_star // pc.scale != d0:
        raise AssemblyError(
            f"perturbed optimum decodes to cost {u_star // pc.scale}, "
            f"expected {d0}")
    essential = classify_edges(instance, pc, u_star, sub)
    return assemble_paths(instance, essential, pc.perturbed, u_star)


def _deletion_attempt(instance, params, attempt, d0):
    field = params.field
    assignments = []
    for rep in range(params.repetitions):
        rng = derive_rng(params.seed, "deletion", attempt, rep)
        assignments.append(random_assignment(field, instance.m, rng))
    removed = [False] * instance.m
    costs = instance.cost_list()

    def survives(without):
        # Subgraphs only ever raise the optimum, so any hit means == d0.
        for f in assignments:
            patched = list(f)
            for e in range(instance.m):
                if removed[e] or e == without:
                    patched[e] = 0
            if scan_min_cost_slice(instance, patched, field, cap=d0,
                                   costs=costs):
                return True
        return False

    for eid in range(instance.m):
        if survives(eid):
            removed[eid] = True
    kept = [e for e in range(instance.m) if not removed[e]]
    return assemble_paths(instance, kept, costs, d0)


def find_disjoint_paths(instance: PathInstance, params: TestParams,
                        max_retries: int = 3, r: int | None = None,
                        strategy: str = "deletion",
                        report: dict | None = None) -> PathSet | None:
    """Minimum original-cost PathSet, or None when no k disjoint paths exist.

    strategy is "deletion" (the default) or "isolation", the paper's
    route.  r is the isolation range, used by "isolation" only: it
    defaults to the desk-scale range; pass paper_isolation_range(instance)
    for the n^2 m setting.  A dict passed as `report` receives
    attempts/strategy/r for reporting.
    """
    if strategy not in ("isolation", "deletion"):
        raise ValueError(f"unknown strategy {strategy!r}")
    d0 = min_cost_disjoint_paths(instance, params)
    r_eff = desk_isolation_range(instance) if r is None else r
    if report is not None:
        report.update(strategy=strategy, r=r_eff, attempts=0)
    if d0 is None:
        return None
    failures = []
    for attempt in range(max_retries + 1):
        if report is not None:
            report["attempts"] = attempt + 1
        try:
            if strategy == "isolation":
                ps = _isolation_attempt(instance, params, attempt, r_eff, d0)
            else:
                ps = _deletion_attempt(instance, params, attempt, d0)
        except AssemblyError as exc:
            failures.append(f"attempt {attempt}: {exc}")
            continue
        if ps.total_cost != d0:
            failures.append(
                f"attempt {attempt}: assembled cost {ps.total_cost} != {d0}")
            continue
        return ps
    raise RetriesExhaustedError(
        f"no attempt succeeded in {max_retries + 1} tries "
        f"(strategy={strategy}, r={r_eff}): " + "; ".join(failures))
