"""Independent brute-force and classical baselines.

Everything here is allowed to be exponential; it exists to pin down the
randomized components on desk-scale instances:

* exhaustive enumeration of proper walk sets (by length bound or exact cost),
* symbolic characteristic-two polynomials (XOR-sets of monomials),
* the explicit cost subdivision (each cost-c edge replaced by a unit-cost
  path of length c), against which the evaluator's implicit cost steps
  are checked,
* the suffix-swap involution on walk sets and its signature,
* exhaustive search for minimum k vertex-disjoint simple paths,
* a classical successive-shortest-path min-cost flow solver, plus a
  deterministic min-cost disjoint-paths solver built on it via the standard
  vertex-splitting reduction (scales to gadget-sized instances where the
  exhaustive search does not).
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from itertools import count, pairwise

from .network import FlowInstance, PathInstance, ProperWalkSet, Walk
from .extraction import PathSet
from .flow import Flow


class EnumerationBudgetError(RuntimeError):
    """Enumeration would exceed the configured step budget."""


DEFAULT_BUDGET = 10**7
DEFAULT_BRUTE_LIMIT = 10


# ---------------------------------------------------------------------------
# Walk-set enumeration
# ---------------------------------------------------------------------------

def _measures(instance, mode, costs):
    """Each edge's measure under mode: 1 for "length", and for "cost" its
    cost in costs, or the instance's when costs is None.  Raises
    ValueError for any other mode."""
    if mode == "length":
        return [1] * instance.m
    if mode != "cost":
        raise ValueError(f"unknown mode {mode!r}")
    return instance.cost_list() if costs is None else list(costs)


def _walks_from(instance, start, max_measure, measures, spend):
    """All walks from a source, with measure (length or cost) <= max_measure.

    Yields (vertices, edge_ids, measure), calling spend() once per edge
    read.  Walks may repeat vertices; the positive per-edge measure bounds
    the recursion depth.
    """
    out_edges = instance.out_edges
    heads = instance.heads
    sink_index = instance.sink_index
    is_term = instance.is_terminal

    def extend(v, vs, es, used):
        for eid in out_edges[v]:
            spend()
            w = heads[eid]
            used2 = used + measures[eid]
            if used2 > max_measure:
                continue
            if w in sink_index:
                yield vs + (w,), es + (eid,), used2
            elif not is_term(w):
                yield from extend(w, vs + (w,), es + (eid,), used2)

    yield from extend(start, (start,), (), 0)


def _walk_sets(instance, cap, measures, budget):
    """(total measure, walk set) for every proper set of k walks of total
    measure <= cap, each exactly once, in one fixed order, spending the
    step budget as _walks_from reads edges: the (budget + 1)-th read
    raises EnumerationBudgetError."""
    steps = count(1)

    def spend():
        if next(steps) > budget:
            raise EnumerationBudgetError("enumeration budget exceeded")

    k = instance.k
    sources = instance.sources

    def rec(i, used_sinks, total, acc):
        if i == k:
            yield total, ProperWalkSet(tuple(acc))
            return
        for vs, es, meas in _walks_from(instance, sources[i],
                                        cap - total - (k - i - 1),
                                        measures, spend):
            sink = vs[-1]
            if sink not in used_sinks:
                yield from rec(i + 1, used_sinks | {sink}, total + meas,
                               acc + [Walk(vs, es)])

    yield from rec(0, frozenset(), 0, [])


def enumerate_proper_walk_sets(instance: PathInstance, bound: int,
                               mode: str = "length",
                               budget: int = DEFAULT_BUDGET,
                               costs=None):
    """Every proper set of k walks, each exactly once.

    mode="length": total length <= bound, and walks must satisfy the
    k(n-1) properness cap (bound is clamped to it).
    mode="cost": total cost exactly == bound; the length cap is vacuous
    for cost-bounded families (each edge costs >= 1) and is not applied,
    matching the evaluator's cost slices.
    """
    measures = _measures(instance, mode, costs)
    cap = min(bound, instance.k * (instance.n - 1)) if mode == "length" \
        else bound
    for total, walk_set in _walk_sets(instance, cap, measures, budget):
        if mode == "length" or total == bound:
            yield walk_set


# ---------------------------------------------------------------------------
# Symbolic characteristic-two polynomials
# ---------------------------------------------------------------------------

class SymbolicPolynomial(namedtuple("SymbolicPolynomial", "monomials")):
    """XOR-set of monomials, a frozenset; a monomial is a sorted tuple of
    edge ids (with repetition for multiplicity).  Present an even number of
    times means absent: arithmetic is over characteristic two."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.monomials

    def evaluate(self, field, assignment) -> int:
        total = 0
        for mono in self.monomials:
            prod = 1
            for eid in mono:
                prod = field.mul(prod, assignment[eid])
                if prod == 0:
                    break
            total ^= prod
        return total


def symbolic_char2_polynomial(instance: PathInstance, bound: int,
                              mode: str = "length",
                              budget: int = DEFAULT_BUDGET,
                              costs=None) -> SymbolicPolynomial:
    """The XOR-set of the monomials of enumerate_proper_walk_sets' family
    (same arguments): exact, by exhaustive enumeration, so exponential;
    raises EnumerationBudgetError past the step budget."""
    monos = set()
    for ws in enumerate_proper_walk_sets(instance, bound, mode,
                                         budget=budget, costs=costs):
        monos ^= {ws.monomial()}
    return SymbolicPolynomial(frozenset(monos))


def symbolic_cost_slices(instance: PathInstance, up_to: int,
                         budget: int = DEFAULT_BUDGET,
                         costs=None) -> dict:
    """Exact-cost slice polynomials for every cost p in [0, up_to]."""
    measures = _measures(instance, "cost", costs)
    buckets = {}
    for total, walk_set in _walk_sets(instance, up_to, measures, budget):
        buckets.setdefault(total, set()).symmetric_difference_update(
            {walk_set.monomial()})
    return {
        p: SymbolicPolynomial(frozenset(monos))
        for p, monos in buckets.items() if monos
    }


# ---------------------------------------------------------------------------
# Explicit cost subdivision
# ---------------------------------------------------------------------------

def subdivide_costs(instance: PathInstance):
    """Explicitly replace each cost-c edge by a unit-cost path of length c.

    Returns (unit-cost instance, carry map original edge id -> id of the
    first edge on its replacement path).
    """
    costs = instance.cost_list()
    edges = []
    carry = {}
    next_vertex = instance.n
    for eid, (u, v) in enumerate(instance.edges):
        c = costs[eid]
        carry[eid] = len(edges)
        chain = [u] + [next_vertex + i for i in range(c - 1)] + [v]
        next_vertex += c - 1
        edges.extend(pairwise(chain))
    return (
        PathInstance(next_vertex, edges, instance.sources, instance.sinks),
        carry,
    )


def subdivision_assignment(subdivided: PathInstance, carry, assignment):
    """Lift an assignment through subdivide_costs: the first edge of each
    replacement path carries the original value, the rest carry one."""
    lifted = [1] * subdivided.m
    for orig, first in carry.items():
        lifted[first] = assignment[orig]
    return lifted


# ---------------------------------------------------------------------------
# Signature and the suffix-swap involution
# ---------------------------------------------------------------------------

def signature(walk_set: ProperWalkSet):
    """Earliest-intersection witness pair (i, j), or None if the walks are
    pairwise vertex-disjoint.

    i is the smallest walk index sharing a vertex with another walk; the
    swap vertex is the earliest such position along walk i; j is the
    smallest partner index holding that vertex.  Self-intersections do not
    count: the pair needs two distinct walks.
    """
    walks = walk_set.walks
    vertex_sets = [set(w.vertices) for w in walks]
    for i, wi in enumerate(walks):
        others = [j for j in range(len(walks)) if j != i]
        for pos, v in enumerate(wi.vertices):
            partners = [j for j in others if v in vertex_sets[j]]
            if partners:
                return (i, min(partners), pos, v)
    return None


def apply_phi(instance: PathInstance, walk_set: ProperWalkSet) -> ProperWalkSet:
    """Swap the suffixes of the signature pair at their first intersection.

    Identity when the signature is undefined.  Preserves the signature,
    the total length, the total cost, and the monomial multiset; applying
    it twice returns the original set.
    """
    sig = signature(walk_set)
    if sig is None:
        return walk_set
    i, j, pos_i, v = sig
    wi, wj = walk_set.walks[i], walk_set.walks[j]
    pos_j = wj.vertices.index(v)
    new_i = Walk(wi.vertices[:pos_i + 1] + wj.vertices[pos_j + 1:],
                 wi.edge_ids[:pos_i] + wj.edge_ids[pos_j:])
    new_j = Walk(wj.vertices[:pos_j + 1] + wi.vertices[pos_i + 1:],
                 wj.edge_ids[:pos_j] + wi.edge_ids[pos_i:])
    walks = list(walk_set.walks)
    walks[i], walks[j] = new_i, new_j
    return ProperWalkSet(tuple(walks))


# ---------------------------------------------------------------------------
# Exhaustive disjoint-path search
# ---------------------------------------------------------------------------

def brute_force_disjoint_paths(instance: PathInstance, mode: str = "cost",
                               bound: int | None = None,
                               limit: int = DEFAULT_BRUTE_LIMIT,
                               costs=None):
    """Exhaustive minimum over k-tuples of vertex-disjoint simple paths.

    Returns (best_total, PathSet) for the lexicographically-least optimum,
    or None when no k-tuple exists (within `bound`, if given).  mode picks
    the objective: "length" or "cost".
    """
    if instance.n > limit:
        raise EnumerationBudgetError(
            f"instance has {instance.n} > {limit} vertices")
    measures = _measures(instance, mode, costs)
    orig_costs = instance.cost_list()
    k = instance.k
    sources = instance.sources
    sink_index = instance.sink_index
    overall_cap = bound if bound is not None \
        else instance.simple_cost_cap(measures)
    best = None

    def paths_from(start, used_vertices, cap):
        out = []

        def extend(v, vs, es, meas):
            for eid in instance.out_edges[v]:
                w = instance.heads[eid]
                m2 = meas + measures[eid]
                if m2 > cap or w in used_vertices or w in vs_set:
                    continue
                if w in sink_index:
                    out.append((vs + (w,), es + (eid,), m2))
                elif not instance.is_terminal(w):
                    vs_set.add(w)
                    extend(w, vs + (w,), es + (eid,), m2)
                    vs_set.remove(w)

        vs_set = {start}
        extend(start, (start,), (), 0)
        return out

    def rec(i, used_vertices, total, acc):
        nonlocal best
        if i == k:
            key = (total, tuple(p[0] for p in acc))
            if best is None or key < best[0]:
                best = (key, list(acc))
            return
        cap = overall_cap - total - (k - i - 1)
        if best is not None:
            cap = min(cap, best[0][0] - total - (k - i - 1))
        for vs, es, meas in paths_from(sources[i], used_vertices, cap):
            rec(i + 1, used_vertices | set(vs), total + meas,
                acc + [(vs, es, meas)])

    rec(0, frozenset(), 0, [])
    if best is None:
        return None
    total = best[0][0]
    paths = tuple(p[0] for p in best[1])
    edge_ids = tuple(p[1] for p in best[1])
    orig_total = sum(orig_costs[e] for es in edge_ids for e in es)
    return total, PathSet(paths=paths, edge_ids=edge_ids,
                          total_cost=orig_total)


# ---------------------------------------------------------------------------
# Classical min-cost flow (successive shortest paths with potentials)
# ---------------------------------------------------------------------------

class _Arc:
    __slots__ = ("to", "cap", "cost", "flow", "partner", "orig")

    def __init__(self, to, cap, cost, orig=None):
        self.to = to
        self.cap = cap
        self.cost = cost
        self.flow = 0
        self.partner = None
        self.orig = orig

    def residual(self):
        return self.cap - self.flow


def _mcmf(arcs_spec, s, t, value):
    """Successive shortest paths; nonnegative arc costs required.

    arcs_spec: iterable of (u, v, cap, cost, tag).  Returns
    (cost, flow_by_tag) if `value` units can be shipped, else None.
    Every table is keyed by the vertices that s, t and the arcs name, so
    a vertex no arc touches costs nothing.
    """
    adj = {s: [], t: []}
    arcs = []
    for u, v, cap, cost, tag in arcs_spec:
        fwd = _Arc(v, cap, cost, tag)
        bwd = _Arc(u, 0, -cost)
        fwd.partner, bwd.partner = bwd, fwd
        adj.setdefault(u, []).append(fwd)
        adj.setdefault(v, []).append(bwd)
        arcs.append(fwd)
    INF = float("inf")
    potential = dict.fromkeys(adj, 0)
    shipped = 0
    total_cost = 0
    while shipped < value:
        dist = dict.fromkeys(adj, INF)
        dist[s] = 0
        parent = dict.fromkeys(adj)
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for arc in adj[u]:
                if arc.residual() <= 0:
                    continue
                nd = d + arc.cost + potential[u] - potential[arc.to]
                if nd < dist[arc.to]:
                    dist[arc.to] = nd
                    parent[arc.to] = arc
                    heapq.heappush(heap, (nd, arc.to))
        if dist[t] == INF:
            return None
        for v, d in dist.items():
            if d < INF:
                potential[v] += d
        push = value - shipped
        arc = parent[t]
        while arc is not None:
            push = min(push, arc.residual())
            arc = parent[arc.partner.to]
        arc = parent[t]
        while arc is not None:
            arc.flow += push
            arc.partner.flow -= push
            total_cost += push * arc.cost
            arc = parent[arc.partner.to]
        shipped += push
    # Optimality self-check: a min-cost flow admits no negative-cost cycle
    # in its residual graph.  Integer Bellman-Ford from a virtual source.
    dist = dict.fromkeys(adj, 0)
    for round_ in range(len(adj) + 1):
        changed = False
        for u, out in adj.items():
            du = dist[u]
            for arc in out:
                if arc.residual() > 0 and du + arc.cost < dist[arc.to]:
                    dist[arc.to] = du + arc.cost
                    changed = True
        if not changed:
            break
    else:
        raise RuntimeError("negative residual cycle: flow is not optimal")
    flow_by_tag = {}
    for arc in arcs:
        if arc.orig is not None and arc.flow > 0:
            flow_by_tag[arc.orig] = flow_by_tag.get(arc.orig, 0) + arc.flow
    return total_cost, flow_by_tag


def classic_min_cost_flow(K: FlowInstance):
    """Exact minimum-cost flow of the target value, or None if the maximum
    flow falls short."""
    value = K.target_value
    spec = [(u, v, cap, cost, eid)
            for eid, (u, v, cap, cost) in enumerate(K.edges)]
    res = _mcmf(spec, K.source, K.sink, value)
    if res is None:
        return None
    total_cost, by_edge = res
    amounts = [by_edge.get(eid, 0) for eid in range(K.m)]
    return total_cost, Flow(amounts=amounts, value=value, cost=total_cost)


def disjoint_paths_min_cost_via_flow(instance: PathInstance, costs=None):
    """Deterministic min total cost of k vertex-disjoint X->Y paths.

    Standard vertex-splitting reduction to min-cost flow: every vertex gets
    an internal capacity-one arc, so paths are disjoint over all vertices
    including endpoints.  Only the vertices that an edge or a terminal
    names get one, since no path passes any other.  Polynomial time; the
    cross-check for instances too large for the exhaustive search.
    """
    costs = instance.cost_list() if costs is None else list(costs)
    n = instance.n
    v_in = lambda v: 2 * v
    v_out = lambda v: 2 * v + 1
    S, T = 2 * n, 2 * n + 1
    spec = []
    named = {*instance.tails, *instance.heads, *instance.sources,
             *instance.sinks}
    for v in sorted(named):
        spec.append((v_in(v), v_out(v), 1, 0, None))
    for eid, (u, v) in enumerate(instance.edges):
        spec.append((v_out(u), v_in(v), 1, costs[eid], None))
    for x in instance.sources:
        spec.append((S, v_in(x), 1, 0, None))
    for y in instance.sinks:
        spec.append((v_out(y), T, 1, 0, None))
    res = _mcmf(spec, S, T, instance.k)
    if res is None:
        return None
    return res[0]
