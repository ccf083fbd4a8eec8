"""Reduction of min-cost value-k flow to vertex-disjoint connecting paths.

The gadget network has min(c(e), k) unit vertices per edge e of the flow
network.  An edge unit(e, i) -> unit(f, j) joins every unit of an edge
into a vertex to every other unit of an edge out of it, and every edge
entering unit(f, j) costs c(f) * M + 1.  With S and T the units of the
source's out-edges and of the sink's in-edges in id order, terminal x_i
of X enters S[i : |S| - k + 1 + i], and T[r] enters y_j of Y by a cost-1
connector edge when j <= r <= |T| - k + j.

A gadget path X -> unit(f1) -> ... -> unit(fr) -> Y is a source-to-sink
walk along f1 ... fr, and vertex-disjoint paths use every unit at most
once, so k of them form a value-k flow within the capacities; a value-k
flow of cost D splits into k simple paths (costs are positive, so an
optimal flow holds no cycle), which take distinct units, at most k per
edge, so capping the units at k loses no optimum.  Nor do the windows
(sorted matching): the path with the i-th smallest first unit starts at
rank i to |S| - k + i of S, in x_i's window, and the one with the j-th
smallest last unit ends in y_j's, so giving them those terminals keeps
every path set and its cost.  A set of k disjoint paths has gadget cost
D * M + (units entered + k): every edge adds 1, and a path that enters
r units has r + 1 edges.  With M = (unit count) + k + 1 that residue
stays below M for every path set, so floor(D* / M) = D exactly, and a
minimum gadget cost decodes to a minimum flow cost.
"""

from __future__ import annotations

from collections import namedtuple

from .decision import TestParams
from .evaluator import _check_budget
from .extraction import PathSet, find_disjoint_paths
from .network import FlowInstance, PathInstance


class Flow(namedtuple("Flow", "amounts value cost")):
    """Integral flow described by per-edge amounts."""

    __slots__ = ()


class GadgetNetwork(namedtuple(
        "GadgetNetwork", "instance flow_instance units scale")):
    """Disjoint-paths encoding of a flow instance.

    Vertex ids run X first, then the units, min(capacity, k) per edge in
    edge-id order, then Y: units[i] is the original edge id of unit
    vertex k + i.  Edges follow X (each x_i's into its window), then each
    unit in order, so repeated builds are identical.
    scale = (unit count) + k + 1.
    """

    __slots__ = ()


def gadget_vertex_count(K: FlowInstance) -> int:
    """The vertex count of K's gadget, the n its tests run at: k
    terminals on each side and min(capacity, k) units per edge."""
    k = K.target_value
    return 2 * k + sum(min(cap, k) for _u, _v, cap, _cost in K.edges)


def build_gadget_network(K: FlowInstance) -> GadgetNetwork:
    """The gadget of K (module docstring): its minimum path-set cost D*
    decodes to K's minimum value-k flow cost D* // scale, and it has k
    disjoint paths exactly when K has a value-k flow.  Exact and
    deterministic.  Raises BudgetError, before any edge is built, when
    its vertices and edges would pass the memory ceiling."""
    k = K.target_value
    units = [eid for eid, (_u, _v, cap, _cost) in enumerate(K.edges)
             for _ in range(min(cap, k))]
    n = gadget_vertex_count(K)
    first_y = n - k
    scale = first_y + 1
    out_at = [[] for _ in range(K.n)]  # units of each vertex's out-edges
    for w, eid in enumerate(units, k):
        out_at[K.edges[eid][0]].append(w)
    # the windows' widths, 0 (no terminal edge) below k units
    span_s = max(0, len(out_at[K.source]) - k + 1)
    span_t = max(0, sum(K.edges[eid][1] == K.sink for eid in units) - k + 1)
    # the memory ceiling, before any edge is built: a vertex is one cell,
    # and an edge two, since its pair in the list below and its slots in
    # the instance are both alive at the build's peak
    _check_budget(n + 2 * (k * (span_s + span_t) + sum(
        len(out_at[v]) - (u == v)
        for u, v, _cap, _cost in map(K.edges.__getitem__, units))))
    edges = [(x, w) for x in range(k)
             for w in out_at[K.source][x:x + span_s]]
    rank = 0  # of the next sink unit, in id order
    for v, eid in enumerate(units, k):
        head = K.edges[eid][1]
        # a flow self-loop's unit does not enter itself
        edges += [(v, w) for w in out_at[head] if w != v]
        if head == K.sink:  # into y_j for j <= rank <= |T| - k + j
            ys = range(max(0, rank - span_t + 1), min(k, rank + 1))
            edges += [(v, first_y + j) for j in ys]
            rank += 1
    costs = [1 if w >= first_y else K.edges[units[w - k]][3] * scale + 1
             for _v, w in edges]
    instance = PathInstance(n, edges, list(range(k)),
                            list(range(first_y, n)), costs=costs)
    return GadgetNetwork(instance=instance, flow_instance=K, units=units,
                         scale=scale)


def extract_cost(d_star: int, scale: int) -> int:
    """Original flow cost encoded in a gadget path cost."""
    return d_star // scale


def recover_flow(paths: PathSet, gadget: GadgetNetwork) -> Flow:
    """Unit usage of a path set, as a flow of the original network."""
    K = gadget.flow_instance
    inst = gadget.instance
    amounts = [0] * K.m
    gadget_total = 0
    for eid in paths.all_edge_ids():
        if not 0 <= eid < inst.m:
            raise ValueError(f"edge {eid} is not from this gadget network")
        gadget_total += inst.cost(eid)
        i = inst.heads[eid] - K.target_value  # no edge enters X
        if i < len(gadget.units):
            amounts[gadget.units[i]] += 1
    cost = sum(amounts[e] * K.edges[e][3] for e in range(K.m))
    if cost != extract_cost(gadget_total, gadget.scale):
        raise ValueError(
            f"gadget cost {gadget_total} does not decode to flow cost {cost}")
    return Flow(amounts=amounts, value=paths.k, cost=cost)


def validate_flow(K: FlowInstance, flow: Flow):
    """(ok, diagnostic): capacity, conservation, and value-k checks."""
    if len(flow.amounts) != K.m:
        return False, f"amounts cover {len(flow.amounts)} of {K.m} edges"
    for eid, (u, v, cap, _cost) in enumerate(K.edges):
        a = flow.amounts[eid]
        if a < 0 or a > cap:
            return False, f"capacity violated at edge {eid}: {a} > {cap}"
    net = [0] * K.n
    for eid, (u, v, _cap, _cost) in enumerate(K.edges):
        net[u] += flow.amounts[eid]
        net[v] -= flow.amounts[eid]
    for v in range(K.n):
        if v in (K.source, K.sink):
            continue
        if net[v] != 0:
            return False, f"conservation violated at vertex {v}"
    k = K.target_value
    if net[K.source] != k:
        return False, f"value {net[K.source]} out of source, expected {k}"
    if net[K.sink] != -k:
        return False, f"value {-net[K.sink]} into sink, expected {k}"
    if flow.value != k:
        return False, f"declared value {flow.value} != {k}"
    return True, None


def min_cost_flow(K: FlowInstance, params: TestParams,
                  max_retries: int = 3, r: int | None = None):
    """(cost, Flow) of a minimum-cost value-k flow, or None if infeasible.

    Pipeline: build the gadget network, extract a minimum-cost disjoint
    path set on it (deletion strategy), read the flow off the units it
    enters, validate.  Every test runs on the gadget, so a default
    repetition count comes from its n, gadget_vertex_count(K).  No flow
    query uses isolation, so r takes only None; it is kept because the
    benchmark (perfbench/run.py) passes r=None.  None is exact: the
    gadget has no k disjoint paths (no value-k flow exists), and
    find_disjoint_paths answers before any scan graph is built.
    """
    if r is not None:
        raise ValueError("min_cost_flow takes no isolation range")
    gadget = build_gadget_network(K)
    paths = find_disjoint_paths(gadget.instance, params,
                                max_retries=max_retries)
    if paths is None:
        return None
    flow = recover_flow(paths, gadget)
    ok, diag = validate_flow(K, flow)
    if not ok:
        raise RuntimeError(f"recovered flow failed validation: {diag}")
    return flow.cost, flow
