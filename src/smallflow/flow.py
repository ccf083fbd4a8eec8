"""Reduction of min-cost value-k flow to vertex-disjoint connecting paths.

The gadget network replaces every vertex v of the flow network by a
bipartite cloud of unit vertices: one in-unit per (incoming edge, capacity
slot) and one out-unit per (outgoing edge, capacity slot), completely
wired in-unit -> out-unit at cost 1.  Each original edge (v, w) of cost c
becomes cap(e) parallel transport edges v_out(e,i) -> w_in(e,i) of cost
c * M.  Fresh terminal sets X and Y attach to the source's out-units and
the sink's in-units by cost-1 connector edges.

A value-k flow of cost D shipping along simple paths corresponds to k
vertex-disjoint X->Y paths of gadget cost D* with floor(D* / M) = D: the
transport edges contribute D * M and the unit/connector edges contribute
one each, at most n per path.  M = k*n + 1 strictly dominates that
residue (k*n alone could be hit exactly, which would corrupt the floor).
"""

from __future__ import annotations

from dataclasses import dataclass

from .decision import TestParams
from .extraction import PathSet, find_disjoint_paths
from .network import FlowInstance, PathInstance


@dataclass
class Flow:
    """Integral flow described by per-edge amounts."""

    amounts: list
    value: int
    cost: int


@dataclass
class GadgetNetwork:
    """Disjoint-paths encoding of a flow instance.

    backmap tags every gadget edge id: ("connector",), ("unit", v), or
    ("transport", original edge id, capacity slot).  Vertex and edge ids
    are assigned in a fixed order (terminals first, then per original
    vertex ascending: in-units by (edge id, slot), out-units likewise), so
    repeated builds are identical.
    """

    instance: PathInstance
    flow_instance: FlowInstance
    backmap: dict
    scale: int


def clamp_capacities(K: FlowInstance) -> FlowInstance:
    """Cap capacities at the target value; value-k flows are unchanged."""
    k = K.target_value
    edges = [(u, v, min(cap, k), cost) for u, v, cap, cost in K.edges]
    if edges == list(K.edges):
        return K
    return FlowInstance(K.vertex_count, edges, K.source, K.sink, k)


def build_gadget_network(K: FlowInstance) -> GadgetNetwork:
    k = K.target_value
    n = K.n
    scale = k * n + 1
    in_units = {}   # (eid, slot) -> gadget vertex, at the edge's head
    out_units = {}  # (eid, slot) -> gadget vertex, at the edge's tail
    xs = list(range(k))
    next_vertex = k
    in_at = [[] for _ in range(n)]
    out_at = [[] for _ in range(n)]
    for eid, (u, v, cap, _cost) in enumerate(K.edges):
        in_at[v].append((eid, cap))
        out_at[u].append((eid, cap))
    for v in range(n):
        for eid, cap in in_at[v]:
            for slot in range(1, cap + 1):
                in_units[(eid, slot)] = next_vertex
                next_vertex += 1
        for eid, cap in out_at[v]:
            for slot in range(1, cap + 1):
                out_units[(eid, slot)] = next_vertex
                next_vertex += 1
    ys = list(range(next_vertex, next_vertex + k))
    next_vertex += k
    edges = []
    costs = []
    backmap = {}

    def add(u, v, cost, tag):
        backmap[len(edges)] = tag
        edges.append((u, v))
        costs.append(cost)

    source_outs = [(eid, slot) for eid, cap in out_at[K.source]
                   for slot in range(1, cap + 1)]
    sink_ins = [(eid, slot) for eid, cap in in_at[K.sink]
                for slot in range(1, cap + 1)]
    for x in xs:
        for key in source_outs:
            add(x, out_units[key], 1, ("connector",))
    for v in range(n):
        for ein, cin in in_at[v]:
            for si in range(1, cin + 1):
                for eout, cout in out_at[v]:
                    for so in range(1, cout + 1):
                        add(in_units[(ein, si)], out_units[(eout, so)], 1,
                            ("unit", v))
    for eid, (u, v, cap, cost) in enumerate(K.edges):
        for slot in range(1, cap + 1):
            add(out_units[(eid, slot)], in_units[(eid, slot)],
                cost * scale, ("transport", eid, slot))
    for key in sink_ins:
        for y in ys:
            add(in_units[key], y, 1, ("connector",))
    instance = PathInstance(next_vertex, edges, xs, ys, costs=costs)
    return GadgetNetwork(instance=instance, flow_instance=K,
                         backmap=backmap, scale=scale)


def extract_cost(d_star: int, scale: int) -> int:
    """Original flow cost encoded in a gadget path cost."""
    return d_star // scale


def recover_flow(paths: PathSet, gadget: GadgetNetwork) -> Flow:
    """Transport-edge usage of a path set, as a flow of the original network."""
    K = gadget.flow_instance
    amounts = [0] * K.m
    gadget_total = 0
    for eid in paths.all_edge_ids():
        tag = gadget.backmap.get(eid)
        if tag is None:
            raise ValueError(f"edge {eid} is not from this gadget network")
        gadget_total += gadget.instance.cost(eid)
        if tag[0] == "transport":
            amounts[tag[1]] += 1
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

    Pipeline: clamp capacities, build the gadget network, extract a
    minimum-cost disjoint path set on it (deletion strategy), read the
    flow off the transport edges, validate.  r, an isolation range, is
    accepted only as None: no flow query uses isolation.
    """
    if r is not None:
        raise ValueError("min_cost_flow takes no isolation range")
    clamped = clamp_capacities(K)
    gadget = build_gadget_network(clamped)
    paths = find_disjoint_paths(gadget.instance, params,
                                max_retries=max_retries)
    if paths is None:
        return None
    flow = recover_flow(paths, gadget)
    ok, diag = validate_flow(K, flow)
    if not ok:
        raise RuntimeError(f"recovered flow failed validation: {diag}")
    return flow.cost, flow
