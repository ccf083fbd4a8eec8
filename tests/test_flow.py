import random

import pytest

from smallflow import (
    Flow,
    FlowInstance,
    GF2Field,
    TestParams,
    build_gadget_network,
    clamp_capacities,
    extract_cost,
    min_cost_flow,
    random_flow_instance,
    recover_flow,
    serialize_paths_instance,
    validate_flow,
)
from smallflow import oracle
from smallflow.extraction import find_disjoint_paths
from smallflow.network import parse_paths_instance


def params64(seed=0, reps=1):
    return TestParams(field=GF2Field(64), repetitions=reps, seed=seed)


def two_routes():
    return FlowInstance(4, [(0, 1, 1, 1), (1, 3, 1, 1), (0, 2, 1, 1),
                            (2, 3, 1, 1)], 0, 3, 2)


def test_clamp_capacities():
    K = FlowInstance(2, [(0, 1, 10 ** 6, 1)], 0, 1, 2)
    assert clamp_capacities(K).edges[0][2] == 2
    K2 = FlowInstance(2, [(0, 1, 2, 1)], 0, 1, 2)
    assert clamp_capacities(K2) is K2


def test_clamp_preserves_optimum():
    rng = random.Random(40)
    for _ in range(100):
        n = rng.randint(2, 6)
        K = random_flow_instance(rng, n, rng.randint(1, 7), rng.randint(1, 3),
                                 cap_max=9, cost_max=4)
        a = oracle.classic_min_cost_flow(K)
        b = oracle.classic_min_cost_flow(clamp_capacities(K))
        assert (a[0] if a else None) == (b[0] if b else None)


def test_gadget_unit_counts():
    # middle vertex with incoming caps {1, 2} and one outgoing cap 1:
    # 3 in-units, 1 out-unit, 3 unit edges at that vertex
    K = FlowInstance(4, [(0, 1, 1, 1), (2, 1, 2, 1), (1, 3, 1, 1)], 0, 3, 3)
    g = build_gadget_network(K)
    units_at_1 = [tag for tag in g.backmap.values()
                  if tag[0] == "unit" and tag[1] == 1]
    assert len(units_at_1) == 3
    ins_at_1 = sum(1 for eid, (u, v, cap, c) in enumerate(K.edges)
                   if v == 1 for _ in range(cap))
    outs_at_1 = sum(cap for (u, v, cap, c) in K.edges if u == 1)
    assert (ins_at_1, outs_at_1) == (3, 1)


def test_gadget_single_edge_costs():
    K = FlowInstance(2, [(0, 1, 1, 1)], 0, 1, 1)
    g = build_gadget_network(K)
    M = g.scale
    assert M == 1 * 2 + 1
    inst = g.instance
    # X -> s_out -> t_in -> Y: connector + transport + connector
    assert inst.k == 1 and inst.n == 4 and inst.m == 3
    total = sum(inst.cost(e) for e in range(inst.m))
    assert total == 1 + 1 * M + 1
    assert extract_cost(total, M) == 1


def test_gadget_deterministic_build():
    K = two_routes()
    a = build_gadget_network(K)
    b = build_gadget_network(K)
    assert a.instance == b.instance
    assert a.backmap == b.backmap
    text = serialize_paths_instance(a.instance)
    assert parse_paths_instance(text) == a.instance


def test_extract_cost_examples():
    assert extract_cost(47, 23) == 2
    assert extract_cost(23 * 5, 23) == 5


def test_recover_flow_two_routes():
    K = two_routes()
    g = build_gadget_network(K)
    ps = find_disjoint_paths(g.instance, params64(1))
    flow = recover_flow(ps, g)
    assert flow.amounts == [1, 1, 1, 1]
    assert flow.cost == 4
    ok, diag = validate_flow(K, flow)
    assert ok, diag


def test_residue_bound_on_path_sets():
    # every disjoint simple path set in the gadget keeps its unit+connector
    # cost below the scale, so floor extraction is exact
    K = FlowInstance(3, [(0, 1, 2, 2), (1, 2, 2, 1), (0, 2, 1, 3)], 0, 2, 2)
    g = build_gadget_network(K)
    M = g.scale
    inst = g.instance
    examined = 0
    for ws in oracle.enumerate_proper_walk_sets(inst, 2 * (inst.n - 1),
                                                mode="length"):
        walks = ws.walks
        if any(len(set(w.vertices)) != len(w.vertices) for w in walks):
            continue
        used = [set(w.vertices) for w in walks]
        if used[0] & used[1]:
            continue
        examined += 1
        total = sum(inst.cost(e) for w in walks for e in w.edge_ids)
        residue = sum(1 for w in walks for e in w.edge_ids
                      if g.backmap[e][0] in ("unit", "connector"))
        assert residue == total % M
        assert residue < M
        flow_cost = sum(K.edges[g.backmap[e][1]][3]
                        for w in walks for e in w.edge_ids
                        if g.backmap[e][0] == "transport")
        assert extract_cost(total, M) == flow_cost
    assert examined >= 4


def test_validate_flow_negatives():
    K = two_routes()
    ok, diag = validate_flow(K, Flow(amounts=[1, 1, 1, 1], value=2, cost=4))
    assert ok and diag is None
    bad = validate_flow(K, Flow(amounts=[2, 1, 1, 1], value=2, cost=5))
    assert not bad[0] and "capacity" in bad[1]
    bad = validate_flow(K, Flow(amounts=[1, 0, 1, 1], value=2, cost=3))
    assert not bad[0] and "conservation" in bad[1]
    bad = validate_flow(K, Flow(amounts=[1, 1, 0, 0], value=2, cost=2))
    assert not bad[0] and "out of source" in bad[1] or "value" in bad[1]
    bad = validate_flow(K, Flow(amounts=[1, 1], value=2, cost=2))
    assert not bad[0]


def test_min_cost_flow_two_routes():
    res = min_cost_flow(two_routes(), params64(2))
    assert res is not None
    cost, flow = res
    assert cost == 4
    assert flow.amounts == [1, 1, 1, 1]


def test_min_cost_flow_rejects_isolation_range():
    with pytest.raises(ValueError, match="isolation range"):
        min_cost_flow(two_routes(), params64(2), r=64)


def test_min_cost_flow_infeasible():
    K = FlowInstance(2, [(0, 1, 1, 1)], 0, 1, 2)
    assert min_cost_flow(K, params64(3)) is None
    # maxflow check against the classical oracle
    assert oracle.classic_min_cost_flow(K) is None


def test_min_cost_flow_shared_vertex_capacity():
    # both units pass through the same middle vertex on capacity-2 edges,
    # exercising the slot-indexed transport copies
    K = FlowInstance(4, [(0, 1, 2, 1), (1, 3, 2, 1), (0, 3, 1, 5)], 0, 3, 2)
    want = oracle.classic_min_cost_flow(K)[0]
    got, flow = min_cost_flow(K, params64(4))
    assert got == want == 4
    assert flow.amounts == [2, 2, 0]


def test_min_cost_flow_self_loop_arc():
    # a positive-cost self-loop is representable and never on an optimum
    K = FlowInstance(4, [(0, 1, 1, 1), (1, 1, 2, 3), (1, 3, 1, 1),
                         (0, 2, 1, 2), (2, 3, 1, 2)], 0, 3, 2)
    want = oracle.classic_min_cost_flow(K)[0]
    got, flow = min_cost_flow(K, params64(5))
    assert got == want == 6
    assert flow.amounts[1] == 0


def test_min_cost_flow_parallel_arcs():
    K = FlowInstance(3, [(0, 1, 1, 5), (0, 1, 1, 1), (1, 2, 2, 1)], 0, 2, 2)
    got, flow = min_cost_flow(K, params64(6))
    assert got == oracle.classic_min_cost_flow(K)[0] == 8
    assert flow.amounts == [1, 1, 2]


def test_min_cost_flow_battery():
    rng = random.Random(41)
    for _ in range(15):
        n = rng.randint(3, 6)
        K = random_flow_instance(rng, n, rng.randint(2, 7),
                                 rng.randint(1, 2), cap_max=2, cost_max=3,
                                 plant=rng.random() < 0.8)
        want = oracle.classic_min_cost_flow(K)
        res = min_cost_flow(K, params64(rng.getrandbits(32)))
        if want is None:
            assert res is None
        else:
            assert res is not None and res[0] == want[0]
            ok, diag = validate_flow(K, res[1])
            assert ok, diag
