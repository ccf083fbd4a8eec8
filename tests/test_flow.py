import json
import os
import random
import subprocess
import sys

import pytest

from smallflow import (
    Flow,
    FlowInstance,
    GF2Field,
    TestParams,
    build_gadget_network,
    extract_cost,
    min_cost_flow,
    random_flow_instance,
    recover_flow,
    serialize_paths_instance,
    validate_flow,
)
from smallflow import evaluator, flow as flow_mod, oracle
from smallflow.extraction import PathSet, find_disjoint_paths
from smallflow.network import parse_dimacs_flow, parse_paths_instance

# two arcs of capacity 300 in series, carrying a value-300 flow
BIG_K = "p min 3 2\nn 1 300\nn 3 -300\na 1 2 0 300 1\na 2 3 0 300 1\n"


def params64(seed=0, reps=1):
    return TestParams(field=GF2Field(64), repetitions=reps, seed=seed)


def two_routes():
    return FlowInstance(4, [(0, 1, 1, 1), (1, 3, 1, 1), (0, 2, 1, 1),
                            (2, 3, 1, 1)], 0, 3, 2)


def test_gadget_caps_capacities_at_k():
    # a capacity-10^6 edge at k = 2 gets exactly two units, each with one
    # terminal edge in and one out; capacities at or below k keep one
    # unit per capacity
    K = FlowInstance(2, [(0, 1, 10 ** 6, 1)], 0, 1, 2)
    g = build_gadget_network(K)
    assert g.units == [0, 0]
    assert g.flow_instance is K
    assert (g.instance.n, g.instance.m, g.scale) == (6, 4, 5)
    K2 = FlowInstance(3, [(0, 1, 2, 1), (1, 2, 1, 1), (0, 2, 5, 1)], 0, 2, 2)
    assert build_gadget_network(K2).units == [0, 0, 1, 2, 2]


def test_clamp_preserves_optimum():
    # capacities up to 9 at k <= 3: the capped gadget's minimum decodes
    # to the uncapped network's minimum flow cost
    rng = random.Random(40)
    for _ in range(100):
        n = rng.randint(2, 6)
        K = random_flow_instance(rng, n, rng.randint(1, 7), rng.randint(1, 3),
                                 cap_max=9, cost_max=4)
        a = oracle.classic_min_cost_flow(K)
        g = build_gadget_network(K)
        assert len(g.units) == sum(min(cap, K.target_value)
                                   for _u, _v, cap, _c in K.edges)
        d_star = oracle.disjoint_paths_min_cost_via_flow(g.instance)
        b = None if d_star is None else extract_cost(d_star, g.scale)
        assert (a[0] if a else None) == b


def test_gadget_unit_counts():
    # middle vertex 1 with incoming caps {1, 2} and one outgoing cap 1:
    # its 3 incoming units each have one edge into its 1 outgoing unit
    K = FlowInstance(4, [(0, 1, 1, 1), (2, 1, 2, 1), (1, 3, 1, 1)], 0, 3, 3)
    g = build_gadget_network(K)
    into_out = [(u, v) for u, v in g.instance.edges
                if 3 <= v < 7 and g.units[v - 3] == 2]
    # vertices: X = 0..2, units of edges 0, 1, 1, 2 = 3..6, Y = 7..9
    assert g.units == [0, 1, 1, 2]
    assert sorted(into_out) == [(3, 6), (4, 6), (5, 6)]
    assert g.instance.n == 10
    ins_at_1 = sum(1 for eid, (u, v, cap, c) in enumerate(K.edges)
                   if v == 1 for _ in range(cap))
    outs_at_1 = sum(cap for (u, v, cap, c) in K.edges if u == 1)
    assert (ins_at_1, outs_at_1) == (3, 1)


def test_gadget_vertex_count_is_the_built_gadgets():
    # the count the CLI reports repetitions at, without a second build,
    # on criterion 6's battery
    rng = random.Random(606)
    for _ in range(200):
        n = rng.randint(3, 7)
        m = rng.randint(2, min(2 * n, 10))
        k = rng.choice([1, 1, 2, 2, 3])
        K = random_flow_instance(rng, n, m, k, cap_max=3, cost_max=4,
                                 plant=rng.random() < 0.75)
        rng.getrandbits(48)  # criterion 6's seed of the instance's query
        assert flow_mod.gadget_vertex_count(K) == \
            build_gadget_network(K).instance.n


def test_gadget_terminals_follow_their_rank_windows():
    # x_i enters the source units of rank i to |S| - k + i, and the sink
    # unit of rank r enters y_j for j <= r <= |T| - k + j, at cost 1;
    # below k units on either side no terminal edge is built
    rng = random.Random(43)
    networks = [two_routes(),
                FlowInstance(3, [(0, 1, 3, 1), (0, 0, 2, 1), (1, 2, 1, 2),
                                 (0, 2, 3, 1), (1, 2, 2, 1)], 0, 2, 3),
                FlowInstance(3, [(0, 1, 1, 1), (1, 2, 3, 1)], 0, 2, 2)]
    networks += [random_flow_instance(rng, rng.randint(2, 6),
                                      rng.randint(1, 9), rng.randint(1, 3),
                                      cap_max=4, cost_max=3)
                 for _ in range(30)]
    for K in networks:
        g = build_gadget_network(K)
        inst, k = g.instance, K.target_value
        first_y = k + len(g.units)
        S = [k + i for i, e in enumerate(g.units) if K.edges[e][0] == K.source]
        T = [k + i for i, e in enumerate(g.units) if K.edges[e][1] == K.sink]
        for x in range(k):
            assert [w for u, w in inst.edges if u == x] == [
                w for r, w in enumerate(S) if x <= r <= len(S) - k + x]
        into_y = {(u, w - first_y): inst.cost(e)
                  for e, (u, w) in enumerate(inst.edges) if w >= first_y}
        assert into_y == {(v, j): 1 for r, v in enumerate(T)
                          for j in range(k) if j <= r <= len(T) - k + j}


def test_gadget_keeps_every_flow_decomposable():
    # random networks with self-loops and parallel arcs: the gadget's
    # minimum decodes to the classical minimum flow cost, and None comes
    # exactly when no value-k flow exists
    rng = random.Random(44)
    infeasible = looped = brute = 0
    for _ in range(300):
        n, k = rng.randint(2, 7), rng.randint(1, 3)
        s, t = rng.sample(range(n), 2)
        arcs = [(s, t, rng.randint(1, 3), rng.randint(1, 4))] * (
            rng.random() < 0.3)
        arcs += [(rng.randrange(n), rng.randrange(n), rng.randint(1, 4),
                  rng.randint(1, 4)) for _ in range(rng.randint(1, 10))]
        arcs += rng.choices(arcs, k=rng.randint(0, 2))  # parallel copies
        looped += any(u == v for u, v, _cap, _cost in arcs)
        K = FlowInstance(n, arcs, s, t, k)
        want = oracle.classic_min_cost_flow(K)
        got = min_cost_flow(K, params64(rng.getrandbits(32)))
        assert (got is None) == (want is None)
        infeasible += want is None
        if got is not None:
            assert got[0] == want[0]
            assert validate_flow(K, got[1])[0]
        g = build_gadget_network(K)
        if g.instance.n <= 12:
            best = oracle.brute_force_disjoint_paths(g.instance, limit=12)
            assert (None if best is None
                    else extract_cost(best[0], g.scale)) == (
                None if want is None else want[0])
            brute += 1
    assert 30 <= infeasible <= 270 and looped >= 30 and brute >= 100


def test_gadget_single_edge_costs():
    K = FlowInstance(2, [(0, 1, 1, 1)], 0, 1, 1)
    g = build_gadget_network(K)
    M = g.scale
    assert M == 1 + 1 + 1
    inst = g.instance
    # X -> unit(0, 1) -> Y: unit-entering edge + connector
    assert inst.k == 1 and inst.n == 3 and inst.m == 2
    total = sum(inst.cost(e) for e in range(inst.m))
    assert total == (1 * M + 1) + 1
    assert extract_cost(total, M) == 1


def test_gadget_deterministic_build():
    K = two_routes()
    a = build_gadget_network(K)
    b = build_gadget_network(K)
    assert a.instance == b.instance
    assert a.units == b.units
    text = serialize_paths_instance(a.instance)
    assert parse_paths_instance(text) == a.instance


def test_gadget_charge_counts_its_vertices_and_edges(monkeypatch):
    # the ceiling is charged one cell per gadget vertex and two per edge,
    # counted before the build, self-loops and parallel arcs included
    charges = []
    monkeypatch.setattr(flow_mod, "_check_budget", charges.append)
    rng = random.Random(42)
    networks = [two_routes(),
                FlowInstance(4, [(0, 1, 1, 1), (1, 1, 2, 3), (1, 3, 1, 1),
                                 (0, 2, 1, 2), (2, 3, 1, 2)], 0, 3, 2),
                FlowInstance(3, [(0, 1, 1, 5), (0, 1, 1, 1), (1, 2, 2, 1),
                                 (2, 0, 3, 1), (0, 2, 4, 1)], 0, 2, 3)]
    networks += [random_flow_instance(rng, rng.randint(2, 6),
                                      rng.randint(1, 9), rng.randint(1, 3),
                                      cap_max=4, cost_max=3)
                 for _ in range(30)]
    for K in networks:
        inst = build_gadget_network(K).instance
        assert charges.pop() == inst.n + 2 * inst.m


def test_gadget_checked_against_the_ceiling_before_it_is_built():
    # k = 300 units on each of two arcs in series: 1,200 vertices and
    # 90,600 edges (90,000 from unit to unit), a charge of about 17 MiB,
    # refused under a 1 MiB ceiling
    K = parse_dimacs_flow(BIG_K)
    before = evaluator.DEFAULT_MEMORY_LIMIT
    evaluator.set_default_memory_limit(1 << 20)
    try:
        with pytest.raises(evaluator.BudgetError):
            build_gadget_network(K)
    finally:
        evaluator.set_default_memory_limit(before)


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


@pytest.mark.parametrize("eid", [-1, 6, 10])
def test_recover_flow_rejects_foreign_edges(eid):
    # two_routes' gadget has 6 edges: -1 must not read the last one, and
    # ids from 6 on are past the end
    g = build_gadget_network(two_routes())
    assert g.instance.m == 6
    ps = find_disjoint_paths(g.instance, params64(1))
    edge_ids = (ps.edge_ids[0] + (eid,),) + ps.edge_ids[1:]
    foreign = PathSet(paths=ps.paths, edge_ids=edge_ids,
                      total_cost=ps.total_cost)
    with pytest.raises(ValueError, match="not from this gadget network"):
        recover_flow(foreign, g)


def test_residue_bound_on_path_sets():
    # every disjoint simple path set in the gadget keeps its residue (one
    # per edge) below the scale, so floor extraction is exact; the cyclic
    # network's walk 0 -> 1 -> 0 -> 2 enters 3 units, residue 4 = k*n + 1
    cyclic = FlowInstance(3, [(0, 1, 1, 1), (1, 0, 1, 1), (0, 2, 1, 1)],
                          0, 2, 1)
    seen = []
    for K, at_least in (
            (FlowInstance(3, [(0, 1, 2, 2), (1, 2, 2, 1), (0, 2, 1, 3)],
                          0, 2, 2), 4),
            (cyclic, 2)):
        g = build_gadget_network(K)
        M = g.scale
        inst = g.instance
        examined = 0
        for ws in oracle.enumerate_proper_walk_sets(
                inst, inst.k * (inst.n - 1), mode="length"):
            walks = ws.walks
            vertices = [v for w in walks for v in w.vertices]
            if len(set(vertices)) != len(vertices):
                continue
            examined += 1
            total = sum(inst.cost(e) for w in walks for e in w.edge_ids)
            residue = sum(len(w.edge_ids) for w in walks)
            assert residue == total % M
            assert residue < M
            heads = [inst.edges[e][1] - inst.k
                     for w in walks for e in w.edge_ids]
            flow_cost = sum(K.edges[g.units[i]][3] for i in heads
                            if i < len(g.units))
            assert extract_cost(total, M) == flow_cost
            seen.append((K is cyclic, M, total, residue, flow_cost))
        assert examined >= at_least
    assert (True, 5, 19, 4, 3) in seen


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


def test_validate_flow_names_the_least_unbalanced_vertex():
    # two_routes with its routes listed in the other order, and the flow
    # stopped at vertices 2 and 1: both break conservation, and the
    # check, kept per arc endpoint, names vertex 1 first, as a scan over
    # every declared vertex does
    K = two_routes()
    K = FlowInstance(4, K.edges[2:] + K.edges[:2], 0, 3, 2)
    assert validate_flow(K, Flow(amounts=[1, 0, 1, 0], value=2, cost=2)) \
        == (False, "conservation violated at vertex 1")
    # vertices 4..9 carry no arc, and nothing is kept for them
    K = FlowInstance(10, K.edges, 0, 3, 2)
    assert validate_flow(K, Flow(amounts=[1, 1, 1, 1], value=2, cost=4)) \
        == (True, None)


_FRESH_FLOW = """
import gc, json, tracemalloc
from smallflow import FlowInstance, TestParams, min_cost_flow
K = FlowInstance(10**6, [(0, 1, 1, 1)], 0, 1, 1)
gc.collect()
tracemalloc.start()
cost, flow = min_cost_flow(K, TestParams(seed=1))
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps([cost, flow.amounts, peak]))
"""


def test_declared_vertices_cost_the_flow_no_memory():
    # In a fresh interpreter, a one-arc network declared with 10^6
    # vertices: its gadget has 3 vertices, and the gadget build and the
    # validation hold only the arc's endpoints.  One list or one slot per
    # declared vertex peaked at 64.45 MB here.
    src = os.path.dirname(os.path.dirname(flow_mod.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _FRESH_FLOW],
                         capture_output=True, text=True, env=env,
                         check=True).stdout
    cost, amounts, peak = json.loads(out)
    assert (cost, amounts) == (1, [1])
    assert peak < 1 << 20


_FRESH_GADGET = """
import gc, json, time, tracemalloc
from smallflow import BudgetError, FlowInstance, TestParams, min_cost_flow
K = FlowInstance(2, [(0, 1, 10**12, 1)], 0, 1, 10**12)
gc.collect()
tracemalloc.start()
t0 = time.perf_counter()
try:
    min_cost_flow(K, TestParams(seed=1))
    message = None
except BudgetError as exc:
    message = str(exc)
seconds = time.perf_counter() - t0
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps([message, seconds, peak]))
"""


def test_gadget_vertices_charged_before_its_units():
    # In a fresh interpreter, a one-arc network of capacity and value
    # 10^12: its gadget would hold 3 * 10^12 vertices, and the build
    # refuses them before it lists one unit.  Listing min(cap, k) units
    # per arc first peaked at 458 MB at k = 10^7 before the refusal.
    src = os.path.dirname(os.path.dirname(flow_mod.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _FRESH_GADGET],
                         capture_output=True, text=True, env=env,
                         check=True).stdout
    message, seconds, peak = json.loads(out)
    assert message.startswith(f"{3 * 10**12} table cells")
    assert seconds < 1
    assert peak < 1 << 14


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
    # exercising the slot-indexed unit copies
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
