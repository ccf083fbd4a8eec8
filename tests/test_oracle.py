import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from smallflow import FlowInstance, PathInstance, random_paths_instance, validate_flow
from smallflow import oracle as oracle_mod
from smallflow.network import ProperWalkSet, Walk
from smallflow.oracle import (
    EnumerationBudgetError,
    apply_phi,
    brute_force_disjoint_paths,
    classic_min_cost_flow,
    disjoint_paths_min_cost_via_flow,
    enumerate_proper_walk_sets,
    signature,
    symbolic_char2_polynomial,
    symbolic_cost_slices,
)


def test_enumeration_counts(single_edge, bipartite22, bottleneck):
    assert len(list(enumerate_proper_walk_sets(single_edge, 1))) == 1
    assert len(list(enumerate_proper_walk_sets(bipartite22, 2))) == 2
    sets = list(enumerate_proper_walk_sets(bottleneck, 4))
    assert len(sets) == 2
    assert all(2 in ws.walks[0].vertices for ws in sets)


def test_enumeration_exact_cost_mode():
    inst = PathInstance(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [0, 1], [2, 3],
                        costs=[1, 2, 2, 1])
    assert len(list(enumerate_proper_walk_sets(inst, 2, "cost"))) == 1
    assert len(list(enumerate_proper_walk_sets(inst, 3, "cost"))) == 0
    assert len(list(enumerate_proper_walk_sets(inst, 4, "cost"))) == 1


def test_enumeration_budget():
    inst = PathInstance(4, [(0, 1), (1, 2), (2, 1), (1, 3)], [0], [3])
    with pytest.raises(EnumerationBudgetError):
        list(enumerate_proper_walk_sets(inst, 3, budget=2))


def test_symbolic_polynomials(bipartite22, bottleneck):
    poly = symbolic_char2_polynomial(bipartite22, 2)
    assert poly.monomials == frozenset({(0, 3), (1, 2)})
    assert symbolic_char2_polynomial(bottleneck, 4).is_zero()
    nowhere = PathInstance(3, [(1, 2)], [0], [2])
    assert symbolic_char2_polynomial(nowhere, 2).is_zero()


def test_symbolic_cost_slices_bucketing():
    inst = PathInstance(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [0, 1], [2, 3],
                        costs=[1, 2, 2, 1])
    slices = symbolic_cost_slices(inst, 6)
    assert set(slices) == {2, 4}
    assert slices[2].monomials == frozenset({(0, 3)})
    assert slices[4].monomials == frozenset({(1, 2)})


def test_phi_identity_on_disjoint(bipartite22):
    ws = ProperWalkSet((Walk((0, 2), (0,)), Walk((1, 3), (3,))))
    assert signature(ws) is None
    assert apply_phi(bipartite22, ws) == ws


def test_phi_bottleneck_swap(bottleneck):
    ws = ProperWalkSet((Walk((0, 2, 3), (0, 2)), Walk((1, 2, 4), (1, 3))))
    swapped = apply_phi(bottleneck, ws)
    assert [w.vertices for w in swapped.walks] == [(0, 2, 4), (1, 2, 3)]
    assert swapped.monomial() == ws.monomial()
    assert apply_phi(bottleneck, swapped) == ws


def test_phi_involution_battery():
    rng = random.Random(20)
    examined = 0
    for _ in range(30):
        n = rng.randint(3, 6)
        k = rng.randint(1, min(3, n // 2))
        inst = random_paths_instance(rng, n, k, extra_edges=rng.randint(0, n))
        bound = min(k * (n - 1), 7)
        for ws in enumerate_proper_walk_sets(inst, bound):
            examined += 1
            sig = signature(ws)
            phi = apply_phi(inst, ws)
            if sig is None:
                assert phi == ws
                continue
            assert sig[0] < sig[1]
            assert phi != ws
            assert signature(phi)[:2] == sig[:2]
            assert phi.total_length == ws.total_length
            assert phi.monomial() == ws.monomial()
            assert apply_phi(inst, phi) == ws
    assert examined > 30


def test_brute_force_examples(single_edge, bottleneck):
    inst = PathInstance(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [0, 1], [2, 3],
                        costs=[1, 2, 2, 1])
    best, ps = brute_force_disjoint_paths(inst, mode="cost")
    assert best == 2
    assert ps.paths == ((0, 2), (1, 3))
    assert ps.edge_ids == ((0,), (3,))
    assert brute_force_disjoint_paths(bottleneck) is None
    costly = PathInstance(2, [(0, 1)], [0], [1], costs=[3])
    assert brute_force_disjoint_paths(costly, mode="cost")[0] == 3
    with pytest.raises(EnumerationBudgetError):
        big = PathInstance(12, [(0, 1)], [0], [1])
        brute_force_disjoint_paths(big)


def test_brute_force_respects_bound(bipartite22):
    assert brute_force_disjoint_paths(bipartite22, mode="length", bound=2)
    assert brute_force_disjoint_paths(bipartite22, mode="length", bound=1) \
        is None


def _enumerate_flows(K):
    """All capacity-respecting conserving flows of the target value."""
    ranges = [range(cap + 1) for _, _, cap, _ in K.edges]
    best = None
    for amounts in itertools.product(*ranges):
        net = [0] * K.n
        for eid, (u, v, _c, _w) in enumerate(K.edges):
            net[u] += amounts[eid]
            net[v] -= amounts[eid]
        if any(net[v] != 0 for v in range(K.n)
               if v not in (K.source, K.sink)):
            continue
        if net[K.source] != K.target_value:
            continue
        cost = sum(a * K.edges[eid][3] for eid, a in enumerate(amounts))
        if best is None or cost < best:
            best = cost
    return best


def test_classic_mcmf_two_routes():
    K = FlowInstance(4, [(0, 1, 1, 1), (1, 3, 1, 1), (0, 2, 1, 1),
                         (2, 3, 1, 1)], 0, 3, 2)
    cost, flow = classic_min_cost_flow(K)
    assert cost == 4
    assert flow.amounts == [1, 1, 1, 1]
    ok, diag = validate_flow(K, flow)
    assert ok, diag


_FRESH_NAMED = """
import gc, json, tracemalloc
from smallflow import FlowInstance, PathInstance
from smallflow.oracle import (classic_min_cost_flow,
                              disjoint_paths_min_cost_via_flow)
K = FlowInstance(4294967295, [(0, 1, 1, 1)], 0, 1, 1)
inst = PathInstance(10**5, [(0, 1)], [0], [1], costs=[3])
peaks = []
for query in (lambda: classic_min_cost_flow(K),
              lambda: disjoint_paths_min_cost_via_flow(inst)):
    gc.collect()
    tracemalloc.start()
    answer = query()
    peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
    print(json.dumps(answer[0] if isinstance(answer, tuple) else answer))
print(json.dumps(peaks))
"""


def test_oracle_flows_hold_only_named_vertices():
    # In a fresh interpreter: a one-arc network of 2^32 - 1 vertices, and
    # a one-edge paths instance of 10^5.  Keyed by the vertices that the
    # arcs and terminals name, each oracle holds a few of them; tables
    # over every declared vertex would take 2^32 lists, and 2 * 10^5 + 2.
    src = os.path.dirname(os.path.dirname(oracle_mod.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _FRESH_NAMED],
                         capture_output=True, text=True, env=env,
                         check=True, timeout=60).stdout
    flow_cost, paths_cost, peaks = map(json.loads, out.splitlines())
    assert (flow_cost, paths_cost) == (1, 3)
    assert max(peaks) < 1 << 14


def test_classic_mcmf_infeasible():
    K = FlowInstance(2, [(0, 1, 1, 1)], 0, 1, 2)
    assert classic_min_cost_flow(K) is None


def test_classic_mcmf_vs_enumeration():
    rng = random.Random(21)
    from smallflow import random_flow_instance
    for _ in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(1, 6)
        k = rng.randint(1, 2)
        K = random_flow_instance(rng, n, m, k, cap_max=2, cost_max=4,
                                 plant=rng.random() < 0.6)
        want = _enumerate_flows(K)
        got = classic_min_cost_flow(K)
        if want is None:
            assert got is None
        else:
            assert got is not None and got[0] == want
            ok, diag = validate_flow(K, got[1])
            assert ok, diag


def test_split_reduction_matches_brute_force():
    rng = random.Random(22)
    for _ in range(30):
        n = rng.randint(3, 7)
        k = rng.randint(1, min(3, n // 2))
        inst = random_paths_instance(rng, n, k,
                                     extra_edges=rng.randint(0, n),
                                     cost_max=4, plant=rng.random() < 0.7)
        bf = brute_force_disjoint_paths(inst, mode="cost")
        via = disjoint_paths_min_cost_via_flow(inst)
        assert (bf[0] if bf else None) == via


def test_nonzero_polynomial_iff_disjoint_paths():
    # symbolic polynomial nonzero iff disjoint paths exist within the bound
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(3, 6)
        k = rng.randint(1, min(3, n // 2))
        inst = random_paths_instance(rng, n, k,
                                     extra_edges=rng.randint(0, n),
                                     plant=rng.random() < 0.5)
        l = k * (n - 1)
        poly = symbolic_char2_polynomial(inst, l)
        found = brute_force_disjoint_paths(inst, mode="length", bound=l)
        assert poly.is_zero() == (found is None)


def test_least_slice_monomials_are_disjoint_path_systems():
    # Monomials that survive cancellation come from pairwise disjoint walk
    # sets, but a walk may still repeat a vertex.  x -> a -> b -> a -> b ->
    # y has no other ordering, so at l = k(n - 1) = 5 its five edges
    # survive, above max_path_edges() = min(m, n - k) = 4.  Removing a
    # cycle leaves a cheaper disjoint set, so at the least nonzero cost
    # slice, the one slice whose false zero changes an answer, every
    # surviving monomial is k disjoint simple paths: distinct edges, at
    # most max_path_edges() of them.
    loop = PathInstance(6, [(0, 2), (2, 3), (3, 2), (3, 1)], [0], [1])
    assert (0, 1, 1, 2, 3) in symbolic_char2_polynomial(loop, 5).monomials
    rng = random.Random(29)
    checked = 0
    for _ in range(40):
        n = rng.randint(3, 6)
        k = rng.randint(1, min(3, n // 2))
        inst = random_paths_instance(rng, n, k,
                                     extra_edges=rng.randint(0, 2 * n),
                                     cost_max=4, plant=rng.random() < 0.7)
        found = brute_force_disjoint_paths(inst, mode="cost")
        if found is None:
            continue
        slices = symbolic_cost_slices(inst, found[0])
        assert min(slices) == found[0]
        for mono in slices[found[0]].monomials:
            heads = {inst.edges[e][1] for e in mono}
            tails = {inst.edges[e][0] for e in mono}
            assert len(set(mono)) == len(mono) <= inst.max_path_edges()
            assert len(heads) == len(tails) == len(mono)
            checked += 1
    assert checked > 20
