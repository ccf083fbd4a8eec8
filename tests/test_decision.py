import json
import os
import random
import subprocess
import sys

import pytest

from smallflow import (
    FlowInstance,
    GF2Field,
    PathInstance,
    RetriesExhaustedError,
    TestParams,
    build_gadget_network,
    decide_cost_bounded,
    decide_disjoint_paths,
    default_repetitions,
    find_disjoint_paths,
    min_cost_disjoint_paths,
    min_cost_flow,
    random_flow_instance,
    random_paths_instance,
)
from smallflow import decision, evaluator, extraction, flow, oracle
from smallflow.decision import NONZERO, ZERO, Verdict
from smallflow.evaluator import (
    ScanGraph,
    TablePlan,
    eval_length_bounded_seq,
    scan_min_cost_slice,
    slice_support,
)
from smallflow.field import derive_rng


def params64(seed=0, reps=3):
    return TestParams(field=GF2Field(64), repetitions=reps, seed=seed)


def detour_chain(short, long):
    """k = 1, x = 0 to y = 1 by a chain of `short` >= 2 edges and by one
    of `long` edges listed after it, which the Menger search takes (it
    follows the last head it pushed).  Unit costs: the optimum is short,
    and so is the floor, so every bound from short to long - 1 is
    answered by the tables or scans at degree min(bound, n - 1)."""
    n = short + long
    inner = iter(range(2, n))
    edges = []
    for length in (short, long):
        route = [0] + [next(inner) for _ in range(length - 1)] + [1]
        edges += zip(route, route[1:])
    return PathInstance(n, edges, [0], [1])


def found_total(inst, costs=None):
    """The total length (or cost, at `costs`) of inst.menger_paths()."""
    return sum(1 if costs is None else costs[e]
               for path in inst.menger_paths() for e in path)


def test_single_edge_nonzero(single_edge, detour):
    # the edge is the Menger search's own path, within l = 1: an exact
    # NONZERO with no witness and no degree
    assert decide_disjoint_paths(single_edge, 1, params64()) == \
        Verdict(NONZERO)
    # the search's paths total 6 and the optimum is 4: the tables answer,
    # and the verdict holds the point they were nonzero at and the degree
    v = decide_disjoint_paths(detour, 4, params64())
    assert v.nonzero
    assert v.witness_assignment is not None
    assert v.degree == 4


def _assert_polynomials_vanish(inst, l, params):
    """The cancellation theorem, at the engines: on an instance without k
    disjoint paths, the length tables at l and the cost scan to the
    simple-set cap are zero at every assignment the query would draw."""
    plan = TablePlan(inst, l)
    graph = ScanGraph(inst, inst.cost_list())
    degree = decision.slice_degree(inst, l)  # decide's, as it draws
    for f in params.assignments(inst, degree, "decide-length"):
        assert eval_length_bounded_seq(plan, f, params.field) == 0
        assert scan_min_cost_slice(graph, f, params.field,
                                   cap=inst.simple_cost_cap()) is None
        # the cap may lie below every walk set; cap l reaches those the
        # tables count
        assert scan_min_cost_slice(graph, f, params.field,
                                   cap=max(l, inst.k)) is None


def test_bottleneck_zero(bottleneck):
    v = decide_disjoint_paths(bottleneck, 4, params64())
    assert not v.nonzero
    assert v.witness_assignment is None
    # min(l, m, n - k) = 3 is below the floor 2 + 2, and no two disjoint
    # paths exist: an exact ZERO, no table ran
    assert v.degree is None
    # the tables at l = 4 reach the floor, and every walk set meets at v
    _assert_polynomials_vanish(bottleneck, 4, params64())


def test_bipartite_nonzero(bipartite22):
    assert decide_disjoint_paths(bipartite22, 2, params64()).nonzero


def test_cost_bounded_examples():
    inst = PathInstance(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [0, 1], [2, 3],
                        costs=[1, 2, 2, 1])
    assert decide_cost_bounded(inst, 2, params64()).nonzero
    assert not decide_cost_bounded(inst, 1, params64()).nonzero
    nowhere = PathInstance(4, [(2, 0), (3, 1)], [0, 1], [2, 3],
                           costs=[1, 1])
    assert not decide_cost_bounded(nowhere, 50, params64()).nonzero


def test_cost_bounded_floor_zero_is_exact(monkeypatch):
    # two disjoint paths of cost 6 exist, and every walk set of cost 4 or 5
    # meets at vertex 2; no walk set costs less than the floor 2 + 2
    inst = PathInstance(8, [(0, 2), (1, 2), (2, 3), (2, 4), (0, 5), (5, 6),
                            (6, 7), (7, 3)], [0, 1], [3, 4])
    drawn = []
    real_draw = decision.random_assignment

    def draw(*args):
        drawn.append(args)
        return real_draw(*args)

    monkeypatch.setattr(decision, "random_assignment", draw)
    got = {u: decide_cost_bounded(inst, u, params64()) for u in (1, 3, 4, 6)}
    assert [(got[u].answer, got[u].degree) for u in (1, 3, 4, 6)] == [
        ("ZERO", None), ("ZERO", None), ("ZERO", 4), ("NONZERO", None)]
    # u = 1 and 3 lie below the floor: no assignment drawn; u = 4 draws
    # all three, and at u = 6 the Menger search's own paths, the only two
    # disjoint ones, answer with no draw
    assert len(drawn) == 3


def test_infeasible_queries_answer_before_any_evaluation(monkeypatch,
                                                         bottleneck):
    # no k disjoint paths: every query kind answers exactly, and builds no
    # plan or scan graph (so computes no sink distances), evaluates no
    # table and draws no assignment
    built, distances = [], []
    real_distances = evaluator.sink_distances

    class CountingGraph(ScanGraph):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    def count_distances(*args):
        distances.append(args)
        return real_distances(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("evaluated an infeasible instance")

    for module in (decision, extraction):
        monkeypatch.setattr(module, "ScanGraph", CountingGraph)
    monkeypatch.setattr(evaluator, "sink_distances", count_distances)
    for name in ("random_assignment", "eval_length_bounded_seq",
                 "scan_min_cost_slice"):
        monkeypatch.setattr(decision, name, refuse)
    # the six-vertex bottleneck reaches the floor at l = 4, so the check
    # alone answers it; the battery adds instances of every kind
    rng = random.Random(41)
    battery = [PathInstance(6, bottleneck.edges, [0, 1], [3, 4])]
    while len(battery) < 30:
        n = rng.randint(4, 9)
        inst = random_paths_instance(rng, n, rng.randint(1, min(3, n // 2)),
                                     extra_edges=rng.randint(0, n),
                                     cost_max=3, plant=False)
        if oracle.disjoint_paths_min_cost_via_flow(inst) is None:
            battery.append(inst)
    p = params64()
    for inst in battery:
        distances.clear()
        v = decide_disjoint_paths(inst, inst.k * (inst.n - 1), p)
        assert (v.answer, v.degree) == ("ZERO", None)
        assert distances == []
        u = inst.k * inst.n * max(inst.cost_list(), default=1)
        v = decide_cost_bounded(inst, u, p)
        assert (v.answer, v.degree) == ("ZERO", None)
        assert min_cost_disjoint_paths(inst, p) is None
        for strategy in ("deletion", "isolation"):
            report = {}
            assert find_disjoint_paths(inst, p, strategy=strategy,
                                       report=report) is None
            assert report["attempts"] == 0
        assert built == [] and distances == []
    # one value-2 flow cannot pass a capacity-1 cut: the gadget has no two
    # disjoint paths
    cut = FlowInstance(3, [(0, 1, 1, 1), (1, 2, 1, 1)], source=0, sink=2,
                       target_value=2)
    assert min_cost_flow(cut, p) is None
    assert built == [] and distances == []


def test_found_paths_answer_nonzero_before_any_evaluation(monkeypatch,
                                                          detour):
    # at a bound the Menger search's own paths meet, both decide functions
    # answer an exact NONZERO, with degree and witness None, and build no
    # TablePlan or ScanGraph, draw no point and check no field (the check
    # lies in TestParams.assignments)
    built, drawn = [], []
    draw = TestParams.assignments

    class CountingPlan(TablePlan):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    class CountingGraph(ScanGraph):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(decision, "TablePlan", CountingPlan)
    monkeypatch.setattr(decision, "ScanGraph", CountingGraph)
    monkeypatch.setattr(TestParams, "assignments",
                        lambda self, *a: drawn.append(a) or draw(self, *a))
    rng = random.Random(52)
    settled = 0
    while settled < 100:
        n = rng.randint(3, 12)
        inst = random_paths_instance(rng, n, rng.randint(1, min(3, n // 2)),
                                     extra_edges=rng.randint(0, 2 * n),
                                     cost_max=4)
        if inst.menger_paths() is None:
            continue
        settled += 1
        length, cost = found_total(inst), found_total(inst, inst.costs)
        p = params64(rng.getrandbits(32))
        for l in (length, rng.randint(length, inst.k * (n - 1))):
            assert decide_disjoint_paths(inst, l, p) == Verdict(NONZERO)
        for u in (cost, cost + rng.randint(0, 10)):
            assert decide_cost_bounded(inst, u, p) == Verdict(NONZERO)
    assert built == drawn == []
    # the spies see an evaluated query: one plan, and its points
    assert decide_disjoint_paths(detour, 4, params64()).degree == 4
    assert len(built) == len(drawn) == 1


def test_tables_agree_with_the_oracle_at_tight_bounds():
    # 500 instances whose Menger paths are longer than the least length,
    # so the tables, not those paths, decide it, at t = 3 over GF(2^64):
    # NONZERO at the least length, with the tables' degree, and ZERO one
    # below it, where the floor answers exactly or the tables evaluate
    # (at least 50 times).  Criterion 4 asks at l = k(n - 1), which the
    # found paths always meet, so this keeps its length test randomized.
    rng = random.Random(414)
    battery = []
    while len(battery) < 500:
        n = rng.randint(4, 10)
        inst = random_paths_instance(rng, n, rng.randint(1, min(3, n // 2)),
                                     extra_edges=rng.randint(n, 4 * n))
        least = _least_length(inst)
        if least is not None and found_total(inst) > least:
            battery.append((inst, least))
    evaluated_zeros = 0
    for inst, least in battery:
        p = params64(rng.getrandbits(48))
        v = decide_disjoint_paths(inst, least, p)
        assert (v.answer, v.degree) == (NONZERO, least), inst
        if least > 1:
            v = decide_disjoint_paths(inst, least - 1, p)
            assert v.answer == ZERO, inst
            evaluated_zeros += v.degree is not None
    assert evaluated_zeros >= 50, evaluated_zeros


def test_false_zero_raises_instead_of_none():
    # one path 3 -> 0 -> 1 of cost 4, whose slice is zero at the single
    # GF(2^8) point of seed 263: the instance has k disjoint paths, so a
    # None would be wrong, and the search raises instead
    inst = PathInstance(4, [(3, 0), (0, 1), (2, 3), (2, 0)], [3], [1],
                        costs=[2, 2, 3, 2])
    small = TestParams(field=GF2Field(8), repetitions=1, seed=263)
    with pytest.raises(RetriesExhaustedError, match="no nonzero slice"):
        min_cost_disjoint_paths(inst, small)
    with pytest.raises(RetriesExhaustedError):
        find_disjoint_paths(inst, small)
    assert min_cost_disjoint_paths(inst, params64(263)) == 4


def test_exact_answers_before_the_field_check():
    # no two disjoint paths: both sources enter vertex 2, whose one way on
    # is a unit chain to 297.  The queries' edge-count degrees (298, the
    # simple-set cap) are beyond GF(2^8), but each answers exactly first
    inst = PathInstance(300, [(0, 2), (1, 2)]
                        + [(v, v + 1) for v in range(2, 297)]
                        + [(297, 298), (297, 299)], [0, 1], [298, 299])
    assert inst.simple_cost_cap() == 298
    small = TestParams(field=GF2Field(8), repetitions=1, seed=0)
    v = decide_cost_bounded(inst, 300, small)
    assert (v.answer, v.degree) == ("ZERO", None)
    assert min_cost_disjoint_paths(inst, small) is None
    for strategy in ("deletion", "isolation"):
        assert find_disjoint_paths(inst, small, strategy=strategy) is None
    # with the paths in place, a unit chain of 257 edges: the Menger
    # search's path meets bound 257, an exact NONZERO before the field
    # check too, while min_cost_disjoint_paths checks its degree 257 and
    # refuses as before
    chain = PathInstance(258, [(v, v + 1) for v in range(257)], [0], [257])
    assert decide_disjoint_paths(chain, 257, small) == Verdict(NONZERO)
    assert decide_cost_bounded(chain, 257, small) == Verdict(NONZERO)
    with pytest.raises(ValueError, match="too small"):
        min_cost_disjoint_paths(chain, small)
    # with a chain of 257 edges that the search does not take (it finds
    # one of 258), bound 257 is evaluated at degree 257: refused
    feasible = detour_chain(257, 258)
    with pytest.raises(ValueError, match="too small"):
        decide_cost_bounded(feasible, 257, small)


def test_field_checked_before_any_point_is_drawn(monkeypatch):
    # each query has k disjoint paths and an edge-count degree beyond
    # GF(2^8), 257 at bound 257 on chains of 257 and 258 edges, of which
    # the Menger search takes the longer: it refuses the field before it
    # draws a point, and min_cost_disjoint_paths before it builds its
    # ScanGraph
    drawn, built = [], []
    draw, graph = decision.random_assignment, decision.ScanGraph
    monkeypatch.setattr(decision, "random_assignment",
                        lambda *a: drawn.append(a) or draw(*a))
    monkeypatch.setattr(decision, "ScanGraph",
                        lambda *a: built.append(a) or graph(*a))
    small = TestParams(field=GF2Field(8), repetitions=1, seed=0)
    chain = detour_chain(257, 258)
    costly = PathInstance(4, [(0, 2), (1, 3)], [0, 1], [2, 3],
                          costs=[200, 200])
    queries = [lambda: decide_disjoint_paths(chain, 257, small),
               lambda: decide_cost_bounded(chain, 257, small)] + [
        lambda s=s: find_disjoint_paths(chain, small, strategy=s)
        for s in ("deletion", "isolation")]
    for query in queries:
        with pytest.raises(ValueError, match="too small"):
            query()
    built.clear()  # decide_cost_bounded builds its graph before the check
    with pytest.raises(ValueError, match="too small"):
        min_cost_disjoint_paths(chain, small)
    assert drawn == built == []
    # the spies see the draw and the graph of a field that holds the
    # degree, 2 at cost 400 (two edges of cost 200)
    assert min_cost_disjoint_paths(costly, small) == 400
    assert len(drawn) == len(built) == 1


def test_costed_queries_checked_at_their_edge_count_degree():
    # a costed test's degree is slice_degree: cap // (least edge cost),
    # the most edges a walk set under the cap can have, clamped at
    # max_path_edges(), the most a set of disjoint simple paths can have.
    # Two edges of cost 200: the caps (400) are beyond GF(2^8), the degree
    # 2 is not, and every costed query answers.  A path of costs 1, 300,
    # 1: its caps (302, 701) over the least cost 1 are beyond GF(2^8) too,
    # and only the clamp at its 3 edges admits the field.  A chain of 257
    # edges of cost 3: both give 257 (771 // 3, 772 // 3 and 258 - 1), and
    # every query refuses the field.  Each instance has a costlier
    # parallel edge listed first, which the Menger search takes, so that
    # decide_cost_bounded at the optimum runs its scans
    small = TestParams(field=GF2Field(8), repetitions=3, seed=0)
    costly = PathInstance(4, [(0, 2), (0, 2), (1, 3)], [0, 1], [2, 3],
                          costs=[300, 200, 200])
    tall = PathInstance(4, [(0, 2), (2, 3), (2, 3), (3, 1)], [0], [1],
                        costs=[1, 400, 300, 1])
    assert (tall.simple_cost_cap(), tall.max_path_edges()) == (701, 3)
    chain = PathInstance(258, [(0, 1)] + [(v, v + 1) for v in range(257)],
                         [0], [257], costs=[4] + [3] * 257)
    assert decision.slice_degree(chain, chain.simple_cost_cap(), 3) == 257
    queries = [lambda inst, u: decide_cost_bounded(inst, u, small),
               lambda inst, u: min_cost_disjoint_paths(inst, small)] + [
        lambda inst, u, s=s: find_disjoint_paths(inst, small, strategy=s)
        for s in ("deletion", "isolation")]
    for inst, degree, want in ((costly, 2, 400), (tall, 3, 302)):
        assert found_total(inst, inst.costs) == want + 100
        verdict, cost, *found = [query(inst, want) for query in queries]
        assert verdict.nonzero and verdict.degree == degree
        assert cost == want
        assert [ps.total_cost for ps in found] == [want, want]
    assert found_total(chain, chain.costs) == 772
    for query in queries:
        with pytest.raises(ValueError, match="too small"):
            query(chain, 771)


def _feasible_battery(rng, count, keep=lambda inst: True):
    """count random instances with k disjoint paths: n 6-12, k 1-3,
    costs 1-4 and simple_cost_cap() below 2^8, each kept when keep(inst)
    holds."""
    battery = []
    while len(battery) < count:
        n, k = rng.randint(6, 12), rng.randint(1, 3)
        inst = random_paths_instance(rng, n, k, cost_max=4,
                                     extra_edges=rng.randint(n, 2 * n))
        if inst.menger_paths() is not None and \
                inst.simple_cost_cap() < 256 and keep(inst):
            battery.append(inst)
    return battery


def _least_length(inst):
    return oracle.disjoint_paths_min_cost_via_flow(inst, [1] * inst.m)


def unsettled_edges(graph, d):
    """How many edges classify_edges can test at slice d: those on some
    walk set of cost d and not on every one (it tests no other)."""
    support, forced = slice_support(graph, [True] * graph.instance.m, d)
    return sum(support) - sum(forced)


@pytest.mark.parametrize("kind", ["decide", "mincost", "deletion"])
def test_false_zero_rate_within_the_stated_bound(kind):
    # 60 instances x 100 seeds at t = 1 over GF(2^8).  A query errs with
    # probability at most degree / 2^8 (Schwartz-Zippel), every degree its
    # slice_degree: decide at its Verdict.degree, mincost at the degree it
    # checks, that of simple_cost_cap().  decide asks for the least
    # length, and its battery keeps only instances whose Menger paths are
    # longer (about 1 in 12), since those paths answer any bound they
    # meet exactly; only evaluated verdicts count, and all 6,000 must be.
    # find (deletion) adds, by a union bound, the slice_degree of d0 over
    # 2^8 for each edge test at d0, one at most per edge its support at d0
    # leaves unsettled; it makes one attempt, so the error of every test
    # counts.
    # A wrong answer is a false ZERO, a wrong cost, or
    # RetriesExhaustedError on these feasible instances.  Each query draws
    # its own points, so the count of wrong answers is dominated by a sum
    # of independent Bernoulli(b_i); with mu the sum of the b_i, Chernoff
    # gives P(count >= 2 mu) <= exp(-mu / 3), below 1e-12 here (decide's
    # mu is the least, about 84).  The field is small enough that some
    # answers are wrong, so the count measures.
    wrong, mu, evaluated = 0, 0.0, 0
    keep = (lambda inst: found_total(inst) > _least_length(inst)) \
        if kind == "decide" else (lambda inst: True)
    for inst in _feasible_battery(random.Random(19), 60, keep):
        l = _least_length(inst)
        want = oracle.disjoint_paths_min_cost_via_flow(inst)
        costs = inst.cost_list()
        bound = decision.slice_degree(inst, inst.simple_cost_cap(),
                                      min(costs)) / 256
        if kind == "deletion":
            tests = unsettled_edges(ScanGraph(inst, costs), want)
            bound = min(1.0, bound + tests * decision.slice_degree(
                inst, want, min(costs)) / 256)
        for seed in range(100):
            params = TestParams(field=GF2Field(8), repetitions=1, seed=seed)
            if kind == "decide":
                verdict = decide_disjoint_paths(inst, l, params)
                if verdict.degree is None:  # exact: not a test's answer
                    continue
                evaluated += 1
                wrong += not verdict.nonzero
                mu += verdict.degree / 256
                continue
            try:
                if kind == "mincost":
                    wrong += min_cost_disjoint_paths(inst, params) != want
                else:
                    wrong += find_disjoint_paths(
                        inst, params, max_retries=0).total_cost != want
            except RetriesExhaustedError:
                wrong += 1
            mu += bound
    assert 0 < wrong < 2 * mu, (wrong, mu)
    assert kind != "decide" or evaluated == 60 * 100, evaluated


def test_isolation_false_zero_rate_within_the_stated_bound():
    # 60 tiny feasible instances x 50 seeds at t = 1 over GF(2^8), which
    # every degree below fits (a query would refuse it otherwise), with
    # r = n^2 m.  One attempt, so the error of every scan counts.  By a
    # union bound a query errs with probability at most the sum over the
    # degrees its scans check, over 2^8: the slice_degree of the
    # perturbed simple_cost_cap() for U*, and that of U* for each edge
    # test, one at most per edge that the support at U* leaves unsettled
    # at the attempt's weights.  A wrong answer is a wrong cost or
    # RetriesExhaustedError; the count is bounded as in the test above.
    # An isolated optimum's slice is one monomial, which is zero only
    # where a variable is, so the bound is loose and the count can read 0.
    rng = random.Random(29)
    battery = []
    while len(battery) < 60:
        n = rng.randint(3, 6)
        inst = random_paths_instance(rng, n, rng.randint(1, min(2, n // 2)),
                                     cost_max=4, extra_edges=rng.randint(0, n))
        if inst.menger_paths() is not None:
            battery.append((inst,
                            oracle.disjoint_paths_min_cost_via_flow(inst),
                            extraction.paper_isolation_range(inst)))
    wrong, mu = 0, 0.0
    for inst, d0, r in battery:
        for seed in range(50):
            costs = list(extraction.perturb_costs(
                inst, r, derive_rng(seed, "perturb", 0)))
            u_star, _ = oracle.brute_force_disjoint_paths(
                inst, mode="cost", costs=costs)
            tests = unsettled_edges(ScanGraph(inst, costs), u_star)
            mu += min(1.0, (decision.slice_degree(
                inst, inst.simple_cost_cap(costs), min(costs)) + tests
                * decision.slice_degree(inst, u_star, min(costs))) / 256)
            params = TestParams(field=GF2Field(8), repetitions=1, seed=seed)
            try:
                wrong += find_disjoint_paths(
                    inst, params, max_retries=0,
                    strategy="isolation").total_cost != d0
            except RetriesExhaustedError:
                wrong += 1
    assert wrong < 2 * mu, (wrong, mu)


def _flow_false_zeros(rng, sizes, keep):
    """Wrong answers and their mu for min_cost_flow on 60 feasible
    networks x 50 seeds at t = 1 over GF(2^8), one attempt each.  A
    network is random_flow_instance(rng, *sizes(rng), plant=...), kept
    when keep(gadget, D, u) holds, D the gadget's optimum and u the edges
    its support at D leaves unsettled.  min_cost_flow extracts by
    deletion, so, as for deletion above, a query errs with probability at
    most b = (slice_degree of simple_cost_cap() + u * slice_degree of D)
    / 2^8.  Networks with b >= 1 are skipped, so that 2 mu stays below
    the query count.  A wrong answer is a wrong cost or
    RetriesExhaustedError, the truth from the classic min-cost-flow
    oracle."""
    wrong, mu, battery = 0, 0.0, 0
    while battery < 60:
        K = random_flow_instance(rng, *sizes(rng), plant=rng.random() < 0.9)
        want = oracle.classic_min_cost_flow(K)
        if want is None:
            continue
        gadget = build_gadget_network(K).instance
        costs = gadget.cost_list()
        d = oracle.disjoint_paths_min_cost_via_flow(gadget)
        tests = unsettled_edges(ScanGraph(gadget, costs), d)
        bound = (decision.slice_degree(gadget, gadget.simple_cost_cap(),
                                       min(costs)) + tests
                 * decision.slice_degree(gadget, d, min(costs))) / 256
        if not keep(gadget, d, tests) or bound >= 1:
            continue
        battery += 1
        for seed in range(50):
            params = TestParams(field=GF2Field(8), repetitions=1, seed=seed)
            try:
                wrong += min_cost_flow(K, params, max_retries=0)[0] != want[0]
            except RetriesExhaustedError:
                wrong += 1
            mu += bound
    return wrong, mu


def test_flow_false_zero_rate_within_the_stated_bound():
    # tiny networks whose gadgets have simple_cost_cap() + u * D below
    # 2^8, so that every one of their degrees fits GF(2^8) even before
    # the clamp at max_path_edges(); the count is bounded as above
    wrong, mu = _flow_false_zeros(
        random.Random(43),
        lambda rng: (rng.randint(3, 5), rng.randint(2, 6),
                     rng.randint(1, 2), 2, 3),
        lambda gadget, d, tests: gadget.simple_cost_cap() + tests * d < 256)
    assert wrong < 2 * mu < 50 * 60, (wrong, mu)


def test_flow_false_zero_rate_where_only_the_clamp_admits_the_field():
    # gadgets whose simple_cost_cap() is at least 2^8: their least edge
    # cost is 1 (the connectors), so only the clamp of slice_degree at
    # max_path_edges() lets a search at that cap run over GF(2^8).  The
    # count is bounded as above, and the field is small enough that some
    # answers are wrong, so the count measures the clamped bound
    wrong, mu = _flow_false_zeros(
        random.Random(47),
        lambda rng: (rng.randint(4, 6), rng.randint(4, 8),
                     rng.randint(1, 3), 3, 4),
        lambda gadget, d, tests: gadget.simple_cost_cap() >= 256)
    assert 0 < wrong < 2 * mu, (wrong, mu)


def test_min_cost_examples(bottleneck):
    inst = PathInstance(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [0, 1], [2, 3],
                        costs=[1, 2, 2, 1])
    assert min_cost_disjoint_paths(inst, params64()) == 2
    lone = PathInstance(2, [(0, 1)], [0], [1], costs=[3])
    assert min_cost_disjoint_paths(lone, params64()) == 3
    assert min_cost_disjoint_paths(bottleneck, params64()) is None


def test_one_sidedness_exhaustive():
    # whenever the oracle says infeasible, the evaluation is exactly zero
    rng = random.Random(30)
    for _ in range(60):
        n = rng.randint(3, 6)
        k = rng.randint(1, min(3, n // 2))
        inst = random_paths_instance(rng, n, k,
                                     extra_edges=rng.randint(0, n),
                                     plant=rng.random() < 0.4)
        l = k * (n - 1)
        feasible = oracle.brute_force_disjoint_paths(
            inst, mode="length", bound=l) is not None
        params = params64(seed=rng.random())
        verdict = decide_disjoint_paths(inst, l, params)
        if not feasible:
            # exact: no k disjoint paths, so the polynomial is zero, and
            # the query answers without evaluating it
            assert not verdict.nonzero and verdict.degree is None
            _assert_polynomials_vanish(inst, l, params)
        else:
            assert verdict.nonzero  # GF(2^64) false zero: < 1e-15


def test_amplification_monotone(detour):
    # at the optimum 4, below the Menger search's paths of total 6, so the
    # tables answer
    for seed in range(20):
        small = decide_disjoint_paths(detour, 4, params64(seed, reps=2))
        big = decide_disjoint_paths(detour, 4, params64(seed, reps=3))
        assert small.degree == big.degree == 4
        if small.nonzero:
            assert big.nonzero
            assert big.witness_assignment == small.witness_assignment


def test_seed_determinism(detour):
    a = decide_disjoint_paths(detour, 4, params64(7))
    b = decide_disjoint_paths(detour, 4, params64(7))
    assert a == b and a.degree == 4
    c = min_cost_disjoint_paths(
        PathInstance(2, [(0, 1)], [0], [1], costs=[2]), params64(7))
    d = min_cost_disjoint_paths(
        PathInstance(2, [(0, 1)], [0], [1], costs=[2]), params64(7))
    assert c == d


def test_param_validation(single_edge):
    with pytest.raises(ValueError, match="repetitions"):
        TestParams(repetitions=0)
    with pytest.raises(ValueError, match="too small"):
        small = TestParams(field=GF2Field(8), repetitions=1, seed=0)
        # the field is checked against the degree min(l, m, n - k) = 257
        # here, beyond GF(2^8): the Menger search's path has 258 edges,
        # more than l, so the tables answer
        decide_disjoint_paths(detour_chain(257, 258), 257, small)
    with pytest.raises(ValueError, match="outside"):
        decide_disjoint_paths(single_edge, 9, params64())
    with pytest.raises(ValueError, match=">= 1"):
        decide_cost_bounded(single_edge, 0, params64())
    assert default_repetitions(4) == 2
    assert default_repetitions(1000) == 19


def _meets_target(degree, t, s, n):
    """(degree / 2^s)^t <= 2^-max(n, 64), in integers."""
    return degree ** t * 2 ** max(n, 64) <= 2 ** (s * t)


@pytest.mark.parametrize("s", [8, 16, 32, 64])
def test_default_repetitions_is_the_least_count_meeting_the_target(s):
    # every test's degree is at most n - 1, so the default t is the least
    # with ((n - 1) / 2^s)^t <= 2^-max(n, 64); no t meets it where
    # 2^s <= n - 1
    for n in range(1, 2001):
        if 2 ** s <= n - 1:
            with pytest.raises(ValueError, match=rf"2\^{s} meets no"):
                default_repetitions(n, s)
            continue
        t = default_repetitions(n, s)
        assert _meets_target(n - 1, t, s, n), (n, t)
        assert not _meets_target(n - 1, t - 1, s, n), (n, t)
    assert [default_repetitions(n) for n in (2, 57, 331, 1000)] == [
        1, 2, 6, 19]
    assert default_repetitions(200, 8) == 551


# The tests whose ZERO an answer rests on, by the stream each draws its
# points from.  An edge test ("deletion", "isolation-tests") runs at one
# point, and its false zero costs a retry, never an answer.
SEARCH_STREAMS = {"decide-length", "decide-cost", "min-cost",
                  "find-perturbed"}


def _record_tests(monkeypatch):
    """A list that receives (stream, degree, t, n) for every test that
    draws its points through TestParams.assignments: t is the count it
    resolved, n the vertex count of the graph tested."""
    tests = []
    draw = TestParams.assignments

    def spy(self, instance, degree, *stream):
        points = draw(self, instance, degree, *stream)
        tests.append((stream[0], degree, self.repetitions_for(instance.n),
                      instance.n))
        return points

    monkeypatch.setattr(TestParams, "assignments", spy)
    return tests


@pytest.mark.parametrize("s", [8, 16, 64])
def test_stated_bound_within_the_target_at_default_repetitions(monkeypatch,
                                                              s):
    # every path query at the default TestParams count: each search draws
    # t = default_repetitions(n, s) points, and its slice_degree, at the
    # query's own cap and costs, gives a ZERO that errs with probability
    # at most 2^-max(n, 64); at s = 64 three instances past n = 64 hold
    # the tests to 2^-n, and n = 200 needs t = 4.  The decide bounds lie
    # from the floor to just below the length and cost of the Menger
    # search's own paths, which answer any bound at or above them with no
    # search; an instance with k disjoint paths is redrawn until its
    # found paths are longer than its floor, so that decide searches
    rng = random.Random(48)
    tests = _record_tests(monkeypatch)
    sizes = [rng.randint(4, 12) for _ in range(12)]
    if s == 64:
        sizes += [120, 130, 200]
    searched = dict.fromkeys(
        ["decide", "decide_cost", "mincost", "deletion", "isolation"], 0)
    for n in sizes:
        k = rng.randint(1, min(3 if n <= 12 else 2, n // 2))
        while True:
            inst = random_paths_instance(rng, n, k,
                                         extra_edges=rng.randint(n, 2 * n),
                                         cost_max=4, plant=rng.random() < 0.8)
            if inst.menger_paths() is None:
                l, u = rng.randint(1, k * (n - 1)), rng.randint(1, n)
                break
            l = found_total(inst) - 1
            floor = TablePlan(inst, max(l, 1)).floor
            if l >= floor:
                l = rng.randint(floor, l)
                top = found_total(inst, inst.costs) - 1
                u = rng.randint(min(ScanGraph(inst, inst.costs).floor, top),
                                top)
                break
        params = TestParams(field=GF2Field(s), seed=rng.getrandbits(32))
        cap, least = inst.simple_cost_cap(), min(inst.cost_list())
        queries = {
            "decide": (lambda: decide_disjoint_paths(inst, l, params),
                       decision.slice_degree(inst, l)),
            "decide_cost": (lambda: decide_cost_bounded(inst, u, params),
                            decision.slice_degree(inst, u, least)),
            "mincost": (lambda: min_cost_disjoint_paths(inst, params),
                        decision.slice_degree(inst, cap, least)),
            "deletion": (lambda: find_disjoint_paths(inst, params),
                         decision.slice_degree(inst, cap, least)),
        }
        if n <= 12:
            queries["isolation"] = (lambda: find_disjoint_paths(
                inst, params, strategy="isolation"), None)
        for kind, (query, degree) in queries.items():
            tests.clear()
            query()
            searches = [t for t in tests if t[0] in SEARCH_STREAMS]
            for _stream, got, t, tested_n in searches:
                assert (tested_n, t) == (n, default_repetitions(n, s))
                assert degree is None or got == degree, (kind, got, degree)
                assert got <= n - 1
                assert _meets_target(got, t, s, n), (kind, n)
            searched[kind] += bool(searches)
    assert min(searched.values()) >= 5, searched


def test_flow_gadget_bound_within_the_target_of_the_gadget(monkeypatch):
    # a flow query's tests run on its gadget, so at the default TestParams
    # count every gadget search draws t = default_repetitions(gadget n)
    # points and errs with probability at most 2^-max(gadget n, 64), on
    # criterion 6's battery and on a 2-vertex network whose gadget of 12
    # vertices searches at degree 9: t = 1 at the network's n would bound
    # it by 2^-60.8 alone
    rng = random.Random(606)
    tests = _record_tests(monkeypatch)
    battery = []
    for _ in range(200):
        n = rng.randint(3, 7)
        m = rng.randint(2, min(2 * n, 10))
        k = rng.choice([1, 1, 2, 2, 3])
        K = random_flow_instance(rng, n, m, k, cap_max=3, cost_max=4,
                                 plant=rng.random() < 0.75)
        battery.append((K, rng.getrandbits(48)))
    battery.append((FlowInstance(2, [(0, 1, 3, 1), (0, 1, 3, 2)], 0, 1, 3),
                    0))
    searched = 0
    for K, seed in battery:
        gadget_n = flow.gadget_vertex_count(K)
        tests.clear()
        min_cost_flow(K, TestParams(field=GF2Field(64), seed=seed),
                      max_retries=3)
        searches = [t for t in tests if t[0] in SEARCH_STREAMS]
        for _stream, degree, t, tested_n in searches:
            assert (tested_n, t) == (gadget_n, default_repetitions(gadget_n))
            assert _meets_target(degree, t, 64, gadget_n), degree
        searched += bool(searches)
    assert searched >= 100, searched
    # the 2-vertex network's one search
    assert [rec[1:] for rec in searches] == [(9, 2, 12)]


def test_degree_checked_after_capping():
    # u = 300 exceeds GF(2^8), but the scans stop at the simple-set cost
    # cap, so the field only has to exceed that degree.  decide_cost_bounded
    # needs no cap: its scans run only below the cost of the Menger
    # search's paths, which is at most the cap, and at u = 300 those paths
    # answer exactly, before the field check
    inst = random_paths_instance(random.Random(5), 20, 2, extra_edges=40)
    assert inst.simple_cost_cap() < 256
    small = TestParams(field=GF2Field(8), repetitions=3, seed=4)
    want = oracle.disjoint_paths_min_cost_via_flow(inst)
    assert min_cost_disjoint_paths(inst, small) == want
    assert decide_cost_bounded(inst, 300, small) == Verdict(NONZERO)


def test_agreement_battery():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(3, 8)
        k = rng.randint(1, min(3, n // 2))
        inst = random_paths_instance(rng, n, k,
                                     extra_edges=rng.randint(0, n),
                                     cost_max=5, plant=rng.random() < 0.7)
        p = params64(seed=rng.getrandbits(32))
        bf = oracle.brute_force_disjoint_paths(inst, mode="cost")
        want = bf[0] if bf else None
        assert min_cost_disjoint_paths(inst, p) == want
        if want is not None:
            assert decide_cost_bounded(inst, want, p).nonzero
            if want > 1:
                assert not decide_cost_bounded(inst, want - 1, p).nonzero


def test_min_cost_at_floor_scans_once(monkeypatch):
    # the optimum equals the scan graph's floor: after the first hit the
    # cap drops below the floor, so no other repetition draws a point or
    # makes a product
    inst = random_paths_instance(random.Random(3), 12, 2, extra_edges=16,
                                 cost_max=4)
    assert evaluator.ScanGraph(inst, inst.cost_list()).floor == 9
    products = 0
    real_mul = evaluator.vec_scalar_mul_w

    def counted(win, scalar):
        nonlocal products
        products += 1
        return real_mul(win, scalar)

    per_scan = []
    real_scan = decision.scan_min_cost_slice

    def scan(*args, **kwargs):
        before = products
        hit = real_scan(*args, **kwargs)
        per_scan.append(products - before)
        return hit

    drawn = []
    real_draw = decision.random_assignment

    def draw(*args):
        drawn.append(args)
        return real_draw(*args)

    monkeypatch.setattr(evaluator, "vec_scalar_mul_w", counted)
    monkeypatch.setattr(decision, "scan_min_cost_slice", scan)
    monkeypatch.setattr(decision, "random_assignment", draw)
    assert min_cost_disjoint_paths(inst, params64(8, reps=5)) == 9
    assert sum(1 for n in per_scan if n) == 1
    assert len(drawn) == 1


_WITNESS = """
import gc, json, random, tracemalloc
from array import array
from smallflow import (TestParams, decide_cost_bounded,
                       decide_disjoint_paths, decision, oracle,
                       random_paths_instance)
drawn = []
draw = decision.TestParams.assignments
def spy(self, instance, degree, *stream):
    for f in draw(self, instance, degree, *stream):
        drawn.append(array("Q", f))  # a copy that shares no int with f
        yield f
decision.TestParams.assignments = spy
out = []
for cost_max, decide in ((None, decide_disjoint_paths),
                         (4, decide_cost_bounded)):
    inst = random_paths_instance(random.Random(3), 60, 4, 200, cost_max)
    # the optimum, below the cost of the Menger search's own paths, so
    # the test is evaluated and its point kept
    bound = oracle.disjoint_paths_min_cost_via_flow(inst)
    decide(inst, bound, TestParams(seed=1))
    gc.collect()
    tracemalloc.start()
    v = decide(inst, bound, TestParams(seed=2))
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]
    same = v.nonzero and v.degree == bound and \
        list(v.witness_assignment) == list(drawn[-1])
    del v
    gc.collect()
    out.append([inst.m, held - tracemalloc.get_traced_memory()[0], same])
    tracemalloc.stop()
print(json.dumps(out))
"""


def test_nonzero_verdict_holds_its_witness_in_8_bytes_per_edge():
    # In a fresh interpreter, what dropping a NONZERO verdict frees: its
    # own tuple, and its witness of m field elements at 8 bytes each
    # with a small header.  A tuple of m Python ints takes about 48
    # bytes per edge (9.8 KB here).  The witness is the point the test
    # was nonzero at: the last one TestParams.assignments drew, at the
    # bound as the degree.
    src = os.path.dirname(os.path.dirname(decision.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _WITNESS],
                         capture_output=True, text=True, env=env,
                         check=True).stdout
    for m, freed, same in json.loads(out):
        assert m == 222
        assert same
        assert freed <= 8 * m + 256
