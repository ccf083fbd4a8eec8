import random

import pytest

from smallflow import (
    BudgetError,
    FlowInstance,
    GF2Field,
    PathInstance,
    RetriesExhaustedError,
    TestParams,
    assemble_paths,
    build_gadget_network,
    classify_edges,
    find_disjoint_paths,
    find_min_perturbed_cost,
    min_cost_disjoint_paths,
    min_cost_flow,
    perturb_costs,
    random_flow_instance,
    random_paths_instance,
)
from smallflow.extraction import (
    AssemblyError,
    _deletion_attempt,
    paper_isolation_range,
)
from smallflow import decision, evaluator, extraction, oracle
from smallflow.decision import slice_degree
from smallflow.evaluator import (
    ScanGraph,
    random_assignment,
    scan_min_cost_slice,
    slice_support,
)
from smallflow.field import derive_rng


def params64(seed=0, reps=1):
    return TestParams(field=GF2Field(64), repetitions=reps, seed=seed)


class FixedRng:
    def __init__(self, value):
        self.value = value

    def randint(self, lo, hi):
        assert lo <= self.value <= hi
        return self.value


def costed_bipartite(costs=(1, 2, 2, 1)):
    return PathInstance(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [0, 1], [2, 3],
                        costs=list(costs))


def replayed_weights(rng, r, m):
    """The m weights perturb_costs draws from rng's current state, drawn
    from a copy of that state: randint(1, r) once per edge, in id order."""
    replay = random.Random()
    replay.setstate(rng.getstate())
    return [replay.randint(1, r) for _ in range(m)], replay.getstate()


def test_perturb_formula():
    # every weight 7, scale r*m + 1 = 51: 2 * 51 + 7 per edge
    inst = PathInstance(7, [(0, 2)] * 5, [0], [1], costs=[2] * 5)
    assert perturb_costs(inst, 10, FixedRng(7)) == (109,) * 5
    # c(e) * (r*m + 1) + w(e), w(e) the rng's next draw in [1, r], and
    # exactly m draws taken
    rng = random.Random(3)
    for r in (1, 2, 10, 1000):
        inst = random_paths_instance(rng, 7, 2, extra_edges=6, cost_max=5)
        weights, after = replayed_weights(rng, r, inst.m)
        assert all(1 <= w <= r for w in weights)
        got = perturb_costs(inst, r, rng)
        assert got == tuple(c * (r * inst.m + 1) + w
                            for c, w in zip(inst.cost_list(), weights))
        assert rng.getstate() == after


def test_perturbed_ordering_preserved():
    # original-cost-suboptimal sets stay suboptimal under any weights
    inst = costed_bipartite()
    rng = random.Random(1)
    for _ in range(50):
        pc = perturb_costs(inst, 8, rng)
        cheap = pc[0] + pc[3]   # original cost 2
        costly = pc[1] + pc[2]  # original cost 4
        assert cheap < costly


def test_decoding_identity():
    rng = random.Random(2)
    inst = random_paths_instance(rng, 8, 2, extra_edges=8, cost_max=4)
    weights, _ = replayed_weights(rng, 16, inst.m)
    pc = perturb_costs(inst, 16, rng)
    scale = 16 * inst.m + 1
    for _ in range(100):
        subset = [e for e in range(inst.m) if rng.random() < 0.4]
        w = sum(weights[e] for e in subset)
        d = sum(inst.costs[e] for e in subset)
        total = sum(pc[e] for e in subset)
        assert total == d * scale + w
        if w < scale:
            assert total // scale == d


def test_isolation_ranges():
    inst = costed_bipartite()
    assert paper_isolation_range(inst) == 16 * 4


def test_uniqueness_fraction_with_two_optima():
    # all-ones bipartite: two optimal sets of cost 2; isolation should
    # separate them in all but ~1/r of the trials
    inst = costed_bipartite((1, 1, 1, 1))
    r = 64
    trials = 400
    unique = 0
    rng = random.Random(4)
    for _ in range(trials):
        pc = perturb_costs(inst, r, rng)
        a = pc[0] + pc[3]
        b = pc[1] + pc[2]
        unique += a != b
    # spec bound with 3 sigma slack; the true collision rate here is ~1/r
    import math
    p = 1 - inst.m / r
    sigma = math.sqrt(p * (1 - p) / trials)
    assert unique / trials >= p - 3 * sigma


def test_find_min_perturbed_cost_matches_oracle():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(4, 7)
        k = rng.randint(1, min(2, n // 2))
        inst = random_paths_instance(rng, n, k,
                                     extra_edges=rng.randint(0, n),
                                     cost_max=3, plant=rng.random() < 0.8)
        pc = perturb_costs(inst, 16, rng)
        got = find_min_perturbed_cost(ScanGraph(inst, list(pc)),
                                      params64(rng.getrandbits(32)))
        bf = oracle.brute_force_disjoint_paths(inst, mode="cost",
                                               costs=list(pc))
        assert got == (bf[0] if bf else None)


def test_find_min_perturbed_absent(bottleneck):
    pc = perturb_costs(bottleneck, 8, random.Random(6))
    pgraph = ScanGraph(bottleneck, list(pc))
    assert find_min_perturbed_cost(pgraph, params64()) is None


def test_unique_path_instance_pipeline():
    # a forced chain: U* is the sum of its perturbed edge costs, every
    # chain edge is essential, nothing else is
    inst = PathInstance(5, [(0, 2), (2, 3), (3, 1), (2, 1)], [0], [1],
                        costs=[1, 2, 1, 9])
    rng = random.Random(8)
    pc = perturb_costs(inst, 32, rng)
    p = params64(77)
    pgraph = ScanGraph(inst, list(pc))
    u_star = find_min_perturbed_cost(pgraph, p)
    assert u_star == pc[0] + pc[1] + pc[2]
    point = next(p.assignments(
        inst, slice_degree(inst, u_star, min(pgraph.costs)), "classify"))
    essential = classify_edges(pgraph, u_star, point, p.field)
    assert essential == {0, 1, 2}


def test_classify_unique_optimum():
    inst = costed_bipartite()  # unique optimum {e0, e3}, cost 2
    rng = random.Random(7)
    pc = perturb_costs(inst, 64, rng)
    u_star = pc[0] + pc[3]
    p = params64(7)
    degree = slice_degree(inst, u_star, min(pc))
    essential = classify_edges(ScanGraph(inst, list(pc)), u_star,
                               next(p.assignments(inst, degree,
                                                  "classify")),
                               p.field)
    assert essential == {0, 3}


def test_assemble_success(path_set_problem):
    inst = costed_bipartite()
    ps = assemble_paths(inst, {0, 3}, inst.cost_list(), 2)
    assert path_set_problem(inst, ps) is None
    assert ps.paths == ((0, 2), (1, 3))
    assert ps.total_cost == 2
    # the checker itself: a wrong price, a wrong edge, a shared vertex
    for bad in (ps._replace(total_cost=3),
                ps._replace(edge_ids=((1,), (3,))),
                ps._replace(paths=((0, 2), (1, 2)), edge_ids=((0,), (2,)))):
        assert path_set_problem(inst, bad) is not None


def test_assemble_failures():
    inst = costed_bipartite()
    with pytest.raises(AssemblyError, match="degree violation"):
        assemble_paths(inst, {0, 1, 2, 3}, inst.cost_list(), 6)
    with pytest.raises(AssemblyError, match="cost"):
        assemble_paths(inst, {0, 3}, inst.cost_list(), 5)
    with pytest.raises(AssemblyError, match="no essential edge"):
        assemble_paths(inst, {0}, inst.cost_list(), 1)
    # internal vertex with two outgoing essential edges
    inst2 = PathInstance(5, [(0, 2), (2, 3), (2, 4), (4, 3)], [0], [3])
    with pytest.raises(AssemblyError, match="degree violation at vertex 2"):
        assemble_paths(inst2, {0, 1, 2}, inst2.cost_list(), 3)
    # leftover two-cycle disconnected from the traced path
    inst3 = PathInstance(5, [(0, 1), (2, 3), (3, 2), (2, 3)], [0], [1])
    with pytest.raises(AssemblyError, match="degree|off every path"):
        assemble_paths(inst3, {0, 1, 2}, inst3.cost_list(), 3)


def test_find_disjoint_paths_examples(single_edge, bottleneck,
                                      path_set_problem):
    inst = costed_bipartite()
    ps = find_disjoint_paths(inst, params64(9))
    assert path_set_problem(inst, ps) is None
    assert ps.total_cost == 2
    lone = find_disjoint_paths(single_edge, params64(9))
    assert lone.paths == ((0, 1),)
    assert find_disjoint_paths(bottleneck, params64(9)) is None


def test_find_disjoint_paths_strategies_agree(path_set_problem):
    rng = random.Random(10)
    for _ in range(25):
        n = rng.randint(4, 8)
        k = rng.randint(1, min(3, n // 2))
        inst = random_paths_instance(rng, n, k,
                                     extra_edges=rng.randint(0, n),
                                     cost_max=4, plant=rng.random() < 0.8)
        p = params64(rng.getrandbits(32))
        bf = oracle.brute_force_disjoint_paths(inst, mode="cost")
        want = bf[0] if bf else None
        for strategy in ("isolation", "deletion"):
            ps = find_disjoint_paths(inst, p, strategy=strategy)
            got = ps.total_cost if ps else None
            assert got == want, (strategy, inst.edges, inst.costs)
            if ps is not None:
                assert path_set_problem(inst, ps) is None


def test_retries_exhausted_when_every_attempt_fails(monkeypatch):
    # every attempt's assembly fails, so every attempt is retried and the
    # query names each failure with its strategy (and r under isolation)
    calls = []

    def failing(*args):
        calls.append(args)
        raise AssemblyError("no paths")

    monkeypatch.setattr(extraction, "assemble_paths", failing)
    inst = costed_bipartite((1, 1, 1, 1))
    r = paper_isolation_range(inst)
    for strategy, how in (("isolation", f"isolation, r={r}"),
                          ("deletion", "deletion")):
        calls.clear()
        with pytest.raises(RetriesExhaustedError,
                           match=rf"in 3 tries \(strategy={how}\): "
                                 r"attempt 0: no paths; attempt 1: no "
                                 r"paths; attempt 2: no paths$"):
            find_disjoint_paths(inst, params64(11), max_retries=2,
                                strategy=strategy)
        assert len(calls) == 3


def test_tied_isolation_tests_the_unsettled_edges(monkeypatch,
                                                  path_set_problem):
    # r = 1 makes every weight 1: the two optima of the all-ones bipartite
    # instance stay tied, so the support at U* holds all four edges and
    # forces none; the polynomial tests settle them on the first attempt
    monkeypatch.setattr(extraction, "paper_isolation_range", lambda inst: 1)
    inst = costed_bipartite((1, 1, 1, 1))
    report = {}
    ps = find_disjoint_paths(inst, params64(11), max_retries=2,
                             strategy="isolation", report=report)
    assert path_set_problem(inst, ps) is None
    assert ps.total_cost == 2
    assert report == {"strategy": "isolation", "attempts": 1, "r": 1}


def test_assembly_catches_an_edge_tests_false_zero(monkeypatch,
                                                   path_set_problem):
    # every edge test of attempt 0 answers a false zero, which keeps its
    # edge: attempt 0 keeps all four tied edges of the all-ones bipartite
    # instance (its d0 support, none forced), assembly rejects them, and
    # attempt 1 answers the optimum.  The searches for d0 and U* call
    # decision's scan, which stays real; r = 1 keeps isolation's optima
    # tied, as in the test above
    real = extraction.scan_min_cost_slice
    report = {}
    scans = []

    def false_zero_in_attempt_0(*args, **kwargs):
        scans.append(report["attempts"] - 1)
        return None if report["attempts"] == 1 else real(*args, **kwargs)

    monkeypatch.setattr(extraction, "scan_min_cost_slice",
                        false_zero_in_attempt_0)
    monkeypatch.setattr(extraction, "paper_isolation_range", lambda inst: 1)
    inst = costed_bipartite((1, 1, 1, 1))
    for strategy in ("deletion", "isolation"):
        with pytest.raises(RetriesExhaustedError,
                           match=r"attempt 0: degree violation at source 0: "
                                 r"out=2 in=0$"):
            find_disjoint_paths(inst, params64(11), max_retries=0,
                                strategy=strategy, report=report)
        scans.clear()
        ps = find_disjoint_paths(inst, params64(11), max_retries=1,
                                 strategy=strategy, report=report)
        assert path_set_problem(inst, ps) is None
        assert ps.total_cost == 2
        assert report["attempts"] == 2
        assert scans == [0, 0, 0, 0, 1], strategy


def test_edge_tests_read_repetition_0s_point(monkeypatch):
    # at t = 3, every edge test scans its attempt's repetition-0 point,
    # with the deleted edges (the tested one among them) zeroed: under
    # deletion the ("deletion", attempt, 0) stream, under isolation the
    # ("isolation-tests", 0) stream of the attempt's sub-seed.  r = 1
    # leaves isolation's ties for the tests to settle
    real = extraction.scan_min_cost_slice
    report = {}
    scanned = []

    def recording(graph, f, *args, **kwargs):
        scanned.append((report["attempts"] - 1, f))
        return real(graph, f, *args, **kwargs)

    monkeypatch.setattr(extraction, "scan_min_cost_slice", recording)
    monkeypatch.setattr(extraction, "paper_isolation_range", lambda inst: 1)
    field = GF2Field(64)
    checked = {"deletion": 0, "isolation": 0}
    for inst, seed in list(criterion_6_gadgets())[:40]:
        params = TestParams(field=field, repetitions=3, seed=seed)
        for strategy in checked:
            scanned.clear()
            find_disjoint_paths(inst, params, strategy=strategy,
                                report=report)
            for attempt, f in scanned:
                if strategy == "deletion":
                    rng = derive_rng(seed, "deletion", attempt, 0)
                else:
                    sub = derive_rng(seed, "attempt", attempt).getrandbits(63)
                    rng = derive_rng(sub, "isolation-tests", 0)
                point = random_assignment(field, inst.m, rng)
                assert all(fe in (0, pe) for fe, pe in zip(f, point))
                assert 0 < f.count(0) < inst.m
                checked[strategy] += 1
    assert min(checked.values()) > 10, checked


def test_none_only_without_disjoint_paths():
    # one GF(2^8) point per query makes false zeros common; each one
    # raises RetriesExhaustedError, and a None answer always means that
    # no k disjoint paths (no value-k flow) exist
    rng = random.Random(19)
    field = GF2Field(8)
    raised = 0

    def answer(query, *args):
        nonlocal raised
        try:
            return query(*args)
        except RetriesExhaustedError:
            raised += 1
            return RetriesExhaustedError

    for _ in range(400):
        n = rng.randint(4, 8)
        inst = random_paths_instance(rng, n, rng.randint(1, min(3, n // 2)),
                                     extra_edges=rng.randint(0, n),
                                     cost_max=60, plant=rng.random() < 0.8)
        if inst.simple_cost_cap() >= field.order:
            continue
        p = TestParams(field=field, repetitions=1, seed=rng.getrandbits(32))
        feasible = inst.has_disjoint_paths()
        for query in (min_cost_disjoint_paths, find_disjoint_paths):
            assert (answer(query, inst, p) is None) == (not feasible)
    for _ in range(400):
        K = random_flow_instance(rng, rng.randint(3, 5), rng.randint(2, 6),
                                 rng.randint(1, 2), 2, 4,
                                 plant=rng.random() < 0.7)
        gadget = build_gadget_network(K).instance
        if gadget.simple_cost_cap() >= field.order:
            continue
        p = TestParams(field=field, repetitions=1, seed=rng.getrandbits(32))
        assert (answer(min_cost_flow, K, p) is None) == \
            (not gadget.has_disjoint_paths())
    assert raised  # the battery meets false zeros


def test_negative_retry_count_rejected():
    # -1 retries used to mean zero attempts, reported as "0 tries"
    for strategy in ("deletion", "isolation"):
        with pytest.raises(ValueError, match="max_retries -1 below 0"):
            find_disjoint_paths(costed_bipartite(), params64(17),
                                max_retries=-1, strategy=strategy)
    # infeasible instances are refused too, not answered with None
    infeasible = PathInstance(4, [(0, 2)], [0, 1], [2, 3])
    with pytest.raises(ValueError, match="below 0"):
        find_disjoint_paths(infeasible, params64(17), max_retries=-1)
    K = FlowInstance(2, [(0, 1, 1, 1)], 0, 1, 1)
    with pytest.raises(ValueError, match="max_retries -2 below 0"):
        min_cost_flow(K, params64(17), max_retries=-2)


def test_report_dict():
    inst = costed_bipartite()
    report = {}
    find_disjoint_paths(inst, params64(12), report=report)
    assert report["strategy"] == "deletion"
    assert report["attempts"] == 1
    # deletion uses no isolation range, so the report names none
    assert "r" not in report
    report = {}
    find_disjoint_paths(inst, params64(12), strategy="isolation",
                        report=report)
    assert report["strategy"] == "isolation"
    assert report["r"] == 64


def test_deletion_query_builds_one_scan_graph(monkeypatch):
    # under deletion the optimum and every attempt share one state graph,
    # also when the first attempt fails assembly and a second one runs.
    # Isolation searches for no optimum at the instance's costs: it calls
    # min_cost_disjoint_paths never and builds only one graph per attempt,
    # at that attempt's perturbed costs.  An instance without k disjoint
    # paths builds none
    built, searched = [], []

    class CountingGraph(ScanGraph):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    real_assemble = extraction.assemble_paths
    real_search = extraction.min_cost_disjoint_paths
    monkeypatch.setattr(extraction, "ScanGraph", CountingGraph)
    monkeypatch.setattr(decision, "ScanGraph", CountingGraph)
    monkeypatch.setattr(extraction, "min_cost_disjoint_paths",
                        lambda *a, **kw: searched.append(a)
                        or real_search(*a, **kw))
    for strategy in ("deletion", "isolation"):
        failed = []

        def fail_once(*args):
            if not failed:
                failed.append(True)
                raise AssemblyError("forced")
            return real_assemble(*args)

        monkeypatch.setattr(extraction, "assemble_paths", fail_once)
        built.clear()
        searched.clear()
        report = {}
        inst = costed_bipartite()
        ps = find_disjoint_paths(inst, params64(8), strategy=strategy,
                                 report=report)
        assert ps is not None and ps.total_cost == 2
        assert report["attempts"] == 2, strategy
        if strategy == "isolation":
            want = [list(perturb_costs(inst, report["r"],
                                       derive_rng(8, "perturb", a)))
                    for a in range(2)]
        else:
            want = [inst.cost_list()]
        assert [list(args[1]) for args in built] == want, strategy
        assert len(searched) == (strategy == "deletion"), strategy
        built.clear()
        report = {}
        # no two disjoint paths: answered exactly, before any graph
        assert find_disjoint_paths(PathInstance(5, [(0, 2), (1, 2), (2, 3),
                                                    (2, 4)], [0, 1], [3, 4]),
                                   params64(8), strategy=strategy,
                                   report=report) is None
        assert report["attempts"] == 0 and len(built) == 0, strategy


def test_scans_enforce_memory_ceiling():
    inst = random_paths_instance(random.Random(5), 20, 2, extra_edges=40)
    graph = ScanGraph(inst, inst.cost_list())
    f = random_assignment(params64().field, inst.m, random.Random(6))
    before = evaluator.DEFAULT_MEMORY_LIMIT
    evaluator.set_default_memory_limit(1)
    try:
        with pytest.raises(BudgetError):
            min_cost_disjoint_paths(inst, params64(13))
        for strategy in ("deletion", "isolation"):
            with pytest.raises(BudgetError):
                find_disjoint_paths(inst, params64(13), strategy=strategy)
        with pytest.raises(BudgetError):
            ScanGraph(inst, inst.cost_list())
        # a graph built under the old ceiling: its readers check it too
        with pytest.raises(BudgetError):
            evaluator.slice_support(graph, [True] * inst.m,
                                    inst.simple_cost_cap())
        with pytest.raises(BudgetError):
            scan_min_cost_slice(graph, f, params64().field,
                                inst.simple_cost_cap())
    finally:
        evaluator.set_default_memory_limit(before)


def test_forced_edges_kept_without_a_scan(monkeypatch):
    # an edge on every walk set of cost d0 would fail its test at every
    # assignment: a single chain makes no test scan, nor does the
    # two-route network's gadget, whose 6 edges are its one path set; the
    # same network with every terminal joined to every unit (6 of its 10
    # edges kept) makes 4, one per tested edge, where tests at all t = 3
    # points made 6 and a test of every kept edge took 21
    scans = []
    real = extraction.scan_min_cost_slice

    def counting(*args, **kwargs):
        scans.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(extraction, "scan_min_cost_slice", counting)
    params = TestParams(field=GF2Field(64), repetitions=3, seed=0)
    chain = PathInstance(4, [(0, 1), (1, 2), (2, 3)], [0], [3])
    ps = _deletion_attempt(chain, params, 0, 3,
                           ScanGraph(chain, chain.cost_list()))
    assert ps.paths == ((0, 1, 2, 3),) and not scans
    two_routes = FlowInstance(4, [(0, 1, 1, 1), (1, 3, 1, 1), (0, 2, 1, 1),
                                  (2, 3, 1, 1)], 0, 3, 2)
    gadget = build_gadget_network(two_routes).instance
    ps = find_disjoint_paths(gadget, params)
    assert (gadget.m, len(ps.all_edge_ids()), len(scans)) == (6, 6, 0)
    # X = 0, 1; the units of the four arcs, 2..5; Y = 6, 7; scale 7
    edges = [(0, 2), (0, 4), (1, 2), (1, 4), (2, 3), (3, 6), (3, 7),
             (4, 5), (5, 6), (5, 7)]
    joined = PathInstance(8, edges, [0, 1], [6, 7],
                          costs=[1 if w >= 6 else 8 for _u, w in edges])
    ps = find_disjoint_paths(joined, params)
    assert (joined.m, len(ps.all_edge_ids()), len(scans)) == (10, 6, 4)


def test_auto_strategy_rejected():
    with pytest.raises(ValueError, match="unknown strategy"):
        find_disjoint_paths(costed_bipartite(), params64(14), strategy="auto")


def test_isolation_scale_exceeds_full_weight_sum(monkeypatch):
    # Both edges at weight r = 1 sum to r*m = 2; with scale r*m the
    # optimum decoded to cost 3 on every attempt.
    monkeypatch.setattr(extraction, "paper_isolation_range", lambda inst: 1)
    inst = PathInstance(4, [(0, 2), (1, 3)], [0, 1], [2, 3])
    ps = find_disjoint_paths(inst, params64(15), strategy="isolation")
    assert ps.total_cost == 2


# -- reference routes without support pruning -------------------------------

def sequential_deletion_attempt(instance, params, attempt, d0):
    """_deletion_attempt with one scan per edge and repetition, every edge
    tested in id order."""
    field = params.field
    assignments = []
    for rep in range(params.repetitions):
        rng = derive_rng(params.seed, "deletion", attempt, rep)
        assignments.append(random_assignment(field, instance.m, rng))
    removed = [False] * instance.m
    costs = instance.cost_list()
    graph = ScanGraph(instance, costs)

    def survives(without):
        for f in assignments:
            patched = list(f)
            for e in range(instance.m):
                if removed[e] or e == without:
                    patched[e] = 0
            if scan_min_cost_slice(graph, patched, field, cap=d0):
                return True
        return False

    for eid in range(instance.m):
        if survives(eid):
            removed[eid] = True
    kept = [e for e in range(instance.m) if not removed[e]]
    return assemble_paths(instance, kept, costs, d0)


def patched_scan_classify(pgraph, u_star, params):
    """classify_edges with a patched scan for every edge: an edge is
    essential when every scan of pgraph capped at U*, at an assignment
    with its variable zeroed, returns None."""
    m = pgraph.instance.m
    assignments = [random_assignment(params.field, m,
                                     derive_rng(params.seed, "classify", rep))
                   for rep in range(params.repetitions)]
    return {eid for eid in range(m)
            if all(scan_min_cost_slice(pgraph, f[:eid] + [0] + f[eid + 1:],
                                       params.field, u_star) is None
                   for f in assignments)}


def _outcome(attempt, *args):
    try:
        return attempt(*args)
    except AssemblyError as exc:
        return str(exc)


def criterion_6_gadgets():
    """The gadget instances and query seeds of the criterion-6 battery."""
    rng = random.Random(606)
    for _ in range(200):
        n = rng.randint(3, 7)
        m = rng.randint(2, min(2 * n, 10))
        k = rng.choice([1, 1, 2, 2, 3])
        K = random_flow_instance(rng, n, m, k, cap_max=3, cost_max=4,
                                 plant=rng.random() < 0.75)
        yield (build_gadget_network(K).instance,
               rng.getrandbits(48))


def test_deletion_matches_sequential_reference():
    cases = list(criterion_6_gadgets())
    rng = random.Random(16)
    for _ in range(60):
        n = rng.randint(4, 9)
        k = rng.randint(1, min(3, n // 2))
        inst = random_paths_instance(rng, n, k, extra_edges=rng.randint(0, n),
                                     cost_max=4, plant=rng.random() < 0.8)
        cases.append((inst, rng.getrandbits(48)))
    feasible = 0
    for inst, seed in cases:
        p = TestParams(field=GF2Field(64), repetitions=1, seed=seed)
        d0 = min_cost_disjoint_paths(inst, p)
        if d0 is None:
            continue
        feasible += 1
        graph = ScanGraph(inst, inst.cost_list())
        assert _outcome(_deletion_attempt, inst, p, 0, d0, graph) == \
            _outcome(sequential_deletion_attempt, inst, p, 0, d0)
    assert feasible > 150


def criterion_5_instances():
    """The 100 path instances of the criterion-5 battery."""
    rng = random.Random(501)
    out = []
    while len(out) < 100:
        n = rng.randint(3, 8)
        k = rng.randint(1, min(3, n // 2))
        extra = rng.randint(0, n)
        inst = random_paths_instance(rng, n, k, extra_edges=extra,
                                     cost_max=4, plant=rng.random() < 0.6)
        if inst.m >= 1:
            out.append(inst)
    return out


def isolate_criterion_5(monkeypatch, classify):
    """Isolation on the criterion-5 battery, with its seeds, and with
    classify in place of extraction.classify_edges."""
    monkeypatch.setattr(extraction, "classify_edges", classify)
    rng = random.Random(505)
    for inst in criterion_5_instances():
        params = TestParams(field=GF2Field(64), repetitions=1,
                            seed=rng.getrandbits(48))
        find_disjoint_paths(inst, params, max_retries=3,
                            strategy="isolation")


def test_classify_matches_patched_scan_reference(monkeypatch):
    # where the support at U* settles every edge, the returned set is the
    # patched-scan reference's; where it leaves edges unsettled, the
    # tests settle them to an optimum at the attempt's perturbed costs
    checked = []
    unsettled = []
    reference = TestParams(field=GF2Field(64), repetitions=1, seed=505)

    def classify_and_check(pgraph, u_star, *args):
        inst = pgraph.instance
        got = classify_edges(pgraph, u_star, *args)
        support, forced = slice_support(pgraph, [True] * inst.m, u_star)
        if support == forced:
            assert got == patched_scan_classify(pgraph, u_star, reference)
            checked.append(got)
        else:
            cost, _ = oracle.brute_force_disjoint_paths(
                inst, mode="cost", costs=list(pgraph.costs))
            assert cost == u_star
            # raises unless got is k disjoint paths of perturbed cost U*
            assemble_paths(inst, got, pgraph.costs, u_star)
            unsettled.append(got)
        return got

    isolate_criterion_5(monkeypatch, classify_and_check)
    assert len(checked) > 50
    assert unsettled  # the battery meets an unsettled support


def test_settled_support_is_the_unique_perturbed_optimum(monkeypatch):
    # each isolation attempt of the criterion-5 battery: wherever the
    # support at U* equals its forced set, that set is the edge set of the
    # oracle's minimum path set at the attempt's perturbed costs
    drawn = []
    checked = 0
    real_perturb = extraction.perturb_costs

    def recording_perturb(*args):
        drawn.append(real_perturb(*args))
        return drawn[-1]

    def check(pgraph, u_star, *args):
        nonlocal checked
        inst = pgraph.instance
        support, forced = slice_support(pgraph, [True] * inst.m, u_star)
        if support == forced:
            cost, ps = oracle.brute_force_disjoint_paths(
                inst, mode="cost", costs=list(drawn[-1]))
            assert cost == u_star
            assert {e for e in range(inst.m) if forced[e]} == \
                set(ps.all_edge_ids())
            checked += 1
        return classify_edges(pgraph, u_star, *args)

    monkeypatch.setattr(extraction, "perturb_costs", recording_perturb)
    isolate_criterion_5(monkeypatch, check)
    assert checked > 50
