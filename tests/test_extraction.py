import random

import pytest

from smallflow import (
    BudgetError,
    GF2Field,
    PathInstance,
    RetriesExhaustedError,
    TestParams,
    assemble_paths,
    classify_edges,
    find_disjoint_paths,
    find_min_perturbed_cost,
    min_cost_disjoint_paths,
    perturb_costs,
    random_paths_instance,
)
from smallflow.extraction import (
    AssemblyError,
    desk_isolation_range,
    paper_isolation_range,
)
from smallflow import evaluator, oracle


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


def check_path_set(instance, ps):
    seen = set()
    for path, eids in zip(ps.paths, ps.edge_ids):
        assert len(set(path)) == len(path)  # simple
        assert not (set(path) & seen)       # disjoint
        seen |= set(path)
        assert path[0] in instance.source_index
        assert path[-1] in instance.sink_index
        for i, eid in enumerate(eids):
            assert instance.edges[eid] == (path[i], path[i + 1])
    assert sorted(p[0] for p in ps.paths) == sorted(instance.sources)
    assert sorted(p[-1] for p in ps.paths) == sorted(instance.sinks)
    assert ps.total_cost == sum(instance.cost(e) for e in ps.all_edge_ids())


def test_perturb_formula():
    inst = PathInstance(7, [(0, 2)] * 5, [0], [1], costs=[2] * 5)
    pc = perturb_costs(inst, 10, FixedRng(7))
    assert pc.m == 5 and pc.scale == 50
    assert pc.perturbed == (107,) * 5
    assert pc.weights == (7,) * 5


def test_perturbed_ordering_preserved():
    # original-cost-suboptimal sets stay suboptimal under any weights
    inst = costed_bipartite()
    rng = random.Random(1)
    for _ in range(50):
        pc = perturb_costs(inst, 8, rng)
        cheap = pc.perturbed[0] + pc.perturbed[3]   # original cost 2
        costly = pc.perturbed[1] + pc.perturbed[2]  # original cost 4
        assert cheap < costly


def test_decoding_identity():
    rng = random.Random(2)
    inst = random_paths_instance(rng, 8, 2, extra_edges=8, cost_max=4)
    pc = perturb_costs(inst, 16, rng)
    for _ in range(100):
        subset = [e for e in range(inst.m) if rng.random() < 0.4]
        w = sum(pc.weights[e] for e in subset)
        d = sum(inst.costs[e] for e in subset)
        total = sum(pc.perturbed[e] for e in subset)
        assert total == d * pc.scale + w
        if w < pc.scale:
            assert total // pc.scale == d


def test_isolation_ranges():
    inst = costed_bipartite()
    assert paper_isolation_range(inst) == 16 * 4
    assert desk_isolation_range(inst) == 64
    inst_big = random_paths_instance(random.Random(3), 10, 2, extra_edges=40)
    assert desk_isolation_range(inst_big) == 4 * inst_big.m


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
        a = pc.perturbed[0] + pc.perturbed[3]
        b = pc.perturbed[1] + pc.perturbed[2]
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
        got = find_min_perturbed_cost(inst, pc, params64(rng.getrandbits(32)))
        bf = oracle.brute_force_disjoint_paths(inst, mode="cost",
                                               costs=list(pc.perturbed))
        assert got == (bf[0] if bf else None)


def test_find_min_perturbed_absent(bottleneck):
    pc = perturb_costs(bottleneck, 8, random.Random(6))
    assert find_min_perturbed_cost(bottleneck, pc, params64()) is None


def test_unique_path_instance_pipeline():
    # a forced chain: U* is the sum of its perturbed edge costs, every
    # chain edge is essential, nothing else is
    inst = PathInstance(5, [(0, 2), (2, 3), (3, 1), (2, 1)], [0], [1],
                        costs=[1, 2, 1, 9])
    rng = random.Random(8)
    pc = perturb_costs(inst, 32, rng)
    p = params64(77)
    u_star = find_min_perturbed_cost(inst, pc, p)
    assert u_star == pc.perturbed[0] + pc.perturbed[1] + pc.perturbed[2]
    essential = classify_edges(inst, pc, u_star, p)
    assert essential == {0, 1, 2}


def test_classify_unique_optimum():
    inst = costed_bipartite()  # unique optimum {e0, e3}, cost 2
    rng = random.Random(7)
    pc = perturb_costs(inst, 64, rng)
    u_star = pc.perturbed[0] + pc.perturbed[3]
    essential = classify_edges(inst, pc, u_star, params64(123))
    assert essential == {0, 3}


def test_assemble_success():
    inst = costed_bipartite()
    ps = assemble_paths(inst, {0, 3}, inst.cost_list(), 2)
    check_path_set(inst, ps)
    assert ps.paths == ((0, 2), (1, 3))
    assert ps.total_cost == 2


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


def test_find_disjoint_paths_examples(single_edge, bottleneck):
    inst = costed_bipartite()
    ps = find_disjoint_paths(inst, params64(9))
    check_path_set(inst, ps)
    assert ps.total_cost == 2
    lone = find_disjoint_paths(single_edge, params64(9))
    assert lone.paths == ((0, 1),)
    assert find_disjoint_paths(bottleneck, params64(9)) is None


def test_find_disjoint_paths_strategies_agree():
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
                check_path_set(inst, ps)


def test_retries_exhausted_on_degenerate_isolation():
    # r = 1 makes every weight 1: the two optima of the all-ones bipartite
    # instance stay tied, classification returns no essential edges, and
    # every attempt fails the same way.
    inst = costed_bipartite((1, 1, 1, 1))
    with pytest.raises(RetriesExhaustedError):
        find_disjoint_paths(inst, params64(11), max_retries=2, r=1,
                            strategy="isolation")
    # the deletion strategy does not rely on isolation and succeeds
    ps = find_disjoint_paths(inst, params64(11), strategy="deletion")
    assert ps.total_cost == 2


def test_report_dict():
    inst = costed_bipartite()
    report = {}
    find_disjoint_paths(inst, params64(12), report=report)
    assert report["strategy"] == "deletion"
    assert report["attempts"] == 1
    assert report["r"] == 64


def test_scans_enforce_memory_ceiling():
    inst = random_paths_instance(random.Random(5), 20, 2, extra_edges=40)
    before = evaluator.DEFAULT_MEMORY_LIMIT
    evaluator.set_default_memory_limit(1)
    try:
        with pytest.raises(BudgetError):
            min_cost_disjoint_paths(inst, params64(13))
        for strategy in ("deletion", "isolation"):
            with pytest.raises(BudgetError):
                find_disjoint_paths(inst, params64(13), strategy=strategy)
    finally:
        evaluator.set_default_memory_limit(before)


def test_auto_strategy_rejected():
    with pytest.raises(ValueError, match="unknown strategy"):
        find_disjoint_paths(costed_bipartite(), params64(14), strategy="auto")
