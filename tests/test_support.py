"""Property tests on tiny instances: evaluator.slice_support, the scan
graph's cost-to-go bound, the pruned table engine against the scan engine,
the sink-distance floor, the simple-set degree bounds, and the queries'
one-sided error."""

import random

import pytest

from smallflow import (
    GF2Field,
    PathInstance,
    TablePlan,
    TestParams,
    decide_cost_bounded,
    decide_disjoint_paths,
    min_cost_disjoint_paths,
    random_assignment,
)
from smallflow import decision, evaluator, oracle
from smallflow.evaluator import (
    ScanGraph,
    scan_slices,
    slice_support,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def tiny_instances(draw, max_k=2):
    """n <= 6, k <= max_k, any edges between distinct vertices: parallel
    edges, edges into sources or out of sinks, unreachable sinks and
    sources with no route to a sink all occur."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, min(max_k, n // 2)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=10))
    costs = draw(st.lists(st.integers(1, 3), min_size=len(edges),
                          max_size=len(edges)))
    return PathInstance(n, edges, range(k), range(k, 2 * k), costs=costs)


@st.composite
def hub_instances(draw):
    """tiny_instances with 17 to 24 more out-edges at one vertex (parallel
    edges and edges into terminals among them), so that the scan's fan at
    that position spans more than 16 slots."""
    inst = draw(tiny_instances())
    hub = draw(st.integers(0, inst.n - 1))
    heads = draw(st.lists(st.integers(0, inst.n - 1).filter(
        lambda v: v != hub), min_size=17, max_size=24))
    costs = draw(st.lists(st.integers(1, 3), min_size=len(heads),
                          max_size=len(heads)))
    return PathInstance(inst.n, list(inst.edges) + [(hub, v) for v in heads],
                        inst.sources, inst.sinks,
                        costs=list(inst.costs) + costs)


def _zeroed(f, e):
    """The assignment with edge e deleted: its variable set to zero."""
    return f[:e] + [0] + f[e + 1:]


def _slice_bound(inst):
    """The optimum, or the simple-set cost cap when there is none."""
    best = oracle.brute_force_disjoint_paths(inst, mode="cost")
    return best, (best[0] if best else max(inst.simple_cost_cap(), inst.k))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances())
def test_optimal_systems_lie_in_support(inst):
    best, d0 = _slice_bound(inst)
    hypothesis.assume(best is not None)
    support, forced = slice_support(ScanGraph(inst, inst.cost_list()),
                                    [True] * inst.m, d0)
    assert all(support[e] for e in best[1].all_edge_ids())
    # the monomials of the d0 slice are exactly the optimal systems, and
    # each holds every forced edge
    for mono in oracle.symbolic_cost_slices(inst, d0)[d0].monomials:
        assert all(support[e] for e in mono)
        assert all(e in mono for e in range(inst.m) if forced[e])


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
def test_edges_off_support_leave_slices_unchanged(field64, inst, seed):
    _, d0 = _slice_bound(inst)
    support, forced = slice_support(ScanGraph(inst, inst.cost_list()),
                                    [True] * inst.m, d0)
    rng = random.Random(seed)
    plan = TablePlan(inst, d0, inst.cost_list())
    for _ in range(2):
        f = random_assignment(field64, inst.m, rng)
        full = plan.slices(f, field64)
        for e in range(inst.m):
            if not support[e]:
                assert plan.slices(_zeroed(f, e), field64) == full
            elif forced[e]:  # on every walk set: the d0 slice empties
                assert plan.slices(_zeroed(f, e), field64)[d0] == 0


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
def test_support_under_alive_mask(field64, inst, seed):
    # dead edges count as deleted: off the mask's support, a live edge's
    # removal leaves the slice at d unchanged
    rng = random.Random(seed)
    alive = [rng.random() < 0.7 for _ in range(inst.m)]
    d = rng.randint(inst.k, max(inst.simple_cost_cap(), inst.k))
    support, _ = slice_support(ScanGraph(inst, inst.cost_list()), alive, d)
    assert not any(s and not a for s, a in zip(support, alive))
    f = [fe if a else 0
         for fe, a in zip(random_assignment(field64, inst.m, rng), alive)]
    plan = TablePlan(inst, d, inst.cost_list())
    want = plan.slices(f, field64)[d]
    for e in range(inst.m):
        if alive[e] and not support[e]:
            assert plan.slices(_zeroed(f, e), field64)[d] == want


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances(max_k=3), st.integers(0, 2**32))
def test_forced_edges_lie_on_every_walk_set(inst, seed):
    # forced: in the support, and no walk set of cost d is left once the
    # edge is deleted too
    rng = random.Random(seed)
    alive = [rng.random() < 0.8 for _ in range(inst.m)]
    d = rng.randint(inst.k, max(inst.simple_cost_cap(), inst.k))
    graph = ScanGraph(inst, inst.cost_list())
    support, forced = slice_support(graph, alive, d)
    for e in range(inst.m):
        without = alive[:e] + [False] + alive[e + 1:]
        assert forced[e] == (support[e] and
                             not any(slice_support(graph, without, d)[0]))


def _scan(inst, costs, f, field, top):
    """Exact-cost slices 0..top at `costs`, read off the scan engine."""
    slices = [0] * (top + 1)
    for d, vec in scan_slices(ScanGraph(inst, costs), f, field, top):
        slices[d] = vec
    return slices


def _floor(inst, costs):
    """Sum of the sources' least costs to a sink, or None."""
    return TablePlan(inst, 1, costs).floor


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
def test_length_tables_match_unit_cost_scan(field64, inst, seed):
    # every length bound, l < k included, so every row budget from below
    # zero up to unpruned; serial only (no pool per example)
    top = inst.k * (inst.n - 1)
    f = random_assignment(field64, inst.m, random.Random(seed))
    scan = _scan(inst, [1] * inst.m, f, field64, top)
    for l in range(1, top + 1):
        assert TablePlan(inst, l, [1] * inst.m).slices(f, field64) == \
            scan[:l + 1]
    # no walk set is shorter than the sum of the sources' least lengths
    floor = _floor(inst, [1] * inst.m)
    assert not any(scan[:top + 1 if floor is None else floor])


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
def test_cost_tables_match_scan_at_every_bound(field64, inst, seed):
    # costs up to 3: the row budgets and per-cell cuts at every u_max
    top = max(inst.simple_cost_cap(), inst.k)
    f = random_assignment(field64, inst.m, random.Random(seed))
    scan = _scan(inst, inst.cost_list(), f, field64, top)
    for u_max in range(inst.k, top + 1):
        assert TablePlan(inst, u_max, inst.cost_list()).slices(
            f, field64) == scan[:u_max + 1]


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(tiny_instances(max_k=3), st.integers(0, 2**32), st.data())
def test_pruned_rows_identical_across_parallelism(field64, inst, seed, data):
    # each pool worker prunes its own row with the same budgets
    l = data.draw(st.integers(1, inst.k * (inst.n - 1)))
    f = random_assignment(field64, inst.m, random.Random(seed))
    plan = TablePlan(inst, l, [1] * inst.m)
    assert plan.slices(f, field64, parallelism=3) == \
        plan.slices(f, field64, parallelism=1)


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(tiny_instances(max_k=3), st.integers(0, 2**32), st.data())
def test_one_plan_serves_every_assignment(field64, inst, seed, data):
    # a plan holds no edge value: evaluated at one assignment after
    # another, serially and on the pool, it gives what a plan built for
    # that assignment alone gives
    costs = data.draw(st.sampled_from([[1] * inst.m, inst.cost_list()]))
    bound = data.draw(st.integers(1, inst.k * (inst.n - 1)))
    plan = TablePlan(inst, bound, costs)
    rng = random.Random(seed)
    for _ in range(3):
        f = random_assignment(field64, inst.m, rng)
        fresh = TablePlan(inst, bound, costs).slices(f, field64)
        for degree in (1, 3):
            assert plan.slices(f, field64, parallelism=degree) == fresh


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
@hypothesis.example(PathInstance(8, [(0, 2), (1, 2), (2, 3), (2, 4), (0, 5),
                                     (5, 6), (6, 7), (7, 3)],
                                 [0, 1], [3, 4]), 0)
def test_decide_computes_sink_distances_once(field64, inst, seed):
    # one plan per query: the sink distances are computed once, and every
    # repetition evaluates that plan (no distances for an instance
    # without edges, answered before any plan is built).  In the example,
    # x1, x2 -> v -> y1, y2 plus a route x1 -> 5 -> 6 -> 7 -> y1, two
    # disjoint paths exist, of length 6; at l = 4 and 5 the degree reaches
    # the floor 2 + 2, every walk set that short meets at v, and all three
    # repetitions evaluate to ZERO.
    counts = {"distances": 0}
    plans = []
    real_distances = evaluator.sink_distances
    real_evaluation = decision.eval_length_bounded_seq

    def distances(*args):
        counts["distances"] += 1
        return real_distances(*args)

    def evaluation(plan, *args):
        plans.append(plan)
        return real_evaluation(plan, *args)

    params = TestParams(field=field64, repetitions=3, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "sink_distances", distances)
        mp.setattr(decision, "eval_length_bounded_seq", evaluation)
        for l in range(1, inst.k * (inst.n - 1) + 1):
            counts["distances"] = 0
            plans.clear()
            verdict = decide_disjoint_paths(inst, l, params)
            assert counts["distances"] == (1 if inst.m else 0)
            assert len(plans) <= 3 and all(p is plans[0] for p in plans)
            if verdict.degree is not None and not verdict.nonzero:
                assert len(plans) == 3


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(tiny_instances(max_k=3))
def test_has_disjoint_paths_is_the_oracles_feasibility(inst):
    assert inst.has_disjoint_paths() == \
        (oracle.disjoint_paths_min_cost_via_flow(inst) is not None)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances(max_k=3))
def test_distance_floor_answers_zero_exactly(field64, inst):
    unit = [1] * inst.m
    floor = _floor(inst, unit)
    shortest = oracle.disjoint_paths_min_cost_via_flow(inst, unit)
    if floor is None:
        assert shortest is None
    else:
        assert shortest is None or shortest >= floor
        if inst.k == 1:
            assert shortest == floor

    def refuse(*args, **kwargs):
        raise AssertionError("evaluated below the distance floor")

    params = TestParams(field=field64, repetitions=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decision, "eval_length_bounded_seq", refuse)
        for l in range(1, inst.k * (inst.n - 1) + 1):
            if floor is None or min(l, inst.max_path_edges()) < floor:
                assert not decide_disjoint_paths(inst, l, params).nonzero


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
def test_one_sided_error_over_gf256(field8, inst, seed):
    # Over GF(2^8) one repetition misses often; an answer may be a false
    # ZERO (or a cost above the optimum), but never a false NONZERO.
    params = TestParams(field=field8, repetitions=1, seed=seed)
    shortest = oracle.brute_force_disjoint_paths(inst, mode="length")
    for l in range(1, inst.k * (inst.n - 1) + 1):
        if decide_disjoint_paths(inst, l, params).nonzero:
            assert shortest is not None and shortest[0] <= l
    best = oracle.brute_force_disjoint_paths(inst, mode="cost")
    got = min_cost_disjoint_paths(inst, params)
    if best is None:
        assert got is None
        return
    assert got is None or got >= best[0]
    if best[0] > 1:
        assert not decide_cost_bounded(inst, best[0] - 1, params).nonzero


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
def test_pruned_scan_matches_tables_at_every_cap(field64, inst, seed):
    # tight caps are where the cost-to-go bound prunes
    top = max(inst.simple_cost_cap(), inst.k)
    f = random_assignment(field64, inst.m, random.Random(seed))
    slices = TablePlan(inst, top, inst.cost_list()).slices(f, field64)
    graph = ScanGraph(inst, inst.cost_list())
    for d_cap in range(inst.k, top + 1):
        want = [(d, v) for d, v in enumerate(slices[:d_cap + 1]) if v]
        assert list(scan_slices(graph, f, field64, d_cap)) == want


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
def test_floor_bounds_the_optimum(field64, inst, seed):
    graph = ScanGraph(inst, inst.cost_list())
    best = oracle.brute_force_disjoint_paths(inst, mode="cost")
    if best is not None:
        assert graph.floor is not None and graph.floor <= best[0]
        return
    top = max(inst.simple_cost_cap(), inst.k)
    f = random_assignment(field64, inst.m, random.Random(seed))
    assert graph.floor is None or not any(
        TablePlan(inst, top, inst.cost_list()).slices(f, field64))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances())
def test_least_slice_within_n_minus_k_largest_costs(inst):
    # k disjoint simple paths use at most n - k edges
    bound = sum(sorted(inst.cost_list(), reverse=True)[:inst.n - inst.k])
    assert inst.simple_cost_cap() <= bound
    sym = oracle.symbolic_cost_slices(inst, max(bound, inst.k))
    least = min((p for p, poly in sym.items() if not poly.is_zero()),
                default=None)
    best = oracle.brute_force_disjoint_paths(inst, mode="cost")
    assert least == (best[0] if best else None)
    assert least is None or least <= bound


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
def test_clamped_decide_matches_oracle(field64, inst, seed):
    # every l up to k(n-1), most of them above the clamp min(m, n - k)
    params = TestParams(field=field64, repetitions=2, seed=seed)
    shortest = oracle.brute_force_disjoint_paths(inst, mode="length")
    for l in range(1, inst.k * (inst.n - 1) + 1):
        want = shortest is not None and shortest[0] <= l
        assert decide_disjoint_paths(inst, l, params).nonzero == want


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(hub_instances(), st.sampled_from([8, 64]),
                  st.integers(0, 2**32))
def test_fan_scan_matches_tables(inst, s, seed):
    # the scan's fans (one packed product per expanded state) against the
    # table engine, at drawn values, at full-width values (2^s - 1, the
    # largest slot products), and at a drawn point patched as a deletion
    # attempt patches it, with the dead edges zeroed
    field = GF2Field(s)
    rng = random.Random(seed)
    top = max(inst.simple_cost_cap(), inst.k)
    graph = ScanGraph(inst, inst.cost_list())
    plan = TablePlan(inst, top, inst.cost_list())
    drawn = random_assignment(field, inst.m, rng)
    live = [rng.random() < 0.7 for _ in range(inst.m)]
    for f in (drawn, [field.mask] * inst.m,
              [fe if keep else 0 for fe, keep in zip(drawn, live)]):
        slices = plan.slices(f, field)
        for d_cap in {inst.k, graph.floor or top, top}:
            want = [(d, v) for d, v in enumerate(slices[:d_cap + 1]) if v]
            assert list(scan_slices(graph, f, field, d_cap)) == want


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
def test_scan_at_sparse_costs_matches_unscaled(field64, inst, seed):
    # every cost times K = 10^6, as sparse as isolation's perturbed costs:
    # the cost to go scales by K, the slices are the unscaled ones at d * K
    # at every cap, and the support at d * K is the support at d.  A pass
    # that stepped through every integer cost would not finish.
    K = 10 ** 6
    graph = ScanGraph(inst, inst.cost_list())
    big = ScanGraph(inst, [c * K for c in inst.cost_list()])
    assert big.togo == {state: t * K for state, t in graph.togo.items()}
    assert big.floor == (None if graph.floor is None else graph.floor * K)
    top = max(inst.simple_cost_cap(), inst.k)
    rng = random.Random(seed)
    f = random_assignment(field64, inst.m, rng)
    want = list(scan_slices(graph, f, field64, top))
    for d_cap in range(inst.k, top + 1):
        for cap in (d_cap * K - 1, d_cap * K):
            assert list(scan_slices(big, f, field64, cap)) == \
                [(d * K, v) for d, v in want if d * K <= cap]
    alive = [rng.random() < 0.8 for _ in range(inst.m)]
    for d in range(inst.k, top + 1):
        assert slice_support(big, alive, d * K) == \
            slice_support(graph, alive, d)
