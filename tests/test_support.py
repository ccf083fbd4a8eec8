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
from smallflow.extraction import PathSet
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
    sources with no route to a sink all occur.  A head is drawn as an
    offset in [1, n - 1] from its tail, so no draw is a self-loop."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, min(max_k, n // 2)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda e: (e[0], (e[0] + e[1]) % n))
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
    heads = draw(st.lists(st.integers(1, inst.n - 1).map(
        lambda d: (hub + d) % inst.n), min_size=17, max_size=24))
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
def test_edges_off_support_leave_slices_unchanged(field64, subdivided_slices,
                                                  inst, seed):
    _, d0 = _slice_bound(inst)
    support, forced = slice_support(ScanGraph(inst, inst.cost_list()),
                                    [True] * inst.m, d0)
    rng = random.Random(seed)
    for _ in range(2):
        f = random_assignment(field64, inst.m, rng)
        full = subdivided_slices(inst, f, field64, d0)
        for e in range(inst.m):
            zeroed = subdivided_slices(inst, _zeroed(f, e), field64, d0)
            if not support[e]:
                assert zeroed == full
            elif forced[e]:  # on every walk set: the d0 slice empties
                assert zeroed[d0] == 0


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
def test_support_under_alive_mask(field64, subdivided_slices, inst, seed):
    # dead edges count as deleted: off the mask's support, a live edge's
    # removal leaves the slice at d unchanged
    rng = random.Random(seed)
    alive = [rng.random() < 0.7 for _ in range(inst.m)]
    d = rng.randint(inst.k, max(inst.simple_cost_cap(), inst.k))
    support, _ = slice_support(ScanGraph(inst, inst.cost_list()), alive, d)
    assert not any(s and not a for s, a in zip(support, alive))
    f = [fe if a else 0
         for fe, a in zip(random_assignment(field64, inst.m, rng), alive)]
    want = subdivided_slices(inst, f, field64, d)[d]
    for e in range(inst.m):
        if alive[e] and not support[e]:
            assert subdivided_slices(inst, _zeroed(f, e), field64, d)[d] == \
                want


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


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
def test_support_is_the_union_of_walk_sets(inst, seed):
    # against an independent enumeration: support is the union, and forced
    # the intersection, of the edge sets of the walk sets of exact cost d
    # on alive edges; with no such walk set, both are empty
    rng = random.Random(seed)
    alive = [rng.random() < 0.8 for _ in range(inst.m)]
    d = rng.randint(inst.k, max(inst.simple_cost_cap(), inst.k))
    sets = [set(ws.monomial())
            for ws in oracle.enumerate_proper_walk_sets(inst, d, "cost")]
    sets = [edges for edges in sets if all(alive[e] for e in edges)]
    support, forced = slice_support(ScanGraph(inst, inst.cost_list()),
                                    alive, d)
    assert {e for e in range(inst.m) if support[e]} == set().union(*sets)
    assert {e for e in range(inst.m) if forced[e]} == \
        (set.intersection(*sets) if sets else set())


def _floor(inst):
    """Sum of the sources' least lengths to a sink, or None."""
    return TablePlan(inst, 1).floor


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
def test_length_tables_match_unit_cost_scan(field64, scan_cost_slices, inst,
                                            seed):
    # every length bound, l < k included, so every row budget from below
    # zero up to unpruned; serial only (no pool per example)
    top = inst.k * (inst.n - 1)
    f = random_assignment(field64, inst.m, random.Random(seed))
    scan = scan_cost_slices(inst, f, field64, top, [1] * inst.m)
    for l in range(1, top + 1):
        assert TablePlan(inst, l).slices(f, field64) == \
            scan[:l + 1]
    # no walk set is shorter than the sum of the sources' least lengths
    floor = _floor(inst)
    assert not any(scan[:top + 1 if floor is None else floor])


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
def test_cost_tables_match_scan_at_every_bound(field64, subdivided_slices,
                                               scan_cost_slices, inst, seed):
    # costs up to 3, as paths of unit edges: the row budgets and per-cell
    # cuts of the subdivision's tables at every u_max
    top = max(inst.simple_cost_cap(), inst.k)
    f = random_assignment(field64, inst.m, random.Random(seed))
    scan = scan_cost_slices(inst, f, field64, top)
    for u_max in range(inst.k, top + 1):
        assert subdivided_slices(inst, f, field64, u_max) == \
            scan[:u_max + 1]


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(tiny_instances(max_k=3), st.integers(0, 2**32), st.data())
def test_pruned_rows_identical_across_parallelism(field64, inst, seed, data):
    # each pool worker prunes its own row with the same budgets
    l = data.draw(st.integers(1, inst.k * (inst.n - 1)))
    f = random_assignment(field64, inst.m, random.Random(seed))
    plan = TablePlan(inst, l)
    assert plan.slices(f, field64, parallelism=3) == \
        plan.slices(f, field64, parallelism=1)


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(tiny_instances(max_k=3), st.integers(0, 2**32), st.data())
def test_one_plan_serves_every_assignment(field64, inst, seed, data):
    # a plan holds no edge value: evaluated at one assignment after
    # another, serially and on the pool, it gives what a plan built for
    # that assignment alone gives, on the instance or on its subdivision
    # at its costs
    target = data.draw(st.sampled_from([inst,
                                        oracle.subdivide_costs(inst)[0]]))
    bound = data.draw(st.integers(1, target.k * (target.n - 1)))
    plan = TablePlan(target, bound)
    rng = random.Random(seed)
    for _ in range(3):
        f = random_assignment(field64, target.m, rng)
        fresh = TablePlan(target, bound).slices(f, field64)
        for degree in (1, 3):
            assert plan.slices(f, field64, parallelism=degree) == fresh


# x1, x2 -> v -> y1, y2 plus a route x1 -> 5 -> 6 -> 7 -> y1: two disjoint
# paths exist, of length 6, and the Menger search finds them.  At l = 4 and
# 5 the degree reaches the floor 2 + 2 and every walk set that short meets
# at v, so the tables run, and all three repetitions evaluate to ZERO.
HUB_BELOW = PathInstance(8, [(0, 2), (1, 2), (2, 3), (2, 4), (0, 5), (5, 6),
                             (6, 7), (7, 3)], [0, 1], [3, 4])


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
@hypothesis.example(HUB_BELOW, 0)
def test_decide_computes_sink_distances_once(field64, inst, seed):
    # one plan per query: the sink distances are computed once, and every
    # repetition evaluates that plan.  No plan is built, so no distances
    # are computed, for a query that menger_paths() answers: an instance
    # without k disjoint paths, or a bound at or above the found paths'
    # total length.
    found = inst.menger_paths()
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
        planned = 0
        for l in range(1, inst.k * (inst.n - 1) + 1):
            counts["distances"] = 0
            plans.clear()
            verdict = decide_disjoint_paths(inst, l, params)
            plan = found is not None and sum(map(len, found)) > l
            assert counts["distances"] == plan
            planned += plan
            assert len(plans) <= 3 and all(p is plans[0] for p in plans)
            if verdict.degree is not None and not verdict.nonzero:
                assert len(plans) == 3
    if inst == HUB_BELOW:
        assert planned == 5  # l = 1 to 5, below the found paths' 6


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(tiny_instances(max_k=3))
def test_menger_paths_is_the_oracles_feasibility(path_set_problem, inst):
    # menger_paths() finds k disjoint paths exactly when the oracle does,
    # and they are k simple, pairwise vertex-disjoint paths along the
    # instance's edges, path i from source i to a sink, costing no less
    # than the optimum
    found = inst.menger_paths()
    best = oracle.disjoint_paths_min_cost_via_flow(inst)
    assert (found is not None) == (best is not None)
    if found is None:
        return
    paths = [(inst.tails[p[0]],) + tuple(inst.heads[e] for e in p)
             for p in found]
    total = sum(inst.cost(e) for p in found for e in p)
    assert path_set_problem(inst, PathSet(paths, found, total)) is None
    assert [p[0] for p in paths] == list(inst.sources)
    assert total >= best


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances(max_k=3))
def test_distance_floor_answers_zero_exactly(field64, inst):
    unit = [1] * inst.m
    floor = _floor(inst)
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
            if floor is None or decision.slice_degree(inst, l) < floor:
                assert not decide_disjoint_paths(inst, l, params).nonzero


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
def test_one_sided_error_over_gf256(field8, inst, seed):
    # Over GF(2^8) one repetition misses often; an answer may be a false
    # ZERO (or a cost above the optimum), but never a false NONZERO.  A
    # minimum-cost search that meets only false zeros on an instance with
    # k disjoint paths raises, and its None is exact.
    params = TestParams(field=field8, repetitions=1, seed=seed)
    shortest = oracle.brute_force_disjoint_paths(inst, mode="length")
    for l in range(1, inst.k * (inst.n - 1) + 1):
        if decide_disjoint_paths(inst, l, params).nonzero:
            assert shortest is not None and shortest[0] <= l
    best = oracle.brute_force_disjoint_paths(inst, mode="cost")
    try:
        got = min_cost_disjoint_paths(inst, params)
    except decision.RetriesExhaustedError:
        assert best is not None
        got = None
    else:
        assert (got is None) == (best is None)
    if best is None:
        return
    assert got is None or got >= best[0]
    if best[0] > 1:
        assert not decide_cost_bounded(inst, best[0] - 1, params).nonzero


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
def test_pruned_scan_matches_tables_at_every_cap(field64, subdivided_slices,
                                                 inst, seed):
    # tight caps are where the cost-to-go bound prunes
    top = max(inst.simple_cost_cap(), inst.k)
    f = random_assignment(field64, inst.m, random.Random(seed))
    slices = subdivided_slices(inst, f, field64, top)
    graph = ScanGraph(inst, inst.cost_list())
    for d_cap in range(inst.k, top + 1):
        want = [(d, v) for d, v in enumerate(slices[:d_cap + 1]) if v]
        assert list(scan_slices(graph, f, field64, d_cap)) == want


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
def test_floor_bounds_the_optimum(field64, subdivided_slices, inst, seed):
    graph = ScanGraph(inst, inst.cost_list())
    best = oracle.brute_force_disjoint_paths(inst, mode="cost")
    if best is not None:
        assert graph.floor is not None and graph.floor <= best[0]
        return
    top = max(inst.simple_cost_cap(), inst.k)
    f = random_assignment(field64, inst.m, random.Random(seed))
    assert graph.floor is None or not any(
        subdivided_slices(inst, f, field64, top))


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
    # every l up to k(n-1): most of them at or above the length of the
    # Menger search's own paths, which answer them, and at or above the
    # clamp min(m, n - k), which those paths never exceed
    params = TestParams(field=field64, repetitions=2, seed=seed)
    shortest = oracle.brute_force_disjoint_paths(inst, mode="length")
    for l in range(1, inst.k * (inst.n - 1) + 1):
        want = shortest is not None and shortest[0] <= l
        assert decide_disjoint_paths(inst, l, params).nonzero == want


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(hub_instances(), st.sampled_from([8, 64]),
                  st.integers(0, 2**32))
def test_fan_scan_matches_tables(subdivided_slices, inst, s, seed):
    # the scan's fans (one packed product per expanded state) against the
    # table engine, at drawn values, at full-width values (2^s - 1, the
    # largest slot products), and at a drawn point patched as a deletion
    # attempt patches it, with the dead edges zeroed
    field = GF2Field(s)
    rng = random.Random(seed)
    top = max(inst.simple_cost_cap(), inst.k)
    graph = ScanGraph(inst, inst.cost_list())
    drawn = random_assignment(field, inst.m, rng)
    live = [rng.random() < 0.7 for _ in range(inst.m)]
    for f in (drawn, [field.mask] * inst.m,
              [fe if keep else 0 for fe, keep in zip(drawn, live)]):
        slices = subdivided_slices(inst, f, field, top)
        for d_cap in {inst.k, graph.floor or top, top}:
            want = [(d, v) for d, v in enumerate(slices[:d_cap + 1]) if v]
            assert list(scan_slices(graph, f, field, d_cap)) == want


def _eager_graph(inst, costs):
    """Reference for ScanGraph: (states, togo, moves) of the whole state
    graph, enumerated eagerly.  A forward pass collects the states
    reachable from the start with their moves (the transition rule
    written out on its own), one backward bucket-queue pass from the
    finished state (None) over those moves gives togo for each state
    that can finish, and each such state's moves into states that can
    finish are sorted by reach.  State (B, z) is the integer B * n + z."""
    n = inst.n

    def state_moves(state):
        bmask, z = divmod(state, n)
        for slot, eid in enumerate(inst.out_edges[z]):
            w = inst.edges[eid][1]
            if not inst.is_terminal(w):
                yield eid, bmask * n + w, slot
                continue
            j = inst.sink_index.get(w)
            if j is None or bmask & (1 << j):
                continue
            b2 = bmask | (1 << j)
            yield eid, None if b2 == (1 << inst.k) - 1 else \
                b2 * n + inst.sources[bin(bmask).count("1") + 1], slot

    start = inst.sources[0]
    succ = {start: list(state_moves(start))}
    todo = [start]
    while todo:
        for _, key, _ in succ[todo.pop()]:
            if key is not None and key not in succ:
                succ[key] = list(state_moves(key))
                todo.append(key)
    preds = {}
    for state, moves in succ.items():
        for eid, key, _ in moves:
            preds.setdefault(key, []).append((state, costs[eid]))
    togo = evaluator._backward_costs([None], preds)
    del togo[None]
    moves = {state: sorted(((eid, costs[eid], key,
                             costs[eid] + togo.get(key, 0), slot)
                            for eid, key, slot in succ[state]
                            if key is None or key in togo),
                           key=lambda move: move[3])
             for state in togo}
    return set(succ), togo, moves


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(tiny_instances(max_k=3), st.sampled_from([None, 1, 10**6]))
def test_on_demand_graph_matches_eager_reference(materialize, inst, scale):
    # at unit costs (None), at the instance's costs and at those times
    # 10^6: the closed-form togo, the floor and every state's sorted moves
    # equal the eager reference's on every state it enumerates, a state
    # the reference finds unable to finish has no togo, and the states
    # reachable through the moves are exactly the reference's
    costs = [1] * inst.m if scale is None else \
        [c * scale for c in inst.cost_list()]
    states, togo, moves = _eager_graph(inst, costs)
    graph = ScanGraph(inst, costs)
    assert graph.floor == togo.get(graph.start)
    for state in states:
        assert graph.togo(state) == togo.get(state)
        if state in togo:
            assert graph[state] == moves[state]
    assert set(materialize(ScanGraph(inst, costs))) == set(moves)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tiny_instances(), st.integers(0, 2**32))
def test_scan_at_sparse_costs_matches_unscaled(field64, materialize, inst,
                                               seed):
    # every cost times K = 10^6, as sparse as isolation's perturbed costs:
    # the cost to go scales by K, the slices are the unscaled ones at d * K
    # at every cap, and the support at d * K is the support at d.  A pass
    # that stepped through every integer cost would not finish.
    K = 10 ** 6
    graph = ScanGraph(inst, inst.cost_list())
    big = ScanGraph(inst, [c * K for c in inst.cost_list()])
    states = set(materialize(graph))
    assert set(materialize(big)) == states
    assert all(big.togo(state) == graph.togo(state) * K for state in states)
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
