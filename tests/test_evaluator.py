import json
import multiprocessing
import os
import random
import subprocess
import sys

import pytest

from smallflow import (
    BudgetError,
    GF2Field,
    PathInstance,
    TablePlan,
    TestParams,
    decide_disjoint_paths,
    eval_length_bounded_seq,
    random_assignment,
    random_paths_instance,
)
from smallflow import evaluator
from smallflow.evaluator import (
    ScanGraph,
    scan_min_cost_slice,
    scan_slices,
    subset_table_cells,
)
from smallflow import oracle
from smallflow.oracle import subdivide_costs, subdivision_assignment


def scan_cost_slices(inst, f, field, cap, costs=None):
    """Exact-cost slices 0..cap read off the scan engine, at the given
    costs (the instance's by default)."""
    slices = [0] * (cap + 1)
    graph = ScanGraph(inst, inst.cost_list() if costs is None else costs)
    for d, vec in scan_slices(graph, f, field, cap):
        slices[d] = vec
    return slices


def length_plan(inst, l):
    """The unit-cost table plan of inst at length bound l."""
    return TablePlan(inst, l, [1] * inst.m)


def cost_plan(inst, u):
    """The table plan of inst at its own costs and cost bound u."""
    return TablePlan(inst, u, inst.cost_list())


def first_nonzero(slices):
    """Least index with a nonzero slice, or None."""
    return next((p for p, v in enumerate(slices) if v), None)


def zeroed(f, e):
    """The assignment with edge e deleted: its variable set to zero."""
    return f[:e] + [0] + f[e + 1:]


def test_single_edge(single_edge, field64):
    a = 0xABCDEF
    plan = length_plan(single_edge, 1)
    assert eval_length_bounded_seq(plan, [a], field64) == a


def test_two_route_cancellation(field64):
    # x->y directly and x->u->y: with f == 1 both monomials evaluate to one
    # and cancel at l = 2
    inst = PathInstance(3, [(0, 2), (0, 1), (1, 2)], [0], [2])
    f = [1, 1, 1]
    assert eval_length_bounded_seq(length_plan(inst, 2), f, field64) == 0
    # at l = 1 only the direct edge contributes
    assert eval_length_bounded_seq(length_plan(inst, 1), f, field64) == 1


def test_bipartite_two_monomials(bipartite22, field64):
    g = 0xDEADBEEF
    got = eval_length_bounded_seq(length_plan(bipartite22, 2),
                                  [g, 1, 1, 1], field64)
    assert got == g ^ 1


def test_seq_par_equivalence_battery(field64):
    # k up to 5, so the subset phase runs up to five levels on the pool,
    # at fewer workers than rows, as many, and more than rows
    rng = random.Random(10)
    for _ in range(60):
        n = rng.randint(3, 12)
        k = rng.randint(1, min(5, n // 2))
        inst = random_paths_instance(rng, n, k,
                                     extra_edges=rng.randint(0, 2 * n),
                                     plant=rng.random() < 0.7)
        l = rng.randint(1, k * (n - 1))
        f = random_assignment(field64, inst.m, rng)
        plan = length_plan(inst, l)
        seq = plan.slices(f, field64, parallelism=1)
        for degree in (2, 3, k + 2):
            assert plan.slices(f, field64, parallelism=degree) == seq


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="rows run inline without fork")
def test_pool_workers_bounded_by_sources(field64, monkeypatch):
    # a recording stand-in for the fork pool: tasks run inline, no process
    # starts, and the requested worker count and every map are kept
    asked, mapped = [], []

    class InlinePool:
        def __init__(self, processes, initializer, initargs):
            asked.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            mapped.append(fn.__name__)
            return [fn(*t) for t in tasks]

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool",
                        InlinePool)
    monkeypatch.setattr(evaluator, "_PLAN", None)
    cores = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") \
        else None
    for k, degrees in ((2, (10 ** 6,)), (3, (2, 3, 5))):
        inst = random_paths_instance(random.Random(5), 8, k, extra_edges=12)
        f = random_assignment(field64, inst.m, random.Random(6))
        serial = length_plan(inst, 14).slices(f, field64)
        assert any(serial)
        for degree in degrees:
            asked.clear()
            mapped.clear()
            assert length_plan(inst, 14).slices(f, field64,
                                            parallelism=degree) == serial
            # one pool per evaluation: the rows, then one map per level
            assert asked == [min(degree, k)]
            assert mapped == ["_pair_row_on_core"] + ["_subset_term"] * k
    # a row task gives its process back the cores it was allowed
    if cores is not None:
        assert os.sched_getaffinity(0) == cores


def test_length_slices_match_symbolic(field64):
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(3, 6)
        k = rng.randint(1, min(2, n // 2))
        inst = random_paths_instance(rng, n, k, extra_edges=rng.randint(0, n))
        l = k * (n - 1)
        f = random_assignment(field64, inst.m, rng)
        slices = length_plan(inst, l).slices(f, field64)
        for p in range(l + 1):
            sym = oracle.symbolic_char2_polynomial(inst, p, "cost",
                                                   costs=[1] * inst.m)
            assert slices[p] == sym.evaluate(field64, f), (p, inst.edges)


def test_cost_slices_bipartite_example(field64):
    inst = PathInstance(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [0, 1], [2, 3],
                        costs=[1, 2, 2, 1])
    f = [3, 5, 7, 9]
    cs = cost_plan(inst, 8).slices(f, field64)
    assert len(cs) == 9
    assert cs[2] == field64.mul(3, 9)
    assert cs[4] == field64.mul(5, 7)
    assert all(v == 0 for p, v in enumerate(cs) if p not in (2, 4))


def test_unit_costs_match_length_slices(field64):
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(3, 7)
        k = rng.randint(1, min(3, n // 2))
        inst = random_paths_instance(rng, n, k, extra_edges=rng.randint(0, n),
                                     cost_max=1)
        l = k * (n - 1)
        f = random_assignment(field64, inst.m, rng)
        cs = cost_plan(inst, l).slices(f, field64)
        assert cs == length_plan(inst, l).slices(f, field64)


def test_empty_edge_set(field64):
    inst = PathInstance(2, [], [0], [1])
    cs = cost_plan(inst, 4).slices([], field64)
    assert all(v == 0 for v in cs)


def test_edge_removed_matches_deleted_instance(field64):
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(3, 6)
        k = rng.randint(1, min(2, n // 2))
        inst = random_paths_instance(rng, n, k, extra_edges=rng.randint(1, n),
                                     cost_max=3)
        eid = rng.randrange(inst.m)
        u = inst.simple_cost_cap()
        f = random_assignment(field64, inst.m, rng)
        got = cost_plan(inst, u).slices(zeroed(f, eid), field64)
        kept = [i for i in range(inst.m) if i != eid]
        smaller = PathInstance(inst.n, [inst.edges[i] for i in kept],
                               inst.sources, inst.sinks,
                               costs=[inst.costs[i] for i in kept])
        f2 = [f[i] for i in kept]
        assert got == cost_plan(smaller, u).slices(f2, field64)


def test_edge_removed_cases(single_edge, field64):
    cs = cost_plan(single_edge, 3).slices(zeroed([7], 0), field64)
    assert all(v == 0 for v in cs)
    inst = PathInstance(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [0, 1], [2, 3],
                        costs=[1, 2, 2, 1])
    f = [3, 5, 7, 9]
    cs = cost_plan(inst, 8).slices(zeroed(f, 0), field64)
    assert cs[4] == field64.mul(5, 7)
    assert all(v == 0 for p, v in enumerate(cs) if p != 4)


def test_subdivide_costs():
    inst = PathInstance(3, [(0, 1), (1, 2)], [0], [2], costs=[1, 3])
    sub, carry = subdivide_costs(inst)
    # cost-1 edge unchanged, cost-3 edge becomes a 3-edge chain
    assert sub.m == 4
    assert sub.n == inst.n + (4 - 2)
    assert carry == {0: 0, 1: 1}
    assert sub.edges[0] == (0, 1)
    assert sub.edges[1][0] == 1
    assert sub.edges[3][1] == 2
    lifted = subdivision_assignment(sub, carry, [5, 9])
    assert lifted == [5, 9, 1, 1]


def test_implicit_matches_explicit_subdivision(field64):
    rng = random.Random(14)
    for _ in range(15):
        n = rng.randint(3, 6)
        k = rng.randint(1, min(3, n // 2))
        inst = random_paths_instance(rng, n, k, extra_edges=rng.randint(0, n),
                                     cost_max=3)
        sub, carry = subdivide_costs(inst)
        assert sub.n == inst.n + sum(inst.costs) - inst.m
        assert sub.m == sum(inst.costs)
        f = random_assignment(field64, inst.m, rng)
        lifted = subdivision_assignment(sub, carry, f)
        u = min(inst.simple_cost_cap(), k * (sub.n - 1), 30)
        cs = cost_plan(inst, u).slices(f, field64)
        ls = length_plan(sub, u).slices(lifted, field64)
        assert cs == ls[: u + 1]


def test_scan_engine_matches_tables(field64, field8):
    # GF(2^8) makes false zeros common, so cancellation inside a scan
    # state and zero-valued edges are both exercised
    for field in (field64, field8):
        rng = random.Random(15)
        for _ in range(15):
            n = rng.randint(3, 7)
            k = rng.randint(1, min(3, n // 2))
            inst = random_paths_instance(rng, n, k,
                                         extra_edges=rng.randint(0, n),
                                         cost_max=4)
            u = min(inst.simple_cost_cap(), 25)
            f = random_assignment(field, inst.m, rng)
            cs = cost_plan(inst, u).slices(f, field)
            assert scan_cost_slices(inst, f, field, u) == cs
            graph = ScanGraph(inst, inst.cost_list())
            hit = scan_min_cost_slice(graph, f, field, cap=u)
            assert (hit[0] if hit else None) == first_nonzero(cs)


def test_perturbed_scan_matches_tables(field64, field8):
    # The scan of a graph at the perturbed costs c * scale + w against the
    # table engine at the same costs, with scale > w_cap so that every
    # (d, w) with w <= w_cap has its own perturbed index.
    for field in (field64, field8):
        rng = random.Random(19)
        for _ in range(12):
            n = rng.randint(3, 6)
            k = rng.randint(1, min(2, n // 2))
            inst = random_paths_instance(rng, n, k,
                                         extra_edges=rng.randint(0, n),
                                         cost_max=3)
            costs = inst.cost_list()
            weights = [rng.randint(1, 3) for _ in range(inst.m)]
            d_cap = inst.simple_cost_cap()
            w_cap = inst.max_path_edges() * 3
            scale = w_cap + 1
            perturbed = PathInstance(
                inst.n, inst.edges, inst.sources, inst.sinks,
                costs=[c * scale + w for c, w in zip(costs, weights)])
            u = max(d_cap * scale + w_cap, k)
            f = random_assignment(field, inst.m, rng)
            cs = cost_plan(perturbed, u).slices(f, field)
            graph = ScanGraph(perturbed, perturbed.cost_list())
            hit = scan_min_cost_slice(graph, f, field, u)
            assert (None if hit is None else hit[0]) == first_nonzero(cs)
            for _ in range(6):
                d = rng.randint(k, d_cap)
                w = rng.randint(0, w_cap)
                clear = not any(cs[:d * scale + w + 1])
                low = scan_min_cost_slice(graph, f, field, d * scale + w)
                assert (low is None) is clear


def test_small_field_matches_symbolic(field8):
    # GF(2^8): frequent zero values and tight collisions stress the tables
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(3, 6)
        k = rng.randint(1, min(2, n // 2))
        inst = random_paths_instance(rng, n, k, extra_edges=rng.randint(0, 4),
                                     cost_max=3)
        if inst.m < k:
            continue
        u = max(inst.simple_cost_cap(), k)
        sym = oracle.symbolic_cost_slices(inst, u)
        f = random_assignment(field8, inst.m, rng)
        cs = cost_plan(inst, u).slices(f, field8)
        want = [sym[p].evaluate(field8, f) if p in sym else 0
                for p in range(u + 1)]
        assert cs == want


def test_monotone_support_under_edge_addition(field64):
    # adding edges never removes a nonzero slice from the support
    rng = random.Random(16)
    for _ in range(10):
        n = rng.randint(3, 6)
        k = rng.randint(1, min(2, n // 2))
        inst = random_paths_instance(rng, n, k, extra_edges=rng.randint(1, n),
                                     cost_max=3)
        sub_m = rng.randint(1, inst.m - 1) if inst.m > 1 else 1
        smaller = PathInstance(inst.n, inst.edges[:sub_m], inst.sources,
                               inst.sinks, costs=inst.costs[:sub_m])
        u = inst.simple_cost_cap()
        small_sym = oracle.symbolic_cost_slices(smaller, u)
        big_sym = oracle.symbolic_cost_slices(inst, u)
        for p, poly in small_sym.items():
            if not poly.is_zero():
                assert p in big_sym and not big_sym[p].is_zero()


def test_bound_validation(single_edge, field64):
    # the length range 1..k(n-1) is the query's check; the plan's is
    # bound >= 1, at any costs
    params = TestParams(field=field64)
    for l in (0, 2):
        with pytest.raises(ValueError, match="outside"):
            decide_disjoint_paths(single_edge, l, params)
    for costs in ([1], [2]):
        with pytest.raises(ValueError, match="below 1"):
            TablePlan(single_edge, 0, costs)
    plan = length_plan(single_edge, 1)
    with pytest.raises(ValueError, match="assignment covers"):
        eval_length_bounded_seq(plan, [1, 2], field64)
    for degree in (0, -3):
        with pytest.raises(ValueError, match="parallelism"):
            eval_length_bounded_seq(plan, [1], field64, parallelism=degree)


def test_memory_budget(field64, monkeypatch):
    inst = PathInstance(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [0, 1], [2, 3],
                        costs=[1, 1, 1, 1])
    with pytest.raises(BudgetError):
        cost_plan(inst, 10 ** 9).slices([1, 1, 1, 1], field64)

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    if "fork" in multiprocessing.get_all_start_methods():
        monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool",
                            no_pool)
    before = evaluator.DEFAULT_MEMORY_LIMIT
    evaluator.set_default_memory_limit(1024)
    try:
        with pytest.raises(BudgetError):
            cost_plan(inst, 100).slices([1, 1, 1, 1], field64)
        # the ceiling is checked before the pair rows run, so at degree 2
        # it fires before any worker is forked
        for degree in (1, 2):
            with pytest.raises(BudgetError):
                length_plan(inst, 6).slices([1, 1, 1, 1], field64,
                                            parallelism=degree)
    finally:
        evaluator.set_default_memory_limit(before)


def test_cell_count_formula(field64):
    inst = random_paths_instance(random.Random(1), 10, 2, extra_edges=8)
    plan = length_plan(inst, 9)
    assert plan.subset_cells == subset_table_cells(2, 9) == 4 * 10
    assert plan.pair_cells == (9 - 2 + 1) * inst.n * inst.k


def looped_chains():
    """Two disjoint chains x_i -> a_i -> b_i -> y_i at unit costs, each with
    a loop b_i -> c_i -> a_i and a dead-end spur a_i -> z_i, so d_i = 3.

    Vertices: x 0, 1; y 2, 3; chain i has a, b, c, z = 4 + 4i .. 7 + 4i.
    """
    edges = []
    for i in range(2):
        a, b, c, z = range(4 + 4 * i, 8 + 4 * i)
        edges += [(i, a), (a, b), (b, 2 + i), (b, c), (c, a), (a, z)]
    return PathInstance(12, edges, [0, 1], [2, 3])


def test_pruned_tables_make_the_hand_counted_products(field64, monkeypatch):
    # Row i's budget is l - 3, and togo is 0 at y, 1 at b, 2 at a, 3 at c;
    # z reaches no sink, so a -> z is in no fan.  The fans: a -> {b},
    # b -> {y, c} (keys 0, 3) and c -> {a}, one product each.  A walk
    # from x_i stands at a at q = 1, 4, 7, ..., at b at 2, 5, ... and at
    # c at 3, 6, ...; cell (q, v) is written only when q + togo(v) <=
    # l - 3.  Per row, at l = 11 (budget 8): q=2 a->b, q=3 b->y and b->c,
    # q=4 c->a, q=5 a->b, q=6 b->y (b->c would need 9): 5 products
    # writing 6 cells.  At l = 6 (budget 3): a->b, b->y.  Below l = 6 =
    # d_0 + d_1, none.  Each written cell is reduced once.
    inst = looped_chains()
    f = [3 + e for e in range(inst.m)]
    products = cells = 0
    in_pairs = False
    real_row = evaluator._pair_by_cost
    real_product = evaluator.vec_scalar_mul_w
    real_reduce = GF2Field.reduce

    def row(*args):
        nonlocal in_pairs
        in_pairs = True
        try:
            return real_row(*args)
        finally:
            in_pairs = False

    def product(win, scalar):
        nonlocal products
        products += in_pairs
        return real_product(win, scalar)

    def reduce(self, p):
        nonlocal cells
        cells += in_pairs
        return real_reduce(self, p)

    def no_call(*args, **kwargs):
        raise AssertionError("a worker pool was started or GF2Field.mul "
                             "was called")

    if "fork" in multiprocessing.get_all_start_methods():
        monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool",
                            no_call)
    monkeypatch.setattr(evaluator, "_pair_by_cost", row)
    monkeypatch.setattr(evaluator, "vec_scalar_mul_w", product)
    monkeypatch.setattr(GF2Field, "reduce", reduce)
    monkeypatch.setattr(GF2Field, "mul", no_call)
    for l, want_products, want_cells in ((1, 0, 0), (5, 0, 0),
                                         (6, 2 * 2, 2 * 2),
                                         (11, 2 * 5, 2 * 6)):
        products = cells = 0
        slices = length_plan(inst, l).slices(f, field64)
        assert (products, cells) == (want_products, want_cells), l
        assert slices == scan_cost_slices(inst, f, field64, l)
    assert slices[6] and slices[9] and not any(slices[:6])


def spill_instance():
    """Sources 0, 1, sinks 5, 6, inner 2, 3, 4, at mixed costs 1..3.  Tail
    2 has four cost-1 out-edges, two of them parallel edges to 4, and a
    cost-2 edge; 3 and 4 have out-edges of two costs each."""
    edges = [(0, 2), (1, 3), (2, 4), (2, 4), (2, 3), (2, 5), (2, 6),
             (3, 4), (3, 6), (4, 5), (4, 6), (4, 2), (3, 2), (0, 3)]
    costs = [1, 1, 1, 1, 1, 1, 2, 2, 1, 1, 3, 1, 2, 2]
    return PathInstance(7, edges, [0, 1], [5, 6], costs=costs)


@pytest.mark.parametrize("s", [8, 64])
def test_full_slots_do_not_spill(s):
    # every edge value 2^s - 1: the largest unreduced products, which at
    # s = 64 fill a slot up to bit 126, next to the slots of the fan's
    # other heads
    field = GF2Field(s)
    inst = spill_instance()
    unit = [1] * inst.m
    for costs in (unit, inst.cost_list()):
        fans = TablePlan(inst, 10, costs).fans
        assert any(len(heads) >= 3 and len(set(heads)) < len(heads)
                   for _, group in fans for _, _, _, heads, _ in group)
    assert len(fans) == 3
    l = inst.k * (inst.n - 1)
    u = 10
    for f in ([field.mask] * inst.m,
              random_assignment(field, inst.m, random.Random(s))):
        length_slices = length_plan(inst, l).slices(f, field)
        assert length_slices == scan_cost_slices(inst, f, field, l, unit)
        for p in range(l + 1):
            sym = oracle.symbolic_char2_polynomial(inst, p, "cost",
                                                   costs=unit)
            assert length_slices[p] == sym.evaluate(field, f), p
        slices = cost_plan(inst, u).slices(f, field)
        assert slices == scan_cost_slices(inst, f, field, u)
        for p in range(u + 1):
            sym = oracle.symbolic_char2_polynomial(inst, p, "cost")
            assert slices[p] == sym.evaluate(field, f), p
        assert any(length_slices) and any(slices)


_FRESH_PEAK = """
import json, random, sys, tracemalloc
from smallflow import GF2Field, PathInstance, TablePlan, random_assignment
n, edges, sources, sinks, l = json.load(sys.stdin)
inst = PathInstance(n, [tuple(e) for e in edges], sources, sinks)
field = GF2Field(64)
f = random_assignment(field, inst.m, random.Random(8))
tracemalloc.start()
plan = TablePlan(inst, l, [1] * inst.m)
slices = plan.slices(f, field)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
json.dump([peak, plan.pair_cells, plan.subset_cells, plan.fan_cells,
           [bool(v) for v in slices]], sys.stdout)
"""


def fresh_peak(inst, l):
    """Build inst's unit-cost plan at bound l and evaluate it once, at the
    values random_assignment draws from random.Random(8), as the first
    evaluation of a fresh interpreter: (tracemalloc peak, pair_cells,
    subset_cells, fan_cells, which slices are nonzero).  Later evaluations
    in one process read lower: they take tuples from CPython's free lists,
    which tracemalloc does not count again."""
    src = os.path.dirname(os.path.dirname(evaluator.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    spec = [inst.n, inst.edges, inst.sources, inst.sinks, l]
    out = subprocess.run([sys.executable, "-c", _FRESH_PEAK],
                         input=json.dumps(spec), capture_output=True,
                         text=True, env=env, check=True).stdout
    return json.loads(out)


def test_memory_ceiling_bounds_the_tables():
    # Dense and unpruned: every inner vertex has an edge to every other
    # inner vertex and to every sink, so togo is 1 at each, and nearly
    # every inner cell of every row is written, unreduced up to 128 bits
    # until its layer is complete.  Building the plan and one serial
    # evaluation allocate no more than the ceiling charges for its cells.
    n, k = 14, 3
    inner = range(2 * k, n)
    edges = [(x, v) for x in range(k) for v in inner]
    edges += [(u, v) for u in inner for v in inner if u != v]
    edges += [(u, y) for u in inner for y in range(k, 2 * k)]
    inst = PathInstance(n, edges, range(k), range(k, 2 * k))
    peak, pair_cells, subset_cells, _, nonzero = \
        fresh_peak(inst, k * (n - 1))
    assert all(nonzero[2 * k:])
    assert peak <= (pair_cells + subset_cells) * evaluator._CELL_BYTES


@pytest.mark.parametrize("l", [1, 2, 13])
def test_memory_ceiling_charges_the_fans(l):
    # Dense with one source: each of the 12 inner vertices is one fan of
    # 12 heads, so the fans outweigh the shallow tables, and the ceiling
    # must charge them too.
    n = 14
    inner = range(2, n)
    edges = [(0, v) for v in inner]
    edges += [(u, v) for u in inner for v in inner if u != v]
    edges += [(u, 1) for u in inner]
    inst = PathInstance(n, edges, [0], [1])
    peak, pair_cells, subset_cells, fan_cells, nonzero = fresh_peak(inst, l)
    assert fan_cells == 12 * evaluator._fan_cells(12)
    assert not any(nonzero[:2]) and all(nonzero[2:])
    assert peak <= (pair_cells + subset_cells + fan_cells) * \
        evaluator._CELL_BYTES


def test_scan_below_floor_makes_no_products(field64, monkeypatch):
    # no walk set costs less than the floor, so a scan capped below it
    # expands no state: the cost-to-go bound skips the start's moves
    inst = random_paths_instance(random.Random(3), 12, 2, extra_edges=16,
                                 cost_max=4)
    graph = ScanGraph(inst, inst.cost_list())
    assert graph.floor == 9
    f = random_assignment(field64, inst.m, random.Random(4))
    products = 0
    real = evaluator.vec_scalar_mul_w

    def counted(win, scalar):
        nonlocal products
        products += 1
        return real(win, scalar)

    monkeypatch.setattr(evaluator, "vec_scalar_mul_w", counted)
    assert scan_min_cost_slice(graph, f, field64, graph.floor - 1) is None
    # and so does a graph at perturbed costs c * scale + w
    rng = random.Random(5)
    pgraph = ScanGraph(inst, [c * 1000 + rng.randint(1, 64)
                              for c in inst.cost_list()])
    assert pgraph.floor > 9000
    assert scan_min_cost_slice(pgraph, f, field64, pgraph.floor - 1) is None
    assert products == 0
    assert scan_min_cost_slice(graph, f, field64, graph.floor)[0] == 9
    assert products > 0


def test_scan_makes_one_product_per_expanded_state(field64, monkeypatch):
    # source 0, sink 1, inner 2, 3, 4 at unit costs; edges 0 and 1 are
    # parallel edges 0 -> 2, and 2 is also reached through 3:
    #   d = 0: (0, 0)                      moves to 3 (edge 2) and 2
    #   d = 1: (0, 3), (0, 2)              3 finishes (edge 6) or goes to 2
    #   d = 2: finished, (0, 2), (0, 4)
    #   d = 3: finished, (0, 4)
    #   d = 4: finished
    inst = PathInstance(5, [(0, 2), (0, 2), (0, 3), (3, 2), (2, 4), (4, 1),
                            (3, 1)], [0], [1])
    graph = ScanGraph(inst, inst.cost_list())
    products = windows = 0
    real_mul, real_window = evaluator.vec_scalar_mul_w, evaluator.vec_window

    def counted_mul(win, scalar):
        nonlocal products
        products += 1
        return real_mul(win, scalar)

    def counted_window(packed):
        nonlocal windows
        windows += 1
        return real_window(packed)

    monkeypatch.setattr(evaluator, "vec_scalar_mul_w", counted_mul)
    monkeypatch.setattr(evaluator, "vec_window", counted_window)
    f = [3, 5, 7, 9, 11, 13, 15]
    got = list(scan_slices(graph, f, field64, 4))
    # six expanded states, (0, 2) and (0, 4) at two costs each, and one
    # window per position 0, 3, 2, 4
    assert (products, windows) == (6, 4)
    assert got == [(d, v) for d, v in
                   enumerate(cost_plan(inst, 4).slices(f, field64)) if v]
    # equal values on the parallel edges cancel at (0, 2) at cost 1: that
    # state has value zero and is not expanded, and (0, 4) is reached at
    # cost 3 only
    products = windows = 0
    f = [3, 3, 7, 9, 11, 13, 15]
    got = list(scan_slices(graph, f, field64, 4))
    assert (products, windows) == (4, 4)
    assert [d for d, _ in got] == [2, 4]
    assert got == [(d, v) for d, v in
                   enumerate(cost_plan(inst, 4).slices(f, field64)) if v]
    # both out-edges of 3 deleted: its fan is all zero, so (0, 3) makes no
    # product and position 3 is not windowed
    products = windows = 0
    f = [3, 5, 7, 0, 11, 13, 0]
    got = list(scan_slices(graph, f, field64, 4))
    assert (products, windows) == (3, 3)
    assert got == [(d, v) for d, v in
                   enumerate(cost_plan(inst, 4).slices(f, field64)) if v]
    assert [d for d, _ in got] == [3]


def test_scan_graph_keeps_only_states_that_finish(bottleneck):
    # x1, x2 -> v -> y1, y2 plus an edge into a dead end u: walk sets
    # exist (they collide at v), and u cannot finish
    inst = PathInstance(6, bottleneck.edges + [(2, 5)], [0, 1], [3, 4])
    graph = ScanGraph(inst, [1, 1, 1, 1, 1])
    assert graph.floor == 4
    assert graph.togo[(0, 0)] == 4 and graph.togo[(0, 2)] == 3
    assert not any(key == (0, 5) for moves in graph.moves.values()
                   for _, _, key, _, _ in moves)
    assert (0, 5) not in graph.togo
    assert ScanGraph(PathInstance(4, [(0, 2)], [0, 1], [2, 3]),
                     [1]).floor is None
