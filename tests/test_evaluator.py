import heapq
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
from smallflow import cli, evaluator
from smallflow.evaluator import (
    ScanGraph,
    scan_min_cost_slice,
    scan_slices,
)
from smallflow import oracle
from smallflow.extraction import paper_isolation_range, perturb_costs
from smallflow.field import SLOT_BITS, vec_window
from smallflow.network import serialize_paths_instance
from smallflow.oracle import subdivide_costs, subdivision_assignment


def length_plan(inst, l):
    """The table plan of inst at length bound l."""
    return TablePlan(inst, l)


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


def test_seq_par_equivalence_battery(field64, monkeypatch):
    # k up to 5, so the subset phase runs up to five levels on the pool,
    # at fewer workers than rows, as many, and more than rows; each core
    # is listed three times, so the pool can outgrow this host
    listed = evaluator._usable_cores() * 3
    monkeypatch.setattr(evaluator, "_usable_cores", lambda: listed)
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


def test_serial_evaluation_reads_no_cores(field64, monkeypatch):
    # at parallelism 1, or k = 1 at any parallelism, no pool can start, so
    # an evaluation asks no core list; packing and per-row plans alike
    rng = random.Random(12)
    cases = []
    for _ in range(20):
        n = rng.randint(3, 10)
        inst = random_paths_instance(rng, n, rng.randint(1, min(4, n // 2)),
                                     extra_edges=rng.randint(0, 2 * n))
        plan = length_plan(inst, rng.randint(1, inst.k * (n - 1)))
        f = random_assignment(field64, inst.m, rng)
        cases.append((plan, f, plan.slices(f, field64)))
    assert {plan.packs for plan, _, _ in cases} == {False, True}
    assert not any(plan.packs for plan, _, _ in cases
                   if plan.instance.k == 1)

    def refuse():
        raise AssertionError("a serial evaluation read the usable cores")

    monkeypatch.setattr(evaluator, "_usable_cores", refuse)
    for plan, f, want in cases:
        degrees = (1, 4) if plan.instance.k == 1 else (1,)
        for degree in degrees:
            assert plan.slices(f, field64, parallelism=degree) == want


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="rows run inline without fork")
def test_pool_workers_bounded_by_sources(field64, monkeypatch):
    # a recording stand-in for the fork pool: tasks run inline, no process
    # starts, and the requested worker count, each worker start's core
    # moves and every task are kept, in the order they happen
    asked, mapped = [], []

    class InlinePool:
        def __init__(self, processes, initializer, initargs):
            asked.append(processes)
            for _ in range(processes):
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            # every row is queued before any subset level, as on the pool
            done = []
            for task in tasks:
                mapped.append(fn.__name__)
                done.append(fn(task))
            return iter(done)

        def starmap(self, fn, tasks, chunksize):
            # one task at a time, so a level's terms spread over the pool
            assert chunksize == 1
            mapped.append(fn.__name__)
            return [fn(*t) for t in tasks]

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool",
                        InlinePool)
    monkeypatch.setattr(evaluator, "_PLAN", None)
    move = evaluator._move_to_core
    monkeypatch.setattr(evaluator, "_move_to_core",
                        lambda core: mapped.append(("_move_to_core", core)))
    cores = evaluator._usable_cores()
    for listed in (cores, cores * 3):
        # listing each core three times lets the pool grow past the host
        monkeypatch.setattr(evaluator, "_usable_cores", lambda: listed)
        for k, degrees in ((2, (10 ** 6,)), (3, (2, 3, 5))):
            inst = random_paths_instance(random.Random(5), 8, k,
                                         extra_edges=12)
            f = random_assignment(field64, inst.m, random.Random(6))
            serial = length_plan(inst, 14).slices(f, field64)
            assert any(serial)
            for degree in degrees:
                asked.clear()
                mapped.clear()
                assert length_plan(inst, 14).slices(
                    f, field64, parallelism=degree) == serial
                procs = min(degree, k, len(listed))
                # one pool per evaluation: one core move per worker start,
                # the workers to the first listed cores, and none in a
                # task; every row, then one map per level above the first,
                # whose tables are the packed columns
                assert asked == ([] if procs == 1 else [procs])
                assert mapped == ([] if procs == 1 else
                                  [("_move_to_core", core)
                                   for core in listed[:procs]]
                                  + ["_pair_row"] * k
                                  + ["_subset_term"] * (k - 1))
    # a worker's start moves it to a core and gives it back the cores it
    # was allowed
    if cores[0] is not None:
        move(cores[-1])
        assert sorted(os.sched_getaffinity(0)) == cores


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="rows run inline without fork")
def test_worker_failure_raised_in_caller(field64, monkeypatch):
    # every row is computed in a pool worker, and each one fails there
    caller = os.getpid()
    rows = evaluator._rows

    def failing(*args):
        if os.getpid() != caller:
            raise ValueError("a worker's row failed")
        return rows(*args)

    monkeypatch.setattr(evaluator, "_rows", failing)
    monkeypatch.setattr(evaluator, "_usable_cores", lambda: [None] * 2)
    inst = random_paths_instance(random.Random(5), 8, 3, extra_edges=12)
    f = random_assignment(field64, inst.m, random.Random(6))
    with pytest.raises(ValueError, match="a worker's row failed"):
        length_plan(inst, 14).slices(f, field64, parallelism=2)
    assert multiprocessing.active_children() == []


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


def test_cost_slices_bipartite_example(field64, subdivided_slices,
                                       scan_cost_slices):
    inst = PathInstance(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [0, 1], [2, 3],
                        costs=[1, 2, 2, 1])
    f = [3, 5, 7, 9]
    for cs in (scan_cost_slices(inst, f, field64, 8),
               subdivided_slices(inst, f, field64, 8)):
        assert len(cs) == 9
        assert cs[2] == field64.mul(3, 9)
        assert cs[4] == field64.mul(5, 7)
        assert all(v == 0 for p, v in enumerate(cs) if p not in (2, 4))


def test_unit_costs_match_length_slices(field64, scan_cost_slices):
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(3, 7)
        k = rng.randint(1, min(3, n // 2))
        inst = random_paths_instance(rng, n, k, extra_edges=rng.randint(0, n),
                                     cost_max=1)
        l = k * (n - 1)
        f = random_assignment(field64, inst.m, rng)
        cs = scan_cost_slices(inst, f, field64, l)
        assert cs == length_plan(inst, l).slices(f, field64)


def test_empty_edge_set(field64, scan_cost_slices):
    inst = PathInstance(2, [], [0], [1])
    for cs in (length_plan(inst, 4).slices([], field64),
               scan_cost_slices(inst, [], field64, 4)):
        assert cs == [0] * 5


def test_edge_removed_matches_deleted_instance(field64, scan_cost_slices):
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(3, 6)
        k = rng.randint(1, min(2, n // 2))
        inst = random_paths_instance(rng, n, k, extra_edges=rng.randint(1, n),
                                     cost_max=3)
        eid = rng.randrange(inst.m)
        u = inst.simple_cost_cap()
        f = random_assignment(field64, inst.m, rng)
        got = scan_cost_slices(inst, zeroed(f, eid), field64, u)
        kept = [i for i in range(inst.m) if i != eid]
        smaller = PathInstance(inst.n, [inst.edges[i] for i in kept],
                               inst.sources, inst.sinks,
                               costs=[inst.costs[i] for i in kept])
        f2 = [f[i] for i in kept]
        assert got == scan_cost_slices(smaller, f2, field64, u)


def test_edge_removed_cases(single_edge, field64, scan_cost_slices):
    cs = scan_cost_slices(single_edge, zeroed([7], 0), field64, 3)
    assert all(v == 0 for v in cs)
    inst = PathInstance(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [0, 1], [2, 3],
                        costs=[1, 2, 2, 1])
    f = [3, 5, 7, 9]
    cs = scan_cost_slices(inst, zeroed(f, 0), field64, 8)
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


def test_implicit_matches_explicit_subdivision(field64, scan_cost_slices):
    # the scan walks each edge at its cost at once; the table engine on
    # the subdivision walks c unit edges
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
        cs = scan_cost_slices(inst, f, field64, u)
        assert cs == length_plan(sub, u).slices(lifted, field64)


def test_scan_engine_matches_tables(field64, field8, subdivided_slices,
                                    scan_cost_slices):
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
            cs = subdivided_slices(inst, f, field, u)
            assert scan_cost_slices(inst, f, field, u) == cs
            graph = ScanGraph(inst, inst.cost_list())
            hit = scan_min_cost_slice(graph, f, field, cap=u)
            assert (hit[0] if hit else None) == first_nonzero(cs)


def test_perturbed_scan_matches_tables(field64, field8, subdivided_slices):
    # The scan of a graph at the perturbed costs c * scale + w against the
    # table engine on the subdivision at the same costs, with scale >
    # w_cap so that every (d, w) with w <= w_cap has its own perturbed
    # index.
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
            cs = subdivided_slices(perturbed, f, field, u)
            graph = ScanGraph(perturbed, perturbed.cost_list())
            hit = scan_min_cost_slice(graph, f, field, u)
            assert (None if hit is None else hit[0]) == first_nonzero(cs)
            for _ in range(6):
                d = rng.randint(k, d_cap)
                w = rng.randint(0, w_cap)
                clear = not any(cs[:d * scale + w + 1])
                low = scan_min_cost_slice(graph, f, field, d * scale + w)
                assert (low is None) is clear


def test_small_field_matches_symbolic(field8, scan_cost_slices):
    # GF(2^8): frequent zero values and tight collisions stress the scan
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
        cs = scan_cost_slices(inst, f, field8, u)
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
    # bound >= 1
    params = TestParams(field=field64)
    for l in (0, 2):
        with pytest.raises(ValueError, match="outside"):
            decide_disjoint_paths(single_edge, l, params)
    for bound in (0, -1):
        with pytest.raises(ValueError, match="below 1"):
            TablePlan(single_edge, bound)
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
        length_plan(inst, 10 ** 9).slices([1, 1, 1, 1], field64)

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    if "fork" in multiprocessing.get_all_start_methods():
        monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool",
                            no_pool)
    before = evaluator.DEFAULT_MEMORY_LIMIT
    evaluator.set_default_memory_limit(1024)
    try:
        with pytest.raises(BudgetError):
            length_plan(inst, 100).slices([1, 1, 1, 1], field64)
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
    assert plan.subset_cells == 4 * 10
    # per row: one cell per vertex but the sources for the pass's two
    # layers, and k sink columns of budget cells
    assert plan.pair_cells == sum(inst.n - inst.k + inst.k * max(budget, 0)
                                  for budget in plan.budgets)
    # d_i = 3 on each chain, so at l = 11 each row's budget is 8
    plan = length_plan(looped_chains(), 11)
    assert plan.budgets == [8, 8]
    assert plan.pair_cells == 2 * (12 - 2 + 2 * 8)
    # no source reaches a sink: empty rows, and their layers only
    plan = length_plan(PathInstance(4, [(2, 0)], [0, 1], [2, 3]), 5)
    assert plan.budgets == [-1, -1]
    assert plan.pair_cells == 2 * (4 - 2)


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


def test_pruned_tables_make_the_hand_counted_products(field64, monkeypatch,
                                                      scan_cost_slices):
    # Row i's budget is l - 3, and togo is 0 at y, 1 at b, 2 at a, 3 at c;
    # z reaches no sink, so a -> z is in no fan.  The fans: a -> {b},
    # b -> {y, c} (reach 1, 4) and c -> {a}: widths 1, 2, 1, below k = 2,
    # so the plan packs.  A walk from x_i stands at a at q = 1, 4, 7, ...,
    # at b at 2, 5, ... and at c at 3, 6, ...; cell (q, v) is written only
    # when q + togo(v) <= l - 3.  Both routes reduce every written cell
    # once, layer 1 included; the chains share no vertex, so each cell
    # holds one row's walks.  At l = 11 (budget 8) the cells (1, a),
    # (2, b), (3, y), (3, c), (4, a), (5, b), (6, y) of each chain are
    # written: 7 reductions per chain.  At l = 6 (budget 3): (1, a),
    # (2, b), (3, y).  Below l = 6 = d_0 + d_1, none.
    #
    # Per row (the pool's task, also the serial route of a plan that does
    # not pack), one product per kept cell with a kept out-edge, each
    # cell reduced by vec_reduce at one slot: at l = 11, out of (1, a),
    # (2, b) (one product for b->y and b->c), (3, c), (4, a) and (5, b)
    # (b->c would need 9): 5 products per chain.  At l = 6: out of (1, a)
    # and (2, b) (b->y only).
    #
    # Packed, one product per kept out-edge of a kept cell, each cell
    # reduced by vec_reduce over both slots: at l = 11 a->b, b->y, b->c,
    # c->a, a->b, b->y, 6 products per chain.  At l = 6: a->b, b->y.
    # Neither route calls GF2Field.reduce, which only the scans use.
    inst = looped_chains()
    f = [3 + e for e in range(inst.m)]
    counts = dict.fromkeys(("products", "reduce", "vec_reduce"), 0)
    inside = False

    def rows(real):
        def wrapper(*args):
            nonlocal inside
            inside = True
            try:
                return real(*args)
            finally:
                inside = False
        return wrapper

    def tally(key, real):
        def wrapper(*args):
            counts[key] += inside
            return real(*args)
        return wrapper

    def no_call(*args, **kwargs):
        raise AssertionError("a worker pool was started or GF2Field.mul "
                             "was called")

    if "fork" in multiprocessing.get_all_start_methods():
        monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool",
                            no_call)
    monkeypatch.setattr(evaluator, "_rows", rows(evaluator._rows))
    monkeypatch.setattr(evaluator, "vec_scalar_mul_w",
                        tally("products", evaluator.vec_scalar_mul_w))
    monkeypatch.setattr(evaluator, "vec_reduce",
                        tally("vec_reduce", evaluator.vec_reduce))
    monkeypatch.setattr(GF2Field, "reduce", tally("reduce", GF2Field.reduce))
    monkeypatch.setattr(GF2Field, "mul", no_call)
    per_row = {1: (0, 0), 5: (0, 0), 6: (2 * 2, 2 * 3), 11: (2 * 5, 2 * 7)}
    packed = {1: (0, 0), 5: (0, 0), 6: (2 * 2, 2 * 3), 11: (2 * 6, 2 * 7)}
    for l in per_row:
        plan = length_plan(inst, l)
        assert plan.packs
        counts.update(dict.fromkeys(counts, 0))
        slices = plan.slices(f, field64)
        assert (counts["products"], counts["vec_reduce"]) == packed[l], l
        assert counts["reduce"] == 0
        assert slices == scan_cost_slices(inst, f, field64, l)
        with monkeypatch.context() as m:
            m.setattr(evaluator, "_packs", lambda k, widths: False)
            plan = length_plan(inst, l)
            counts.update(dict.fromkeys(counts, 0))
            assert plan.slices(f, field64) == slices
        assert (counts["products"], counts["vec_reduce"]) == per_row[l], l
        assert counts["reduce"] == 0
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
def test_full_slots_do_not_spill(s, subdivided_slices, scan_cost_slices):
    # every edge value 2^s - 1: the largest unreduced products, which at
    # s = 64 fill a slot up to bit 126, next to the slots of the tail's
    # other out-edges
    field = GF2Field(s)
    inst = spill_instance()
    unit = [1] * inst.m
    assert any(len(out) >= 3 and len({v for _, v, _ in out}) < len(out)
               for out in length_plan(inst, 10).fans)
    assert set(inst.costs) == {1, 2, 3}
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
        slices = scan_cost_slices(inst, f, field, u)
        assert slices == subdivided_slices(inst, f, field, u)
        for p in range(u + 1):
            sym = oracle.symbolic_char2_polynomial(inst, p, "cost")
            assert slices[p] == sym.evaluate(field, f), p
        assert any(length_slices) and any(slices)


@pytest.mark.parametrize("s", [8, 64])
def test_row_routes_are_bit_identical(s, monkeypatch, subdivided_slices,
                                      scan_cost_slices):
    # The packed pass and the per-row route (the pool's task), each forced
    # through the plan's serial route, against the scan engine: k = 1..4,
    # plans of the instance and of its subdivision at costs up to 3, at
    # random values and at every edge value 2^s - 1, whose products fill
    # a slot up to bit 2s - 2 next to the other rows' slots.
    field = GF2Field(s)
    rng = random.Random(40 + s)
    nonzero = 0
    for k in range(1, 5):
        for _ in range(6):
            n = rng.randint(2 * k + 1, 2 * k + 8)
            inst = random_paths_instance(rng, n, k,
                                         extra_edges=rng.randint(0, 3 * n),
                                         cost_max=3,
                                         plant=rng.random() < 0.8)
            unit = [1] * inst.m
            l = min(k * (n - 1), 14)
            u = min(inst.simple_cost_cap(), 20)
            for f in ([field.mask] * inst.m,
                      random_assignment(field, inst.m, rng)):
                want = (scan_cost_slices(inst, f, field, l, unit),
                        scan_cost_slices(inst, f, field, u))
                for packs in (True, False):
                    monkeypatch.setattr(evaluator, "_packs",
                                        lambda k, widths, packs=packs: packs)
                    plan = length_plan(inst, l)
                    assert plan.packs == packs
                    assert (plan.slices(f, field),
                            subdivided_slices(inst, f, field, u)) == want
                nonzero += any(want[0]) + any(want[1])
    assert nonzero >= 60  # of 96 slice lists


def layered_instance(rng, k, width, depth):
    """A unit-cost instance shaped like decide's benchmark instances:
    `depth` layers of `width` inner vertices (width >= k), k chains
    planted straight through them, two random edges from every source
    and inner vertex into the next layer (the sinks after the last),
    and `width` random edges one layer back."""
    sources, sinks = list(range(k)), list(range(k, 2 * k))
    layers = [list(range(2 * k + j * width, 2 * k + (j + 1) * width))
              for j in range(depth)]
    steps = [sources] + layers + [sinks]
    edges = [(a[i], b[i]) for a, b in zip(steps, steps[1:]) for i in range(k)]
    edges += [(u, rng.choice(b)) for a, b in zip(steps, steps[1:])
              for u in a for _ in range(2)]
    for _ in range(width):
        j = rng.randrange(1, depth)
        edges.append((rng.choice(layers[j]), rng.choice(layers[j - 1])))
    return PathInstance(2 * k + width * depth, edges, sources, sinks)


def test_row_route_choice(field64, monkeypatch, scan_cost_slices):
    # Criterion 7's instance has fans 4.9 wide on average at k = 4, so its
    # serial route stays per row; decide's k >= 3 shapes have fans about 3
    # wide and pack, and one source never packs.
    inst = random_paths_instance(random.Random(71), 64, 4, extra_edges=256)
    plan = length_plan(inst, 4 * 63)
    widths = [len(out) for out in plan.fans if out]
    assert 4.5 < sum(widths) / len(widths) and not plan.packs
    ran = []

    def spy(plan, assignment, field, windows, rows, real=evaluator._rows):
        ran.append("packed" if windows is None else "per-row")
        return real(plan, assignment, field, windows, rows)

    monkeypatch.setattr(evaluator, "_rows", spy)
    for k in (1, 3, 4):
        inst = layered_instance(random.Random(k), k, 5, 6)
        plan = length_plan(inst, inst.max_path_edges())
        assert plan.packs == (k > 1)
        ran.clear()
        f = random_assignment(field64, inst.m, random.Random(k))
        slices = plan.slices(f, field64)
        assert ran == (["packed"] if k > 1 else ["per-row"])
        assert any(slices)
        assert slices == scan_cost_slices(inst, f, field64, plan.bound,
                                          [1] * inst.m)


def test_no_walk_set_within_the_bound_runs_no_row(field64, monkeypatch):
    # Below the floor, and where a source reaches no sink, no walk set
    # fits the bound: slices() answers all zeros before any row pass, so
    # neither a row nor a subset term runs, and no pool starts.
    def no_call(*args, **kwargs):
        raise AssertionError("a row pass, a subset term or a pool ran")

    monkeypatch.setattr(evaluator, "_rows", no_call)
    monkeypatch.setattr(evaluator, "_subset_term", no_call)
    if "fork" in multiprocessing.get_all_start_methods():
        monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool",
                            no_call)
    chains = looped_chains()  # floor 6
    # source 0 reaches sink 2 through 4; source 1 only the dead end 5
    stranded = PathInstance(6, [(0, 4), (4, 2), (4, 3), (1, 5)], [0, 1],
                            [2, 3])
    for inst, bounds in ((chains, range(1, 6)), (stranded, (1, 2, 6))):
        f = random_assignment(field64, inst.m, random.Random(12))
        for l in bounds:
            plan = length_plan(inst, l)
            assert plan.floor is None or plan.floor > l
            for degree in (1, 2):
                assert plan.slices(f, field64, parallelism=degree) == \
                    [0] * (l + 1)


@pytest.mark.parametrize("shape", ["looped chains", "layered k=4"])
def test_subset_terms_stay_in_the_slack_window(shape, field64, monkeypatch,
                                               scan_cost_slices):
    # Only W = bound - floor + 1 lengths of a subset table can be nonzero,
    # so every table a term reads holds at most W slots and every column
    # window at most W entries, on both serial routes, and the slices
    # still match the scan engine's: at the floor (W = 1), one above it
    # and 2k above it.
    if shape == "looped chains":
        inst = looped_chains()
    else:
        inst = layered_instance(random.Random(4), 4, 5, 6)
    floor = length_plan(inst, 1).floor
    f = random_assignment(field64, inst.m, random.Random(13))
    seen = []

    def spy(prev, column, size, real=evaluator._subset_term):
        seen.append((prev, len(column), size))
        return real(prev, column, size)

    monkeypatch.setattr(evaluator, "_subset_term", spy)
    for l in (floor, floor + 1, floor + 2 * inst.k):
        width = l - floor + 1
        want = scan_cost_slices(inst, f, field64, l, [1] * inst.m)
        assert any(want) and not any(want[:floor])
        for packs in (True, False):
            monkeypatch.setattr(evaluator, "_packs",
                                lambda k, widths, packs=packs: packs)
            seen.clear()
            assert length_plan(inst, l).slices(f, field64) == want
            assert seen
            for prev, entries, size in seen:
                assert size == width and entries <= width
                assert 0 < prev < 1 << (SLOT_BITS * width)


_FRESH_PEAK = """
import gc, json, random, sys, tracemalloc
from smallflow import GF2Field, PathInstance, TablePlan, random_assignment
n, edges, sources, sinks, l = json.load(sys.stdin)
inst = PathInstance(n, [tuple(e) for e in edges], sources, sinks)
field = GF2Field(64)
f = random_assignment(field, inst.m, random.Random(8))
gc.collect()
tracemalloc.start()
plan = TablePlan(inst, l)
slices = plan.slices(f, field)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
json.dump([peak, plan.pair_cells, plan.subset_cells, plan.fan_cells,
           [bool(v) for v in slices], sum(map(len, plan.fans))],
          sys.stdout)
"""


def fresh_peak(inst, l):
    """Build inst's unit-cost plan at bound l and evaluate it once, at the
    values random_assignment draws from random.Random(8), as the first
    evaluation of a fresh interpreter: (tracemalloc peak, pair_cells,
    subset_cells, fan_cells, which slices are nonzero, the entries of
    plan.fans).  The free lists are emptied (gc.collect) before tracing
    starts, so every tuple the pass makes is counted; later evaluations
    in one process read lower, as they take tuples from CPython's free
    lists, which tracemalloc does not count again."""
    return _fresh(_FRESH_PEAK, [inst.n, inst.edges, inst.sources,
                                inst.sinks, l])


def _fresh(script, spec):
    """Run script in a fresh interpreter on this checkout's smallflow,
    with spec as JSON on its standard input: the JSON it prints."""
    src = os.path.dirname(os.path.dirname(evaluator.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script],
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
    peak, pair_cells, subset_cells, fan_cells, nonzero, fan_entries = \
        fresh_peak(inst, k * (n - 1))
    assert fan_entries == 8 * 10
    assert fan_cells == 8 * evaluator._fan_cells(10) + \
        evaluator._FAN_ENTRY_CELLS * fan_entries
    assert all(nonzero[2 * k:])
    assert peak <= (pair_cells + subset_cells) * evaluator._CELL_BYTES


@pytest.mark.parametrize("l", [1, 2, 13])
def test_memory_ceiling_charges_the_fans(l):
    # Dense with one source: each of the 12 inner vertices has 12
    # out-edges, windowed as one fan per evaluation, so the windowed fans
    # and the plan's fan lists outweigh the shallow tables, and the
    # ceiling must charge them too.
    n = 14
    inner = range(2, n)
    edges = [(0, v) for v in inner]
    edges += [(u, v) for u in inner for v in inner if u != v]
    edges += [(u, 1) for u in inner]
    inst = PathInstance(n, edges, [0], [1])
    peak, pair_cells, subset_cells, fan_cells, nonzero, fan_entries = \
        fresh_peak(inst, l)
    assert fan_entries == 12 * 12
    assert fan_cells == 12 * evaluator._fan_cells(12) + \
        evaluator._FAN_ENTRY_CELLS * fan_entries
    assert not any(nonzero[:2]) and all(nonzero[2:])
    assert peak <= (pair_cells + subset_cells + fan_cells) * \
        evaluator._CELL_BYTES


@pytest.mark.parametrize("l", [48, 60, 4 * 67])
def test_memory_ceiling_bounds_a_packing_plan(l):
    # decide's shape at k = 4, from its floor, 48, to its deepest bound:
    # the packed pass holds two layers of 4-slot cells and the sink
    # columns, and the plan its fan lists, which fan_cells charges
    # beside the windowed fans that the pool would build.
    inst = layered_instance(random.Random(9), 4, 6, 11)
    plan = length_plan(inst, l)
    widths = [len(out) for out in plan.fans if out]
    peak, pair_cells, subset_cells, fan_cells, nonzero, fan_entries = \
        fresh_peak(inst, l)
    assert plan.packs and fan_entries == sum(widths)
    assert fan_cells == sum(map(evaluator._fan_cells, widths)) + \
        evaluator._FAN_ENTRY_CELLS * fan_entries
    assert any(nonzero)
    assert peak <= (pair_cells + subset_cells + fan_cells) * \
        evaluator._CELL_BYTES


def test_memory_ceiling_admits_decide_at_its_clamped_degree(capsys,
                                                           tmp_path):
    # decide's k = 4 shape at its deepest bound, 4 * 67, evaluates at the
    # clamped degree n - k = 70, where each row's budget is 34.  Charged
    # per row for two layers and its sink columns, the plan takes about
    # 0.37 MB, so a 1 MiB ceiling answers the query (a (bound + 1) x n
    # table per row was charged 2.2 MB and refused it, exit 3), and one
    # fresh build and evaluation peaks under that ceiling.
    inst = layered_instance(random.Random(9), 4, 6, 11)
    degree = inst.max_path_edges()
    peak, pair_cells, subset_cells, fan_cells, nonzero, _ = \
        fresh_peak(inst, degree)
    assert degree == 70 and any(nonzero)
    assert pair_cells == 4 * (inst.n - 4 + 4 * 34)
    assert peak <= (pair_cells + subset_cells + fan_cells) * \
        evaluator._CELL_BYTES <= 1 << 20
    path = tmp_path / "layered.paths"
    path.write_text(serialize_paths_instance(inst))
    before = evaluator.DEFAULT_MEMORY_LIMIT
    try:
        code = cli.main(["decide", "-i", str(path), "-l", str(4 * 67),
                         "--memory-limit-mib", "1"])
    finally:
        evaluator.set_default_memory_limit(before)
    report = json.loads(capsys.readouterr().out)
    assert (code, report["answer"], report["evaluated_degree"]) == \
        (0, "NONZERO", degree)


_FRESH_SCAN_PEAK = """
import gc, json, random, sys, tracemalloc
from smallflow import GF2Field, PathInstance, evaluator, random_assignment
n, edges, sources, sinks, costs = json.load(sys.stdin)
inst = PathInstance(n, [tuple(e) for e in edges], sources, sinks,
                    costs=costs)
field = GF2Field(64)
f = random_assignment(field, inst.m, random.Random(8))
graph = evaluator.ScanGraph(inst, inst.cost_list())
tables = graph.cells
charges = []
check = evaluator._check_budget
evaluator._check_budget = lambda cells: (charges.append(cells), check(cells))
gc.collect()
tracemalloc.start()
slices = list(evaluator.scan_slices(graph, f, field, inst.simple_cost_cap()))
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
json.dump([peak, max(charges), tables, len(charges), len(slices),
           len(graph)], sys.stdout)
"""


@pytest.mark.parametrize("n, k", [(14, 2), (12, 3), (10, 3)])
def test_memory_ceiling_bounds_the_scan(n, k):
    # Dense and costed, scanned to simple_cost_cap(): states at one cost
    # spread over many (d + togo, d) groups, so hundreds of small groups
    # are popped.  The graph's distance tables are built before the
    # measurement; the scan, which materializes the states it expands,
    # allocates no more than its largest check charges beyond them
    # (materialized states and moves, pending entries, pending groups and
    # fans).
    inner = range(2 * k, n)
    edges = [(x, v) for x in range(k) for v in inner]
    edges += [(u, v) for u in inner for v in inner if u != v]
    edges += [(u, y) for u in inner for y in range(k, 2 * k)]
    rng = random.Random(3)
    costs = [rng.randint(1, 4) for _ in edges]
    peak, charge, tables, checks, slices, states = _fresh(
        _FRESH_SCAN_PEAK, [n, edges, list(range(k)), list(range(k, 2 * k)),
                           costs])
    assert checks > 100 and slices > 10 and states > 30
    assert peak <= (charge - tables) * evaluator._CELL_BYTES


_FRESH_GRAPH_PEAK = """
import gc, json, random, sys, tracemalloc
from smallflow import GF2Field, PathInstance, evaluator, random_assignment
k, limit = json.load(sys.stdin)
inst = PathInstance(2 * k, [(i, k + j) for i in range(k) for j in range(k)],
                    range(k), range(k, 2 * k))
field = GF2Field(64)
f = random_assignment(field, inst.m, random.Random(8))
evaluator.set_default_memory_limit(limit)
gc.collect()
tracemalloc.start()
graph = evaluator.ScanGraph(inst, inst.cost_list())
try:
    list(evaluator.scan_slices(graph, f, field, inst.simple_cost_cap()))
    raised = False
except evaluator.BudgetError:
    raised = True
json.dump([raised, tracemalloc.get_traced_memory()[1], len(graph)],
          sys.stdout)
"""


@pytest.mark.parametrize("k", [10, 12, 14])
def test_memory_ceiling_bounds_the_scan_graph(k):
    # Complete bipartite X -> Y: about 2^k * k states and moves, and a
    # full scan expands every one of them.  The graph itself holds only
    # its distance tables, so it is built under a 1 MiB ceiling at every k
    # here.  At k = 12 and 14, far past that ceiling, the scan raises as
    # soon as the states it materializes pass it, not after it has built
    # every state (19 MiB at k = 14).  At k = 10 (1,023 states, 5,120
    # moves) the scan either raises or holds no more than the ceiling: the
    # charge counts the togo table and the sorted moves too.
    limit = 1 << 20
    raised, peak, states = _fresh(_FRESH_GRAPH_PEAK, [k, limit])
    if k == 10:
        assert raised or peak <= limit
    else:
        assert raised and 0 < states < (1 << k) - 1
        assert peak <= 2 * limit


_FRESH_SUPPORT_PEAK = """
import gc, json, sys, tracemalloc
from smallflow import PathInstance, evaluator
n, edges, sources, sinks, costs, to_cap = json.load(sys.stdin)
inst = PathInstance(n, [tuple(e) for e in edges], sources, sinks,
                    costs=costs)
graph = evaluator.ScanGraph(inst, inst.cost_list())
tables = graph.cells
d = inst.simple_cost_cap() if to_cap else graph.floor + 4
charges = []
check = evaluator._check_budget
evaluator._check_budget = lambda cells: (charges.append(cells), check(cells))
gc.collect()
tracemalloc.start()
support, _ = evaluator.slice_support(graph, [True] * inst.m, d)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
json.dump([peak, max(charges), tables, len(charges), sum(support),
           len(graph)], sys.stdout)
"""


@pytest.mark.parametrize("to_cap", [True, False])
@pytest.mark.parametrize("n, k", [(14, 2), (12, 3), (10, 3)])
def test_memory_ceiling_bounds_the_support_pass(n, k, to_cap):
    # The dense costed instances of test_memory_ceiling_bounds_the_scan,
    # at d = simple_cost_cap() and at d = floor + 4.  The graph's distance
    # tables are built before the measurement; the support pass, which
    # materializes the states it expands, allocates no more than its
    # largest check charges beyond them (materialized states and moves,
    # and the pending layers' entries with their two masks each).
    inner = range(2 * k, n)
    edges = [(x, v) for x in range(k) for v in inner]
    edges += [(u, v) for u in inner for v in inner if u != v]
    edges += [(u, y) for u in inner for y in range(k, 2 * k)]
    rng = random.Random(3)
    costs = [rng.randint(1, 4) for _ in edges]
    peak, charge, tables, checks, support, states = _fresh(
        _FRESH_SUPPORT_PEAK, [n, edges, list(range(k)),
                              list(range(k, 2 * k)), costs, to_cap])
    assert checks > 5 and support > 30 and states > 10
    assert peak <= (charge - tables) * evaluator._CELL_BYTES


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
                   enumerate(length_plan(inst, 4).slices(f, field64)) if v]
    # equal values on the parallel edges cancel at (0, 2) at cost 1: that
    # state has value zero and is not expanded, and (0, 4) is reached at
    # cost 3 only
    products = windows = 0
    f = [3, 3, 7, 9, 11, 13, 15]
    got = list(scan_slices(graph, f, field64, 4))
    assert (products, windows) == (4, 4)
    assert [d for d, _ in got] == [2, 4]
    assert got == [(d, v) for d, v in
                   enumerate(length_plan(inst, 4).slices(f, field64)) if v]
    # both out-edges of 3 deleted: its fan is all zero, so (0, 3) makes
    # one product, zero in every slot, and none of its moves is pushed
    products = windows = 0
    f = [3, 5, 7, 0, 11, 13, 0]
    got = list(scan_slices(graph, f, field64, 4))
    assert (products, windows) == (4, 4)
    assert got == [(d, v) for d, v in
                   enumerate(length_plan(inst, 4).slices(f, field64)) if v]
    assert [d for d, _ in got] == [3]


def test_scan_graph_keeps_only_states_that_finish(bottleneck, materialize):
    # x1, x2 -> v -> y1, y2 plus an edge into a dead end u: walk sets
    # exist (they collide at v), and u cannot finish.  State (B, z) is the
    # integer B * n + z, n = 6.
    inst = PathInstance(6, bottleneck.edges + [(2, 5)], [0, 1], [3, 4])
    graph = ScanGraph(inst, [1, 1, 1, 1, 1])
    assert not graph  # nothing is built before a reader asks
    assert graph.start == 0 and graph.floor == 4
    assert graph.togo(0) == 4 and graph.togo(2) == 3
    materialize(graph)
    assert set(graph) == {b * 6 + z for b, z in
                          [(0, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2)]}
    assert not any(key == 5 for moves in graph.values()
                   for _, _, key, _, _ in moves)
    assert graph.togo(5) is None
    assert ScanGraph(PathInstance(4, [(0, 2)], [0, 1], [2, 3]),
                     [1]).floor is None


def test_scan_graph_checks_its_own_charge(bipartite22, monkeypatch):
    # Under a ceiling of exactly its construction charge the graph is
    # built, and the first state it materializes passes the ceiling: the
    # graph raises from its own transition rule, before any reader has
    # charged a thing.
    charge = ScanGraph(bipartite22, [1, 1, 1, 1]).cells
    monkeypatch.setattr(evaluator, "DEFAULT_MEMORY_LIMIT",
                        charge * evaluator._CELL_BYTES)
    graph = ScanGraph(bipartite22, [1, 1, 1, 1])
    assert graph.cells == charge
    with pytest.raises(BudgetError) as info:
        graph[graph.start]
    assert [entry.name for entry in info.traceback[-2:]] == \
        ["__missing__", "_check_budget"]


def d_ordered_scan(graph, assignment, field, cap):
    """Reference for scan_slices: the scan that pops its pending states by
    cost d alone, so that it expands every state whose move fits under the
    cap.  It packs the same fans and makes one evaluator.vec_scalar_mul_w
    per expanded state, so that both scans' products count alike; it
    checks no memory ceiling."""
    instance = graph.instance
    fans = {}
    pending = {}
    costs = []
    if graph.floor is not None and graph.floor <= cap:
        pending[0] = {graph.start: 1}
        costs.append(0)
    while costs:
        d = heapq.heappop(costs)
        states = pending.pop(d)
        done = field.reduce(states.pop(None, 0))
        if done:
            yield d, done
        for state, raw in states.items():
            value = field.reduce(raw)
            if not value:
                continue
            z = state % instance.n
            if z not in fans:
                packed = 0
                for slot, eid in enumerate(instance.out_edges[z]):
                    packed |= assignment[eid] << (SLOT_BITS * slot)
                fans[z] = packed and vec_window(packed)
            if not fans[z]:
                continue
            products = evaluator.vec_scalar_mul_w(fans[z], value)
            for _, c, key, reach, slot in graph[state]:
                if d + reach > cap:
                    break
                carried = products >> (SLOT_BITS * slot) & \
                    ((1 << SLOT_BITS) - 1)
                if carried:
                    if d + c not in pending:
                        pending[d + c] = {}
                        heapq.heappush(costs, d + c)
                    tgt = pending[d + c]
                    tgt[key] = tgt.get(key, 0) ^ carried


def scan_battery():
    """(instance, costs, assignment) over 40 seeded random instances,
    n 6-12, k 1-3, costs 1-4, a fifth without planted paths, each at its
    own costs and at isolation's perturbed costs c * scale + w."""
    field = GF2Field(64)
    for seed in range(40):
        rng = random.Random(seed)
        k = rng.randint(1, 3)
        inst = random_paths_instance(rng, rng.randint(max(6, 2 * k), 12), k,
                                     extra_edges=rng.randint(4, 20),
                                     cost_max=4, plant=seed % 5 != 0)
        pc = perturb_costs(inst, paper_isolation_range(inst), rng)
        f = random_assignment(field, inst.m, rng)
        yield inst, inst.cost_list(), f
        yield inst, list(pc), f


def test_best_first_scan_matches_d_ordered(field64, monkeypatch):
    # Every slice list equals the d-ordered reference's, at caps below the
    # floor, at the optimum and at simple_cost_cap(); a full list expands
    # the same states, and a scan that stops at its first hit expands no
    # more than the reference, and fewer over the battery.
    counts = {}
    real = evaluator.vec_scalar_mul_w

    def counted(win, scalar):
        counts[side] += 1
        return real(win, scalar)

    monkeypatch.setattr(evaluator, "vec_scalar_mul_w", counted)
    first_hits = {"best-first": 0, "d-ordered": 0}
    hits = 0
    for inst, costs, f in scan_battery():
        graph = ScanGraph(inst, costs)
        optimum = oracle.disjoint_paths_min_cost_via_flow(inst, costs)
        caps = {inst.simple_cost_cap(costs)}
        if graph.floor is not None:
            caps.add(graph.floor - 1)
        if optimum is not None:
            caps.add(optimum)
        for cap in caps:
            lists = {}
            for side, scan in (("best-first", scan_slices),
                               ("d-ordered", d_ordered_scan)):
                counts[side] = 0
                lists[side] = list(scan(graph, f, field64, cap))
            assert lists["best-first"] == lists["d-ordered"]
            assert counts["best-first"] == counts["d-ordered"]
            for side, scan in (("best-first", scan_slices),
                               ("d-ordered", d_ordered_scan)):
                counts[side] = 0
                first = next(scan(graph, f, field64, cap), None)
                assert first == next(iter(lists[side]), None)
                first_hits[side] += counts[side]
            assert counts["best-first"] <= counts["d-ordered"]
        hits += optimum is not None
    assert hits > 40
    assert first_hits["best-first"] < first_hits["d-ordered"]


def test_first_hit_expands_only_groups_within_it(field64, monkeypatch):
    # the scan pops its groups by (d + togo, d): one that stops at its
    # first hit d* pops no group past (d*, d*), so it expands no state
    # whose d + togo exceeds d*
    popped = []
    real = evaluator.heappop

    def recorded(heap):
        popped.append(real(heap))
        return popped[-1]

    monkeypatch.setattr(evaluator, "heappop", recorded)
    for inst, costs, f in scan_battery():
        graph = ScanGraph(inst, costs)
        popped.clear()
        hit = scan_min_cost_slice(graph, f, field64,
                                  inst.simple_cost_cap(costs))
        if hit is None:
            assert graph.floor is None or not any(
                d_ordered_scan(graph, f, field64,
                               inst.simple_cost_cap(costs)))
            continue
        assert hit[0] == oracle.disjoint_paths_min_cost_via_flow(inst, costs)
        assert popped[0] == (graph.floor, 0)
        assert popped[-1] == (hit[0], hit[0])
        assert popped == sorted(popped)
        assert all(bound <= hit[0] for bound, _ in popped)
