import random

import pytest

from smallflow import (
    BudgetError,
    PathInstance,
    eval_cost_slices,
    eval_length_bounded_par,
    eval_length_bounded_seq,
    eval_length_slices,
    eval_with_edge_removed,
    random_assignment,
    random_paths_instance,
    subdivide_costs,
    subdivision_assignment,
)
from smallflow.evaluator import (
    LengthEvaluation,
    perturbed_scan,
    scan_min_cost_slice,
    scan_slices,
    subset_table_cells,
)
from smallflow import oracle


def scan_cost_slices(inst, f, field, cap):
    """Exact-cost slices 0..cap read off the scan engine, zero weights."""
    slices = [0] * (cap + 1)
    for d, vec in scan_slices(inst, f, field, inst.cost_list(),
                              [0] * inst.m, cap, 0):
        slices[d] = vec
    return slices


def test_single_edge(single_edge, field64):
    a = 0xABCDEF
    assert eval_length_bounded_seq(single_edge, 1, [a], field64) == a
    assert eval_length_bounded_par(single_edge, 1, [a], field64) == a


def test_two_route_cancellation(field64):
    # x->y directly and x->u->y: with f == 1 both monomials evaluate to one
    # and cancel at l = 2
    inst = PathInstance(3, [(0, 2), (0, 1), (1, 2)], [0], [2])
    assert eval_length_bounded_seq(inst, 2, [1, 1, 1], field64) == 0
    # at l = 1 only the direct edge contributes
    assert eval_length_bounded_seq(inst, 1, [1, 1, 1], field64) == 1


def test_bipartite_two_monomials(bipartite22, field64):
    g = 0xDEADBEEF
    got = eval_length_bounded_seq(bipartite22, 2, [g, 1, 1, 1], field64)
    assert got == g ^ 1


def test_seq_par_equivalence_battery(field64):
    rng = random.Random(10)
    for _ in range(60):
        n = rng.randint(3, 12)
        k = rng.randint(1, min(3, n // 2))
        inst = random_paths_instance(rng, n, k,
                                     extra_edges=rng.randint(0, 2 * n),
                                     plant=rng.random() < 0.7)
        l = rng.randint(1, k * (n - 1))
        f = random_assignment(field64, inst.m, rng)
        seq = eval_length_bounded_seq(inst, l, f, field64)
        assert eval_length_bounded_par(inst, l, f, field64) == seq
        assert eval_length_bounded_par(inst, l, f, field64,
                                       parallelism=3) == seq


def test_length_slices_match_symbolic(field64):
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(3, 6)
        k = rng.randint(1, min(2, n // 2))
        inst = random_paths_instance(rng, n, k, extra_edges=rng.randint(0, n))
        l = k * (n - 1)
        f = random_assignment(field64, inst.m, rng)
        slices = eval_length_slices(inst, l, f, field64)
        for p in range(l + 1):
            sym = oracle.symbolic_char2_polynomial(inst, p, "cost",
                                                   costs=[1] * inst.m)
            assert slices[p] == sym.evaluate(field64, f), (p, inst.edges)


def test_cost_slices_bipartite_example(field64):
    inst = PathInstance(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [0, 1], [2, 3],
                        costs=[1, 2, 2, 1])
    f = [3, 5, 7, 9]
    cs = eval_cost_slices(inst, 8, f, field64)
    assert cs.slices[2] == field64.mul(3, 9)
    assert cs.slices[4] == field64.mul(5, 7)
    assert all(v == 0 for p, v in enumerate(cs.slices) if p not in (2, 4))
    assert cs.value_at(2) == cs.slices[2]
    assert cs.value_at(8) == cs.slices[2] ^ cs.slices[4]
    assert cs.first_nonzero() == 2


def test_unit_costs_match_length_slices(field64):
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(3, 7)
        k = rng.randint(1, min(3, n // 2))
        inst = random_paths_instance(rng, n, k, extra_edges=rng.randint(0, n),
                                     cost_max=1)
        l = k * (n - 1)
        f = random_assignment(field64, inst.m, rng)
        cs = eval_cost_slices(inst, l, f, field64)
        ls = eval_length_slices(inst, l, f, field64)
        assert cs.slices == ls


def test_empty_edge_set(field64):
    inst = PathInstance(2, [], [0], [1])
    cs = eval_cost_slices(inst, 4, [], field64)
    assert all(v == 0 for v in cs.slices)


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
        got = eval_with_edge_removed(inst, eid, u, f, field64)
        kept = [i for i in range(inst.m) if i != eid]
        smaller = PathInstance(inst.n, [inst.edges[i] for i in kept],
                               inst.sources, inst.sinks,
                               costs=[inst.costs[i] for i in kept])
        f2 = [f[i] for i in kept]
        want = eval_cost_slices(smaller, u, f2, field64)
        assert got.slices == want.slices


def test_edge_removed_cases(single_edge, field64):
    cs = eval_with_edge_removed(single_edge, 0, 3, [7], field64)
    assert all(v == 0 for v in cs.slices)
    with pytest.raises(ValueError, match="unknown edge"):
        eval_with_edge_removed(single_edge, 5, 3, [7], field64)
    inst = PathInstance(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [0, 1], [2, 3],
                        costs=[1, 2, 2, 1])
    f = [3, 5, 7, 9]
    cs = eval_with_edge_removed(inst, 0, 8, f, field64)
    assert cs.slices[4] == field64.mul(5, 7)
    assert all(v == 0 for p, v in enumerate(cs.slices) if p != 4)


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
        cs = eval_cost_slices(inst, u, f, field64)
        ls = eval_length_slices(sub, u, lifted, field64)
        assert cs.slices == ls[: u + 1]


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
            cs = eval_cost_slices(inst, u, f, field)
            assert scan_cost_slices(inst, f, field, u) == cs.slices
            hit = scan_min_cost_slice(inst, f, field, cap=u)
            assert (hit[0] if hit else None) == cs.first_nonzero()


def test_perturbed_scan_matches_tables(field64, field8):
    # Two-part costs (c, w) against the table engine at the perturbed
    # costs c * scale + w, with scale > w_cap so that every (d, w) with
    # w <= w_cap has its own perturbed index.
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
            perturbed = inst.with_costs(
                [c * scale + w for c, w in zip(costs, weights)])
            u = max(d_cap * scale + w_cap, k)
            f = random_assignment(field, inst.m, rng)
            cs = eval_cost_slices(perturbed, u, f, field)
            hit = perturbed_scan(inst, f, field, costs, weights, d_cap,
                                 w_cap)
            first = cs.first_nonzero()
            assert (None if hit is None else hit[0] * scale + hit[1]) \
                == first
            for _ in range(6):
                d = rng.randint(k, d_cap)
                w = rng.randint(0, w_cap)
                clear = not any(cs.slices[:d * scale + w + 1])
                assert perturbed_scan(inst, f, field, costs, weights, d_cap,
                                      w_cap, stop_d=d, stop_w=w) is clear


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
        cs = eval_cost_slices(inst, u, f, field8)
        want = [sym[p].evaluate(field8, f) if p in sym else 0
                for p in range(u + 1)]
        assert cs.slices == want


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
    with pytest.raises(ValueError, match="outside"):
        eval_length_bounded_seq(single_edge, 0, [1], field64)
    with pytest.raises(ValueError, match="outside"):
        eval_length_bounded_seq(single_edge, 2, [1], field64)
    with pytest.raises(ValueError, match="below k"):
        eval_cost_slices(single_edge, 0, [1], field64)
    with pytest.raises(ValueError, match="assignment covers"):
        eval_length_bounded_seq(single_edge, 1, [1, 2], field64)


def test_memory_budget(field64):
    inst = PathInstance(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [0, 1], [2, 3],
                        costs=[1, 1, 1, 1])
    with pytest.raises(BudgetError):
        eval_cost_slices(inst, 10 ** 9, [1, 1, 1, 1], field64)
    with pytest.raises(BudgetError):
        eval_cost_slices(inst, 100, [1, 1, 1, 1], field64,
                         memory_limit=1024)


def test_cell_count_formula(field64):
    inst = random_paths_instance(random.Random(1), 10, 2, extra_edges=8)
    f = random_assignment(field64, inst.m, random.Random(2))
    ev = LengthEvaluation(inst, 9, f, field64)
    assert ev.subset_cells == subset_table_cells(2, 9) == 4 * 10
    assert ev.pair_cells == (9 - 2 + 1) * inst.n * inst.k
