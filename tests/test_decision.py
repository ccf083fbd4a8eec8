import random

import pytest

from smallflow import (
    GF2Field,
    PathInstance,
    TestParams,
    decide_cost_bounded,
    decide_disjoint_paths,
    default_repetitions,
    min_cost_disjoint_paths,
    random_paths_instance,
)
from smallflow import oracle


def params64(seed=0, reps=3):
    return TestParams(field=GF2Field(64), repetitions=reps, seed=seed)


def test_single_edge_nonzero(single_edge):
    v = decide_disjoint_paths(single_edge, 1, params64())
    assert v.nonzero
    assert v.witness_assignment is not None


def test_bottleneck_zero(bottleneck):
    v = decide_disjoint_paths(bottleneck, 4, params64())
    assert not v.nonzero
    assert v.witness_assignment is None


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
        verdict = decide_disjoint_paths(inst, l, params64(seed=rng.random()))
        if not feasible:
            assert not verdict.nonzero  # exact: the polynomial is zero
        else:
            assert verdict.nonzero  # GF(2^64) false zero: < 1e-15


def test_amplification_monotone(bipartite22):
    for seed in range(20):
        small = decide_disjoint_paths(bipartite22, 2, params64(seed, reps=2))
        big = decide_disjoint_paths(bipartite22, 2, params64(seed, reps=3))
        if small.nonzero:
            assert big.nonzero
            assert big.witness_assignment == small.witness_assignment


def test_seed_determinism(bipartite22):
    a = decide_disjoint_paths(bipartite22, 2, params64(7))
    b = decide_disjoint_paths(bipartite22, 2, params64(7))
    assert a == b
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
        inst = random_paths_instance(random.Random(1), 90, 3, extra_edges=10)
        decide_disjoint_paths(inst, 3 * 89, small)
    with pytest.raises(ValueError, match="outside"):
        decide_disjoint_paths(single_edge, 9, params64())
    with pytest.raises(ValueError, match=">= 1"):
        decide_cost_bounded(single_edge, 0, params64())
    assert default_repetitions(4) == 3
    assert default_repetitions(1000) == 10


def test_degree_checked_after_capping():
    # C n^2 = 400 and u = 300 exceed GF(2^8), but the scan stops at the
    # simple-set cost cap, so the field only has to exceed that degree
    inst = random_paths_instance(random.Random(5), 20, 2, extra_edges=40)
    assert inst.simple_cost_cap() < 256
    small = TestParams(field=GF2Field(8), repetitions=3, seed=4)
    want = oracle.disjoint_paths_min_cost_via_flow(inst)
    assert min_cost_disjoint_paths(inst, small) == want
    assert decide_cost_bounded(inst, 300, small).nonzero


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
