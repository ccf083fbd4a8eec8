"""The benchmark's own tests:  python3 -m pytest perfbench -q

Quick mode runs one tiny round of every workload end to end, untraced and
traced; the checker tests show that each check rejects a wrong answer.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import compare
import tracing
from smallflow import (
    FlowInstance, GF2Field, PathInstance, TestParams, min_cost_flow, oracle,
)
from smallflow.decision import NONZERO, ZERO, Verdict
from smallflow.extraction import PathSet
from smallflow.flow import Flow
from workloads import WORKLOADS, make_batch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, results_dir, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--quick", "--results-dir", str(results_dir)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_end_to_end(workload, trace, tmp_path):
    out = run_bench(workload, trace, tmp_path)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads(next(tmp_path.glob("*.json")).read_text())
    for key in ("seed", "usable_cores", "python", "git_sha"):
        assert key in record
    assert any(tmp_path.glob("*.trace.jsonl")) == bool(trace)


def test_traced_counts_repeat(tmp_path):
    runs = []
    for i in range(2):
        out = run_bench("flow", 1, tmp_path / str(i))
        assert out.returncode == 0, out.stderr
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["extraction.edge_tests"] > 0


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = run_bench("decide", 0, tmp_path / "results", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_batches_are_seeded_and_distinct():
    for workload in WORKLOADS:
        a = make_batch(workload, 5, 2)
        assert a == make_batch(workload, 5, 2)
        assert a != make_batch(workload, 6, 2)
        keys = [(q.text, q.bound) for q in a]
        assert len(set(keys)) == len(keys)


def test_decide_checker_rejects_nonzero_on_infeasible():
    assert checks.check_decide(5, Verdict(NONZERO), None) is not None
    assert checks.check_decide(5, Verdict(NONZERO), 6) is not None
    assert checks.check_decide(5, Verdict(ZERO), 5) is not None
    assert checks.check_decide(5, Verdict(NONZERO), 5) is None
    assert checks.check_decide(5, Verdict(ZERO), None) is None


def test_mincost_checker_rejects_cost_off_by_one():
    assert checks.check_mincost(7, 6) is not None
    assert checks.check_mincost(None, 6) is not None
    assert checks.check_mincost(6, None) is not None
    assert checks.check_mincost(6, 6) is None


@pytest.fixture
def solved_flow():
    # Two routes 0-1-3 and 0-2-3; value 2 needs both.
    K = FlowInstance(4, [(0, 1, 1, 1), (1, 3, 1, 2), (0, 2, 2, 3),
                         (2, 3, 2, 1)], source=0, sink=3, target_value=2)
    result = min_cost_flow(K, TestParams(field=GF2Field(64), seed=1))
    reference = oracle.classic_min_cost_flow(K)
    assert checks.check_flow(K, result, reference) is None
    return K, result, reference


def test_flow_checker_rejects_cost_off_by_one(solved_flow):
    K, (cost, flow), reference = solved_flow
    assert checks.check_flow(K, (cost + 1, flow), reference) is not None
    assert checks.check_flow(K, None, reference) is not None


def test_flow_checker_rejects_broken_conservation(solved_flow):
    K, (cost, flow), reference = solved_flow
    amounts = list(flow.amounts)
    amounts[1] = 0   # unit enters vertex 1 and never leaves
    broken = Flow(amounts=amounts, value=2, cost=cost)
    assert "conservation" in checks.check_flow(K, (cost, broken), reference)


def test_flow_checker_rejects_broken_capacity():
    K = FlowInstance(4, [(0, 1, 1, 1), (1, 3, 1, 2), (0, 2, 1, 3),
                         (2, 3, 1, 1)], source=0, sink=3, target_value=2)
    over = Flow(amounts=[0, 0, 2, 2], value=2, cost=8)
    assert "outside" in checks.check_flow(K, (8, over), (8, None))


def test_flow_checker_rejects_misdeclared_cost(solved_flow):
    K, (cost, flow), reference = solved_flow
    lying = Flow(amounts=flow.amounts, value=2, cost=cost + 1)
    assert checks.check_flow(K, (cost, lying), reference) is not None


def test_path_checker_rejects_shared_vertex():
    inst = PathInstance(5, [(0, 2), (1, 2), (2, 3), (2, 4)], [0, 1], [3, 4])
    shared = PathSet(paths=((0, 2, 3), (1, 2, 4)),
                     edge_ids=((0, 2), (1, 3)), total_cost=4)
    assert "vertex 2" in checks.check_path_set(inst, shared)
    inst2 = PathInstance(4, [(0, 2), (1, 3)], [0, 1], [2, 3])
    good = PathSet(paths=((0, 2), (1, 3)), edge_ids=((0,), (1,)),
                   total_cost=2)
    assert checks.check_path_set(inst2, good) is None
    mispriced = PathSet(paths=good.paths, edge_ids=good.edge_ids,
                        total_cost=3)
    assert checks.check_path_set(inst2, mispriced) is not None


def test_tracer_restores_the_library():
    from smallflow import decision, evaluator, extraction
    before = (decision.eval_length_bounded_seq, GF2Field.mul,
              evaluator.vec_reduce, extraction.perturbed_scan)
    tracer = tracing.Tracer()
    tracer.install()
    assert decision.eval_length_bounded_seq is not before[0]
    tracer.restore()
    assert (decision.eval_length_bounded_seq, GF2Field.mul,
            evaluator.vec_reduce, extraction.perturbed_scan) == before
    assert not tracer.missing


def test_compare_prints_both_sets(tmp_path):
    for name in ("a", "b"):
        assert run_bench("mincost", 0, tmp_path / name).returncode == 0
    text = compare.compare(compare.load(str(tmp_path / "a")),
                           compare.load(str(tmp_path / "b")))
    assert "mincost (untraced)" in text
    assert "queries_per_s" in text and "setup_s" in text
