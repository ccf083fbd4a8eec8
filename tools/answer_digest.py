"""Digests of the answers smallflow gives on perfbench's query batches.

    python3 tools/answer_digest.py --seed 1 --seconds 10

Two checkouts that print the same digests give the same answers on the
batch.  The batches come from perfbench/workloads.py, imported read-only,
and every query runs with GF(2^64), the library's default repetition
count, the query's own seed and max_retries=3.  On every batch query
that default equals the count perfbench/run.py passes, which it takes
from the instance's n: at a flow network's n and its gadget's alike,
t = 2.
One line is printed per digest:

* `decide`: the answer, degree and witness assignment of each verdict
  decide_disjoint_paths returns at the query's length bound;
* `mincost`: the costs min_cost_disjoint_paths returns;
* `flow`: the costs and amounts min_cost_flow returns, and the disjoint
  path set (deletion strategy) it reads each flow from;
* `flowcost`: the costs alone of the `flow` line's answers (None for an
  infeasible network), with that line's seconds and states.  A change
  that may pick another optimum flow or path set changes `flow`, but
  must keep `flowcost`;
* `isolation`: the path sets find_disjoint_paths returns with
  strategy="isolation" on the same `flow` gadgets, with the attempts
  made and the count of gadgets whose isolation cost differs from the
  deletion path set's (0 on working code: both are minimum costs, so a
  changed isolation digest is checked for optimality here);
* `support`: the (support, forced) edge ids evaluator.slice_support
  returns with every edge alive at d0, the cost of the deletion path
  set, on each `flow` gadget that has a flow;
* `table`: the slices TablePlan(inst, 252).slices(f, GF(2^64)) returns
  on the instance of tests/test_acceptance.py's criterion 7,
  random_paths_instance(random.Random(71), 64, 4, extra_edges=256),
  with f drawn from random.Random(72).  It hashes the list's repr, and
  depends on no seed.

Each batch line also gives the query count, the seconds spent in the
queries (wall time on the machine that runs it, not scaled like
perfbench's), the slice scans they ran (calls of scan_min_cost_slice
through decision and extraction, on the lines whose queries scan), and
the scan states and moves that the queries' ScanGraphs materialized
(the states whose moves a scan or support pass read, and those moves).
The counts are deterministic for a seed, so they measure the scans'
work without timing it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from smallflow import GF2Field, decision, evaluator, extraction, flow  # noqa: E402
from smallflow.network import (  # noqa: E402
    parse_dimacs_flow,
    parse_paths_instance,
    random_paths_instance,
)
from workloads import make_batch  # noqa: E402


_GRAPHS = []  # the ScanGraphs built since the last _tally()
_SCANS = [0]  # scan_min_cost_slice calls since the last _tally()


class _RecordedGraph(evaluator.ScanGraph):
    """A ScanGraph that records itself in _GRAPHS, swapped in for
    ScanGraph in the modules that build one (main)."""

    def __init__(self, *args):
        super().__init__(*args)
        _GRAPHS.append(self)


def _counted_scan(*args, **kwargs):
    """scan_min_cost_slice, counted in _SCANS, swapped in for it in the
    modules that call it (main)."""
    _SCANS[0] += 1
    return evaluator.scan_min_cost_slice(*args, **kwargs)


def _tally(work):
    """Add to work, [states, moves, scans], what the ScanGraphs built
    since the last call materialized and the scans run since then, and
    drop those graphs."""
    for g in _GRAPHS:
        work[0] += len(g)
        work[1] += sum(map(len, g.values()))
    _GRAPHS.clear()
    work[2] += _SCANS[0]
    _SCANS[0] = 0


def _params(query):
    return decision.TestParams(field=GF2Field(64), seed=query.seed)


def _paths(ps):
    return None if ps is None else [list(map(list, ps.edge_ids)),
                                    ps.total_cost]


def _line(name, answers, seconds, work, extra=""):
    blob = json.dumps(answers, separators=(",", ":")).encode()
    scans = f"  {work[2]} scans" if work[2] else ""
    return (f"{name:<9} {hashlib.sha256(blob).hexdigest()[:16]}  "
            f"{len(answers)} queries  {seconds:.2f} s{extra}{scans}  "
            f"{work[0]} states  {work[1]} moves")


def decide(seed, seconds):
    answers, spent, work = [], 0.0, [0, 0, 0]
    for q in make_batch("decide", seed, seconds):
        inst = parse_paths_instance(q.text)
        start = time.perf_counter()
        v = decision.decide_disjoint_paths(inst, q.bound, _params(q))
        spent += time.perf_counter() - start
        _tally(work)
        answers.append([v.answer, v.degree, v.witness_assignment])
    return _line("decide", answers, spent, work)


def mincost(seed, seconds):
    answers, spent, work = [], 0.0, [0, 0, 0]
    for q in make_batch("mincost", seed, seconds):
        inst = parse_paths_instance(q.text)
        start = time.perf_counter()
        answers.append(decision.min_cost_disjoint_paths(inst, _params(q)))
        spent += time.perf_counter() - start
        _tally(work)
    return _line("mincost", answers, spent, work)


def flows(seed, seconds):
    found = []
    find = flow.find_disjoint_paths

    def recording_find(*args, **kwargs):
        found.append(find(*args, **kwargs))
        return found[-1]

    answers, isolated, spent, isolation_s, attempts = [], [], 0.0, 0.0, 0
    differ = 0
    supports, support_s = [], 0.0
    flow_work, isolation_work, support_work = [0, 0, 0], [0, 0, 0], [0, 0, 0]
    for q in make_batch("flow", seed, seconds):
        inst = parse_dimacs_flow(q.text)
        params = _params(q)
        found.clear()
        flow.find_disjoint_paths = recording_find
        try:
            start = time.perf_counter()
            answer = flow.min_cost_flow(inst, params, max_retries=3)
            spent += time.perf_counter() - start
        finally:
            flow.find_disjoint_paths = find
        _tally(flow_work)
        answers.append(None if answer is None else
                       [answer[0], list(answer[1].amounts),
                        _paths(found[0])])
        gadget = flow.build_gadget_network(inst)
        if answer is not None:
            g = gadget.instance
            start = time.perf_counter()
            masks = evaluator.slice_support(
                _RecordedGraph(g, g.cost_list()), [True] * g.m,
                found[0].total_cost)
            support_s += time.perf_counter() - start
            _tally(support_work)
            supports.append([[e for e, on in enumerate(mask) if on]
                             for mask in masks])
        report = {}
        start = time.perf_counter()
        ps = extraction.find_disjoint_paths(
            gadget.instance, params, max_retries=3, strategy="isolation",
            report=report)
        isolation_s += time.perf_counter() - start
        _tally(isolation_work)
        attempts += report["attempts"]
        costs = [None if p is None else p.total_cost for p in (ps, found[0])]
        differ += costs[0] != costs[1]
        isolated.append(_paths(ps))
    flow_costs = [None if a is None else a[0] for a in answers]
    return (_line("flow", answers, spent, flow_work),
            _line("flowcost", flow_costs, spent, flow_work),
            _line("isolation", isolated, isolation_s, isolation_work,
                  f"  {attempts} attempts  {differ} costs differ from "
                  "deletion's"),
            _line("support", supports, support_s, support_work))


def table():
    inst = random_paths_instance(random.Random(71), 64, 4, extra_edges=256)
    field = GF2Field(64)
    f = evaluator.random_assignment(field, inst.m, random.Random(72))
    start = time.perf_counter()
    slices = evaluator.TablePlan(inst, 252).slices(f, field)
    spent = time.perf_counter() - start
    digest = hashlib.sha256(repr(slices).encode()).hexdigest()[:16]
    return f"{'table':<9} {digest}  1 evaluation  {spent:.2f} s"


def lines(seed, seconds):
    """The seven digest lines, in order, each as it is computed.  While it
    runs, the modules that build a ScanGraph build a _RecordedGraph, and
    those that scan call _counted_scan."""
    built = decision.ScanGraph, extraction.ScanGraph
    scans = decision.scan_min_cost_slice, extraction.scan_min_cost_slice
    decision.ScanGraph = extraction.ScanGraph = _RecordedGraph
    decision.scan_min_cost_slice = extraction.scan_min_cost_slice = \
        _counted_scan
    try:
        yield decide(seed, seconds)
        yield mincost(seed, seconds)
        yield from flows(seed, seconds)
        yield table()
    finally:
        decision.ScanGraph, extraction.ScanGraph = built
        decision.scan_min_cost_slice, extraction.scan_min_cost_slice = scans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args(argv)
    for line in lines(args.seed, args.seconds):
        print(line)


if __name__ == "__main__":
    main()
