"""Per-layer spans and counters, wrapped around the library from outside.

Each wrapped function is replaced under the name by which its caller
looks it up (`decision.eval_length_bounded_seq`, not the definition in
`evaluator`), so the library itself is unchanged.  Layer boundaries get
spans: name, start, end, parent span and query id.  The field functions
run millions of times per run, so they get plain call counters instead.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from smallflow import decision, evaluator, extraction, flow, network
from smallflow.field import GF2Field

# (span name, module or class, attribute).  One name may cover several
# lookups of the same function, e.g. the scan as decision and extraction
# see it.
SPANS = [
    ("network.parse", network, "parse_paths_instance"),
    ("network.parse", network, "parse_dimacs_flow"),
    ("decision.decide_disjoint_paths", decision, "decide_disjoint_paths"),
    ("decision.min_cost_disjoint_paths", decision, "min_cost_disjoint_paths"),
    ("decision.min_cost_disjoint_paths", extraction,
     "min_cost_disjoint_paths"),
    ("evaluator.eval_length_bounded_seq", decision, "eval_length_bounded_seq"),
    ("evaluator.scan_min_cost_slice", decision, "scan_min_cost_slice"),
    ("evaluator.scan_min_cost_slice", extraction, "scan_min_cost_slice"),
    ("evaluator.perturbed_scan", extraction, "perturbed_scan"),
    ("extraction.find_disjoint_paths", flow, "find_disjoint_paths"),
    ("extraction.find_min_perturbed_cost", extraction,
     "find_min_perturbed_cost"),
    ("extraction.classify_edges", extraction, "classify_edges"),
    ("extraction.attempt", extraction, "_isolation_attempt"),
    ("extraction.attempt", extraction, "_deletion_attempt"),
    ("flow.min_cost_flow", flow, "min_cost_flow"),
    ("flow.build_gadget_network", flow, "build_gadget_network"),
]

COUNTERS = [
    ("field.mul", GF2Field, "mul"),
    ("field.vec_scalar_mul_w", evaluator, "vec_scalar_mul_w"),
    ("field.vec_reduce", evaluator, "vec_reduce"),
]

# Work sizes read off arguments or results: name -> (owner, attribute,
# amount(args, result)).  _check_budget receives the cell count of every
# table an engine is about to build.
TALLIES = [
    ("evaluator.table_cells", evaluator, "_check_budget",
     lambda args, result: args[0]),
    ("flow.gadget_edges", flow, "build_gadget_network",
     lambda args, result: result.instance.m),
]

# Per-layer metrics in BENCHMARK.json order: name -> unit.
METRICS = {
    "field.mul.calls": "count",
    "field.vec_scalar_mul_w.calls": "count",
    "field.vec_reduce.calls": "count",
    "network.parse.s": "s",
    "evaluator.eval_length_bounded_seq.calls": "count",
    "evaluator.eval_length_bounded_seq.self_s": "s",
    "evaluator.table_cells": "count",
    "evaluator.scan_min_cost_slice.calls": "count",
    "evaluator.scan_min_cost_slice.self_s": "s",
    "evaluator.perturbed_scan.calls": "count",
    "evaluator.perturbed_scan.self_s": "s",
    "decision.decide_disjoint_paths.self_s": "s",
    "decision.min_cost_disjoint_paths.self_s": "s",
    "extraction.classify_edges.calls": "count",
    "extraction.classify_edges.self_s": "s",
    "extraction.edge_tests": "count",
    "extraction.find_min_perturbed_cost.self_s": "s",
    "extraction.attempts": "count",
    "extraction.assembly_errors": "count",
    "flow.build_gadget_network.self_s": "s",
    "flow.gadget_edges": "count",
}

# A scan whose parent is one of these is a per-edge deletion test.
_EDGE_TEST_PARENTS = ("extraction.classify_edges", "extraction.attempt")
_SCANS = ("evaluator.perturbed_scan", "evaluator.scan_min_cost_slice")


class Tracer:
    """Installs the wrappers, records spans and counts, and undoes it."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, qid, error]
        self.qid = None      # the query now running; set by the caller
        self.tallies = defaultdict(int)
        self.missing = []    # targets this version of the library lacks
        self._stack = []
        self._counts = {}
        self._undo = []

    def install(self):
        for name, owner, attr, amount in TALLIES:
            self._patch(owner, attr, lambda fn, n=name, a=amount:
                        self._tallied(n, fn, a))
        for name, owner, attr in SPANS:
            self._patch(owner, attr, lambda fn, n=name: self._spanned(n, fn))
        for name, owner, attr in COUNTERS:
            self._patch(owner, attr, lambda fn, n=name: self._counted(n, fn))
        if self.missing:
            print("tracing: not found, reported as 0: "
                  + ", ".join(self.missing), file=sys.stderr)

    def restore(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _patch(self, owner, attr, make):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None,
                   self.qid, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
                rec[2] = clock()
        return traced

    def _counted(self, name, fn):
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return fn(*args)
        self._counts[name] = lambda: calls
        return counted

    def _tallied(self, name, fn, amount):
        tallies = self.tallies

        def tallied(*args, **kwargs):
            result = fn(*args, **kwargs)
            tallies[name] += amount(args, result)
            return result
        return tallied

    def count(self, name):
        read = self._counts.get(name)
        return read() if read else 0

    def metrics(self):
        """Per-layer metrics: calls and self time per span name, counts."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _qid, _err in self.spans:
            if parent is not None:
                child[parent] += end - start
        edge_tests = attempts = assembly_errors = 0
        for i, (name, start, end, parent, _qid, err) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
            if name in _SCANS and parent is not None and \
                    self.spans[parent][0] in _EDGE_TEST_PARENTS:
                edge_tests += 1
            if name == "extraction.attempt":
                attempts += 1
                assembly_errors += err == "AssemblyError"
        out = {
            "field.mul.calls": self.count("field.mul"),
            "field.vec_scalar_mul_w.calls":
                self.count("field.vec_scalar_mul_w"),
            "field.vec_reduce.calls": self.count("field.vec_reduce"),
            "network.parse.s": total["network.parse"],
            "evaluator.table_cells": self.tallies["evaluator.table_cells"],
            "extraction.edge_tests": edge_tests,
            "extraction.attempts": attempts,
            "extraction.assembly_errors": assembly_errors,
            "flow.gadget_edges": self.tallies["flow.gadget_edges"],
        }
        for metric in METRICS:
            if metric in out:
                continue
            name, _, kind = metric.rpartition(".")
            out[metric] = calls[name] if kind == "calls" else self_s[name]
        return {name: out[name] for name in METRICS}

    def write(self, path):
        """Spans as JSON lines, preceded by a line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent",
                                            "qid", "error"],
                                 "counts": {n: self.count(n)
                                            for n in self._counts}}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
