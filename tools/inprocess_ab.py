"""In-process A/B timing of two checkouts on one perfbench batch.

    python3 tools/inprocess_ab.py PARENT CHANGE --workload decide --seed 1

PARENT and CHANGE are checkout directories.  Each one's src/smallflow is
copied into a temporary directory under its own package name, so both
load into this one interpreter.  The batch comes from this checkout's
perfbench/workloads.py, imported read-only, and every query runs with
GF(2^64), each side's default repetition count, the query's own seed and
max_retries=3 for `flow`.  On every batch query the library's default
equals the count perfbench/run.py passes, which it takes from the
instance's n: at a flow network's n and its gadget's alike, t = 2.  A
checkout from before TestParams resolved the count defaults to t = 3,
so against one the sides do different work, and the ratio measures
that, not the code.
Each side parses the query's text with its own parser, untimed, and the
query call alone is timed.  The sides alternate query by query in ABBA
order (A first on even queries, B first on odd), so a drift in the
host's speed falls on both alike.

One line is printed per round of the batch, with each side's seconds
and the ratio A/B (above 1: CHANGE is faster), then the median ratio
over the rounds with its range, and whether every answer agreed.

The tool sizes a lead; it does not make a claim.  Across processes a
shared host's speed can drift by 1.5-2x.  On a 2-core host, a checkout
against itself read median ratios of 1.002-1.005 over the rounds of
each 30-s batch, though single rounds ranged from 0.88 to 1.11.  Claims
come from perfbench pairs.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, make_batch  # noqa: E402


def load(checkout: Path, name: str, into: str):
    """checkout's smallflow package, copied into the directory into (on
    sys.path) as package name and imported."""
    shutil.copytree(checkout / "src" / "smallflow", Path(into) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def runner(pkg, workload):
    """f(query) -> (answer, seconds): one query on pkg, the call timed."""
    decision, field = pkg.decision, pkg.GF2Field(64)
    parse = pkg.network.parse_dimacs_flow if workload == "flow" \
        else pkg.network.parse_paths_instance
    call = {
        "decide": lambda q, inst, p: decision.decide_disjoint_paths(
            inst, q.bound, p),
        "mincost": lambda q, inst, p: decision.min_cost_disjoint_paths(
            inst, p),
        "flow": lambda q, inst, p: pkg.flow.min_cost_flow(
            inst, p, max_retries=3),
    }[workload]

    def run(q):
        inst = parse(q.text)
        params = decision.TestParams(field=field, seed=q.seed)
        start = time.perf_counter()
        answer = call(q, inst, params)
        return answer, time.perf_counter() - start
    return run


def compare(a: Path, b: Path, workload: str, seed: int, seconds: float):
    """Yield the report's lines for checkouts a and b."""
    batch = make_batch(workload, seed, seconds)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            sides = [runner(load(a, "smallflow_a", tmp), workload),
                     runner(load(b, "smallflow_b", tmp), workload)]
        finally:
            sys.path.remove(tmp)
        for side in sides:  # first-call costs, untimed
            side(batch[0])
        rounds = {}
        differ = 0
        for q in batch:
            order = (0, 1) if q.qid % 2 == 0 else (1, 0)
            got = [None, None]
            spent = rounds.setdefault(q.round, [0.0, 0.0])
            for side in order:
                got[side], s = sides[side](q)
                spent[side] += s
            differ += got[0] != got[1]
    ratios = []
    for r, (sa, sb) in sorted(rounds.items()):
        ratios.append(sa / sb)
        yield f"round {r:>3}  A {sa:.4f} s  B {sb:.4f} s  A/B {sa / sb:.4f}"
    yield (f"median A/B {statistics.median(ratios):.4f}  range "
           f"{min(ratios):.4f}-{max(ratios):.4f}  over {len(ratios)} rounds")
    yield ("answers agree" if not differ else
           f"answers differ on {differ} of {len(batch)} queries")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a", type=Path, help="the parent checkout (A)")
    ap.add_argument("b", type=Path, help="the changed checkout (B)")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args(argv)
    for line in compare(args.a.resolve(), args.b.resolve(), args.workload,
                        args.seed, args.seconds):
        print(line, flush=True)


if __name__ == "__main__":
    main()
