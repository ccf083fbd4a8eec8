"""Compare two sets of benchmark result files.

    python3 perfbench/compare.py RESULTS_A RESULTS_B

Each argument is a directory of result files (as run.py --results-dir
writes them) or a quoted glob.  For every workload and trace mode present,
prints each metric's median and quartiles in both sets, the run counts,
and the change of the median from A to B.
"""

from __future__ import annotations

import argparse
import glob
import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(spec):
    """(workload, trace) -> list of result records."""
    path = Path(spec)
    files = sorted(path.glob("*.json")) if path.is_dir() \
        else sorted(Path(p) for p in glob.glob(spec))
    runs = defaultdict(list)
    for f in files:
        rec = json.loads(f.read_text(encoding="utf-8"))
        if "workload" in rec and "metrics" in rec:
            runs[(rec["workload"], rec["trace"])].append(rec)
    return runs


def summary(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def fmt(stats):
    med, q1, q3 = stats
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(a, b):
    lines = []
    for key in sorted(set(a) | set(b)):
        workload, trace = key
        runs_a, runs_b = a.get(key, []), b.get(key, [])
        lines.append(f"{workload} ({'traced' if trace else 'untraced'}): "
                     f"A {len(runs_a)} runs, B {len(runs_b)} runs; "
                     f"median [q1, q3]")
        host = [summary([r["host_loop_ms"] for r in runs if "host_loop_ms" in r]
                        or [float("nan")]) for runs in (runs_a, runs_b)]
        lines.append(f"  {'host loop (not a metric)':42s} {'ms':6s} "
                     f"A {fmt(host[0]):32s} B {fmt(host[1]):32s}")
        names = dict.fromkeys(n for r in runs_a + runs_b for n in r["metrics"])
        for name in names:
            va = [r["metrics"][name]["value"] for r in runs_a
                  if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in runs_b
                  if name in r["metrics"]]
            unit = (runs_a + runs_b)[0]["metrics"][name]["unit"]
            sa = summary(va) if va else None
            sb = summary(vb) if vb else None
            change = ""
            if sa and sb and sa[0]:
                change = f"{(sb[0] - sa[0]) / sa[0]:+.1%}"
            lines.append(f"  {name:42s} {unit:6s} "
                         f"A {fmt(sa) if sa else '-':32s} "
                         f"B {fmt(sb) if sb else '-':32s} {change}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="directory or glob of result files (base)")
    ap.add_argument("b", help="directory or glob of result files (change)")
    args = ap.parse_args(argv)
    print(compare(load(args.a), load(args.b)))


if __name__ == "__main__":
    main()
