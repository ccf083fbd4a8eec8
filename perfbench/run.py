"""smallflow benchmark: seeded query batches through the public queries.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md): `decide` runs decide_disjoint_paths,
`mincost` runs min_cost_disjoint_paths, `flow` runs min_cost_flow, each
with the defaults a CLI user gets.  The batch is fixed by the workload,
the seed and --seconds (whole rounds, about --seconds of work on the
reference host); every query in it runs to its end.  Afterwards every
answer is checked against smallflow.oracle and the checks in checks.py.

--trace 0 prints the end-to-end metrics; --trace 1 wraps each layer from
outside (tracing.py) and prints the per-layer metrics instead.  Every time
is scaled to the reference host speed (see host_loop_ms), because this
kind of shared host drifts by up to a third in speed between minutes.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  A result file with the run's seed, usable cores, Python
version and git sha goes to --results-dir; a traced run also writes its
spans there.  The exit code is 0 only when no query failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
SEED_DEFAULT = 1
# Fixed reference for host_loop_ms(): near its time on the reference host
# (2 cores, Python 3.11) in a fast phase.
HOST_LOOP_REF_MS = 3.5

END_TO_END_UNITS = {
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def load_library():
    """Import smallflow from this checkout's src/, and nowhere else."""
    if not (SRC / "smallflow" / "__init__.py").is_file():
        sys.exit(f"benchmark: no smallflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import smallflow
    if Path(smallflow.__file__).resolve().parent != SRC / "smallflow":
        sys.exit(f"benchmark: imported smallflow from {smallflow.__file__}, "
                 f"not from {SRC}")


def git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def time_setup(kind, texts):
    """Seconds from starting a fresh interpreter until it has imported
    smallflow and parsed the batch, ready for its first query."""
    data = json.dumps([kind, texts]).encode()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        proc.stdin.write(data)
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.wait(timeout=60)
    if proc.returncode or not line.startswith(b"ready"):
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed


def host_loop_ms():
    """A fixed pure-Python loop that touches no smallflow code.  Timed
    before every round (and every set-up probe), its median over a run
    reads the host's speed during that run; every reported time is scaled
    by HOST_LOOP_REF_MS / that median, so that a change in the host's speed
    does not read as a change in the program."""
    start = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i
    return (time.perf_counter() - start) * 1000


class GadgetRecorder:
    """Keeps the gadget network and disjoint path set of the flow query
    in progress, so the check can test the paths the flow came from."""

    def __init__(self, flow_mod):
        self.flow = flow_mod
        self.gadget = self.paths = None
        self._build = flow_mod.build_gadget_network
        self._find = flow_mod.find_disjoint_paths

    def install(self):
        def build(*args, **kwargs):
            self.gadget = self._build(*args, **kwargs)
            return self.gadget

        def find(*args, **kwargs):
            self.paths = self._find(*args, **kwargs)
            return self.paths
        self.flow.build_gadget_network = build
        self.flow.find_disjoint_paths = find

    def reset(self):
        self.gadget = self.paths = None

    def restore(self):
        self.flow.build_gadget_network = self._build
        self.flow.find_disjoint_paths = self._find


def run(args):
    from smallflow import GF2Field, decision, flow as flow_mod, network, oracle
    from smallflow.decision import TestParams, default_repetitions

    import checks
    import tracing
    from workloads import make_batch

    workload = args.workload
    batch = make_batch(workload, args.seed, args.seconds, quick=args.quick)
    kind = "flow" if workload == "flow" else "paths"
    setup, setup_host_ms = [], []
    for _ in range(0 if args.trace else SETUP_PROBES):
        setup_host_ms.append(host_loop_ms())
        setup.append(time_setup(kind, [q.text for q in batch]))

    recorder = GadgetRecorder(flow_mod) if workload == "flow" else None
    tracer = tracing.Tracer() if args.trace else None
    if recorder:
        recorder.install()
    if tracer:
        tracer.install()

    parse = network.parse_dimacs_flow if kind == "flow" \
        else network.parse_paths_instance
    instances = [parse(q.text) for q in batch]
    field = GF2Field(64)
    params = [TestParams(field=field, repetitions=default_repetitions(inst.n),
                         seed=q.seed) for q, inst in zip(batch, instances)]
    query = {
        "decide": lambda q, inst, p: decision.decide_disjoint_paths(
            inst, q.bound, p),
        "mincost": lambda q, inst, p: decision.min_cost_disjoint_paths(
            inst, p),
        "flow": lambda q, inst, p: flow_mod.min_cost_flow(
            inst, p, max_retries=3, r=None),
    }[workload]

    answers, seconds, captured, host_ms = [], [], [], []
    clock = time.perf_counter
    for q, inst, p in zip(batch, instances, params):
        if q.qid == 0 or q.round != batch[q.qid - 1].round:
            host_ms.append(host_loop_ms())
        if tracer:
            tracer.qid = q.qid
        if recorder:
            recorder.reset()
        start = clock()
        try:
            answer = query(q, inst, p)
        except Exception as exc:  # a failed query is counted, not fatal
            answer = exc
        seconds.append(clock() - start)
        answers.append(answer)
        if recorder:
            captured.append((recorder.gadget, recorder.paths))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.restore()
    if recorder:
        recorder.restore()

    problems = []
    wrong = 0
    for i, (q, inst, answer) in enumerate(zip(batch, instances, answers)):
        if isinstance(answer, Exception):
            problems.append(f"query {q.qid} ({q.shape}) raised "
                            f"{type(answer).__name__}: {answer}")
            continue
        if workload == "decide":
            problem = checks.check_decide(
                q.bound, answer, oracle.disjoint_paths_min_cost_via_flow(inst))
        elif workload == "mincost":
            problem = checks.check_mincost(
                answer, oracle.disjoint_paths_min_cost_via_flow(inst))
        else:
            problem = checks.check_flow(inst, answer,
                                        oracle.classic_min_cost_flow(inst))
            gadget, paths = captured[i]
            if not problem and answer is not None and paths is not None:
                problem = checks.check_gadget_paths(gadget, paths, answer[0])
        if problem:
            wrong += 1
            problems.append(f"query {q.qid} ({q.shape}) wrong: {problem}")
    for line in problems[:20]:
        print(line, file=sys.stderr)

    # Host slowdown against the reference: > 1 while the host runs slow.
    slowdown = statistics.median(host_ms) / HOST_LOOP_REF_MS
    if tracer:
        raw = tracer.metrics()
        units = tracing.METRICS
        values = {name: value / slowdown if units[name] == "s" else value
                  for name, value in raw.items()}
    else:
        raw = {
            "queries_per_s": len(seconds) / sum(seconds),
            "latency_p50_ms": statistics.median(seconds) * 1000,
            "latency_p90_ms": (statistics.quantiles(
                seconds, n=10, method="inclusive")[-1]
                if len(seconds) > 1 else seconds[0]) * 1000,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": peak_rss_mib,
        }
        setup_slowdown = statistics.median(setup_host_ms) / HOST_LOOP_REF_MS
        values = dict(raw,
                      queries_per_s=raw["queries_per_s"] * slowdown,
                      latency_p50_ms=raw["latency_p50_ms"] / slowdown,
                      latency_p90_ms=raw["latency_p90_ms"] / slowdown,
                      setup_s=raw["setup_s"] / setup_slowdown)
        units = END_TO_END_UNITS
    result = {
        "correct": wrong == 0,
        "attempted": len(batch),
        "failed": len(problems),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }

    stem = f"{workload}-seed{args.seed}-{'traced' if args.trace else 'plain'}"
    if args.quick:
        stem += "-quick"
    results_dir = Path(args.results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "trace": args.trace,
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "query_seconds": sum(seconds),
        "host_loop_ms": statistics.median(host_ms),
        "host_loop_ref_ms": HOST_LOOP_REF_MS,
        "unscaled_metrics": raw,
        "setup_samples_s": setup,
        "setup_host_loop_ms": setup_host_ms,
        "latencies_s": [[q.shape, t] for q, t in zip(batch, seconds)],
        **result,
    }
    (results_dir / f"{stem}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer:
        tracer.write(results_dir / f"{stem}.trace.jsonl")

    for name, metric in result["metrics"].items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']} "
              f"(unscaled {raw[name]:.6g})")
    print(f"{workload} host slowdown {slowdown:.4f} against the reference")
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("decide", "mincost", "flow"))
    ap.add_argument("--seed", type=int, default=SEED_DEFAULT)
    ap.add_argument("--seconds", type=float, default=30,
                    help="batch size, as seconds of work on the reference "
                         "host")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one tiny round, for the benchmark's own tests")
    ap.add_argument("--results-dir", default=str(HERE / "results"))
    args = ap.parse_args(argv)
    load_library()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
