"""Median time per call of the GF(2^64) packed-vector kernels, and of
one table evaluation by each row route.

    python3 tools/kernel_timing.py

Times field.vec_window, field.vec_scalar_mul_w, GF2Field.reduce and
field.vec_reduce on seeded random inputs at 1, 2, 4 and 8 slots, the
inputs the engines give them: reduced elements for the window and the
scalar, one slot's product for reduce, and a packed product for
vec_reduce.  reduce folds one element, so it is timed once.  Each of
the REPEATS repeats times one pass over every kernel's inputs, so a
drift in the host's speed reaches every kernel alike; the median over
the repeats is printed in ns per call, with the cost of an empty call through the same
loop (`call`) for reference.

Then one serial TablePlan(...).slices, plan build included, is timed by
each row route of evaluator._rows, the packed pass over all rows and one
per-row pass per row, with the route forced through evaluator._packs: on
criterion 7's instance (random_paths_instance(random.Random(71), 64, 4,
extra_edges=256) at l = 252) and on two of decide's benchmark shapes
(perfbench's layered_paths, at l one below its optimum): k = 4, width 6,
depth 8, which evaluator._packs packs, and k = 2, width 4, depth 6,
which it leaves per row.  The routes alternate, and each one's median over
ROUTE_REPEATS evaluations is printed in ms beside the plan's mean fan
width (out-edges per vertex that has any, from TablePlan.fans) and the
route that evaluator._packs picks, so the crossover can be measured
again on another host.  The last line is both tables as one JSON object.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from smallflow import (  # noqa: E402
    TablePlan,
    evaluator,
    oracle,
    random_assignment,
    random_paths_instance,
)
from smallflow.field import (  # noqa: E402
    SLOT_BITS,
    GF2Field,
    vec_reduce,
    vec_scalar_mul_w,
    vec_window,
)

SLOTS = (1, 2, 4, 8)
INPUTS = 2000
REPEATS = 31
ROUTE_REPEATS = {"criterion 7": 5, "decide k=4": 31, "decide k=2": 31}


def _pass_ns(fn, args):
    clock = time.perf_counter_ns
    start = clock()
    for a in args:
        fn(*a)
    return (clock() - start) / len(args)


def _nothing(*_):
    return None


def measure() -> dict:
    field = GF2Field(64)
    rng = random.Random(1)
    cases = []  # (slot count, kernel name, function, argument tuples)
    for count in SLOTS:
        packed = [sum(field.random_element(rng) << (SLOT_BITS * i)
                      for i in range(count)) for _ in range(INPUTS)]
        windows = [vec_window(p) for p in packed]
        scalars = [field.random_element(rng) for _ in range(INPUTS)]
        products = [vec_scalar_mul_w(w, a) for w, a in zip(windows, scalars)]
        cases += [
            (count, "call", _nothing, [(p,) for p in packed]),
            (count, "vec_window", vec_window, [(p,) for p in packed]),
            (count, "vec_scalar_mul_w", vec_scalar_mul_w,
             list(zip(windows, scalars))),
            (count, "vec_reduce", vec_reduce,
             [(p, count, field) for p in products]),
        ]
        if count == 1:
            cases.append((count, "reduce", field.reduce,
                          [(p,) for p in products]))
    samples = {(count, name): [] for count, name, _, _ in cases}
    for _ in range(REPEATS):
        for count, name, fn, args in cases:
            samples[count, name].append(_pass_ns(fn, args))
    table = {count: {} for count in SLOTS}
    for (count, name), ns in samples.items():
        table[count][name] = statistics.median(ns)
    return table


def route_cases() -> dict:
    """name -> (instance, length bound) of the route timings."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import layered_paths
    from smallflow.network import parse_paths_instance
    cases = {"criterion 7": (random_paths_instance(
        random.Random(71), 64, 4, extra_edges=256), 4 * 63)}
    for name, shape in (("decide k=4", (4, 6, 8, 2, 8)),
                        ("decide k=2", (2, 4, 6, 2, 4))):
        inst = parse_paths_instance(layered_paths(random.Random(1), *shape))
        cases[name] = inst, oracle.disjoint_paths_min_cost_via_flow(inst) - 1
    return cases


def measure_routes() -> dict:
    field = GF2Field(64)
    rule = evaluator._packs
    table = {}
    try:
        for name, (inst, l) in route_cases().items():
            plan = TablePlan(inst, l)
            widths = [len(out) for out in plan.fans if out]
            f = random_assignment(field, inst.m, random.Random(72))
            ms = {"packed": [], "per-row": []}
            for i in range(ROUTE_REPEATS[name]):
                for route in sorted(ms, reverse=i % 2 == 1):
                    evaluator._packs = \
                        lambda k, widths, packs=route == "packed": packs
                    start = time.perf_counter()
                    TablePlan(inst, l).slices(f, field)
                    ms[route].append((time.perf_counter() - start) * 1e3)
            evaluator._packs = rule
            table[name] = {route: statistics.median(t)
                           for route, t in ms.items()}
            table[name].update(mean_fan=sum(widths) / len(widths),
                               rule="packed" if plan.packs else "per-row")
    finally:
        evaluator._packs = rule
    return table


def main():
    table = measure()
    names = ("call", "vec_window", "vec_scalar_mul_w", "reduce",
             "vec_reduce")
    labels = [f"{c} slot" + ("s" if c > 1 else "") for c in SLOTS]
    print(f"{'ns per call':<18}" + "".join(f"{x:>15}" for x in labels))
    for name in names:
        cells = [table[c].get(name) for c in SLOTS]
        print(f"{name:<18}" + "".join(
            f"{'-' if v is None else f'{v:.0f}':>15}" for v in cells))
    routes = measure_routes()
    print(f"\n{'ms per slices':<18}{'mean fan':>10}{'per-row':>10}"
          f"{'packed':>10}{'rule':>10}")
    for name, row in routes.items():
        print(f"{name:<18}{row['mean_fan']:>10.2f}{row['per-row']:>10.2f}"
              f"{row['packed']:>10.2f}{row['rule']:>10}")
    print(json.dumps({"unit": "ns per call, median", "repeats": REPEATS,
                      "slots": {str(c): table[c] for c in SLOTS},
                      "routes": {"unit": "ms per TablePlan.slices, median",
                                 "repeats": ROUTE_REPEATS, **routes}}))


if __name__ == "__main__":
    main()
