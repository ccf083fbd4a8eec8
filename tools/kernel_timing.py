"""Median time per call of the GF(2^64) packed-vector kernels.

    python3 tools/kernel_timing.py

Times field.vec_window, field.vec_scalar_mul_w, GF2Field.reduce and
field.vec_reduce on seeded random inputs at 1, 2, 4 and 8 slots, the
inputs the engines give them: reduced elements for the window and the
scalar, one slot's product for reduce, and a packed product for
vec_reduce.  reduce folds one element, so it is timed once.  Each of
the REPEATS repeats times one pass over every kernel's inputs, so a
drift in the host's speed reaches every kernel alike; the median over
the repeats is printed in ns per call, with the cost of an empty call through the same
loop (`call`) for reference.  The last line is the same table as one
JSON object.
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
    print(json.dumps({"unit": "ns per call, median", "repeats": REPEATS,
                      "slots": {str(c): table[c] for c in SLOTS}}))


if __name__ == "__main__":
    main()
