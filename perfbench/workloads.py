"""Seeded query batches for the three workloads.

The benchmark builds its own instance texts here, from its own random
streams, so that a change to the library's generators cannot change what
is measured.  Every text is in the library's file formats and is parsed
by `smallflow.network` before the first query, as a CLI user's input is.

A batch is a whole number of rounds.  A round is a fixed list of query
shapes (sizes and bound positions); only the random graph inside each
shape depends on the seed, so every seed gives a batch of the same
make-up and the same order of cost.  No query repeats an earlier one in
the batch: a repeated text is drawn again from the next stream.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from smallflow import network, oracle

WORKLOADS = ("decide", "mincost", "flow")


@dataclass(frozen=True)
class Query:
    """One query: instance text in the library's format, its length bound
    (decide only) and the seed of its TestParams."""

    qid: int
    round: int
    shape: str
    text: str
    bound: int | None
    seed: int


# -- instance texts -----------------------------------------------------

def _paths_text(n, k, sources, sinks, edges, costs=None):
    lines = [f"q paths {n} {len(edges)} {k}"]
    lines += [f"x {v + 1}" for v in sources]
    lines += [f"y {v + 1}" for v in sinks]
    for i, (u, v) in enumerate(edges):
        lines.append(f"e {u + 1} {v + 1}" if costs is None
                     else f"e {u + 1} {v + 1} {costs[i]}")
    return "\n".join(lines) + "\n"


def _dimacs_text(n, s, t, k, arcs):
    lines = [f"p min {n} {len(arcs)}", f"n {s + 1} {k}", f"n {t + 1} {-k}"]
    lines += [f"a {u + 1} {v + 1} 0 {cap} {cost}" for u, v, cap, cost in arcs]
    return "\n".join(lines) + "\n"


def planted_paths(rng, n, k, extra, hop_max, cost_max=None):
    """k disjoint source-sink chains of 1..hop_max inner vertices, plus
    `extra` random edges between non-terminal tails and non-source heads."""
    order = list(range(n))
    rng.shuffle(order)
    sources, sinks, middle = order[:k], order[k:2 * k], order[2 * k:]
    edges = []
    pos = 0
    for i in range(k):
        hops = rng.randint(1, hop_max)
        chain = [sources[i]] + middle[pos:pos + hops] + [sinks[i]]
        pos += hops
        edges += list(zip(chain, chain[1:]))
    tails = sources + middle
    heads = middle + sinks
    for _ in range(extra):
        while True:
            u, v = rng.choice(tails), rng.choice(heads)
            if u != v:
                edges.append((u, v))
                break
    costs = None if cost_max is None else \
        [rng.randint(1, cost_max) for _ in edges]
    return _paths_text(n, k, sources, sinks, edges, costs)


def layered_paths(rng, k, width, depth, fanout, back, cost_max=None):
    """Unit-cost instance whose inner vertices sit in `depth` layers of
    `width`.  Edges run from each layer to the next (with `back` edges
    one layer back, so walks can cycle), k disjoint chains are planted,
    and one hub vertex offers a short cut that at most one path can use:
    below the optimum, walk sets exist but all collide at the hub."""
    n = 2 * k + width * depth + 1
    order = list(range(n))
    rng.shuffle(order)
    sources, sinks, hub = order[:k], order[k:2 * k], order[2 * k]
    layers = [order[2 * k + 1 + j * width:2 * k + 1 + (j + 1) * width]
              for j in range(depth)]
    edges = []
    for i in range(k):
        chain = [sources[i]] + [rng.choice(layer[i::k]) for layer in layers] \
            + [sinks[i]]
        edges += list(zip(chain, chain[1:]))
    steps = [sources] + layers + [sinks]
    for a, b in zip(steps, steps[1:]):
        for u in a:
            for _ in range(fanout):
                edges.append((u, rng.choice(b)))
    for _ in range(back):
        j = rng.randrange(1, depth)
        edges.append((rng.choice(layers[j]), rng.choice(layers[j - 1])))
    for x in sources:
        edges.append((x, hub))
    mid = layers[depth // 2]
    edges += [(hub, rng.choice(mid)) for _ in range(2)]
    rng.shuffle(edges)
    costs = None if cost_max is None else \
        [rng.randint(1, cost_max) for _ in edges]
    return _paths_text(n, k, sources, sinks, edges, costs)


def bottleneck_paths(rng, n, k, extra, cost_max):
    """Sources reach sinks only through one cut vertex, so no k >= 2
    disjoint paths exist, though many colliding walk sets do."""
    order = list(range(n))
    rng.shuffle(order)
    sources, sinks = order[:k], order[k:2 * k]
    cut, middle = order[2 * k], order[2 * k + 1:]
    half = len(middle) // 2
    left, right = middle[:half], middle[half:]
    edges = [(x, rng.choice(left + [cut])) for x in sources]
    edges += [(rng.choice(right + [cut]), y) for y in sinks]
    edges += [(rng.choice(left), cut), (cut, rng.choice(right))]
    for _ in range(extra):
        if rng.random() < 0.5:
            u, v = rng.choice(sources + left), rng.choice(left + [cut])
        else:
            u, v = rng.choice(right + [cut]), rng.choice(right + sinks)
        if u != v:
            edges.append((u, v))
    costs = [rng.randint(1, cost_max) for _ in edges]
    return _paths_text(n, k, sources, sinks, edges, costs)


def small_flow(rng, n, m, k, cap_max, cost_max, plant):
    """A capacitated network of the criterion-6 kind."""
    s, t = rng.sample(range(n), 2)
    arcs = []
    if plant and n > 2:
        routed = 0
        while routed < k and len(arcs) < m:
            mid = rng.choice([v for v in range(n) if v not in (s, t)])
            cap = rng.randint(1, cap_max)
            arcs.append((s, mid, cap, rng.randint(1, cost_max)))
            arcs.append((mid, t, cap, rng.randint(1, cost_max)))
            routed += cap
    while len(arcs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.append((u, v, rng.randint(1, cap_max),
                         rng.randint(1, cost_max)))
    return _dimacs_text(n, s, t, k, arcs[:m])


# -- rounds -------------------------------------------------------------

def _decide_slot(k, width, depth, fanout, back, position):
    """Unit-cost layered instance; l sits one below the optimum (ZERO,
    every repetition runs), at it, or 2k above it (both NONZERO)."""
    def make(rng):
        text = layered_paths(rng, k, width, depth, fanout, back)
        inst = network.parse_paths_instance(text)
        opt = oracle.disjoint_paths_min_cost_via_flow(inst)
        l = {"below": opt - 1, "at": opt, "above": opt + 2 * k}[position]
        return text, min(l, k * (inst.n - 1))
    return f"k{k}-w{width}-d{depth}-{position}", make


def _layered_slot(k, width, depth, fanout, back, cost_max):
    return (f"layered-k{k}-w{width}-d{depth}-c{cost_max}",
            lambda rng: (layered_paths(rng, k, width, depth, fanout, back,
                                       cost_max), None))


def _planted_slot(n, k, extra, hop_max, cost_max):
    return (f"planted-n{n}-k{k}-c{cost_max}",
            lambda rng: (planted_paths(rng, n, k, extra, hop_max, cost_max),
                         None))


def _bottleneck_slot(n, k, extra, cost_max):
    return (f"bottleneck-n{n}-k{k}-c{cost_max}",
            lambda rng: (bottleneck_paths(rng, n, k, extra, cost_max), None))


def _flow_slot(n, m, k, cap_max, plant):
    return (f"flow-n{n}-m{m}-k{k}-cap{cap_max}" + ("" if plant else "-free"),
            lambda rng: (small_flow(rng, n, m, k, cap_max, 4, plant), None))


_DECIDE_SHAPES = [(2, 4, 6, 2, 4), (3, 5, 6, 2, 6), (4, 5, 6, 2, 6),
                  (3, 4, 9, 2, 6), (2, 6, 5, 2, 6), (4, 6, 8, 2, 8)]

# Slots are repeated so that each reported percentile (p50, p90) falls
# inside a cluster of similar queries, not in a gap between two slots, and
# sized so that no query holds more than about a tenth of a run.
SLOTS = {
    "decide": [_decide_slot(*shape, position) for shape in _DECIDE_SHAPES
               for position in ("below", "at", "above")],
    "mincost": [
        _planted_slot(20, 2, 30, 5, 4),
        _planted_slot(28, 3, 40, 6, 4),
        _planted_slot(28, 3, 40, 6, 4),
        _layered_slot(2, 5, 5, 2, 6, 3),
        _layered_slot(2, 5, 5, 2, 6, 3),
        _layered_slot(2, 5, 5, 2, 6, 3),
        _layered_slot(2, 4, 5, 2, 4, 4),
        _layered_slot(2, 4, 5, 2, 4, 4),
        _layered_slot(2, 4, 5, 2, 4, 4),
        _layered_slot(3, 4, 6, 2, 6, 3),
        _layered_slot(3, 5, 7, 2, 6, 4),
        _layered_slot(3, 5, 7, 2, 6, 4),
        _bottleneck_slot(16, 2, 40, 3),
        _bottleneck_slot(16, 3, 40, 3),
        _bottleneck_slot(20, 2, 60, 3),
    ],
    "flow": [
        _flow_slot(8, 14, 1, 3, True),
        _flow_slot(6, 9, 1, 3, True),
        _flow_slot(4, 5, 2, 1, True),
        _flow_slot(4, 5, 2, 1, True),
        _flow_slot(4, 5, 2, 1, True),
        _flow_slot(6, 9, 2, 2, True),
        _flow_slot(6, 9, 2, 2, True),
        _flow_slot(6, 9, 2, 2, True),
        _flow_slot(7, 10, 2, 2, True),
        _flow_slot(7, 10, 2, 2, True),
        _flow_slot(6, 10, 2, 3, True),
        _flow_slot(8, 12, 2, 3, True),
        _flow_slot(8, 12, 2, 3, True),
        _flow_slot(5, 8, 3, 1, True),
        _flow_slot(6, 9, 3, 1, True),
        _flow_slot(7, 10, 2, 2, False),
    ],
}

# Tiny rounds for the benchmark's own tests.
QUICK_SLOTS = {
    "decide": [_decide_slot(2, 2, 2, 1, 1, position)
               for position in ("below", "at", "above")],
    "mincost": [_layered_slot(2, 2, 2, 1, 1, 3),
                _bottleneck_slot(8, 2, 10, 2)],
    "flow": [_flow_slot(4, 5, 2, 2, True), _flow_slot(4, 5, 1, 2, False)],
}

# Seconds one round takes on the reference host (2 cores, Python 3.11).
# A run given `seconds` holds ceil(seconds / ROUND_SECONDS) rounds, so its
# batch is fixed by (workload, seed, seconds) and no clock cuts it off.
ROUND_SECONDS = {"decide": 0.85, "mincost": 1.85, "flow": 0.95}


def make_batch(workload: str, seed: int, seconds: float,
               quick: bool = False) -> list[Query]:
    """The run's queries, in order: whole rounds of the workload's slots."""
    slots = (QUICK_SLOTS if quick else SLOTS)[workload]
    rounds = 1 if quick else max(1, math.ceil(seconds
                                              / ROUND_SECONDS[workload]))
    seen = set()
    batch = []
    for r in range(rounds):
        for j, (shape, make) in enumerate(slots):
            for attempt in itertools.count():
                rng = random.Random(f"{workload}/{seed}/{r}/{j}/{attempt}")
                text, bound = make(rng)
                if (text, bound) not in seen:
                    break
            seen.add((text, bound))
            batch.append(Query(len(batch), r, shape, text, bound,
                               rng.getrandbits(48)))
    return batch
