"""Graph data model and text formats.

Two instance kinds are handled:

* PathInstance: a directed graph with k source terminals X, k sink
  terminals Y (disjoint), and optional positive integer edge costs.
  Parallel edges are allowed and keep distinct ids; self-loops are
  rejected.

* FlowInstance: a directed network with a source, a sink, and integer
  capacities >= 1, costs >= 1 and target flow value >= 1.

Text formats (line oriented):

* paths instances ('#' starts a comment)::

      q paths <n> <m> <k>
      x <v>            (k lines, source list in order)
      y <v>            (k lines, sink list in order)
      e <u> <v> [cost] (m lines; cost is an optional positive integer)

* extended DIMACS min-cost flow ('c' starts a comment)::

      p min <n> <m>
      n <v> <supply>   (positive supply at the source, -k at the sink)
      a <u> <v> <low> <cap> <cost>   (low must be 0)

Vertices are 1-indexed in files and 0-indexed in memory.
"""

from __future__ import annotations

import random
from array import array
from collections import namedtuple


class ParseError(ValueError):
    """Malformed instance text; message carries the offending line number."""


def _check_vertex_count(n):
    """Refuse a vertex count that is not an integer from 2 to 2^32 - 1,
    the ids an array("I") holds, before anything is allocated per vertex."""
    if not (isinstance(n, int) and 2 <= n < 1 << 32):
        raise ValueError(f"need at least 2 vertices and fewer than "
                         f"2^32 (an integer), got {n}")


class PathInstance:
    """Directed graph with terminal lists X, Y and optional integer costs.

    Edge ids are assigned in construction order and are stable under
    re-parsing the same file.  Edge eid runs from tails[eid] to
    heads[eid], two array("I") of vertex ids, 4 bytes per edge each;
    out_edges[u] is the tuple of u's out-edge ids in increasing order.
    The vertex count n runs from 2 to 2^32 - 1, the ids an array("I")
    holds; any other n raises ValueError, and an n whose one cell per
    vertex passes the memory ceiling raises evaluator.BudgetError,
    before any per-vertex list is allocated.  Missing costs default to 1
    per edge, which makes total cost coincide with total length.
    """

    def __init__(self, vertex_count, edges, sources, sinks, costs=None):
        n = vertex_count
        _check_vertex_count(n)
        evaluator._check_budget(n)  # out_edges below: ~73 bytes a vertex
        sources = tuple(sources)
        sinks = tuple(sinks)
        k = len(sources)
        if k < 1 or len(sinks) != k:
            raise ValueError(
                f"need equal nonempty terminal lists, got {len(sources)} "
                f"sources and {len(sinks)} sinks"
            )
        terminals = sources + sinks
        for v in terminals:
            if not (isinstance(v, int) and 0 <= v < n):
                raise ValueError(f"terminal vertex {v} out of range")
        if len(set(terminals)) != 2 * k:
            raise ValueError("terminal sets not disjoint")
        tails, heads = array("I"), array("I")
        out_edges = [[] for _ in range(n)]
        for u, v in edges:
            if not (isinstance(u, int) and isinstance(v, int)
                    and 0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            out_edges[u].append(len(tails))
            tails.append(u)
            heads.append(v)
        if costs is not None:
            costs = list(costs)
            if len(costs) != len(tails):
                raise ValueError("cost list length != edge count")
            bad = [c for c in costs if not isinstance(c, int) or c < 1]
            if bad:
                raise ValueError(f"cost below 1 or not an integer: {bad[0]}")
        self.n = n
        self.m = len(tails)
        self.k = k
        self.tails = tails
        self.heads = heads
        self.sources = sources
        self.sinks = sinks
        self.costs = costs
        self.source_index = {v: i for i, v in enumerate(sources)}
        self.sink_index = {v: i for i, v in enumerate(sinks)}
        self.out_edges = [tuple(out) for out in out_edges]

    @property
    def edges(self) -> list:
        """Each edge's (tail, head) in id order, built on each call: O(m)."""
        return list(zip(self.tails, self.heads))

    def is_terminal(self, v) -> bool:
        return v in self.source_index or v in self.sink_index

    def cost(self, eid) -> int:
        return 1 if self.costs is None else self.costs[eid]

    def cost_list(self) -> list[int]:
        return [1] * self.m if self.costs is None else list(self.costs)

    def max_path_edges(self) -> int:
        """Most edges a set of k vertex-disjoint simple paths can use:
        min(m, n - k).  The k paths hold at most n vertices between them,
        and a path has one edge fewer than it has vertices."""
        return min(self.m, self.n - self.k)

    def simple_cost_cap(self, costs=None) -> int:
        """Upper bound on the cost of any set of k disjoint simple paths.

        Sum of the max_path_edges() largest edge costs.  Any nonzero
        exact-cost slice below or at this bound is certified by a simple
        set, so scans never need to go further.
        """
        cs = sorted(self.cost_list() if costs is None else costs,
                    reverse=True)
        return sum(cs[: self.max_path_edges()])

    def has_disjoint_paths(self) -> bool:
        """Whether k vertex-disjoint X->Y paths exist, at any cost.

        By Menger's theorem, exactly when k augmenting paths exist in the
        vertex-split graph (Ford-Fulkerson).  Vertex v has the states
        IN(v) and OUT(v); a non-terminal passes at most one path from IN
        to OUT, and edges into a source or out of a sink carry none.
        fin[v] and fout[v] are the edges carrying a path into and out of v
        (-1: none).  Each search is a DFS over the residual states: at a
        vertex on a path, a used sink included, it may back out along that
        path's edge into it, which reroutes the path.  It pushes each
        vertex at most once, so it keeps no visited set: a free source
        only at the start, a free vertex only when its own back is first
        set, and a path vertex u only as the tail of its path edge into
        the one w whose back[w] that push sets.  Exact, in O(k (n + m))
        time.  Its lists hold a few slots per vertex, a small part of what
        the instance holds, so nothing is charged against the memory
        ceiling.
        """
        tails, heads, out_edges = self.tails, self.heads, self.out_edges
        sources, sinks = self.source_index, self.sink_index
        fin, fout = [-1] * self.n, [-1] * self.n
        for _ in range(self.k):
            # back[w]: the edge by which the search entered IN(w), or -1
            # when it came from OUT(w) against the path through w.  IN(w)
            # leads on to OUT(w) when w is free, and else back along its
            # path to OUT(tail), so the stack holds only OUT(u), as u.
            back = [None] * self.n
            stack = [x for x in self.sources if fout[x] < 0]
            end = -1
            while stack and end < 0:
                s = stack.pop()
                for e in out_edges[s]:
                    w = heads[e]
                    if back[w] is None and e != fout[s] and w not in sources:
                        back[w] = e
                        if fin[w] >= 0:
                            stack.append(tails[fin[w]])
                        elif w in sinks:
                            end = w
                            break
                        else:
                            stack.append(w)
                if fin[s] >= 0 and back[s] is None:
                    back[s] = -1
                    stack.append(tails[fin[s]])
            if end < 0:
                return False
            v = end  # augment, from the free sink back to a free source
            while True:
                e = back[v]
                if e < 0:  # the search crossed v against its path: v is freed
                    e, fin[v], fout[v] = fout[v], -1, -1
                    v = heads[e]
                    continue
                u = tails[e]
                old, fin[v], fout[u] = fout[u], e, e
                if old >= 0:
                    v = heads[old]
                elif u in sources:
                    break
                else:
                    v = u
        return True

    def __eq__(self, other):
        return (
            isinstance(other, PathInstance)
            and (self.n, self.tails, self.heads, self.sources, self.sinks,
                 self.costs)
            == (other.n, other.tails, other.heads, other.sources,
                other.sinks, other.costs)
        )

    def __repr__(self):
        return (f"PathInstance(n={self.n}, m={self.m}, k={self.k}, "
                f"costed={self.costs is not None})")


class FlowInstance(namedtuple(
        "FlowInstance", "vertex_count edges source sink target_value")):
    """Directed network for min-cost flow of a small integer target value;
    edges is a list of (u, v, capacity, cost) tuples of integers.  The
    vertex count n runs from 2 to 2^32 - 1, as for PathInstance; any
    other n raises ValueError."""

    __slots__ = ()

    def __new__(cls, vertex_count, edges, source, sink, target_value):
        n = vertex_count
        _check_vertex_count(n)
        if not (isinstance(source, int) and isinstance(sink, int)
                and 0 <= source < n and 0 <= sink < n):
            raise ValueError("source/sink out of range or not an integer")
        if source == sink:
            raise ValueError("source equals sink")
        if not isinstance(target_value, int) or target_value < 1:
            raise ValueError("target flow value must be an integer >= 1")
        edges = [tuple(e) for e in edges]
        for u, v, cap, cost in edges:
            if not (isinstance(u, int) and isinstance(v, int)
                    and 0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range")
            if not isinstance(cap, int) or cap < 1:
                raise ValueError(f"capacity below 1 or not an integer on "
                                 f"arc ({u}, {v})")
            if not isinstance(cost, int) or cost < 1:
                raise ValueError(f"cost below 1 or not an integer on arc "
                                 f"({u}, {v})")
        return super().__new__(cls, vertex_count, edges, source, sink,
                               target_value)

    @property
    def n(self):
        return self.vertex_count

    @property
    def m(self):
        return len(self.edges)


class Walk(namedtuple("Walk", "vertices edge_ids")):
    """A not-necessarily-simple source-to-sink walk.

    vertices[0] is a source terminal, vertices[-1] a sink terminal, and
    everything between is a non-terminal.  edge_ids[i] connects
    vertices[i] to vertices[i+1]; with parallel edges the id sequence
    distinguishes otherwise identical vertex sequences.
    """

    __slots__ = ()

    @property
    def length(self):
        return len(self.edge_ids)


class ProperWalkSet(namedtuple("ProperWalkSet", "walks")):
    """k walks with distinct starts in X and distinct ends in Y."""

    __slots__ = ()

    @property
    def total_length(self):
        return sum(w.length for w in self.walks)

    def monomial(self):
        """Edge-id multiset of the whole set, as a sorted tuple."""
        ids = []
        for w in self.walks:
            ids.extend(w.edge_ids)
        return tuple(sorted(ids))


# ---------------------------------------------------------------------------
# Parsing / serialization
# ---------------------------------------------------------------------------

def parse_paths_instance(text: str) -> PathInstance:
    """The PathInstance that paths-format text (module docstring)
    describes, costed when any edge line gives a cost.  Raises
    ParseError, naming the line where it can, on malformed text or on
    values the constructor refuses."""
    header = None
    sources, sinks, edges, costs = [], [], [], []
    any_cost = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if not toks:
            continue
        tag = toks[0]
        try:
            if tag == "e":
                if len(toks) not in (3, 4):
                    raise ParseError(
                        f"line {lineno}: expected 'e <u> <v> [cost]'")
                edges.append((int(toks[1]) - 1, int(toks[2]) - 1))
                if len(toks) == 4:
                    costs.append(int(toks[3]))
                    any_cost = True
                else:
                    costs.append(1)
            elif tag.startswith("#"):
                continue
            elif tag == "q":
                if header is not None:
                    raise ParseError(f"line {lineno}: duplicate header")
                if len(toks) != 5 or toks[1] != "paths":
                    raise ParseError(
                        f"line {lineno}: expected 'q paths <n> <m> <k>'")
                header = tuple(int(t) for t in toks[2:])
            elif tag in ("x", "y"):
                if len(toks) != 2:
                    raise ParseError(f"line {lineno}: expected '{tag} <v>'")
                (sources if tag == "x" else sinks).append(int(toks[1]) - 1)
            else:
                raise ParseError(f"line {lineno}: unknown record '{tag}'")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(f"line {lineno}: malformed line") from exc
    if header is None:
        raise ParseError("missing 'q paths' header line")
    n, m, k = header
    if len(sources) != k or len(sinks) != k:
        raise ParseError(
            f"terminal count mismatch: header k={k}, got {len(sources)} "
            f"sources and {len(sinks)} sinks"
        )
    if len(edges) != m:
        raise ParseError(f"edge count mismatch: header m={m}, got {len(edges)}")
    try:
        return PathInstance(n, edges, sources, sinks,
                            costs=costs if any_cost else None)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_paths_instance(instance: PathInstance) -> str:
    """Paths-format text that parse_paths_instance reads back to an equal
    instance."""
    lines = [f"q paths {instance.n} {instance.m} {instance.k}"]
    lines += [f"x {v + 1}" for v in instance.sources]
    lines += [f"y {v + 1}" for v in instance.sinks]
    for eid, (u, v) in enumerate(instance.edges):
        if instance.costs is None:
            lines.append(f"e {u + 1} {v + 1}")
        else:
            lines.append(f"e {u + 1} {v + 1} {instance.costs[eid]}")
    return "\n".join(lines) + "\n"


def parse_dimacs_flow(text: str) -> FlowInstance:
    """The FlowInstance that DIMACS min-cost flow text (module docstring)
    describes: one source of supply k, one sink of demand k, zero lower
    bounds.  Raises ParseError, naming the line where it can, on
    malformed text or on values the constructor refuses."""
    header = None
    supplies = {}
    arcs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if not toks:
            continue
        tag = toks[0]
        try:
            if tag == "a":
                if len(toks) != 6:
                    raise ParseError(
                        f"line {lineno}: expected 'a <u> <v> <low> <cap> <cost>'")
                _, u, v, low, cap, cost = toks
                u, v, low = int(u) - 1, int(v) - 1, int(low)
                cap, cost = int(cap), int(cost)
                if low != 0:
                    raise ParseError(
                        f"line {lineno}: nonzero lower bound unsupported")
                arcs.append((u, v, cap, cost))
            elif tag == "c" or tag.startswith("#"):
                continue
            elif tag == "p":
                if header is not None:
                    raise ParseError(f"line {lineno}: duplicate problem line")
                if len(toks) != 4 or toks[1] != "min":
                    raise ParseError(
                        f"line {lineno}: expected 'p min <n> <m>'")
                header = (int(toks[2]), int(toks[3]))
            elif tag == "n":
                if len(toks) != 3:
                    raise ParseError(
                        f"line {lineno}: expected 'n <v> <supply>'")
                v, supply = int(toks[1]) - 1, int(toks[2])
                if v in supplies:
                    raise ParseError(
                        f"line {lineno}: duplicate node descriptor")
                supplies[v] = supply
            else:
                raise ParseError(f"line {lineno}: unknown record '{tag}'")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(f"line {lineno}: malformed line") from exc
    if header is None:
        raise ParseError("missing problem line")
    n, m = header
    if len(arcs) != m:
        raise ParseError(f"arc count mismatch: header m={m}, got {len(arcs)}")
    pos = [(v, s) for v, s in supplies.items() if s > 0]
    neg = [(v, s) for v, s in supplies.items() if s < 0]
    if len(pos) != 1 or len(neg) != 1:
        raise ParseError("need exactly one source and one sink node line")
    (s, k), (t, nk) = pos[0], neg[0]
    if k != -nk:
        raise ParseError(f"supply {k} at source does not match demand {-nk}")
    try:
        return FlowInstance(n, arcs, s, t, k)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_dimacs_flow(instance: FlowInstance) -> str:
    """DIMACS text that parse_dimacs_flow reads back to an equal
    instance."""
    lines = [f"p min {instance.n} {instance.m}"]
    lines.append(f"n {instance.source + 1} {instance.target_value}")
    lines.append(f"n {instance.sink + 1} {-instance.target_value}")
    for u, v, cap, cost in instance.edges:
        lines.append(f"a {u + 1} {v + 1} 0 {cap} {cost}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Seeded instance generators (test batteries and bench mode)
# ---------------------------------------------------------------------------

def random_paths_instance(rng: random.Random, n: int, k: int,
                          extra_edges: int, cost_max: int | None = None,
                          plant: bool = True) -> PathInstance:
    """Random instance with optional planted disjoint paths for feasibility.

    With plant=True, k vertex-disjoint X->Y paths through a random split of
    the non-terminals are laid down first, then extra_edges random edges
    are sprinkled on top (parallel edges allowed, self-loops not).
    """
    if n < 2 * k:
        raise ValueError("need n >= 2k")
    vertices = list(range(n))
    rng.shuffle(vertices)
    sources = vertices[:k]
    sinks = vertices[k:2 * k]
    middle = vertices[2 * k:]
    edges = []
    if plant:
        rng.shuffle(middle)
        cut = sorted(rng.choices(range(len(middle) + 1), k=k - 1))
        pieces = []
        prev = 0
        for c in cut + [len(middle)]:
            pieces.append(middle[prev:c])
            prev = c
        for i in range(k):
            chain = [sources[i]] + pieces[i][: rng.randint(0, len(pieces[i]))] \
                + [sinks[i]]
            for a, b in zip(chain, chain[1:]):
                edges.append((a, b))
    for _ in range(extra_edges):
        while True:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v))
                break
    costs = None
    if cost_max is not None:
        costs = [rng.randint(1, cost_max) for _ in edges]
    return PathInstance(n, edges, sources, sinks, costs=costs)


def random_flow_instance(rng: random.Random, n: int, m: int, k: int,
                         cap_max: int, cost_max: int,
                         plant: bool = True) -> FlowInstance:
    """Random flow network; plant=True routes some capacity source-to-sink."""
    if n < 2:
        raise ValueError("need n >= 2")
    s, t = rng.sample(range(n), 2)
    arcs = []
    if plant and n > 2:
        routed = 0
        while routed < k and len(arcs) < m:
            mid = rng.choice([v for v in range(n) if v not in (s, t)])
            cap = rng.randint(1, cap_max)
            cost1 = rng.randint(1, cost_max)
            cost2 = rng.randint(1, cost_max)
            arcs.append((s, mid, cap, cost1))
            arcs.append((mid, t, cap, cost2))
            routed += cap
    while len(arcs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        arcs.append((u, v, rng.randint(1, cap_max), rng.randint(1, cost_max)))
    return FlowInstance(n, arcs[:m], s, t, k)


# Imported last: evaluator imports this module, and PathInstance reads
# the memory ceiling from evaluator when it is called.
from . import evaluator  # noqa: E402
