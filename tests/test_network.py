import json
import os
import random
import subprocess
import sys

import pytest

from smallflow import network
from smallflow import (
    FlowInstance,
    ParseError,
    PathInstance,
    parse_dimacs_flow,
    parse_paths_instance,
    random_flow_instance,
    random_paths_instance,
    serialize_dimacs_flow,
    serialize_paths_instance,
)

PATHS_TEXT = """\
# tiny chain
q paths 4 2 1
x 1
y 4
e 1 2
e 2 4
"""


def test_parse_paths_basic():
    inst = parse_paths_instance(PATHS_TEXT)
    assert (inst.n, inst.m, inst.k) == (4, 2, 1)
    assert inst.sources == (0,)
    assert inst.sinks == (3,)
    assert inst.edges == [(0, 1), (1, 3)]
    assert inst.costs is None
    assert inst.cost(0) == 1


def test_parse_paths_costs():
    text = "q paths 2 1 1\nx 1\ny 2\ne 1 2 5\n"
    inst = parse_paths_instance(text)
    assert inst.costs == [5]


def test_parse_paths_mixed_costs_and_comments():
    # once any edge has a cost, an uncosted one costs 1; '#' lines between
    # records, '#e 1 2' too, are comments
    text = "q paths 3 2 1\n# s\nx 1\n#e 1 2\ny 3\ne 1 2\n  # e\ne 2 3 4\n"
    inst = parse_paths_instance(text)
    assert (inst.edges, inst.costs) == ([(0, 1), (1, 2)], [1, 4])


@pytest.mark.parametrize("text,fragment", [
    ("q paths 2 1 1\nx 1\ny 1\ne 1 2\n", "not disjoint"),
    ("q paths 2 1 1\nx 1\ny 2\ne 1 2 0\n", "below 1"),
    ("q paths 2 1 1\nx 1\ny 2\ne 1 3\n", "out of range"),
    ("q paths 2 1 1\nx 1\ny 2\ne 1 1\n", "self-loop"),
    ("q paths 2 1 1\nq paths 2 1 1\nx 1\ny 2\ne 1 2\n", "duplicate header"),
    ("x 1\ny 2\ne 1 2\n", "missing"),
    ("q paths 2 1 1\nx 1\ny 2\ne one two\n", "line 4"),
    ("q paths 2 9 1\nx 1\ny 2\ne 1 2\n", "edge count mismatch"),
    ("q paths 2 1 2\nx 1\ny 2\ne 1 2\n", "terminal count mismatch"),
    ("q paths 2 1 1\nz 1\n", "unknown record"),
    ("q paths 2 1 1\nx 1 2\ny 2\ne 1 2\n", "line 2: expected 'x <v>'"),
    ("q paths 2 1 1\nx 1\ny 2 7\ne 1 2\n", "line 3: expected 'y <v>'"),
    ("q paths 2 1 1\nx\ny 2\ne 1 2\n", "line 2: expected 'x <v>'"),
    ("q paths 2 1 1\nx 1\ny 2\ne 1\n",
     r"line 4: expected 'e <u> <v> \[cost\]'"),
    ("q paths 2 1 1\nx 1\ny 2\ne 1 2 3 4\n",
     r"line 4: expected 'e <u> <v> \[cost\]'"),
])
def test_parse_paths_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_paths_instance(text)


def test_roundtrip_canonical():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(2, 9)
        k = rng.randint(1, n // 2)
        inst = random_paths_instance(rng, n, k, extra_edges=rng.randint(0, n),
                                     cost_max=rng.choice([None, 4]))
        text = serialize_paths_instance(inst)
        again = parse_paths_instance(text)
        assert again == inst
        assert serialize_paths_instance(again) == text


def test_edge_id_stability():
    first = parse_paths_instance(PATHS_TEXT)
    second = parse_paths_instance(PATHS_TEXT)
    assert first.edges == second.edges


def test_parallel_edges_distinct_ids():
    inst = PathInstance(2, [(0, 1), (0, 1)], [0], [1])
    assert inst.m == 2
    assert inst.out_edges[0] == (0, 1)


def test_edge_layout():
    # An instance stores its edges as two vertex arrays in id order;
    # edges is built from them, and out_edges[u] is the tuple of u's edge
    # ids in increasing order, parallel edges apart.
    inst = PathInstance(3, [(0, 2), (0, 1), (1, 2), (0, 1)], [0], [2])
    assert (list(inst.tails), list(inst.heads)) == (
        [0, 0, 1, 0], [2, 1, 2, 1])
    assert inst.out_edges == [(0, 1, 3), (2,), ()]
    rng = random.Random(2)
    for _ in range(10):
        inst = random_paths_instance(rng, 9, 2, extra_edges=12,
                                     cost_max=rng.choice([None, 3]))
        assert inst.edges == list(zip(inst.tails, inst.heads))
        assert inst.out_edges == [
            tuple(e for e in range(inst.m) if inst.tails[e] == u)
            for u in range(inst.n)]
        again = parse_paths_instance(serialize_paths_instance(inst))
        assert again == inst
        assert (again.tails, again.heads, again.out_edges) == \
            (inst.tails, inst.heads, inst.out_edges)


_FOOTPRINT = """
import gc, json, random, tracemalloc
from smallflow import (parse_paths_instance, random_paths_instance,
                       serialize_paths_instance)
inst = random_paths_instance(random.Random(3), 60, 4, 200)
text = serialize_paths_instance(inst)
parse_paths_instance(text)
gc.collect()
tracemalloc.start()
kept = [parse_paths_instance(text) for _ in range(20)]
print(json.dumps([inst.n, inst.m, tracemalloc.get_traced_memory()[0] / 20]))
"""


def test_parsed_instance_footprint():
    # What a parsed instance retains, per instance over 20 parses of one
    # text after a warm-up parse, in a fresh interpreter: at most 17 bytes
    # per edge (its 4-byte slots in the tails and heads arrays, with array
    # growth of 1/16, and its 8-byte slot in an out-edge tuple), 80 per
    # vertex (its out-edge tuple and that tuple's slot) and 1 KiB for the
    # fields and terminal dicts.  A (tail, head) tuple per edge takes 64
    # bytes with its slot; that layout read 22.4 KB here, tails and heads
    # as lists of 8-byte slots 10.1 KB, and as arrays 8.4 KB.
    src = os.path.dirname(os.path.dirname(network.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT],
                         capture_output=True, text=True, env=env,
                         check=True).stdout
    n, m, retained = json.loads(out)
    assert (n, m) == (60, 222)
    assert retained <= 17 * m + 80 * n + 1024


DIMACS_TEXT = """\
c two disjoint routes
p min 4 4
n 1 2
n 4 -2
a 1 2 0 1 1
a 2 4 0 1 1
a 1 3 0 1 1
a 3 4 0 1 1
"""


def test_parse_dimacs_basic():
    K = parse_dimacs_flow(DIMACS_TEXT)
    assert (K.n, K.m) == (4, 4)
    assert (K.source, K.sink, K.target_value) == (0, 3, 2)
    assert K.edges[0] == (0, 1, 1, 1)


@pytest.mark.parametrize("text,fragment", [
    ("p min 2 1\np min 2 1\nn 1 1\nn 2 -1\na 1 2 0 1 1\n", "duplicate"),
    ("n 1 1\nn 2 -1\na 1 2 0 1 1\n", "missing problem line"),
    ("p min 2 1\nn 1 1\na 1 2 0 1 1\n", "exactly one source"),
    ("p min 2 1\nn 1 2\nn 2 -1\na 1 2 0 1 1\n", "does not match"),
    ("p min 2 1\nn 1 1\nn 2 -1\na 1 2 0 0 1\n", "capacity below 1"),
    ("p min 2 1\nn 1 1\nn 2 -1\na 1 2 0 1 -3\n", "cost below 1"),
    ("p min 2 1\nn 1 1\nn 2 -1\na 1 2 1 1 1\n", "lower bound"),
    ("p min 2 2\nn 1 1\nn 2 -1\na 1 2 0 1 1\n", "arc count mismatch"),
    ("p min 2 1\nn 1 1 7\nn 2 -1\na 1 2 0 1 1\n",
     "line 2: expected 'n <v> <supply>'"),
    ("p min 2 1\nn 1 1\nn 2\na 1 2 0 1 1\n",
     "line 3: expected 'n <v> <supply>'"),
    ("p min 2 1\nn 1 1\nn 2 -1\na 1 2 0 1\n",
     "line 4: expected 'a <u> <v> <low> <cap> <cost>'"),
    ("p min 2 1\nn 1 1\nn 2 -1\na 1 2 0 1 1 9\n",
     "line 4: expected 'a <u> <v> <low> <cap> <cost>'"),
    ("p min 2 1\nn 1 1\nn 2 -1\na 1 2 0 one 1\n", "line 4: malformed line"),
])
def test_parse_dimacs_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_dimacs_flow(text)


def test_parse_dimacs_comments_between_records():
    text = DIMACS_TEXT.replace("a 1 3", "c a 1 3 0 1 1\n#a 1 3 0 1 1\na 1 3")
    assert parse_dimacs_flow(text) == parse_dimacs_flow(DIMACS_TEXT)


def test_dimacs_roundtrip():
    K = parse_dimacs_flow(DIMACS_TEXT)
    text = serialize_dimacs_flow(K)
    assert parse_dimacs_flow(text) == K


def test_instance_invariant_errors():
    with pytest.raises(ValueError, match="self-loop"):
        PathInstance(2, [(0, 0)], [0], [1])
    with pytest.raises(ValueError, match="not disjoint"):
        PathInstance(3, [(0, 1)], [0], [0])
    with pytest.raises(ValueError, match="terminal"):
        PathInstance(2, [(0, 1)], [], [])
    with pytest.raises(ValueError, match="cost list"):
        PathInstance(2, [(0, 1)], [0], [1], costs=[1, 2])


@pytest.mark.parametrize("make, fragment", [
    (lambda: PathInstance(1, [], [0], [0]), "at least 2 vertices"),
    (lambda: PathInstance(1 << 32, [(0, 1)], [0], [1]),
     r"fewer than 2\^32"),
    (lambda: PathInstance(3, [], [0], [3]), "terminal vertex 3 out of range"),
    (lambda: FlowInstance(2, [(0, 1, 1, 1)], 1, 1, 1), "source equals sink"),
    (lambda: FlowInstance(2, [(0, 1, 1, 1)], 0, 1, 0), "target flow value"),
    (lambda: FlowInstance(2, [(0, 1, 0, 1)], 0, 1, 1), "capacity below 1"),
    (lambda: FlowInstance(2, [(0, 1, 1, 0)], 0, 1, 1), "cost below 1"),
    (lambda: PathInstance(5, [(0, 2), (1, 2), (2, 3), (2, 4), (0, 3), (1, 4)],
                          [0, 1], [3, 4],
                          costs=[2.2, 2.5, 2.6, 2.9, 30, 30]), "cost below 1"),
    (lambda: FlowInstance(2, [(0, 1, 1, 1)], 0, 1, 1.5), "target flow value"),
    (lambda: FlowInstance(2, [(0, 1, 1.5, 1)], 0, 1, 1), "capacity below 1"),
    (lambda: FlowInstance(2, [(0, 1, 1, 2.5)], 0, 1, 1), "cost below 1"),
    (lambda: PathInstance(5, [(0, 2), (2, 3), (1, 4), (0, 4)], [0.0, 1],
                          [3, 4]), "out of range"),
    (lambda: PathInstance(5, [(0.0, 2), (2, 3)], [0], [3]), "out of range"),
    (lambda: PathInstance(5.0, [(0, 2), (2, 3)], [0], [3]),
     "at least 2 vertices"),
    (lambda: FlowInstance(3, [(0.0, 1, 1, 1), (1, 2, 1, 1)], 0, 2, 1),
     "out of range"),
    (lambda: FlowInstance(3, [(0, 1, 1, 1), (1, 2, 1, 1)], 0.0, 2, 1),
     "out of range"),
    (lambda: FlowInstance(1, [], 0, 0, 1), "at least 2 vertices"),
    (lambda: FlowInstance(1 << 32, [(0, 1, 1, 1)], 0, 1, 1),
     r"fewer than 2\^32"),
    (lambda: FlowInstance(3.0, [(0, 1, 1, 1)], 0, 1, 1),
     "at least 2 vertices"),
], ids=["one-vertex", "2^32-vertices", "terminal-range", "source-is-sink",
        "zero-target", "zero-capacity", "zero-cost", "float-path-cost",
        "float-target", "float-capacity", "float-cost", "float-terminal",
        "float-tail", "float-count", "float-arc-tail", "float-source",
        "one-vertex-network", "2^32-vertex-network", "float-network-count"])
def test_constructor_checks(make, fragment):
    # The DIMACS parser rejects the first four flow cases before it builds
    # a FlowInstance, and passes only ints, so only direct construction
    # reaches the flow checks.  On float costs colliding walk systems fall
    # into different cost groups and no longer cancel: the float-cost path
    # instance would be priced at 10.2, against a brute-force optimum of
    # 34.8.  A float vertex id would be accepted, or fail as an index, and
    # the float-terminal instance would then raise TypeError in a query.
    with pytest.raises(ValueError, match=fragment):
        make()


def test_generators_deterministic():
    a = random_paths_instance(random.Random(5), 8, 2, extra_edges=6, cost_max=4)
    b = random_paths_instance(random.Random(5), 8, 2, extra_edges=6, cost_max=4)
    assert a == b
    ka = random_flow_instance(random.Random(5), 6, 7, 2, cap_max=3, cost_max=4)
    kb = random_flow_instance(random.Random(5), 6, 7, 2, cap_max=3, cost_max=4)
    assert ka == kb


def test_planted_instances_feasible():
    from smallflow import oracle
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(4, 8)
        k = rng.randint(1, min(3, n // 2))
        inst = random_paths_instance(rng, n, k, extra_edges=0, plant=True)
        assert oracle.brute_force_disjoint_paths(inst) is not None
        assert inst.has_disjoint_paths()


class _CountingList(list):
    """A list that counts its reads by index."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = [0] * len(self)

    def __getitem__(self, i):
        self.reads[i] += 1
        return super().__getitem__(i)


def test_has_disjoint_paths_matches_the_flow_oracle():
    # sparse instances, most of them infeasible: the augmenting-path check
    # agrees with the oracle's min-cost flow on the split graph.  Its k
    # searches keep no visited set, since each pushes a vertex at most
    # once: counted through out_edges, no vertex is expanded more than k
    # times.
    from smallflow import oracle
    rng = random.Random(14)
    infeasible = 0
    for _ in range(1500):
        n = rng.randint(4, 12)
        k = rng.randint(1, min(4, n // 2))
        inst = random_paths_instance(rng, n, k,
                                     extra_edges=rng.randint(0, 2 * n),
                                     plant=rng.random() < 0.3)
        want = oracle.disjoint_paths_min_cost_via_flow(inst) is not None
        inst.out_edges = _CountingList(inst.out_edges)
        assert inst.has_disjoint_paths() == want
        assert max(inst.out_edges.reads) <= k
        infeasible += not want
    assert infeasible > 750


def test_has_disjoint_paths_reroutes_through_a_used_sink():
    # the first search takes x2 -> y1 (x2's first out-edge); x1's only edge
    # leads into y1, so the second search must back out of the used sink
    # along x2's edge and move x2 on to y2
    edges = [(0, 2), (1, 2), (1, 3)]
    assert PathInstance(4, edges, [0, 1], [2, 3]).has_disjoint_paths()
    assert not PathInstance(4, edges[:2], [0, 1], [2, 3]).has_disjoint_paths()
    # the same through a used inner vertex: x2 -> v -> y1 first (v is the
    # last head x2 pushes), then x1 reaches v, backs out along x2's edge
    # into it, and x2 moves on to y2 via w
    edges = [(0, 4), (1, 5), (1, 4), (4, 2), (5, 3)]
    assert PathInstance(6, edges, [0, 1], [2, 3]).has_disjoint_paths()
    # x2's only routes pass through a terminal: a sink or a source is
    # never an inner vertex
    for edges in ([(0, 2), (1, 2), (2, 3)], [(0, 2), (1, 0), (0, 3)]):
        assert not PathInstance(4, edges, [0, 1], [2, 3]).has_disjoint_paths()


# -- fuzz: any token soup parses or raises ParseError ------------------------

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

_ARG = st.one_of(
    st.integers(-2, 5).map(str),
    st.sampled_from(["paths", "min", "0x2", "1.5", "nan", "#"]),
    st.text(max_size=2),
)
_LINE = st.tuples(
    st.sampled_from(["q", "x", "y", "e", "p", "n", "a", "c", "#", "z", ""]),
    st.lists(_ARG, max_size=6)).map(lambda t: " ".join([t[0], *t[1]]))
_PREFIXES = ["", "q paths 3 2 1\n", "q paths 3 2 1\nx 1\ny 3\n",
             "p min 3 2\n", "p min 3 2\nn 1 1\nn 3 -1\n"]


@st.composite
def _token_soup(draw):
    return draw(st.sampled_from(_PREFIXES)) + "\n".join(
        draw(st.lists(_LINE, max_size=8)))


@st.composite
def _edited_valid_text(draw):
    """A valid instance text with one to three edits: a line dropped, cut
    short or doubled, or a token added or replaced."""
    lines = [line.split() for line in draw(st.sampled_from(
        [PATHS_TEXT, DIMACS_TEXT, "q paths 2 1 1\nx 1\ny 2\ne 1 2 5\n"]))
        .splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i]
        op = draw(st.sampled_from(["drop", "cut", "twice", "add", "swap"]))
        if op == "drop":
            del lines[i]
        elif op == "twice":
            lines.insert(i, list(toks))
        elif op == "cut":
            lines[i] = toks[:draw(st.integers(0, max(len(toks) - 1, 0)))]
        else:
            at = draw(st.integers(0, len(toks)))
            lines[i] = toks[:at] + [draw(_ARG)] + toks[at + (op == "swap"):]
    return "\n".join(map(" ".join, lines))


@hypothesis.settings(max_examples=1000, deadline=None)
@hypothesis.given(st.one_of(_token_soup(), _edited_valid_text()))
def test_parsers_accept_or_raise_parse_error(text):
    for parse in (parse_paths_instance, parse_dimacs_flow):
        try:
            parse(text)
        except ParseError:
            pass
