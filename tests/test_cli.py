import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from smallflow import cli

BIPARTITE = """\
q paths 4 4 2
x 1
x 2
y 3
y 4
e 1 3 1
e 1 4 2
e 2 3 2
e 2 4 1
"""

SYMMETRIC = """\
q paths 4 4 2
x 1
x 2
y 3
y 4
e 1 3 1
e 1 4 1
e 2 3 1
e 2 4 1
"""

TWO_ROUTES = """\
p min 4 4
n 1 2
n 4 -2
a 1 2 0 1 1
a 2 4 0 1 1
a 1 3 0 1 1
a 3 4 0 1 1
"""

BOTTLENECK = """\
q paths 5 4 2
x 1
x 2
y 4
y 5
e 1 3
e 2 3
e 3 4
e 3 5
"""

# BOTTLENECK plus a long route x1 -> 6 -> 7 -> 8 -> y1: feasible, but
# every walk set of length 4 meets at vertex 3, and the disjoint paths
# have length 6
HUB_BELOW = BOTTLENECK.replace("q paths 5 4 2", "q paths 8 8 2") + """\
e 1 6
e 6 7
e 7 8
e 8 4
"""


# x1 -> 5 -> y1 and x2 -> 8 -> y2, each with a route one edge longer
# listed after it: the Menger search follows the last head it pushed, so
# its paths take both long routes, of total length 6, and a bound of 4
# (the optimum and the floor) or 5 is answered by the length tables
DETOUR = """\
q paths 10 10 2
x 1
x 2
y 3
y 4
e 1 5
e 5 3
e 1 6
e 6 7
e 7 3
e 2 8
e 8 4
e 2 9
e 9 10
e 10 4
"""


@pytest.fixture
def paths_file(tmp_path):
    p = tmp_path / "inst.paths"
    p.write_text(BIPARTITE)
    return str(p)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_decide_nonzero(capsys, paths_file):
    code, rep = run_json(capsys, "decide", "-i", paths_file, "-l", "2",
                         "--verify")
    assert code == 0
    assert rep["answer"] == "NONZERO"
    assert rep["schema"] == 1
    assert rep["verify"]["match"] is True


def test_decide_zero_exit(capsys, tmp_path):
    p = tmp_path / "b.paths"
    p.write_text(BOTTLENECK)
    code, rep = run_json(capsys, "decide", "-i", str(p), "--verify")
    assert code == 1
    assert rep["answer"] == "ZERO"
    assert rep["verify"]["match"] is True
    # l defaults to k(n-1) = 8, and min(l, m, n - k) = 3 is below 4, the
    # sum of the sources' least lengths to a sink: an exact ZERO that
    # evaluates no table, so no degree and no repetition is reported
    assert (rep["length_bound"], rep["evaluated_degree"],
            rep["repetitions"]) == (8, None, 0)
    # an isolated sixth vertex lifts min(l, m, n - k) to 4, the floor, but
    # the instance still has no two disjoint paths: an exact ZERO again
    p.write_text(BOTTLENECK.replace("q paths 5", "q paths 6"))
    code, rep = run_json(capsys, "decide", "-i", str(p), "--verify")
    assert (code, rep["answer"], rep["evaluated_degree"],
            rep["repetitions"]) == (1, "ZERO", None, 0)
    assert rep["verify"]["match"] is True
    assert rep["error_bound_log2"] is None
    # feasible, with every walk set of length <= 4 meeting at vertex 3: the
    # tables run at degree 4, both repetitions of n = 8, and answer ZERO,
    # which errs with probability at most (4 / 2^64)^2 = 2^-124
    p.write_text(HUB_BELOW)
    code, rep = run_json(capsys, "decide", "-i", str(p), "-l", "4",
                         "--verify")
    assert (code, rep["answer"], rep["evaluated_degree"],
            rep["repetitions"]) == (1, "ZERO", 4, 2)
    assert rep["error_bound_log2"] == -124.0
    assert rep["verify"]["match"] is True


def test_mincost(capsys, paths_file):
    code, rep = run_json(capsys, "mincost", "-i", paths_file, "--verify")
    assert code == 0
    assert rep["cost"] == 2
    assert rep["verify"] == {"oracle_cost": 2, "match": True}


def test_mincost_exact_none(capsys, tmp_path):
    # no two disjoint paths: an exact None, reported as 0 repetitions
    p = tmp_path / "b.paths"
    p.write_text(BOTTLENECK)
    code, rep = run_json(capsys, "mincost", "-i", str(p), "--verify")
    assert (code, rep["cost"], rep["repetitions"]) == (1, None, 0)
    assert rep["verify"] == {"oracle_cost": None, "match": True}


# one path, 4 -> 1 -> 2 at cost 4, whose slice evaluates to zero at the
# single GF(2^8) point that seed 263 draws
FALSE_ZERO = """\
q paths 4 4 1
x 4
y 2
e 4 1 2
e 1 2 2
e 3 4 3
e 3 1 2
"""

# every edge of BOTTLENECK at cost 100: simple_cost_cap() is 300, beyond
# GF(2^8), but no two disjoint paths exist
BOTTLENECK_100 = "".join(
    ln + " 100\n" if ln.startswith("e ") else ln + "\n"
    for ln in BOTTLENECK.splitlines())


def test_mincost_false_zero_exits_3(capsys, tmp_path):
    # a run of false zeros on an instance with k disjoint paths is not an
    # answer: it used to print "cost": null (a mismatch against the
    # oracle's 4) and now exits 3, with or without --verify
    p = tmp_path / "z.paths"
    p.write_text(FALSE_ZERO)
    for extra in ([], ["--verify"]):
        code = cli.main(["mincost", "-i", str(p), "--field-exp", "8",
                         "--reps", "1", "--seed", "263", *extra])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith("budget error: no nonzero slice")


# one path 1 -> 2 -> 3 among 257 vertices: the tests run at degree 2, but
# the default repetitions must cover degree n - 1 = 256
# 257 vertices, x1 -> 2 -> y1 and a longer route x1 -> 4 -> 5 -> y1 that
# the Menger search takes, so that -l 2 is answered by the tables
DETOUR_257 = "q paths 257 5 1\nx 1\ny 3\ne 1 2\ne 2 3\ne 1 4\ne 4 5\ne 5 3\n"


def test_field_too_small_for_the_error_target(capsys, tmp_path):
    # GF(2^8) has 256 <= n - 1 elements: no repetition count meets
    # 2^-max(n, 64), so the default is an input error, and an explicit
    # --reps runs
    p = tmp_path / "detour.paths"
    p.write_text(DETOUR_257)
    code = cli.main(["decide", "-i", str(p), "-l", "2", "--field-exp", "8"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("input error: field of size 2^8 meets no error")
    code, rep = run_json(capsys, "decide", "-i", str(p), "-l", "2",
                         "--field-exp", "8", "--reps", "3")
    assert (code, rep["answer"], rep["evaluated_degree"],
            rep["repetitions"], rep["error_bound_log2"]) == (
                0, "NONZERO", 2, 3, None)


@pytest.mark.parametrize("subcommand", ["mincost", "find"])
def test_exact_none_before_field_check(capsys, tmp_path, subcommand):
    # no two disjoint paths: the exact None comes before the field check,
    # which GF(2^8) would fail at degree 300, and on 257 vertices (past
    # the oracle's reach) before the default repetition count, which
    # GF(2^8) meets at no t there
    p = tmp_path / "b.paths"
    for text, verify in (
            (BOTTLENECK_100, ["--verify"]),
            (BOTTLENECK.replace("q paths 5 4 2", "q paths 257 4 2"), [])):
        p.write_text(text)
        code, rep = run_json(capsys, subcommand, "-i", str(p),
                             "--field-exp", "8", *verify)
        assert (code, rep["cost"], rep["repetitions"]) == (1, None, 0)
        if verify:
            assert rep["verify"] == {"oracle_cost": None, "match": True}


# two parallel capacity-3 arcs carrying a value-3 flow: the network has
# 2 vertices, its gadget 2k + 6 = 12, and the gadget's search runs at
# degree 9, where the default count is 2 (1 at n = 2)
PARALLEL_ARCS = "p min 2 2\nn 1 3\nn 2 -3\na 1 2 0 3 1\na 1 2 0 3 2\n"


@pytest.mark.parametrize("argv, text, reps", [
    (["decide", "-l", "4"], HUB_BELOW, 2),
    (["mincost"], BIPARTITE, 2),
    (["find"], BIPARTITE, 2),
    (["find", "--strategy", "isolation"], BIPARTITE, 2),
    (["flow"], PARALLEL_ARCS, 2),
    (["mincost", "--reps", "5"], BIPARTITE, 5),
], ids=["decide", "mincost", "find", "isolation", "flow", "reps"])
def test_reported_repetitions_are_the_points_drawn(capsys, tmp_path,
                                                   monkeypatch, argv, text,
                                                   reps):
    # every search (not the one-point edge tests) draws as many points as
    # the report's repetitions, the count resolved on the graph searched
    drawn = []
    draw = cli.decision.TestParams.assignments

    def spy(self, instance, degree, *stream):
        points = list(draw(self, instance, degree, *stream))
        if stream[0] not in ("deletion", "isolation-tests"):
            drawn.append(len(points))
        return iter(points)

    monkeypatch.setattr(cli.decision.TestParams, "assignments", spy)
    p = tmp_path / "inst.in"
    p.write_text(text)
    _, rep = run_json(capsys, *argv, "-i", str(p), "--verify")
    assert rep["verify"]["match"] is True
    assert drawn and set(drawn) == {rep["repetitions"]} == {reps}


def test_find(capsys, paths_file):
    code, rep = run_json(capsys, "find", "-i", paths_file, "--verify")
    assert code == 0
    assert rep["cost"] == 2
    assert sorted(rep["paths"]) == [[1, 3], [2, 4]]
    assert rep["strategy"] == "deletion"
    assert rep["retries_used"] == 0
    assert rep["verify"]["match"] is True


def test_find_infeasible_exit(capsys, tmp_path):
    p = tmp_path / "b.paths"
    p.write_text(BOTTLENECK)
    code, rep = run_json(capsys, "find", "-i", str(p), "--verify")
    assert code == 1
    assert rep["cost"] is None and rep["paths"] is None
    # no two disjoint paths: an exact None that ran no repetition
    assert rep["repetitions"] == 0 and rep["retries_used"] is None
    assert rep["verify"] == {"oracle_cost": None, "match": True}


def layered_text(rng, k, width, depth, cost_max=None):
    """Paths text shaped like the benchmark's layered instances: `depth`
    layers of `width` inner vertices, k chains planted straight through
    them, two random edges from every source and inner vertex into the
    next layer (the sinks after the last), and `width` random edges one
    layer back; costs from 1 to cost_max when it is given.  Every path
    has at least depth + 1 edges, so at unit costs the optimum is
    k (depth + 1), the planted chains."""
    sources, sinks = range(1, k + 1), range(k + 1, 2 * k + 1)
    layers = [range(2 * k + 1 + j * width, 2 * k + 1 + (j + 1) * width)
              for j in range(depth)]
    steps = [sources, *layers, sinks]
    edges = [(a[i], b[i]) for a, b in zip(steps, steps[1:]) for i in range(k)]
    edges += [(u, rng.choice(b)) for a, b in zip(steps, steps[1:])
              for u in a for _ in range(2)]
    for _ in range(width):
        j = rng.randrange(1, depth)
        edges.append((rng.choice(layers[j]), rng.choice(layers[j - 1])))
    lines = [f"q paths {2 * k + width * depth} {len(edges)} {k}"]
    lines += [f"x {x}" for x in sources] + [f"y {y}" for y in sinks]
    lines += [f"e {u} {v}" + (f" {rng.randint(1, cost_max)}" if cost_max
                              else "") for u, v in edges]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv, cost_max, code", [
    (["decide", "-l", "27"], None, 0),
    (["decide", "-l", "26"], None, 1),
    (["mincost"], 4, 0),
    (["find"], 4, 0),
], ids=["decide-at-optimum", "decide-below", "mincost", "find"])
def test_verify_past_the_brute_force_limit(capsys, tmp_path, argv, cost_max,
                                           code):
    # 54 vertices, past the brute force's 10: --verify checks paths
    # queries against the exact min-cost flow on the split graph.  At unit
    # costs the optimum is 3 * 9 = 27.
    p = tmp_path / "layered.paths"
    p.write_text(layered_text(random.Random(5), 3, 6, 8, cost_max))
    got, rep = run_json(capsys, *argv, "-i", str(p), "--verify")
    assert (got, rep["verify"]["match"]) == (code, True)


def test_find_retries_exhausted_exit(capsys, tmp_path, monkeypatch):
    # every attempt's assembly fails
    def failing(*args):
        raise cli.extraction.AssemblyError("no paths")

    monkeypatch.setattr(cli.extraction, "assemble_paths", failing)
    p = tmp_path / "sym.paths"
    p.write_text(SYMMETRIC)
    code = cli.main(["find", "-i", str(p),
                     "--strategy", "isolation", "--max-retries", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert "budget" in err
    assert "no attempt succeeded in 2 tries" in err


def test_negative_max_retries_exit(capsys, paths_file, tmp_path):
    # exit 2 (input error), not 3 with "no attempt succeeded in 0 tries"
    code = cli.main(["find", "-i", paths_file, "--max-retries", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "max_retries -1 below 0" in err
    p = tmp_path / "k.dimacs"
    p.write_text(TWO_ROUTES)
    code = cli.main(["flow", "-i", str(p), "--max-retries", "-2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "max_retries -2 below 0" in err


def test_flow_verify(capsys, tmp_path):
    p = tmp_path / "k.dimacs"
    p.write_text(TWO_ROUTES)
    gout = tmp_path / "gadget.paths"
    code, rep = run_json(capsys, "flow", "-i", str(p), "--verify",
                         "--dump-gadget", str(gout))
    assert code == 0
    assert rep["cost"] == 4
    assert sorted(rep["flow"]) == [[1, 2, 1, 1], [1, 3, 1, 1],
                                   [2, 4, 1, 1], [3, 4, 1, 1]]
    assert rep["verify"]["match"] is True
    from smallflow.flow import build_gadget_network
    from smallflow.network import parse_dimacs_flow, parse_paths_instance
    gadget = parse_paths_instance(gout.read_text())
    K = parse_dimacs_flow(TWO_ROUTES)
    assert gadget == build_gadget_network(K).instance
    assert (gadget.k, gadget.n, gadget.m) == (2, 8, 6)


def test_flow_exact_none(capsys, tmp_path):
    # 1 -> 2 -> 3 carries one unit, not two: the gadget has no two
    # disjoint paths, an exact None that ran no repetition
    p = tmp_path / "k.dimacs"
    p.write_text("p min 3 2\nn 1 2\nn 3 -2\na 1 2 0 1 1\na 2 3 0 1 1\n")
    code, rep = run_json(capsys, "flow", "-i", str(p), "--verify")
    assert (code, rep["cost"], rep["repetitions"]) == (1, None, 0)
    assert rep["verify"] == {"oracle_cost": None, "match": True}


def test_flow_builds_gadget_once(capsys, tmp_path, monkeypatch):
    # the gadget is built by min_cost_flow alone, unless --dump-gadget
    # asks for it to be written
    built = []
    real = cli.flow_mod.build_gadget_network

    def counting(K):
        built.append(K)
        return real(K)

    monkeypatch.setattr(cli.flow_mod, "build_gadget_network", counting)
    p = tmp_path / "k.dimacs"
    p.write_text(TWO_ROUTES)
    code, rep = run_json(capsys, "flow", "-i", str(p))
    assert (code, rep["cost"], len(built)) == (0, 4, 1)


def test_oracle_subcommand(capsys, paths_file):
    code, rep = run_json(capsys, "oracle", "-i", paths_file)
    assert code == 0
    assert rep["cost"] == 2


def test_oracle_flow_rejects_length_bound(capsys, tmp_path):
    # a length bound applies to paths instances only: exit 2, not a cost
    # that ignores it
    p = tmp_path / "k.dimacs"
    p.write_text(TWO_ROUTES)
    code = cli.main(["oracle", "--kind", "flow", "-l", "5", "-i", str(p)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("input error: --length-bound applies to paths")


def test_malformed_input_exit(capsys, tmp_path):
    p = tmp_path / "bad.paths"
    p.write_text("q paths 2 1 1\nx 1\ny 1\ne 1 2\n")
    code = cli.main(["decide", "-i", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err
    assert "not disjoint" in err


def test_vertex_count_past_32_bits_exit(capsys, tmp_path):
    # vertex ids are held 4 bytes each, so a header of 2^32 vertices is an
    # input error, refused before any per-vertex list is allocated
    p = tmp_path / "huge.paths"
    p.write_text("q paths 4294967296 1 1\nx 1\ny 2\ne 1 2\n")
    code = cli.main(["decide", "-i", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err
    assert "fewer than 2^32" in err


def test_flow_vertex_count_past_32_bits_exit(capsys, tmp_path):
    # a flow network has the same bound, so the header is an input error
    # before the gadget build reads any vertex
    p = tmp_path / "huge.dimacs"
    p.write_text("p min 4294967296 1\nn 1 1\nn 2 -1\na 1 2 0 1 1\n")
    code = cli.main(["flow", "-i", str(p)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("input error: need at least 2 vertices and "
                          "fewer than 2^32")


_FRESH_HEADER = """
import json, resource, sys, time
from smallflow import cli
t0 = time.perf_counter()
codes = [cli.main([sub, "-i", sys.argv[1]])
         for sub in ("decide", "mincost", "find")]
print(json.dumps([codes, time.perf_counter() - t0,
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
"""


def test_declared_vertices_charged_before_the_instance(tmp_path):
    # In a fresh interpreter: a one-edge paths header of 2^32 - 1
    # vertices is charged one cell per vertex against the ceiling before
    # PathInstance builds a list per vertex (about 300 GB here), so each
    # query exits 3 at once.  ru_maxrss is in KiB on Linux.
    p = tmp_path / "huge.paths"
    p.write_text("q paths 4294967295 1 1\nx 1\ny 2\ne 1 2\n")
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _FRESH_HEADER, str(p)],
                         capture_output=True, text=True, env=env,
                         check=True, timeout=60)
    codes, seconds, max_rss_kib = json.loads(run.stdout)
    assert codes == [3, 3, 3]
    assert run.stderr.count("budget error: 4294967295 table cells") == 3
    assert seconds < 1
    assert max_rss_kib < 64 << 10


def test_flow_verify_past_32_bit_header(capsys, tmp_path):
    # the exact oracle keys its tables by the vertices that arcs name, so
    # --verify checks a one-arc network of 2^32 - 1 vertices at once
    p = tmp_path / "huge.dimacs"
    p.write_text("p min 4294967295 1\nn 1 1\nn 2 -1\na 1 2 0 1 1\n")
    t0 = time.perf_counter()
    code, rep = run_json(capsys, "flow", "-i", str(p), "--verify")
    assert time.perf_counter() - t0 < 1
    assert code == 0
    assert rep["verify"] == {"oracle_cost": 1, "match": True}


def test_report_reproducible(capsys, paths_file):
    def strip(rep):
        rep.pop("timing_ms")
        return rep

    _, a = run_json(capsys, "find", "-i", paths_file, "--seed", "5")
    _, b = run_json(capsys, "find", "-i", paths_file, "--seed", "5")
    assert strip(a) == strip(b)


def test_text_format_and_out_file(capsys, paths_file, tmp_path):
    out = tmp_path / "report.txt"
    code, _ = run_cli(capsys, "mincost", "-i", paths_file, "--format", "text",
                      "--out", str(out))
    assert code == 0
    assert "cost: 2" in out.read_text()


def test_verification_mismatch_exit(capsys, paths_file, monkeypatch):
    monkeypatch.setattr(cli.decision, "min_cost_disjoint_paths",
                        lambda *a, **kw: 7)
    code, rep = run_json(capsys, "mincost", "-i", paths_file, "--verify")
    assert code == 4
    assert rep["verify"]["match"] is False


def test_decide_parallelism_same_answer(capsys, tmp_path):
    def strip(rep):
        rep.pop("timing_ms")
        return rep

    p = tmp_path / "detour.paths"
    p.write_text(DETOUR)
    _, a = run_json(capsys, "decide", "-i", str(p), "-l", "4")
    _, b = run_json(capsys, "decide", "-i", str(p), "-l", "4",
                    "--parallelism", "2")
    assert strip(a) == strip(b)
    assert (a["answer"], a["evaluated_degree"]) == ("NONZERO", 4)


def test_parallelism_below_one_exit(capsys, paths_file, tmp_path):
    # exit 2 whether or not the query evaluates a table: an evaluated
    # bound, one the Menger search's paths meet, one below the floor (2 at
    # k = 2), and an instance without two disjoint paths all answer
    # without one at a valid parallelism
    p = tmp_path / "b.paths"
    p.write_text(BOTTLENECK)
    detour = tmp_path / "detour.paths"
    detour.write_text(DETOUR)
    for inst, l in ((str(detour), "4"), (paths_file, "2"), (paths_file, "1"),
                    (str(p), "4")):
        for value in ("0", "-3"):
            code = cli.main(["decide", "-i", inst, "-l", l,
                             "--parallelism", value])
            assert code == 2, (inst, l, value)
            assert f"parallelism {value} below 1" in \
                capsys.readouterr().err


def test_memory_limit_flag(capsys, paths_file, monkeypatch):
    # the ceiling holds inside its own call only: the query sees it, and
    # main restores the one it found on an answer and on an input error
    from smallflow import evaluator
    before = evaluator.DEFAULT_MEMORY_LIMIT
    mincost = cli.decision.min_cost_disjoint_paths
    seen = []

    def spy(*args, **kwargs):
        seen.append(evaluator.DEFAULT_MEMORY_LIMIT)
        return mincost(*args, **kwargs)

    monkeypatch.setattr(cli.decision, "min_cost_disjoint_paths", spy)
    code, _ = run_json(capsys, "mincost", "-i", paths_file,
                       "--memory-limit-mib", "64")
    assert code == 0
    assert seen == [64 << 20]
    assert evaluator.DEFAULT_MEMORY_LIMIT == before
    for value in ("0", "-5"):
        code = cli.main(["mincost", "-i", paths_file,
                         "--memory-limit-mib", value])
        assert code == 2
        assert "memory-limit-mib" in capsys.readouterr().err
        assert evaluator.DEFAULT_MEMORY_LIMIT == before


def test_memory_limit_bounds_the_flow_gadget(capsys, tmp_path):
    # a value-300 flow on one arc: its gadget (900 vertices, 600 edges)
    # fits, but the scan graph's distance tables over 2^300 terminal masks
    # are refused before they are built
    from smallflow import evaluator
    before = evaluator.DEFAULT_MEMORY_LIMIT
    p = tmp_path / "k.dimacs"
    p.write_text("p min 2 1\nn 1 300\nn 2 -300\na 1 2 0 300 1\n")
    try:
        code = cli.main(["flow", "-i", str(p), "--memory-limit-mib", "1"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith("budget error: ")
        assert evaluator.DEFAULT_MEMORY_LIMIT == before
    finally:
        evaluator.set_default_memory_limit(before)


def test_isolation_range_options(capsys, paths_file, tmp_path):
    p = tmp_path / "k.dimacs"
    p.write_text(TWO_ROUTES)
    with pytest.raises(SystemExit) as exc:
        cli.main(["flow", "-i", str(p), "-r", "paper"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, rep = run_json(capsys, "find", "-i", paths_file,
                         "--strategy", "isolation")
    assert code == 0
    assert rep["isolation_range"] == 4 * 4 * 4
    assert rep["deviations"] == []
    code, rep = run_json(capsys, "find", "-i", paths_file)
    assert rep["isolation_range"] is None and rep["deviations"] == []


def test_isolation_field_checked_below_the_optimum(capsys, tmp_path):
    # isolation searches its perturbed costs up to their simple-set cap,
    # 76,093 here, beyond GF(2^16).  The field is checked at that cap's
    # slice_degree: every perturbed edge costs at least the scale 4097
    # plus 1, so it is at most 76,093 // 4,098 = 18, and a path set has
    # at most min(m, n - k) = 7 edges, so the degree is 7, which GF(2^8)
    # holds as well as GF(2^16)
    p = tmp_path / "chain.paths"
    p.write_text("q paths 8 8 1\nx 6\ny 1\ne 6 5 3\ne 5 7 1\ne 7 2 2\n"
                 "e 2 8 3\ne 8 4 3\ne 4 1 2\ne 5 7 2\ne 1 6 3\n")
    for exponent in ("16", "8"):
        code, rep = run_json(capsys, "find", "-i", str(p), "--strategy",
                             "isolation", "--field-exp", exponent,
                             "--verify")
        assert (code, rep["cost"], rep["isolation_range"]) == (0, 14, 512)
        assert rep["verify"] == {"oracle_cost": 14, "match": True}


def test_isolation_range_is_n2m(capsys, tmp_path):
    # n = 8, m = 8: the range is n^2 m = 512, not max(64, 4m) = 64
    p = tmp_path / "hub.paths"
    p.write_text(HUB_BELOW)
    code, rep = run_json(capsys, "find", "-i", str(p), "--strategy",
                         "isolation", "--verify")
    assert (code, rep["cost"], rep["isolation_range"]) == (0, 6, 8 * 8 * 8)
    assert rep["verify"]["match"] is True and rep["deviations"] == []


@pytest.mark.parametrize("argv", [["find", "-r", "64"],
                                  ["find", "--isolation-range", "paper"],
                                  ["mincost", "--u-max", "5"],
                                  ["oracle", "--field-exp", "16"],
                                  ["oracle", "--reps", "2"],
                                  ["oracle", "--seed", "1"],
                                  ["oracle", "--verify"],
                                  ["oracle", "--memory-limit-mib", "64"]])
def test_removed_knobs_rejected_by_parser(capsys, paths_file, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "-i", paths_file])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["-i", "--out", "--dump-gadget"])
def test_unopenable_file_exit(capsys, tmp_path, flag):
    # a directory cannot be opened as a file: exit 2, not a traceback
    p = tmp_path / "k.dimacs"
    p.write_text(TWO_ROUTES)
    argv = ["flow", "-i", str(p), flag, str(tmp_path)]
    code = cli.main(argv)
    assert code == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_readme_cli_examples_parse():
    # every `smallflow ...` line in the README's CLI block uses only
    # subcommands and flags that the parser still has
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```", 2)[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("smallflow ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


# -- golden reports -----------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden_cli"

# name -> (instance text, subcommand and flags); every case runs in both
# formats, and with --verify unless it is the oracle, which takes none.
# tests/golden_cli holds the reports (without timing_ms) and exit codes
# that each case gave before the subcommands shared one report path; the
# two oracle_* cases were recorded before the oracle's reports joined it,
# and oracle_length again once a length-bounded answer was labelled
# `length` instead of `cost`.  decide_nonzero was recorded again once the
# Menger search's own paths answered it exactly (no evaluated degree, no
# repetition), and decide_evaluated_nonzero was added then, for a
# NONZERO that the length tables give.
GOLDEN_CASES = {
    "decide_nonzero": (BIPARTITE, ["decide", "-l", "2"]),
    "decide_evaluated_nonzero": (DETOUR, ["decide", "-l", "4"]),
    "decide_floor_zero": (BOTTLENECK, ["decide"]),
    "mincost": (BIPARTITE, ["mincost"]),
    "find_deletion": (BIPARTITE, ["find"]),
    "find_isolation": (BIPARTITE, ["find", "--strategy", "isolation"]),
    "flow": (TWO_ROUTES, ["flow"]),
    "oracle": (BIPARTITE, ["oracle"]),
    "oracle_flow": (TWO_ROUTES, ["oracle", "--kind", "flow"]),
    "oracle_length": (BIPARTITE, ["oracle", "-l", "2"]),
}

# Fields that differ from the recordings by design (DROPPED: the field is
# gone).  A floor ZERO runs no table, so it reports no evaluated degree
# (the recording has min(l, m, n - k) = 3) and no repetition (the
# recording has the configured 3).  mincost has no cost ceiling option: it
# reports no u_max, and no deviation for its C n^2 default.
DROPPED = object()
GOLDEN_CHANGED = {"decide_floor_zero": {"evaluated_degree": None,
                                        "repetitions": 0},
                  "mincost": {"u_max": DROPPED, "deviations": []}}


def golden_run(capsys, tmp_path, name, fmt):
    """Exit code and report text of one golden case, timing line removed."""
    text, argv = GOLDEN_CASES[name]
    p = tmp_path / f"{name}.in"
    p.write_text(text)
    verify = [] if argv[0] == "oracle" else ["--verify"]
    code, out = run_cli(capsys, *argv, "-i", str(p), *verify,
                        "--format", fmt)
    if fmt == "json":
        rep = json.loads(out)
        rep.pop("timing_ms")
        return code, rep
    return code, [ln for ln in out.splitlines()
                  if not ln.startswith("timing_ms: ")]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_reports_match_golden(capsys, tmp_path, name):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    changed = GOLDEN_CHANGED.get(name, {})
    code, rep = golden_run(capsys, tmp_path, name, "json")
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    want = {key: changed.get(key, value) for key, value in want.items()
            if changed.get(key) is not DROPPED}
    assert (code, rep) == (codes[name], want)
    code, lines = golden_run(capsys, tmp_path, name, "text")
    want = (GOLDEN / f"{name}.txt").read_text().splitlines()
    want = [f"{key}: {changed[key]}" if key in changed else ln
            for ln in want for key in [ln.split(": ", 1)[0]]
            if changed.get(key) is not DROPPED]
    assert (code, lines) == (codes[name], want)

