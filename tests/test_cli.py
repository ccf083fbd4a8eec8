import json

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


def test_mincost(capsys, paths_file):
    code, rep = run_json(capsys, "mincost", "-i", paths_file, "--verify")
    assert code == 0
    assert rep["cost"] == 2
    assert rep["verify"] == {"oracle_cost": 2, "match": True}
    assert any("C n^2" in d for d in rep["deviations"])


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
    code, rep = run_json(capsys, "find", "-i", str(p))
    assert code == 1
    assert rep["cost"] is None and rep["paths"] is None


def test_find_retries_exhausted_exit(capsys, tmp_path):
    p = tmp_path / "sym.paths"
    p.write_text(SYMMETRIC)
    code = cli.main(["find", "-i", str(p), "-r", "1",
                     "--strategy", "isolation", "--max-retries", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert "budget" in err


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
    from smallflow.network import parse_paths_instance
    gadget = parse_paths_instance(gout.read_text())
    assert gadget.k == 2


def test_oracle_subcommand(capsys, paths_file):
    code, rep = run_json(capsys, "oracle", "-i", paths_file)
    assert code == 0
    assert rep["cost"] == 2


def test_malformed_input_exit(capsys, tmp_path):
    p = tmp_path / "bad.paths"
    p.write_text("q paths 2 1 1\nx 1\ny 1\ne 1 2\n")
    code = cli.main(["decide", "-i", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err
    assert "not disjoint" in err


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


def test_decide_parallelism_same_answer(capsys, paths_file):
    def strip(rep):
        rep.pop("timing_ms")
        return rep

    _, a = run_json(capsys, "decide", "-i", paths_file, "-l", "2")
    _, b = run_json(capsys, "decide", "-i", paths_file, "-l", "2",
                    "--parallelism", "2")
    assert strip(a) == strip(b)


def test_memory_limit_flag(capsys, paths_file):
    from smallflow import evaluator
    before = evaluator.DEFAULT_MEMORY_LIMIT
    try:
        code, _ = run_json(capsys, "mincost", "-i", paths_file,
                           "--memory-limit-mib", "64")
        assert code == 0
        assert evaluator.DEFAULT_MEMORY_LIMIT == 64 << 20
        for value in ("0", "-5"):
            code = cli.main(["mincost", "-i", paths_file,
                             "--memory-limit-mib", value])
            assert code == 2
            assert "memory-limit-mib" in capsys.readouterr().err
        assert evaluator.DEFAULT_MEMORY_LIMIT == 64 << 20
    finally:
        evaluator.set_default_memory_limit(before)


def test_isolation_range_options(capsys, paths_file, tmp_path):
    p = tmp_path / "k.dimacs"
    p.write_text(TWO_ROUTES)
    with pytest.raises(SystemExit) as exc:
        cli.main(["flow", "-i", str(p), "-r", "paper"])
    assert exc.value.code == 2
    capsys.readouterr()
    code = cli.main(["find", "-i", paths_file, "-r", "paper"])
    assert code == 2
    assert "--strategy isolation" in capsys.readouterr().err
    code, rep = run_json(capsys, "find", "-i", paths_file, "-r", "paper",
                         "--strategy", "isolation")
    assert code == 0
    assert rep["isolation_range"] == 4 * 4 * 4
    assert rep["deviations"] == []
    code, rep = run_json(capsys, "find", "-i", paths_file)
    assert rep["isolation_range"] is None and rep["deviations"] == []


def test_bench_csv(capsys):
    code, out = run_cli(capsys, "bench", "--sizes", "10,1,1;10,2,1;10,3,1",
                        "--degrees", "1,2", "-l", "6", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    header, rows = lines[0], lines[1:]
    assert header.startswith("n,k,C,l,degree")
    assert len(rows) == 3 * 2
    cells = {}
    for row in rows:
        parts = row.split(",")
        n, k, c, l, degree = (int(x) for x in parts[:5])
        cells[(k, degree)] = int(parts[6])
        assert parts[8].startswith("0x")
    # fixed l: subset table doubles exactly per unit of k
    assert cells[(2, 1)] == 2 * cells[(1, 1)]
    assert cells[(3, 1)] == 2 * cells[(2, 1)]
    # identical values across degrees
    for row in rows:
        parts = row.split(",")
    values = {}
    for row in rows:
        parts = row.split(",")
        values.setdefault(int(parts[1]), set()).add(parts[8])
    assert all(len(v) == 1 for v in values.values())
