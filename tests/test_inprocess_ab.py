"""tools/inprocess_ab.py on one checkout against itself."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "inprocess_ab.py"


def test_checkout_against_itself():
    # two 1-s rounds of the flow batch, each query run on both copies
    out = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload",
         "flow", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, check=True, timeout=120).stdout
    lines = out.splitlines()
    assert [line.split()[:2] for line in lines[:2]] == [
        ["round", "0"], ["round", "1"]]
    assert re.fullmatch(r"median A/B \d+\.\d{4}  range \d+\.\d{4}-\d+\.\d{4}"
                        r"  over 2 rounds", lines[2])
    assert lines[3:] == ["answers agree"]


def test_decide_verdicts_compared_by_answer(monkeypatch):
    # a decide verdict agrees by its answer; a witness or degree that
    # differs (an exact verdict against an evaluated one) is counted apart
    import importlib.util
    from array import array

    from smallflow.decision import NONZERO, ZERO, Verdict
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends
    spec = importlib.util.spec_from_file_location("inprocess_ab", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    evaluated = Verdict(NONZERO, array("Q", [5]), 4)
    assert tool.differences("decide", Verdict(NONZERO), evaluated) == (
        False, True)
    assert tool.differences("decide", evaluated, evaluated) == (False, False)
    assert tool.differences("decide", Verdict(ZERO), evaluated) == (
        True, False)
    assert tool.differences("mincost", 3, 4) == (True, False)
    out = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload",
         "decide", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, check=True, timeout=120).stdout
    lines = out.splitlines()
    assert lines[-2] == "answers agree"
    assert re.fullmatch(r"witness or degree differ on 0 of \d+ verdicts "
                        r"with the same answer", lines[-1])
