"""The answers on perfbench's seed-1 batches, pinned by digest, and the
scan work that gives them, pinned by count.

tools/answer_digest.py hashes every answer, witness and path set that
the library gives on the `decide`, `mincost` and `flow` batches (and
the `flow` costs alone, isolation, the d0 supports and criterion 7's
table), and counts the slice scans each batch ran, the scan states and
moves it materialized, the isolation attempts, and the feasible `flow`
gadgets whose Menger paths already cost the scan graph's floor.  This
test runs the tool's own functions on the 1-s batches and compares with
the values that `python3 tools/answer_digest.py --seed 1 --seconds 1`
printed.  A change that means to change an answer, or to run other
scans or materialize other states, edits the pinned value here and says
why.

The `decide` digest changed when the Menger search's own paths began to
answer a NONZERO exactly wherever they meet the length bound: those
verdicts hold degree and witness None where they held the tables'
degree and point.  Every verdict's answer stayed the same, checked
query by query against the earlier code with tools/inprocess_ab.py at
seeds 1 to 3.
"""

import importlib.util
import re
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "answer_digest.py"

PINNED = {
    "decide": "9b3518f045625433",
    "mincost": "aef65ae1bf826d68",
    "flow": "260cf0770fe15404",
    "flowcost": "7a62fe35ecb508a0",
    "isolation": "b48fb2fda7791d4f",
    "support": "2e867299465be35e",
    "table": "a830a810b637427e",
}

# name -> (scan states, scan moves) materialized, and isolation's attempts
WORK = {
    "decide": (0, 0),
    "mincost": (630, 1721),
    "flow": (313, 608),
    "flowcost": (313, 608),
    "isolation": (199, 397),
    "support": (313, 608),
}
# name -> slice scans run, on the lines whose queries scan, at
# t = default_repetitions(n): 2 on every query of these batches
SCANS = {
    "mincost": 16,
    "flow": 96,
    "flowcost": 96,
    "isolation": 35,
}
ISOLATION_ATTEMPTS = 31
# decide's verdicts: exact (degree None) and evaluated
DECIDE_VERDICTS = (19, 17)
# feasible flow gadgets (31 of them) whose menger_paths() cost the floor
FLOW_AT_FLOOR = 18


def test_answers_match_the_pinned_digests(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends
    spec = importlib.util.spec_from_file_location("answer_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    got, work, scans = {}, {}, {}
    for line in tool.lines(seed=1, seconds=1):
        name, digest = line.split()[:2]
        got[name] = digest
        counts = re.search(r"  (\d+) states  (\d+) moves$", line)
        if counts:
            work[name] = tuple(map(int, counts.groups()))
        ran = re.search(r"  (\d+) scans  ", line)
        if ran:
            scans[name] = int(ran.group(1))
        if name == "decide":
            assert f"  {DECIDE_VERDICTS[0]} exact  {DECIDE_VERDICTS[1]} " \
                "evaluated  " in line, line
        if name == "flow":
            assert f"  {FLOW_AT_FLOOR} at floor  " in line, line
        if name == "isolation":
            # both strategies give minimum costs, so they agree on each
            assert "  0 costs differ from deletion's" in line, line
            assert f"  {ISOLATION_ATTEMPTS} attempts  " in line, line
    assert got == PINNED
    assert work == WORK
    assert scans == SCANS
