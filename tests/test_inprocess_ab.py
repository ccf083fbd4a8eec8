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
