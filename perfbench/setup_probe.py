"""Set-up probe: what a run does between process start and its first query.

Imports smallflow from the checkout's src/, reads [kind, texts] as JSON
from standard input, parses every text with smallflow.network, and prints
"ready".  run.py times it from process start to that line.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import smallflow  # noqa: E402  (the import is part of what is timed)
from smallflow import network  # noqa: E402

kind, texts = json.load(sys.stdin)
parse = network.parse_paths_instance if kind == "paths" \
    else network.parse_dimacs_flow
for text in texts:
    parse(text)
print("ready", smallflow.__version__, flush=True)
