"""Fuzz of the CLI: mutated valid inputs of both formats, with numbers
up to 2^64, through every subcommand in process."""

import contextlib
import io
import os
import tempfile

import pytest

from smallflow import cli
from test_cli import BIPARTITE, HUB_BELOW, TWO_ROUTES

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# every query subcommand a format takes, with --verify where it applies
_FUZZ_ARGV = {
    "paths": [["decide"], ["decide", "-l", "3"], ["mincost", "--verify"],
              ["find", "--verify"], ["find", "--strategy", "isolation"],
              ["oracle"]],
    "dimacs": [["flow", "--verify"], ["oracle", "--kind", "flow"]],
}


@st.composite
def _mutated_input(draw):
    """(format, text): a valid paths or DIMACS text with one to three of
    its numbers (header n, m or k, a vertex id, cost, capacity, lower
    bound or supply) replaced by an integer from -2 to 2^64.  A new
    supply at the source is also the sink's demand, so that the value
    drawn is the one a query runs at."""
    fmt, text = draw(st.sampled_from([("paths", BIPARTITE),
                                      ("paths", HUB_BELOW),
                                      ("dimacs", TWO_ROUTES)]))
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        numbers = [j for j, tok in enumerate(lines[i])
                   if tok.lstrip("-").isdigit()]
        if numbers:
            j = draw(st.sampled_from(numbers))
            lines[i][j] = str(draw(
                st.one_of(st.integers(-2, 8), st.integers(-2, 1 << 64))))
            if lines[i][:2] == ["n", "1"] and j == 2:
                lines[i + 1][2] = str(-int(lines[i][j]))
    return fmt, "\n".join(map(" ".join, lines)) + "\n"


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(_mutated_input())
def test_cli_exits_cleanly_on_mutated_input(case):
    # every subcommand exits with a code from 0 to 4 and prints no
    # traceback; each query runs under a 64 MiB ceiling (the oracle
    # subcommand takes no ceiling: it has its own vertex limit)
    fmt, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in _FUZZ_ARGV[fmt]:
            ceiling = [] if argv[0] == "oracle" else [
                "--memory-limit-mib", "64"]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main([*argv, "-i", path, *ceiling])
            assert code in range(5), (argv, text)
            assert "Traceback" not in err.getvalue()
