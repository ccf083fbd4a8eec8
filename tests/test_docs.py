"""The README's map from the paper to the code, tools/line_count.py, and
the library's docstrings."""

import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import smallflow

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _section(text, title):
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def test_paper_map_names_real_functions_and_tests():
    readme = (ROOT / "README.md").read_text()
    rows = [line for line in _section(readme, "From the paper to the code")
            .splitlines() if line.startswith("| ")][1:]  # after the header
    deviations = _section(readme, "Deviations from the paper")
    assert len(rows) >= 7
    for row in rows:
        step, claim, carried, checked, departs = \
            [cell.strip() for cell in row.strip("|").split("|")]
        assert step and claim, row
        names = re.findall(r"`(smallflow(?:\.\w+)+)`", carried)
        assert names, row
        for dotted in names:
            assert callable(pkgutil.resolve_name(dotted)), dotted
        tests = re.findall(r"`(tests/[\w/]+\.py)::(\w+)`", checked)
        assert tests, row
        for path, name in tests:
            assert re.search(rf"^def {name}\(", (ROOT / path).read_text(),
                             re.M), f"{path}::{name}"
        if departs != "no":
            title, anchor = re.fullmatch(r"\[(.+)\]\((#.+)\)",
                                         departs).groups()
            assert anchor == "#deviations-from-the-paper", row
            assert f"\n* {title}.  " in deviations, title


def test_line_count_columns_add_up():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "line_count.py"),
                          str(SRC)], capture_output=True, text=True,
                         check=True, timeout=60).stdout.splitlines()
    assert out[0].split() == ["module", "code", "docstring", "comment",
                              "blank", "total"]
    rows = {line.split()[0]: list(map(int, line.split()[1:]))
            for line in out[1:]}
    total = rows.pop("total")
    files = sorted(SRC.rglob("*.py"))
    assert sorted(rows) == sorted(str(p.relative_to(SRC)) for p in files)
    for path in files:
        code, docs, comments, blank, lines = rows[str(path.relative_to(SRC))]
        assert min(code, docs, comments, blank) >= 0
        assert code + docs + comments + blank == lines == \
            len(path.read_text().splitlines()), path
    assert total == [sum(column) for column in zip(*rows.values())]
    assert all(rows["smallflow/evaluator.py"])  # every column is found


def test_no_measurement_provenance_in_src():
    # timings, byte counts and the hosts they came from go to ROADMAP's
    # "Measured and kept" with their commit; docstrings state contracts
    words = re.compile(r"tracemalloc|64-bit CPython|2-core|A/B")
    for path in sorted((SRC / "smallflow").glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            assert not words.search(line), f"{path.name}:{lineno}: {line}"


def test_public_names_have_docstrings():
    for name in smallflow.__all__:
        obj = getattr(smallflow, name)
        if callable(obj):
            assert (obj.__doc__ or "").strip(), name
