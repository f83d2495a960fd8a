"""The documents point at things that exist, and their numbers come from files.

Every backticked repository path in the prose documents must exist (with its
``::Class::test`` suffix, if it has one, defined in that file), and every
``<!-- harness:NAME -->`` block of EXPERIMENTS.md must equal ``python -m
repro.harness report`` re-rendered from the committed ``results/NAME.json``.
"""

import re
from pathlib import Path

import pytest

from repro.harness.experiments import EXPERIMENTS
from repro.harness.result import load_results, splice

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = [
    ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")), ROOT / ".claude/skills/verify/SKILL.md",
]
PATH = re.compile(
    r"`((?:src|tests|bench|benchmarks|docs|examples|scripts|results)/[\w./-]*)(?:::([\w:]+))?`"
)


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda path: path.name)
def test_backticked_paths_exist(document):
    broken = []
    for path, names in PATH.findall(document.read_text()):
        target = ROOT / path
        if not target.exists():
            broken.append(path)
        elif names and not all(
            re.search(rf"^\s*(?:def|class) {name}\b", target.read_text(), re.MULTILINE)
            for name in names.split("::")
        ):
            broken.append(f"{path}::{names}")
    assert broken == []


def test_experiments_tables_are_the_rendered_results():
    results = load_results(ROOT / "results")
    assert set(results) == set(EXPERIMENTS)
    assert all(r["params"]["scale"] == "full" for r in results.values())
    text = (ROOT / "EXPERIMENTS.md").read_text()
    marked = set(re.findall(r"<!-- harness:([\w-]+) -->", text))
    assert marked == set(EXPERIMENTS)
    assert splice(text, results) == text, "run `python -m repro.harness report` and paste"
