"""The demo scripts run end to end, and the package exports what its
callers import."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpictures

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(qpictures.__file__).resolve().parent.parent

HEADLINES = {
    "01_two_pictures_one_answer.py": "<Z1Z2>         0.2674988286   0.2674988286",
    "02_experiment_timeline.py": "t=4  P(records differ)  = 0.2500000000",
    "03_correlations_before_comparison.py": "matching candidate(s): sin2_half_diff",
    "04_bell_violation.py": "local-theory bound 2       -> violated: True",
}


def test_every_demo_has_a_headline():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(HEADLINES)


@pytest.mark.parametrize("demo", sorted(HEADLINES))
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert HEADLINES[demo] in result.stdout


def _names_imported_from_package(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "qpictures":
                names.update(alias.name for alias in node.names)
    return names


def test_all_lists_exactly_what_callers_import():
    callers = [*(ROOT / "demos").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    submodules = {p.stem for p in (SRC / "qpictures").glob("*.py")}
    assert set(qpictures.__all__) == _names_imported_from_package(callers) - submodules
    assert len(qpictures.__all__) == len(set(qpictures.__all__))
