"""The demo scripts and the README's commands run end to end, and the
package exports what its callers import."""
import ast
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qpictures
from qpictures import cli

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
    # Under python -O the demos run with their asserts stripped too.
    optimize = ["-O"] * sys.flags.optimize
    result = subprocess.run(
        [sys.executable, *optimize, "-W", "error", str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert HEADLINES[demo] in result.stdout


def _readme_commands():
    """Every ``qpictures ...`` line in the code blocks of the README's
    "Install and test" and "Command line" sections, comments stripped."""
    text = (ROOT / "README.md").read_text()
    commands = []
    for heading in ("## Install and test", "## Command line"):
        section = text.split(heading + "\n", 1)[1].split("\n## ", 1)[0]
        for block in section.split("```")[1::2]:
            commands += [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("qpictures ")]
    return commands


README_COMMANDS = _readme_commands()


def test_readme_lists_its_commands():
    assert len(README_COMMANDS) == 10


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_runs(argv, tmp_path):
    argv = argv[1:]
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    assert cli.main(argv) == 0


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
