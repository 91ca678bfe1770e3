"""The CI workflow, which runs only on a push: it parses, its install step
installs the ``test`` extra, its tier-1 step runs ROADMAP's tier-1 command in
Python's development mode, and its console step runs the installed
``funcspace`` script at most once per exit status, since every behaviour check
lives in the tests.  The package itself needs numpy and orjson; scipy is in
the ``test`` extra only."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def steps():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    return {step.get("name"): step for step in workflow["jobs"]["tests"]["steps"]}


def test_workflow_parses(steps):
    assert {"Install", "Console script", "Tier-1 tests"} <= set(steps)


def test_install_step_installs_the_test_extra(steps):
    # the only source of the scipy that the tests and the benchmark's reference checks import
    assert re.fullmatch(r"python -m pip install (-e )?\.\[test\]", steps["Install"]["run"].strip())


def test_scipy_is_in_the_test_extra_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return [re.match(r"[\w.-]+", requirement).group(0) for requirement in requirements]

    assert names(project["dependencies"]) == ["numpy", "orjson"]
    extras = project["optional-dependencies"]
    assert [extra for extra, requirements in extras.items() if "scipy" in names(requirements)] == ["test"]


def test_tier1_step_runs_the_roadmap_command(steps):
    roadmap = (ROOT / "ROADMAP.md").read_text()
    command = re.search(r"^\*\*Tier-1 verify:\*\* `(.+)`$", roadmap, flags=re.M).group(1)
    assert steps["Tier-1 tests"]["run"].strip() == command
    assert steps["Tier-1 tests"]["env"] == {"PYTHONDEVMODE": "1"}


def test_console_step_runs_the_script_at_most_three_times(steps):
    runs = re.findall(r"(?<![\w./-])funcspace(?![\w./-])", steps["Console script"]["run"])
    assert 1 <= len(runs) <= 3
