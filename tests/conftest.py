"""Shared fixtures plus the acceptance summary hook.

The acceptance tests register one line per criterion; the hook replays them
after the normal pytest summary so a full-suite run ends with an explicit
PASS/FAIL scoreboard.
"""

import os
from pathlib import Path

import pytest


@pytest.fixture(autouse=True, scope="session")
def _checkout_on_subprocess_path():
    """pyproject's pythonpath reaches only this process; tests that run
    `python -m copula_ot` in a subprocess need the checkout's sources too."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


CRITERIA: dict[int, tuple[str, bool, str]] = {}


def record_criterion(number: int, description: str, passed: bool, detail: str = "") -> None:
    CRITERIA[number] = (description, passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERIA):
        description, passed, detail = CRITERIA[number]
        status = "PASS" if passed else "FAIL"
        line = f"CRITERION {number}: {status} - {description}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)
