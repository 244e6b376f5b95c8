import sys
from pathlib import Path

import pytest

from torlink.search import isomorphism_classes

sys.path.insert(0, str(Path(__file__).parent))

_ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_criterion(name: str, ok: bool, detail: str = "") -> None:
    _ACCEPTANCE_RESULTS.append((name, ok, detail))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in _ACCEPTANCE_RESULTS:
        verdict = "PASS" if ok else "FAIL"
        line = f"{verdict}  {name}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def order8_classes():
    """isomorphism_classes(8), built once for the tests that walk all of it."""
    return isomorphism_classes(8)
