"""Shared pytest hooks: always-visible acceptance-criterion summary, and a
test environment free of the caller's output directory."""

import pytest

from anyonlab.report import OUT_DIR_ENV

CRITERION_RESULTS: list[str] = []


@pytest.fixture(autouse=True)
def _no_out_dir_from_the_caller(monkeypatch):
    """Relative outputs land where each test puts them, whatever $ANYONLAB_OUT_DIR
    the calling shell sets; a test that needs the variable sets it itself."""
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_RESULTS:
            terminalreporter.write_line(line)
