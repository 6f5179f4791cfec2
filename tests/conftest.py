"""Shared pytest wiring: the acceptance suite registers one line per
criterion here and they are echoed after the run, outside output capture;
code_folds counts the folds that build canonical and rooted codes."""

import pytest

from treespectra import trees

ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def code_folds(monkeypatch):
    """The order of each tree that trees._bracket_fold folds, the one fold
    every canonical and rooted code is built by, in call order."""
    calls = []
    fold = trees._bracket_fold

    def counted(order, parent):
        calls.append(len(order))
        return fold(order, parent)

    monkeypatch.setattr(trees, "_bracket_fold", counted)
    return calls
