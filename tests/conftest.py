"""Shared pytest plumbing.

The acceptance tests record one line per criterion; the terminal-summary hook
prints them after the run so the pass/fail ledger is visible without -s.
count_solves counts the eigensolves a run makes, for tests that pin them.
"""

import math

import numpy as np

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(
        f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def count_solves(monkeypatch, names=("eigh", "eigvalsh", "qr")) -> dict[str, list[int]]:
    """Wrap np.linalg solves to count [calls, matrices] per name, filled as they run."""
    counts: dict[str, list[int]] = {}

    def counted(name, solve):
        def run(a, *args, **kwargs):
            c = counts.setdefault(name, [0, 0])
            c[0] += 1
            c[1] += math.prod(np.shape(a)[:-2])
            return solve(a, *args, **kwargs)
        return run

    for name in names:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return counts
