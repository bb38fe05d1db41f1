"""Shared pytest plumbing.

The acceptance tests record one line per criterion; the terminal-summary hook
prints them after the run so the pass/fail ledger is visible without -s.
count_solves counts the eigensolves, QR and SVD factorizations a run makes, and count_checks the
Hermitian checks, for tests that pin them.  povm_draw and random_povm are
the raw and built one-slice POVM draws that tests use as references.
"""

import math

import numpy as np

from entgames import linalg
from entgames.random_states import povms

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


def count_solves(monkeypatch, names=("eigh", "eigvalsh", "qr", "svd")) -> dict[str, list[int]]:
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


def count_checks(monkeypatch) -> list[int]:
    """Wrap linalg._check_hermitian to count [calls, matrices], filled as they run."""
    counts = [0, 0]
    check = linalg._check_hermitian

    def run(h):
        counts[0] += 1
        counts[1] += math.prod(np.shape(h)[:-2])
        return check(h)

    monkeypatch.setattr(linalg, "_check_hermitian", run)
    return counts


def povm_draw(rng: np.random.Generator, dim: int, n_outcomes: int) -> np.ndarray:
    """Raw draw of one random POVM: per outcome, real and imaginary parts of a
    complex Gaussian matrix, (n_outcomes, 2, dim, dim)."""
    return rng.standard_normal((n_outcomes, 2, dim, dim))


def random_povm(rng: np.random.Generator, dim: int, n_outcomes: int) -> np.ndarray:
    """Random POVM (n_outcomes, dim, dim): povms on a stack of one draw."""
    return povms(povm_draw(rng, dim, n_outcomes)[None])[0]
