"""Shared pytest plumbing.

The acceptance tests record one line per criterion; the terminal-summary hook
prints them after the run so the pass/fail ledger is visible without -s.
count_solves counts the eigensolves, QR and SVD factorizations a run makes, and count_checks the
Hermitian checks, for tests that pin them.  povm_draw and random_povm are
the raw and built one-slice POVM draws that tests use as references,
flat_dirichlets the draw-for-draw reference for the verify samplers' flat
Dirichlet draws, and check_povm the POVM check.  write_game writes a game document as `entgames
repeat` writes its game.json.  The tracing fixture loads the benchmark's
perfbench/tracing.py, whose TARGETS name the package functions it wraps.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from entgames import linalg
from entgames.config import DEFAULT_TOLS
from entgames.games import Game, game_to_json
from entgames.random_states import povms

ACCEPTANCE_LINES: list[str] = []
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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


def flat_dirichlets(rng: np.random.Generator, *sizes: int) -> tuple[np.ndarray, ...]:
    """rng.dirichlet(np.ones(k)) for each k in sizes in turn, draw for draw,
    from one call to the generator and without dirichlet's argument checks.

    numpy draws a flat Dirichlet as k gamma(1) variates, which are standard
    exponentials, scaled by the inverse of their running sum; this repeats
    that arithmetic on consecutive runs of one exponential draw, so the
    results and the stream after them are those of successive dirichlet calls.
    """
    y = rng.standard_exponential(sum(sizes))
    out, end = [], 0
    for k in sizes:
        run = y[end:end + k]
        out.append(run * (1.0 / run.cumsum()[-1]))
        end += k
    return tuple(out)


def check_povm(elements: np.ndarray) -> None:
    """Raise unless each (..., n, d, d) stack of n elements is a POVM."""
    elements = linalg.as_stack(elements)
    linalg.psd_eigvalsh(elements)
    total = elements.sum(axis=-3)
    if np.abs(total - np.eye(total.shape[-1])).max() > DEFAULT_TOLS.proj:
        raise ValueError("POVM elements do not sum to the identity within tolerance")


def write_game(g: Game, path: str | Path) -> None:
    """Write g's game document to path: canonical JSON and a newline."""
    Path(path).write_text(game_to_json(g) + "\n")


@pytest.fixture(scope="module")
def tracing():
    name = "_perfbench_tracing_under_test"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module          # dataclasses resolve the module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]
