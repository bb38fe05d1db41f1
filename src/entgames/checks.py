"""Randomized verification suite for the fidelity/entropy inequality stack.

Each named check draws random states from its documented sampler and returns
a signed margin: nonnegative means the inequality held (equality checks
return minus the absolute deviation).  A trial counts as a violation when the
margin falls below minus the check's tolerance.  Trial t of check c uses the
generator rng_for(seed, CHECK_STREAM, c, t), so any single trial can be
replayed from the report alone.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .config import DEFAULT_TOLS
from .linalg import partial_trace_matrix
from .qinfo import (
    Povm,
    fidelity,
    min_relative_entropy,
    povm_outcome_bound,
    relative_entropy,
    von_neumann_entropy,
)
from .random_states import (
    floor_eigenvalues,
    random_classical,
    random_mixed,
    random_povm,
    rng_for,
)

CHECK_STREAM = 201
DIM_POOL = (2, 3, 4, 6, 8)
SIGMA_FLOOR = 1e-8


def _dim(rng, pool=DIM_POOL) -> int:
    return int(rng.choice(pool))


def _pinch_first(m: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Dephase the first factor of a d1 x d2 bipartite operator."""
    t = m.reshape(d1, d2, d1, d2)
    return (t * np.eye(d1)[:, None, :, None]).reshape(d1 * d2, d1 * d2)


# --- margin functions; each returns (margin, payload for counterexample dumps)


def _weak_triangle(rng):
    d = _dim(rng)
    r1, r2, r3 = (random_mixed(rng, d) for _ in range(3))
    m = 2 * (1 - fidelity(r1, r2)) + 2 * (1 - fidelity(r2, r3)) - (1 - fidelity(r1, r3))
    return m, {"rho1": r1, "rho2": r2, "rho3": r3}


def _four_state(rng):
    d = _dim(rng)
    rs = [random_mixed(rng, d) for _ in range(4)]
    chain = sum(1 - fidelity(rs[i], rs[i + 1]) for i in range(3))
    m = 3 * chain - (1 - fidelity(rs[0], rs[3]))
    return m, {f"rho{i+1}": r for i, r in enumerate(rs)}


def _fidelity_sq_sum(rng):
    d = _dim(rng)
    r1, r2, r3 = (random_mixed(rng, d) for _ in range(3))
    m = 1 + fidelity(r1, r3) - fidelity(r1, r2) ** 2 - fidelity(r2, r3) ** 2
    return m, {"rho1": r1, "rho2": r2, "rho3": r3}


def _cq_fidelity(rng):
    k = int(rng.integers(2, 4))
    d = _dim(rng, (2, 3, 4))
    p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
    blocks_p = [random_mixed(rng, d) for _ in range(k)]
    blocks_q = [random_mixed(rng, d) for _ in range(k)]
    rho = np.zeros((k * d, k * d), dtype=complex)
    sig = np.zeros((k * d, k * d), dtype=complex)
    for x in range(k):
        rho[x * d:(x + 1) * d, x * d:(x + 1) * d] = p[x] * blocks_p[x]
        sig[x * d:(x + 1) * d, x * d:(x + 1) * d] = q[x] * blocks_q[x]
    direct = fidelity(rho, sig)
    blockwise = sum(math.sqrt(p[x] * q[x]) * fidelity(blocks_p[x], blocks_q[x])
                    for x in range(k))
    return -abs(direct - blockwise), {"rho": rho, "sigma": sig}


def _povm_bound(rng):
    d = _dim(rng)
    n_out = int(rng.integers(2, 6))
    r, s = random_mixed(rng, d), random_mixed(rng, d)
    povm = Povm(tuple(random_povm(rng, d, n_out)))
    m = povm_outcome_bound(r, s, povm) - fidelity(r, s)
    return m, {"rho": r, "sigma": s}


def _cptp_mono(rng):
    d1, d2 = _dim(rng, (2, 3)), _dim(rng, (2, 3, 4))
    r, s = random_mixed(rng, d1 * d2), random_mixed(rng, d1 * d2)
    f0 = fidelity(r, s)
    if rng.integers(2) == 0:
        qr = partial_trace_matrix(r, (d1, d2), [0])
        qs = partial_trace_matrix(s, (d1, d2), [0])
    else:
        qr, qs = _pinch_first(r, d1, d2), _pinch_first(s, d1, d2)
    return fidelity(qr, qs) - f0, {"rho": r, "sigma": s}


def _subadd_cond(rng):
    da, db, dc = (_dim(rng, (2, 3)) for _ in range(3))
    r = random_mixed(rng, da * db * dc)
    dims = (da, db, dc)
    def ent(keep):
        return von_neumann_entropy(partial_trace_matrix(r, dims, keep))
    s_c = ent([2])
    m = (ent([0, 2]) - s_c) + (ent([1, 2]) - s_c) - (ent([0, 1, 2]) - s_c)
    return m, {"rho": r}


def _relent_vs_fid(rng):
    d = _dim(rng)
    r = random_mixed(rng, d)
    s = floor_eigenvalues(random_mixed(rng, d), SIGMA_FLOOR)
    m = relative_entropy(r, s) - (1 - fidelity(r, s))
    return m, {"rho": r, "sigma": s}


def _superadd_classical(rng):
    d1, d2 = _dim(rng, (2, 3, 4)), _dim(rng, (2, 3, 4))
    joint = np.diag(rng.dirichlet(np.ones(d1 * d2)).astype(complex))
    r1 = floor_eigenvalues(random_classical(rng, d1), SIGMA_FLOOR)
    r2 = floor_eigenvalues(random_classical(rng, d2), SIGMA_FLOOR)
    dims = (d1, d2)
    lhs = relative_entropy(joint, np.kron(r1, r2))
    rhs = (relative_entropy(partial_trace_matrix(joint, dims, [0]), r1)
           + relative_entropy(partial_trace_matrix(joint, dims, [1]), r2))
    return lhs - rhs, {"sigma12": joint, "ref1": r1, "ref2": r2}


def _smax_ge_s(rng):
    d = _dim(rng)
    r = random_mixed(rng, d)
    s = floor_eigenvalues(random_mixed(rng, d), SIGMA_FLOOR)
    return min_relative_entropy(r, s) - relative_entropy(r, s), {"rho": r, "sigma": s}


def _mi_min_relent(rng):
    d1, d2 = _dim(rng, (2, 3)), _dim(rng, (2, 3))
    r = random_mixed(rng, d1 * d2)
    dims = (d1, d2)
    rx = partial_trace_matrix(r, dims, [0])
    ry = partial_trace_matrix(r, dims, [1])
    sx = floor_eigenvalues(random_mixed(rng, d1), SIGMA_FLOOR)
    sy = floor_eigenvalues(random_mixed(rng, d2), SIGMA_FLOOR)
    m = relative_entropy(r, np.kron(sx, sy)) - relative_entropy(r, np.kron(rx, ry))
    return m, {"rho": r, "sigma_x": sx, "sigma_y": sy}


def _relent_mono(rng):
    d1, d2 = _dim(rng, (2, 3)), _dim(rng, (2, 3))
    r = random_mixed(rng, d1 * d2)
    s = floor_eigenvalues(random_mixed(rng, d1 * d2), SIGMA_FLOOR)
    dims = (d1, d2)
    m = (relative_entropy(r, s)
         - relative_entropy(partial_trace_matrix(r, dims, [0]),
                            partial_trace_matrix(s, dims, [0])))
    return m, {"rho": r, "sigma": s}


def _cool_product(rng):
    db = _dim(rng, (2, 3))
    da = _dim(rng, tuple(d for d in (2, 3, 4) if d >= db))
    r = random_mixed(rng, da * db)
    dims = (da, db)
    ra = partial_trace_matrix(r, dims, [0])
    rb = partial_trace_matrix(r, dims, [1])
    gap = db * db * np.kron(ra, rb) - r
    m = float(np.linalg.eigvalsh(0.5 * (gap + gap.conj().T)).min())
    return m, {"rho": r}


def _fact_sum(rng):
    n = int(rng.integers(5, 51))
    x = rng.exponential(1.0, size=n)
    s = x.mean()
    c = float(rng.uniform(1.05, 8.0))
    count = int((x <= c * s).sum())
    return count - n * (1 - 1 / c), {"x": x}


@dataclass(frozen=True)
class CheckDef:
    func: Callable
    tolerance: float
    statement: str


# Registry order is frozen: the position is the per-check seed stream id.
REGISTRY: dict[str, CheckDef] = {
    "weak_triangle": CheckDef(_weak_triangle, 1e-9,
                              "1-F13 <= 2(1-F12) + 2(1-F23)"),
    "four_state": CheckDef(_four_state, 1e-9,
                           "Fbar14 <= 3(Fbar12 + Fbar23 + Fbar34)"),
    "fidelity_sq_sum": CheckDef(_fidelity_sq_sum, 1e-9,
                                "F12^2 + F23^2 <= 1 + F13"),
    "cq_fidelity": CheckDef(_cq_fidelity, 1e-8,
                            "F of cq states = sum_x sqrt(p_x q_x) F(rho_x, sigma_x)"),
    "povm_bound": CheckDef(_povm_bound, 1e-9,
                           "sum_i sqrt(p_i q_i) >= F"),
    "cptp_mono": CheckDef(_cptp_mono, 1e-9,
                          "F(Q rho, Q sigma) >= F(rho, sigma) for partial trace / pinching"),
    "subadd_cond": CheckDef(_subadd_cond, 1e-9,
                            "S(AB|C) <= S(A|C) + S(B|C)"),
    "relent_vs_fid": CheckDef(_relent_vs_fid, 1e-8,
                              "S(rho||sigma) >= 1 - F(rho, sigma)"),
    "superadd_classical": CheckDef(_superadd_classical, 1e-8,
                                   "classical S(sigma||rho1 x rho2) >= sum of marginal terms"),
    "smax_ge_s": CheckDef(_smax_ge_s, 1e-7,
                          "S_inf(rho||sigma) >= S(rho||sigma)"),
    "mi_min_relent": CheckDef(_mi_min_relent, 1e-7,
                              "S(rho||rhoX x rhoY) <= S(rho||sigmaX x sigmaY)"),
    "relent_mono": CheckDef(_relent_mono, 1e-8,
                            "S(rho||sigma) >= S(rho^X||sigma^X)"),
    "cool_product": CheckDef(_cool_product, 1e-9,
                             "rho <= |B|^2 (rho^A x rho^B) for |A| >= |B|"),
    "fact_sum": CheckDef(_fact_sum, 1e-9,
                         "#(x_i <= C mean) >= n (1 - 1/C)"),
}


@dataclass(frozen=True)
class CheckSpec:
    """One suite entry: which check, how many trials, from which seed."""

    name: str
    trials: int = 10_000
    seed: int = 0


@dataclass(frozen=True)
class CheckReport:
    name: str
    trials_run: int
    violations: int
    worst_margin: float
    worst_case_seed: int    # trial index; replay with rng_for(seed, CHECK_STREAM, check_id, it)


def _dump_counterexample(directory: Path, name: str, trial: int, margin: float,
                         payload: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    doc = {"check": name, "trial": trial, "margin": margin, "states": {}}
    for key, arr in payload.items():
        arr = np.asarray(arr)
        doc["states"][key] = {"re": arr.real.tolist(), "im": arr.imag.tolist()} \
            if np.iscomplexobj(arr) else arr.tolist()
    path = directory / f"counterexample_{name}_{trial}.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def run_check(spec: CheckSpec, report_dir: str | Path | None = None) -> CheckReport:
    """Run one check; deterministic given (spec.name, spec.trials, spec.seed)."""
    if spec.name not in REGISTRY:
        raise ValueError(f"unknown check {spec.name!r}; have {sorted(REGISTRY)}")
    check_id = list(REGISTRY).index(spec.name)
    func, tol = REGISTRY[spec.name].func, REGISTRY[spec.name].tolerance
    worst = math.inf
    worst_trial = -1
    violations = 0
    for trial in range(spec.trials):
        rng = rng_for(spec.seed, CHECK_STREAM, check_id, trial)
        margin, payload = func(rng)
        margin = float(margin)
        if margin < worst:
            worst, worst_trial = margin, trial
        if margin < -tol:
            violations += 1
            if report_dir is not None:
                _dump_counterexample(Path(report_dir), spec.name, trial, margin, payload)
    return CheckReport(spec.name, spec.trials, violations, worst, worst_trial)


def run_all(seed: int = 0, trials_per_check: int = 10_000,
            names: Iterable[str] | None = None,
            report_dir: str | Path | None = None) -> list[CheckReport]:
    """Run the whole suite (or a named subset) with per-check independent streams."""
    selected = list(REGISTRY) if names is None else list(names)
    return [run_check(CheckSpec(n, trials=trials_per_check, seed=seed), report_dir)
            for n in selected]


def any_violations(reports: Iterable[CheckReport]) -> bool:
    return any(r.violations > 0 for r in reports)


def reports_to_json(reports: Iterable[CheckReport]) -> str:
    return json.dumps([asdict(r) for r in reports], sort_keys=True, indent=2) + "\n"


def reports_to_csv(reports: Iterable[CheckReport], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "trials", "violations", "worst_margin"])
        for r in reports:
            writer.writerow([r.name, r.trials_run, r.violations, repr(r.worst_margin)])
