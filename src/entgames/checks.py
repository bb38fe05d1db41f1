"""Randomized verification suite for the fidelity/entropy inequality stack.

Each named check is a sampler plus a margin kernel.  The sampler draws one
trial's raw numbers from that trial's generator (Gaussian entries of its
states, Dirichlet weights, samples) and returns them with a group key (the
trial's dimensions and any discrete choice).  CheckDef.inputs stacks the
draws of a group of trials along a leading axis and builds their states on
the whole stack (_BUILD names which draws are states, and how they are
built; a psi draw is built as the factor psi of the mixed state psi psi^dag).
The kernel takes those stacked inputs and returns one signed margin per
trial: nonnegative means the inequality held (equality checks return minus
the absolute deviation).  A trial counts as a violation when the margin
falls below minus the check's tolerance.  Trial t of check c uses the
generator rng_for(seed, CHECK_STREAM, c, t), so any single trial can be
replayed from the report alone with REGISTRY[name].func, which runs the
sampler, the construction and the kernel on a batch of one.

run_check takes trials from one lazily consumed rng_block stream and keeps
one pending batch per group key.  A trial's entries are the matrix entries of
its built inputs plus a fixed charge for its sampled objects, looked up by
its key.  A key's batch is built and evaluated in one kernel call once its
entries reach _BUDGET, the largest pending batch once all of them reach
2 * _BUDGET, and what is left at the end; margins land in one array indexed
by trial.  So a kernel call holds at most _BUDGET entries plus one trial,
the pending draws at most twice that, and checks on small states get long
batches.  Every construction and kernel operation acts on each slice on its
own, so a trial's margin does not depend on its batch mates, nor on the
budget; a violating trial's states are dumped by replaying it.

Kernels solve each eigensystem once and pass it on as a linalg.Solved,
which is checked Hermitian and PSD when it is built and not again: a floored
reference state's eigensystem comes from the floor step, rho's one spectrum
serves its entropies and its checks, and a Kronecker product's eigensystem
is built from its factors'.  Fidelities take no matrix root: F(rho, sigma)
comes from a factor a of rho = a a^dag (qinfo.fidelity_from_factor), which
each state has already, the psi of a drawn state, sqrt(p_x) psi_x on the
blocks of a cq state, or v sqrt(w) of a floored one; each drawn state, and
each one read as a matrix, is still checked by one eigvalsh.  run_all runs
the suite, or a named subset, and times and counts each check; `entgames
verify` calls it.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .config import _canonical_json
from .linalg import (
    Solved,
    hermitianize,
    kron,
    partial_trace_matrix,
    psd_eigvalsh,
    solve_psd,
)
from .qinfo import (
    check_povm,
    fidelity,
    fidelity_from_factor,
    min_relative_entropy,
    povm_outcome_bound,
    relative_entropy,
    von_neumann_entropy,
)
from .random_states import (
    classical_states,
    flat_dirichlet,
    floor_eigensystem,
    gram,
    mixed_draw,
    mixed_factors,
    mixed_states,
    povm_draw,
    povms,
    rng_block,
    rng_for,
)

CHECK_STREAM = 201
DIM_POOL = (2, 3, 4, 6, 8)
SIGMA_FLOOR = 1e-8
POVM_OUTCOMES = 5       # povm_bound draws POVMs of 2..POVM_OUTCOMES outcomes
# run_check's cap on the entries of one kernel call (twice it on all pending
# batches): a trial's entries are the matrix entries of its built inputs plus
# _TRIAL_ENTRIES, a charge for its draw dict and arrays, which outweigh the
# entries of 2x2 states
_BUDGET = 1 << 15
_TRIAL_ENTRIES = 32


def _dim(rng, pool=DIM_POOL) -> int:
    # the same draw as rng.choice(pool), without building an array per call
    return pool[int(rng.integers(len(pool)))]


def _pinch_first(m: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Dephase the first factor of each d1 x d2 bipartite operator in a stack."""
    t = m.reshape(m.shape[:-2] + (d1, d2, d1, d2))
    return (t * np.eye(d1)[:, None, :, None]).reshape(m.shape)


def _fidelities(x, pairs):
    """F(rho_i, rho_j) for each (i, j) of the states rho_i = psi_i psi_i^dag,
    whose factors x holds in order, and those states by their dump names.

    Each state costs one eigvalsh, its PSD check; each pair reads psi_i as
    the factor of rho_i (fidelity_from_factor), so no matrix root is taken.
    """
    factors = list(x.values())
    states = [gram(f) for f in factors]
    for state in states:
        psd_eigvalsh(state)
    fids = [fidelity_from_factor(factors[i], states[j]) for i, j in pairs]
    return fids, {f"rho{i + 1}": state for i, state in enumerate(states)}


# --- samplers, each returning (group key, one trial's inputs), and kernels,
# each returning (margins, states for counterexample dumps) for a group of
# stacked trials


def _sample_states(n: int) -> Callable:
    """Sampler of n mixed states of one dimension from DIM_POOL, drawn as
    their factors psi1..psin."""
    names = tuple(f"psi{i + 1}" for i in range(n))

    def sample(rng):
        d = _dim(rng)
        return (d,), dict(zip(names, mixed_draw(rng, d, n)))
    return sample


def _weak_triangle(key, x):
    (f12, f23, f13), states = _fidelities(x, [(0, 1), (1, 2), (0, 2)])
    return 2 * (1 - f12) + 2 * (1 - f23) - (1 - f13), states


def _four_state(key, x):
    (*steps, f14), states = _fidelities(x, [(0, 1), (1, 2), (2, 3), (0, 3)])
    chain = sum(1 - f for f in steps)
    return 3 * chain - (1 - f14), states


def _fidelity_sq_sum(key, x):
    (f12, f23, f13), states = _fidelities(x, [(0, 1), (1, 2), (0, 2)])
    return 1 + f13 - f12 ** 2 - f23 ** 2, states


def _sample_cq_fidelity(rng):
    k = int(rng.integers(2, 4))
    d = _dim(rng, (2, 3, 4))
    p, q = flat_dirichlet(rng, k), flat_dirichlet(rng, k)
    blocks_p, blocks_q = mixed_draw(rng, d, k), mixed_draw(rng, d, k)
    return (k, d), {"p": p, "q": q, "psi_blocks": blocks_p, "sigma_blocks": blocks_q}


def _cq_fidelity(key, x):
    # rho's blocks p_x psi_x psi_x^dag give it the block-diagonal factor
    # sqrt(p_x) psi_x, the only form in which the kernel reads rho; the drawn
    # blocks and sigma, which it reads as matrices, are checked once each
    k, d = key
    n = len(x["p"])
    fac = np.zeros((n, k * d, k * d), dtype=complex)
    rho = np.zeros((n, k * d, k * d), dtype=complex)
    sig = np.zeros((n, k * d, k * d), dtype=complex)
    p, q, psi_p, blocks_q = x["p"], x["q"], x["psi_blocks"], x["sigma_blocks"]
    blocks_p = gram(psi_p)
    for i in range(k):
        block = slice(i * d, (i + 1) * d)
        fac[:, block, block] = np.sqrt(p[:, i, None, None]) * psi_p[:, i]
        rho[:, block, block] = p[:, i, None, None] * blocks_p[:, i]
        sig[:, block, block] = q[:, i, None, None] * blocks_q[:, i]
    for state in (sig, blocks_p, blocks_q):
        psd_eigvalsh(state)
    direct = fidelity_from_factor(fac, sig)
    blockwise = (np.sqrt(p * q) * fidelity_from_factor(psi_p, blocks_q)).sum(axis=-1)
    return -abs(direct - blockwise), {"rho": rho, "sigma": sig}


def _sample_povm_bound(rng):
    # 2 to POVM_OUTCOMES outcomes, zero-padded to POVM_OUTCOMES so trials
    # group by d alone: a zero draw builds a zero element, which adds
    # nothing to the normalization or to the outcome sum
    d = _dim(rng)
    n_out = int(rng.integers(2, POVM_OUTCOMES + 1))
    r, s = mixed_draw(rng, d, 2)
    g = np.zeros((POVM_OUTCOMES, 2, d, d))
    g[:n_out] = povm_draw(rng, d, n_out)
    return (d,), {"psi": r, "sigma": s, "povm": g}


def _povm_bound(key, x):
    check_povm(x["povm"])
    # one spectrum per state checks it for both the bound and the fidelity,
    # which reads rho through its factor psi
    psi, povm = x["psi"], x["povm"]
    r = solve_psd(gram(psi), vectors=False)
    s = solve_psd(x["sigma"], vectors=False)
    m = povm_outcome_bound(r, s, povm) - fidelity_from_factor(psi, s.matrix)
    return m, {"rho": r.matrix, "sigma": s.matrix, "povm": povm}


def _sample_cptp_mono(rng):
    d1, d2 = _dim(rng, (2, 3)), _dim(rng, (2, 3, 4))
    r, s = mixed_draw(rng, d1 * d2, 2)
    return (d1, d2, int(rng.integers(2))), {"psi": r, "sigma": s}


def _cptp_mono(key, x):
    # the full states' fidelity reads rho through its factor psi; the reduced
    # and pinched states have no factor as narrow as they are, so take fidelity
    d1, d2, pinch = key
    psi, s = x["psi"], x["sigma"]
    r = gram(psi)
    psd_eigvalsh(r)
    psd_eigvalsh(s)
    f0 = fidelity_from_factor(psi, s)
    if pinch:
        qr, qs = _pinch_first(r, d1, d2), _pinch_first(s, d1, d2)
    else:
        qr = partial_trace_matrix(r, (d1, d2), [0])
        qs = partial_trace_matrix(s, (d1, d2), [0])
    return fidelity(qr, qs) - f0, {"rho": r, "sigma": s}


def _sample_subadd_cond(rng):
    dims = tuple(_dim(rng, (2, 3)) for _ in range(3))
    return dims, {"rho": mixed_draw(rng, math.prod(dims))}


def _subadd_cond(dims, x):
    def ent(keep):
        return von_neumann_entropy(partial_trace_matrix(x["rho"], dims, keep))
    s_c = ent([2])
    return (ent([0, 2]) - s_c) + (ent([1, 2]) - s_c) - (ent([0, 1, 2]) - s_c), x


def _sample_rho_sigma(rng):
    d = _dim(rng)
    r, s = mixed_draw(rng, d, 2)
    return (d,), {"rho": r, "sigma": s}


def _kron_eig(a: Solved, b: Solved) -> Solved:
    """kron(A, B) with its eigensystem built from the factors': products of
    eigenvalues, sorted ascending, on kron products of eigenvectors."""
    w = (a.w[..., :, None] * b.w[..., None, :]).reshape(a.w.shape[:-1] + (-1,))
    order = np.argsort(w, axis=-1)
    return Solved(kron(a.matrix, b.matrix), np.take_along_axis(w, order, axis=-1),
                  np.take_along_axis(kron(a.v, b.v), order[..., None, :], axis=-1))


def _relent_vs_fid(key, x):
    # the floored sigma's eigensystem gives its factor v sqrt(w), and F is
    # symmetric, so rho needs only the spectrum that checks it and gives S
    s = floor_eigensystem(x["sigma"], SIGMA_FLOOR)
    r = solve_psd(x["rho"], vectors=False)
    f = fidelity_from_factor(s.v * np.sqrt(s.w)[..., None, :], r.matrix)
    return relative_entropy(r, s) - (1 - f), {"rho": r.matrix, "sigma": s.matrix}


def _sample_superadd_classical(rng):
    d1, d2 = _dim(rng, (2, 3, 4)), _dim(rng, (2, 3, 4))
    return (d1, d2), {"sigma12": flat_dirichlet(rng, d1 * d2),
                      "ref1": flat_dirichlet(rng, d1),
                      "ref2": flat_dirichlet(rng, d2)}


def _superadd_classical(dims, x):
    joint = x["sigma12"]
    s1, s2 = (floor_eigensystem(x[k], SIGMA_FLOOR) for k in ("ref1", "ref2"))
    lhs = relative_entropy(joint, _kron_eig(s1, s2))
    rhs = (relative_entropy(partial_trace_matrix(joint, dims, [0]), s1)
           + relative_entropy(partial_trace_matrix(joint, dims, [1]), s2))
    return lhs - rhs, {"sigma12": joint, "ref1": s1.matrix, "ref2": s2.matrix}


def _smax_ge_s(key, x):
    s = floor_eigensystem(x["sigma"], SIGMA_FLOOR)
    r = solve_psd(x["rho"], vectors=False)      # one spectrum for both entropies
    m = min_relative_entropy(r, s) - relative_entropy(r, s)
    return m, {"rho": x["rho"], "sigma": s.matrix}


def _sample_mi_min_relent(rng):
    d1, d2 = _dim(rng, (2, 3)), _dim(rng, (2, 3))
    r = mixed_draw(rng, d1 * d2)
    return (d1, d2), {"rho": r, "sigma_x": mixed_draw(rng, d1), "sigma_y": mixed_draw(rng, d2)}


def _mi_min_relent(dims, x):
    r = solve_psd(x["rho"], vectors=False)      # the one full-size solve
    rx, ry = (solve_psd(partial_trace_matrix(x["rho"], dims, [i])) for i in (0, 1))
    sx, sy = (floor_eigensystem(x[k], SIGMA_FLOOR) for k in ("sigma_x", "sigma_y"))
    m = relative_entropy(r, _kron_eig(sx, sy)) - relative_entropy(r, _kron_eig(rx, ry))
    return m, {"rho": x["rho"], "sigma_x": sx.matrix, "sigma_y": sy.matrix}


def _sample_relent_mono(rng):
    d1, d2 = _dim(rng, (2, 3)), _dim(rng, (2, 3))
    r, s = mixed_draw(rng, d1 * d2, 2)
    return (d1, d2), {"rho": r, "sigma": s}


def _relent_mono(dims, x):
    r, s = x["rho"], floor_eigensystem(x["sigma"], SIGMA_FLOOR)
    m = (relative_entropy(r, s)
         - relative_entropy(partial_trace_matrix(r, dims, [0]),
                            partial_trace_matrix(s.matrix, dims, [0])))
    return m, {"rho": r, "sigma": s.matrix}


def _sample_cool_product(rng):
    db = _dim(rng, (2, 3))
    da = _dim(rng, tuple(d for d in (2, 3, 4) if d >= db))
    return (da, db), {"rho": mixed_draw(rng, da * db)}


def _cool_product(dims, x):
    r = x["rho"]
    ra = partial_trace_matrix(r, dims, [0])
    rb = partial_trace_matrix(r, dims, [1])
    gap = dims[1] * dims[1] * kron(ra, rb) - r
    return np.linalg.eigvalsh(hermitianize(gap))[:, 0], x


def _sample_fact_sum(rng):
    n = int(rng.integers(5, 51))
    x = rng.exponential(1.0, size=n)
    return (n,), {"x": x, "c": float(rng.uniform(1.05, 8.0))}


def _fact_sum(key, x):
    (n,) = key
    xs, c = x["x"], x["c"]
    count = (xs <= (c * xs.mean(axis=-1))[:, None]).sum(axis=-1)
    return count - n * (1 - 1 / c), x


# how each named raw draw becomes a state, on the stack of a group's trials;
# a psi name is built as the factor psi of its mixed state psi psi^dag, for
# the fidelity kernels; inputs not named here (distributions, samples,
# constants) are used as drawn
_BUILD = {
    **dict.fromkeys(("rho", "sigma", "sigma_blocks", "sigma_x", "sigma_y"), mixed_states),
    **dict.fromkeys(("psi", "psi1", "psi2", "psi3", "psi4", "psi_blocks"), mixed_factors),
    "povm": povms,
    **dict.fromkeys(("sigma12", "ref1", "ref2"), classical_states),
}


@dataclass(frozen=True)
class CheckDef:
    sample: Callable    # rng -> (group key, dict of one trial's raw draws)
    kernel: Callable    # (group key, dict of stacked inputs) -> (margins, stacked dump states)
    tolerance: float
    statement: str

    @staticmethod
    def inputs(draws: list[dict]) -> dict:
        """Kernel inputs of trials that share a group key: their raw draws
        stacked, and the states among them built on the whole stack."""
        x = {n: np.stack([d[n] for d in draws]) for n in draws[0]}
        return {n: _BUILD[n](a) if n in _BUILD else a for n, a in x.items()}

    def entries(self, draws: dict) -> int:
        """Matrix entries of one trial's built inputs, the unit of _BUDGET."""
        return sum(a.size for a in self.inputs([draws]).values())

    def _run_group(self, key, draws: list[dict]):
        """The kernel on the stacked inputs of trials that share a group key."""
        return self.kernel(key, self.inputs(draws))

    def func(self, rng) -> tuple[float, dict]:
        """One trial's (margin, dump states): sampler, construction and kernel
        on a batch of one."""
        key, draws = self.sample(rng)
        margins, dump = self._run_group(key, [draws])
        return float(margins[0]), {n: a[0] for n, a in dump.items()}


# Registry order is frozen: the position is the per-check seed stream id.
REGISTRY: dict[str, CheckDef] = {
    "weak_triangle": CheckDef(_sample_states(3), _weak_triangle, 1e-9,
                              "1-F13 <= 2(1-F12) + 2(1-F23)"),
    "four_state": CheckDef(_sample_states(4), _four_state, 1e-9,
                           "Fbar14 <= 3(Fbar12 + Fbar23 + Fbar34)"),
    "fidelity_sq_sum": CheckDef(_sample_states(3), _fidelity_sq_sum, 1e-9,
                                "F12^2 + F23^2 <= 1 + F13"),
    "cq_fidelity": CheckDef(_sample_cq_fidelity, _cq_fidelity, 1e-8,
                            "F of cq states = sum_x sqrt(p_x q_x) F(rho_x, sigma_x)"),
    "povm_bound": CheckDef(_sample_povm_bound, _povm_bound, 1e-9,
                           "sum_i sqrt(p_i q_i) >= F"),
    "cptp_mono": CheckDef(_sample_cptp_mono, _cptp_mono, 1e-9,
                          "F(Q rho, Q sigma) >= F(rho, sigma) for partial trace / pinching"),
    "subadd_cond": CheckDef(_sample_subadd_cond, _subadd_cond, 1e-9,
                            "S(AB|C) <= S(A|C) + S(B|C)"),
    "relent_vs_fid": CheckDef(_sample_rho_sigma, _relent_vs_fid, 1e-8,
                              "S(rho||sigma) >= 1 - F(rho, sigma)"),
    "superadd_classical": CheckDef(_sample_superadd_classical, _superadd_classical, 1e-8,
                                   "classical S(sigma||rho1 x rho2) >= sum of marginal terms"),
    "smax_ge_s": CheckDef(_sample_rho_sigma, _smax_ge_s, 1e-7,
                          "S_inf(rho||sigma) >= S(rho||sigma)"),
    "mi_min_relent": CheckDef(_sample_mi_min_relent, _mi_min_relent, 1e-7,
                              "S(rho||rhoX x rhoY) <= S(rho||sigmaX x sigmaY)"),
    "relent_mono": CheckDef(_sample_relent_mono, _relent_mono, 1e-8,
                            "S(rho||sigma) >= S(rho^X||sigma^X)"),
    "cool_product": CheckDef(_sample_cool_product, _cool_product, 1e-9,
                             "rho <= |B|^2 (rho^A x rho^B) for |A| >= |B|"),
    "fact_sum": CheckDef(_sample_fact_sum, _fact_sum, 1e-9,
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
    path.write_text(_canonical_json(doc))


def run_check(spec: CheckSpec, report_dir: str | Path | None = None,
              counters: dict | None = None) -> CheckReport:
    """Run one check; deterministic given (spec.name, spec.trials, spec.seed).

    Trials are batched by group key under the _BUDGET caps described in the
    module docstring; a trial's entries depend only on its key, so they are
    counted once per key.  counters, if given, receives the run's
    kernel_calls and max_batch_entries, the entries of its largest one.
    """
    if spec.name not in REGISTRY:
        raise ValueError(f"unknown check {spec.name!r}; have {sorted(REGISTRY)}")
    if spec.trials < 1:
        raise ValueError(f"trials must be >= 1, got {spec.trials}")
    check_id = list(REGISTRY).index(spec.name)
    check = REGISTRY[spec.name]
    margins = np.empty(spec.trials)
    entries: dict = {}      # group key -> one trial's entries
    pending: dict = {}      # group key -> (trial indices, their draws)
    held = kernel_calls = max_batch = 0

    def size(key) -> int:
        return len(pending[key][0]) * entries[key]

    def evaluate(key) -> None:
        nonlocal held, kernel_calls, max_batch
        used = size(key)
        trials, draws = pending.pop(key)
        margins[trials] = check._run_group(key, draws)[0]
        held -= used
        kernel_calls += 1
        max_batch = max(max_batch, used)

    rngs = rng_block(spec.seed, CHECK_STREAM, check_id, trials=range(spec.trials))
    for trial, rng in enumerate(rngs):
        key, draws = check.sample(rng)
        if key not in entries:
            entries[key] = check.entries(draws) + _TRIAL_ENTRIES
        trials, batch = pending.setdefault(key, ([], []))
        trials.append(trial)
        batch.append(draws)
        held += entries[key]
        if size(key) >= _BUDGET:
            evaluate(key)
        if held >= 2 * _BUDGET:
            evaluate(max(pending, key=size))
    for key in list(pending):
        evaluate(key)
    # argmin keeps the first of equal minimal margins
    worst = int(np.argmin(margins))
    violating = np.flatnonzero(margins < -check.tolerance).tolist()
    if report_dir is not None:
        for trial in violating:
            # replaying the trial gives the same margin bits and its states
            _, states = check.func(rng_for(spec.seed, CHECK_STREAM, check_id, trial))
            _dump_counterexample(Path(report_dir), spec.name, trial, float(margins[trial]),
                                 states)
    if counters is not None:
        counters.update(kernel_calls=kernel_calls, max_batch_entries=max_batch)
    return CheckReport(spec.name, spec.trials, len(violating), float(margins[worst]), worst)


def run_all(seed: int = 0, trials_per_check: int = 10_000,
            names: Iterable[str] | None = None,
            report_dir: str | Path | None = None,
            counters: dict | None = None) -> tuple[list[CheckReport], list[float]]:
    """Run the whole suite (or a named subset) with per-check independent streams.

    Returns the reports in run order and each check's wall seconds; counters,
    if given, maps each check's name to its run_check counters.
    """
    reports, walls = [], []
    for name in REGISTRY if names is None else names:
        t0 = time.perf_counter()
        reports.append(run_check(CheckSpec(name, trials=trials_per_check, seed=seed),
                                 report_dir,
                                 None if counters is None else counters.setdefault(name, {})))
        walls.append(time.perf_counter() - t0)
    return reports, walls


def any_violations(reports: Iterable[CheckReport]) -> bool:
    return any(r.violations > 0 for r in reports)


def reports_to_json(reports: Iterable[CheckReport]) -> str:
    return _canonical_json([asdict(r) for r in reports])


def reports_to_csv(reports: Iterable[CheckReport]) -> str:
    """The reports as CSV text, one row per check (csv's \\r\\n row ends)."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["name", "trials", "violations", "worst_margin"])
    for r in reports:
        writer.writerow([r.name, r.trials_run, r.violations, repr(r.worst_margin)])
    return text.getvalue()
