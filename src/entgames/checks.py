"""Randomized verification suite for the fidelity/entropy inequality stack.

Each named check is a sampler, a row layout and a margin kernel.  The
sampler draws one trial's raw numbers from that trial's generator (Gaussian
entries of its states, in one call where their shapes are known, Dirichlet
weights, samples) into one 1-D float64 row, and returns it with a group key
(the trial's dimensions and any discrete choice, drawn through one
random_states.bounded_draws drawer).  fields(key) names the row's runs in
order, with their shapes.  CheckDef.inputs reads the rows of a group of
trials as one array, each field as a view of it, and builds their states on
the whole stack (_BUILD names which fields are states, and how they are
built).  Every Haar mixed draw, a psi or phi name, is held as its factor
psi, and a kernel forms the state psi psi^dag (random_states.gram) only
where it needs the matrix.  The kernel takes those stacked inputs and
returns one signed margin per trial, nonnegative where the inequality held
(equality checks return minus the absolute deviation), and a function that
builds the trial's states for a counterexample dump, called only on the
replay path.  A trial counts as a violation when the margin falls below
minus the check's tolerance.  Trial t of check c uses the generator
rng_for(seed, CHECK_STREAM, c, t), so any single trial can be replayed from
the report alone with replay(seed, name, t), which runs REGISTRY[name].func:
the sampler, the construction and the kernel on a batch of one, through the
same inputs path, and its dump states.

run_check takes trials from one lazily consumed rng_block stream and keeps
one pending batch of rows per group key.  A trial's entries are the matrix
entries of its built inputs plus a fixed charge for its row, looked up by
its key.  A key's batch is built and evaluated in one kernel call once its
entries reach _BUDGET, the largest pending batch once all of them reach
2 * _BUDGET, and what is left at the end; margins land in one array indexed
by trial.  So a kernel call holds at most _BUDGET entries plus one trial,
the pending rows at most twice that, and checks on small states get long
batches.  Every construction and kernel operation acts on each slice on its
own, so a trial's margin does not depend on its batch mates, nor on the
budget; a violating trial's states are taken by replaying it.  After the
loop the worst trial and each violating one are replayed alone, and a
replayed margin whose bits differ from the batched one is reported as a
fault.  run_check returns each violating trial's counterexample document as
text and writes no file.

Kernels solve each eigensystem once and pass it on as a linalg.Solved,
which is checked Hermitian and PSD when it is built and not again: a floored
reference state's eigensystem comes from the floor step, rho's one spectrum
serves its entropies and its checks, and a Kronecker product's eigensystem
is built from its factors'.  Where both states have a factor,
F(a a^dag, b b^dag) = ||b^dag a||_1 comes from the two factors alone
(qinfo.fidelity_from_factors): the psi and phi of drawn states,
sqrt(p_x) psi_x on the blocks of a cq state, or v sqrt(w) of a floored one.
A state read only through its factor is PSD by construction, so no
eigensolve re-checks it; its factor is checked finite and of unit norm
instead.  Nor is any other matrix that is PSD by construction solved again:
POVM elements S^-1/2 X_a X_a^dag S^-1/2 are checked finite and summing to I
within DEFAULT_TOLS.proj, and cptp_mono's reduced or pinched sigma, a
partial trace or pinching of phi phi^dag, is read as it is; its rho is
solved, and so checked, for its root, the one matrix root a fidelity
takes.  A state whose entropy a kernel takes is solved and checked.  run_all
runs the suite, or a named subset, and times and counts each check; `entgames
verify` calls it and writes the reports and the documents.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

import numpy as np

from .config import DEFAULT_TOLS, _canonical_json
from .linalg import (
    Solved,
    hermitianize,
    kron,
    matrix_sqrt_psd,
    partial_trace_matrix,
    solve_psd,
)
from .qinfo import (
    _outcome_distribution,
    fidelity_from_factor,
    fidelity_from_factors,
    min_relative_entropy,
    relative_entropy,
    von_neumann_entropy,
)
from .random_states import (
    bounded_draws,
    classical_states,
    floor_eigensystem,
    gram,
    mixed_factors,
    povms,
    rng_block,
    rng_for,
)

CHECK_STREAM = 201
DIM_POOL = (2, 3, 4, 6, 8)
SIGMA_FLOOR = 1e-8
POVM_OUTCOMES = 5       # povm_bound draws POVMs of 2..POVM_OUTCOMES outcomes
FACT_SAMPLES = 50       # fact_sum draws 5..FACT_SAMPLES samples
# run_check's cap on the entries of one kernel call (twice it on all pending
# batches): a trial's entries are the matrix entries of its built inputs plus
# _TRIAL_ENTRIES, a charge for its row, which outweighs the entries of 2x2
# states
_BUDGET = 1 << 15
_TRIAL_ENTRIES = 32


def _pinch_first(m: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Dephase the first factor of each d1 x d2 bipartite operator in a stack."""
    t = m.reshape(m.shape[:-2] + (d1, d2, d1, d2))
    return (t * np.eye(d1)[:, None, :, None]).reshape(m.shape)


def _fidelities(x, pairs):
    """F(rho_i, rho_j) for each (i, j) of the states rho_i = psi_i psi_i^dag,
    whose factors x holds in order, read through those factors alone
    (fidelity_from_factors), and a function giving the states by their dump
    names."""
    factors = list(x.values())
    fids = [fidelity_from_factors(factors[i], factors[j]) for i, j in pairs]
    return fids, lambda: {f"rho{i + 1}": gram(f) for i, f in enumerate(factors)}


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal (n, k d, k d) matrices from stacks of k blocks (n, k, d, d)."""
    n, k, d = blocks.shape[:3]
    out = np.zeros((n, k * d, k * d), dtype=blocks.dtype)
    for i in range(k):
        out[:, i * d:(i + 1) * d, i * d:(i + 1) * d] = blocks[:, i]
    return out


# --- samplers, each returning (group key, one trial's row), their layouts
# fields(key), and kernels, each returning (margins, function giving the
# states for counterexample dumps) for a group of stacked trials


def _dirichlet_runs(rng, out: np.ndarray, *sizes: int) -> None:
    """rng.dirichlet(np.ones(k)) for each k in sizes in turn, draw for draw,
    into consecutive runs of out, which they fill: numpy draws a flat
    Dirichlet as k standard exponentials scaled by the inverse of their
    running sum, so one exponential call draws them all."""
    rng.standard_exponential(out=out)
    end = 0
    for k in sizes:
        run = out[end:end + k]
        run *= 1.0 / run.cumsum()[-1]
        end += k


def _sample_states(n: int) -> Callable:
    """Sampler of n mixed states of one dimension from DIM_POOL, drawn as
    the raw draws (2, d^2) of their factors psi1..psin."""
    def sample(rng):
        (d,) = bounded_draws(rng)(DIM_POOL)
        return (d,), rng.standard_normal(2 * n * d * d)
    return sample


def _states_fields(n: int) -> Callable:
    names = tuple(f"psi{i + 1}" for i in range(n))

    def fields(key):
        return tuple((name, (2, key[0] ** 2)) for name in names)
    return fields


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
    k, d = bounded_draws(rng)((2, 3), (2, 3, 4))
    row = np.empty(2 * k * (1 + 2 * d * d))
    _dirichlet_runs(rng, row[:2 * k], k, k)
    rng.standard_normal(out=row[2 * k:])
    return (k, d), row


def _cq_fidelity_fields(key):
    k, d = key
    return ("p", (k,)), ("q", (k,)), ("psi_blocks", (k, 2, d * d)), ("phi_blocks", (k, 2, d * d))


def _cq_fidelity(key, x):
    # rho and sigma are read only through their block-diagonal factors
    # sqrt(p_x) psi_x and sqrt(q_x) phi_x, their blocks through psi_x and phi_x
    p, q, psi, phi = x["p"], x["q"], x["psi_blocks"], x["phi_blocks"]
    direct = fidelity_from_factors(_block_diag(np.sqrt(p)[..., None, None] * psi),
                                   _block_diag(np.sqrt(q)[..., None, None] * phi))
    blockwise = (np.sqrt(p * q) * fidelity_from_factors(psi, phi)).sum(axis=-1)
    return -abs(direct - blockwise), lambda: {
        "rho": _block_diag(p[..., None, None] * gram(psi)),
        "sigma": _block_diag(q[..., None, None] * gram(phi))}


def _sample_povm_bound(rng):
    # 2 to POVM_OUTCOMES outcomes, zero-padded to POVM_OUTCOMES so trials
    # group by d alone: a zero draw builds a zero element, which adds
    # nothing to the normalization or to the outcome sum.  psi, phi and the
    # POVM's (n_out, 2, d, d) Gaussians come from one standard_normal call
    d, n_out = bounded_draws(rng)(DIM_POOL, range(2, POVM_OUTCOMES + 1))
    dd = d * d
    row = np.zeros(2 * dd * (2 + POVM_OUTCOMES))
    rng.standard_normal(out=row[:2 * dd * (2 + n_out)])
    return (d,), row


def _povm_bound_fields(key):
    (d,) = key
    return ("psi", (2, d * d)), ("phi", (2, d * d)), ("povm", (POVM_OUTCOMES, 2, d, d))


def _povm_bound(key, x):
    # p_i = Tr(psi^dag E_i psi) is read off the unsolved gram of the factor,
    # and F from the factors.  The elements S^-1/2 X_a X_a^dag S^-1/2 are PSD
    # by construction, so they are not solved: they are checked to sum to I,
    # and that sum is non-finite if any element is
    psi, phi, povm = x["psi"], x["phi"], x["povm"]
    f = fidelity_from_factors(psi, phi)
    if not (np.abs(povm.sum(axis=-3) - np.eye(povm.shape[-1])) <= DEFAULT_TOLS.proj).all():
        raise ValueError("POVM elements are not finite or do not sum to the identity")
    r, s = gram(psi), gram(phi)
    p, q = _outcome_distribution(povm, r), _outcome_distribution(povm, s)
    return np.sqrt(p * q).sum(axis=-1) - f, lambda: {"rho": r, "sigma": s, "povm": povm}


def _pair_fields(key):
    """psi and phi, the factors of two states on the key's first two
    dimensions."""
    n = (key[0] * key[1]) ** 2
    return ("psi", (2, n)), ("phi", (2, n))


def _joint_fields(key):
    """psi, the factor of one state on the product of the key's dimensions."""
    return (("psi", (2, math.prod(key) ** 2)),)


def _sample_cptp_mono(rng):
    draw = bounded_draws(rng)
    d1, d2 = draw((2, 3), (2, 3, 4))
    row = rng.standard_normal(4 * (d1 * d2) ** 2)
    (pinch,) = draw(range(2))
    return (d1, d2, pinch), row


def _cptp_mono(key, x):
    # the full states' fidelity reads them through their factors psi and phi.
    # The reduced or pinched states, a partial trace or pinching of psi psi^dag
    # and phi phi^dag, are PSD by construction: qr is solved (and checked) for
    # its root, the factor F(qr, qs) takes, and qs is read as it is
    d1, d2, pinch = key
    psi, phi = x["psi"], x["phi"]
    f = fidelity_from_factors(psi, phi)
    r, s = gram(psi), gram(phi)
    if pinch:
        qr, qs = _pinch_first(r, d1, d2), _pinch_first(s, d1, d2)
    else:
        qr = partial_trace_matrix(r, (d1, d2), [0])
        qs = partial_trace_matrix(s, (d1, d2), [0])
    return fidelity_from_factor(matrix_sqrt_psd(qr), qs) - f, lambda: {"rho": r, "sigma": s}


def _sample_subadd_cond(rng):
    dims = tuple(bounded_draws(rng)((2, 3), (2, 3), (2, 3)))
    return dims, rng.standard_normal(2 * math.prod(dims) ** 2)


def _subadd_cond(dims, x):
    r = gram(x["psi"])

    def ent(keep):
        return von_neumann_entropy(partial_trace_matrix(r, dims, keep))
    s_c = ent([2])
    m = (ent([0, 2]) - s_c) + (ent([1, 2]) - s_c) - (ent([0, 1, 2]) - s_c)
    return m, lambda: {"rho": r}


def _kron_eig(a: Solved, b: Solved) -> Solved:
    """kron(A, B) with its eigensystem built from the factors': products of
    eigenvalues, sorted ascending, on kron products of eigenvectors."""
    w = (a.w[..., :, None] * b.w[..., None, :]).reshape(a.w.shape[:-1] + (-1,))
    order = np.argsort(w, axis=-1)
    return Solved(kron(a.matrix, b.matrix), np.take_along_axis(w, order, axis=-1),
                  np.take_along_axis(kron(a.v, b.v), order[..., None, :], axis=-1))


def _relent_vs_fid(key, x):
    # F comes from rho's factor psi and the floored sigma's v sqrt(w); rho's
    # one spectrum, which S reads, is its check
    psi = x["psi1"]
    s = floor_eigensystem(gram(x["psi2"]), SIGMA_FLOOR)
    r = solve_psd(gram(psi), vectors=False)
    f = fidelity_from_factors(psi, s.v * np.sqrt(s.w)[..., None, :])
    return relative_entropy(r, s) - (1 - f), lambda: {"rho": r.matrix, "sigma": s.matrix}


def _sample_superadd_classical(rng):
    d1, d2 = bounded_draws(rng)((2, 3, 4), (2, 3, 4))
    row = np.empty(d1 * d2 + d1 + d2)
    _dirichlet_runs(rng, row, d1 * d2, d1, d2)
    return (d1, d2), row


def _superadd_classical_fields(key):
    d1, d2 = key
    return ("sigma12", (d1 * d2,)), ("ref1", (d1,)), ("ref2", (d2,))


def _superadd_classical(dims, x):
    joint = x["sigma12"]
    s1, s2 = (floor_eigensystem(x[k], SIGMA_FLOOR) for k in ("ref1", "ref2"))
    lhs = relative_entropy(joint, _kron_eig(s1, s2))
    rhs = (relative_entropy(partial_trace_matrix(joint, dims, [0]), s1)
           + relative_entropy(partial_trace_matrix(joint, dims, [1]), s2))
    return lhs - rhs, lambda: {"sigma12": joint, "ref1": s1.matrix, "ref2": s2.matrix}


def _smax_ge_s(key, x):
    rho = gram(x["psi1"])
    s = floor_eigensystem(gram(x["psi2"]), SIGMA_FLOOR)
    r = solve_psd(rho, vectors=False)      # one spectrum for both entropies
    m = min_relative_entropy(r, s) - relative_entropy(r, s)
    return m, lambda: {"rho": rho, "sigma": s.matrix}


def _sample_mi_min_relent(rng):
    # rho's, sigma_x's and sigma_y's (2, d^2) Gaussians from one call
    d1, d2 = bounded_draws(rng)((2, 3), (2, 3))
    return (d1, d2), rng.standard_normal(2 * ((d1 * d2) ** 2 + d1 * d1 + d2 * d2))


def _mi_min_relent_fields(key):
    d1, d2 = key
    return ("psi", (2, (d1 * d2) ** 2)), ("phi_x", (2, d1 * d1)), ("phi_y", (2, d2 * d2))


def _mi_min_relent(dims, x):
    rho = gram(x["psi"])
    r = solve_psd(rho, vectors=False)      # the one full-size solve
    rx, ry = (solve_psd(partial_trace_matrix(rho, dims, [i])) for i in (0, 1))
    sx, sy = (floor_eigensystem(gram(x[k]), SIGMA_FLOOR) for k in ("phi_x", "phi_y"))
    m = relative_entropy(r, _kron_eig(sx, sy)) - relative_entropy(r, _kron_eig(rx, ry))
    return m, lambda: {"rho": rho, "sigma_x": sx.matrix, "sigma_y": sy.matrix}


def _sample_relent_mono(rng):
    d1, d2 = bounded_draws(rng)((2, 3), (2, 3))
    return (d1, d2), rng.standard_normal(4 * (d1 * d2) ** 2)


def _relent_mono(dims, x):
    r, s = gram(x["psi"]), floor_eigensystem(gram(x["phi"]), SIGMA_FLOOR)
    m = (relative_entropy(r, s)
         - relative_entropy(partial_trace_matrix(r, dims, [0]),
                            partial_trace_matrix(s.matrix, dims, [0])))
    return m, lambda: {"rho": r, "sigma": s.matrix}


def _sample_cool_product(rng):
    # da's pool, the dimensions >= db, depends on db; its draw still takes
    # the half-word db's left
    draw = bounded_draws(rng)
    (db,) = draw((2, 3))
    (da,) = draw((2, 3, 4)[db - 2:])
    return (da, db), rng.standard_normal(2 * (da * db) ** 2)


def _cool_product(dims, x):
    r = gram(x["psi"])
    ra = partial_trace_matrix(r, dims, [0])
    rb = partial_trace_matrix(r, dims, [1])
    gap = dims[1] * dims[1] * kron(ra, rb) - r
    return np.linalg.eigvalsh(hermitianize(gap))[:, 0], lambda: {"rho": r}


def _sample_fact_sum(rng):
    # n draws, zero-padded to FACT_SAMPLES so that trials group by nothing
    # (the kernel masks the padding), then n and C
    (n,) = bounded_draws(rng)(range(5, FACT_SAMPLES + 1))
    row = np.zeros(FACT_SAMPLES + 2)
    rng.standard_exponential(out=row[:n])
    row[-2:] = n, rng.uniform(1.05, 8.0)
    return (), row


def _fact_sum_fields(key):
    return ("x", (FACT_SAMPLES,)), ("n", ()), ("c", ())


def _fact_sum(key, x):
    xs, n, c = x["x"], x["n"], x["c"]
    drawn = np.arange(FACT_SAMPLES) < n[:, None]
    count = ((xs <= (c * xs.sum(axis=-1) / n)[:, None]) & drawn).sum(axis=-1)
    return count - n * (1 - 1 / c), lambda: x


# how each named field of a row becomes a kernel input, on the stack of a
# group's trials; every Haar mixed draw, a psi or phi name, is built as the
# factor psi of its state psi psi^dag, which a kernel forms (gram) only where
# it needs the matrix, and fact_sum's sample count n is read as an integer;
# fields not named here (distributions, samples, constants) are used as drawn
_BUILD = {
    **dict.fromkeys(("psi", "psi1", "psi2", "psi3", "psi4", "psi_blocks",
                     "phi", "phi_blocks", "phi_x", "phi_y"), mixed_factors),
    "povm": povms,
    **dict.fromkeys(("sigma12", "ref1", "ref2"), classical_states),
    "n": lambda n: n.astype(int),
}


def _views(fields, rows: np.ndarray) -> dict:
    """Each field (name, shape) of a layout, in order, read from a stack of
    rows (trials, row size) as a view of shape (trials, *shape)."""
    x, end = {}, 0
    for name, shape in fields:
        start, end = end, end + math.prod(shape)
        x[name] = rows[:, start:end].reshape(rows.shape[:1] + shape)
    if end != rows.shape[1]:
        raise ValueError(f"fields cover {end} of a row's {rows.shape[1]} numbers")
    return x


@dataclass(frozen=True)
class CheckDef:
    sample: Callable    # rng -> (group key, one trial's raw numbers as a 1-D float64 row)
    fields: Callable    # group key -> ((name, shape), ...), the layout of its rows
    kernel: Callable    # (group key, dict of stacked inputs) -> (margins, () -> stacked dump states)
    tolerance: float
    statement: str

    def inputs(self, key, rows: list) -> dict:
        """Kernel inputs of trials that share a group key: their rows as one
        array, each field read as a view of it, and the states among them
        built on the whole stack."""
        x = _views(self.fields(key), np.array(rows))
        return {n: _BUILD[n](a) if n in _BUILD else a for n, a in x.items()}

    def entries(self, key, row: np.ndarray) -> int:
        """Matrix entries of one trial's built inputs, the unit of _BUDGET."""
        return sum(a.size for a in self.inputs(key, [row]).values())

    def func(self, rng) -> tuple[float, dict]:
        """One trial's (margin, dump states): sampler, construction and kernel
        on a batch of one, and the states its dump would hold."""
        key, row = self.sample(rng)
        margins, dump = self.kernel(key, self.inputs(key, [row]))
        return float(margins[0]), {n: a[0] for n, a in dump().items()}


# Registry order is frozen: the position is the per-check seed stream id.
REGISTRY: dict[str, CheckDef] = {
    "weak_triangle": CheckDef(_sample_states(3), _states_fields(3), _weak_triangle, 1e-9,
                              "1-F13 <= 2(1-F12) + 2(1-F23)"),
    "four_state": CheckDef(_sample_states(4), _states_fields(4), _four_state, 1e-9,
                           "Fbar14 <= 3(Fbar12 + Fbar23 + Fbar34)"),
    "fidelity_sq_sum": CheckDef(_sample_states(3), _states_fields(3), _fidelity_sq_sum, 1e-9,
                                "F12^2 + F23^2 <= 1 + F13"),
    "cq_fidelity": CheckDef(_sample_cq_fidelity, _cq_fidelity_fields, _cq_fidelity, 1e-8,
                            "F of cq states = sum_x sqrt(p_x q_x) F(rho_x, sigma_x)"),
    "povm_bound": CheckDef(_sample_povm_bound, _povm_bound_fields, _povm_bound, 1e-9,
                           "sum_i sqrt(p_i q_i) >= F"),
    "cptp_mono": CheckDef(_sample_cptp_mono, _pair_fields, _cptp_mono, 1e-9,
                          "F(Q rho, Q sigma) >= F(rho, sigma) for partial trace / pinching"),
    "subadd_cond": CheckDef(_sample_subadd_cond, _joint_fields, _subadd_cond, 1e-9,
                            "S(AB|C) <= S(A|C) + S(B|C)"),
    "relent_vs_fid": CheckDef(_sample_states(2), _states_fields(2), _relent_vs_fid, 1e-8,
                              "S(rho||sigma) >= 1 - F(rho, sigma)"),
    "superadd_classical": CheckDef(_sample_superadd_classical, _superadd_classical_fields,
                                   _superadd_classical, 1e-8,
                                   "classical S(sigma||rho1 x rho2) >= sum of marginal terms"),
    "smax_ge_s": CheckDef(_sample_states(2), _states_fields(2), _smax_ge_s, 1e-7,
                          "S_inf(rho||sigma) >= S(rho||sigma)"),
    "mi_min_relent": CheckDef(_sample_mi_min_relent, _mi_min_relent_fields, _mi_min_relent,
                              1e-7, "S(rho||rhoX x rhoY) <= S(rho||sigmaX x sigmaY)"),
    "relent_mono": CheckDef(_sample_relent_mono, _pair_fields, _relent_mono, 1e-8,
                            "S(rho||sigma) >= S(rho^X||sigma^X)"),
    "cool_product": CheckDef(_sample_cool_product, _joint_fields, _cool_product, 1e-9,
                             "rho <= |B|^2 (rho^A x rho^B) for |A| >= |B|"),
    "fact_sum": CheckDef(_sample_fact_sum, _fact_sum_fields, _fact_sum, 1e-9,
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
    worst_case_seed: int    # trial index; replay(seed, name, it) replays it


def replay(seed: int, name: str, trial: int) -> tuple[float, dict]:
    """(margin, dump states) of one trial of a run at seed, alone, from its
    generator rng_for(seed, CHECK_STREAM, c, trial), c the check's position."""
    return REGISTRY[name].func(rng_for(seed, CHECK_STREAM, list(REGISTRY).index(name), trial))


def _counterexample(name: str, trial: int, margin: float, payload: dict) -> tuple[str, str]:
    """One counterexample file's (name, text): the trial's margin and states."""
    doc = {"check": name, "trial": trial, "margin": margin, "states": {}}
    for key, arr in payload.items():
        arr = np.asarray(arr)
        doc["states"][key] = {"re": arr.real.tolist(), "im": arr.imag.tolist()} \
            if np.iscomplexobj(arr) else arr.tolist()
    return f"counterexample_{name}_{trial}.json", _canonical_json(doc)


def run_check(spec: CheckSpec, counters: dict | None = None) -> CheckReport:
    """Run one check; deterministic given (spec.name, spec.trials, spec.seed).

    Trials are batched by group key under the _BUDGET caps described in the
    module docstring; a trial's entries depend only on its key, so they are
    counted once per key, as is the number of trials that fills a batch.
    After the loop the run audits its batches: the worst trial, and each
    violating trial, is replayed alone through replay, which must give the
    bits of its batched margin.  counters, if given, receives the run's
    wall_s, kernel_calls, max_batch_entries (the entries of its largest
    one), kernel_s (seconds building and evaluating batches), draw_s (the
    rest of the trial loop: deriving generators, sampling and batching),
    replay_s (the audit's replays and the counterexample documents),
    replay_mismatches (the replayed trials whose margin bits differ, a
    program fault) and dumps (file name -> text of each violating trial's
    counterexample document, which the caller writes).
    """
    t_start = time.perf_counter()
    if spec.name not in REGISTRY:
        raise ValueError(f"unknown check {spec.name!r}; have {sorted(REGISTRY)}")
    if spec.trials < 1:
        raise ValueError(f"trials must be >= 1, got {spec.trials}")
    check_id = list(REGISTRY).index(spec.name)
    check = REGISTRY[spec.name]
    margins = np.empty(spec.trials)
    sizes: dict = {}        # group key -> (one trial's entries, trials that fill a batch)
    pending: dict = {}      # group key -> (trial indices, their rows)
    held = kernel_calls = max_batch = 0
    kernel_s = 0.0

    def size(key) -> int:
        return len(pending[key][0]) * sizes[key][0]

    def evaluate(key) -> None:
        nonlocal held, kernel_calls, max_batch, kernel_s
        used = size(key)
        trials, rows = pending.pop(key)
        t0 = time.perf_counter()
        margins[trials] = check.kernel(key, check.inputs(key, rows))[0]
        kernel_s += time.perf_counter() - t0
        held -= used
        kernel_calls += 1
        max_batch = max(max_batch, used)

    t_loop = time.perf_counter()
    rngs = rng_block(spec.seed, CHECK_STREAM, check_id, trials=range(spec.trials))
    for trial, rng in enumerate(rngs):
        key, row = check.sample(rng)
        batch = pending.get(key)
        if batch is None:
            if key not in sizes:
                entries = check.entries(key, row) + _TRIAL_ENTRIES
                sizes[key] = (entries, -(-_BUDGET // entries))
            batch = pending[key] = ([], [])
        batch[0].append(trial)
        batch[1].append(row)
        entries, full = sizes[key]
        held += entries
        if len(batch[0]) >= full:
            evaluate(key)
        if held >= 2 * _BUDGET:
            evaluate(max(pending, key=size))
    for key in list(pending):
        evaluate(key)
    loop_s = time.perf_counter() - t_loop
    # argmin keeps the first of equal minimal margins
    worst = int(np.argmin(margins))
    violating = np.flatnonzero(margins < -check.tolerance).tolist()
    mismatches: list[int] = []
    t_replay = time.perf_counter()

    def audit(trial: int) -> dict:
        margin, states = replay(spec.seed, spec.name, trial)
        if np.float64(margin).tobytes() != margins[trial].tobytes():
            mismatches.append(trial)
        return states

    if worst not in violating:
        audit(worst)
    dumps = dict(_counterexample(spec.name, t, float(margins[t]), audit(t)) for t in violating)
    if counters is not None:
        replay_s = time.perf_counter() - t_replay
        counters.update(wall_s=time.perf_counter() - t_start, kernel_calls=kernel_calls,
                        max_batch_entries=max_batch, draw_s=loop_s - kernel_s,
                        kernel_s=kernel_s, replay_s=replay_s,
                        replay_mismatches=mismatches, dumps=dumps)
    return CheckReport(spec.name, spec.trials, len(violating), float(margins[worst]), worst)


def run_all(seed: int = 0, trials_per_check: int = 10_000,
            names: Iterable[str] | None = None,
            counters: dict | None = None) -> list[CheckReport]:
    """Run the whole suite (or a named subset) with per-check independent streams.

    Returns the reports in run order; counters, if given, maps each check's
    name to its run_check counters.
    """
    return [run_check(CheckSpec(name, trials=trials_per_check, seed=seed),
                      None if counters is None else counters.setdefault(name, {}))
            for name in (REGISTRY if names is None else names)]


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
