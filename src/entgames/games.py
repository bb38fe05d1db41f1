"""Two-player one-round games: values, strategies, repetition.

A game is (inputs [k] x [k] with distribution p, outputs [l] x [l], winning
predicate V indexed [a, b, x, y]).  Repeated games use little-endian
mixed-radix index encoding: round 1 is the least significant digit of every
combined input/output index.

The see-saw lower bound warm-starts a repeated game: when g is repeat(base,
n) (found from g's tables alone, _repetition_base) and the local dimension
is d = d1^n for an integer d1, it solves base at d1 and adds the n-th tensor
power of that strategy as one restart after the random ones.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from .config import (
    DEFAULT_TOLS,
    MAX_ENUMERATION,
    MAX_TABLE_ENTRIES,
    BudgetError,
    _field,
    _integer,
    _load_json,
    _string,
    _table,
)
from .linalg import dagger, hermitian_eig, hermitianize
from .qinfo import PureState
from .random_states import haar_unitaries, projectives, rng_block

_STREAM_SEESAW = 101
_IMPROVE_TOL = 1e-12    # a see-saw restart stops at the first step that gains less


@dataclass(frozen=True)
class Game:
    """Finite two-player game with shared input distribution.

    p has shape (k, k) indexed [x, y]; v has shape (l, l, k, k) indexed
    [a, b, x, y] with boolean entries.  Tables are frozen read-only.
    """

    k: int
    l: int
    p: np.ndarray
    v: np.ndarray
    name: str | None = None

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        v = np.array(self.v, dtype=bool)
        if p.shape != (self.k, self.k):
            raise ValueError(f"p has shape {p.shape}, expected {(self.k, self.k)}")
        if v.shape != (self.l, self.l, self.k, self.k):
            raise ValueError(f"V has shape {v.shape}, expected {(self.l, self.l, self.k, self.k)}")
        check_distribution(p)
        p.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "v", v)

    def __eq__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        return (self.k == other.k and self.l == other.l and self.name == other.name
                and np.array_equal(self.p, other.p) and np.array_equal(self.v, other.v))


def check_distribution(p: np.ndarray) -> None:
    """Raise unless p is finite, has no entry below -1e-15 and sums to 1 within 1e-12."""
    if not np.isfinite(p).all():
        raise ValueError("p has non-finite entries")
    if p.min() < -1e-15:
        raise ValueError("p has negative entries")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValueError(f"p sums to {p.sum()!r}, not 1 within 1e-12")


def is_product(p: np.ndarray) -> bool:
    """True iff p[x, y] is the product of its marginals within 1e-10 per entry."""
    return bool(np.abs(p - np.outer(p.sum(axis=1), p.sum(axis=0))).max() <= 1e-10)


def chsh() -> Game:
    """The CHSH game: uniform inputs, win iff a xor b = x and y."""
    p = np.full((2, 2), 0.25)
    v = np.zeros((2, 2, 2, 2), dtype=bool)
    for a in range(2):
        for b in range(2):
            for x in range(2):
                for y in range(2):
                    v[a, b, x, y] = (a ^ b) == (x & y)
    return Game(2, 2, p, v, name="CHSH")


# ---------------------------------------------------------------------------
# strategies


@dataclass(frozen=True)
class ClassicalStrategy:
    """Deterministic maps input -> output for each player."""

    alice: tuple[int, ...]
    bob: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "alice", tuple(int(a) for a in self.alice))
        object.__setattr__(self, "bob", tuple(int(b) for b in self.bob))


@dataclass(frozen=True)
class QuantumStrategy:
    """Shared pure state plus projective measurements per input.

    alice/bob have shape (k, l, d, d): measurement element for (input, output).
    Construction raises unless the state has two registers (Alice's, Bob's) and
    every input's elements are projectors within DEFAULT_TOLS.proj summing to I.
    """

    state: PureState
    alice: np.ndarray
    bob: np.ndarray

    def __post_init__(self):
        if len(self.state.dims) != 2:
            raise ValueError(f"strategy state has dims {self.state.dims}, not two registers")
        da, db = self.state.dims
        for name, meas, d in (("alice", self.alice, da), ("bob", self.bob, db)):
            if meas.shape[2:] != (d, d):
                raise ValueError(f"{name} measurement dimension mismatch")
            for what, dev in (("is not Hermitian", meas - dagger(meas)),
                              ("is not idempotent", meas @ meas - meas),
                              ("does not sum to identity", meas.sum(axis=1) - np.eye(d))):
                if np.abs(dev).max(initial=0.0) > DEFAULT_TOLS.proj:
                    raise ValueError(f"{name} measurement {what} within tolerance")


# ---------------------------------------------------------------------------
# index encoding for repeated games (little-endian, round 1 least significant)


def _digit_table(base: int, n: int) -> np.ndarray:
    """(base**n, n) array; row r holds the n digits of r, little-endian:
    r = sum_i row[i] * base**i."""
    idx = np.arange(base**n)
    return np.stack([(idx // base**i) % base for i in range(n)], axis=1)


# ---------------------------------------------------------------------------
# classical value


@dataclass(frozen=True)
class ClassicalValueResult:
    value: float
    strategy: ClassicalStrategy


def classical_value(g: Game) -> ClassicalValueResult:
    """Exact classical value by exhaustive enumeration of deterministic maps.

    Alice maps are enumerated in lexicographic order on (a(0),...,a(k-1)); for
    each, Bob's best reply decomposes per input y.  Ties resolve to the
    lexicographically smallest (alice, bob) pair.
    """
    k, l = g.k, g.l
    n_maps = l**k
    if n_maps > MAX_ENUMERATION:
        raise BudgetError(f"l^k = {n_maps} exceeds enumeration budget {MAX_ENUMERATION}")

    # lexicographic order: digit for x=0 most significant
    powers = l ** np.arange(k - 1, -1, -1)
    xs = np.arange(k)
    v_xaby = g.v.transpose(2, 0, 1, 3).astype(float)          # [x, a, b, y]
    best_val = -1.0
    best_alice = best_bob = None
    chunk = max(1, min(n_maps, 1 << 14))
    for lo in range(0, n_maps, chunk):
        ms = np.arange(lo, min(lo + chunk, n_maps))
        amaps = (ms[:, None] // powers[None, :]) % l          # (m, k)
        t = v_xaby[xs[None, :], amaps]                        # (m, x, b, y)
        s = np.einsum("xy,mxby->myb", g.p, t)
        vals = s.max(axis=2).sum(axis=1)
        m_star = int(np.argmax(vals))
        if vals[m_star] > best_val + 1e-15:
            best_val = float(vals[m_star])
            best_alice = tuple(int(a) for a in amaps[m_star])
            best_bob = tuple(int(b) for b in s[m_star].argmax(axis=1))
    return ClassicalValueResult(best_val, ClassicalStrategy(best_alice, best_bob))


def strategy_win_probability(g: Game, strategy: ClassicalStrategy | QuantumStrategy) -> float:
    """Exact winning probability of a strategy in g; raises unless each player's
    maps have g's k inputs, or measurements g's k inputs and l outcomes."""
    classical = isinstance(strategy, ClassicalStrategy)
    arity = (g.k,) if classical else (g.k, g.l)
    if any(np.shape(m)[:len(arity)] != arity for m in (strategy.alice, strategy.bob)):
        raise ValueError("strategy input arity does not match the game")
    if classical:
        a = np.array(strategy.alice)
        b = np.array(strategy.bob)
        xs = np.arange(g.k)
        return float((g.p * g.v[a[:, None], b[None, :], xs[:, None], xs[None, :]]).sum())
    ops = _alice_payoffs(_payoff_weights(g), strategy.bob, strategy.state.tensor())
    return float(np.einsum("xail,xali->", strategy.alice, ops).real)


# ---------------------------------------------------------------------------
# see-saw heuristic for the entangled value


def _compress(ops: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q[x]^dag ops[x, a] q[x] for every input x and outcome a, (k, l, r, r).

    Two GEMMs per input: the outcomes' operators stacked as rows times q[x],
    then q[x]^dag times the products stacked as columns.
    """
    k, l, d = ops.shape[:3]
    r = q.shape[-1]
    m = (ops.reshape(k, l * d, d) @ q).reshape(k, l, d, r)
    m = dagger(q) @ m.transpose(0, 2, 1, 3).reshape(k, d, l * r)
    return m.reshape(k, r, l, r).transpose(0, 2, 1, 3)


def _best_projective(ops: np.ndarray) -> np.ndarray:
    """Projective measurements maximizing sum_a Tr(P_a ops[x, a]) for every input x.

    ops has shape (k, l, d, d).  Two outcomes: exact positive/negative
    eigenspace split of the difference (zero eigenvalues go to outcome 0).
    More outcomes: greedy eigenvalue assignment by iterative subspace
    compression, ties to the lowest output.  Each greedy step picks every
    input's outcome from the eigenvalues of all inputs and outcomes (one
    stacked eigvalsh) and solves for eigenvectors only on the picked
    outcomes' stack (one eigh).  The picked outcome's top eigenvector is
    assigned to it, and its other eigenvectors are the next step's basis, so
    a step with r >= 2 makes those two solves and the last, 1 x 1 step none.
    """
    k, l, d = ops.shape[:3]
    out = np.zeros_like(ops)
    if l == 1:
        out[:, 0] = np.eye(d)
        return out
    if l == 2:
        w, v = np.linalg.eigh(hermitianize(ops[:, 0] - ops[:, 1]))
        sel = v * (w >= 0.0)[:, None, :]
        p0 = sel @ dagger(sel)
        out[:, 0] = hermitianize(p0)
        out[:, 1] = hermitianize(np.eye(d) - p0)
        return out
    xs = np.arange(k)
    q = np.broadcast_to(np.eye(d, dtype=complex), (k, d, d))    # unassigned subspace
    for r in range(d, 0, -1):
        comp = hermitianize(ops if r == d else _compress(ops, q))
        # a 1 x 1 block is its own eigenvalue, with eigenvector 1
        top = comp[..., 0, 0].real if r == 1 else np.linalg.eigvalsh(comp)[..., -1]
        best_a, best_lam = np.zeros(k, dtype=int), top[:, 0]
        for a in range(1, l):
            better = top[:, a] > best_lam + 1e-15
            best_a = np.where(better, a, best_a)
            best_lam = np.where(better, top[:, a], best_lam)
        if r > 1:
            # columns: a basis of the next, smaller subspace, then the pick
            q = q @ np.linalg.eigh(comp[xs, best_a])[1]            # (k, d, r)
        vec = q[:, :, -1]
        out[xs, best_a] += vec[:, :, None] * vec.conj()[:, None, :]
        q = q[:, :, :-1]
    return hermitianize(out)


def _pairing(m: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Re of the sum of m[..., a, i, j] ops[..., a, j, i] over the last 3 axes.

    One BLAS dot per slice, so a slice's value does not depend on the stack
    around it (a reducing einsum may sum in another order when the stack's
    shape changes).
    """
    lead = m.shape[:-3]
    rows = m.reshape(*lead, 1, -1)
    cols = ops.swapaxes(-1, -2).reshape(*lead, -1, 1)
    return (rows @ cols)[..., 0, 0].real


def _update_measurements(meas: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Best-projective update of (..., k, l, d, d) measurements, kept per input
    only when it does not decrease the score sum_a Tr(P_a ops[a])."""
    cand = _best_projective(ops.reshape(-1, *ops.shape[-3:])).reshape(ops.shape)
    new, old = (_pairing(m, ops) for m in (cand, meas))
    return np.where((new >= old)[..., None, None, None], cand, meas)


def _payoff_weights(g: Game) -> np.ndarray:
    """The table p[x, y] * V[a, b, x, y], indexed [x, a, y, b]."""
    return np.einsum("xy,abxy->xayb", g.p, g.v.astype(float))


def _alice_payoffs(w: np.ndarray, bob: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Alice's operators [..., x, a] for Bob's measurements and shared states.

    w is the _payoff_weights table; bob has shape (..., k, l, dB, dB) and
    states (..., dA, dB).  A state without the leading axes is shared by
    every stacked strategy.  psi B^T psi^dag for every (y, b) takes one
    batched matmul.  The sum over (y, b) weighted by w is a real GEMM on the
    real and imaginary parts at once, one per stacked strategy, so no GEMM
    spans two stacked strategies and a strategy's operators do not depend on
    the stack.
    """
    k, l = w.shape[:2]
    psi = states[..., None, None, :, :]
    kmat = psi @ bob.swapaxes(-1, -2) @ dagger(psi)
    lead, da = kmat.shape[:-4], kmat.shape[-1]
    parts = kmat.reshape(*lead, k * l, da * da).view(float)
    ops = w.reshape(k * l, k * l) @ parts
    return ops.view(complex).reshape(*lead, k, l, da, da)


def _bob_payoffs(w: np.ndarray, alice: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Bob's operators [..., y, b]; w and states as in _alice_payoffs.

    They are Alice's operators of the game with the players swapped: w
    indexed [y, b, x, a] and each state transposed to B (x) A.
    """
    return _alice_payoffs(w.transpose(2, 3, 0, 1), alice, states.swapaxes(-2, -1))


def _payoff_operator(w: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """Sum of w[x, a, y, b] alice[..., x, a] (x) bob[..., y, b], as two batched GEMMs."""
    lead, (k, l, da), db = alice.shape[:-4], alice.shape[-4:-1], bob.shape[-1]
    a = alice.reshape(*lead, k * l, da * da)
    t = a.swapaxes(-1, -2) @ (w.reshape(k * l, -1) @ bob.reshape(*lead, k * l, db * db))
    t = t.reshape(*lead, da, da, db, db).swapaxes(-3, -2)
    return hermitianize(t.reshape(*lead, da * db, da * db))


def _lockstep(weights: np.ndarray, cur: np.ndarray, alice: np.ndarray, bob: np.ndarray,
              iters: int) -> tuple[list[list[float]], int]:
    """Run the restarts stacked in (cur, alice, bob) in lockstep, in place.

    cur holds (R, d, d) states, alice and bob (R, k, l, d, d) measurements.
    Each step advances the restarts still active, indexed by act, through one
    Alice, Bob and state update on their stacks (st, a, b), which hold only
    the active rows.  A restart leaves the set when its value rose by less
    than _IMPROVE_TOL, so its trace and final strategy are those of running
    it alone; its rows are written back to (cur, alice, bob) as it leaves,
    and the rows still active once the steps run out at the end.  Returns
    the traces and the number of steps.
    """
    traces: list[list[float]] = [[] for _ in range(alice.shape[0])]
    prev = np.full(alice.shape[0], -np.inf)
    act = np.arange(alice.shape[0])
    st, a, b = cur, alice, bob
    for step in range(1, iters + 1):
        a = _update_measurements(a, _alice_payoffs(weights, b, st))
        b = _update_measurements(b, _bob_payoffs(weights, a, st))
        w, v = hermitian_eig(_payoff_operator(weights, a, b))
        val = w[:, -1]
        # contiguous, as gathered rows are: a strided operand may leave BLAS
        # for numpy's own matmul loop, which sums in another order
        st = np.ascontiguousarray(v[:, :, -1]).reshape(st.shape)
        for r, v_r in zip(act.tolist(), val.tolist()):
            traces[r].append(v_r)
        keep = val - prev >= _IMPROVE_TOL
        if not keep.all():
            done = act[~keep]
            cur[done], alice[done], bob[done] = st[~keep], a[~keep], b[~keep]
            act, st, a, b, val = act[keep], st[keep], a[keep], b[keep], val[keep]
        prev = val
        if act.size == 0:
            break
    cur[act], alice[act], bob[act] = st, a, b
    return traces, step


def _draw_starts(g: Game, d: int, restarts: int, seed: int):
    """Start points of the see-saw restarts at local dimension d: (states, alice, bob).

    Restart r draws from rng_for(seed, _STREAM_SEESAW, r) (derived through
    rng_block, one by one for fewer than _RNG_VECTOR_MIN restarts) one row of
    Gaussians in one call: a Haar state's real and imaginary parts, then the
    raw draws of Alice's and Bob's measurements, input by input, the numbers
    of haar_state and two unitary_draw calls.  Each state is normalized on
    its own, as haar_state does, and each player's measurements of every
    restart are built with one stacked QR, draw for draw equal to
    random_projective.  states is (R, d, d); alice and bob are (R, k, l, d, d).
    """
    dd = d * d
    rows = np.empty((restarts, 2 * dd * (1 + 2 * g.k)))
    for row, rng in zip(rows, rng_block(seed, _STREAM_SEESAW, trials=range(restarts))):
        rng.standard_normal(out=row)
    cur = rows[:, :dd] + 1j * rows[:, dd:2 * dd]
    for psi in cur:
        psi /= np.linalg.norm(psi)
    draws = rows[:, 2 * dd:].reshape(restarts, 2, g.k, 2, d, d)
    return (cur.reshape(restarts, d, d), projectives(haar_unitaries(draws[:, 0]), g.l),
            projectives(haar_unitaries(draws[:, 1]), g.l))


def _int_root(m: int, n: int) -> int | None:
    """The integer r with r^n = m, or None."""
    r = round(m ** (1.0 / n))
    return r if r ** n == m else None


def _repetition_base(g: Game) -> tuple[Game, int] | None:
    """(base, n) with repeat(base, n) equal to g, for the largest such n >= 2,
    or None.

    A candidate n needs integer k1 = k^(1/n) and l1 = l^(1/n) with
    k1 l1 >= 2, so a game with two inputs and two outputs builds no table.
    The candidate base's p is p's marginal on digit 0 and its V is V at
    repeated digits (every round's digit equal); it is accepted only if
    repeat(base, n) gives V exactly and p within 1e-15.  A game whose V is
    over MAX_TABLE_ENTRIES, which repeat would not rebuild, has none.
    """
    if g.v.size > MAX_TABLE_ENTRIES:
        return None
    for n in range(max(g.k, g.l).bit_length() - 1, 1, -1):
        k1, l1 = _int_root(g.k, n), _int_root(g.l, n)
        if k1 is None or l1 is None or k1 * l1 < 2:
            continue
        rest = g.k // k1
        # digit i repeated in all n rounds is the index i (1 + m + ... + m^(n-1))
        xs = np.arange(k1) * sum(k1 ** i for i in range(n))
        ab = np.arange(l1) * sum(l1 ** i for i in range(n))
        try:
            base = Game(k1, l1, g.p.reshape(rest, k1, rest, k1).sum(axis=(0, 2)),
                        g.v[np.ix_(ab, ab, xs, xs)])
        except ValueError:          # a marginal that is not a distribution
            continue
        rep = repeat(base, n)
        if np.array_equal(rep.v, g.v) and np.abs(rep.p - g.p).max() <= 1e-15:
            return base, n
    return None


def _kron_measurements(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """kron(hi[x1, a1], lo[x0, a0]) at input x1 k0 + x0 and outcome a1 l0 + a0,
    where lo has k0 inputs and l0 outcomes: lo plays the less significant round."""
    (k1, l1, d1), (k0, l0, d0) = hi.shape[:3], lo.shape[:3]
    t = np.einsum("xaij,ybkl->xyabikjl", hi, lo)
    return t.reshape(k1 * k0, l1 * l0, d1 * d0, d1 * d0)


def _tensor_power(s: QuantumStrategy, n: int) -> QuantumStrategy:
    """s played in each of n rounds on the n-fold product of its state, in
    repeat's little-endian order: round 1 is the least significant digit of
    every input, outcome and register index.  Checked as a QuantumStrategy."""
    psi = s.state.tensor()
    state, alice, bob = psi, s.alice, s.bob
    for _ in range(n - 1):
        state = np.kron(psi, state)
        alice, bob = _kron_measurements(s.alice, alice), _kron_measurements(s.bob, bob)
    return QuantumStrategy(PureState(state.reshape(-1), state.shape), alice, bob)


@dataclass(frozen=True)
class TensorStart:
    """The warm start of a repeated game's see-saw, run as restart `restart`:
    the n-th tensor power of the best strategy entangled_value_seesaw found
    for the base game at base_d, with base_value, base_iterations and
    base_steps from that run.  detect_s is the time _repetition_base took;
    base_s that of the base see-saw and the power."""

    n: int
    base_d: int
    restart: int
    base_value: float
    base_iterations: int
    base_steps: int
    detect_s: float
    base_s: float


def _tensor_start(g: Game, d: int, restarts: int, iters: int,
                  seed: int) -> tuple[TensorStart | None, QuantumStrategy | None]:
    """The tensor start of g at local dimension d and its strategy, or (None,
    None) unless g is repeat(base, n) and d = d1^n for an integer d1.  The
    base see-saw runs at d1 with the same restarts, iters and seed."""
    t0 = perf_counter()
    found = _repetition_base(g)
    if found is None or (d1 := _int_root(d, found[1])) is None:
        return None, None
    (base, n), t1 = found, perf_counter()
    res = entangled_value_seesaw(base, d1, restarts, iters, seed)
    power = _tensor_power(res.strategy, n)
    start = TensorStart(n, d1, restarts, res.value, sum(len(t) for t in res.traces),
                        res.steps, t1 - t0, perf_counter() - t1)
    return start, power


def _seesaw_restarts(g: Game, d: int, restarts: int, iters: int, seed: int):
    """See-saw restarts at local dimension d from _draw_starts, and the tensor
    start (_tensor_start) as one restart after them when g has one at d, run
    in consecutive lockstep groups (_lockstep) whose largest intermediate,
    the (R, k, l, d, d) measurements or the (R, d^2, d^2) payoff operator,
    stays within MAX_TABLE_ENTRIES.

    Returns (traces, states, alice, bob, steps, start): the per-restart value
    traces, the final (R, d, d) states and (R, k, l, d, d) measurements, the
    number of lockstep steps, and the TensorStart or None.  Raises
    ValueError unless restarts and iters are both at least 1, and
    BudgetError, before anything is drawn or solved, when one restart alone
    exceeds the budget.
    """
    if restarts < 1 or iters < 1:
        raise ValueError(f"restarts and iters must be >= 1, got {restarts} and {iters}")
    # d^4 is over the budget once d^2 is; it is then neither built nor printed
    per_restart = max(g.k * g.l * d * d, d ** 4) if d * d <= MAX_TABLE_ENTRIES else None
    if per_restart is None or per_restart > MAX_TABLE_ENTRIES:
        raise BudgetError(f"one see-saw restart needs {per_restart or 'd^4'} entries, "
                          f"more than the budget of {MAX_TABLE_ENTRIES}")
    start, power = _tensor_start(g, d, restarts, iters, seed)
    cur, alice, bob = _draw_starts(g, d, restarts, seed)
    if power is not None:
        cur = np.concatenate([cur, power.state.tensor()[None]])
        alice = np.concatenate([alice, power.alice[None]])
        bob = np.concatenate([bob, power.bob[None]])
    weights = _payoff_weights(g)
    group = MAX_TABLE_ENTRIES // per_restart
    traces: list[list[float]] = []
    steps = 0
    for lo in range(0, len(cur), group):
        part = slice(lo, lo + group)
        tr, n = _lockstep(weights, cur[part], alice[part], bob[part], iters)
        traces += tr
        steps += n
    return traces, cur, alice, bob, steps, start


@dataclass(frozen=True)
class SeesawResult:
    """Best lower bound found, its strategy, per-restart value traces, the
    number of lockstep steps the restarts took together, and the tensor
    start, whose trace is the last, or None."""

    value: float
    strategy: QuantumStrategy
    traces: tuple[tuple[float, ...], ...]
    best_restart: int
    steps: int
    tensor_start: TensorStart | None


def entangled_value_seesaw(g: Game, d: int, restarts: int = 20, iters: int = 100,
                           seed: int = 0) -> SeesawResult:
    """Lower-bound the entangled value at local dimension d by alternating updates.

    Each restart draws a Haar state and random projective measurements from a
    per-restart seed, then iterates: Alice update, Bob update, state update
    (top eigenvector of the payoff operator).  Every step is non-decreasing,
    so the value trace is monotone; non-convergence within `iters` is not an
    error, the best iterate is still returned.  Heuristic: no optimality claim
    at fixed d, only a valid lower bound.

    A repeated game at d = d1^n gets one restart more, after the random ones
    (_tensor_start): the n-th tensor power of this function's best strategy
    for the base game at d1.  Every restart is scored on g's own payoff, so
    the value stays a lower bound.

    value is the largest final value; best_restart, whose strategy is
    returned, is the first restart that ends within 1e-12 of it, so rounding
    noise between restarts that reach the same value does not pick it.
    """
    if d < 1:
        raise ValueError("local dimension must be >= 1")
    traces, phi, alice, bob, steps, start = _seesaw_restarts(g, d, restarts, iters, seed)
    finals = np.array([trace[-1] for trace in traces])
    best_val = float(finals.max())
    best = int(np.argmax(finals >= best_val - 1e-12))
    strategy = QuantumStrategy(PureState(phi[best].reshape(-1), (d, d)),
                               alice[best], bob[best])
    return SeesawResult(min(best_val, 1.0), strategy,
                        tuple(tuple(trace) for trace in traces), best, steps, start)


# ---------------------------------------------------------------------------
# repetition


def _win_counts(g: Game, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Product distribution and rounds won per [a, b, x, y] of the n-fold game.

    Counts are stored in the narrowest unsigned type that holds n.
    """
    # the table has base^n entries; for base >= 2 any n of at least the
    # budget's bit length is over it, so a large n never builds base^n
    base = (g.k * g.l) ** 2
    if base > 1 and (n >= MAX_TABLE_ENTRIES.bit_length() or base ** n > MAX_TABLE_ENTRIES):
        raise BudgetError(f"repeated predicate table would need ({g.k}*{g.l})^{2 * n} "
                          f"entries, more than the budget of {MAX_TABLE_ENTRIES}")
    kk, ll = g.k**n, g.l**n
    dk = _digit_table(g.k, n)
    dl = _digit_table(g.l, n)
    p = np.ones((kk, kk))
    counts = np.zeros((ll, ll, kk, kk), dtype=np.min_scalar_type(n))
    for i in range(n):
        p = p * g.p[dk[:, None, i], dk[None, :, i]]
        counts += g.v[dl[:, None, None, None, i], dl[None, :, None, None, i],
                      dk[None, None, :, None, i], dk[None, None, None, :, i]]
    return p, counts


def repeat(g: Game, n: int) -> Game:
    """n-fold parallel repetition: product distribution, conjunction predicate."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p, counts = _win_counts(g, n)
    name = g.name if n == 1 else (f"{g.name}^{n}" if g.name else None)
    return Game(g.k**n, g.l**n, p, counts == n, name=name)


def majority_game(g: Game, n: int, alpha: float) -> Game:
    """Threshold repetition: win iff at least ceil(alpha*n) rounds won.

    Integer alpha*n keeps the threshold at exactly alpha*n; alpha=1 recovers
    repeat(g, n), alpha=0 is the trivial game.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    m = alpha * n
    thr = round(m) if abs(m - round(m)) < 1e-9 else math.ceil(m)
    p, counts = _win_counts(g, n)
    name = f"{g.name}^{n}_maj{alpha:g}" if g.name else None
    return Game(g.k**n, g.l**n, p, counts >= thr, name=name)


# ---------------------------------------------------------------------------
# structure predicates


def is_free(g: Game) -> bool:
    """True iff the input distribution is a product of its marginals (is_product)."""
    return is_product(g.p)


def is_projection(g: Game) -> bool:
    """True iff for every (b, x, y) exactly one winning a exists."""
    return bool((g.v.sum(axis=0) == 1).all())


# ---------------------------------------------------------------------------
# JSON game documents


def game_to_dict(g: Game) -> dict:
    d = {
        "k": g.k,
        "l": g.l,
        "p": [[float(x) for x in row] for row in g.p],
        "V": g.v.astype(int).tolist(),
    }
    if g.name is not None:
        d["name"] = g.name
    return d


def game_from_dict(d: dict) -> Game:
    """Game of a JSON document; a malformed document is a ValueError naming the field."""
    if not isinstance(d, dict):
        raise ValueError("game document must be a JSON object")
    get = partial(_field, "game document", d)
    k, l, p, v = get("k", _integer), get("l", _integer), get("p", _table), get("V", _table)
    if not np.isin(v, (0, 1)).all():
        raise ValueError("game document field 'V' has entries other than 0 and 1")
    return Game(k, l, p, v, name=get("name", _string, None))


def game_to_json(g: Game) -> str:
    """Canonical serialization: sorted keys, no whitespace, round-trip floats."""
    return json.dumps(game_to_dict(g), sort_keys=True, separators=(",", ":"))


def load_game(path: str | Path) -> Game:
    return game_from_dict(_load_json(path))
