import itertools
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entgames.config import BudgetError
from entgames.games import (
    ClassicalStrategy,
    Game,
    QuantumStrategy,
    chsh,
    classical_value,
    entangled_value_seesaw,
    game_from_dict,
    game_to_json,
    is_free,
    is_projection,
    load_game,
    majority_game,
    repeat,
    strategy_win_probability,
)
from entgames import games as games_mod
from entgames.games import (
    _STREAM_SEESAW,
    _alice_payoffs,
    _best_projective,
    _bob_payoffs,
    _draw_starts,
    _seesaw_restarts,
    _update_measurements,
)
from entgames.linalg import hermitian_eig, hermitianize
from entgames.qinfo import PureState
from entgames.random_states import haar_state, random_projective, rng_for

from conftest import count_solves, write_game

TSIRELSON = math.cos(math.pi / 8) ** 2


def encode_tuple(digits, base: int) -> int:
    """Little-endian mixed-radix encode: digits[0] is round 1, least significant."""
    idx = 0
    for i, d in enumerate(digits):
        if not 0 <= d < base:
            raise ValueError(f"digit {d} out of range for base {base}")
        idx += int(d) * base**i
    return idx


def all_ones_game(k: int = 2, l: int = 2) -> Game:
    p = np.full((k, k), 1.0 / k**2)
    return Game(k, l, p, np.ones((l, l, k, k), dtype=bool), name="trivial")


def xor_game(p: np.ndarray, f: np.ndarray) -> Game:
    """Two-output game won iff a xor b = f[x, y]."""
    bit = np.arange(2)
    v = (bit[:, None, None, None] ^ bit[None, :, None, None]) == f[None, None]
    return Game(p.shape[0], 2, p, v)


def xor_value_bounds(p: np.ndarray, f: np.ndarray, sweeps: int = 2000) -> tuple[float, float]:
    """Certified (lower, upper) bracket on the entangled value of an XOR game.

    The entangled bias is max sum_xy B_xy <u_x, v_y> over unit vectors, with
    B = p (-1)^f (Tsirelson).  Alternating u/v normalizations give unit
    vectors, so a lower bound.  With alpha_x = |sum_y B_xy v_y|,
    beta_y = |sum_x B_xy u_x| and shift = -(smallest eigenvalue of
    M = [[diag alpha, -B], [-B^T, diag beta]]), M + shift I is PSD, a
    feasible point of the dual SDP, so (sum alpha + sum beta +
    shift (kA + kB)) / 2 bounds the bias from above.  The value is
    (1 + bias) / 2.
    """
    b = p * (-1.0) ** f
    ka, kb = b.shape
    v = np.random.default_rng(0).standard_normal((kb, ka + kb))
    for _ in range(sweeps):
        u = b @ v
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v = b.T @ u
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    lower = float(np.sum(b * (u @ v.T)))
    alpha, beta = np.linalg.norm(b @ v, axis=1), np.linalg.norm(b.T @ u, axis=1)
    m = np.block([[np.diag(alpha), -b], [-b.T, np.diag(beta)]])
    shift = max(0.0, -float(np.linalg.eigvalsh(m)[0]))
    upper = (alpha.sum() + beta.sum() + shift * (ka + kb)) / 2
    return (1 + lower) / 2, (1 + upper) / 2


def reference_best_projective(ops: np.ndarray) -> np.ndarray:
    """One input's best-projective measurement by plain loops over outcomes.

    The stacked update in games must match it: eigenspace split for two
    outcomes, greedy assignment with ties to the lowest output otherwise.
    """
    l, d = ops.shape[0], ops.shape[1]
    out = np.zeros_like(ops)
    if l == 1:
        out[0] = np.eye(d)
        return out
    if l == 2:
        w, v = np.linalg.eigh(hermitianize(ops[0] - ops[1]))
        sel = v[:, w >= 0.0]
        p0 = sel @ sel.conj().T
        out[0] = hermitianize(p0)
        out[1] = hermitianize(np.eye(d) - p0)
        return out
    q = np.eye(d, dtype=complex)
    for _ in range(d):
        r = q.shape[1]
        best_a, best_lam, best_u = -1, -np.inf, None
        for a in range(l):
            w, v = np.linalg.eigh(hermitianize(q.conj().T @ ops[a] @ q))
            if w[-1] > best_lam + 1e-15:
                best_a, best_lam, best_u = a, float(w[-1]), v[:, -1]
        vec = q @ best_u
        out[best_a] += np.outer(vec, vec.conj())
        if r == 1:
            break
        comp = np.eye(r, dtype=complex) - np.outer(best_u, best_u.conj())
        q = q @ np.linalg.eigh(hermitianize(comp))[1][:, 1:]
    return np.stack([hermitianize(m) for m in out])


def reference_update(meas: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Per-input update, kept only when it does not decrease Tr-score."""
    new = meas.copy()
    for x in range(meas.shape[0]):
        cand = reference_best_projective(ops[x])
        score = lambda m: np.einsum("ail,ali->", m, ops[x]).real
        if score(cand) >= score(meas[x]):
            new[x] = cand
    return new


def einsum_alice_payoffs(w: np.ndarray, bob: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Alice's payoff operators [..., x, a] by the plain einsum formulas:
    sum over (y, b) of w[x, a, y, b] psi_xy B_yb^T psi_xy^dag, with states
    indexed [..., x, y]; a shared state has x and y axes of length 1."""
    kmat = np.einsum("...xyij,...ybkj,...xylk->...xybil", states, bob, states.conj())
    return np.einsum("xayb,...xybil->...xail", w, kmat)


def einsum_bob_payoffs(w: np.ndarray, alice: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Bob's payoff operators [..., y, b] by the plain einsum formulas."""
    cmat = np.einsum("...xyij,...xali,...xylm->...xyajm", states, alice, states.conj())
    return np.einsum("xayb,...xyajm->...ybjm", w, cmat)


def reference_seesaw(g: Game, d: int, restarts: int, iters: int, seed: int,
                     improve_tol: float = 1e-12) -> list[list[float]]:
    """Per-restart see-saw traces, each restart run alone to its stopping rule.

    The lockstep core in games must match it restart by restart: the same
    draws from rng_for(seed, _STREAM_SEESAW, r), the same trace lengths and
    values within 1e-12.  The state is a Haar draw, updated to the top
    eigenvector of the payoff operator after every Bob update.

    The payoffs and measurement updates are the production functions, which
    TestPayoffs and TestStackedUpdate check against plain formulas.  A
    see-saw amplifies rounding: on CHSH^2 (d = 4, seed 0) restart 7 grows a
    4e-16 difference between the einsum and the GEMM payoffs to 7.9e-8
    mid-trace, so a trace gate of 1e-12 holds only on the same payoffs.
    """
    w = np.einsum("xy,abxy->xayb", g.p, g.v.astype(float))
    kl = g.k * g.l
    traces = []
    for r in range(restarts):
        rng = rng_for(seed, _STREAM_SEESAW, r)
        cur = haar_state(rng, d * d).reshape(d, d)
        alice = np.stack([random_projective(rng, d, g.l) for _ in range(g.k)])
        bob = np.stack([random_projective(rng, d, g.l) for _ in range(g.k)])
        trace, prev = [], -np.inf
        for _ in range(iters):
            alice = _update_measurements(alice, _alice_payoffs(w, bob, cur))
            bob = _update_measurements(bob, _bob_payoffs(w, alice, cur))
            t = alice.reshape(kl, -1).T @ (w.reshape(kl, -1) @ bob.reshape(kl, -1))
            op = t.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, -1)
            ev, vec = hermitian_eig(hermitianize(op))
            val, cur = float(ev[-1]), vec[:, -1].reshape(d, d)
            trace.append(val)
            if val - prev < improve_tol:
                break
            prev = val
        traces.append(trace)
    return traces


def assert_same_traces(got, want) -> None:
    assert [len(t) for t in got] == [len(t) for t in want]
    for a, b in zip(got, want):
        assert_allclose(a, b, atol=1e-12, rtol=0)


def chsh3() -> Game:
    """Three-outcome CHSH: win iff a + b = x * y (mod 3)."""
    v = np.zeros((3, 3, 2, 2), dtype=bool)
    for a, b, x, y in itertools.product(range(3), range(3), range(2), range(2)):
        v[a, b, x, y] = (a + b) % 3 == (x * y) % 3
    return Game(2, 3, np.full((2, 2), 0.25), v, name="CHSH3")


def assert_projective(meas: np.ndarray) -> None:
    d = meas.shape[-1]
    state = PureState(np.eye(d * d)[0].astype(complex), (d, d))
    QuantumStrategy(state, meas, meas)      # construction checks the measurements


def brute_force_value(g: Game) -> float:
    # independent oracle: plain loops over every deterministic pair of maps
    best = -1.0
    for alice in itertools.product(range(g.l), repeat=g.k):
        for bob in itertools.product(range(g.l), repeat=g.k):
            w = 0.0
            for x in range(g.k):
                for y in range(g.k):
                    if g.v[alice[x], bob[y], x, y]:
                        w += g.p[x, y]
            best = max(best, w)
    return best


class TestGameType:
    def test_chsh_tables(self):
        g = chsh()
        assert (g.k, g.l) == (2, 2)
        assert_allclose(g.p, np.full((2, 2), 0.25))
        assert bool(g.v[0, 0, 0, 0]) and not bool(g.v[0, 0, 1, 1])
        assert bool(g.v[0, 1, 1, 1])

    def test_rejects_bad_distribution(self):
        v = np.ones((2, 2, 2, 2), dtype=bool)
        with pytest.raises(ValueError):
            Game(2, 2, np.full((2, 2), 0.3), v)
        with pytest.raises(ValueError):
            Game(2, 2, np.array([[0.5, 0.6], [0.0, -0.1]]), v)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Game(2, 3, np.full((2, 2), 0.25), np.ones((2, 2, 2, 2), dtype=bool))

    def test_tables_read_only(self):
        g = chsh()
        with pytest.raises(ValueError):
            g.p[0, 0] = 1.0


class TestEncoding:
    def test_round_trip(self):
        for base, n in ((2, 5), (3, 4), (5, 3)):
            table = games_mod._digit_table(base, n)
            assert table.shape == (base**n, n)
            for idx, row in enumerate(table):
                assert encode_tuple(row, base) == idx

    def test_little_endian(self):
        # round 1 is the least significant digit
        assert games_mod._digit_table(2, 3)[1].tolist() == [1, 0, 0]
        assert games_mod._digit_table(3, 2)[5].tolist() == [2, 1]
        assert encode_tuple((0, 0, 1), 2) == 4


class TestClassicalValue:
    def test_chsh_exact(self):
        res = classical_value(chsh())
        assert res.value == 0.75

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = int(rng.integers(2, 4))
            l = int(rng.integers(2, 4))
            p = rng.random((k, k))
            p /= p.sum()
            g = Game(k, l, p, rng.random((l, l, k, k)) < 0.5)
            got = classical_value(g).value
            assert abs(got - brute_force_value(g)) <= 1e-12

    def test_lexicographic_tie_break(self):
        res = classical_value(chsh())
        assert res.strategy == ClassicalStrategy((0, 0), (0, 0))

    def test_strategy_attains_value(self):
        res = classical_value(chsh())
        assert strategy_win_probability(chsh(), res.strategy) == res.value

    def test_budget_error(self):
        g = all_ones_game(k=4, l=40)   # 40^4 deterministic maps per side
        with pytest.raises(BudgetError):
            classical_value(g)

    def test_chsh_squared(self):
        assert classical_value(repeat(chsh(), 2)).value == 0.625


class TestStrategyWinProbability:
    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            strategy_win_probability(chsh(), ClassicalStrategy((0,), (0,)))

    def test_quantum_arity_mismatch(self):
        # the CHSH see-saw strategy on CHSH^2 used to fail in numpy's reshape
        res = entangled_value_seesaw(chsh(), d=2, restarts=2, iters=40, seed=0)
        with pytest.raises(ValueError, match="arity does not match the game"):
            strategy_win_probability(repeat(chsh(), 2), res.strategy)
        # either player's inputs or outcomes alone
        psi, meas = TestStrategyValidate.parts(k=2, l=2)
        for side, k, l in (("alice", 3, 2), ("bob", 3, 2), ("alice", 2, 3), ("bob", 2, 3)):
            _, other = TestStrategyValidate.parts(k=k, l=l)
            q = QuantumStrategy(psi, **{**meas, side: other[side]})
            with pytest.raises(ValueError, match="arity does not match the game"):
                strategy_win_probability(chsh(), q)

    def test_quantum_embedding_of_classical(self):
        # deterministic strategy as rank-one projective measurements on |00>
        g = chsh()
        psi = PureState(np.array([1, 0, 0, 0], dtype=complex), (2, 2))
        alice = np.zeros((2, 2, 2, 2), dtype=complex)
        bob = np.zeros((2, 2, 2, 2), dtype=complex)
        for x in range(2):
            alice[x, 0] = np.diag([1.0, 0.0])
            alice[x, 1] = np.diag([0.0, 1.0])
            bob[x, 0] = np.diag([1.0, 0.0])
            bob[x, 1] = np.diag([0.0, 1.0])
        q = QuantumStrategy(psi, alice, bob)
        classical = strategy_win_probability(g, ClassicalStrategy((0, 0), (0, 0)))
        assert abs(strategy_win_probability(g, q) - classical) <= 1e-12

    def test_tensor_square_of_chsh_optimum(self):
        # Bell state; Alice measures Z, X and Bob (Z +- X)/sqrt(2)
        phi = np.eye(2, dtype=complex) / math.sqrt(2)
        z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])

        def proj(obs):
            return np.stack([(np.eye(2) + obs) / 2, (np.eye(2) - obs) / 2])

        alice = np.stack([proj(z), proj(x)]).astype(complex)
        bob = np.stack([proj((z + x) / math.sqrt(2)),
                        proj((z - x) / math.sqrt(2))]).astype(complex)
        base = QuantumStrategy(PureState(phi.reshape(-1), (2, 2)),
                               alice, bob)
        assert abs(strategy_win_probability(chsh(), base) - TSIRELSON) <= 1e-12

        def square(meas):
            out = np.zeros((4, 4, 4, 4), dtype=complex)
            for x1, x2, a1, a2 in itertools.product(range(2), repeat=4):
                out[encode_tuple((x1, x2), 2), encode_tuple((a1, a2), 2)] = \
                    np.kron(meas[x1, a1], meas[x2, a2])
            return out

        state = np.einsum("ij,kl->ikjl", phi, phi).reshape(-1)
        sq = QuantumStrategy(PureState(state, (4, 4)),
                             square(alice), square(bob))
        value = strategy_win_probability(repeat(chsh(), 2), sq)
        assert abs(value - math.cos(math.pi / 8) ** 4) <= 1e-12


class TestStrategyValidate:
    """Each way a projective strategy can be malformed is rejected on its own."""

    @staticmethod
    def parts(da: int = 2, db: int = 3, k: int = 3, l: int = 2):
        rng = rng_for(0, 903)
        psi = PureState(haar_state(rng, da * db), (da, db))
        alice = np.stack([random_projective(rng, da, l) for _ in range(k)])
        bob = np.stack([random_projective(rng, db, l) for _ in range(k)])
        return psi, {"alice": alice, "bob": bob}

    def check(self, psi, meas, side, match):
        with pytest.raises(ValueError, match=f"{side}.*{match}"):
            QuantumStrategy(psi, meas["alice"], meas["bob"])

    def test_accepts_projective_within_tolerance(self):
        psi, meas = self.parts()
        meas["bob"][1, 0] += 1e-10 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        QuantumStrategy(psi, meas["alice"], meas["bob"])

    def test_rejects_both_outcomes_identity(self):
        # each element a projector, but each input's two outcomes sum to 2I;
        # scoring it on CHSH used to give 1.9999999999999998
        both = np.stack([np.stack([np.eye(2), np.eye(2)])] * 2).astype(complex)
        bell = PureState(np.eye(2).reshape(-1) / math.sqrt(2), (2, 2))
        with pytest.raises(ValueError, match="alice measurement does not sum to identity"):
            QuantumStrategy(bell, both, both)

    @pytest.mark.parametrize("dims", [(6,), (2, 3, 1)])
    def test_rejects_state_without_two_registers(self, dims):
        # one register used to fail with an IndexError, three were accepted
        psi, meas = self.parts()
        with pytest.raises(ValueError, match="two registers"):
            QuantumStrategy(PureState(psi.amplitudes, dims), meas["alice"], meas["bob"])

    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_rejects_non_hermitian(self, side):
        psi, meas = self.parts()
        meas[side][1, 0, 0, 1] += 1e-3
        self.check(psi, meas, side, "not Hermitian")

    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_rejects_non_idempotent(self, side):
        # Hermitian and complete, but a two-outcome POVM rather than projective
        psi, meas = self.parts()
        e0, e1 = meas[side][2]
        meas[side][2] = np.stack([0.9 * e0 + 0.1 * e1, 0.1 * e0 + 0.9 * e1])
        self.check(psi, meas, side, "not idempotent")

    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_rejects_incomplete(self, side):
        # every element is still a projector; input 1 just loses an outcome
        psi, meas = self.parts()
        meas[side][1, 1] = 0.0
        self.check(psi, meas, side, "sum to identity")

    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_rejects_dimension_mismatch(self, side):
        # valid 4-dimensional measurements on a 2 x 3 state
        psi, meas = self.parts()
        meas[side] = np.stack([random_projective(rng_for(1, 903), 4, 2) for _ in range(3)])
        self.check(psi, meas, side, "dimension mismatch")


class TestSeesaw:
    def test_reaches_tsirelson(self):
        res = entangled_value_seesaw(chsh(), d=2, restarts=20, iters=100, seed=0)
        assert res.value >= 0.8535
        assert res.value <= TSIRELSON + 1e-9

    def test_traces_monotone(self):
        res = entangled_value_seesaw(chsh(), d=2, restarts=5, iters=50, seed=3)
        for trace in res.traces:
            assert all(b >= a - 1e-10 for a, b in zip(trace, trace[1:]))
        best = max(t[-1] for t in res.traces)
        assert_allclose(res.value, best, atol=1e-12)
        # the first restart within 1e-12 of the best, so rounding noise between
        # restarts that reach the same value does not pick it
        finals = [t[-1] for t in res.traces]
        assert res.best_restart == next(r for r, v in enumerate(finals) if v >= best - 1e-12)

    def test_deterministic(self):
        r1 = entangled_value_seesaw(chsh(), d=2, restarts=3, iters=40, seed=11)
        r2 = entangled_value_seesaw(chsh(), d=2, restarts=3, iters=40, seed=11)
        assert r1.value == r2.value and r1.traces == r2.traces

    def test_dimension_one_is_classical(self):
        res = entangled_value_seesaw(chsh(), d=1, restarts=8, iters=60, seed=0)
        assert res.value <= 0.75 + 1e-9

    def test_strategy_attains_value(self):
        res = entangled_value_seesaw(chsh(), d=2, restarts=6, iters=80, seed=0)
        assert abs(strategy_win_probability(chsh(), res.strategy) - res.value) <= 1e-9

    def test_chsh_squared_work_pinned(self):
        # The benchmark times this run.  Its value is the documented shortfall
        # of ROADMAP item 1 (cos^4(pi/8) = 0.728553 is exact); update the
        # lengths and the value when that item lands.
        res = entangled_value_seesaw(repeat(chsh(), 2), 4, 20, 200, seed=0)
        assert [len(t) for t in res.traces] == [6, 19, 9, 15, 24, 10, 5, 35, 29, 22,
                                                11, 11, 5, 5, 5, 14, 26, 4, 4, 19]
        assert abs(res.value - 0.676776695296636) <= 1e-12

    def test_chsh_squared_solves_pinned(self, monkeypatch):
        # The solves of the run the benchmark times, as (calls, matrices): a
        # change that adds solves fails here without timing noise.
        counts = count_solves(monkeypatch)
        entangled_value_seesaw(repeat(chsh(), 2), 4, 20, 200, seed=0)
        assert counts == {"eigh": [245, 6_950], "eigvalsh": [210, 26_688], "qr": [2, 160]}

    @pytest.mark.parametrize("restarts, iters", [(0, 10), (-1, 10), (3, 0), (3, -2)])
    def test_rejects_empty_runs(self, restarts, iters):
        # no restart or no iteration gives no lower bound to report
        with pytest.raises(ValueError, match="restarts and iters must be >= 1"):
            entangled_value_seesaw(chsh(), d=2, restarts=restarts, iters=iters, seed=0)


class TestPayoffs:
    """The GEMM payoffs equal the einsum formulas on every kind of state stack."""

    @pytest.mark.parametrize("k, l, da, db", [(3, 2, 2, 3), (2, 3, 3, 2), (4, 4, 4, 4)])
    @pytest.mark.parametrize("state_lead, meas_lead", [
        ((5,), (5,)),           # states of stacked restarts
        ((2, 3), (2, 3)),       # two leading axes
        ((), (4,)),             # one state shared by every stacked strategy
        ((), ()),               # one state, as strategy_win_probability passes it
    ])
    def test_match_einsum(self, k, l, da, db, state_lead, meas_lead):
        rng = np.random.default_rng([k, l, da, db, len(state_lead), len(meas_lead)])

        def gauss(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        w = rng.random((k, l, k, l))
        states = gauss(*state_lead, da, db)
        states /= np.linalg.norm(states, axis=(-2, -1), keepdims=True)
        per_pair = states[..., None, None, :, :]
        alice = hermitianize(gauss(*meas_lead, k, l, da, da))
        bob = hermitianize(gauss(*meas_lead, k, l, db, db))
        got = _alice_payoffs(w, bob, states)
        assert got.shape == alice.shape
        assert_allclose(got, einsum_alice_payoffs(w, bob, per_pair), atol=1e-13, rtol=0)
        got = _bob_payoffs(w, alice, states)
        assert got.shape == bob.shape
        assert_allclose(got, einsum_bob_payoffs(w, alice, per_pair), atol=1e-13, rtol=0)


class TestStackedUpdate:
    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
    def test_matches_per_input_reference(self, l):
        # d < l covers outcomes that end with zero projectors
        for k in range(1, 5):
            for d in range(1, 6):
                rng = np.random.default_rng([l, k, d])
                m = rng.standard_normal((k, l, d, d)) + 1j * rng.standard_normal((k, l, d, d))
                ops = hermitianize(m)
                meas = np.stack([random_projective(rng, d, l) for _ in range(k)])
                got = _update_measurements(meas, ops)
                assert_allclose(got, reference_update(meas, ops), atol=1e-12, rtol=0)
                assert_projective(got)

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
    def test_ties_follow_reference(self, l):
        # input 0 is all zeros, so every measurement ties and the candidate
        # (everything on outcome 0) replaces the old one; with more than two
        # outcomes input 1 repeats outcome 0 in outcome 1, so greedy ties go
        # to the lower output; input 2 is diagonal with entries in {-1, 0, 1}
        for d in range(1, 6):
            rng = np.random.default_rng([l, d])
            m = rng.standard_normal((3, l, d, d)) + 1j * rng.standard_normal((3, l, d, d))
            ops = hermitianize(m)
            ops[0] = 0.0
            if l > 2:
                ops[1, 1] = ops[1, 0]
            ops[2] = 0.0
            ops[2, :, range(d), range(d)] = rng.integers(-1, 2, size=(d, l))
            meas = np.stack([random_projective(rng, d, l) for _ in range(3)])
            got = _update_measurements(meas, ops)
            assert_allclose(got, reference_update(meas, ops), atol=1e-12, rtol=0)
            assert_allclose(got[0, 0], np.eye(d), atol=1e-12)
            assert_projective(got)

    @pytest.mark.parametrize("l", [3, 4, 5])
    def test_degenerate_spectra(self, l, monkeypatch):
        # ops[x, a] = U diag(w) U^dag with w in {-1, 0, 1}^d: repeated top
        # eigenvalues leave the picked eigenvector to the eigensolver, so only
        # projectivity and the solve counts are asserted; l > d covers outcomes
        # that end with zero projectors
        for d in range(1, 6):
            rng = np.random.default_rng([l, d, 5])
            z = rng.standard_normal((4, l, d, d)) + 1j * rng.standard_normal((4, l, d, d))
            u = np.linalg.qr(z)[0]
            w = rng.integers(-1, 2, size=(4, l, 1, d))
            ops = hermitianize((u * w) @ u.conj().swapaxes(-1, -2))
            counts = count_solves(monkeypatch, ("eigh", "eigvalsh"))
            got = _best_projective(ops)
            monkeypatch.undo()
            assert_projective(got)
            assert counts == ({} if d == 1 else {"eigh": [d - 1, 4 * (d - 1)],
                                                 "eigvalsh": [d - 1, 4 * l * (d - 1)]})

    def test_keeps_measurement_that_beats_greedy(self):
        # input 0: greedy takes e0 for outcome 0 (1.0) and is left with 0.45,
        # while |+><+|, |-><-| on outcomes 1, 2 score 1.8; on input 1 greedy
        # takes the identity for outcome 0, which scores 3 against 2
        plus = np.full((2, 2), 0.5, dtype=complex)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        ops = np.stack([np.stack([np.diag([1.0, 0.0]).astype(complex), 0.9 * plus, 0.9 * minus]),
                        np.stack([np.diag([2.0, 1.0]).astype(complex), plus, minus])])
        meas = np.stack([np.stack([np.zeros((2, 2), dtype=complex), plus, minus]),
                         np.stack([np.zeros((2, 2), dtype=complex), plus, minus])])
        got = _update_measurements(meas, ops)
        assert np.array_equal(got[0], meas[0])
        assert_allclose(got[1, 0], np.eye(2), atol=1e-12)
        assert_allclose(got[1, 1:], 0.0, atol=1e-12)

    def test_three_outcome_game_end_to_end(self):
        # the greedy path runs in every update
        g = chsh3()
        res = entangled_value_seesaw(g, d=3, restarts=8, iters=60, seed=0)
        assert res.value >= classical_value(g).value - 1e-9
        assert abs(strategy_win_probability(g, res.strategy) - res.value) <= 1e-9
        for trace in res.traces:
            assert all(b >= a - 1e-10 for a, b in zip(trace, trace[1:]))


class TestStartDraws:
    @pytest.mark.parametrize("k, l, d", [(4, 4, 4), (2, 2, 2), (2, 3, 3), (3, 5, 4), (2, 3, 2),
                                         (2, 2, 1)])
    def test_stacked_starts_equal_per_draw_loop(self, k, l, d):
        # l > d gives zero projectors
        cur, alice, bob = _draw_starts(all_ones_game(k, l), d, 6, 3)
        assert cur.shape == (6, d, d)
        assert alice.shape == bob.shape == (6, k, l, d, d)
        for r in range(6):
            rng = rng_for(3, _STREAM_SEESAW, r)
            assert np.array_equal(cur[r], haar_state(rng, d * d).reshape(d, d))
            for x in range(k):
                assert np.array_equal(alice[r, x], random_projective(rng, d, l))
            for x in range(k):
                assert np.array_equal(bob[r, x], random_projective(rng, d, l))
        for meas in (alice, bob):
            zero = ~meas.any(axis=(-2, -1))
            assert (zero.sum(axis=-1) == max(l - d, 0)).all()


class TestLockstep:
    """The lockstep restarts reproduce the per-restart loop, restart by restart."""

    @pytest.mark.parametrize("seed", range(8))
    def test_chsh_matches_sequential(self, seed):
        res = entangled_value_seesaw(chsh(), d=2, restarts=20, iters=100, seed=seed)
        assert_same_traces(res.traces, reference_seesaw(chsh(), 2, 20, 100, seed))
        assert res.steps == max(len(t) for t in res.traces)

    def test_chsh_squared_matches_sequential(self):
        g = repeat(chsh(), 2)
        res = entangled_value_seesaw(g, 4, 20, 200, seed=0)
        want = reference_seesaw(g, 4, 20, 200, 0)
        assert_same_traces(res.traces, want)
        assert res.steps == 35 and sum(len(t) for t in want) == 278

    @pytest.mark.parametrize("g, d", [(chsh3(), 3), (chsh(), 1)])
    def test_three_outcomes_and_dimension_one(self, g, d):
        res = entangled_value_seesaw(g, d=d, restarts=8, iters=60, seed=0)
        assert_same_traces(res.traces, reference_seesaw(g, d, 8, 60, 0))

    def test_restart_does_not_depend_on_its_neighbours(self):
        r20 = entangled_value_seesaw(chsh(), d=2, restarts=20, iters=100, seed=3)
        r5 = entangled_value_seesaw(chsh(), d=2, restarts=5, iters=100, seed=3)
        assert r20.traces[:5] == r5.traces

    def test_state_groups_count_payoff_operator(self, monkeypatch):
        # CHSH3 at d = 3: the (R, 9, 9) payoff operator, 81 entries per
        # restart, outgrows the (R, k, l, d, d) measurements (54): groups of 2
        g = chsh3()
        full, phi, alice, bob, steps = _seesaw_restarts(g, 3, 7, 60, 0)
        monkeypatch.setattr(games_mod, "MAX_TABLE_ENTRIES", 2 * 81 + 5)
        grouped, g_phi, g_alice, g_bob, grouped_steps = _seesaw_restarts(g, 3, 7, 60, 0)
        assert grouped == full
        assert np.array_equal(g_phi, phi) and np.array_equal(g_alice, alice)
        lens = [len(t) for t in full]
        assert grouped_steps == sum(max(lens[i:i + 2]) for i in range(0, 7, 2)) > steps

    @pytest.mark.parametrize("g, d, need", [
        pytest.param(chsh3(), 3, 81, id="chsh3-d3-operator"),
        pytest.param(repeat(chsh(), 2), 2, 64, id="chsh2-d2-measurements"),
    ])
    def test_restart_over_budget_raises_before_drawing(self, monkeypatch, g, d, need):
        # one CHSH3 restart at d = 3 needs its 81-entry (d^2, d^2) payoff
        # operator (its k l d^2 measurements take 54); one CHSH^2 restart at
        # d = 2 needs its k l d^2 = 64-entry measurements (the operator takes 16)
        monkeypatch.setattr(games_mod, "MAX_TABLE_ENTRIES", need - 1)
        monkeypatch.setattr(games_mod, "_draw_starts",
                            lambda *args: pytest.fail("drew starts over budget"))
        with pytest.raises(BudgetError, match=f"one see-saw restart needs {need} entries"):
            _seesaw_restarts(g, d, 4, 10, 0)
        # at exactly the budget the restarts run, one per group
        monkeypatch.undo()
        monkeypatch.setattr(games_mod, "MAX_TABLE_ENTRIES", need)
        traces, *_ = _seesaw_restarts(g, d, 2, 10, 0)
        assert len(traces) == 2

    def test_huge_dimension_is_not_printed(self, monkeypatch):
        # d^4 has over 4,300 digits, too many to print: the message names d^4
        monkeypatch.setattr(games_mod, "_draw_starts",
                            lambda *args: pytest.fail("drew starts over budget"))
        with pytest.raises(BudgetError, match=r"one see-saw restart needs d\^4 entries"):
            _seesaw_restarts(chsh(), 10**1100, 4, 10, 0)


class TestXorCertificate:
    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4, 5])
    def test_seesaw_reaches_certified_value(self, seed):
        # seed None is CHSH; the others are random 3x3 XOR games
        if seed is None:
            p, f = chsh().p, np.array([[0, 0], [0, 1]])
        else:
            rng = rng_for(seed, 900)
            p = rng.random((3, 3))
            p /= p.sum()
            f = rng.integers(0, 2, size=(3, 3))
        lower, upper = xor_value_bounds(p, f)
        assert upper - lower <= 1e-10
        res = entangled_value_seesaw(xor_game(p, f), d=2, restarts=10, iters=200, seed=0)
        assert upper - 1e-8 <= res.value <= upper + 1e-9

    def test_chsh_bracket_is_tsirelson(self):
        lower, upper = xor_value_bounds(chsh().p, np.array([[0, 0], [0, 1]]))
        assert abs(lower - TSIRELSON) <= 1e-12 and abs(upper - TSIRELSON) <= 1e-12


class TestRepetition:
    def test_repeat_once_is_identity(self):
        assert game_to_json(repeat(chsh(), 1)) == game_to_json(chsh())

    def test_repeat_two_structure(self):
        g2 = repeat(chsh(), 2)
        assert (g2.k, g2.l) == (4, 4)
        assert_allclose(g2.p.sum(), 1.0, atol=1e-12)
        # conjunction: component rounds decided independently
        g = chsh()
        x, y = (1, 0), (0, 1)
        a, b = (1, 1), (0, 1)
        xi, yi = encode_tuple(x, 2), encode_tuple(y, 2)
        ai, bi = encode_tuple(a, 2), encode_tuple(b, 2)
        expect = all(g.v[a[i], b[i], x[i], y[i]] for i in range(2))
        assert bool(g2.v[ai, bi, xi, yi]) == expect

    def test_repeat_budget(self):
        with pytest.raises(BudgetError):
            repeat(chsh(), 12)

    @pytest.mark.parametrize("n", [4000, 10**7])
    def test_budget_decided_without_the_table_size(self, n):
        # (kl)^(2n) has over 4,300 digits from n = 3,572 on, too many to print
        for build in (lambda: repeat(chsh(), n), lambda: majority_game(chsh(), n, 0.5)):
            with pytest.raises(BudgetError, match=rf"\(2\*2\)\^{2 * n} entries"):
                build()

    def test_majority_alpha_zero_always_wins(self):
        g = majority_game(chsh(), 2, alpha=0.0)
        assert g.v.all()
        assert classical_value(g).value == 1.0

    def test_majority_alpha_one_is_repeat(self):
        g1 = majority_game(chsh(), 2, alpha=1.0)
        g2 = repeat(chsh(), 2)
        assert np.array_equal(g1.v, g2.v)
        assert_allclose(g1.p, g2.p)

    def test_majority_half_of_two(self):
        # winning one round of two suffices; play round 1 properly, ignore round 2
        g = majority_game(chsh(), 2, alpha=0.5)
        assert classical_value(g).value == 1.0

    def test_majority_threshold_oracle(self):
        # independent recount for a specific entry
        g = majority_game(chsh(), 3, alpha=2 / 3)
        base = chsh()
        x, y, a, b = (0, 1, 1), (1, 1, 0), (0, 1, 1), (1, 1, 0)
        wins = sum(bool(base.v[a[i], b[i], x[i], y[i]]) for i in range(3))
        idx = [encode_tuple(t, 2) for t in (a, b, x, y)]
        assert bool(g.v[idx[0], idx[1], idx[2], idx[3]]) == (wins >= 2)

    def test_many_rounds_of_trivial_game(self):
        # 300 rounds won do not fit in uint8; the count must not wrap around
        g = all_ones_game(1, 1)
        assert repeat(g, 300).v.all()
        assert majority_game(g, 300, 1.0).v.all()

    def test_majority_alpha_range(self):
        with pytest.raises(ValueError):
            majority_game(chsh(), 2, alpha=1.5)


class TestPredicates:
    def test_is_free(self):
        assert is_free(chsh())
        corr = Game(2, 2, np.array([[0.5, 0.0], [0.0, 0.5]]),
                    np.ones((2, 2, 2, 2), dtype=bool))
        assert not is_free(corr)

    def test_is_projection(self):
        # CHSH: for fixed b, x, y exactly one a satisfies a xor b = x and y
        assert is_projection(chsh())
        assert not is_projection(all_ones_game())


class TestJson:
    def test_round_trip(self):
        g = chsh()
        g2 = game_from_dict(json.loads(game_to_json(g)))
        assert g2 == g

    def test_canonical_bytes(self):
        s = game_to_json(chsh())
        assert s == game_to_json(game_from_dict(json.loads(s)))
        assert "\n" not in s and ": " not in s

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing field"):
            game_from_dict({"k": 2, "l": 2, "p": [[0.25] * 2] * 2})

    def test_save_load(self, tmp_path):
        path = tmp_path / "g.json"
        write_game(chsh(), path)
        assert load_game(path) == chsh()

    def test_load_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"k": 2,\n  "l": }')
        with pytest.raises(ValueError, match=r"broken\.json.*line 2"):
            load_game(path)
