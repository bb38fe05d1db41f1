import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entgames.cli import main
from entgames.games import AdviceEnsemble
from entgames.linalg import kron, partial_trace_matrix
from entgames.qinfo import fidelity, von_neumann_entropy
from entgames.random_states import haar_state, rng_for
from entgames.sic import (
    SuperposedState,
    build_decoupling,
    check_bound_at_delta_zero,
    check_supercos,
    pure_product_fidelity,
    rel_ent_game_shift_check,
    sic_lower_bound,
    sic_objective,
    sic_terms,
    special_case_report,
)

UNIFORM2 = np.full((2, 2), 0.25)


def constant_advice(k: int = 2, da: int = 2, db: int = 2) -> np.ndarray:
    bell = np.zeros((da, db), dtype=complex)
    m = min(da, db)
    bell[np.arange(m), np.arange(m)] = 1 / math.sqrt(m)
    return np.broadcast_to(bell, (k, k, da, db)).copy()


def revealing_advice(k: int = 2) -> np.ndarray:
    states = np.zeros((k, k, k, k), dtype=complex)
    for x in range(k):
        for y in range(k):
            states[x, y, y, x] = 1.0     # A learns y, B learns x
    return states


def haar_advice(rng, k: int, da: int, db: int) -> np.ndarray:
    states = np.zeros((k, k, da, db), dtype=complex)
    for x in range(k):
        for y in range(k):
            states[x, y] = haar_state(rng, da * db).reshape(da, db)
    return states


def random_product_instance(rng, k: int = 2, da: int = 2, db: int = 2) -> SuperposedState:
    px = rng.dirichlet(np.ones(k))
    py = rng.dirichlet(np.ones(k))
    return SuperposedState.build(np.outer(px, py), haar_advice(rng, k, da, db))


class TestSuperposedState:
    def test_build_layout(self):
        om = SuperposedState.build(UNIFORM2, constant_advice(2, 2, 3))
        assert om.k == 2 and om.dims() == (2, 3)
        assert om.state.dims == (2, 2, 3, 2)      # (X, A, B, Y)

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError):
            SuperposedState.build(np.full((2, 2), 0.3), constant_advice())
        with pytest.raises(ValueError, match="non-finite"):
            SuperposedState.build([[np.nan, 0.25], [0.25, 0.25]], constant_advice())

    def test_rejects_arity_mismatch(self):
        with pytest.raises(ValueError):
            SuperposedState.build(np.full((3, 3), 1 / 9), constant_advice(k=2))

    def test_rejects_foreign_ensemble(self):
        skew = np.array([[0.4, 0.1], [0.1, 0.4]])
        adv = AdviceEnsemble(constant_advice(), skew)
        with pytest.raises(ValueError):
            SuperposedState.build(UNIFORM2, adv)


class TestObjective:
    def test_constant_advice_is_free(self):
        om = SuperposedState.build(UNIFORM2, constant_advice())
        tx, ty = sic_terms(om)
        assert abs(tx) <= 1e-9 and abs(ty) <= 1e-9
        assert abs(sic_objective(om)) <= 1e-9

    def test_revealing_advice_costs_two_bits(self):
        om = SuperposedState.build(UNIFORM2, revealing_advice())
        tx, ty = sic_terms(om)
        assert_allclose((tx, ty), (1.0, 1.0), atol=1e-9)

    def test_one_sided_advice(self):
        # A carries y, B carries nothing: only the second term pays
        states = np.zeros((2, 2, 2, 1), dtype=complex)
        for x in range(2):
            for y in range(2):
                states[x, y, y, 0] = 1.0
        om = SuperposedState.build(UNIFORM2, states)
        tx, ty = sic_terms(om)
        assert abs(tx) <= 1e-9
        assert_allclose(ty, 1.0, atol=1e-9)

    def test_objective_is_sum(self):
        om = random_product_instance(rng_for(4))
        tx, ty = sic_terms(om)
        assert_allclose(sic_objective(om), tx + ty, atol=1e-12)


class TestDecoupling:
    def test_requires_product_distribution(self):
        corr = np.array([[0.5, 0.0], [0.0, 0.5]])
        states = constant_advice()
        adv = AdviceEnsemble(states, corr)
        om = SuperposedState.build(corr, adv)
        with pytest.raises(ValueError, match="product"):
            build_decoupling(om)

    def test_constant_advice_decouples_exactly(self):
        om = SuperposedState.build(UNIFORM2, constant_advice())
        res = build_decoupling(om)
        assert res.delta_in <= 1e-9
        assert res.fbar_alice <= 1e-9
        assert res.fbar_out <= 1e-9

    def test_isometries_are_isometries(self):
        om = random_product_instance(rng_for(8))
        res = build_decoupling(om)
        for u in res.isometries_alice:
            assert_allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-10)
        for v in res.isometries_bob:
            assert_allclose(v.conj().T @ v, np.eye(v.shape[1]), atol=1e-10)

    def test_isometry_shapes(self):
        om = random_product_instance(rng_for(9), k=2, da=3, db=2)
        res = build_decoupling(om)
        assert res.isometries_alice.shape == (2, 6, 3)
        assert res.isometries_bob.shape == (2, 4, 2)

    def test_defect_bounds_on_random_instances(self):
        rng = rng_for(21)
        for _ in range(10):
            om = random_product_instance(rng)
            res = build_decoupling(om)
            assert res.delta_in == max(res.delta_x, res.delta_y)
            assert res.fbar_alice <= 9.0 * res.delta_x + 1e-6
            assert res.fbar_out <= 81.0 * res.delta_in + 1e-6

    def test_output_states_normalized(self):
        om = random_product_instance(rng_for(33))
        res = build_decoupling(om)
        assert_allclose(np.linalg.norm(res.state_alice.amplitudes), 1.0, atol=1e-9)
        assert_allclose(np.linalg.norm(res.state_out.amplitudes), 1.0, atol=1e-9)


def _amplitude_instances():
    """Seeded product instances over k in {2, 3}, (dA, dB) in {1, 2, 3}^2, plus
    one with a weightless input on each side and one with constant advice."""
    cases = [pytest.param(random_product_instance(rng_for(61, k, da, db), k, da, db),
                          id=f"k{k}-{da}x{db}")
             for k in (2, 3) for da in (1, 2, 3) for db in (1, 2, 3)]
    p = np.outer([0.3, 0.0, 0.7], [0.0, 0.6, 0.4])     # zero row x=1, zero column y=0
    cases.append(pytest.param(SuperposedState.build(p, haar_advice(rng_for(62), 3, 2, 2)),
                              id="zero-weight"))
    cases.append(pytest.param(SuperposedState.build(UNIFORM2, constant_advice()),
                              id="constant"))
    return cases


def _pinch(rho, dims, pos):
    """rho dephased in the computational basis of factor pos: sum_i P_i rho P_i."""
    before, after = math.prod(dims[:pos]), math.prod(dims[pos + 1:])
    out = np.zeros_like(rho)
    for i in range(dims[pos]):
        proj = kron(kron(np.eye(before), np.diag(np.eye(dims[pos])[i])), np.eye(after))
        out += proj @ rho @ proj
    return out


def _mutual_information(rho, dims, x, y):
    """I(X:Y) = S(X) + S(Y) - S(XY) over factor positions x and y."""
    def s(keep):
        return von_neumann_entropy(partial_trace_matrix(rho, dims, keep))
    return s(x) + s(y) - s(x + y)


class TestAmplitudeRoute:
    """The amplitude-tensor route against density-matrix references."""

    @pytest.mark.parametrize("om", _amplitude_instances())
    def test_matches_density_matrix_references(self, om):
        res = build_decoupling(om)

        rho1, dims = res.state_alice.density().matrix, res.state_alice.dims
        prod1 = kron(partial_trace_matrix(rho1, dims, [0]),
                     partial_trace_matrix(rho1, dims, [1, 2, 3]))
        assert abs(res.fbar_alice - (1.0 - fidelity(rho1, prod1))) <= 1e-12

        # rho_XY (x) rho_AB is ordered (X, Y, A, B); move Y last to match rho3
        rho3, dims = res.state_out.density().matrix, res.state_out.dims
        k, da, db, _ = dims
        prod3 = kron(partial_trace_matrix(rho3, dims, [0, 3]),
                     partial_trace_matrix(rho3, dims, [1, 2]))
        prod3 = prod3.reshape(2 * (k, k, da, db)).transpose(0, 2, 3, 1, 4, 6, 7, 5)
        prod3 = prod3.reshape(rho3.shape)
        assert abs(res.fbar_out - (1.0 - fidelity(rho3, prod3))) <= 1e-12

        omega, dims = om.state.density().matrix, om.state.dims    # (X, A, B, Y)
        ref_x = _mutual_information(_pinch(omega, dims, 0), dims, [0], [2, 3])
        ref_y = _mutual_information(_pinch(omega, dims, 3), dims, [3], [0, 1])
        tx, ty = sic_terms(om)
        assert abs(tx - ref_x) <= 1e-12 and abs(ty - ref_y) <= 1e-12
        assert (res.delta_x, res.delta_y) == (tx, ty)

    def test_fidelity_kernel_raises_above_one(self):
        m = np.zeros((2, 3), dtype=complex)
        m[0, 0] = 1.01                  # product state of norm 1.01: F = 1.01^3
        with pytest.raises(ValueError, match="exceeds 1"):
            pure_product_fidelity(m)
        m[0, 0] = 1.0
        assert pure_product_fidelity(m) == 1.0

    def test_cli_terms_are_decoupling_deltas(self, tmp_path):
        om = random_product_instance(rng_for(63), 2, 3, 2)
        advice = [[[[a.real, a.imag] for a in om.advice.states[x, y].reshape(-1)]
                   for y in range(2)] for x in range(2)]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"p": om.p.tolist(), "dims": [3, 2], "advice": advice}))
        out = tmp_path / "out"
        assert main(["sic", str(spec), "--decouple", "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["term_x"] == rep["decoupling"]["delta_x"]
        assert rep["term_y"] == rep["decoupling"]["delta_y"]


class TestScalarBound:
    def test_range_errors(self):
        with pytest.raises(ValueError):
            sic_lower_bound(-0.1, 0.0)
        with pytest.raises(ValueError):
            sic_lower_bound(0.5, 1.2)

    def test_endpoints(self):
        assert sic_lower_bound(0.0, 0.0) == 0.0
        assert_allclose(sic_lower_bound(1.0, 0.0), 1.0 / 81.0, atol=1e-15)

    def test_delta_zero_formula(self):
        for eps in (0.1, 0.37, 0.9):
            assert_allclose(sic_lower_bound(eps, 0.0),
                            (1.0 - math.sqrt(1.0 - eps)) / 81.0, atol=1e-15)


class TestGrids:
    def test_delta_zero_bound_holds(self):
        rep = check_bound_at_delta_zero(grid_size=2000)
        assert rep.holds_everywhere and rep.n_failures == 0
        assert rep.worst_margin >= 0.0

    def test_special_case_fails(self):
        rep = special_case_report(grid_size=2000)
        assert not rep.holds_everywhere
        assert rep.n_failures > 0
        assert -1e-4 < rep.worst_margin < 0.0
        assert 0.10 < rep.worst_point < 0.25
        assert "FAILS" in rep.summary()

    def test_weaker_divisor_holds(self):
        # doubling the divisor restores the inequality everywhere
        rep = special_case_report(grid_size=2000, divisor=648.0)
        assert rep.holds_everywhere

    def test_supercos_holds(self):
        rep = check_supercos(grid_size=2000)
        assert rep.holds_everywhere
        assert rep.worst_margin >= -1e-12


class TestShiftCheck:
    def test_holds_across_epsilons(self):
        for eps in (0.05, 0.1, 0.5, 1.0):
            rep = rel_ent_game_shift_check(eps)
            assert rep.holds
            assert rep.min_slack > 0.0
            assert rep.max_premise_omega <= 1.0 - eps / 4.0 + 1e-9

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            rel_ent_game_shift_check(0.0)
        with pytest.raises(ValueError):
            rel_ent_game_shift_check(1.5)
