import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entgames.cli import main
from entgames.linalg import kron, partial_trace_matrix, psd_eigvalsh
from entgames.qinfo import (
    clip_fidelity,
    fidelity,
    max_overlap_isometry,
    mutual_information,
)
from entgames.random_states import haar_state, haar_unitary, rng_for
from entgames.sic import (
    SuperposedState,
    build_decoupling,
    check_bound_at_delta_zero,
    check_supercos,
    pure_product_fidelity,
    rel_ent_game_shift_check,
    sic_lower_bound,
    sic_terms,
    special_case_report,
)

from conftest import count_solves, purification_matrix

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


def rotated(om: SuperposedState, seed: int = 64) -> SuperposedState:
    """om with every advice state rotated by one fixed Haar unitary on A and one on B."""
    da, db = om.dims()
    ua, ub = haar_unitary(rng_for(seed, da), da), haar_unitary(rng_for(seed + 1, db), db)
    return SuperposedState.build(om.p, np.einsum("ia,xyab,jb->xyij", ua, om.advice, ub))


def reference_decoupling(om: SuperposedState) -> tuple[float, float]:
    """(fbar_alice, fbar_out) of the construction on canonical purifications:
    purification_matrix of each average state, one max_overlap_isometry per
    input on its normalized conditional, and each defect from the eigenvalues
    of the reduced state on the inputs.  build_decoupling's purifications
    differ from these by a fixed unitary on A' and on B', which moves no
    defect."""
    k, (da, db) = om.k, om.dims()
    t4 = om.state.tensor()                              # [x, a, b, y]
    t = t4.reshape(k * da, db * k)

    def isometries(rho_plus, conds, px):
        d = conds.shape[2]
        m_phi = purification_matrix(rho_plus, k * d)
        iso = np.zeros((k, k * d, d), dtype=complex)
        for x in range(k):
            if px[x] <= 1e-15:
                iso[x] = np.eye(k * d, d)
            else:
                iso[x], _ = max_overlap_isometry(m_phi, conds[x] / math.sqrt(px[x]))
        return iso

    def defect(m):
        w = psd_eigvalsh(m @ m.conj().T)
        return 1.0 - clip_fidelity(math.sqrt(max(float((w ** 3).sum()), 0.0)))

    u = isometries(t.T @ t.conj(), t4.transpose(0, 2, 3, 1).reshape(k, db * k, da),
                   om.p.sum(axis=1))
    t1 = np.einsum("xpa,xaby->xpby", u, t4)
    v = isometries(t @ t.conj().T, t4.transpose(3, 0, 1, 2).reshape(k, k * da, db),
                   om.p.sum(axis=0))
    t3 = np.einsum("yqb,xpby->xpqy", v, t1)
    return defect(t1.reshape(k, -1)), defect(t3.transpose(0, 3, 1, 2).reshape(k * k, -1))


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

    def test_rejects_advice_table_not_four_dimensional(self):
        for table in (constant_advice()[0], constant_advice()[..., None]):
            with pytest.raises(ValueError, match="advice table shape"):
                SuperposedState.build(UNIFORM2, table)

    def test_rejects_unnormalized_advice_at_zero_probability(self):
        # pairs (x, 1) have probability 0, so the diagonal and the PureState
        # checks, which weight each advice state by p, do not see its norm
        p = np.array([[0.5, 0.0], [0.5, 0.0]])
        states = constant_advice()
        states[:, 1] /= math.sqrt(2)
        with pytest.raises(ValueError, match="advice states must be normalized"):
            SuperposedState.build(p, states)
        states[:, 1] *= math.sqrt(2)
        om = SuperposedState.build(p, states)
        assert om.advice.shape == (2, 2, 2, 2) and om.advice.dtype == complex

    def test_advice_within_norm_tolerance(self):
        states = constant_advice() * (1 + 1e-10)
        SuperposedState.build(UNIFORM2, states)
        with pytest.raises(ValueError, match="normalized"):
            SuperposedState.build(UNIFORM2, constant_advice() * (1 + 1e-8))

    def test_norm_rule_bounds_the_diagonal(self):
        # the reduced (X, Y) diagonal is p_xy ||phi_xy||^2, so advice the norm
        # check accepts builds (a separate diagonal check used to reject it)
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        states = np.zeros((2, 2, 2, 2), dtype=complex)
        states[..., 0, 0] = 1 + 9e-10
        assert SuperposedState.build(p, states).state.dims == (2, 2, 2, 2)
        states[..., 0, 0] = 1 + 2e-9
        with pytest.raises(ValueError, match="advice states must be normalized"):
            SuperposedState.build(p, states)


class TestObjective:
    def test_constant_advice_is_free(self):
        om = SuperposedState.build(UNIFORM2, constant_advice())
        tx, ty = sic_terms(om)
        assert abs(tx) <= 1e-9 and abs(ty) <= 1e-9
        assert abs(sum(sic_terms(om))) <= 1e-9

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
        # the objective I(X:BY) + I(Y:XA) from the dephased density matrix
        om = random_product_instance(rng_for(4))
        omega, dims = density(om.state), om.state.dims    # (X, A, B, Y)
        ref = (mutual_information(_pinch(omega, dims, 0), dims, [0], [2, 3])
               + mutual_information(_pinch(omega, dims, 3), dims, [3], [0, 1]))
        assert_allclose(sum(sic_terms(om)), ref, atol=1e-12)


class TestDecoupling:
    def test_requires_product_distribution(self):
        corr = np.array([[0.5, 0.0], [0.0, 0.5]])
        om = SuperposedState.build(corr, constant_advice())
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

    def test_weightless_inputs_keep_the_identity(self):
        # x = 1 and y = 0 have probability 0: any isometry serves, and the
        # construction picks the identity embedding
        p = np.outer([0.3, 0.0, 0.7], [0.0, 0.6, 0.4])
        res = build_decoupling(SuperposedState.build(p, haar_advice(rng_for(62), 3, 2, 2)))
        assert np.array_equal(res.isometries_alice[1], np.eye(6, 2))
        assert np.array_equal(res.isometries_bob[0], np.eye(6, 2))
        for iso in (res.isometries_alice[[0, 2]], res.isometries_bob[[1, 2]]):
            assert not np.array_equal(iso, np.broadcast_to(np.eye(6, 2), iso.shape))

    def test_solves_pinned(self, monkeypatch, tmp_path):
        # (calls, matrices) per solver for one construction at k = 2, dA = 3,
        # dB = 2: three SVD calls for the two terms, one stacked polar SVD per
        # player, one SVD per defect, and no eigensolve.  A change that adds
        # a solve fails here without timing noise.
        om = random_product_instance(rng_for(9), k=2, da=3, db=2)
        counts = count_solves(monkeypatch)
        build_decoupling(om)
        assert counts == {"svd": [7, 11]}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_spec_doc(om)))
        counts.clear()
        assert main(["sic", str(spec), "--decouple", "--out", str(tmp_path / "out")]) == 0
        assert counts == {"svd": [7, 11]}


def _amplitude_instances():
    """Seeded product instances over k in {2, 3}, (dA, dB) in {1, 2, 3}^2, plus
    one with a weightless input on each side, one with constant advice and
    two with rank-deficient advice."""
    cases = [pytest.param(random_product_instance(rng_for(61, k, da, db), k, da, db),
                          id=f"k{k}-{da}x{db}")
             for k in (2, 3) for da in (1, 2, 3) for db in (1, 2, 3)]
    p = np.outer([0.3, 0.0, 0.7], [0.0, 0.6, 0.4])     # zero row x=1, zero column y=0
    cases.append(pytest.param(SuperposedState.build(p, haar_advice(rng_for(62), 3, 2, 2)),
                              id="zero-weight"))
    cases.append(pytest.param(SuperposedState.build(UNIFORM2, constant_advice()),
                              id="constant"))
    # rank-deficient advice: Schmidt coefficients down to 1e-7, and product
    # states a_y (x) b_x, so each conditional misses part of A or of B
    rng = rng_for(65)
    s = np.array([1.0, 1e-4, 1e-7]) / math.sqrt(1.0 + 1e-8 + 1e-14)
    small = np.array([[haar_unitary(rng, 3) @ np.diag(s) @ haar_unitary(rng, 3).T
                       for _ in range(2)] for _ in range(2)])
    a, b = haar_advice(rng, 2, 3, 1)[0, :, :, 0], haar_advice(rng, 2, 3, 1)[0, :, :, 0]
    rank1 = np.einsum("ya,xb->xyab", a, b)
    for adv, name in ((small, "svals-1e-7"), (rank1, "rank-1")):
        p = np.outer(rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2)))
        cases.append(pytest.param(SuperposedState.build(p, adv), id=name))
    return cases


def _spec_doc(om: SuperposedState) -> dict:
    """om as an `entgames sic` state spec."""
    k, dims = om.k, list(om.dims())
    advice = [[[[a.real, a.imag] for a in om.advice[x, y].reshape(-1)]
               for y in range(k)] for x in range(k)]
    return {"p": om.p.tolist(), "dims": dims, "advice": advice}


def _pinch(rho, dims, pos):
    """rho dephased in the computational basis of factor pos: sum_i P_i rho P_i."""
    before, after = math.prod(dims[:pos]), math.prod(dims[pos + 1:])
    out = np.zeros_like(rho)
    for i in range(dims[pos]):
        proj = kron(kron(np.eye(before), np.diag(np.eye(dims[pos])[i])), np.eye(after))
        out += proj @ rho @ proj
    return out


def density(psi) -> np.ndarray:
    """|psi><psi| of a PureState, as a matrix."""
    return np.outer(psi.amplitudes, psi.amplitudes.conj())


class TestAmplitudeRoute:
    """The amplitude-tensor route against density-matrix references."""

    @pytest.mark.parametrize("om", _amplitude_instances())
    def test_matches_density_matrix_references(self, om):
        res = build_decoupling(om)

        rho1, dims = density(res.state_alice), res.state_alice.dims
        prod1 = kron(partial_trace_matrix(rho1, dims, [0]),
                     partial_trace_matrix(rho1, dims, [1, 2, 3]))
        assert abs(res.fbar_alice - (1.0 - fidelity(rho1, prod1))) <= 1e-12

        # rho_XY (x) rho_AB is ordered (X, Y, A, B); move Y last to match rho3
        rho3, dims = density(res.state_out), res.state_out.dims
        k, da, db, _ = dims
        prod3 = kron(partial_trace_matrix(rho3, dims, [0, 3]),
                     partial_trace_matrix(rho3, dims, [1, 2]))
        prod3 = prod3.reshape(2 * (k, k, da, db)).transpose(0, 2, 3, 1, 4, 6, 7, 5)
        prod3 = prod3.reshape(rho3.shape)
        assert abs(res.fbar_out - (1.0 - fidelity(rho3, prod3))) <= 1e-12

        omega, dims = density(om.state), om.state.dims    # (X, A, B, Y)
        ref_x = mutual_information(_pinch(omega, dims, 0), dims, [0], [2, 3])
        ref_y = mutual_information(_pinch(omega, dims, 3), dims, [3], [0, 1])
        tx, ty = sic_terms(om)
        assert abs(tx - ref_x) <= 1e-12 and abs(ty - ref_y) <= 1e-12
        assert (res.delta_x, res.delta_y) == (tx, ty)

    @pytest.mark.parametrize("om", _amplitude_instances())
    def test_matches_canonical_purification_construction(self, om):
        # |Omega>'s amplitude matrix as the reference purification moves no
        # defect, also with the advice under fixed local unitaries, which
        # change the canonical purification's eigenbasis
        ref = reference_decoupling(om)
        for case in (om, rotated(om)):
            res = build_decoupling(case)
            got = (res.fbar_alice, res.fbar_out)
            assert_allclose(got, reference_decoupling(case), rtol=0, atol=1e-13)
            assert_allclose(got, ref, rtol=0, atol=1e-13)

    def test_fidelity_kernel_raises_above_one(self):
        m = np.zeros((2, 3), dtype=complex)
        m[0, 0] = 1.01                  # product state of norm 1.01: F = 1.01^3
        with pytest.raises(ValueError, match="exceeds 1"):
            pure_product_fidelity(m)
        m[0, 0] = 1.0
        assert pure_product_fidelity(m) == 1.0

    def test_cli_terms_are_decoupling_deltas(self, tmp_path):
        om = random_product_instance(rng_for(63), 2, 3, 2)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_spec_doc(om)))
        out = tmp_path / "out"
        assert main(["sic", str(spec), "--decouple", "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["term_x"] == rep["decoupling"]["delta_x"]
        assert rep["term_y"] == rep["decoupling"]["delta_y"]

    def test_bell_example_terms_are_exactly_zero(self, tmp_path):
        # the README's spec: a Bell state on every input pair.  Its terms
        # round to -1.1e-16 and -2.2e-16 before the clamp at 0
        bell = [[0.7071067811865476, 0.0], [0, 0], [0, 0], [0.7071067811865476, 0.0]]
        spec = tmp_path / "bell.json"
        spec.write_text(json.dumps({"p": UNIFORM2.tolist(), "dims": [2, 2],
                                    "advice": [[bell, bell], [bell, bell]]}))
        out = tmp_path / "out"
        assert main(["sic", str(spec), "--decouple", "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        dec = rep["decoupling"]
        got = (rep["term_x"], rep["term_y"], rep["objective"], dec["delta_in"],
               dec["alice_bound_9x"], dec["combined_bound_81x"])
        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in got)


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

    def test_arrays_elementwise(self):
        eps = np.linspace(0.0, 1.0, 101)
        got = sic_lower_bound(eps, eps / 8.0)
        assert got.shape == (101,)
        assert got.tolist() == [sic_lower_bound(e, e / 8.0) for e in eps.tolist()]
        with pytest.raises(ValueError, match="must lie in"):
            sic_lower_bound(eps, np.where(eps > 0.99, 1.5, 0.5))

    def test_grids_keep_their_bits(self):
        # the grid reports call sic_lower_bound; /8 and delta = 0 are exact,
        # so the margins are the bits of the formulas they used to inline
        eps = np.linspace(0.0, 1.0, 10_000)
        at_zero = (1.0 - np.sqrt(1.0 - eps)) / 81.0
        at_eighth = (1.0 - np.sqrt((1.0 - eps) * (1.0 - eps / 8.0))
                     - np.sqrt(eps * eps / 8.0)) / 81.0
        assert np.array_equal(sic_lower_bound(eps, 0.0), at_zero)
        assert np.array_equal(sic_lower_bound(eps, eps / 8.0), at_eighth)


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
