import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entgames.linalg import (
    DensityOperator,
    hermitianize,
    matrix_sqrt_psd,
    partial_trace,
)
from entgames.qinfo import (
    Povm,
    PureState,
    angle,
    check_povm,
    entropy_of_spectrum,
    fbar,
    fidelity,
    fidelity_from_root,
    min_relative_entropy,
    mutual_information,
    povm_outcome_bound,
    purification_matrix,
    purify,
    relative_entropy,
    schmidt_decompose,
    uhlmann_partner,
    von_neumann_entropy,
)
from entgames.random_states import (
    floor_eigenvalues,
    haar_state,
    haar_unitary,
    random_mixed,
    random_povm,
    rng_for,
)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def bell_state() -> PureState:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return PureState.from_vector(v, (2, 2), ("A", "B"))


@pytest.fixture
def rng():
    return rng_for(77)


class TestFidelity:
    def test_identical(self, rng):
        rho = random_mixed(rng, 4)
        assert_allclose(fidelity(rho, rho), 1.0, atol=1e-10)

    def test_orthogonal(self):
        assert_allclose(fidelity(KET0, KET1), 0.0, atol=1e-12)

    def test_zero_plus(self):
        assert_allclose(fidelity(KET0, PLUS), 1 / math.sqrt(2), atol=1e-12)

    def test_symmetric(self, rng):
        for _ in range(20):
            r, s = random_mixed(rng, 3), random_mixed(rng, 3)
            assert abs(fidelity(r, s) - fidelity(s, r)) <= 1e-10

    def test_unitary_invariance(self, rng):
        r, s = random_mixed(rng, 4), random_mixed(rng, 4)
        u = haar_unitary(rng, 4)
        f1 = fidelity(r, s)
        f2 = fidelity(u @ r @ u.conj().T, u @ s @ u.conj().T)
        assert abs(f1 - f2) <= 1e-10

    def test_sandwich_oracle(self, rng):
        # independent route: sum of sqrt eigenvalues of sqrt(rho) sigma sqrt(rho)
        for _ in range(20):
            r, s = random_mixed(rng, 5), random_mixed(rng, 5)
            sq = matrix_sqrt_psd(r)
            w = np.linalg.eigvalsh(hermitianize(sq @ s @ sq))
            oracle = np.sqrt(np.clip(w, 0.0, None)).sum()
            assert abs(fidelity(r, s) - oracle) <= 1e-9

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            fidelity(random_mixed(rng, 2), random_mixed(rng, 3))

    def test_fbar(self):
        assert_allclose(fbar(KET0, KET0), 0.0, atol=1e-10)
        assert_allclose(fbar(KET0, KET1), 1.0, atol=1e-12)


class TestAngle:
    def test_endpoints(self, rng):
        rho = random_mixed(rng, 3)
        assert angle(rho, rho) <= 1e-4          # arccos amplifies 1e-10 to ~1e-5
        assert_allclose(angle(KET0, KET1), math.pi / 2, atol=1e-12)
        assert_allclose(angle(KET0, PLUS), math.pi / 4, atol=1e-12)

    def test_triangle(self, rng):
        for _ in range(30):
            r1, r2, r3 = (random_mixed(rng, 3) for _ in range(3))
            assert angle(r1, r3) <= angle(r1, r2) + angle(r2, r3) + 1e-9


class TestPovmBound:
    def test_dominates_fidelity(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 6))
            r, s = random_mixed(rng, d), random_mixed(rng, d)
            povm = Povm(tuple(random_povm(rng, d, 3)))
            assert povm_outcome_bound(r, s, povm) >= fidelity(r, s) - 1e-9

    def test_projective_reading(self):
        povm = Povm((KET0, KET1))
        got = povm_outcome_bound(KET0, PLUS, povm)
        assert_allclose(got, math.sqrt(0.5), atol=1e-12)


class TestPovmType:
    def test_outcome_distribution(self, rng):
        d = 3
        povm = Povm(tuple(random_povm(rng, d, 4)))
        p = povm.outcome_distribution(random_mixed(rng, d))
        assert p.shape == (4,)
        assert (p >= -1e-12).all()
        assert_allclose(p.sum(), 1.0, atol=1e-10)

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            Povm((KET0 * 0.5, KET1))

    def test_rejects_negative_element(self):
        e = np.diag([1.5, 1.0]).astype(complex)
        f = np.diag([-0.5, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            Povm((e, f))


class TestPureState:
    def test_norm_validation(self):
        with pytest.raises(ValueError):
            PureState.from_vector(np.array([1.0, 1.0]))

    def test_density_and_overlap(self):
        psi = bell_state()
        rho = psi.density()
        assert_allclose(np.trace(rho.matrix), 1.0, atol=1e-12)
        assert_allclose(abs(psi.overlap(psi)), 1.0, atol=1e-12)


class TestPurify:
    def test_reduction_recovers_state(self, rng):
        rho = DensityOperator.from_matrix(random_mixed(rng, 3), (3,), ("S",))
        phi = purify(rho)
        back = partial_trace(phi.density(), ["S"])
        assert_allclose(back.matrix, rho.matrix, atol=1e-10)

    def test_ancilla_first_and_descending(self, rng):
        rho = DensityOperator.from_matrix(random_mixed(rng, 4), (4,), ("S",))
        phi = purify(rho)
        assert phi.layout.labels[0] != "S" and phi.layout.labels[1] == "S"
        # canonical form: amplitude blocks ordered by descending eigenvalue
        m = phi.amplitudes.reshape(4, 4)
        col_norms = (np.abs(m) ** 2).sum(axis=1)
        assert (np.diff(col_norms) <= 1e-12).all()

    def test_pure_input_passthrough(self):
        phi = purify(DensityOperator.from_matrix(KET0, (2,), ("S",)))
        amps = phi.amplitudes.reshape(2, 2)
        # ancilla collapses to its first basis vector for a pure input
        assert_allclose(np.abs(amps[0]), [1.0, 0.0], atol=1e-10)
        assert_allclose(np.abs(amps[1]), [0.0, 0.0], atol=1e-10)


class TestPurificationMatrix:
    def test_reproduces_rho_with_descending_columns(self, rng):
        for d in (2, 3, 5):
            rho = random_mixed(rng, d)
            m = purification_matrix(rho, d)
            assert m.shape == (d, d)
            assert_allclose(m @ m.conj().T, rho, atol=1e-12)
            norms = (np.abs(m) ** 2).sum(axis=0)
            assert (np.diff(norms) <= 1e-15).all()
            assert_allclose(norms, np.linalg.eigvalsh(rho)[::-1], atol=1e-12)

    def test_columns_past_d_are_zero(self, rng):
        rho = random_mixed(rng, 3)
        m = purification_matrix(rho, 7)
        assert m.shape == (3, 7)
        assert not m[:, 3:].any()
        assert_allclose(m @ m.conj().T, rho, atol=1e-12)

    def test_trailing_mass_rule(self):
        # eigenvalue mass beyond the ancilla's width is dropped up to 1e-9
        for tail in (0.0, 5e-10):
            m = purification_matrix(np.diag([0.6, 0.4 - tail, tail]).astype(complex), 2)
            assert_allclose(np.abs(m) ** 2, [[0.6, 0.0], [0.0, 0.4 - tail], [0.0, 0.0]],
                            atol=1e-15)
        rho = np.diag([0.6, 0.4 - 2e-9, 2e-9]).astype(complex)
        with pytest.raises(ValueError, match="trailing eigenvalue mass"):
            purification_matrix(rho, 2)

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="not PSD"):
            purification_matrix(np.diag([1.5, -0.5]).astype(complex), 2)


class TestUhlmann:
    def test_overlap_matches_fidelity(self, rng):
        for d in (2, 3, 4):
            r = DensityOperator.from_matrix(random_mixed(rng, d), (d,), ("S",))
            s = DensityOperator.from_matrix(random_mixed(rng, d), (d,), ("S",))
            phi = purify(r)
            psi = uhlmann_partner(r, s, phi)
            ov = phi.overlap(psi)
            assert abs(ov.imag) <= 1e-9
            assert abs(ov.real - fidelity(r.matrix, s.matrix)) <= 1e-7

    def test_partner_purifies_sigma(self, rng):
        r = DensityOperator.from_matrix(random_mixed(rng, 3), (3,), ("S",))
        s = DensityOperator.from_matrix(random_mixed(rng, 3), (3,), ("S",))
        psi = uhlmann_partner(r, s, purify(r))
        red = partial_trace(psi.density(), ["S"])
        assert_allclose(red.matrix, s.matrix, atol=1e-9)

    def test_ancilla_larger_than_system(self, rng):
        # phi's 5-dim ancilla exceeds the 2-dim system: sigma's purification
        # is padded with zero columns before the polar step
        r = DensityOperator.from_matrix(random_mixed(rng, 2), (2,), ("S",))
        s = random_mixed(rng, 2)
        m_phi = purification_matrix(r.matrix, 5) @ haar_unitary(rng, 5)
        phi = PureState.from_vector(m_phi.reshape(-1), (2, 5), ("S", "E"))
        psi = uhlmann_partner(r, s, phi)
        assert psi.layout == phi.layout
        ov = phi.overlap(psi)
        assert abs(ov.imag) <= 1e-9
        assert abs(ov.real - fidelity(r.matrix, s)) <= 1e-9
        assert_allclose(partial_trace(psi.density(), ["S"]).matrix, s, atol=1e-12)

    def test_ancilla_too_small(self):
        # a pure rho purified on a 1-dim ancilla; sigma fits iff its mass
        # beyond the top eigenvalue is at most 1e-9
        r = DensityOperator.from_matrix(KET0, (2,), ("S",))
        phi = PureState.from_vector([1.0, 0.0], (2, 1), ("S", "E"))
        near_pure = np.diag([1.0 - 5e-10, 5e-10]).astype(complex)
        assert abs(uhlmann_partner(r, near_pure, phi).overlap(phi)) >= 1.0 - 1e-9
        with pytest.raises(ValueError, match="trailing eigenvalue mass"):
            uhlmann_partner(r, np.eye(2, dtype=complex) / 2, phi)

    def test_rejects_wrong_purification(self, rng):
        r = DensityOperator.from_matrix(random_mixed(rng, 3), (3,), ("S",))
        s = DensityOperator.from_matrix(random_mixed(rng, 3), (3,), ("S",))
        with pytest.raises(ValueError):
            uhlmann_partner(s, r, purify(r))


class TestEntropies:
    def test_diag_value(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        expect = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert_allclose(von_neumann_entropy(rho), expect, atol=1e-12)

    def test_pure_zero_maximal_full(self, rng):
        psi = haar_state(rng, 4)
        assert abs(von_neumann_entropy(np.outer(psi, psi.conj()))) <= 1e-9
        assert_allclose(von_neumann_entropy(np.eye(4) / 4), 2.0, atol=1e-12)

    def test_spectrum_cutoff(self):
        assert_allclose(entropy_of_spectrum(np.array([1.0, 0.0, 1e-15])),
                        0.0, atol=1e-12)

    def test_mutual_information_bell(self):
        assert_allclose(mutual_information(bell_state().density(), ("A",), ("B",)),
                        2.0, atol=1e-9)

    def test_mutual_information_product(self, rng):
        ra, rb = random_mixed(rng, 2), random_mixed(rng, 2)
        d = DensityOperator.from_matrix(np.kron(ra, rb), (2, 2), ("A", "B"))
        assert abs(mutual_information(d, ("A",), ("B",))) <= 1e-9


class TestRelativeEntropy:
    def test_classical_value(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        sig = np.eye(2, dtype=complex) / 2
        expect = 1.0 + 0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)
        assert_allclose(relative_entropy(rho, sig), expect, atol=1e-12)

    def test_zero_iff_equal(self, rng):
        rho = floor_eigenvalues(random_mixed(rng, 3), 1e-6)
        assert abs(relative_entropy(rho, rho)) <= 1e-9

    def test_support_violation_infinite(self):
        assert relative_entropy(KET0, KET1) == math.inf

    def test_nonnegative(self, rng):
        for _ in range(20):
            rho = random_mixed(rng, 3)
            sig = floor_eigenvalues(random_mixed(rng, 3), 1e-8)
            assert relative_entropy(rho, sig) >= -1e-9


class TestMinRelativeEntropy:
    def test_pure_vs_mixed(self):
        sig = np.eye(2, dtype=complex) / 2
        assert_allclose(min_relative_entropy(KET0, sig), 1.0, atol=1e-9)

    def test_support_violation_infinite(self):
        assert min_relative_entropy(KET0, KET1) == math.inf

    def test_dominates_relative_entropy(self, rng):
        for _ in range(20):
            rho = random_mixed(rng, 4)
            sig = floor_eigenvalues(random_mixed(rng, 4), 1e-8)
            assert min_relative_entropy(rho, sig) >= relative_entropy(rho, sig) - 1e-7


class TestSchmidt:
    def test_bell_coefficients(self):
        sd = schmidt_decompose(bell_state(), ("A",))
        assert_allclose(sd.coefficients, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_reconstructs(self, rng):
        psi = PureState.from_vector(haar_state(rng, 12), (3, 4), ("A", "B"))
        sd = schmidt_decompose(psi, ("A",))
        rec = sd.reconstruct().reshape(-1)
        assert_allclose(rec, psi.amplitudes, atol=1e-10)

    def test_cut_on_second_register(self, rng):
        psi = PureState.from_vector(haar_state(rng, 12), (3, 4), ("A", "B"))
        sd = schmidt_decompose(psi, ("B",))
        # squared coefficients = spectrum of either marginal
        red = partial_trace(psi.density(), ["B"]).matrix
        spec = np.sort(np.linalg.eigvalsh(red))[::-1]
        assert_allclose(np.sort(sd.coefficients ** 2)[::-1], spec[:len(sd.coefficients)],
                        atol=1e-10)


def _stack(rng, n, d):
    return np.stack([random_mixed(rng, d) for _ in range(n)])


class TestStacks:
    """Stacked calls act slice by slice: each slice equals the single call,
    and one bad slice fails the whole call as it would alone."""

    def test_slices_match_single_calls(self, rng):
        r, s = _stack(rng, 5, 4), floor_eigenvalues(_stack(rng, 5, 4), 1e-8)
        povm = np.stack([np.stack(random_povm(rng, 4, 3)) for _ in range(5)])
        for func in (fidelity, relative_entropy, min_relative_entropy):
            got = func(r, s)
            assert got.shape == (5,)
            assert [func(r[i], s[i]) for i in range(5)] == got.tolist()
        got = von_neumann_entropy(r)
        assert [von_neumann_entropy(x) for x in r] == got.tolist()
        got = povm_outcome_bound(r, s, povm)
        assert [povm_outcome_bound(r[i], s[i], Povm(tuple(povm[i]))) for i in range(5)] \
            == got.tolist()
        floored = floor_eigenvalues(r, 1e-3)
        for i in range(5):
            assert np.array_equal(floored[i], floor_eigenvalues(r[i], 1e-3))

    def test_fidelity_from_shared_root(self, rng):
        # one root of rho serves every fidelity against it
        r, s = _stack(rng, 3, 3), _stack(rng, 3, 3)
        got = fidelity_from_root(matrix_sqrt_psd(r), s)
        assert got.tolist() == fidelity(r, s).tolist()

    def test_fidelity_one_non_psd_sigma_raises(self, rng):
        r, s = _stack(rng, 4, 2), _stack(rng, 4, 2)
        s[2] = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match="not PSD"):
            fidelity(r, s)
        with pytest.raises(ValueError, match="not PSD"):
            fidelity(s, r)

    def test_relative_entropy_support_miss_is_per_slice(self, rng):
        r = np.stack([KET0, PLUS, KET0])
        s = np.stack([np.eye(2) / 2, np.eye(2) / 2, KET1])
        got = relative_entropy(r, s)
        assert got[2] == math.inf and math.isfinite(got[0]) and math.isfinite(got[1])
        assert got[:2].tolist() == [relative_entropy(r[i], s[i]) for i in range(2)]
        got = min_relative_entropy(r, s)
        assert got[2] == math.inf
        assert got[:2].tolist() == [min_relative_entropy(r[i], s[i]) for i in range(2)]
        assert_allclose(got[:2], [1.0, 1.0], atol=1e-12)

    def test_one_non_finite_slice_raises(self, rng):
        r = _stack(rng, 3, 2)
        r[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            von_neumann_entropy(r)
        with pytest.raises(ValueError, match="non-finite"):
            fidelity(r, _stack(rng, 3, 2))

    def test_one_bad_povm_raises(self, rng):
        povm = np.stack([np.stack(random_povm(rng, 2, 2)) for _ in range(3)])
        povm[1, 0] *= 0.5
        with pytest.raises(ValueError, match="sum to the identity"):
            check_povm(povm)
