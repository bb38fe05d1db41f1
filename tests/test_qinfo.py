import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entgames.linalg import (
    Solved,
    hermitianize,
    matrix_sqrt_psd,
    partial_trace_matrix,
)
from entgames.qinfo import (
    PureState,
    entropy_of_spectrum,
    fidelity,
    fidelity_from_factor,
    fidelity_from_factors,
    max_overlap_isometry,
    min_relative_entropy,
    mutual_information,
    povm_outcome_bound,
    relative_entropy,
    von_neumann_entropy,
)
from entgames.random_states import (
    floor_eigensystem,
    gram,
    haar_state,
    haar_unitary,
    mixed_draw,
    mixed_factors,
    random_mixed,
    rng_for,
)

from conftest import check_povm, purification_matrix, random_povm

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
BASIS = np.stack([KET0, KET1])          # the computational-basis measurement


def floored(rho, floor):
    return floor_eigensystem(rho, floor).matrix


def bell_state() -> PureState:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return PureState(v, (2, 2))


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



class TestPovmBound:
    def test_dominates_fidelity(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 6))
            r, s = random_mixed(rng, d), random_mixed(rng, d)
            povm = random_povm(rng, d, 3)
            check_povm(povm)
            assert povm_outcome_bound(r, s, povm) >= fidelity(r, s) - 1e-9

    def test_projective_reading(self):
        got = povm_outcome_bound(KET0, PLUS, BASIS)
        assert_allclose(got, math.sqrt(0.5), atol=1e-12)

    def test_check_povm_rejects_incomplete(self):
        with pytest.raises(ValueError, match="sum to the identity"):
            check_povm(np.stack([KET0 * 0.5, KET1]))

    def test_check_povm_rejects_negative_element(self):
        e = np.diag([1.5, 1.0]).astype(complex)
        f = np.diag([-0.5, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="not PSD"):
            check_povm(np.stack([e, f]))


class TestPureState:
    def test_norm_validation(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_dims(self, rng):
        v = haar_state(rng, 12)
        assert PureState(v).dims == (12,)
        assert PureState(v, [3, 4]).dims == (3, 4)
        assert PureState(v, (2, 3, 2)).tensor().shape == (2, 3, 2)
        for dims in ((3, 5), (2, 2, 2), (12, 0), (-3, -4), ()):
            with pytest.raises(ValueError, match="do not factor"):
                PureState(v, dims)


class TestPurificationMatrix:
    """conftest.purification_matrix, the canonical purification that
    test_sic's reference decoupling starts from."""

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


class TestMaxOverlapIsometry:
    def test_stacked_isometries_match_each_slice(self, rng):
        # a stack of sources, against one target or a stack of targets, gives
        # each slice's isometry and overlap bit for bit, from one SVD call; the
        # target is also taken as a transposed view, as sic's decoupling does
        m = purification_matrix(random_mixed(rng, 4), 6) @ haar_unitary(rng, 6)
        sources = np.stack([haar_state(rng, 12).reshape(4, 3) for _ in range(3)])
        for target in (m, np.ascontiguousarray(m.T).T, np.stack([m, m.conj(), -m])):
            u, overlaps = max_overlap_isometry(target, sources)
            assert u.shape == (3, 6, 3) and overlaps.shape == (3,)
            for i in range(3):
                ui, ov = max_overlap_isometry(target if target.ndim == 2 else target[i],
                                              sources[i])
                assert np.array_equal(u[i], ui) and overlaps[i] == ov
                assert abs(ov - fidelity(gram(target if target.ndim == 2 else target[i]),
                                         gram(sources[i]))) <= 1e-9


class TestEntropies:
    def test_diag_value(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        expect = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert_allclose(von_neumann_entropy(rho), expect, atol=1e-12)

    def test_pure_zero_maximal_full(self, rng):
        psi = haar_state(rng, 4)
        assert abs(von_neumann_entropy(np.outer(psi, psi.conj()))) <= 1e-9
        assert_allclose(von_neumann_entropy(np.eye(4) / 4), 2.0, atol=1e-12)

    def test_rejects_non_psd_and_non_hermitian(self):
        # each used to return a value: 0.0 for diag(1.5, -0.5), 0.1187 for the
        # non-Hermitian rho, also when rho's spectrum is passed in
        with pytest.raises(ValueError, match="not PSD"):
            von_neumann_entropy(np.diag([1.5, -0.5]))
        bad = np.array([[0.5, 0.4], [0.0, 0.5]])
        with pytest.raises(ValueError, match="not Hermitian"):
            relative_entropy(bad, np.eye(2) / 2)
        with pytest.raises(ValueError, match="not PSD"):
            relative_entropy(Solved(np.diag([1.5, -0.5]), np.array([-0.5, 1.5])),
                             np.eye(2) / 2)

    def test_spectrum_cutoff(self):
        assert_allclose(entropy_of_spectrum(np.array([1.0, 0.0, 1e-15])),
                        0.0, atol=1e-12)

    def test_mutual_information_bell(self):
        a = bell_state().amplitudes
        assert_allclose(mutual_information(np.outer(a, a.conj()), (2, 2), [0], [1]),
                        2.0, atol=1e-9)

    def test_mutual_information_product(self, rng):
        ra, rb = random_mixed(rng, 2), random_mixed(rng, 2)
        assert abs(mutual_information(np.kron(ra, rb), (2, 2), [0], [1])) <= 1e-9

    def test_mutual_information_non_adjacent_groups(self, rng):
        # registers (X, M, Y): a Bell pair on X, Y around a pure state on M
        # gives I(X:Y) = 2 and I(X:M) = 0; its mixture with noise is checked
        # against partial_trace_matrix, with groups given out of order
        bell = np.zeros((2, 2), dtype=complex)
        bell[0, 0] = bell[1, 1] = 1 / math.sqrt(2)
        psi = np.kron(bell.reshape(-1), haar_state(rng, 3)).reshape(2, 2, 3)
        psi = psi.transpose(0, 2, 1).reshape(-1)               # (X, M, Y)
        rho = np.outer(psi, psi.conj())
        noisy = 0.5 * rho + 0.5 * np.kron(np.kron(np.eye(2) / 2, random_mixed(rng, 3)),
                                            np.eye(2) / 2)
        want = (von_neumann_entropy(partial_trace_matrix(noisy, (2, 3, 2), [0]))
                + von_neumann_entropy(partial_trace_matrix(noisy, (2, 3, 2), [2]))
                - von_neumann_entropy(partial_trace_matrix(noisy, (2, 3, 2), [0, 2])))
        assert want > 0.1
        assert mutual_information(noisy, (2, 3, 2), [2], [0]) == pytest.approx(want, abs=1e-12)
        assert_allclose(mutual_information(rho, (2, 3, 2), [0], [2]), 2.0, atol=1e-9)
        assert abs(mutual_information(rho, (2, 3, 2), [0], [1])) <= 1e-9
        with pytest.raises(ValueError, match="overlap"):
            mutual_information(rho, (2, 3, 2), [0, 1], [1, 2])


class TestRelativeEntropy:
    def test_classical_value(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        sig = np.eye(2, dtype=complex) / 2
        expect = 1.0 + 0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)
        assert_allclose(relative_entropy(rho, sig), expect, atol=1e-12)

    def test_zero_iff_equal(self, rng):
        rho = floored(random_mixed(rng, 3), 1e-6)
        assert abs(relative_entropy(rho, rho)) <= 1e-9

    def test_support_violation_infinite(self):
        assert relative_entropy(KET0, KET1) == math.inf

    def test_nonnegative(self, rng):
        for _ in range(20):
            rho = random_mixed(rng, 3)
            sig = floored(random_mixed(rng, 3), 1e-8)
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
            sig = floored(random_mixed(rng, 4), 1e-8)
            assert min_relative_entropy(rho, sig) >= relative_entropy(rho, sig) - 1e-7


def _stack(rng, n, d):
    return np.stack([random_mixed(rng, d) for _ in range(n)])


class TestStacks:
    """Stacked calls act slice by slice: each slice equals the single call,
    and one bad slice fails the whole call as it would alone."""

    def test_slices_match_single_calls(self, rng):
        r, s = _stack(rng, 5, 4), floored(_stack(rng, 5, 4), 1e-8)
        povm = np.stack([np.stack(random_povm(rng, 4, 3)) for _ in range(5)])
        for func in (fidelity, relative_entropy, min_relative_entropy):
            got = func(r, s)
            assert got.shape == (5,)
            assert [func(r[i], s[i]) for i in range(5)] == got.tolist()
        got = von_neumann_entropy(r)
        assert [von_neumann_entropy(x) for x in r] == got.tolist()
        got = povm_outcome_bound(r, s, povm)
        assert [povm_outcome_bound(r[i], s[i], povm[i]) for i in range(5)] == got.tolist()
        stacked = floored(r, 1e-3)
        for i in range(5):
            assert np.array_equal(stacked[i], floored(r[i], 1e-3))

    def test_fidelity_from_shared_root(self, rng):
        # the root of rho is one factor of it, the one fidelity itself takes
        r, s = _stack(rng, 3, 3), _stack(rng, 3, 3)
        got = fidelity_from_factor(matrix_sqrt_psd(r), s)
        assert got.tolist() == fidelity(r, s).tolist()

    @pytest.mark.parametrize("d", range(2, 9))
    def test_fidelity_from_any_factor(self, rng, d):
        # Uhlmann: F(a a^dag, sigma) from the factor a, whatever its form
        psi = mixed_factors(np.stack([mixed_draw(rng, d) for _ in range(20)]))
        sigma = gram(mixed_factors(np.stack([mixed_draw(rng, d) for _ in range(20)])))
        want = fidelity(gram(psi), sigma)
        assert np.abs(fidelity_from_factor(psi, sigma) - want).max() <= 1e-12
        # a solved state's v sqrt(w), and a factor wider than the state
        s = floor_eigensystem(gram(psi), 1e-8)
        f = fidelity_from_factor(s.v * np.sqrt(s.w)[..., None, :], sigma)
        assert np.abs(f - fidelity(s.matrix, sigma)).max() <= 1e-12
        wide = np.concatenate([psi / math.sqrt(2), psi / math.sqrt(2)], axis=-1)
        assert np.abs(fidelity_from_factor(wide, sigma) - want).max() <= 1e-12

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

    def test_entropies_one_bad_rho_slice_raises(self, rng):
        r, s = _stack(rng, 3, 2), _stack(rng, 3, 2)
        r[1] = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match="not PSD"):
            von_neumann_entropy(r)
        with pytest.raises(ValueError, match="not PSD"):
            relative_entropy(r, s)
        r[1] = np.array([[0.5, 0.4], [0.0, 0.5]])
        with pytest.raises(ValueError, match="not Hermitian"):
            von_neumann_entropy(r)
        with pytest.raises(ValueError, match="not Hermitian"):
            relative_entropy(r, s)

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


def _unit(x):
    """Each matrix of a stack scaled to unit Frobenius norm."""
    return x / np.linalg.norm(x, axis=(-2, -1), keepdims=True)


def _factor_pairs(rng, d, n=20):
    """Stacks (a, b) of factor pairs at dimension d by kind: full-rank d x d
    factors, rank-1 d x 1 factors (pure states), and d x d factors whose
    states have orthogonal supports, the first d // 2 basis vectors and the
    rest."""
    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    k = d // 2
    a, b = np.zeros((2, n, d, d), dtype=complex)
    a[:, :k], b[:, k:] = gauss(n, k, d), gauss(n, d - k, d)
    return {"full_rank": (_unit(gauss(n, d, d)), _unit(gauss(n, d, d))),
            "rank_1": (_unit(gauss(n, d, 1)), _unit(gauss(n, d, 1))),
            "orthogonal": (_unit(a), _unit(b))}


class TestFidelityFromFactors:
    """F(a a^dag, b b^dag) from the two factors alone, with no state matrix."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_fidelity(self, rng, d):
        for kind, (a, b) in _factor_pairs(rng, d).items():
            got = fidelity_from_factors(a, b)
            assert np.abs(got - fidelity(gram(a), gram(b))).max() <= 1e-12, kind
            assert np.abs(got - fidelity_from_factors(b, a)).max() <= 1e-12, kind
            if kind == "rank_1":
                # F of two pure states is their overlap
                overlap = np.abs((a.conj() * b).sum(axis=(-2, -1)))
                assert np.abs(got - overlap).max() <= 1e-14
            if kind == "orthogonal":
                # b^dag a is exactly 0, so no rounding floor is needed
                assert not got.any()

    @pytest.mark.parametrize("d", range(2, 9))
    def test_slice_equals_batch_of_one(self, rng, d):
        # the per-trial replay of a check evaluates a batch of one
        for kind, (a, b) in _factor_pairs(rng, d).items():
            got = fidelity_from_factors(a, b)
            single = [fidelity_from_factors(a[i:i + 1], b[i:i + 1])[0] for i in range(len(a))]
            assert got.tobytes() == np.array(single).tobytes(), kind
            assert fidelity_from_factors(a[3], b[3]) == got[3]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_factor_raises(self, rng, bad):
        a, b = _factor_pairs(rng, 3)["full_rank"]
        a[4, 1, 2] = bad
        for args in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="non-finite"):
                fidelity_from_factors(*args)

    def test_factor_norm_off_by_more_than_tolerance_raises(self, rng):
        # |a|_F^2 is the trace of a a^dag; the trace tolerance is 1e-9
        a, b = _factor_pairs(rng, 4)["full_rank"]
        for scale2 in (1 + 3e-9, 1 - 3e-9, 0.5, 2.0):
            off = a.copy()
            off[7] *= math.sqrt(scale2)
            for args in ((off, b), (b, off)):
                with pytest.raises(ValueError, match="norm"):
                    fidelity_from_factors(*args)
        within = a.copy()
        within[7] *= math.sqrt(1 + 5e-10)
        assert np.abs(fidelity_from_factors(within, b) - fidelity_from_factors(a, b)).max() <= 1e-9


# every function that reads states, with its number of state arguments and
# the arguments that follow them
STATE_READERS = {
    "fidelity": (fidelity, 2, ()),
    "relative_entropy": (relative_entropy, 2, ()),
    "min_relative_entropy": (min_relative_entropy, 2, ()),
    "von_neumann_entropy": (von_neumann_entropy, 1, ()),
    "povm_outcome_bound": (povm_outcome_bound, 2, (BASIS,)),
}
HOSTILE = {"non_hermitian": (np.array([[0.5, 0.4], [0.0, 0.5]], dtype=complex), "not Hermitian"),
           "non_psd": (np.diag([1.5, -0.5]).astype(complex), "not PSD")}


@pytest.mark.parametrize("partner", [KET0, np.eye(2) / 2, None], ids=["ket0", "mixed", "itself"])
@pytest.mark.parametrize("solved", [False, True], ids=["ndarray", "Solved"])
@pytest.mark.parametrize("kind", sorted(HOSTILE))
@pytest.mark.parametrize("name, position", [(name, i) for name, (_, n, _) in STATE_READERS.items()
                                            for i in range(n)])
def test_hostile_state_raises(name, position, kind, solved, partner):
    # min_relative_entropy(diag(1.5, -0.5), I/2) was 1.585, relative_entropy(
    # diag(1, 0), diag(1.5, -0.5)) -0.585 and the basis bound of diag(1.5, -0.5)
    # against itself 1.5; a Solved state is checked when it is built, so
    # building it raises
    func, n_states, rest = STATE_READERS[name]
    bad, match = HOSTILE[kind]
    states = [bad if partner is None else partner] * n_states
    with pytest.raises(ValueError, match=match):
        states[position] = Solved(bad, *np.linalg.eigh(hermitianize(bad))) if solved else bad
        func(*states, *rest)


@pytest.mark.parametrize("make", [
    lambda: von_neumann_entropy(Solved(np.eye(2) / 2, np.array([np.nan, 0.5]))),
    lambda: von_neumann_entropy(Solved(np.eye(2) / 2, np.array([np.inf, 0.5]))),
    lambda: floor_eigensystem(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1e-8),
    lambda: Solved(np.full((2, 2), np.nan), np.array([np.nan, np.nan])),
], ids=["nan_spectrum", "inf_spectrum", "nan_floored", "nan_matrix"])
def test_non_finite_solved_raises(make):
    # nan compares false, so the Hermitian and PSD checks let these through:
    # the entropies read 0.5 and 0.0 and the floored state had spectrum [nan, nan]
    with pytest.raises(ValueError, match="non-finite"):
        make()
