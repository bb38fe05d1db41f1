import numpy as np
import pytest
from numpy.testing import assert_allclose

from entgames.config import BudgetError
from entgames.linalg import (
    as_matrix,
    hermitian_eig,
    hermitianize,
    kron,
    matrix_sqrt_psd,
    partial_trace,
    partial_trace_matrix,
    solve_psd,
    trace_norm,
)
from entgames.qinfo import mutual_information
from entgames.random_states import haar_state, random_mixed, rng_for


@pytest.fixture
def rng():
    return rng_for(1234)


# the two functions that take a state with its register dims, each reading
# the first register (and the second for mutual_information)
STATE_READERS = {
    "partial_trace": lambda rho, dims: partial_trace(rho, dims, [0]),
    "mutual_information": lambda rho, dims: mutual_information(rho, dims, [0], [1]),
}


@pytest.mark.parametrize("reader", STATE_READERS)
class TestStateChecks:
    """partial_trace and mutual_information check their state and its dims
    in one place, linalg._check_state."""

    def test_valid_state(self, rng, reader):
        rho = random_mixed(rng, 4)
        for state in (rho, solve_psd(rho)):
            out = STATE_READERS[reader](state, (2, 2))
            if reader == "partial_trace":
                assert out.shape == (2, 2)
                assert_allclose(np.trace(out), 1.0, atol=1e-12)
            else:
                assert out >= -1e-12

    def test_rejects_nonhermitian(self, rng, reader):
        m = random_mixed(rng, 4)
        m[0, 1] += 0.3
        with pytest.raises(ValueError, match="not Hermitian"):
            STATE_READERS[reader](m, (2, 2))

    def test_rejects_negative(self, reader):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="not PSD"):
            STATE_READERS[reader](m, (2, 2))

    @pytest.mark.parametrize("trace", [0.6, 1.2, 2.0])
    def test_rejects_bad_trace(self, reader, trace):
        with pytest.raises(ValueError, match="trace"):
            STATE_READERS[reader](np.eye(4, dtype=complex) * trace / 4, (2, 2))

    def test_dims(self, rng, reader):
        rho = random_mixed(rng, 6)
        STATE_READERS[reader](rho, [2, 3])
        STATE_READERS[reader](rho, (1, 6, 1))
        for dims in ((2, 2), (6, 0), (-2, -3), (12,), ()):
            with pytest.raises(ValueError, match="do not factor"):
                STATE_READERS[reader](rho, dims)


class TestHermitianEig:
    def test_reconstruction_residual(self, rng):
        # spec invariant: relative residual <= 1e-12 on random Hermitian input
        for d in (2, 3, 8, 16):
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = hermitianize(h)
            w, v = hermitian_eig(h)
            res = np.abs(v @ np.diag(w) @ v.conj().T - h).max()
            assert res <= 1e-12 * max(1.0, np.abs(h).max())
            assert (np.diff(w) >= -1e-12).all()
            assert_allclose(v.conj().T @ v, np.eye(d), atol=1e-12)

    def test_rejects_nonhermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            hermitian_eig(m)


class TestPartialTrace:
    def test_bell_reduction(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        red = partial_trace_matrix(rho, (2, 2), [0])
        assert_allclose(red, np.eye(2) / 2, atol=1e-12)

    def test_orders_commute(self, rng):
        # tracing {B} then {C} equals tracing {B, C} in one shot
        psi = haar_state(rng, 2 * 3 * 2)
        rho = np.outer(psi, psi.conj())
        ac = partial_trace(rho, (2, 3, 2), [2, 0])
        assert ac.shape == (4, 4)
        one = partial_trace(ac, (2, 2), [0])
        two = partial_trace(rho, (2, 3, 2), [0])
        assert two.shape == (2, 2)
        assert_allclose(one, two, atol=1e-12)

    def test_keep_everything(self, rng):
        rho = random_mixed(rng, 6)
        assert_allclose(partial_trace(rho, (2, 3), [0, 1]), rho, atol=1e-12)

    def test_matches_partial_trace_matrix(self, rng):
        rho = random_mixed(rng, 12)
        for keep in ([0], [1], [2], [0, 2], [1, 2]):
            assert np.array_equal(partial_trace(rho, (2, 3, 2), keep),
                                  partial_trace_matrix(rho, (2, 3, 2), keep))

    @pytest.mark.parametrize("keep, match", [
        ([], "at least one"), ([3], "outside"), ([-1], "outside"),
        ([0, 0], "repeated"), (["A"], None), ([0.0], None),
    ])
    def test_bad_positions(self, rng, keep, match):
        rho = random_mixed(rng, 12)
        with pytest.raises(ValueError if match else TypeError, match=match):
            partial_trace(rho, (2, 3, 2), keep)

    def test_trace_out_all_but_one(self, rng):
        rho = random_mixed(rng, 8)
        got = partial_trace_matrix(rho, (2, 2, 2), [1])
        assert_allclose(np.trace(got), 1.0, atol=1e-12)


class TestKron:
    def test_trace_multiplicative(self, rng):
        a = random_mixed(rng, 2) * 0.7
        b = random_mixed(rng, 3) * 1.3
        assert_allclose(np.trace(kron(a, b)),
                        np.trace(a) * np.trace(b), atol=1e-12)

    def test_associative(self, rng):
        a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
        assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)

    def test_dimension_budget(self):
        big = np.eye(1 << 11) / (1 << 11)
        with pytest.raises(BudgetError):
            kron(big, big)


class TestMatrixSqrt:
    def test_squares_back(self, rng):
        rho = random_mixed(rng, 5)
        s = matrix_sqrt_psd(rho)
        assert_allclose(s @ s, rho, atol=1e-10)
        assert np.linalg.eigvalsh(s).min() >= -1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            matrix_sqrt_psd(np.diag([1.0, -1.0]))


class TestTraceNorm:
    def test_unitary(self, rng):
        from entgames.random_states import haar_unitary
        for d in (2, 5, 8):
            u = haar_unitary(rng, d)
            assert_allclose(trace_norm(u), d, atol=1e-10)

    def test_diag(self):
        assert_allclose(trace_norm(np.diag([1.0, -2.0])), 3.0, atol=1e-12)

    def test_matches_svd_oracle(self, rng):
        # independent singular-value route
        for _ in range(50):
            d = int(rng.integers(2, 9))
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            assert abs(trace_norm(m) - np.linalg.svd(m, compute_uv=False).sum()) \
                <= 1e-10 * max(1.0, np.abs(m).max() * d)


class TestAsMatrix:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.inf, 0], [0, 1.0]]))

    def test_unwraps_matrix_attr(self, rng):
        s = solve_psd(random_mixed(rng, 3))
        assert as_matrix(s) is s.matrix


class TestStacks:
    """Stacked calls act slice by slice: each slice equals the single call,
    and one bad slice fails the whole call as it would alone."""

    def test_slices_match_single_calls(self, rng):
        rhos = np.stack([random_mixed(rng, 6) for _ in range(4)])
        w, v = hermitian_eig(rhos)
        roots = matrix_sqrt_psd(rhos)
        traced = partial_trace_matrix(rhos, (2, 3), [1])
        prods = kron(rhos[:, :2, :2], rhos[:, :3, :3])
        for i, rho in enumerate(rhos):
            wi, vi = hermitian_eig(rho)
            assert np.array_equal(w[i], wi) and np.array_equal(v[i], vi)
            assert np.array_equal(roots[i], matrix_sqrt_psd(rho))
            assert np.array_equal(traced[i], partial_trace_matrix(rho, (2, 3), [1]))
            assert np.array_equal(prods[i], np.kron(rho[:2, :2], rho[:3, :3]))

    def test_nested_leading_axes(self, rng):
        rhos = np.stack([random_mixed(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
        traced = partial_trace_matrix(rhos, (2, 2), [0])
        assert traced.shape == (2, 3, 2, 2)
        assert np.array_equal(traced[1, 2], partial_trace_matrix(rhos[1, 2], (2, 2), [0]))

    def test_one_non_hermitian_slice_raises(self, rng):
        hs = np.stack([random_mixed(rng, 2) for _ in range(3)])
        hs[1] = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(hs)

    def test_hermitian_slack_scales_per_slice(self):
        # a 1e-8 asymmetry is slack on a slice of norm 100, not on one of norm 1
        big = np.diag([100.0, 0.0]).astype(complex)
        big[0, 1] = 1e-8
        small = np.eye(2, dtype=complex)
        hermitian_eig(np.stack([big, small]))
        small[0, 1] = 1e-8
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(np.stack([big, small]))

    def test_one_indefinite_slice_raises(self, rng):
        a = np.stack([random_mixed(rng, 2), np.diag([1.0, -1.0])])
        with pytest.raises(ValueError, match="not PSD"):
            matrix_sqrt_psd(a)
