"""Fidelity, entropies, mutual information and POVM primitives.

All entropic quantities use base-2 logarithms (bits).  Two-state scalar
functions accept linalg.Solved states or raw ndarrays.  Registers are named
by position in a state's dims: mutual_information takes a state, its
register dims and two groups of positions, and checks them as
linalg.partial_trace does.

fidelity, relative_entropy, min_relative_entropy, von_neumann_entropy and
povm_outcome_bound also take stacks of states, shape (..., d, d), and then
return an array with one value per slice; every per-matrix validation applies
to each slice.  A single matrix gives a float.  Each state they read is
checked Hermitian and PSD; one passed as a linalg.Solved was checked when it
was built, so a caller solves and checks a state once for several quantities.
fidelity_from_factor takes F from any factor of rho, with no matrix root, and
fidelity_from_factors from a factor of each state, with no state matrix.
A POVM is a (..., n, d, d) stack of n elements.  max_overlap_isometry is
the polar step of the Uhlmann construction that sic.build_decoupling runs.
Tolerances are the fixed config.DEFAULT_TOLS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_TOLS
from .linalg import (
    _check_dims,
    _check_state,
    _reduce,
    _root_sum,
    as_stack,
    dagger,
    hermitianize,
    matrix_sqrt_psd,
    psd_eigvalsh,
    solve_psd,
)


def _value(x):
    """A float for a single result, the array itself for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _pair(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    """Two states, or two stacks of states, of one shape."""
    r, s = as_stack(rho), as_stack(sigma)
    if r.shape != s.shape:
        raise ValueError("states have different dimensions")
    return r, s


@dataclass(frozen=True)
class PureState:
    """Unit vector with its register dimensions, one register by default."""

    amplitudes: np.ndarray
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "dims", _check_dims(self.dims, a.size))
        if not np.all(np.isfinite(a)):
            raise ValueError("amplitudes have non-finite entries")
        if abs(np.linalg.norm(a) - 1.0) > DEFAULT_TOLS.norm:
            raise ValueError(f"state norm {np.linalg.norm(a):.6e} != 1 within tolerance")

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per register."""
        return self.amplitudes.reshape(self.dims)


def _outcome_distribution(elements: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities tr(E_i rho) = sum_jk (E_i)_jk rho_kj, shape
    (..., n), clipped at 0; no product E_i rho is formed."""
    p = (elements * rho.swapaxes(-1, -2)[..., None, :, :]).real.sum(axis=(-2, -1))
    return np.clip(p, 0.0, None)


# ---------------------------------------------------------------------------
# fidelity family


def fidelity(rho, sigma):
    """Root fidelity F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1, in [0, 1].

    Both states are checked Hermitian and PSD; rho's root is the factor
    fidelity_from_factor takes.
    """
    _, s = _pair(rho, sigma)
    psd_eigvalsh(sigma)
    return fidelity_from_factor(matrix_sqrt_psd(rho), s)


def fidelity_from_factor(a: np.ndarray, sigma: np.ndarray):
    """F(rho, sigma) = sum of sqrt(eigenvalues of a^dag sigma a) for any
    factor a of rho = a a^dag, shape (..., d, k).

    By Uhlmann's theorem F = ||a^dag b||_1 for factors a of rho and b of
    sigma, and a^dag sigma a = (b^dag a)^dag (b^dag a); the root sqrt(rho)
    is one such factor, a state built as psi psi^dag has psi, and a solved
    state v w v^dag has v sqrt(w).  The caller checks rho and sigma PSD.
    Eigenvalues under the product's rounding floor count as 0 (see
    linalg._root_sum); the result goes through clip_fidelity.
    """
    w = np.linalg.eigvalsh(hermitianize(dagger(a) @ sigma @ a))
    return clip_fidelity(_root_sum(w))


def _check_factor(a: np.ndarray) -> None:
    """Raise unless each factor a of a stack is finite with a a^dag of unit
    trace: |a|_F^2 within the trace tolerance of 1.

    The one pass over |a|^2, on a's real and imaginary parts as floats, is
    also the finiteness scan: a non-finite entry makes its slice's sum inf or
    nan, which fails the comparison.
    """
    f = np.ascontiguousarray(a, dtype=complex).view(float)
    norm2 = np.einsum("...ij,...ij->...", f, f)
    bad = ~(np.abs(norm2 - 1.0) <= DEFAULT_TOLS.trace)
    if bad.any():
        if not np.isfinite(norm2).all():
            raise ValueError("factor has non-finite entries")
        raise ValueError(f"factor norm^2 {norm2[bad].flat[0]:.6e} != 1 within tolerance")


def fidelity_from_factors(a: np.ndarray, b: np.ndarray):
    """F(a a^dag, b b^dag) = ||b^dag a||_1, the sum of sqrt(eigenvalues of
    m^dag m) for m = b^dag a, for stacks of factors (..., d, k) and (..., d, l).

    A state read only through a factor is PSD by construction, so no state
    is formed or solved: each factor is checked finite with unit norm
    (_check_factor).  The floor and clip are fidelity_from_factor's.
    """
    _check_factor(a)
    _check_factor(b)
    m = dagger(b) @ a
    # eigvalsh reads one triangle, so m^dag m, Hermitian up to rounding, is
    # not symmetrized first
    return clip_fidelity(_root_sum(np.linalg.eigvalsh(dagger(m) @ m)))


def clip_fidelity(f):
    """Fidelities f clipped to [0, 1]; raises if any exceeds 1 + 1e-7."""
    if np.any(f > 1.0 + 1e-7):
        raise ValueError(f"fidelity {np.max(f)} exceeds 1 beyond numerical slack")
    return _value(np.clip(f, 0.0, 1.0))


def povm_outcome_bound(rho, sigma, povm):
    """Classical-outcome fidelity sum_i sqrt(p_i q_i); upper-bounds F(rho, sigma).

    Both states are checked Hermitian and PSD.  povm is a stack of elements
    (..., n, d, d), PSD and summing to I (not checked here), one POVM per
    slice of rho and sigma.
    """
    r, s = _pair(rho, sigma)
    psd_eigvalsh(rho)
    psd_eigvalsh(sigma)
    p = _outcome_distribution(povm, r)
    q = _outcome_distribution(povm, s)
    return _value(np.sqrt(p * q).sum(axis=-1))


# ---------------------------------------------------------------------------
# Uhlmann isometries


def max_overlap_isometry(target: np.ndarray,
                         source: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """Isometry U on the ancilla maximizing Re <target| (I (x) U) |source>.

    target/source are (d_system x d_ancilla) amplitude matrices, or stacks of
    them that broadcast, with one isometry and overlap per slice from one SVD
    call.  The achieved overlap equals F of the two reduced states on the
    system side.  Requires target ancilla dimension >= source ancilla dimension.
    """
    d_t, d_s = target.shape[-1], source.shape[-1]
    if d_t < d_s:
        raise ValueError("target ancilla is smaller than source ancilla")
    b = source.swapaxes(-1, -2) @ target.conj()         # (..., d_s, d_t)
    ub, sv, vbh = np.linalg.svd(b, full_matrices=False)
    u = dagger(vbh) @ dagger(ub)                        # (..., d_t, d_s) isometries
    return u, _value(sv.sum(axis=-1))


# ---------------------------------------------------------------------------
# entropies


def entropy_of_spectrum(w: np.ndarray):
    """Entropy in bits of a spectrum (..., d); eigenvalues below the zero cutoff count 0."""
    keep = w > DEFAULT_TOLS.zero_eig
    h = -np.where(keep, w * np.log2(np.where(keep, w, 1.0)), 0.0).sum(axis=-1)
    return _value(np.where(h > 0.0, h, 0.0))


def von_neumann_entropy(rho):
    """S(rho) in bits; eigenvalues below the zero cutoff contribute 0."""
    return entropy_of_spectrum(psd_eigvalsh(rho))


def mutual_information(rho, dims: Sequence[int], x: Iterable[int],
                       y: Iterable[int]) -> float:
    """I(X:Y) = S(X) + S(Y) - S(XY) for the registers at positions x and y
    of the state rho on registers dims, both checked as linalg.partial_trace
    checks them."""
    m, dims = _check_state(rho, dims)
    x, y = list(x), list(y)
    if set(x) & set(y):
        raise ValueError("the two register groups overlap")
    sx, sy, sxy = (von_neumann_entropy(_reduce(m, dims, keep)) for keep in (x, y, x + y))
    return sx + sy - sxy


def _sigma_basis(r: np.ndarray, sigma):
    """sigma's eigensystem, checked Hermitian and PSD, rho's diagonal in that
    basis, and whether rho leaves sigma's support: its mass on eigenvalues
    <= support exceeds support.
    """
    s = solve_psd(sigma)
    ws, vs = s.w, s.v
    diag = np.einsum("...ik,...ki->...i", dagger(vs) @ r, vs).real
    leak = np.where(ws > DEFAULT_TOLS.support, 0.0, np.clip(diag, 0.0, None)).sum(axis=-1)
    return ws, vs, diag, leak > DEFAULT_TOLS.support


def relative_entropy(rho, sigma):
    """S(rho || sigma) in bits; +inf iff rho's support leaves sigma's support.

    Support is decided by the eigenvalue cutoff DEFAULT_TOLS.support (1e-10).
    """
    r, _ = _pair(rho, sigma)
    ws, _, diag, leaves = _sigma_basis(r, sigma)
    tr_rho_log_rho = -entropy_of_spectrum(psd_eigvalsh(rho))
    sup = ws > DEFAULT_TOLS.support
    tr_rho_log_sigma = np.where(sup, diag * np.log2(np.where(sup, ws, 1.0)), 0.0).sum(axis=-1)
    return _value(np.where(leaves, np.inf, tr_rho_log_rho - tr_rho_log_sigma))


def min_relative_entropy(rho, sigma):
    """S_inf(rho || sigma) = log2 of the least k with rho <= 2^k sigma.

    Computed as log2 lambda_max(sigma^{-1/2} rho sigma^{-1/2}) on sigma's
    support; +inf under the same support rule as relative_entropy.
    """
    r, _ = _pair(rho, sigma)
    psd_eigvalsh(rho)
    ws, vs, _, leaves = _sigma_basis(r, sigma)
    sup = (ws > DEFAULT_TOLS.support)[..., None, :]
    q = np.where(sup, vs / np.sqrt(np.where(sup, ws[..., None, :], 1.0)), 0.0) @ dagger(vs)
    lam = np.linalg.eigvalsh(hermitianize(q @ r @ q))[..., -1]
    return _value(np.where(leaves, np.inf, np.log2(np.maximum(lam, DEFAULT_TOLS.zero_eig))))

