"""Fidelity, entropies, purification and POVM primitives.

All entropic quantities use base-2 logarithms (bits).  Two-state scalar
functions accept DensityOperators, linalg.Solved states or raw ndarrays.
Registers are named by position in a state's dims: mutual_information takes
a DensityOperator and two groups of positions, and uhlmann_partner the
positions of phi's system registers.

fidelity, relative_entropy, min_relative_entropy, von_neumann_entropy and
povm_outcome_bound also take stacks of states, shape (..., d, d), and then
return an array with one value per slice; every per-matrix validation applies
to each slice.  A single matrix gives a float.  Each state they read is
checked Hermitian and PSD; one passed as a linalg.Solved was checked when it
was built, so a caller solves and checks a state once for several quantities.
fidelity_from_factor takes F from any factor of rho, with no matrix root, and
fidelity_from_factors from a factor of each state, with no state matrix.
A POVM is a (..., n, d, d) stack of n elements.
purification_matrix is the one purification, used by purify and
uhlmann_partner.  Tolerances are the fixed config.DEFAULT_TOLS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import DEFAULT_TOLS
from .linalg import (
    DensityOperator,
    _check_dims,
    _check_positions,
    _root_sum,
    as_matrix,
    as_stack,
    dagger,
    hermitianize,
    matrix_sqrt_psd,
    partial_trace,
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

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per register."""
        return self.amplitudes.reshape(self.dims)

    def density(self) -> DensityOperator:
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()),
                               self.dims, validate=False)

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


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
# purification and Uhlmann partners


def purification_matrix(rho, anc_dim: int) -> np.ndarray:
    """(d x anc_dim) amplitude matrix m with m m^dag = rho, eigenvalues descending.

    Column j is sqrt(w_j) v_j for rho's j-th largest eigenpair; columns past
    d are zero, so the width is always anc_dim.  rho is checked Hermitian and
    PSD; eigenvalue mass beyond the first anc_dim above 1e-9 raises.
    """
    rho = as_matrix(rho)
    s = solve_psd(rho)
    order = np.argsort(s.w)[::-1]
    w, v = np.clip(s.w[order], 0.0, None), s.v[:, order]
    k = min(anc_dim, rho.shape[0])
    if w[k:].sum() > 1e-9:
        raise ValueError(f"ancilla (dim {anc_dim}) too small to purify: trailing eigenvalue mass")
    m = np.zeros((rho.shape[0], anc_dim), dtype=complex)
    m[:, :k] = v[:, :k] * np.sqrt(w[:k])
    return m


def purify(rho: DensityOperator) -> PureState:
    """Canonical purification with ancilla dimension equal to the system dimension.

    Eigenvalues are taken in descending order, so a pure input purifies to
    |anc_0> tensor |psi>.  The ancilla is register 0, followed by rho's
    registers in their order.
    """
    d = rho.dim
    amps = purification_matrix(rho.matrix, d).T.reshape(-1)    # index (anc, sys)
    return PureState(amps, (d,) + rho.dims)


def _split_matrix(psi: PureState, system: Iterable[int]) -> tuple[np.ndarray, list[int], list[int]]:
    """Amplitudes as a (d_system x d_ancilla) matrix; returns (M, sys_pos, anc_pos).

    system holds register positions of psi; it must be non-empty and leave
    at least one register out.
    """
    sys_pos = _check_positions(system, len(psi.dims))
    anc_pos = [p for p in range(len(psi.dims)) if p not in sys_pos]
    if not sys_pos or not anc_pos:
        raise ValueError("a cut needs registers on both sides")
    t = psi.tensor().transpose(sys_pos + anc_pos)
    d_sys = math.prod(psi.dims[p] for p in sys_pos)
    return t.reshape(d_sys, -1), sys_pos, anc_pos


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


def uhlmann_partner(rho, sigma, phi: PureState, system: Iterable[int]) -> PureState:
    """Purification of sigma, on phi's space, closest to the purification phi of rho.

    system holds the positions of phi's system registers, the ones rho and
    sigma live on, in phi's order; all other registers of phi form the
    ancilla.  The construction is the polar / SVD one, so <phi|psi> is real
    nonnegative and equals F(rho, sigma) up to numerics.  sigma's
    purification follows purification_matrix's rules.
    """
    r, s = _pair(rho, sigma)
    m_phi, sys_pos, anc_pos = _split_matrix(phi, system)
    if r.shape != (m_phi.shape[0],) * 2:
        raise ValueError("rho's dimension differs from that of phi's system registers")
    if np.abs(m_phi @ m_phi.conj().T - r).max() > 1e-8:
        raise ValueError("phi does not purify rho within 1e-8")
    m_src = purification_matrix(s, m_phi.shape[1])     # d_sys x d_anc, zero-padded
    u, _ = max_overlap_isometry(m_phi, m_src)
    m_psi = m_src @ u.T                   # d_sys x d_anc

    t = m_psi.reshape([phi.dims[p] for p in sys_pos + anc_pos])
    amps = t.transpose(np.argsort(sys_pos + anc_pos)).reshape(-1)
    return PureState(amps, phi.dims)


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


def _reduced_entropy(rho: DensityOperator, positions: Iterable[int]) -> float:
    return von_neumann_entropy(partial_trace(rho, positions).matrix)


def mutual_information(rho: DensityOperator, x: Iterable[int], y: Iterable[int]) -> float:
    """I(X:Y) = S(X) + S(Y) - S(XY) for the registers at positions x and y."""
    x, y = list(x), list(y)
    if set(x) & set(y):
        raise ValueError("the two register groups overlap")
    return (_reduced_entropy(rho, x) + _reduced_entropy(rho, y)
            - _reduced_entropy(rho, x + y))


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

