"""Fidelity, entropies, purification, POVM and Schmidt primitives.

All entropic quantities use base-2 logarithms (bits).  Two-state scalar
functions accept either DensityOperator or raw ndarrays; register-aware
functions (mutual information, purification, Uhlmann partners, Schmidt
decomposition) need the layout and take DensityOperator / PureState.

fidelity, relative_entropy, min_relative_entropy, von_neumann_entropy and
povm_outcome_bound also take stacks of states, shape (..., d, d), and then
return an array with one value per slice; every per-matrix validation applies
to each slice.  A single matrix gives a float.  fidelity, relative_entropy
and min_relative_entropy take eigensystems the caller already solved, so that
a state's spectrum is solved once across several quantities; the validations
run on the given spectra.
purification_matrix is the one purification, used by purify, uhlmann_partner
and sic's decoupling.  Tolerances are the fixed config.DEFAULT_TOLS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .config import DEFAULT_TOLS
from .linalg import (
    DensityOperator,
    RegisterLayout,
    _check_psd_spectrum,
    _root_sum,
    as_matrix,
    as_stack,
    dagger,
    hermitian_eig,
    hermitianize,
    matrix_sqrt_psd,
    partial_trace,
    psd_eigvalsh,
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
    """Unit vector with a register layout."""

    amplitudes: np.ndarray
    layout: RegisterLayout
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", a)
        if a.size != self.layout.dim:
            raise ValueError(f"amplitude length {a.size} != layout dim {self.layout.dim}")
        if not np.all(np.isfinite(a)):
            raise ValueError("amplitudes have non-finite entries")
        if self.validate and abs(np.linalg.norm(a) - 1.0) > DEFAULT_TOLS.norm:
            raise ValueError(f"state norm {np.linalg.norm(a):.6e} != 1 within tolerance")

    @classmethod
    def from_vector(cls, v, dims=None, labels=None, **kw) -> "PureState":
        v = np.asarray(v, dtype=complex).reshape(-1)
        if dims is None:
            dims = (v.size,)
        if labels is None:
            labels = tuple(f"R{i}" for i in range(len(dims)))
        return cls(v, RegisterLayout(tuple(dims), tuple(labels)), **kw)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per register."""
        return self.amplitudes.reshape(self.layout.dims)

    def density(self) -> DensityOperator:
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()),
                               self.layout, validate=False)

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class Povm:
    """POVM: Hermitian PSD elements summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        els = tuple(as_matrix(e) for e in self.elements)
        object.__setattr__(self, "elements", els)
        if not els:
            raise ValueError("POVM needs at least one element")
        if any(e.shape != els[0].shape for e in els):
            raise ValueError("POVM elements have mixed dimensions")
        check_povm(np.stack(els))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def outcome_distribution(self, rho) -> np.ndarray:
        return _outcome_distribution(np.stack(self.elements), as_matrix(rho))


def check_povm(elements: np.ndarray) -> None:
    """Raise unless each (..., n, d, d) stack of n elements is a POVM."""
    elements = as_stack(elements)
    psd_eigvalsh(elements)
    total = elements.sum(axis=-3)
    if np.abs(total - np.eye(total.shape[-1])).max() > DEFAULT_TOLS.proj:
        raise ValueError("POVM elements do not sum to the identity within tolerance")


def _outcome_distribution(elements: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities tr(E_i rho), shape (..., n), clipped at 0."""
    p = np.trace(elements @ rho[..., None, :, :], axis1=-2, axis2=-1).real
    return np.clip(p, 0.0, None)


# ---------------------------------------------------------------------------
# fidelity family


def fidelity(rho, sigma, rho_eig=None, sigma_eig=None):
    """Root fidelity F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1, in [0, 1].

    Both states are checked Hermitian and PSD; see fidelity_from_root.
    rho_eig and sigma_eig are the states' eigensystems (w ascending, v) if
    the caller already solved them; the checks then run on those.
    """
    r, s = _pair(rho, sigma)
    psd_eigvalsh(s, None if sigma_eig is None else sigma_eig[0])
    return fidelity_from_root(matrix_sqrt_psd(r, rho_eig), s)


def fidelity_from_root(root_rho: np.ndarray, sigma: np.ndarray):
    """F(rho, sigma) = sum of sqrt(eigenvalues of sqrt(rho) sigma sqrt(rho)).

    root_rho is matrix_sqrt_psd(rho); sigma must already be checked PSD.  A
    caller that needs several fidelities against one rho computes its root
    once.  Eigenvalues under the product's rounding floor count as 0 (see
    linalg._root_sum); the result goes through clip_fidelity.
    """
    w = np.linalg.eigvalsh(hermitianize(root_rho @ sigma @ root_rho))
    return clip_fidelity(_root_sum(w))


def clip_fidelity(f):
    """Fidelities f clipped to [0, 1]; raises if any exceeds 1 + 1e-7."""
    if np.any(f > 1.0 + 1e-7):
        raise ValueError(f"fidelity {np.max(f)} exceeds 1 beyond numerical slack")
    return _value(np.clip(f, 0.0, 1.0))


def fbar(rho, sigma) -> float:
    """Fidelity defect 1 - F(rho, sigma)."""
    return 1.0 - fidelity(rho, sigma)


def angle(rho, sigma) -> float:
    """Angle distance arccos F(rho, sigma), a metric in [0, pi/2]."""
    return float(np.arccos(fidelity(rho, sigma)))


def povm_outcome_bound(rho, sigma, povm):
    """Classical-outcome fidelity sum_i sqrt(p_i q_i); upper-bounds F(rho, sigma).

    povm is a Povm, or a stack of elements (..., n, d, d) already passed
    through check_povm, one POVM per slice of rho and sigma.
    """
    els = np.stack(povm.elements) if isinstance(povm, Povm) else povm
    p = _outcome_distribution(els, as_stack(rho))
    q = _outcome_distribution(els, as_stack(sigma))
    return _value(np.sqrt(p * q).sum(axis=-1))


# ---------------------------------------------------------------------------
# purification and Uhlmann partners


def _unique_label(base: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    lb = base
    while lb in taken:
        lb += "_"
    return lb


def purification_matrix(rho, anc_dim: int) -> np.ndarray:
    """(d x anc_dim) amplitude matrix m with m m^dag = rho, eigenvalues descending.

    Column j is sqrt(w_j) v_j for rho's j-th largest eigenpair; columns past
    d are zero, so the width is always anc_dim.  rho is checked Hermitian and
    PSD; eigenvalue mass beyond the first anc_dim above 1e-9 raises.
    """
    rho = as_matrix(rho)
    w, v = hermitian_eig(rho)
    _check_psd_spectrum(w)
    order = np.argsort(w)[::-1]
    w, v = np.clip(w[order], 0.0, None), v[:, order]
    k = min(anc_dim, rho.shape[0])
    if w[k:].sum() > 1e-9:
        raise ValueError(f"ancilla (dim {anc_dim}) too small to purify: trailing eigenvalue mass")
    m = np.zeros((rho.shape[0], anc_dim), dtype=complex)
    m[:, :k] = v[:, :k] * np.sqrt(w[:k])
    return m


def purify(rho: DensityOperator, ancilla_label: str | None = None) -> PureState:
    """Canonical purification with ancilla dimension equal to the system dimension.

    Eigenvalues are taken in descending order, so a pure input purifies to
    |anc_0> tensor |psi>.  The ancilla register comes first in the layout.
    """
    d = rho.dim
    amps = purification_matrix(rho.matrix, d).T.reshape(-1)    # index (anc, sys)
    lb = _unique_label(ancilla_label or "anc", rho.layout.labels)
    lay = RegisterLayout((d,) + rho.layout.dims, (lb,) + rho.layout.labels)
    return PureState(amps, lay, validate=False)


def _split_matrix(psi: PureState, system: Iterable[str]) -> tuple[np.ndarray, list[int], list[int]]:
    """Amplitudes as a (d_system x d_ancilla) matrix; returns (M, sys_pos, anc_pos)."""
    lay = psi.layout
    sys_pos = lay.positions(system)
    anc_pos = [p for p in range(lay.nfactors) if p not in sys_pos]
    if not anc_pos:
        raise ValueError("state has no registers outside the chosen ones")
    t = psi.tensor().transpose(sys_pos + anc_pos)
    d_sys = math.prod(lay.dims[p] for p in sys_pos)
    return t.reshape(d_sys, -1), sys_pos, anc_pos


def max_overlap_isometry(target: np.ndarray, source: np.ndarray) -> tuple[np.ndarray, float]:
    """Isometry U on the ancilla maximizing Re <target| (I (x) U) |source>.

    target/source are (d_system x d_ancilla) amplitude matrices.  The achieved
    overlap equals F of the two reduced states on the system side.  Requires
    target ancilla dimension >= source ancilla dimension.
    """
    d_t, d_s = target.shape[1], source.shape[1]
    if d_t < d_s:
        raise ValueError("target ancilla is smaller than source ancilla")
    b = source.T @ target.conj()          # d_s x d_t
    ub, sv, vbh = np.linalg.svd(b, full_matrices=False)
    u = vbh.conj().T @ ub.conj().T        # d_t x d_s isometry
    return u, float(sv.sum())


def uhlmann_partner(rho: DensityOperator, sigma, phi: PureState) -> PureState:
    """Purification of sigma, on phi's space, closest to the purification phi of rho.

    The system registers are identified by rho's layout labels inside phi; all
    other registers of phi form the ancilla.  The construction is the polar /
    SVD one, so <phi|psi> is real nonnegative and equals F(rho, sigma) up to
    numerics.  sigma's purification follows purification_matrix's rules.
    """
    s = as_matrix(sigma)
    if s.shape[0] != rho.dim:
        raise ValueError("sigma dimension differs from rho")
    m_phi, sys_pos, anc_pos = _split_matrix(phi, rho.layout.labels)
    if np.abs(m_phi @ m_phi.conj().T - rho.matrix).max() > 1e-8:
        raise ValueError("phi does not purify rho within 1e-8")
    m_src = purification_matrix(s, m_phi.shape[1])     # d_sys x d_anc, zero-padded
    u, _ = max_overlap_isometry(m_phi, m_src)
    m_psi = m_src @ u.T                   # d_sys x d_anc

    lay = phi.layout
    shape = [lay.dims[p] for p in sys_pos] + [lay.dims[p] for p in anc_pos]
    t = m_psi.reshape(shape)
    inv = np.argsort(sys_pos + anc_pos)
    amps = t.transpose(inv).reshape(-1)
    return PureState(amps, lay, validate=False)


# ---------------------------------------------------------------------------
# entropies


def entropy_of_spectrum(w: np.ndarray):
    """Entropy in bits of a spectrum (..., d); eigenvalues below the zero cutoff count 0."""
    keep = w > DEFAULT_TOLS.zero_eig
    h = -np.where(keep, w * np.log2(np.where(keep, w, 1.0)), 0.0).sum(axis=-1)
    return _value(np.where(h > 0.0, h, 0.0))


def von_neumann_entropy(rho):
    """S(rho) in bits; eigenvalues below the zero cutoff contribute 0."""
    w = np.linalg.eigvalsh(hermitianize(as_stack(rho)))
    return entropy_of_spectrum(w)


def _reduced_entropy(rho: DensityOperator, labels: Iterable[str]) -> float:
    return von_neumann_entropy(partial_trace(rho, labels).matrix)


def mutual_information(rho: DensityOperator, x: Iterable[str], y: Iterable[str]) -> float:
    """I(X:Y) = S(X) + S(Y) - S(XY)."""
    x, y = list(x), list(y)
    if set(x) & set(y):
        raise ValueError("the two register groups overlap")
    return (_reduced_entropy(rho, x) + _reduced_entropy(rho, y)
            - _reduced_entropy(rho, x + y))


def _sigma_basis(r: np.ndarray, s: np.ndarray, known=None):
    """sigma's eigensystem (solved unless known), rho's diagonal in that basis,
    and whether rho leaves sigma's support: its mass on eigenvalues <= support
    exceeds support.
    """
    ws, vs = hermitian_eig(s, known)
    diag = np.einsum("...ik,...ki->...i", dagger(vs) @ r, vs).real
    leak = np.where(ws > DEFAULT_TOLS.support, 0.0, np.clip(diag, 0.0, None)).sum(axis=-1)
    return ws, vs, diag, leak > DEFAULT_TOLS.support


def relative_entropy(rho, sigma, sigma_eig=None, rho_spectrum=None):
    """S(rho || sigma) in bits; +inf iff rho's support leaves sigma's support.

    Support is decided by the eigenvalue cutoff DEFAULT_TOLS.support (1e-10).
    sigma_eig (sigma's eigensystem) and rho_spectrum (rho's eigenvalues), if
    the caller already has them, are used instead of solving again.
    """
    r, s = _pair(rho, sigma)
    ws, _, diag, leaves = _sigma_basis(r, s, sigma_eig)
    wr = np.linalg.eigvalsh(hermitianize(r)) if rho_spectrum is None else rho_spectrum
    tr_rho_log_rho = -entropy_of_spectrum(wr)
    sup = ws > DEFAULT_TOLS.support
    tr_rho_log_sigma = np.where(sup, diag * np.log2(np.where(sup, ws, 1.0)), 0.0).sum(axis=-1)
    return _value(np.where(leaves, np.inf, tr_rho_log_rho - tr_rho_log_sigma))


def min_relative_entropy(rho, sigma, sigma_eig=None):
    """S_inf(rho || sigma) = log2 of the least k with rho <= 2^k sigma.

    Computed as log2 lambda_max(sigma^{-1/2} rho sigma^{-1/2}) on sigma's
    support; +inf under the same support rule as relative_entropy, which
    also takes sigma_eig.
    """
    r, s = _pair(rho, sigma)
    ws, vs, _, leaves = _sigma_basis(r, s, sigma_eig)
    sup = (ws > DEFAULT_TOLS.support)[..., None, :]
    q = np.where(sup, vs / np.sqrt(np.where(sup, ws[..., None, :], 1.0)), 0.0) @ dagger(vs)
    lam = np.linalg.eigvalsh(hermitianize(q @ r @ q))[..., -1]
    return _value(np.where(leaves, np.inf, np.log2(np.maximum(lam, DEFAULT_TOLS.zero_eig))))


# ---------------------------------------------------------------------------
# Schmidt decomposition


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt data across a bipartition: descending coefficients and bases.

    left/right basis vectors are the columns; they live on the (cut, rest)
    register ordering, each side's factors in original layout order.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    left_labels: tuple[str, ...]
    right_labels: tuple[str, ...]

    def reconstruct(self) -> np.ndarray:
        """Amplitudes on the (left, right) ordering."""
        return (self.left_vectors * self.coefficients) @ self.right_vectors.T


def schmidt_decompose(psi: PureState, cut: Iterable[str]) -> SchmidtDecomposition:
    """Schmidt decomposition across the bipartition (cut registers, rest)."""
    lay = psi.layout
    m, cut_pos, rest_pos = _split_matrix(psi, cut)
    u, sv, vh = np.linalg.svd(m, full_matrices=False)
    return SchmidtDecomposition(
        coefficients=sv,
        left_vectors=u,
        right_vectors=vh.T,
        left_labels=tuple(lay.labels[p] for p in cut_pos),
        right_labels=tuple(lay.labels[p] for p in rest_pos),
    )
