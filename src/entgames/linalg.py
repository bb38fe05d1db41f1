"""Dense complex linear algebra on register-structured operators.

Matrices are plain 2-d complex ndarrays; tensor-factor structure is carried
separately by RegisterLayout, whose factor order is authoritative.  Nothing
here reorders registers implicitly: kron takes its factors left-to-right
and partial_trace keeps the surviving factors in their original order.

hermitian_eig, psd_eigvalsh, matrix_sqrt_psd, partial_trace_matrix and kron
also take stacks of shape (..., d, d) and act on each slice, validating each
slice as they would a single matrix; a single matrix is the unbatched case.
psd_eigvalsh is the one Hermitian-and-PSD check, which DensityOperator and
qinfo.check_povm build on; tolerances are the fixed config.DEFAULT_TOLS.
hermitian_eig, psd_eigvalsh and matrix_sqrt_psd take an eigensystem the
caller already solved as known, and then run their checks on it instead of
solving again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_TOLS, MAX_KRON_DIM, BudgetError


def as_stack(a) -> np.ndarray:
    """Coerce a matrix or a stack of matrices, shape (..., d, d), to complex."""
    m = getattr(a, "matrix", a)
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def as_matrix(a) -> np.ndarray:
    """Coerce a matrix-like (ndarray or DensityOperator) to a complex ndarray."""
    m = as_stack(a)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def hermitianize(m: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (m + m^dag)/2, slice by slice."""
    return 0.5 * (m + dagger(m))


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered tensor-factor structure: dimensions plus unique labels."""

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.dims) != len(self.labels):
            raise ValueError("dims and labels must have equal length")
        if not self.dims:
            raise ValueError("layout needs at least one factor")
        if any(d < 1 for d in self.dims):
            raise ValueError("factor dimensions must be >= 1")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate register labels: {self.labels}")

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    def position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown register label {label!r}; have {self.labels}") from None

    def positions(self, labels: Iterable[str]) -> list[int]:
        """Positions of the given labels, sorted into layout order."""
        pos = sorted(self.position(lb) for lb in labels)
        if len(pos) != len(set(pos)):
            raise ValueError("repeated labels in selection")
        return pos

    def keep(self, labels: Iterable[str]) -> "RegisterLayout":
        """Sub-layout of the given labels, in original factor order."""
        pos = self.positions(labels)
        return RegisterLayout(tuple(self.dims[p] for p in pos), tuple(self.labels[p] for p in pos))


@dataclass(frozen=True)
class DensityOperator:
    """Validated density matrix together with its register layout.

    Construction checks Hermiticity, positivity and unit trace against
    DEFAULT_TOLS; pass validate=False only for operators produced by
    operations that preserve validity (internal fast path).
    """

    matrix: np.ndarray
    layout: RegisterLayout
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        m = as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.shape[0] != self.layout.dim:
            raise ValueError(f"matrix dim {m.shape[0]} != layout dim {self.layout.dim}")
        if self.validate:
            psd_eigvalsh(m)
            if abs(m.trace() - 1.0) > DEFAULT_TOLS.trace:
                raise ValueError(f"density matrix trace {m.trace():.3e} != 1 within tolerance")

    @classmethod
    def from_matrix(cls, m, dims: Sequence[int] | None = None,
                    labels: Sequence[str] | None = None, **kw) -> "DensityOperator":
        m = as_matrix(m)
        if dims is None:
            dims = (m.shape[0],)
        if labels is None:
            labels = tuple(f"R{i}" for i in range(len(dims)))
        return cls(m, RegisterLayout(tuple(dims), tuple(labels)), **kw)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def kron(a, b) -> np.ndarray:
    """Kronecker product with a dimension guard; layout bookkeeping is the caller's.

    Stacks (..., m, m) and (..., n, n) give the product of each pair of slices.
    """
    a, b = as_stack(a), as_stack(b)
    m, n = a.shape[-1], b.shape[-1]
    if m * n > MAX_KRON_DIM:
        raise BudgetError(f"kron result dimension {m * n} exceeds MAX_KRON_DIM")
    t = a[..., :, None, :, None] * b[..., None, :, None, :]
    return t.reshape(t.shape[:-4] + (m * n, m * n))


def _check_hermitian(h: np.ndarray) -> None:
    """Raise unless every slice is Hermitian within herm * max(1, |h|)."""
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))
    if (np.abs(h - dagger(h)).max(axis=(-2, -1)) > DEFAULT_TOLS.herm * scale).any():
        raise ValueError("matrix is not Hermitian within tolerance")


def _check_psd_spectrum(w: np.ndarray) -> None:
    """Raise unless every ascending spectrum in w is above -psd."""
    low = w[..., 0].min()
    if low < -DEFAULT_TOLS.psd:
        raise ValueError(f"matrix has eigenvalue {low:.3e}; not PSD within tolerance")


def hermitian_eig(h, known=None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a stack.

    Returns (eigenvalues ascending, eigenvector matrix with orthonormal
    columns).  Raises on input that is not Hermitian within tolerance;
    convergence failures surface as numpy.linalg.LinAlgError.  A caller that
    already has h's eigensystem passes it as known: h gets the same checks
    and known is returned without a second solve.
    """
    h = as_stack(h)
    _check_hermitian(h)
    if known is not None:
        return known
    w, v = np.linalg.eigh(hermitianize(h))
    return w, v


def psd_eigvalsh(a, known=None) -> np.ndarray:
    """Eigenvalues of a PSD Hermitian matrix (or stack); raises like matrix_sqrt_psd.

    known, a spectrum of a the caller already has, is checked in place of a solve.
    """
    a = as_stack(a)
    _check_hermitian(a)
    w = np.linalg.eigvalsh(hermitianize(a)) if known is None else known
    _check_psd_spectrum(w)
    return w


def partial_trace_matrix(m: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace over the factors not listed in keep (positions).

    m is one matrix or a stack (..., D, D) with D = prod(dims).
    """
    dims = tuple(dims)
    n = len(dims)
    keep = sorted(keep)
    t = m.reshape(m.shape[:-2] + dims + dims)
    row = list(range(n))
    col = [i if i not in keep else i + n for i in range(n)]
    out = [i for i in keep] + [i + n for i in keep]
    dk = math.prod(dims[i] for i in keep)
    return np.einsum(t, [..., *row, *col], [..., *out]).reshape(m.shape[:-2] + (dk, dk))


def partial_trace(rho: DensityOperator, keep: Iterable[str]) -> DensityOperator:
    """Trace out every register not named in keep; kept factors stay in layout order."""
    pos = rho.layout.positions(keep)
    if not pos:
        raise ValueError("must keep at least one register")
    out = partial_trace_matrix(rho.matrix, rho.layout.dims, pos)
    return DensityOperator(out, rho.layout.keep([rho.layout.labels[p] for p in pos]), validate=False)


def matrix_sqrt_psd(a, known=None) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix, or of each in a stack.

    Eigenvalues in [-psd_tol, 0) are clipped to 0; anything more negative is
    an error.  known is a's eigensystem if the caller has it (see hermitian_eig).
    """
    w, v = hermitian_eig(a, known)
    _check_psd_spectrum(w)
    w = np.sqrt(np.clip(w, 0.0, None))
    return hermitianize((v * w[..., None, :]) @ dagger(v))


def _root_sum(w: np.ndarray) -> np.ndarray:
    """Sum of square roots of each ascending PSD spectrum in w, shape (..., n).

    Eigenvalues under the rounding floor max(w) * n * eps are noise whose
    square roots would each leak ~sqrt(eps) into the sum, so they count as 0.
    """
    floor = np.maximum(w[..., -1:], 0.0) * w.shape[-1] * np.finfo(float).eps
    return np.sqrt(np.where(w > floor, w, 0.0)).sum(axis=-1)


def trace_norm(a) -> float:
    """Sum of singular values, from the eigenvalues of a^dag a (see _root_sum)."""
    a = as_matrix(a)
    return float(_root_sum(np.linalg.eigvalsh(hermitianize(a.conj().T @ a))))
