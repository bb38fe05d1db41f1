"""Dense complex linear algebra on register-structured operators.

Matrices are plain 2-d complex ndarrays; tensor-factor structure is a
tuple of register dimensions, and a register is named by its position in
it.  Nothing here reorders registers implicitly: kron takes its factors
left-to-right and partial_trace keeps the surviving factors in their
original order.

hermitian_eig, psd_eigvalsh, matrix_sqrt_psd, partial_trace_matrix and kron
also take stacks of shape (..., d, d) and act on each slice, validating each
slice as they would a single matrix; a single matrix is the unbatched case.
A Solved is a checked state: building one checks its matrix Hermitian and
its spectrum PSD, once.  solve_psd solves a state and returns it as a
Solved; psd_eigvalsh, matrix_sqrt_psd and _check_state build on it, so
a caller that already holds a Solved passes it on and its eigensystem is
read with no further check or solve.  partial_trace takes a state as a
plain matrix or a Solved with its register dims, and _check_state is where
it, and qinfo.mutual_information, checks them.  Tolerances are the fixed
config.DEFAULT_TOLS.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_TOLS, MAX_KRON_DIM, BudgetError


def as_stack(a) -> np.ndarray:
    """Coerce a matrix or a stack of matrices, shape (..., d, d), to complex;
    a Solved gives its matrix."""
    m = getattr(a, "matrix", a)
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def as_matrix(a) -> np.ndarray:
    """Coerce a matrix-like (ndarray or Solved) to a complex ndarray."""
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


def _check_dims(dims, d: int) -> tuple[int, ...]:
    """dims as a tuple of ints, (d,) when None; raises unless it factors d.

    Registers are named by their position in dims, left to right.
    """
    dims = (d,) if dims is None else tuple(int(n) for n in dims)
    if not dims or any(n < 1 for n in dims) or math.prod(dims) != d:
        raise ValueError(f"register dims {dims} do not factor dimension {d} into entries >= 1")
    return dims


def _check_positions(positions: Iterable[int], n: int) -> list[int]:
    """Register positions, sorted; raises on a repeat or one outside range(n)."""
    pos = sorted(operator.index(p) for p in positions)
    if len(set(pos)) != len(pos):
        raise ValueError(f"repeated register positions in {pos}")
    if pos and not 0 <= pos[0] <= pos[-1] < n:
        raise ValueError(f"register positions {pos} outside range({n})")
    return pos


def kron(a, b) -> np.ndarray:
    """Kronecker product with a dimension guard; register dims are the caller's.

    Stacks (..., m, m) and (..., n, n) give the product of each pair of slices.
    """
    a, b = as_stack(a), as_stack(b)
    m, n = a.shape[-1], b.shape[-1]
    if m * n > MAX_KRON_DIM:
        raise BudgetError(f"kron result dimension {m * n} exceeds MAX_KRON_DIM")
    t = a[..., :, None, :, None] * b[..., None, :, None, :]
    return t.reshape(t.shape[:-4] + (m * n, m * n))


def _check_hermitian(h: np.ndarray) -> None:
    """Raise unless every slice is finite and Hermitian within herm * max(1, |h|).

    The scale's one pass over |h| is also the finiteness scan: its maximum is
    inf or nan exactly when the slice has a non-finite entry.
    """
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))
    if not np.isfinite(scale).all():
        raise ValueError("matrix has non-finite entries")
    if (np.abs(h - dagger(h)).max(axis=(-2, -1)) > DEFAULT_TOLS.herm * scale).any():
        raise ValueError("matrix is not Hermitian within tolerance")


def _check_psd_spectrum(w: np.ndarray) -> None:
    """Raise unless every ascending spectrum in w is finite and above -psd."""
    if not np.isfinite(w).all():
        raise ValueError("spectrum has non-finite entries")
    low = w[..., 0].min()
    if low < -DEFAULT_TOLS.psd:
        raise ValueError(f"matrix has eigenvalue {low:.3e}; not PSD within tolerance")


@dataclass(frozen=True)
class Solved:
    """A matrix or stack (..., d, d) with the eigensystem its caller solved:
    ascending eigenvalues w and, if solved too, the eigenvectors v.  Built
    only for states: the matrix is checked finite and Hermitian and w finite
    and PSD here, once."""

    matrix: np.ndarray
    w: np.ndarray
    v: np.ndarray | None = None

    def __post_init__(self):
        _check_hermitian(self.matrix)
        _check_psd_spectrum(self.w)


def solve_psd(a, vectors: bool = True) -> Solved:
    """a, a PSD Hermitian matrix or stack, with its eigenvalues and, if
    vectors, its eigenvectors from one solve, checked as a Solved is.

    A Solved a that carries what is asked for is returned as it is.
    """
    if isinstance(a, Solved) and (a.v is not None or not vectors):
        return a
    m = as_stack(a)
    h = hermitianize(m)
    return Solved(m, *np.linalg.eigh(h)) if vectors else Solved(m, np.linalg.eigvalsh(h))


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a stack.

    Returns (eigenvalues ascending, eigenvector matrix with orthonormal
    columns).  Raises on input that is not Hermitian within tolerance;
    convergence failures surface as numpy.linalg.LinAlgError.
    """
    m = as_stack(h)
    _check_hermitian(m)
    w, v = np.linalg.eigh(hermitianize(m))
    return w, v


def psd_eigvalsh(a) -> np.ndarray:
    """Eigenvalues of a PSD Hermitian matrix (or stack); raises like matrix_sqrt_psd."""
    return solve_psd(a, vectors=False).w


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


def _check_state(rho, dims) -> tuple[np.ndarray, tuple[int, ...]]:
    """rho's matrix and its register dims, once rho is checked a state on
    them: a finite square matrix, Hermitian and PSD (solve_psd), of unit trace
    within DEFAULT_TOLS.trace, with dims that factor its size.  A Solved rho
    is not solved again."""
    m = as_matrix(rho)
    dims = _check_dims(dims, m.shape[0])
    solve_psd(rho, vectors=False)
    if abs(m.trace() - 1.0) > DEFAULT_TOLS.trace:
        raise ValueError(f"density matrix trace {m.trace():.3e} != 1 within tolerance")
    return m, dims


def _reduce(m: np.ndarray, dims: tuple[int, ...], keep: Iterable[int]) -> np.ndarray:
    """partial_trace of a state _check_state has passed; checks keep."""
    pos = _check_positions(keep, len(dims))
    if not pos:
        raise ValueError("must keep at least one register")
    return partial_trace_matrix(m, dims, pos)


def partial_trace(rho, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace the state rho on registers dims down to the registers whose
    positions are in keep; kept registers stay in their original order, so
    the result's dims are dims[p] for p in sorted(keep).  rho is checked as
    _check_state does."""
    return _reduce(*_check_state(rho, dims), keep)


def matrix_sqrt_psd(a) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix, or of each in a stack.

    Eigenvalues in [-psd_tol, 0) are clipped to 0; anything more negative is
    an error.  A Solved a with eigenvectors is not solved again.
    """
    s = solve_psd(a)
    w = np.sqrt(np.clip(s.w, 0.0, None))
    return hermitianize((s.v * w[..., None, :]) @ dagger(s.v))


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
