"""Seeded samplers for states, unitaries and measurements.

Seed discipline: every consumer derives an independent generator via
rng_for(master_seed, *stream), which feeds the whole integer path into one
numpy SeedSequence.  Identical paths give identical streams; distinct paths
are statistically independent.  This is the package-wide splittable-counter
scheme, so results are reproducible from (seed, documented stream ids) alone.
"""

from __future__ import annotations

import numpy as np

from .linalg import dagger, hermitianize


def rng_for(*path: int) -> np.random.Generator:
    """Generator addressed by an integer path (master seed first)."""
    return np.random.default_rng(np.random.SeedSequence([int(p) for p in path]))


def haar_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random pure state: normalized vector of iid complex Gaussians."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary via QR with the standard phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_mixed(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Random mixed state: partial trace of a Haar pure state on dim x rank."""
    r = dim if rank is None else rank
    psi = haar_state(rng, dim * r).reshape(dim, r)
    return psi @ psi.conj().T


def random_classical(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random classical (diagonal) state with Dirichlet(1,...,1) weights."""
    return np.diag(rng.dirichlet(np.ones(dim)).astype(complex))


def floor_eigenvalues(rho: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    """Push eigenvalues up to at least `floor` and renormalize the trace.

    Takes one state or a stack (..., d, d).  Used for reference states of
    relative-entropy checks so support is full and infinity branches are not
    triggered by sampling accidents.
    """
    w, v = np.linalg.eigh(hermitianize(rho))
    w = np.maximum(w, floor)
    w = w / w.sum(axis=-1, keepdims=True)
    return (v * w[..., None, :]) @ dagger(v)


def random_povm(rng: np.random.Generator, dim: int, n_outcomes: int) -> list[np.ndarray]:
    """Random POVM: Wishart-like PSD pieces normalized by their sum."""
    gs = []
    for _ in range(n_outcomes):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        gs.append(x @ x.conj().T)
    s = sum(gs)
    w, v = np.linalg.eigh(0.5 * (s + s.conj().T))
    s_isqrt = (v / np.sqrt(w)) @ v.conj().T
    return [s_isqrt @ g @ s_isqrt for g in gs]


def random_projective(rng: np.random.Generator, dim: int, n_outcomes: int) -> np.ndarray:
    """Random projective measurement: Haar unitary columns split into blocks.

    Outcome a gets columns [a*dim//n, (a+1)*dim//n); when n_outcomes > dim the
    trailing outcomes get zero projectors, which is still a valid projective
    measurement.
    """
    u = haar_unitary(rng, dim)
    out = np.zeros((n_outcomes, dim, dim), dtype=complex)
    for a in range(n_outcomes):
        lo, hi = a * dim // n_outcomes, (a + 1) * dim // n_outcomes
        if hi > lo:
            block = u[:, lo:hi]
            out[a] = block @ block.conj().T
    return out
