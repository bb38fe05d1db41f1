"""Seeded samplers for states, unitaries and measurements.

Seed discipline: every consumer derives an independent generator via
rng_for(master_seed, *stream), which feeds the whole integer path into one
numpy SeedSequence.  Identical paths give identical streams; distinct paths
are statistically independent.  This is the package-wide splittable-counter
scheme, so results are reproducible from (seed, documented stream ids) alone.

rng_block derives the same generators for a run of trial indices, a block
of _RNG_BLOCK at a time.  A block of at least _RNG_VECTOR_MIN one-word
indices is derived at once: numpy's SeedSequence mixing runs vectorized over
the block's paths, PCG64's seeding step on Python ints, and one reused
Generator takes each trial's state in turn.  A shorter block (a see-saw's
few restarts, a run's one chunk generator, the tail of a longer run), where
that set-up costs more than it saves, or one holding a larger index is
derived one by one through rng_for.  Either way it is draw for draw equal to
rng_for, which stays the replay entry point.

bounded_draws rebuilds rng.integers draw for draw from the generator's raw
words, at a fraction of the cost of an integers call.  Like numpy it keeps
a word's high half for the next bounded draw, so the generator must hold no
buffered half-word of its own when a drawer is made, as fresh rng_for and
rng_block generators do.

Random states are drawn in two steps.  A trial draws only raw numbers: a
mixed state's (2, d^2) Gaussians (mixed_draw), a unitary's (2, d, d)
(unitary_draw), a POVM's (n, 2, d, d) Gaussians or a distribution's flat
Dirichlet weights, all of a verify trial's numbers in one row (checks).  The
states are built from stacks of those draws (mixed_factors, povms,
classical_states, haar_unitaries and projectives), so a batch of trials
shares one construction.  A random mixed state is held as its factor psi,
the normalized Haar pure state on d x d as a d x d amplitude matrix, which
mixed_factors builds; the state is gram(psi) = psi psi^dag, formed only
where a matrix is needed, and fidelities are taken from factors
(qinfo.fidelity_from_factors).  Every construction acts on each slice on its
own; random_mixed (gram of mixed_factors), haar_unitary and
random_projective are the one-slice case.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator

import numpy as np

from .linalg import Solved, dagger, hermitianize

# numpy's SeedSequence (pool size 4, numpy/random/bit_generator.pyx) and the
# PCG64 128-bit LCG multiplier (pcg64.h); rng_block reproduces both
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1
_RNG_BLOCK = 256    # trial indices derived per vectorized pass; bounds memory
_RNG_VECTOR_MIN = 12    # shorter blocks take rng_for, which is cheaper there


def rng_for(*path: int) -> np.random.Generator:
    """Generator addressed by an integer path (master seed first)."""
    return np.random.default_rng(np.random.SeedSequence([int(p) for p in path]))


def _words(n) -> list[int]:
    """SeedSequence's uint32 words of one path entry, least significant first."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix on rows of values (calls, paths), call i taking
    the running hash constant from consts[i] to consts[i + 1]."""
    x = (values ^ consts[:-1, None]) * consts[1:, None]
    return x ^ (x >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> 16)


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    return np.array([init * pow(mult, k, 1 << 32) & _M32 for k in range(n + 1)],
                    dtype=np.uint32)


_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)


def _pcg64_states(entropy: np.ndarray) -> Iterator[tuple[int, int]]:
    """PCG64 (state, inc) of default_rng(SeedSequence(path)) for each row of
    a (paths, words) uint32 array.

    SeedSequence mixes a path word by word, but each step's hash constant does
    not depend on the data, so every step runs on all paths at once, and the
    updates of one source word into the other pool words run together.
    """
    words = entropy.shape[1]
    extra = max(words - _POOL, 0)
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra)
    first = np.zeros((_POOL, len(entropy)), dtype=np.uint32)
    first[:min(words, _POOL)] = entropy.T[:_POOL]
    pool = _hashmix(first, consts[:_POOL + 1])
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        hashed = _hashmix(np.broadcast_to(pool[src], (len(dst), len(entropy))),
                          consts[k:k + len(dst) + 1])
        pool[dst] = _mix(pool[dst], hashed)
        k += len(dst)
    for word in entropy.T[_POOL:]:
        hashed = _hashmix(np.broadcast_to(word, pool.shape), consts[k:k + _POOL + 1])
        pool = _mix(pool, hashed)
        k += _POOL
    # generate_state(4, np.uint64): eight words cycled from the pool, paired
    # little-endian into (seed_hi, seed_lo, inc_hi, inc_lo)
    out = _hashmix(np.tile(pool, (2, 1)), _STATE_CONSTS).astype(np.uint64)
    seeds = out[0::2] | (out[1::2] << np.uint64(32))
    for s_hi, s_lo, i_hi, i_lo in zip(*seeds.tolist()):
        # pcg64_set_seed: srandom(initstate = s, initseq = i)
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        yield (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _M128, inc


def rng_block(*prefix: int, trials: Iterable[int]) -> Iterator[np.random.Generator]:
    """rng_for(*prefix, t) for each t in trials, derived _RNG_BLOCK at a time.

    A block of _RNG_VECTOR_MIN or more indices, all within one SeedSequence
    word, yields one Generator, reused: its state is set for each trial in
    turn, so a trial must finish drawing before the next one is taken.  A
    shorter block, or one that holds a larger index, yields a fresh rng_for
    generator for each of its trials instead.
    """
    head = [w for p in prefix for w in _words(p)]
    rng = None     # made at the first vectorized block; seeding it costs an rng_for
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    trials = iter(trials)
    while block := list(itertools.islice(trials, _RNG_BLOCK)):
        if len(block) < _RNG_VECTOR_MIN or min(block) < 0 or max(block) > _M32:
            yield from (rng_for(*prefix, t) for t in block)
            continue
        rng = rng or np.random.Generator(np.random.PCG64(0))
        entropy = np.empty((len(block), len(head) + 1), dtype=np.uint32)
        entropy[:, :-1] = head
        entropy[:, -1] = block
        for pcg["state"], pcg["inc"] in _pcg64_states(entropy):     # the setter copies them
            rng.bit_generator.state = state
            yield rng


def bounded_draws(rng: np.random.Generator) -> Callable[..., list]:
    """A drawer of bounded integers from rng: draw(*pools) gives
    pool[rng.integers(len(pool))] for each pool in turn, draw for draw (the
    element rng.choice(pool) draws; draw(range(n)) is rng.integers(n)).

    numpy's Lemire method (arXiv:1805.10941) for a span n takes a 32-bit
    half-word u and m = u * n, redraws while m mod 2^32 < 2^32 mod n, and
    gives m >> 32.  A half-word is the low half of a raw word, or the high
    half kept from the word before, which the drawer keeps as numpy's
    generator does.  So rng must hold no buffered half-word when the drawer
    is made, and all later bounded draws of rng (one whose pool depends on
    an earlier draw, one after other numbers) go through this drawer.  A
    pool of one element draws nothing, as in numpy; pools hold at most 2^32.
    """
    raw = rng.bit_generator.random_raw
    half = None

    def draw(*pools) -> list:
        nonlocal half
        out = []
        for pool in pools:
            span = len(pool)
            if not 0 < span <= 1 << 32:
                raise ValueError(f"pool of {span} elements; expected 1 to 2^32")
            if span == 1:
                out.append(pool[0])
                continue
            threshold = (1 << 32) % span
            while True:
                if half is None:
                    word = raw()
                    u, half = word & _M32, word >> 32
                else:
                    u, half = half, None
                m = u * span
                if m & _M32 >= threshold:
                    break
            out.append(pool[m >> 32])
        return out
    return draw


def haar_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random pure state: normalized vector of iid complex Gaussians."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def unitary_draw(rng: np.random.Generator, dim: int, n: int | None = None) -> np.ndarray:
    """Raw draw of one Haar unitary: real and imaginary parts, (2, dim, dim).

    With n, the draws of n unitaries in one call, (n, 2, dim, dim): the same
    numbers as n successive single draws.
    """
    return rng.standard_normal((2, dim, dim) if n is None else (n, 2, dim, dim))


def haar_unitaries(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from stacked raw draws (..., 2, d, d): one stacked QR of
    the complex Gaussians g[..., 0] + i g[..., 1] with the standard phase fix."""
    q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary via QR with the standard phase fix."""
    return haar_unitaries(unitary_draw(rng, dim))


def mixed_draw(rng: np.random.Generator, dim: int, n: int | None = None) -> np.ndarray:
    """Raw draw of one random mixed state: real and imaginary parts, (2, dim^2).

    With n, the draws of n states in one call, (n, 2, dim^2): the same numbers
    as n successive single draws.
    """
    return rng.standard_normal((2, dim * dim) if n is None else (n, 2, dim * dim))


def mixed_factors(g: np.ndarray) -> np.ndarray:
    """Factors psi (..., d, d) of mixed states psi psi^dag from stacked raw
    draws (..., 2, d^2): the Haar pure state g[..., 0, :] + i g[..., 1, :]
    (normalized) on d x d, as a d x d amplitude matrix."""
    v = g[..., 0, :] + 1j * g[..., 1, :]
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    d = math.isqrt(v.shape[-1])
    return v.reshape(v.shape[:-1] + (d, d))


def gram(a: np.ndarray) -> np.ndarray:
    """a a^dag for each matrix of a stack: the state a factor a stands for."""
    return a @ dagger(a)


def random_mixed(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random mixed state: partial trace of a Haar pure state on dim x dim,
    the gram of its mixed_factors."""
    return gram(mixed_factors(mixed_draw(rng, dim)[None]))[0]


def classical_states(p: np.ndarray) -> np.ndarray:
    """Classical (diagonal, complex) states of distributions stacked as (..., d)."""
    return (p[..., None, :] * np.eye(p.shape[-1])).astype(complex)


def floor_eigensystem(rho: np.ndarray, floor: float) -> Solved:
    """rho with eigenvalues pushed up to at least `floor` and the trace
    renormalized, with its eigensystem known from the one solve of rho:
    eigenvalues max(w, floor) / sum (still ascending) on rho's eigenvectors.

    Takes one state or a stack (..., d, d).  Used for reference states of
    relative-entropy checks so support is full and infinity branches are not
    triggered by sampling accidents.
    """
    w, v = np.linalg.eigh(hermitianize(rho))
    w = np.maximum(w, floor)
    w = w / w.sum(axis=-1, keepdims=True)
    return Solved((v * w[..., None, :]) @ dagger(v), w, v)


def povms(g: np.ndarray) -> np.ndarray:
    """POVMs from stacked raw draws (..., n, 2, d, d): Wishart pieces
    G_a = X_a X_a^dag normalized as S^(-1/2) G_a S^(-1/2), S = sum_a G_a."""
    x = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    gs = x @ dagger(x)
    w, v = np.linalg.eigh(hermitianize(gs.sum(axis=-3)))
    s_isqrt = ((v / np.sqrt(w)[..., None, :]) @ dagger(v))[..., None, :, :]
    return s_isqrt @ gs @ s_isqrt


def projectives(u: np.ndarray, n_outcomes: int) -> np.ndarray:
    """Projective measurements (..., n_outcomes, d, d) from stacked unitaries.

    Outcome a gets the projector onto columns [a*d//n, (a+1)*d//n) of each
    unitary; when n_outcomes > d, n_outcomes - d of these blocks are empty
    and give zero projectors, which is still a valid projective measurement.
    """
    d = u.shape[-1]
    out = np.zeros(u.shape[:-2] + (n_outcomes, d, d), dtype=complex)
    for a in range(n_outcomes):
        lo, hi = a * d // n_outcomes, (a + 1) * d // n_outcomes
        if hi > lo:
            block = u[..., lo:hi]
            out[..., a, :, :] = block @ dagger(block)
    return out


def random_projective(rng: np.random.Generator, dim: int, n_outcomes: int) -> np.ndarray:
    """Random projective measurement: Haar unitary columns split into blocks
    (projectives)."""
    return projectives(haar_unitary(rng, dim), n_outcomes)
