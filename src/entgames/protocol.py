"""Monte-Carlo simulation of the referee's spot-checking procedure.

A device plays n rounds of a game.  The referee draws v independent uniform
round indices (with replacement), inspects those rounds, and accepts iff all
inspected rounds were won.  Given W won rounds out of n, the v inspections
all land on won rounds with probability exactly (W/n)**v, so each trial draws
its win count W from the round model and then one uniform u, and the
inspections match iff u < (W/n)**v.  The "won most rounds" statistic needs
only W as well.

Trials run in chunks of _CHUNK; chunk i draws from rng_for(seed, 301, i).
An i.i.d. round model (IidBernoulli, StrategyBacked) draws W by inverse CDF:
one uniform per trial, looked up in a Binomial(n, w) CDF table that is built
once per (n, w).  The lookup starts from a guide table (Chen and Asau, 1974):
with M = 2**b >= 4(n + 1) buckets, u * M is exact and bucket j starts at the
first k whose CDF exceeds j/M, so one step forward (and, for the rare
uniform that needs more, a binary search) finds exactly the index that
np.searchsorted(cdf, u, side="right") finds.  Acceptance is then read from a
table of (k/n)**v, k = 0..n, built once per run, instead of one pow per
trial; numpy's pow gives the same bits in either layout.  Both tables are
used while they have n + 1 <= 2**16 entries; beyond that numpy's binomial
draws W, which takes any n up to 2**63 - 1, and each trial takes its own pow.

The projection variant replaces literal string comparison with a random
GF(2)-linear hash: on a mismatch the referee still accepts iff the hashes
collide, which for a fresh random linear map happens with probability exactly
2**-hash_bits whenever the strings differ (any lost round forces a nonzero
symbol difference).  The simulator therefore draws one fresh uniform hash
value per mismatched trial, which reproduces the acceptance distribution
exactly.  A 0-bit hash is the same draw: its one value is 0, so every
mismatch collides.  exact_collision_probability confirms that rate for a
random linear map by counting row masks exhaustively.

Conditional threshold: the "won most rounds" statistic uses the fraction
1 - epsilon/256 for both variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .config import BudgetError
from .games import Game, QuantumStrategy, strategy_win_probability
from .random_states import rng_block

_STREAM_PROTOCOL = 301
_CHUNK = 4096         # trials per derived generator; fixed so results are
                      # independent of how work is scheduled, and large so
                      # each generator's fixed cost is paid rarely
_TABLE_MAX = 1 << 16  # largest CDF and acceptance tables (n + 1 entries each)
Z99 = 2.5758293035489004   # two-sided 99% normal quantile

VARIANTS = ("general", "projection")
MIN_SUCCESSES_FOR_VERDICT = 100


def _check_parameters(epsilon: float, t: float, variant: str) -> None:
    """ValueError unless epsilon is in (0, 1], t finite and >= 0, variant in VARIANTS."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")


def required_v(epsilon: float, t: float, variant: str = "general") -> int:
    """Number of inspected indices needed for the acceptance guarantees; a
    ValueError when that number is too large for a float."""
    _check_parameters(epsilon, t, variant)
    log_term = t + math.log2(1.0 / epsilon)
    scale, offset = (256.0, 8.0) if variant == "general" else (32.0, 9.0)
    v = (scale / epsilon) * (log_term + offset)
    if not math.isfinite(v):
        raise ValueError(f"epsilon = {epsilon:g} and t = {t:g} make the required v "
                         f"unbounded; set v_override")
    return math.ceil(v)


@dataclass(frozen=True)
class ProtocolConfig:
    n: int
    epsilon: float
    t: float
    trials: int
    seed: int = 0
    variant: str = "general"
    v_override: int | None = None
    hash_bits: int | None = None    # None: ceil(2t), checked for projection only

    def __post_init__(self):
        if not 1 <= self.n < 1 << 63:
            raise ValueError("n must lie in [1, 2^63 - 1]")
        _check_parameters(self.epsilon, self.t, self.variant)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.v_override is not None:
            if self.v_override < 1:
                raise ValueError("v_override must be >= 1")
            try:
                float(self.v_override)      # acceptance takes (W/n)**v in floats
            except OverflowError:
                raise ValueError("v_override is too large for a float") from None
        self.resolved_v()       # an unbounded required v is an input error
        if self.hash_bits is not None and not 0 <= self.hash_bits <= 62:
            raise ValueError("hash_bits must lie in [0, 62]")
        if self.variant == "projection" and self.hash_bits is None and self.t > 31:
            raise ValueError(f"t = {self.t:g} makes the default hash_bits = ceil(2t) "
                             f"exceed 62; set hash_bits in [0, 62]")

    def resolved_v(self) -> int:
        if self.v_override is not None:
            return self.v_override
        return required_v(self.epsilon, self.t, self.variant)

    def resolved_hash_bits(self) -> int:
        return math.ceil(2 * self.t) if self.hash_bits is None else self.hash_bits

    def win_threshold(self) -> float:
        return (1.0 - self.epsilon / 256.0) * self.n


# --- round-outcome models ---------------------------------------------------
# sample_wins(rng, n, trials) returns the number of rounds won, one int per
# trial; which rounds were won never matters to the referee.


def _binomial_pmf(n: int, w: float) -> np.ndarray:
    """P(W = k) for k = 0..n, W ~ Binomial(n, w), to about 1e-13 relative
    wherever it exceeds 1e-300.

    Built outward from the mode by products of consecutive pmf ratios, so
    nothing overflows, and normalized by the sum.  Each ratio is rounded on
    its own; the one rounding they share, that of q = 1 - w, is taken out by
    the exact residual e = (1 - q) - w.
    """
    if w in (0.0, 1.0):
        pmf = np.zeros(n + 1)
        pmf[0 if w == 0.0 else n] = 1.0
        return pmf
    q = 1.0 - w
    e = (1.0 - q) - w                   # 1 - w == q + e exactly
    m = min(n, int((n + 1) * w))        # a mode: ratios away from it are <= 1
    k = np.arange(n + 1, dtype=float)
    up = (n - k[m:n]) * w / ((k[m:n] + 1) * q)           # p(k+1)/p(k), k >= m
    down = k[1:m + 1] * q / ((n - k[1:m + 1] + 1) * w)   # p(k-1)/p(k), k <= m
    rel = np.concatenate([np.cumprod(down[::-1])[::-1], [1.0], np.cumprod(up)])
    rel *= np.exp((m - k) * math.log1p(e / q))
    return rel / rel.sum()


@lru_cache(maxsize=16)
def _binomial_table(n: int, w: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Binomial(n, w) CDF whose last entry is exactly 1, so a
    uniform in [0, 1) never looks up past k = n, and its read-only guide
    table: M = 2**b >= 4(n + 1) buckets, bucket j starting at the first k
    whose CDF exceeds j/M."""
    cdf = np.cumsum(_binomial_pmf(n, w))
    cdf /= cdf[-1]
    buckets = 1 << (4 * (n + 1) - 1).bit_length()
    guide = np.searchsorted(cdf, np.arange(buckets) / buckets, side="right")
    cdf.flags.writeable = guide.flags.writeable = False
    return cdf, guide


def _guided_search(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf, u, side="right") for u in [0, 1), started from
    guide[floor(u * M)], which must not lie past that answer.  Every index
    below the running one has cdf <= u, so an index with cdf > u is the
    answer; the few still short of it after one step forward are found by
    binary search."""
    idx = guide[(u * guide.size).astype(np.intp)]
    idx += cdf[idx] <= u
    late = cdf[idx] <= u
    if late.any():
        idx[late] = np.searchsorted(cdf, u[late], side="right")
    return idx


def _acceptance_table(n: int, v: int) -> np.ndarray:
    """(k/n)**v for k = 0..n: the chance that v inspections with replacement
    all land on won rounds when k of the n rounds were won."""
    return (np.arange(n + 1) / n) ** v


def _iid_wins(rng, n: int, w: float, trials: int) -> np.ndarray:
    """Rounds won of n i.i.d. rounds won w.p. w, one count per trial: one
    uniform and a guided CDF lookup while the table fits in _TABLE_MAX
    entries, numpy's binomial beyond (any n up to 2**63 - 1).  A lookup draws
    each count with the share of rng.random's 2**-53 grid inside its CDF
    step, which is off from its pmf by at most about 2**-53."""
    if n + 1 > _TABLE_MAX:
        return rng.binomial(n, w, size=trials)
    return _guided_search(*_binomial_table(n, w), rng.random(trials))


@dataclass(frozen=True)
class IidBernoulli:
    """Each round won independently with probability w."""

    w: float

    def __post_init__(self):
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("w must lie in [0, 1]")

    def sample_wins(self, rng, n: int, trials: int) -> np.ndarray:
        return _iid_wins(rng, n, self.w, trials)

    def win_all_probability(self, n: int) -> float:
        return self.w ** n


@dataclass(frozen=True)
class WinAllOrPartial:
    """With probability q win every round, otherwise win a uniformly random
    subset of round(f*n) rounds."""

    q: float
    f: float

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0 or not 0.0 <= self.f <= 1.0:
            raise ValueError("q and f must lie in [0, 1]")

    def partial_win_count(self, n: int) -> int:
        return int(round(self.f * n))

    def sample_wins(self, rng, n: int, trials: int) -> np.ndarray:
        return np.where(rng.random(trials) < self.q, n, self.partial_win_count(n))

    def win_all_probability(self, n: int) -> float:
        return self.q + (1.0 - self.q) * (self.partial_win_count(n) == n)


class StrategyBacked:
    """Rounds generated by playing a fixed entangled strategy on the n-fold
    repetition.  Inputs are drawn independently per round and outputs are
    measured independently per round, so the rounds are won i.i.d. with the
    strategy's exact win probability omega: the same rounds as
    IidBernoulli(omega), drawn by the same inverse-CDF helper.  No joint-input
    table is built, so any n runs."""

    def __init__(self, game: Game, strategy: QuantumStrategy):
        # clipped so float round-off cannot push it outside [0, 1]
        self.omega = min(1.0, max(0.0, strategy_win_probability(game, strategy)))

    def sample_wins(self, rng, n: int, trials: int) -> np.ndarray:
        return _iid_wins(rng, n, self.omega, trials)

    def win_all_probability(self, n: int) -> float:
        return self.omega ** n


# --- statistics --------------------------------------------------------------


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """Two-sided 99% Wilson score interval; (0, 1) when there is no data.

    The interval reaches 0 at no successes and 1 at all successes exactly;
    those ends are set, not computed, so rounding cannot pull an all-success
    run's upper end below a bound of 1.
    """
    if total == 0:
        return 0.0, 1.0
    phat = successes / total
    z2 = Z99 * Z99
    denom = 1.0 + z2 / total
    center = (phat + z2 / (2 * total)) / denom
    half = Z99 * math.sqrt(phat * (1 - phat) / total + z2 / (4 * total * total)) / denom
    return (0.0 if successes == 0 else max(0.0, center - half),
            1.0 if successes == total else min(1.0, center + half))


@dataclass(frozen=True)
class ProtocolStats:
    variant: str
    n: int
    epsilon: float
    t: float
    v_used: int
    trials_effective: int
    successes: int
    p_succeed_hat: float
    succeed_ci: tuple[float, float]
    conditional_defined: bool
    mostwin_successes: int
    p_mostwin_given_succeed_hat: float | None
    mostwin_ci: tuple[float, float] | None
    mismatch_trials: int = 0
    mismatch_accepts: int = 0
    p_hash_accept_given_mismatch: float | None = None


def chunk_count(trials: int) -> int:
    """Chunks in a run of trials: chunk i draws from rng_for(seed, 301, i)."""
    return -(-trials // _CHUNK)


def run_protocol(config: ProtocolConfig, model) -> ProtocolStats:
    """Simulate the spot-checking procedure; config.variant selects the plain
    string comparison ("general") or the hash-compressed one ("projection")."""
    projection = config.variant == "projection"
    n, v = config.n, config.resolved_v()
    thr = config.win_threshold() - 1e-9    # integer counts vs real threshold
    bits = config.resolved_hash_bits() if projection else None
    successes = mostwin = mismatches = mismatch_accepts = 0
    # v inspections with replacement all hit won rounds w.p. (W/n)^v, read
    # from a table indexed by W while it has at most _TABLE_MAX entries
    accept = _acceptance_table(n, v) if n + 1 <= _TABLE_MAX else None
    rngs = rng_block(config.seed, _STREAM_PROTOCOL, trials=range(chunk_count(config.trials)))
    for chunk_idx, rng in enumerate(rngs):
        size = min(_CHUNK, config.trials - chunk_idx * _CHUNK)
        nwins = model.sample_wins(rng, n, size)
        # under projection a mismatch is still accepted when its hash collides
        ok = rng.random(size) < (accept[nwins] if accept is not None else (nwins / n) ** v)
        if projection:
            miss = ~ok
            collide = rng.integers(0, 1 << bits, size=int(miss.sum())) == 0
            ok[miss] = collide
            mismatches += collide.size
            mismatch_accepts += int(collide.sum())
        successes += int(ok.sum())
        mostwin += int((ok & (nwins >= thr)).sum())
    trials = config.trials
    p_succ = successes / trials
    cond_defined = successes > 0
    return ProtocolStats(
        variant=config.variant, n=n, epsilon=config.epsilon, t=config.t,
        v_used=v, trials_effective=trials, successes=successes,
        p_succeed_hat=p_succ,
        succeed_ci=wilson_interval(successes, trials),
        conditional_defined=cond_defined,
        mostwin_successes=mostwin,
        p_mostwin_given_succeed_hat=(mostwin / successes) if cond_defined else None,
        mostwin_ci=wilson_interval(mostwin, successes) if cond_defined else None,
        mismatch_trials=mismatches,
        mismatch_accepts=mismatch_accepts,
        p_hash_accept_given_mismatch=(mismatch_accepts / mismatches)
        if projection and mismatches else None,
    )


# --- GF(2) linear hashing ----------------------------------------------------


def exact_collision_probability(in_bits: int, out_bits: int) -> float:
    """Collision probability of a uniformly random linear map on any fixed
    nonzero difference, established by exhaustive row counting.

    For every nonzero d, exactly half of all in_bits-wide row masks have even
    parity against d, so each of the out_bits independent rows vanishes on d
    with probability exactly 1/2.
    """
    if not 1 <= in_bits <= 12:
        raise BudgetError("exhaustive verification supported for 1..12 input bits")
    rows = np.arange(1 << in_bits, dtype=np.uint64)
    half = 1 << (in_bits - 1)
    for d in range(1, 1 << in_bits):
        even = int(((np.bitwise_count(rows & np.uint64(d)) & np.uint64(1)) == 0).sum())
        if even != half:
            raise AssertionError(f"row parity count off for difference {d}")
    return 2.0 ** -out_bits


# --- guarantees ---------------------------------------------------------------


def checking_bound_margin(epsilon: float, t: float, v: int | None = None) -> float:
    """log2(epsilon/256) - log2((1 - epsilon/256)^v * 2^t), nonnegative iff the
    acceptance bound holds; defined for the general-variant v formula."""
    if v is None:
        v = required_v(epsilon, t, "general")
    log_fail = v * (math.log1p(-epsilon / 256.0) / math.log(2.0)) + t
    return (math.log2(epsilon) - 8.0) - log_fail


@dataclass(frozen=True)
class GuaranteeReport:
    epsilon: float
    t: float
    v_used: int
    win_all_probability: float
    applicable: bool
    succeed_bound: float
    succeed_verdict: str
    cond_bound: float
    cond_verdict: str
    verdict: str
    scalar_margin_log2: float | None
    notes: tuple[str, ...] = field(default_factory=tuple)


def _bound_verdict(ci: tuple[float, float] | None, bound: float, samples: int) -> str:
    """consistent: data does not refute p >= bound; violated: whole CI below."""
    if ci is None:
        return "inconclusive"
    if ci[1] >= bound:
        return "consistent"
    return "violated" if samples >= MIN_SUCCESSES_FOR_VERDICT else "inconclusive"


def guarantee_report(config: ProtocolConfig, model, stats: ProtocolStats) -> GuaranteeReport:
    """Compare simulated estimates against the acceptance guarantees."""
    if stats.v_used != config.resolved_v() or stats.n != config.n:
        raise ValueError("stats were not produced from this config")
    if stats.variant != config.variant:
        raise ValueError("stats variant does not match config")
    p_all = float(model.win_all_probability(config.n))
    succeed_bound = 2.0 ** -config.t
    cond_bound = 1.0 - config.epsilon / 256.0
    applicable = p_all >= succeed_bound
    notes = []
    if config.variant == "projection":
        notes.append("conditional threshold fixed at 1 - epsilon/256 for both variants")
    if applicable:
        sv = _bound_verdict(stats.succeed_ci, succeed_bound, stats.trials_effective)
        cv = _bound_verdict(stats.mostwin_ci, cond_bound, stats.successes)
        margin = (checking_bound_margin(config.epsilon, config.t, stats.v_used)
                  if config.variant == "general" and config.v_override is None else None)
    else:
        notes.append("guarantee not applicable: model win-all probability below 2^-t")
        sv = cv = "inconclusive"
        margin = None
    order = {"violated": 2, "inconclusive": 1, "consistent": 0}
    return GuaranteeReport(
        epsilon=config.epsilon, t=config.t, v_used=stats.v_used,
        win_all_probability=p_all, applicable=applicable,
        succeed_bound=succeed_bound, succeed_verdict=sv,
        cond_bound=cond_bound, cond_verdict=cv,
        verdict=max((sv, cv), key=order.__getitem__), scalar_margin_log2=margin,
        notes=tuple(notes),
    )


CSV_HEADER: Sequence[str] = (
    "variant", "n", "epsilon", "t", "v", "trials",
    "p_succeed", "ci_lo", "ci_hi", "p_cond", "ci_lo", "ci_hi", "verdict",
)


def stats_csv_lines(stats: ProtocolStats, verdict: str) -> list[str]:
    cond = (stats.p_mostwin_given_succeed_hat, *(stats.mostwin_ci or (None, None)))
    row = [
        stats.variant, stats.n, stats.epsilon, stats.t, stats.v_used,
        stats.trials_effective,
        repr(stats.p_succeed_hat), repr(stats.succeed_ci[0]), repr(stats.succeed_ci[1]),
        *("" if c is None else repr(c) for c in cond),
        verdict,
    ]
    return [",".join(CSV_HEADER), ",".join(str(c) for c in row)]
