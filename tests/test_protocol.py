import math
import time

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from entgames.config import BudgetError
from entgames.games import chsh, entangled_value_seesaw, repeat
from entgames.protocol import (
    CSV_HEADER,
    VARIANTS,
    IidBernoulli,
    ProtocolConfig,
    StrategyBacked,
    WinAllOrPartial,
    checking_bound_margin,
    chunk_count,
    exact_collision_probability,
    guarantee_report,
    required_v,
    run_protocol,
    stats_csv_lines,
    wilson_interval,
    _CHUNK,
    _TABLE_MAX,
    _acceptance,
    _binomial_pmf,
    _binomial_window,
)
from entgames.random_states import rng_for


def count_pmf(model, n: int, k: int) -> float:
    """P(W = k) for each round model."""
    if isinstance(model, WinAllOrPartial):
        m = model.partial_win_count(n)
        return model.q * (k == n) + (1 - model.q) * (k == m)
    w = model.omega if isinstance(model, StrategyBacked) else model.w
    return math.comb(n, k) * w**k * (1 - w) ** (n - k)


def exact_probabilities(cfg: ProtocolConfig, model) -> tuple[float, float]:
    """Exact P(accept) and P(most rounds won | accept), as sums over W of
    P(W = k) P(accept | W = k)."""
    n, v = cfg.n, cfg.resolved_v()
    pmf = np.array([count_pmf(model, n, k) for k in range(n + 1)])
    match = pmf * (np.arange(n + 1) / n) ** v     # P(W = k, all v inspections won)
    collide = 2.0 ** -cfg.resolved_hash_bits() if cfg.variant == "projection" else 0.0
    accept = match + (pmf - match) * collide
    mostly = np.arange(n + 1) >= cfg.win_threshold()
    return accept.sum(), accept[mostly].sum() / accept.sum()


def binom_expect_match(n: int, v: int, w: float) -> float:
    # closed form for iid rounds: E[(K/n)^v], K ~ Binomial(n, w)
    return sum(count_pmf(IidBernoulli(w), n, k) * (k / n) ** v for k in range(n + 1))


def multinomial_by_hand(rng, trials: int, probs) -> list[int]:
    """numpy's multinomial: one binomial per value, of the trials left at the
    value's share of the probability left, until no trial is left; the last
    value takes the rest."""
    counts, left, p_left = [0] * len(probs), trials, 1.0
    for j, p in enumerate(probs[:-1]):
        counts[j] = int(rng.binomial(left, min(1.0, p / p_left)))
        left -= counts[j]
        if left <= 0:
            break
        p_left -= p
    if left > 0:
        counts[-1] = left
    return counts


def binomials_by_hand(rng, counts, probs) -> list[int]:
    """One binomial per entry, in order; counts of at most one take one
    uniform per entry instead, a success below p."""
    if max(counts) <= 1:
        return [c * int(u < p) for c, u, p in zip(counts, rng.random(len(counts)), probs)]
    return [int(rng.binomial(c, p)) for c, p in zip(counts, probs)]


def run_by_hand(cfg: ProtocolConfig, model) -> tuple[int, int, int, int]:
    """(successes, mostwin, mismatches, mismatch accepts) of a run, its draws
    rebuilt entry by entry from rng_for(seed, 301, chunk): the histogram of W
    (a multinomial of the pmf window, one binomial splitting a two-branch
    model's trials, or one binomial per trial past _TABLE_MAX), then the
    accepted trials at each W, then under projection the hash collisions."""
    n, v, trials = cfg.n, cfg.resolved_v(), cfg.trials
    w = getattr(model, "omega", getattr(model, "w", None))
    per_trial = w is not None and n + 1 > _TABLE_MAX
    step = _CHUNK if per_trial else trials
    successes = mostwin = mismatches = mismatch_accepts = 0
    for i in range(-(-trials // step)):
        rng, size = rng_for(cfg.seed, 301, i), min(step, trials - i * step)
        if per_trial:
            values, counts = list(rng.binomial(n, w, size=size)), [1] * size
        elif w is None:
            won_all = int(rng.binomial(size, model.q))
            values, counts = [n, model.partial_win_count(n)], [won_all, size - won_all]
        else:
            pmf = _binomial_pmf(n, w)
            lo, hi = np.flatnonzero(pmf)[[0, -1]]
            values = list(range(lo, hi + 1))
            counts = multinomial_by_hand(rng, size, list(pmf[lo:hi + 1]))
        values, counts = zip(*[(k, c) for k, c in zip(values, counts) if c])
        accept = (np.array(values) / n) ** v
        ok = binomials_by_hand(rng, counts, accept)
        if cfg.variant == "projection":
            miss = [c - a for c, a in zip(counts, ok)]
            hits = binomials_by_hand(rng, miss, [2.0 ** -cfg.resolved_hash_bits()] * len(miss))
            ok = [a + h for a, h in zip(ok, hits)]
            mismatches += sum(miss)
            mismatch_accepts += sum(hits)
        successes += sum(ok)
        mostwin += sum(a for k, a in zip(values, ok) if k >= cfg.win_threshold() - 1e-9)
    return successes, mostwin, mismatches, mismatch_accepts


def stats_tuple(stats) -> tuple[int, int, int, int]:
    return (stats.successes, stats.mostwin_successes, stats.mismatch_trials,
            stats.mismatch_accepts)


# (n, variant, trials, model) of the benchmark's six protocol configs, at
# epsilon = t = 1; None is the CHSH see-saw strategy
BENCHMARK_CONFIGS = {
    "general_iid": (256, "general", 20_000, IidBernoulli(0.998)),
    "general_waop": (256, "general", 20_000, WinAllOrPartial(0.99, 255 / 256)),
    "projection_iid": (256, "projection", 20_000, IidBernoulli(0.998)),
    "projection_waop": (256, "projection", 20_000, WinAllOrPartial(0.99, 255 / 256)),
    "strategy_n8": (8, "general", 20_000, None),
    "readme_n256": (256, "general", 100_000, None),
}


@pytest.fixture(scope="module")
def chsh_strategy():
    res = entangled_value_seesaw(chsh(), d=2, restarts=8, iters=60, seed=0)
    return StrategyBacked(chsh(), res.strategy)


class TestRequiredV:
    def test_pinned_values(self):
        assert required_v(1.0, 0.0) == 2048
        assert required_v(1.0, 12.0) == 5120
        assert required_v(1.0, 13.0, "projection") == 704

    def test_formula(self):
        for eps, t in ((0.05, 0.0), (0.3, 7.0), (0.9, 20.0)):
            log_term = t + math.log2(1 / eps)
            assert required_v(eps, t) == math.ceil(256 / eps * (log_term + 8))
            assert required_v(eps, t, "projection") == math.ceil(32 / eps * (log_term + 9))

    def test_projection_needs_fewer(self):
        for eps, t in ((0.05, 0.0), (0.5, 10.0), (1.0, 3.0)):
            assert required_v(eps, t, "projection") < required_v(eps, t, "general")

    def test_errors(self):
        with pytest.raises(ValueError):
            required_v(0.0, 1.0)
        for t in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="t must be"):
                required_v(0.5, t)
        with pytest.raises(ValueError):
            required_v(0.5, 1.0, "compressed")

    @pytest.mark.parametrize("eps, t", [(1.0, 1e308), (5e-324, 0.0), (1e-300, 1e10)])
    def test_unbounded_v_is_an_error(self, eps, t):
        # a required v too large for a float: no OverflowError from ceil(inf)
        for variant in VARIANTS:
            with pytest.raises(ValueError, match="required v unbounded"):
                required_v(eps, t, variant)
        assert required_v(1.0, 1e300) == math.ceil(256.0 * (1e300 + 8.0))


class TestConfig:
    def test_validation(self):
        good = dict(n=8, epsilon=0.5, t=2.0, trials=10)
        ProtocolConfig(**good)
        for bad in (dict(n=0), dict(epsilon=0.0), dict(epsilon=1.5), dict(t=-1.0),
                    dict(trials=0), dict(variant="other"), dict(v_override=0),
                    dict(hash_bits=63)):
            with pytest.raises(ValueError):
                ProtocolConfig(**{**good, **bad})

    @pytest.mark.parametrize("eps, t, variant", [
        (0.0, 1.0, "general"), (1.5, 1.0, "general"), (0.5, -1.0, "general"),
        (0.5, math.inf, "general"), (0.5, math.nan, "projection"), (0.5, 1.0, "other"),
        (1.0, 1e308, "general"), (5e-324, 0.0, "projection"),
    ])
    def test_shares_required_v_checks(self, eps, t, variant):
        with pytest.raises(ValueError) as direct:
            required_v(eps, t, variant)
        with pytest.raises(ValueError) as config:
            ProtocolConfig(n=8, epsilon=eps, t=t, trials=10, variant=variant)
        assert str(config.value) == str(direct.value)

    def test_n_bound(self):
        for n in (0, 1 << 63):
            with pytest.raises(ValueError, match=r"n must lie in \[1, 2\^63 - 1\]"):
                ProtocolConfig(n=n, epsilon=1.0, t=0.0, trials=10)
        # numpy's binomial takes an int64 round count, so the largest n runs
        cfg = ProtocolConfig(n=(1 << 63) - 1, epsilon=1.0, t=0.0, trials=10, v_override=1)
        assert run_protocol(cfg, IidBernoulli(0.5)).trials_effective == 10

    def test_v_override_runs_at_any_finite_t(self):
        # no required v is formed, and the general variant never hashes
        big = dict(n=8, epsilon=1.0, t=1e308, trials=10, v_override=2)
        assert run_protocol(ProtocolConfig(**big), IidBernoulli(1.0)).successes == 10
        with pytest.raises(ValueError, match=r"ceil\(2t\)"):
            ProtocolConfig(**big, variant="projection")
        cfg = ProtocolConfig(**big, variant="projection", hash_bits=3)
        assert run_protocol(cfg, IidBernoulli(1.0)).successes == 10

    def test_default_hash_bits_checked_for_projection_only(self):
        # ceil(2t) = 80 hash bits: the general variant never hashes
        big = dict(n=256, epsilon=1.0, t=40.0, trials=10)
        stats = run_protocol(ProtocolConfig(**big), IidBernoulli(1.0))
        assert stats.successes == 10 and stats.mismatch_trials == 0
        with pytest.raises(ValueError, match=r"t = 40 .*ceil\(2t\)"):
            ProtocolConfig(**big, variant="projection")
        cfg = ProtocolConfig(**big, variant="projection", hash_bits=62)
        assert cfg.resolved_hash_bits() == 62
        for variant in VARIANTS:
            with pytest.raises(ValueError, match=r"hash_bits must lie in \[0, 62\]"):
                ProtocolConfig(**big, variant=variant, hash_bits=63)

    def test_resolved_fields(self):
        c = ProtocolConfig(n=8, epsilon=0.5, t=2.5, trials=10)
        assert c.resolved_v() == required_v(0.5, 2.5)
        assert c.resolved_hash_bits() == 5
        assert ProtocolConfig(n=8, epsilon=0.5, t=2.5, trials=10,
                              v_override=7).resolved_v() == 7
        assert ProtocolConfig(n=8, epsilon=0.5, t=2.5, trials=10,
                              hash_bits=3).resolved_hash_bits() == 3

    def test_win_threshold(self):
        c = ProtocolConfig(n=256, epsilon=1.0, t=0.0, trials=1)
        assert c.win_threshold() == 255.0


class TestWilson:
    def test_brackets_estimate(self):
        for s, n in ((0, 50), (25, 50), (50, 50), (3, 1000)):
            lo, hi = wilson_interval(s, n)
            assert 0.0 <= lo <= s / n <= hi <= 1.0

    def test_shrinks_with_data(self):
        lo1, hi1 = wilson_interval(50, 100)
        lo2, hi2 = wilson_interval(5000, 10000)
        assert hi2 - lo2 < hi1 - lo1

    def test_degenerate_total(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_exact_ends_at_none_and_all(self):
        # computed, the upper end of an all-success run rounds to 1 - 2^-53
        # at 6,251 of the totals up to 20,000 (7 is the first), and a t = 0
        # run, whose bound is 2^0 = 1, then reads "violated" at p_hat = 1
        for total in range(1, 20_001):
            assert wilson_interval(total, total)[1] == 1.0
            assert wilson_interval(0, total)[0] == 0.0


class TestModels:
    def test_iid_win_all(self):
        assert_allclose(IidBernoulli(0.7).win_all_probability(5), 0.7**5)

    def test_iid_rejects_range(self):
        with pytest.raises(ValueError):
            IidBernoulli(1.2)

    def test_two_branch_win_all(self):
        assert WinAllOrPartial(0.3, 0.5).win_all_probability(4) == 0.3
        assert WinAllOrPartial(0.3, 1.0).win_all_probability(4) == 1.0

    def test_two_branch_row_counts(self):
        m = WinAllOrPartial(0.5, 0.75)
        values, counts = m.sample_wins(rng_for(3), 8, 4000)
        assert counts.sum() == 4000 and counts.min() > 0
        assert set(values) <= {6, 8}
        frac_all = counts[values == 8].sum() / 4000
        assert abs(frac_all - 0.5) < 0.03

    def test_two_branch_clamps_partial_count(self):
        # round(f * n) is 2^63 in floats at f = 1, n = 2^63 - 1: more rounds
        # than were played, which read as a partial win that lost the run
        n = (1 << 63) - 1
        model = WinAllOrPartial(0.5, 1.0)
        assert model.partial_win_count(n) == n
        assert model.win_all_probability(n) == 1.0
        cfg = ProtocolConfig(n=n, epsilon=1.0, t=1.0, trials=1000, seed=0)
        stats = run_protocol(cfg, model)
        assert stats.successes == stats.mostwin_successes == 1000
        assert guarantee_report(cfg, model, stats).verdict == "consistent"

    def test_iid_counts_are_binomial(self):
        values, counts = IidBernoulli(0.3).sample_wins(rng_for(4), 10, 50_000)
        assert counts.sum() == 50_000 and counts.min() > 0
        assert values.min() >= 0 and values.max() <= 10
        mean = (values * counts).sum() / 50_000
        assert abs(mean - 3.0) < 0.03
        assert abs(((values - mean) ** 2 * counts).sum() / 50_000 - 2.1) < 0.06

    def test_strategy_backed_round_rate(self):
        res = entangled_value_seesaw(chsh(), d=2, restarts=3, iters=60, seed=0)
        model = StrategyBacked(chsh(), res.strategy)
        values, counts = model.sample_wins(rng_for(0), 2, 50_000)
        assert abs((values * counts).sum() / 100_000 - model.omega) < 0.006
        assert abs(counts[values == 2].sum() / 50_000 - model.omega**2) < 0.008
        assert_allclose(model.win_all_probability(2), model.omega**2)

    def test_strategy_backed_many_rounds(self):
        res = entangled_value_seesaw(chsh(), d=2, restarts=2, iters=40, seed=0)
        model = StrategyBacked(chsh(), res.strategy)
        values, counts = model.sample_wins(rng_for(1), 8, 4000)
        assert abs((values * counts).sum() / (8 * 4000) - model.omega) < 0.02

    def test_strategy_backed_shares_the_iid_draw(self, chsh_strategy):
        model, iid = chsh_strategy, IidBernoulli(chsh_strategy.omega)
        for n in (8, 256, _TABLE_MAX):
            mine = model.sample_wins(rng_for(5), n, 100)
            theirs = iid.sample_wins(rng_for(5), n, 100)
            assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))
            dist = model.win_distribution(n)
            assert (dist is None) == (n + 1 > _TABLE_MAX)
            if dist is not None:
                assert all(np.array_equal(a, b) for a, b in zip(dist, iid.win_distribution(n)))

    def test_strategy_backed_errors(self):
        # a strategy for another game's arity is refused by strategy_win_probability
        res = entangled_value_seesaw(chsh(), d=2, restarts=2, iters=40, seed=0)
        with pytest.raises(ValueError, match="arity does not match the game"):
            StrategyBacked(repeat(chsh(), 2), res.strategy)


def _exact_pmf(n: int, w: float) -> list[float]:
    """Binomial(n, w) pmf of the float w, with 1 - w taken exactly, at 40 digits."""
    if w in (0.0, 1.0):
        return [float(k == (0 if w == 0.0 else n)) for k in range(n + 1)]
    with mp.workdps(40):
        ratio = mp.mpf(w) / (1 - mp.mpf(w))
        p, out = (1 - mp.mpf(w)) ** n, []
        for k in range(n + 1):
            out.append(float(p))
            p *= ratio * (n - k) / (k + 1)
    return out


class TestWinCountDraw:
    """An i.i.d. run draws the histogram of W as one multinomial over the
    nonzero window of the Binomial(n, w) pmf while the pmf has n + 1 <= 2^16
    entries, and W per trial with numpy's binomial beyond."""

    @pytest.mark.parametrize("n", [1, 8, 256, (1 << 16) - 2])
    @pytest.mark.parametrize("w", [0.0, 0.3, math.cos(math.pi / 8) ** 2, 0.998, 1.0])
    def test_table_matches_exact_pmf(self, n, w):
        exact = np.array(_exact_pmf(n, w))
        pmf = _binomial_pmf(n, w)
        big = exact >= 1e-300
        assert np.all(np.abs(pmf[big] - exact[big]) <= 1e-12 * exact[big])
        assert np.all(pmf[~big] <= 1e-300)
        # the window holds every count of nonzero pmf, and only those
        values, probs = _binomial_window(n, w)
        assert np.array_equal(values, np.flatnonzero(pmf))
        assert np.array_equal(probs, pmf[values]) and probs.min() > 0.0

    @pytest.mark.parametrize("n", [_TABLE_MAX - 1, _TABLE_MAX])
    def test_both_sides_of_the_table_bound(self, n):
        w, trials = 0.3, 20_000
        model = IidBernoulli(w)
        values, counts = model.sample_wins(rng_for(6), n, trials)
        rng = rng_for(6)
        if n + 1 <= _TABLE_MAX:
            want = np.array(multinomial_by_hand(rng, trials, list(_binomial_window(n, w)[1])))
            assert np.array_equal(counts, want[want > 0])
            assert model.win_distribution(n) is not None
        else:
            assert np.array_equal(values, rng.binomial(n, w, size=trials))
            assert np.array_equal(counts, np.ones(trials))
            assert model.win_distribution(n) is None
        se = math.sqrt(n * w * (1 - w) / trials)
        assert abs((values * counts).sum() / trials - n * w) <= 5 * se

    @pytest.mark.parametrize("n, w", [(8, 0.7), (256, 0.998), (256, 0.3), (4096, 0.5)])
    def test_histogram_matches_exact_pmf(self, n, w):
        # every W with enough expected trials is within 5 SE of trials * pmf,
        # and so is the mass of all the others together
        trials = 1_000_000
        values, counts = IidBernoulli(w).sample_wins(rng_for(n, 9), n, trials)
        drawn = np.zeros(n + 1, dtype=np.int64)
        drawn[values] = counts
        expected = trials * np.array(_exact_pmf(n, w))
        binned = expected >= 25
        rest = np.array([drawn[~binned].sum()]), np.array([expected[~binned].sum()])
        for got, want in ((drawn[binned], expected[binned]), rest):
            se = np.sqrt(want * (1 - want / trials))
            assert np.all(np.abs(got - want) <= 5 * np.maximum(se, 1.0))
        assert binned.sum() >= 5


class TestAcceptanceTable:
    """run_protocol takes (W/n)^v for the W a run drew; each must have the
    bits of one pow per trial, in any position of any array."""

    # the benchmark's (n, v) at both variants' v, and v_override cases
    @pytest.mark.parametrize("n, v", [(256, 2304), (256, 320), (8, 2304), (8, 320),
                                      (16, 3), (20, 16), (256, 1), (256, 2),
                                      (256, 10**300)])
    def test_table_is_pow_per_trial(self, n, v):
        table = _acceptance(np.arange(n + 1), n, v)
        assert table.shape == (n + 1,) and table[n] == 1.0
        single = np.concatenate([(np.array([k]) / n) ** v for k in range(n + 1)])
        assert np.array_equal(table, single)
        # every k also first in its own array, so it meets each SIMD lane
        assert all(((np.arange(k, n + 1) / n) ** v)[0] == table[k] for k in range(n + 1))
        wins = rng_for(n, 8).integers(0, n + 1, size=4096)
        assert np.array_equal(table[wins], _acceptance(wins, n, v))

    def test_table_bound(self):
        # below _TABLE_MAX a run draws one histogram from chunk 0; from it,
        # W per trial in chunks of _CHUNK; both rebuilt by hand
        for n in (_TABLE_MAX - 1, _TABLE_MAX):
            cfg = ProtocolConfig(n=n, epsilon=1.0, t=0.0, trials=_CHUNK + 300,
                                 v_override=5_000, seed=3)
            model = IidBernoulli(0.9999)
            assert chunk_count(cfg, model) == (1 if n + 1 <= _TABLE_MAX else 2)
            assert stats_tuple(run_protocol(cfg, model)) == run_by_hand(cfg, model)


class TestChecking:
    def test_always_winner(self):
        cfg = ProtocolConfig(n=20, epsilon=1.0, t=0.0, trials=400, v_override=16)
        stats = run_protocol(cfg, IidBernoulli(1.0))
        assert stats.successes == 400
        assert stats.p_succeed_hat == 1.0
        assert stats.p_mostwin_given_succeed_hat == 1.0
        rep = guarantee_report(cfg, IidBernoulli(1.0), stats)
        assert rep.applicable
        assert rep.verdict == "consistent"

    def test_never_winner(self):
        cfg = ProtocolConfig(n=10, epsilon=0.5, t=1.0, trials=300, v_override=4)
        stats = run_protocol(cfg, IidBernoulli(0.0))
        assert stats.successes == 0
        assert not stats.conditional_defined
        assert stats.p_mostwin_given_succeed_hat is None
        assert stats.mostwin_ci is None
        rep = guarantee_report(cfg, IidBernoulli(0.0), stats)
        assert not rep.applicable
        assert rep.verdict == rep.succeed_verdict == rep.cond_verdict == "inconclusive"
        assert rep.scalar_margin_log2 is None
        assert any("not applicable" in note for note in rep.notes)

    def test_iid_success_probability_matches_closed_form(self):
        cfg = ProtocolConfig(n=8, epsilon=1.0, t=0.0, trials=20_000, v_override=3)
        stats = run_protocol(cfg, IidBernoulli(0.7))
        truth = binom_expect_match(8, 3, 0.7)
        lo, hi = stats.succeed_ci
        assert lo <= truth <= hi

    def test_two_branch_closed_form(self):
        q, f, n, v = 0.3, 0.75, 16, 8
        cfg = ProtocolConfig(n=n, epsilon=1.0, t=2.0, trials=20_000, v_override=v)
        model = WinAllOrPartial(q, f)
        stats = run_protocol(cfg, model)
        m = model.partial_win_count(n)
        p_succ = q + (1 - q) * (m / n) ** v
        p_cond = q / p_succ                  # only the win-all branch clears the threshold
        assert stats.succeed_ci[0] <= p_succ <= stats.succeed_ci[1]
        assert stats.mostwin_ci[0] <= p_cond <= stats.mostwin_ci[1]
        rep = guarantee_report(cfg, model, stats)
        assert rep.applicable                # win-all probability 0.3 >= 2^-2
        assert rep.succeed_verdict == "consistent"
        assert rep.cond_verdict == "violated"
        assert rep.verdict == "violated"
        assert rep.scalar_margin_log2 is None   # v was overridden

    def test_threshold_integer_edge(self):
        # nwins exactly at (1 - eps/256) n must count as mostly-won
        model = WinAllOrPartial(0.0, 255 / 256)
        cfg = ProtocolConfig(n=256, epsilon=1.0, t=0.0, trials=300, v_override=1)
        stats = run_protocol(cfg, model)
        assert stats.conditional_defined
        assert stats.p_mostwin_given_succeed_hat == 1.0

    def test_strategy_backed_end_to_end(self):
        res = entangled_value_seesaw(chsh(), d=2, restarts=3, iters=60, seed=0)
        model = StrategyBacked(chsh(), res.strategy)
        cfg = ProtocolConfig(n=2, epsilon=1.0, t=0.0, trials=20_000, v_override=4)
        stats = run_protocol(cfg, model)
        w = model.omega
        truth = binom_expect_match(2, 4, w)
        assert stats.succeed_ci[0] <= truth <= stats.succeed_ci[1]

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("model", [IidBernoulli(0.998), WinAllOrPartial(0.99, 255 / 256)],
                             ids=["iid_bernoulli", "win_all_or_partial"])
    def test_paper_size_matches_closed_form(self, variant, model):
        # n = 256, eps = 1, t = 1: the paper's v = 2304 (general), 320 (projection)
        cfg = ProtocolConfig(n=256, epsilon=1.0, t=1.0, trials=100_000, seed=2,
                             variant=variant)
        assert cfg.resolved_v() == {"general": 2304, "projection": 320}[variant]
        p_succ, p_cond = exact_probabilities(cfg, model)
        stats = run_protocol(cfg, model)
        se = math.sqrt(p_succ * (1 - p_succ) / cfg.trials)
        assert abs(stats.p_succeed_hat - p_succ) <= 5 * se
        se_cond = max(math.sqrt(p_cond * (1 - p_cond) / stats.successes),
                      1 / stats.successes)     # p_cond is exactly 1 for the two-branch model
        assert abs(stats.p_mostwin_given_succeed_hat - p_cond) <= 5 * se_cond

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("label", list(BENCHMARK_CONFIGS))
    def test_benchmark_configs_match_exact_acceptance(self, label, seed, chsh_strategy):
        # the benchmark's protocol gate in tier-1: a biased win-count draw fails here
        n, variant, trials, model = BENCHMARK_CONFIGS[label]
        model = model or chsh_strategy
        cfg = ProtocolConfig(n=n, epsilon=1.0, t=1.0, trials=trials, seed=seed,
                             variant=variant)
        exact = exact_probabilities(cfg, model)[0]
        se = max(math.sqrt(exact * (1 - exact) / trials), 1 / trials)
        assert abs(run_protocol(cfg, model).p_succeed_hat - exact) <= 5 * se

    def test_deterministic_and_seed_sensitive(self):
        cfg = ProtocolConfig(n=8, epsilon=0.5, t=1.0, trials=1500, v_override=4, seed=5)
        a = run_protocol(cfg, IidBernoulli(0.8))
        b = run_protocol(cfg, IidBernoulli(0.8))
        assert a == b
        c = run_protocol(ProtocolConfig(n=8, epsilon=0.5, t=1.0, trials=1500,
                                        v_override=4, seed=6), IidBernoulli(0.8))
        assert a.successes != c.successes

    def test_chunk_i_draws_from_rng_for(self):
        # past _TABLE_MAX, W is drawn per trial: chunk i draws its 4,096 trials
        # from rng_for(seed, 301, i), and 258 chunks cross a derivation block
        n, w = (1 << 63) - 1, 0.998
        cfg = ProtocolConfig(n=n, epsilon=1.0, t=1.0, trials=257 * _CHUNK + 7, seed=5)
        assert chunk_count(cfg, IidBernoulli(w)) == 258
        stats = run_protocol(cfg, IidBernoulli(w))
        assert stats_tuple(stats) == run_by_hand(cfg, IidBernoulli(w))
        assert 0 < stats.successes < cfg.trials

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_chunks_mirror_per_trial_reference(self, variant):
        # per trial past _TABLE_MAX: W, one acceptance uniform, and under
        # projection one collision binomial per mismatched trial
        n, v, seed, bits = _TABLE_MAX, 300, 4, 2
        cfg = ProtocolConfig(n=n, epsilon=1.0, t=1.0, trials=3 * _CHUNK + 11, seed=seed,
                             variant=variant, v_override=v, hash_bits=bits)
        model = IidBernoulli(0.998)
        successes, _, mismatches, _ = want = run_by_hand(cfg, model)
        assert stats_tuple(run_protocol(cfg, model)) == want
        assert 0 < successes < cfg.trials
        assert (mismatches > 0) == (variant == "projection")

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("model", [IidBernoulli(0.998), WinAllOrPartial(0.99, 255 / 256)],
                             ids=["iid_bernoulli", "win_all_or_partial"])
    def test_histogram_mirrors_reference(self, variant, model):
        # one histogram of W from chunk 0, then the acceptances at each W and
        # under projection the collisions, rebuilt draw by draw
        cfg = ProtocolConfig(n=256, epsilon=1.0, t=1.0, trials=100_003, seed=4,
                             variant=variant, v_override=2304, hash_bits=2)
        assert chunk_count(cfg, model) == 1
        successes, mostwin, mismatches, _ = want = run_by_hand(cfg, model)
        assert stats_tuple(run_protocol(cfg, model)) == want
        assert 0 < mostwin <= successes < cfg.trials
        assert (mismatches > 0) == (variant == "projection")

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("model", [IidBernoulli(0.998), WinAllOrPartial(0.99, 255 / 256)],
                             ids=["iid_bernoulli", "win_all_or_partial"])
    def test_cost_does_not_grow_with_trials(self, variant, model):
        # 10^12 trials take one histogram, not 2.4e8 chunks, and land within
        # 5 SE (about 2.5e-6) of the exact acceptance
        cfg = ProtocolConfig(n=256, epsilon=1.0, t=1.0, trials=10**12, seed=1,
                             variant=variant)
        t0 = time.perf_counter()
        stats = run_protocol(cfg, model)
        assert time.perf_counter() - t0 < 10.0
        assert stats.trials_effective == 10**12
        exact = exact_probabilities(cfg, model)[0]
        se = math.sqrt(exact * (1 - exact) / cfg.trials)
        assert abs(stats.p_succeed_hat - exact) <= 5 * se

    def test_variant_dispatch(self):
        cfg = ProtocolConfig(n=4, epsilon=1.0, t=0.0, trials=50, v_override=2)
        pcfg = ProtocolConfig(n=4, epsilon=1.0, t=0.0, trials=50, v_override=2,
                              variant="projection")
        assert run_protocol(cfg, IidBernoulli(1.0)).variant == "general"
        assert run_protocol(pcfg, IidBernoulli(1.0)).variant == "projection"


class TestProjection:
    def test_no_mismatch_when_always_winning(self):
        cfg = ProtocolConfig(n=6, epsilon=1.0, t=2.0, trials=400, v_override=3,
                             variant="projection")
        stats = run_protocol(cfg, IidBernoulli(1.0))
        assert stats.mismatch_trials == 0
        assert stats.p_hash_accept_given_mismatch is None
        assert stats.successes == 400

    def test_mismatch_accept_rate(self):
        # all trials mismatch; acceptance = collision of a 4-bit uniform hash
        cfg = ProtocolConfig(n=6, epsilon=1.0, t=2.0, trials=20_000, v_override=1,
                             variant="projection", hash_bits=4)
        stats = run_protocol(cfg, IidBernoulli(0.0))
        assert stats.mismatch_trials == 20_000
        p = stats.p_hash_accept_given_mismatch
        assert abs(p - 2.0**-4) < 0.006
        # accepted mismatches have zero wins, below any threshold
        assert stats.mostwin_successes == 0

    def test_hash_bits_zero_always_accepts(self):
        cfg = ProtocolConfig(n=6, epsilon=1.0, t=0.0, trials=200, v_override=1,
                             variant="projection", hash_bits=0)
        stats = run_protocol(cfg, IidBernoulli(0.0))
        assert stats.successes == 200
        assert stats.p_hash_accept_given_mismatch == 1.0
        # the 0-bit draw is the general one: every mismatch collides
        assert stats.mismatch_accepts == stats.mismatch_trials == 200

    def test_projection_conditional_discrepancy_exact(self):
        # the documented discrepancy, exactly: the projection variant's v
        # (32/eps (t + log2(1/eps) + 9)) keeps the general threshold
        # 1 - eps/256, and a two-branch model whose partial branch wins 254
        # of 256 rounds is accepted after a loss often enough that P(most
        # rounds won | accept) is 0.762798 there, against 0.99999999 in general
        model, n = WinAllOrPartial(0.5, 254 / 256), 256
        cond = {}
        for variant in VARIANTS:
            cfg = ProtocolConfig(n=n, epsilon=1.0, t=1.0, trials=1, variant=variant)
            values, probs = model.win_distribution(n)
            match = probs * _acceptance(values, n, cfg.resolved_v())
            collide = 2.0 ** -cfg.resolved_hash_bits() if variant == "projection" else 0.0
            accept = match + (probs - match) * collide
            cond[variant] = accept[values >= cfg.win_threshold()].sum() / accept.sum()
            assert guarantee_report(cfg, model, run_protocol(cfg, model)).applicable
            assert cond[variant] == pytest.approx(exact_probabilities(cfg, model)[1], rel=1e-12)
        threshold = 1 - 1 / 256
        assert round(cond["projection"], 6) == 0.762798 < threshold
        assert round(cond["general"], 8) == 0.99999999 >= threshold

    def test_report_notes_fixed_threshold(self):
        cfg = ProtocolConfig(n=6, epsilon=1.0, t=0.0, trials=200, v_override=2,
                             variant="projection")
        stats = run_protocol(cfg, IidBernoulli(1.0))
        rep = guarantee_report(cfg, IidBernoulli(1.0), stats)
        assert any("1 - epsilon/256" in note for note in rep.notes)
        assert rep.scalar_margin_log2 is None


class TestGuaranteeReport:
    def test_rejects_foreign_stats(self):
        cfg = ProtocolConfig(n=8, epsilon=1.0, t=0.0, trials=50, v_override=2)
        stats = run_protocol(cfg, IidBernoulli(1.0))
        other = ProtocolConfig(n=8, epsilon=1.0, t=0.0, trials=50, v_override=3)
        with pytest.raises(ValueError):
            guarantee_report(other, IidBernoulli(1.0), stats)

    def test_small_sample_never_votes_violated(self):
        # conditional estimate far below the bound, but too few successes
        model = WinAllOrPartial(0.05, 0.5)
        cfg = ProtocolConfig(n=10, epsilon=1.0, t=4.0, trials=200, v_override=4)
        stats = run_protocol(cfg, model)
        assert 0 < stats.successes < 100
        rep = guarantee_report(cfg, model, stats)
        assert rep.cond_verdict == "inconclusive"

    def test_honest_violation_detected(self):
        cfg = ProtocolConfig(n=20, epsilon=1.0, t=15.0, trials=3000, v_override=1)
        model = IidBernoulli(0.6)
        stats = run_protocol(cfg, model)
        rep = guarantee_report(cfg, model, stats)
        assert rep.applicable                # 0.6^20 >= 2^-15
        assert stats.successes >= 100
        assert rep.cond_verdict == "violated"
        assert rep.verdict == "violated"

    def test_scalar_margin_only_for_default_v(self):
        cfg = ProtocolConfig(n=4, epsilon=1.0, t=0.0, trials=30)
        stats = run_protocol(cfg, IidBernoulli(1.0))
        rep = guarantee_report(cfg, IidBernoulli(1.0), stats)
        assert rep.scalar_margin_log2 is not None
        assert rep.scalar_margin_log2 >= 0.0


class TestBoundMargin:
    def test_matches_high_precision_oracle(self):
        for eps, t in ((0.05, 0.0), (0.3, 7.0), (1.0, 20.0)):
            v = required_v(eps, t)
            lhs = (1 - mp.mpf(eps) / 256) ** v * mp.mpf(2) ** t
            oracle = float(mp.log(mp.mpf(eps) / 256, 2) - mp.log(lhs, 2))
            assert abs(checking_bound_margin(eps, t) - oracle) <= 1e-9

    def test_nonnegative_on_grid(self):
        for eps in (0.05, 0.1, 0.25, 0.5, 1.0):
            for t in (0.0, 5.0, 10.0, 20.0):
                assert checking_bound_margin(eps, t) >= 0.0

    def test_undersized_v_fails(self):
        assert checking_bound_margin(1.0, 0.0, v=1) < 0.0


class TestHashing:
    def test_exact_collision_probability(self):
        for in_bits in (1, 4, 8, 12):
            for out_bits in (1, 3, 6):
                assert exact_collision_probability(in_bits, out_bits) == 2.0**-out_bits

    def test_exhaustive_width_budget(self):
        with pytest.raises(BudgetError):
            exact_collision_probability(13, 2)


class TestCsv:
    def test_lines_parse(self):
        cfg = ProtocolConfig(n=4, epsilon=1.0, t=0.0, trials=60, v_override=2)
        stats = run_protocol(cfg, IidBernoulli(1.0))
        header, row = stats_csv_lines(stats, "consistent")
        assert header == ",".join(CSV_HEADER)
        cells = row.split(",")
        assert cells[0] == "general"
        assert cells[-1] == "consistent"
        assert float(cells[6]) == stats.p_succeed_hat

    def test_undefined_conditional_blank(self):
        cfg = ProtocolConfig(n=4, epsilon=1.0, t=0.0, trials=60, v_override=2)
        stats = run_protocol(cfg, IidBernoulli(0.0))
        _, row = stats_csv_lines(stats, "inconclusive")
        cells = row.split(",")
        assert cells[9] == "" and cells[10] == "" and cells[11] == ""
