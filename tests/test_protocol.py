import math

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
    _TABLE_MAX,
    _acceptance_table,
    _binomial_cdf,
    _binomial_pmf,
    _binomial_table,
    _guided_search,
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
        counts = m.sample_wins(rng_for(3), 8, 4000)
        assert counts.shape == (4000,)
        assert set(np.unique(counts)) <= {6, 8}
        frac_all = (counts == 8).mean()
        assert abs(frac_all - 0.5) < 0.03

    def test_iid_counts_are_binomial(self):
        counts = IidBernoulli(0.3).sample_wins(rng_for(4), 10, 50_000)
        assert counts.shape == (50_000,)
        assert counts.min() >= 0 and counts.max() <= 10
        assert abs(counts.mean() - 3.0) < 0.03
        assert abs(counts.var() - 2.1) < 0.06

    def test_strategy_backed_round_rate(self):
        res = entangled_value_seesaw(chsh(), d=2, restarts=3, iters=60, seed=0)
        model = StrategyBacked(chsh(), res.strategy)
        counts = model.sample_wins(rng_for(0), 2, 50_000)
        assert abs(counts.mean() / 2 - model.omega) < 0.006
        assert abs((counts == 2).mean() - model.omega**2) < 0.008
        assert_allclose(model.win_all_probability(2), model.omega**2)

    def test_strategy_backed_many_rounds(self):
        res = entangled_value_seesaw(chsh(), d=2, restarts=2, iters=40, seed=0)
        model = StrategyBacked(chsh(), res.strategy)
        counts = model.sample_wins(rng_for(1), 8, 4000)
        assert abs(counts.mean() / 8 - model.omega) < 0.02

    def test_strategy_backed_shares_the_iid_draw(self, chsh_strategy):
        model = chsh_strategy
        for n in (8, 256, _TABLE_MAX):
            assert np.array_equal(model.sample_wins(rng_for(5), n, 100),
                                  IidBernoulli(model.omega).sample_wins(rng_for(5), n, 100))

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
    """An i.i.d. win count W is one uniform looked up in a Binomial(n, w) CDF
    table while the table has n + 1 <= 2^16 entries, numpy's binomial beyond."""

    @pytest.mark.parametrize("n", [1, 8, 256, (1 << 16) - 2])
    @pytest.mark.parametrize("w", [0.0, 0.3, math.cos(math.pi / 8) ** 2, 0.998, 1.0])
    def test_table_matches_exact_pmf(self, n, w):
        exact = np.array(_exact_pmf(n, w))
        pmf = _binomial_pmf(n, w)
        big = exact >= 1e-300
        assert np.all(np.abs(pmf[big] - exact[big]) <= 1e-12 * exact[big])
        assert np.all(pmf[~big] <= 1e-300)
        cdf = _binomial_cdf(n, w)
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0)
        assert np.abs(cdf - np.cumsum(exact)).max() <= 1e-13

    @pytest.mark.parametrize("n", [_TABLE_MAX - 1, _TABLE_MAX])
    def test_both_sides_of_the_table_bound(self, n):
        w, trials = 0.3, 20_000
        counts = IidBernoulli(w).sample_wins(rng_for(6), n, trials)
        rng = rng_for(6)
        if n + 1 <= _TABLE_MAX:
            want = np.searchsorted(_binomial_cdf(n, w), rng.random(trials), side="right")
        else:
            want = rng.binomial(n, w, size=trials)
        assert np.array_equal(counts, want)
        se = math.sqrt(n * w * (1 - w) / trials)
        assert abs(counts.mean() - n * w) <= 5 * se


class TestGuidedSearch:
    """The guide-table lookup returns np.searchsorted(cdf, u, side="right")
    exactly, also on the uniforms where a step or a bucket edge could slip."""

    @staticmethod
    def adversarial_uniforms(cdf: np.ndarray, buckets: int) -> np.ndarray:
        u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.arange(buckets) / buckets,
                            [0.0, 1.0 - 2.0**-53]])
        return u[u < 1.0]                  # rng.random draws from [0, 1)

    @pytest.mark.parametrize("n", [1, 8, 256, (1 << 16) - 2])
    @pytest.mark.parametrize("w", [0.0, 0.3, math.cos(math.pi / 8) ** 2, 0.998, 1.0])
    def test_matches_searchsorted(self, n, w):
        cdf, guide = _binomial_table(n, w)
        assert guide.size >= 4 * (n + 1) and guide.size & (guide.size - 1) == 0
        u = self.adversarial_uniforms(cdf, guide.size)
        want = np.searchsorted(cdf, u, side="right")
        assert np.array_equal(_guided_search(cdf, guide, u), want)
        uniform = rng_for(n, 7).random(4096)
        assert np.array_equal(_guided_search(cdf, guide, uniform),
                              np.searchsorted(cdf, uniform, side="right"))

    def test_binary_search_fallback(self):
        # w = 0.998 puts nearly no mass on most of the 257 counts, so bucket 0
        # spans many CDF steps: those uniforms need more than the one step
        # forward, and only the fallback can return the right index
        cdf, guide = _binomial_table(256, 0.998)
        u = self.adversarial_uniforms(cdf, guide.size)
        want = np.searchsorted(cdf, u, side="right")
        start = guide[(u * guide.size).astype(np.intp)]
        assert (want - start > 1).sum() >= 10
        assert np.array_equal(_guided_search(cdf, guide, u), want)
        # any guide that never starts past the answer gives the same index
        zeros = np.zeros_like(guide)
        assert np.array_equal(_guided_search(cdf, zeros, u), want)


class TestAcceptanceTable:
    """run_protocol reads (W/n)^v from a table; it must hold the bits that one
    pow per trial gives, in any position of any array."""

    # the benchmark's (n, v) at both variants' v, and v_override cases
    @pytest.mark.parametrize("n, v", [(256, 2304), (256, 320), (8, 2304), (8, 320),
                                      (16, 3), (20, 16), (256, 1), (256, 2),
                                      (256, 10**300)])
    def test_table_is_pow_per_trial(self, n, v):
        table = _acceptance_table(n, v)
        assert table.shape == (n + 1,) and table[n] == 1.0
        single = np.concatenate([(np.array([k]) / n) ** v for k in range(n + 1)])
        assert np.array_equal(table, single)
        # every k also first in its own array, so it meets each SIMD lane
        assert all(((np.arange(k, n + 1) / n) ** v)[0] == table[k] for k in range(n + 1))
        wins = rng_for(n, 8).integers(0, n + 1, size=4096)
        assert np.array_equal(table[wins], (wins / n) ** v)

    def test_table_bound(self):
        # a run reads the table while n + 1 <= _TABLE_MAX; above, pow per trial
        for n in (_TABLE_MAX - 1, _TABLE_MAX):
            cfg = ProtocolConfig(n=n, epsilon=1.0, t=0.0, trials=300, v_override=5_000,
                                 seed=3)
            rng = rng_for(3, 301, 0)
            wins = IidBernoulli(0.9999).sample_wins(rng, n, 300)
            ok = rng.random(300) < (wins / n) ** 5_000
            stats = run_protocol(cfg, IidBernoulli(0.9999))
            assert stats.successes == int(ok.sum())


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
        # chunk generators come from rng_block; 258 chunks cross a derivation
        # block.  Chunk i draws 4,096 win-count uniforms, looked up in the
        # CDF table, then 4,096 inspection uniforms.
        n, v, seed, w = 16, 3, 5, 0.9
        cfg = ProtocolConfig(n=n, epsilon=1.0, t=2.0, trials=257 * 4096 + 7, v_override=v,
                             seed=seed)
        table = _binomial_cdf(n, w)
        successes = mostwin = 0
        for i in range(chunk_count(cfg.trials)):
            rng, size = rng_for(seed, 301, i), min(4096, cfg.trials - 4096 * i)
            wins = np.searchsorted(table, rng.random(size), side="right")
            ok = rng.random(size) < (wins / n) ** v
            successes += int(ok.sum())
            mostwin += int((ok & (wins >= cfg.win_threshold() - 1e-9)).sum())
        assert chunk_count(cfg.trials) == 258
        stats = run_protocol(cfg, IidBernoulli(w))
        assert (stats.successes, stats.mostwin_successes) == (successes, mostwin)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_chunks_mirror_per_trial_reference(self, variant):
        # both variants, for an i.i.d. and a two-branch model, drawn per
        # trial: W, then one inspection uniform per trial, then under
        # projection one hash value per mismatched trial
        n, v, seed, bits, q, m = 256, 2304, 4, 2, 0.99, 255
        cfg = ProtocolConfig(n=n, epsilon=1.0, t=1.0, trials=3 * 4096 + 11, seed=seed,
                             variant=variant, v_override=v, hash_bits=bits)
        iid_table = _binomial_cdf(n, 0.998)
        draws = {
            "iid": (IidBernoulli(0.998), lambda rng, size: np.searchsorted(
                iid_table, rng.random(size), side="right")),
            "waop": (WinAllOrPartial(q, m / n),
                     lambda rng, size: np.where(rng.random(size) < q, n, m)),
        }
        for model, wins_of in draws.values():
            successes = mostwin = mismatches = mismatch_accepts = 0
            for i in range(chunk_count(cfg.trials)):
                rng, size = rng_for(seed, 301, i), min(4096, cfg.trials - 4096 * i)
                wins = wins_of(rng, size)
                ok = rng.random(size) < (wins / n) ** v
                if variant == "projection":
                    collide = rng.integers(0, 1 << bits, size=int((~ok).sum())) == 0
                    ok[~ok] = collide
                    mismatches += collide.size
                    mismatch_accepts += int(collide.sum())
                successes += int(ok.sum())
                mostwin += int((ok & (wins >= cfg.win_threshold() - 1e-9)).sum())
            stats = run_protocol(cfg, model)
            assert (stats.successes, stats.mostwin_successes, stats.mismatch_trials,
                    stats.mismatch_accepts) == (successes, mostwin, mismatches,
                                                mismatch_accepts)
            assert 0 < successes < cfg.trials
            assert (mismatches > 0) == (variant == "projection")

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
        # the 0-bit draw is the general one: all zeros, and no state consumed
        rng = rng_for(0, 301, 0)
        state = rng.bit_generator.state
        assert not rng.integers(0, 1 << 0, size=50).any()
        assert rng.bit_generator.state == state

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
