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
    Gf2LinearHash,
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
)
from entgames.random_states import rng_for


def count_pmf(model, n: int, k: int) -> float:
    """P(W = k) for the two closed-form round models."""
    if isinstance(model, IidBernoulli):
        return math.comb(n, k) * model.w**k * (1 - model.w) ** (n - k)
    m = model.partial_win_count(n)
    return model.q * (k == n) + (1 - model.q) * (k == m)


def binom_expect_match(n: int, v: int, w: float) -> float:
    # closed form for iid rounds: E[(K/n)^v], K ~ Binomial(n, w)
    return sum(count_pmf(IidBernoulli(w), n, k) * (k / n) ** v for k in range(n + 1))


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

    def test_strategy_backed_errors(self):
        # a strategy for another game's arity is refused by strategy_win_probability
        res = entangled_value_seesaw(chsh(), d=2, restarts=2, iters=40, seed=0)
        with pytest.raises(ValueError, match="arity does not match the game"):
            StrategyBacked(repeat(chsh(), 2), res.strategy)


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
        n, v = cfg.n, cfg.resolved_v()
        assert v == {"general": 2304, "projection": 320}[variant]
        pmf = np.array([count_pmf(model, n, k) for k in range(n + 1)])
        match = pmf * (np.arange(n + 1) / n) ** v     # P(W = k, all v inspections won)
        collide = 2.0 ** -cfg.resolved_hash_bits() if variant == "projection" else 0.0
        accept = match + (pmf - match) * collide
        mostly = np.arange(n + 1) >= cfg.win_threshold()
        p_succ = accept.sum()
        p_cond = accept[mostly].sum() / p_succ
        stats = run_protocol(cfg, model)
        se = math.sqrt(p_succ * (1 - p_succ) / cfg.trials)
        assert abs(stats.p_succeed_hat - p_succ) <= 5 * se
        se_cond = max(math.sqrt(p_cond * (1 - p_cond) / stats.successes),
                      1 / stats.successes)     # p_cond is exactly 1 for the two-branch model
        assert abs(stats.p_mostwin_given_succeed_hat - p_cond) <= 5 * se_cond

    def test_deterministic_and_seed_sensitive(self):
        cfg = ProtocolConfig(n=8, epsilon=0.5, t=1.0, trials=1500, v_override=4, seed=5)
        a = run_protocol(cfg, IidBernoulli(0.8))
        b = run_protocol(cfg, IidBernoulli(0.8))
        assert a == b
        c = run_protocol(ProtocolConfig(n=8, epsilon=0.5, t=1.0, trials=1500,
                                        v_override=4, seed=6), IidBernoulli(0.8))
        assert a.successes != c.successes

    def test_chunk_i_draws_from_rng_for(self):
        # chunk generators come from rng_block; 301 chunks cross a derivation block
        n, v, seed, model = 16, 3, 5, IidBernoulli(0.9)
        cfg = ProtocolConfig(n=n, epsilon=1.0, t=2.0, trials=300 * 512 + 7, v_override=v,
                             seed=seed)
        successes = 0
        for i in range(chunk_count(cfg.trials)):
            rng, size = rng_for(seed, 301, i), min(512, cfg.trials - 512 * i)
            wins = model.sample_wins(rng, n, size)
            successes += int((rng.random(size) < (wins / n) ** v).sum())
        assert chunk_count(cfg.trials) == 301
        assert run_protocol(cfg, model).successes == successes

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
    def test_linearity(self):
        rng = rng_for(12)
        h = Gf2LinearHash.random(rng, 16, 5)
        for _ in range(50):
            x = int(rng.integers(0, 1 << 16))
            y = int(rng.integers(0, 1 << 16))
            assert h(x ^ y) == h(x) ^ h(y)
        assert h(0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Gf2LinearHash(4, 2, (1,))            # wrong row count
        with pytest.raises(ValueError):
            Gf2LinearHash(4, 1, (1 << 5,))       # mask wider than input
        h = Gf2LinearHash(4, 1, (0b1011,))
        with pytest.raises(ValueError):
            h(1 << 4)

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
