import numpy as np
import pytest

from entgames import random_states
from entgames.checks import CheckSpec, run_check
from entgames.games import chsh, entangled_value_seesaw
from entgames.protocol import IidBernoulli, ProtocolConfig, WinAllOrPartial, run_protocol
from entgames.random_states import (
    _RNG_BLOCK,
    _RNG_VECTOR_MIN,
    bounded_draws,
    classical_states,
    gram,
    haar_unitaries,
    haar_unitary,
    mixed_draw,
    mixed_factors,
    povms,
    projectives,
    random_mixed,
    random_projective,
    rng_block,
    rng_for,
    unitary_draw,
)

from conftest import flat_dirichlets, povm_draw, random_povm

# prefixes of the paths rng_block derives, with the trial index appended:
# the protocol's 3-part path, a 1-part path, the checks' 4-part path,
# multi-word seeds (>= 2^32 and >= 2^64) and paths longer than the 4-word pool
PREFIXES = [
    (0, 301),
    (),
    (0, 201, 12),
    (7, 201, 0),
    (2**32 + 5, 201, 3),
    (2**64 + 3, 301),
    (1, 2, 3, 4, 5),
]
# trial 0, a run longer than one derivation block, a block of large indices
# of several word widths, which takes rng_for for each trial, and a run across
# 2^32 whose first block holds one-word indices only, derived vectorized, and
# whose second mixes one and two words and so takes rng_for
TRIALS = [range(2 * _RNG_BLOCK + 17),
          [0, 2**31, 2**32 - 1, 2**32, 2**40 + 3, 5, 2**64 + 1, 2**96],
          range(2**32 - _RNG_BLOCK - 40, 2**32 + 40)]


def _draws(rng):
    """One of each draw kind the samplers and run_protocol use."""
    return [rng.integers(5), rng.integers(2, 51), rng.integers(0, 1 << 40, size=3),
            rng.integers(0, 2, size=9), rng.standard_normal((2, 9)), rng.random(4),
            rng.dirichlet(np.ones(3)), rng.exponential(1.0, size=7), rng.uniform(1.05, 8.0),
            rng.binomial(256, 0.998, size=5), rng.binomial(8, 0.3, size=5)]


class TestRngBlock:
    @pytest.mark.parametrize("prefix", PREFIXES)
    def test_equals_seed_sequence_draw_for_draw(self, prefix):
        # pins the vectorized SeedSequence/PCG64 seeding against numpy itself,
        # so a numpy change to either fails here rather than moving streams
        for trials in TRIALS:
            seen = 0
            for t, rng in zip(trials, rng_block(*prefix, trials=trials)):
                ref = np.random.default_rng(np.random.SeedSequence([*prefix, t]))
                # the whole state, with no buffered half-word (bounded_draws'
                # precondition)
                assert rng.bit_generator.state == ref.bit_generator.state, (prefix, t)
                assert rng.bit_generator.state["has_uint32"] == 0
                for a, b in zip(_draws(rng), _draws(ref)):
                    assert np.array_equal(a, b), (prefix, t)
                seen += 1
            assert seen == len(trials)

    def test_equals_rng_for(self):
        trials = range(300, 340)
        for t, rng in zip(trials, rng_block(3, 201, 5, trials=trials)):
            assert np.array_equal(rng.random(6), rng_for(3, 201, 5, t).random(6))

    def test_empty(self):
        assert list(rng_block(0, 201, 1, trials=range(0))) == []

    @pytest.mark.parametrize("trials, generators", [
        pytest.param(range(0), 0, id="empty"),
        pytest.param(range(1), 1, id="one"),
        pytest.param(range(_RNG_VECTOR_MIN - 1), _RNG_VECTOR_MIN - 1, id="one-short"),
        pytest.param(range(_RNG_VECTOR_MIN), 1, id="at-bound"),
        pytest.param(range(_RNG_VECTOR_MIN + 1), 1, id="one-over"),
        # a full block, then a tail one short of the bound or at it
        pytest.param(range(_RNG_BLOCK + _RNG_VECTOR_MIN - 1), _RNG_VECTOR_MIN, id="tail-short"),
        pytest.param(range(_RNG_BLOCK + _RNG_VECTOR_MIN), 1, id="tail-at-bound"),
        # a short block holding indices past one SeedSequence word
        pytest.param([3, 2**32 + 7, 2**64 + 1], 3, id="large-indices"),
    ])
    def test_both_sides_of_the_short_block_bound(self, trials, generators):
        # a block shorter than _RNG_VECTOR_MIN yields a fresh rng_for
        # generator per trial, a longer one a single reused generator; both
        # give rng_for's draws and hold no buffered half-word (bounded_draws'
        # precondition)
        seen = []
        for t, rng in zip(trials, rng_block(4, 301, trials=trials)):
            assert rng.bit_generator.state["has_uint32"] == 0
            for a, b in zip(_draws(rng), _draws(rng_for(4, 301, t))):
                assert np.array_equal(a, b), t
            seen.append(rng)
        assert len(seen) == len(trials)
        assert len({id(rng) for rng in seen}) == generators

    @pytest.mark.parametrize("prefix, trials", [((0, -1), range(2)), ((0,), [3, -2])])
    def test_negative_entry_raises(self, prefix, trials):
        with pytest.raises(ValueError):
            rng_for(*prefix, -1)
        with pytest.raises(ValueError):
            list(rng_block(*prefix, trials=trials))


class TestDerivationCost:
    """Vectorized derivation passes (_pcg64_states calls) a run makes: a cost
    pin, not a timing.  A run that needs fewer than _RNG_VECTOR_MIN
    generators derives them one by one and makes none."""

    @pytest.fixture
    def passes(self, monkeypatch) -> list[int]:
        calls = [0]
        derive = random_states._pcg64_states

        def counted(entropy):
            calls[0] += 1
            return derive(entropy)
        monkeypatch.setattr(random_states, "_pcg64_states", counted)
        return calls

    @pytest.mark.parametrize("variant", ["general", "projection"])
    def test_histogram_simulate_run_makes_none(self, passes, variant):
        cfg = ProtocolConfig(n=256, epsilon=1.0, t=1.0, trials=20_000, variant=variant)
        for model in (IidBernoulli(0.998), WinAllOrPartial(0.99, 255 / 256)):
            assert run_protocol(cfg, model).successes > 0
        assert passes == [0]

    @pytest.mark.parametrize("restarts, want", [(8, 0), (20, 1)])
    def test_seesaw(self, passes, restarts, want):
        entangled_value_seesaw(chsh(), 2, restarts, 60, seed=0)
        assert passes == [want]

    def test_verify_one_check(self, passes):
        # 1,000 trials: three full blocks and a 232-trial one
        assert run_check(CheckSpec("weak_triangle", trials=1000)).trials_run == 1000
        assert passes == [4]


class TestStackedConstruction:
    @pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
    def test_random_mixed_is_a_slice_of_the_stack(self, d):
        draws = np.stack([mixed_draw(rng_for(0, 9, d, t), d) for t in range(20)])
        stacked = gram(mixed_factors(draws))
        for t in range(20):
            assert np.array_equal(random_mixed(rng_for(0, 9, d, t), d), stacked[t])
            assert np.array_equal(random_mixed(rng_for(0, 9, d, t), d),
                                  gram(mixed_factors(draws[t:t + 1]))[0])

    @pytest.mark.parametrize("d, n_out", [(2, 2), (3, 5), (8, 4)])
    def test_random_povm_is_a_slice_of_the_stack(self, d, n_out):
        stacked = povms(np.stack([povm_draw(rng_for(1, d, t), d, n_out) for t in range(10)]))
        for t in range(10):
            povm = random_povm(rng_for(1, d, t), d, n_out)
            assert np.array_equal(povm, stacked[t])
            assert np.abs(povm.sum(axis=0) - np.eye(d)).max() <= 1e-12

    @pytest.mark.parametrize("d, n_out", [(1, 1), (2, 2), (3, 3), (4, 4), (4, 5), (2, 3), (5, 2)])
    def test_random_projective_is_a_slice_of_the_stack(self, d, n_out):
        # n_out > d gives n_out - d empty blocks, so zero projectors
        draws = np.stack([unitary_draw(rng_for(3, d, t), d, 4) for t in range(6)])
        units = haar_unitaries(draws)
        stacked = projectives(units, n_out)
        for t in range(6):
            assert np.array_equal(haar_unitary(rng_for(3, d, t), d), units[t, 0])
            rng = rng_for(3, d, t)
            for x in range(4):
                assert np.array_equal(random_projective(rng, d, n_out), stacked[t, x])
            assert np.abs(stacked[t].sum(axis=1) - np.eye(d)).max() <= 1e-12
        zero = ~stacked.any(axis=(-2, -1))
        assert (zero.sum(axis=-1) == max(n_out - d, 0)).all()

    def test_classical_states(self):
        p = rng_for(2).dirichlet(np.ones(4))
        stacked = classical_states(np.stack([p, p[::-1]]))
        assert stacked.dtype == complex
        assert np.array_equal(stacked[0], np.diag(p.astype(complex)))
        assert np.array_equal(stacked[1], np.diag(p[::-1].astype(complex)))


class TestFlatDirichlet:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 9, 12, 16])
    def test_equals_numpy_dirichlet_draw_for_draw(self, k):
        # numpy draws gamma(1) as a standard exponential; a numpy change to
        # that or to its normalization fails here rather than moving streams
        for seed in range(300):
            ref, rng = rng_for(seed, k), rng_for(seed, k)
            (got,) = flat_dirichlets(rng, k)
            assert np.array_equal(got, ref.dirichlet(np.ones(k)))
            assert rng.standard_normal() == ref.standard_normal()

    @pytest.mark.parametrize("sizes", [(2, 2), (3, 3), (4, 2, 2), (9, 3, 3), (16, 4, 4), (1, 5)])
    def test_several_sizes_equal_successive_draws(self, sizes):
        # one exponential draw for all sizes gives the distributions, and the
        # stream after them, of one dirichlet call per size
        for seed in range(300):
            ref, rng = rng_for(seed, *sizes), rng_for(seed, *sizes)
            got = flat_dirichlets(rng, *sizes)
            assert len(got) == len(sizes)
            for k, p in zip(sizes, got):
                assert np.array_equal(p, ref.dirichlet(np.ones(k)))
            assert rng.standard_normal() == ref.standard_normal()


def _position(rng) -> int:
    """The 128-bit PCG64 state: how far the raw stream has moved."""
    return rng.bit_generator.state["state"]["state"]


class TestBoundedDraws:
    """A drawer gives rng.integers(len(pool)) draw for draw, from raw words,
    and leaves the raw stream where numpy leaves it."""

    def test_spans_2_to_50(self):
        spans = range(2, 51)
        for seed in range(1000):
            rng, ref = rng_for(seed, 11), rng_for(seed, 11)
            assert bounded_draws(rng)(*map(range, spans)) == [int(ref.integers(n)) for n in spans]
            assert _position(rng) == _position(ref)
            assert rng.standard_normal() == ref.standard_normal()

    def test_span_with_frequent_rejection(self):
        # Lemire rejects a half-word for span 2^31 + 1 about half the time,
        # so a draw can take several half-words and the draws run out of
        # step with the words
        span = 2**31 + 1
        rejected = 0
        for seed in range(1000):
            rng, ref = rng_for(seed, 12), rng_for(seed, 12)
            assert bounded_draws(rng)(*[range(span)] * 5) == [int(ref.integers(span))
                                                            for _ in range(5)]
            assert _position(rng) == _position(ref)
            # five draws take three words (six halves) unless two or more
            # halves were rejected, which happens in about 89% of streams
            three = rng_for(seed, 12)
            three.bit_generator.advance(3)
            rejected += _position(rng) != _position(three)
            assert rng.standard_normal() == ref.standard_normal()
        assert rejected > 800

    def test_span_one_draws_nothing(self):
        for seed in range(1000):
            rng, ref = rng_for(seed, 13), rng_for(seed, 13)
            assert bounded_draws(rng)(range(1), (7,)) == [int(ref.integers(1)), 7]
            assert _position(rng) == _position(ref) == _position(rng_for(seed, 13))
            assert bounded_draws(rng)(range(3)) == [int(ref.integers(3))]
            assert _position(rng) == _position(ref)

    def test_dependent_span_shares_the_half_word(self):
        # cool_product's: the second pool depends on the first draw, whose
        # word's high half it takes
        for seed in range(1000):
            rng, ref = rng_for(seed, 14), rng_for(seed, 14)
            draw = bounded_draws(rng)
            (db,) = draw((2, 3))
            (da,) = draw((2, 3, 4)[db - 2:])
            want_db = int(ref.choice((2, 3)))
            assert (db, da) == (want_db, int(ref.choice([d for d in (2, 3, 4) if d >= want_db])))
            assert _position(rng) == _position(ref)

    @pytest.mark.parametrize("span", [3, 2**31 + 1])
    def test_half_word_kept_across_other_draws(self, span):
        # cptp_mono's: bounded draws, 64-bit draws, then a bounded draw that
        # takes a half-word the first ones left (after an odd count of them)
        for seed in range(1000):
            rng, ref = rng_for(seed, 15), rng_for(seed, 15)
            draw = bounded_draws(rng)
            first = draw(range(span))
            normals = rng.standard_normal(3)
            assert first == [int(ref.integers(span))]
            assert np.array_equal(normals, ref.standard_normal(3))
            assert draw(range(2), range(span)) == [int(ref.integers(2)), int(ref.integers(span))]
            assert _position(rng) == _position(ref)

    @pytest.mark.parametrize("pool", [(), range(2**32 + 1)])
    def test_pool_size_outside_range_raises(self, pool):
        with pytest.raises(ValueError, match="pool of"):
            bounded_draws(rng_for(0))(pool)
