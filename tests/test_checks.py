import copy
import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest

from entgames import checks
from entgames.checks import (
    FACT_SAMPLES,
    POVM_OUTCOMES,
    SIGMA_FLOOR,
    _kron_eig,
    CHECK_STREAM,
    DIM_POOL,
    REGISTRY,
    CheckReport,
    CheckSpec,
    any_violations,
    reports_to_csv,
    reports_to_json,
    run_all,
    run_check,
)
from entgames.linalg import Solved, kron, partial_trace_matrix
from entgames.qinfo import (
    fidelity,
    min_relative_entropy,
    povm_outcome_bound,
    relative_entropy,
    von_neumann_entropy,
)
from entgames.cli import main
from entgames.random_states import (bounded_draws, floor_eigensystem, gram, mixed_draw,
                                    mixed_factors, rng_block, rng_for)

from conftest import check_povm, count_checks, count_solves, flat_dirichlets, povm_draw

EXPECTED_ORDER = [
    "weak_triangle",
    "four_state",
    "fidelity_sq_sum",
    "cq_fidelity",
    "povm_bound",
    "cptp_mono",
    "subadd_cond",
    "relent_vs_fid",
    "superadd_classical",
    "smax_ge_s",
    "mi_min_relent",
    "relent_mono",
    "cool_product",
    "fact_sum",
]

SOUND = [n for n in EXPECTED_ORDER if n != "cool_product"]


class TestRegistry:
    def test_names_and_order(self):
        assert list(REGISTRY) == EXPECTED_ORDER

    def test_every_entry_has_statement(self):
        for d in REGISTRY.values():
            assert d.statement

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_check(CheckSpec("no_such_check", trials=1))


class TestRunCheck:
    def test_single_trial_runs(self):
        for name in EXPECTED_ORDER:
            rep = run_check(CheckSpec(name, trials=1))
            assert rep.trials_run == 1
            assert rep.worst_case_seed == 0
            assert math.isfinite(rep.worst_margin)

    def test_deterministic(self):
        a = run_check(CheckSpec("relent_vs_fid", trials=50))
        b = run_check(CheckSpec("relent_vs_fid", trials=50))
        assert a == b

    def test_seed_changes_stream(self):
        a = run_check(CheckSpec("weak_triangle", trials=20, seed=0))
        b = run_check(CheckSpec("weak_triangle", trials=20, seed=1))
        assert a.worst_margin != b.worst_margin

    def test_prefix_property(self):
        # trial streams are indexed per trial, so a longer run extends a shorter one
        short = run_check(CheckSpec("povm_bound", trials=30))
        long = run_check(CheckSpec("povm_bound", trials=60))
        assert long.worst_margin <= short.worst_margin

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_no_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_check(CheckSpec("fact_sum", trials=trials))

    @pytest.mark.parametrize("name", SOUND)
    def test_sound_checks_clean_at_small_trials(self, name):
        rep = run_check(CheckSpec(name, trials=200))
        assert rep.violations == 0
        assert rep.worst_margin >= -REGISTRY[name].tolerance


class TestCoolProduct:
    def test_analytic_counterexample(self):
        # near-product two-qubit pure state: the product-dominance claim fails
        p1 = 0.99
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = math.sqrt(p1), math.sqrt(1 - p1)
        rho = np.outer(v, v.conj())
        ra = np.diag([p1, 1 - p1]).astype(complex)
        gap = 4.0 * np.kron(ra, ra) - rho       # |B|^2 = 4
        w = np.linalg.eigvalsh((gap + gap.conj().T) / 2)
        assert w.min() < -1e-3                  # genuinely indefinite

    def test_flat_spectrum_is_tight(self):
        # maximally entangled input saturates the claim instead
        v = np.full(4, 0.5, dtype=complex)
        v[1] = v[2] = 0.0
        v[0] = v[3] = 1 / math.sqrt(2)
        rho = np.outer(v, v.conj())
        gap = 4.0 * np.kron(np.eye(2) / 2, np.eye(2) / 2) - rho
        w = np.linalg.eigvalsh((gap + gap.conj().T) / 2)
        assert w.min() >= -1e-12

    def test_violations_found_at_seed_zero(self):
        rep = run_check(CheckSpec("cool_product", trials=1000))
        assert rep.violations == 1
        assert rep.worst_case_seed == 961
        assert rep.worst_margin < -1e-3

    def test_counterexample_dump(self):
        counters: dict = {}
        run_check(CheckSpec("cool_product", trials=962), counters=counters)
        assert list(counters["dumps"]) == ["counterexample_cool_product_961.json"]
        doc = json.loads(counters["dumps"]["counterexample_cool_product_961.json"])
        assert doc["check"] == "cool_product"
        assert doc["trial"] == 961
        assert doc["margin"] < 0
        assert doc["states"]


class TestSuite:
    def test_run_all_subset(self):
        counters: dict = {}
        reps = run_all(trials_per_check=10, names=["four_state", "fact_sum"], counters=counters)
        assert [r.name for r in reps] == ["four_state", "fact_sum"]
        assert not any_violations(reps)
        assert list(counters) == ["four_state", "fact_sum"]
        assert all(c["wall_s"] > 0.0 for c in counters.values())

    def test_json_round_trip(self):
        reps = run_all(trials_per_check=5, names=["weak_triangle"])
        doc = json.loads(reports_to_json(reps))
        assert doc[0]["name"] == "weak_triangle"
        assert doc[0]["trials_run"] == 5

    def test_csv_writer(self):
        reps = run_all(trials_per_check=5, names=["weak_triangle", "fact_sum"])
        lines = reports_to_csv(reps).strip().splitlines()
        assert lines[0] == "name,trials,violations,worst_margin"
        assert len(lines) == 3
        # worst_margin column round-trips through repr exactly
        got = float(lines[1].split(",")[3])
        assert got == reps[0].worst_margin

    def test_any_violations(self):
        clean = [CheckReport("a", 5, 0, 0.1, 0)]
        dirty = clean + [CheckReport("b", 5, 2, -0.1, 3)]
        assert not any_violations(clean)
        assert any_violations(dirty)


def _bits(margins) -> bytes:
    return np.asarray(margins, dtype=float).tobytes()


def _evaluate(check, samples: list) -> np.ndarray:
    """Margins of sampled trials, with one kernel call per group key."""
    groups: dict = {}
    for i, (key, _) in enumerate(samples):
        groups.setdefault(key, []).append(i)
    margins = np.empty(len(samples))
    for key, idx in groups.items():
        margins[idx] = check.kernel(key, check.inputs(key, [samples[i][1] for i in idx]))[0]
    return margins


class TestDimDraw:
    def test_same_draw_as_choice(self):
        # the samplers' bounded draws replace rng.choice(pool); the draw and
        # the stream after it must match
        for t in range(300):
            for pool in (DIM_POOL, (2, 3), (2, 3, 4)):
                a, b = rng_for(0, CHECK_STREAM, 0, t), rng_for(0, CHECK_STREAM, 0, t)
                assert bounded_draws(a)(pool) == [int(b.choice(pool))]
                assert a.random() == b.random()


class TestDirichletRuns:
    @pytest.mark.parametrize("sizes", [(2, 2), (3, 3), (4, 2, 2), (9, 3, 3), (16, 4, 4), (1, 5)])
    def test_fills_the_reference_draws(self, sizes):
        # the samplers' in-place runs are the reference's distributions, bit
        # for bit, and leave the stream where it does
        for seed in range(300):
            ref, rng = rng_for(seed, *sizes), rng_for(seed, *sizes)
            row = np.empty(sum(sizes))
            checks._dirichlet_runs(rng, row, *sizes)
            assert row.tobytes() == np.concatenate(flat_dirichlets(ref, *sizes)).tobytes()
            assert rng.standard_normal() == ref.standard_normal()


# --- the samplers as they drew before bounded draws from raw words: one
# rng.integers call per integer and one mixed_draw or POVM draw per state


def _old_dim(rng, pool=DIM_POOL) -> int:
    return pool[int(rng.integers(len(pool)))]


def _old_states(n):
    def sample(rng):
        d = _old_dim(rng)
        return (d,), dict(zip([f"psi{i + 1}" for i in range(n)], mixed_draw(rng, d, n)))
    return sample


def _old_cq_fidelity(rng):
    k = int(rng.integers(2, 4))
    d = _old_dim(rng, (2, 3, 4))
    p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
    g = mixed_draw(rng, d, 2 * k)
    return (k, d), {"p": p, "q": q, "psi_blocks": g[:k], "phi_blocks": g[k:]}


def _old_povm_bound(rng):
    d = _old_dim(rng)
    n_out = int(rng.integers(2, POVM_OUTCOMES + 1))
    r, s = mixed_draw(rng, d, 2)
    g = np.zeros((POVM_OUTCOMES, 2, d, d))
    g[:n_out] = povm_draw(rng, d, n_out)
    return (d,), {"psi": r, "phi": s, "povm": g}


def _old_cptp_mono(rng):
    d1, d2 = _old_dim(rng, (2, 3)), _old_dim(rng, (2, 3, 4))
    r, s = mixed_draw(rng, d1 * d2, 2)
    return (d1, d2, int(rng.integers(2))), {"psi": r, "phi": s}


def _old_subadd_cond(rng):
    dims = tuple(_old_dim(rng, (2, 3)) for _ in range(3))
    return dims, {"psi": mixed_draw(rng, math.prod(dims))}


def _old_superadd_classical(rng):
    d1, d2 = _old_dim(rng, (2, 3, 4)), _old_dim(rng, (2, 3, 4))
    return (d1, d2), {"sigma12": rng.dirichlet(np.ones(d1 * d2)),
                      "ref1": rng.dirichlet(np.ones(d1)), "ref2": rng.dirichlet(np.ones(d2))}


def _old_mi_min_relent(rng):
    d1, d2 = _old_dim(rng, (2, 3)), _old_dim(rng, (2, 3))
    r = mixed_draw(rng, d1 * d2)
    return (d1, d2), {"psi": r, "phi_x": mixed_draw(rng, d1), "phi_y": mixed_draw(rng, d2)}


def _old_relent_mono(rng):
    d1, d2 = _old_dim(rng, (2, 3)), _old_dim(rng, (2, 3))
    r, s = mixed_draw(rng, d1 * d2, 2)
    return (d1, d2), {"psi": r, "phi": s}


def _old_cool_product(rng):
    db = _old_dim(rng, (2, 3))
    da = _old_dim(rng, tuple(d for d in (2, 3, 4) if d >= db))
    return (da, db), {"psi": mixed_draw(rng, da * db)}


def _old_fact_sum(rng):
    n = int(rng.integers(5, FACT_SAMPLES + 1))
    x = np.zeros(FACT_SAMPLES)
    x[:n] = rng.exponential(1.0, size=n)
    return (), {"x": x, "n": n, "c": float(rng.uniform(1.05, 8.0))}


OLD_SAMPLERS = {
    "weak_triangle": _old_states(3), "four_state": _old_states(4),
    "fidelity_sq_sum": _old_states(3), "cq_fidelity": _old_cq_fidelity,
    "povm_bound": _old_povm_bound, "cptp_mono": _old_cptp_mono,
    "subadd_cond": _old_subadd_cond, "relent_vs_fid": _old_states(2),
    "superadd_classical": _old_superadd_classical, "smax_ge_s": _old_states(2),
    "mi_min_relent": _old_mi_min_relent, "relent_mono": _old_relent_mono,
    "cool_product": _old_cool_product, "fact_sum": _old_fact_sum,
}


def _split(fields, row: np.ndarray) -> dict:
    """A row's named draws: consecutive runs of the row in the layout's
    order, each reshaped to its field's shape."""
    out, end = {}, 0
    for name, shape in fields:
        start, end = end, end + math.prod(shape)
        out[name] = row[start:end].reshape(shape)
    return out


class TestSamplerDraws:
    @pytest.mark.parametrize("name", EXPECTED_ORDER)
    def test_same_draws_as_per_draw_reference(self, name):
        # every sampler draws the key and the numbers of its per-draw
        # reference, bit for bit, and leaves the raw stream where it does;
        # a row holds float64 numbers, so fact_sum's integer n is compared
        # as the float it is stored as
        check, check_id = REGISTRY[name], EXPECTED_ORDER.index(name)
        trials = range(1000)
        for t, rng in zip(trials, rng_block(0, CHECK_STREAM, check_id, trials=trials)):
            ref = rng_for(0, CHECK_STREAM, check_id, t)
            (key, row), (ref_key, ref_draws) = check.sample(rng), OLD_SAMPLERS[name](ref)
            draws = _split(check.fields(key), row)
            assert key == ref_key and draws.keys() == ref_draws.keys(), (name, t)
            for n, a in draws.items():
                want = np.asarray(ref_draws[n], dtype=np.float64)
                assert a.shape == want.shape, (name, t, n)
                assert a.tobytes() == want.tobytes(), (name, t, n)
            assert rng.bit_generator.state["state"] == ref.bit_generator.state["state"]

    @pytest.mark.parametrize("name", EXPECTED_ORDER)
    def test_fields_cover_each_row(self, name):
        # for every key drawn, the row is 1-D float64 and its layout covers it
        # exactly: the field sizes sum to the row's, and the views inputs
        # reads take each number of the row once
        check, check_id = REGISTRY[name], EXPECTED_ORDER.index(name)
        rows = {}
        for rng in rng_block(0, CHECK_STREAM, check_id, trials=range(1000)):
            key, row = check.sample(rng)
            assert row.ndim == 1 and row.dtype == np.float64, (name, key)
            assert rows.setdefault(key, row.size) == row.size, (name, key)
        for key, size in rows.items():
            fields = check.fields(key)
            assert len({n for n, _ in fields}) == len(fields)
            assert sum(math.prod(shape) for _, shape in fields) == size, (name, key)
            batch = np.arange(2 * size, dtype=np.float64).reshape(2, size)
            views = checks._views(fields, batch)
            assert all(np.shares_memory(v, batch) for v in views.values())
            taken = np.concatenate([v.reshape(2, -1) for v in views.values()], axis=1)
            assert np.array_equal(np.sort(taken, axis=1), batch), (name, key)

    def test_views_reject_a_layout_that_misses_a_row(self):
        with pytest.raises(ValueError, match="fields cover 8 of a row's 9 numbers"):
            checks._views((("psi", (2, 4)),), np.zeros((3, 9)))


class TestStackedEvaluation:
    """A trial's margin is the same bits whether it is evaluated alone (the
    replay entry point REGISTRY[name].func) or stacked with any batch mates."""

    @pytest.mark.parametrize("name", EXPECTED_ORDER)
    def test_stacked_margins_replay_bit_for_bit(self, name, monkeypatch):
        check, check_id = REGISTRY[name], EXPECTED_ORDER.index(name)
        n = 149
        # a budget that makes run_check split some group key's trials over
        # several kernel calls within n trials
        monkeypatch.setattr(checks, "_BUDGET", 1500)
        for seed in (0, 5):
            single = [check.func(rng_for(seed, CHECK_STREAM, check_id, t))[0]
                      for t in range(n)]
            samples = [check.sample(rng_for(seed, CHECK_STREAM, check_id, t))
                       for t in range(n)]
            stacked = _evaluate(check, samples)
            assert _bits(stacked) == _bits(single)
            # other batch mates, and other group sizes, for every trial
            shifted = _evaluate(check, samples[7:])
            assert _bits(shifted) == _bits(single[7:])
            counters: dict = {}
            rep = run_check(CheckSpec(name, trials=n, seed=seed), counters=counters)
            assert counters["kernel_calls"] > len({key for key, _ in samples})
            assert _bits(rep.worst_margin) == _bits(min(single))
            assert rep.worst_case_seed == single.index(min(single))
            assert rep.violations == sum(m < -check.tolerance for m in single)

    def test_replay_payload_matches_dump(self):
        # the dumped states are those the stacked kernel evaluated
        counters: dict = {}
        run_check(CheckSpec("cool_product", trials=962), counters=counters)
        doc = json.loads(counters["dumps"]["counterexample_cool_product_961.json"])
        margin, payload = REGISTRY["cool_product"].func(
            rng_for(0, CHECK_STREAM, EXPECTED_ORDER.index("cool_product"), 961))
        assert doc["margin"] == margin
        rho = np.array(doc["states"]["rho"]["re"]) + 1j * np.array(doc["states"]["rho"]["im"])
        assert np.array_equal(rho, payload["rho"])


def _perturb_one_batched_slice(monkeypatch, name: str) -> None:
    """Patch check name's kernel to lower slice 1 of the first batch of more
    than one trial by 100, as a batching fault would; a trial replayed alone,
    a batch of one, keeps its margin."""
    check, hit = REGISTRY[name], []

    def kernel(key, x):
        margins, dump = check.kernel(key, x)
        if len(margins) > 1 and not hit:
            hit.append(key)
            margins = margins.copy()
            margins[1] -= 100.0
        return margins, dump

    monkeypatch.setitem(REGISTRY, name, dataclasses.replace(check, kernel=kernel))


class TestReplayAudit:
    """run_check replays its worst trial, and each violating trial, alone and
    compares the margin bits with the batched margin's."""

    def test_perturbed_batch_is_a_mismatch(self, monkeypatch):
        _perturb_one_batched_slice(monkeypatch, "fact_sum")
        counters: dict = {}
        rep = run_check(CheckSpec("fact_sum", trials=300), counters=counters)
        # the perturbed trial is the worst, and its replay does not match
        assert rep.violations == 1
        assert counters["replay_mismatches"] == [rep.worst_case_seed]

    def test_mismatch_exits_4(self, monkeypatch, tmp_path, capsys):
        _perturb_one_batched_slice(monkeypatch, "fact_sum")
        out = tmp_path / "out"
        code = main(["verify", "--filter", "fact_sum", "--trials", "300", "--seed", "0",
                     "--out", str(out)])
        assert code == 4
        assert "fact_sum: replayed trials" in capsys.readouterr().err
        entry = json.loads((out / "manifest.json").read_text())["checks"]["fact_sum"]
        report = json.loads((out / "report.json").read_text())[0]
        # the dumped, violating trial is the one replayed and mismatched
        assert entry["replay_mismatches"] == [report["worst_case_seed"]]
        assert (out / f"counterexample_fact_sum_{report['worst_case_seed']}.json").is_file()


def _report_bits(rep: CheckReport) -> tuple:
    return rep.name, rep.trials_run, rep.violations, _bits(rep.worst_margin), \
        rep.worst_case_seed


# kernel calls of each check's 1,000-trial seed-7 run: 135 in all, where one
# shared block split by group key made 472; fact_sum pads its samples so that
# its trials share one group key, 3 calls where grouping by n made 46
KERNEL_CALLS = {
    "weak_triangle": 7, "four_state": 8, "fidelity_sq_sum": 7, "cq_fidelity": 8,
    "povm_bound": 11, "cptp_mono": 21, "subadd_cond": 24, "relent_vs_fid": 6,
    "superadd_classical": 15, "smax_ge_s": 6, "mi_min_relent": 5, "relent_mono": 7,
    "cool_product": 7, "fact_sum": 3,
}


class TestBudget:
    """Each group key's trials pend in one batch, evaluated once it reaches
    the entry budget, or when all pending batches reach twice the budget;
    no budget changes a report's bits."""

    @pytest.mark.parametrize("name", EXPECTED_ORDER)
    def test_reports_independent_of_budget(self, name, monkeypatch):
        check, check_id = REGISTRY[name], EXPECTED_ORDER.index(name)
        for seed in (0, 5):
            spec = CheckSpec(name, trials=150, seed=seed)
            keys = {check.sample(rng_for(seed, CHECK_STREAM, check_id, t))[0]
                    for t in range(spec.trials)}
            runs = {}
            for budget in (1, 2000, checks._BUDGET, 10**12):
                monkeypatch.setattr(checks, "_BUDGET", budget)
                counters: dict = {}
                runs[budget] = (_report_bits(run_check(spec, counters=counters)), counters)
            reps = {r for r, _ in runs.values()}
            assert len(reps) == 1, runs
            calls = [c["kernel_calls"] for _, c in runs.values()]
            # a budget of 1 evaluates every trial alone, a huge one each key once
            assert calls[0] == spec.trials and calls[-1] == len(keys)
            assert calls == sorted(calls, reverse=True)

    @pytest.mark.parametrize("name", EXPECTED_ORDER)
    def test_batches_within_caps(self, name, monkeypatch):
        # a kernel call holds under _BUDGET entries plus one trial, and the
        # pending draws under 2 * _BUDGET plus one trial
        check = REGISTRY[name]
        entries: dict = {}
        held, seen = [0], {"batch": 0, "held": 0}

        def sample(rng):
            key, row = check.sample(rng)
            if key not in entries:
                entries[key] = check.entries(key, row) + checks._TRIAL_ENTRIES
            held[0] += entries[key]
            seen["held"] = max(seen["held"], held[0])
            return key, row

        def kernel(key, x):
            used = len(next(iter(x.values()))) * entries[key]
            held[0] -= used
            seen["batch"] = max(seen["batch"], used)
            return check.kernel(key, x)

        monkeypatch.setitem(REGISTRY, name, dataclasses.replace(check, sample=sample,
                                                                kernel=kernel))
        counters: dict = {}
        run_check(CheckSpec(name, trials=1000, seed=7), counters=counters)
        trial = max(entries.values())
        assert counters.keys() == {"wall_s", "kernel_calls", "max_batch_entries", "draw_s",
                                   "kernel_s", "replay_s", "replay_mismatches", "dumps"}
        assert (counters["kernel_calls"], counters["max_batch_entries"]) \
            == (KERNEL_CALLS[name], seen["batch"])
        # a document for each violating trial: cool_product's trial 640 alone
        assert list(counters["dumps"]) == (["counterexample_cool_product_640.json"]
                                           if name == "cool_product" else [])
        assert counters["replay_mismatches"] == []
        assert held[0] == 0
        assert seen["batch"] < checks._BUDGET + trial
        assert seen["held"] < 2 * checks._BUDGET + trial

    def test_entries_count_built_states(self):
        # classical_states turns d Dirichlet weights into d x d entries
        check = REGISTRY["superadd_classical"]
        key, row = check.sample(rng_for(0, CHECK_STREAM, 8, 0))
        draws = _split(check.fields(key), row)
        d12, d1, d2 = (draws[k].size for k in ("sigma12", "ref1", "ref2"))
        assert check.entries(key, row) == d12**2 + d1**2 + d2**2
        # a mixed state's (2, d^2) raw draw becomes d^2 complex entries
        key, row = REGISTRY["weak_triangle"].sample(rng_for(0, CHECK_STREAM, 0, 0))
        assert REGISTRY["weak_triangle"].entries(key, row) == 3 * key[0] ** 2


def _floored(a):
    return floor_eigensystem(a, SIGMA_FLOOR).matrix


# the compositions the reuse kernels replaced, on the built states: each
# solves the floored sigma again, and rho once per quantity
def _old_relent_vs_fid(key, x):
    r, s = x["rho1"], _floored(x["rho2"])
    return relative_entropy(r, s) - (1 - fidelity(r, s))


def _old_smax_ge_s(key, x):
    r, s = x["rho1"], _floored(x["rho2"])
    return min_relative_entropy(r, s) - relative_entropy(r, s)


def _old_mi_min_relent(dims, x):
    r = x["rho"]
    rx, ry = (partial_trace_matrix(r, dims, [i]) for i in (0, 1))
    sx, sy = (_floored(x[k]) for k in ("sigma_x", "sigma_y"))
    return relative_entropy(r, kron(sx, sy)) - relative_entropy(r, kron(rx, ry))


def _old_relent_mono(dims, x):
    r, s = x["rho"], _floored(x["sigma"])
    return (relative_entropy(r, s)
            - relative_entropy(partial_trace_matrix(r, dims, [0]),
                               partial_trace_matrix(s, dims, [0])))


OLD_KERNELS = {"relent_vs_fid": _old_relent_vs_fid, "smax_ge_s": _old_smax_ge_s,
               "mi_min_relent": _old_mi_min_relent, "relent_mono": _old_relent_mono}
PAIR_KEYS = {(d1, d2) for d1 in (2, 3) for d2 in (2, 3)}
ALL_KEYS = {"relent_vs_fid": {(d,) for d in DIM_POOL}, "smax_ge_s": {(d,) for d in DIM_POOL},
            "mi_min_relent": PAIR_KEYS, "relent_mono": PAIR_KEYS}
# eigensolves per trial: (full-size, smaller); the old compositions took
# (6, 0), (5, 0), (4, 2) and (3, 2)
SOLVES = {"relent_vs_fid": (3, 0), "smax_ge_s": (3, 0), "mi_min_relent": (1, 4),
          "relent_mono": (2, 2)}
# np.linalg eigh, eigvalsh, qr and svd [calls, matrices] of each check's
# 1,000-trial seed-0 run, construction included: a change that solves a state
# again, where a kernel reuses its solve, fails here and not only as a
# slowdown.  No check takes a qr or an svd.  A state read only through its
# factor, and a state PSD by construction, is not solved: the pure-fidelity
# checks take one eigvalsh of m^dag m (m = b^dag a) per fidelity and nothing
# else, cq_fidelity one per block and one for the whole state, povm_bound one
# for F (its POVM elements are checked to sum to I, not solved), and cptp_mono
# one for each F and one eigh for the reduced or pinched rho's root
SUITE_SOLVES = {
    "weak_triangle": {"eigvalsh": [21, 3000]},
    "four_state": {"eigvalsh": [32, 4000]},
    "fidelity_sq_sum": {"eigvalsh": [21, 3000]},
    "cq_fidelity": {"eigvalsh": [16, 3516]},
    "povm_bound": {"eigh": [16, 1005], "eigvalsh": [11, 1000]},
    "cptp_mono": {"eigh": [21, 1000], "eigvalsh": [42, 2000]},
    "subadd_cond": {"eigvalsh": [96, 4000]},
    "relent_vs_fid": {"eigh": [6, 1000], "eigvalsh": [12, 2000]},
    "superadd_classical": {"eigh": [30, 2000], "eigvalsh": [45, 3000]},
    "smax_ge_s": {"eigh": [6, 1000], "eigvalsh": [12, 2000]},
    "mi_min_relent": {"eigh": [20, 4000], "eigvalsh": [5, 1000]},
    "relent_mono": {"eigh": [14, 2000], "eigvalsh": [14, 2000]},
    "cool_product": {"eigvalsh": [7, 1000]},
    "fact_sum": {},
}
# linalg._check_hermitian [calls, matrices] in the same runs: a Solved is
# checked once, when it is built, so a kernel that passes it on to several
# quantities checks it once (relent_vs_fid and smax_ge_s 2 calls a kernel
# call); a state read only through its factor, or PSD by construction, is not
# checked as a matrix, so the pure-fidelity, cq and povm_bound checks make
# none and cptp_mono checks only the reduced or pinched rho it solves
SUITE_CHECKS = {
    "weak_triangle": [0, 0], "four_state": [0, 0], "fidelity_sq_sum": [0, 0],
    "cq_fidelity": [0, 0], "povm_bound": [0, 0], "cptp_mono": [21, 1000],
    "subadd_cond": [96, 4000], "relent_vs_fid": [12, 2000],
    "superadd_classical": [90, 6000], "smax_ge_s": [12, 2000], "mi_min_relent": [35, 7000],
    "relent_mono": [28, 4000], "cool_product": [0, 0], "fact_sum": [0, 0],
}


def _mp_herm(a):
    m = mpmath.matrix(np.asarray(a).tolist())
    return (m + m.H) / 2


def _mp_apply(m, f):
    """V f(W) V^H for the Hermitian mpmath matrix m = V W V^H."""
    w, v = mpmath.eighe(m)
    return v * mpmath.diag([f(x) for x in w]) * v.H


def _mp_trace(m):
    return mpmath.re(mpmath.fsum(m[i, i] for i in range(m.rows)))


def _exact_relent(r, s):
    rm, sm = _mp_herm(r), _mp_herm(s)
    wr = mpmath.eighe(rm, eigvals_only=True)
    return (mpmath.fsum(w * mpmath.log(w, 2) for w in wr if w > 0)
            - _mp_trace(rm * _mp_apply(sm, lambda w: mpmath.log(w, 2))))


def _exact_margin(name, key, st):
    """A reuse check's margin on its dumped states in 40-digit arithmetic."""
    pt = partial_trace_matrix
    with mpmath.workdps(40):
        if name == "mi_min_relent":
            r = st["rho"]
            m = (_exact_relent(r, np.kron(st["sigma_x"], st["sigma_y"]))
                 - _exact_relent(r, np.kron(pt(r, key, [0]), pt(r, key, [1]))))
            return float(m)
        r, s = st["rho"], st["sigma"]
        if name == "relent_mono":
            return float(_exact_relent(r, s) - _exact_relent(pt(r, key, [0]), pt(s, key, [0])))
        rm, sm = _mp_herm(r), _mp_herm(s)
        if name == "smax_ge_s":
            q = _mp_apply(sm, lambda w: 1 / mpmath.sqrt(w))
            d_max = mpmath.log(max(mpmath.eighe(q * rm * q, eigvals_only=True)), 2)
            return float(d_max - _exact_relent(r, s))
        root = _mp_apply(rm, lambda w: mpmath.sqrt(max(w, 0)))
        f = mpmath.fsum(mpmath.sqrt(max(w, 0))
                        for w in mpmath.eighe(root * sm * root, eigvals_only=True))
        return float(_exact_relent(r, s) - (1 - f))


class TestEigensystemReuse:
    """Kernels that reuse eigensystems match the compositions they replaced."""

    @pytest.mark.parametrize("name", sorted(OLD_KERNELS))
    def test_matches_old_composition(self, name):
        check, check_id = REGISTRY[name], EXPECTED_ORDER.index(name)
        groups: dict = {}
        for t in range(200):
            key, row = check.sample(rng_for(3, CHECK_STREAM, check_id, t))
            groups.setdefault(key, []).append(row)
        assert groups.keys() == ALL_KEYS[name]
        for key, rows in groups.items():
            x = check.inputs(key, rows)
            new, dump = check.kernel(key, x)
            states = dump()
            old = OLD_KERNELS[name](key, _as_states(x))
            assert np.abs(new - old).max() <= 1e-9, key
            for i in np.flatnonzero(np.abs(new - old) > 1e-12):
                # solving a state again loses digits on its small eigenvalues,
                # so where the two differ by more, the reuse is the closer one
                exact = _exact_margin(name, key, {n: a[i] for n, a in states.items()})
                assert abs(new[i] - exact) < abs(old[i] - exact), (key, i)

    @pytest.mark.parametrize("name", sorted(OLD_KERNELS))
    def test_solves_per_trial(self, name, monkeypatch):
        sizes = []

        def counted(solve):
            def wrapper(a, *args, **kwargs):
                sizes.append(np.shape(a)[-1])
                return solve(a, *args, **kwargs)
            return wrapper
        for solver in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, solver, counted(getattr(np.linalg, solver)))
        check, check_id = REGISTRY[name], EXPECTED_ORDER.index(name)
        for t in range(20):
            sizes.clear()
            key, _ = check.sample(rng_for(0, CHECK_STREAM, check_id, t))
            check.func(rng_for(0, CHECK_STREAM, check_id, t))
            full = math.prod(key)
            assert (sizes.count(full), len(sizes) - sizes.count(full)) == SOLVES[name]

    @staticmethod
    def _trial_loop_counts(name, counts):
        """counts (filled as they run) of run_check(name, 1000, 0), less its
        audit's one replay of the worst trial, counted on its own."""
        rep = run_check(CheckSpec(name, trials=1000, seed=0))
        run = copy.deepcopy(counts)
        # emptied in place: the wrappers fill this same object
        if isinstance(counts, dict):
            counts.clear()
        else:
            counts[:] = [0, 0]
        REGISTRY[name].func(rng_for(0, CHECK_STREAM, EXPECTED_ORDER.index(name),
                                    rep.worst_case_seed))
        if isinstance(run, list):
            return [a - b for a, b in zip(run, counts)]
        assert counts.keys() == run.keys()
        return {k: [a - b for a, b in zip(v, counts[k])] for k, v in run.items()}

    @pytest.mark.parametrize("name", EXPECTED_ORDER)
    def test_suite_solves_pinned(self, name, monkeypatch):
        assert self._trial_loop_counts(name, count_solves(monkeypatch)) == SUITE_SOLVES[name]

    @pytest.mark.parametrize("name", EXPECTED_ORDER)
    def test_suite_checks_pinned(self, name, monkeypatch):
        assert self._trial_loop_counts(name, count_checks(monkeypatch)) == SUITE_CHECKS[name]

    def test_floored_eigensystem(self):
        sigma = np.stack([gram(mixed_factors(np.random.default_rng(s).standard_normal(
            (2, 16)))) for s in range(5)])
        s = floor_eigensystem(sigma, SIGMA_FLOOR)
        assert np.all(np.diff(s.w, axis=-1) >= 0) and s.w.min() > 0
        assert np.abs(s.matrix.trace(axis1=-2, axis2=-1) - 1).max() <= 1e-14
        assert np.abs(s.matrix @ s.v - s.v * s.w[:, None, :]).max() <= 1e-14

    def test_kron_eigensystem(self):
        rng = np.random.default_rng(0)
        a, b = (gram(mixed_factors(rng.standard_normal((4, 2, d * d)))) for d in (2, 3))
        ab = _kron_eig(Solved(a, *np.linalg.eigh(a)), Solved(b, *np.linalg.eigh(b)))
        w, v = ab.w, ab.v
        assert np.array_equal(ab.matrix, kron(a, b))
        assert np.all(np.diff(w, axis=-1) >= 0)
        assert np.abs(kron(a, b) @ v - v * w[:, None, :]).max() <= 1e-14
        assert np.abs(w - np.linalg.eigvalsh(kron(a, b))).max() <= 1e-14


def _reference_margin(name, key, st):
    """Each check's margin from its dumped states through the single-matrix API."""
    F, S, pt = fidelity, relative_entropy, partial_trace_matrix
    if name in ("weak_triangle", "fidelity_sq_sum", "four_state"):
        r = [st[f"rho{i + 1}"] for i in range(len(st))]
        if name == "weak_triangle":
            return 2 * (1 - F(r[0], r[1])) + 2 * (1 - F(r[1], r[2])) - (1 - F(r[0], r[2]))
        if name == "fidelity_sq_sum":
            return 1 + F(r[0], r[2]) - F(r[0], r[1]) ** 2 - F(r[1], r[2]) ** 2
        chain = sum(1 - F(r[i], r[i + 1]) for i in range(3))
        return 3 * chain - (1 - F(r[0], r[3]))
    if name == "cq_fidelity":
        k, d = key
        blockwise = 0.0
        for x in range(k):
            bp = st["rho"][x * d:(x + 1) * d, x * d:(x + 1) * d]
            bq = st["sigma"][x * d:(x + 1) * d, x * d:(x + 1) * d]
            p, q = np.trace(bp).real, np.trace(bq).real
            blockwise += math.sqrt(p * q) * F(bp / p, bq / q)
        return -abs(F(st["rho"], st["sigma"]) - blockwise)
    if name == "povm_bound":
        check_povm(st["povm"])
        return povm_outcome_bound(st["rho"], st["sigma"], st["povm"]) - F(st["rho"], st["sigma"])
    if name == "cptp_mono":
        d1, d2, pinch = key
        r, s = st["rho"], st["sigma"]
        if pinch:
            mask = np.kron(np.eye(d1), np.ones((d2, d2)))
            return F(r * mask, s * mask) - F(r, s)
        return F(pt(r, (d1, d2), [0]), pt(s, (d1, d2), [0])) - F(r, s)
    if name == "subadd_cond":
        def ent(keep):
            return von_neumann_entropy(pt(st["rho"], key, keep))
        return ent([0, 2]) + ent([1, 2]) - ent([0, 1, 2]) - ent([2])
    if name == "relent_vs_fid":
        return S(st["rho"], st["sigma"]) - (1 - F(st["rho"], st["sigma"]))
    if name == "superadd_classical":
        j, r1, r2 = st["sigma12"], st["ref1"], st["ref2"]
        return S(j, np.kron(r1, r2)) - S(pt(j, key, [0]), r1) - S(pt(j, key, [1]), r2)
    if name == "smax_ge_s":
        return min_relative_entropy(st["rho"], st["sigma"]) - S(st["rho"], st["sigma"])
    if name == "mi_min_relent":
        r = st["rho"]
        return (S(r, np.kron(st["sigma_x"], st["sigma_y"]))
                - S(r, np.kron(pt(r, key, [0]), pt(r, key, [1]))))
    if name == "relent_mono":
        r, s = st["rho"], st["sigma"]
        return S(r, s) - S(pt(r, key, [0]), pt(s, key, [0]))
    if name == "cool_product":
        r, (_, db) = st["rho"], key
        gap = db * db * np.kron(pt(r, key, [0]), pt(r, key, [1])) - r
        return np.linalg.eigvalsh((gap + gap.conj().T) / 2).min()
    x, c = st["x"][:st["n"]], st["c"]
    assert not st["x"][st["n"]:].any()
    return (x <= c * x.mean()).sum() - len(x) * (1 - 1 / c)


class TestKernelsMatchReference:
    @pytest.mark.parametrize("name", EXPECTED_ORDER)
    def test_margin_from_dumped_states(self, name):
        # the kernel computes the stated inequality on the states it reports
        check, check_id = REGISTRY[name], EXPECTED_ORDER.index(name)
        for t in range(40):
            key, _ = check.sample(rng_for(1, CHECK_STREAM, check_id, t))
            margin, states = check.func(rng_for(1, CHECK_STREAM, check_id, t))
            assert abs(margin - _reference_margin(name, key, states)) <= 1e-10


# --- the per-trial samplers from before stacked construction, kept as
# references: each draws the same numbers in the same order as a check's
# sampler, and builds every state on its own with the single-matrix formulas


def _ref_dim(rng, pool=DIM_POOL) -> int:
    return int(rng.choice(pool))


def _ref_mixed(rng, dim):
    v = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
    psi = (v / np.linalg.norm(v)).reshape(dim, dim)
    return psi @ psi.conj().T


def _ref_povm(rng, dim, n_outcomes):
    gs = []
    for _ in range(n_outcomes):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        gs.append(x @ x.conj().T)
    s = sum(gs)
    w, v = np.linalg.eigh(0.5 * (s + s.conj().T))
    s_isqrt = (v / np.sqrt(w)) @ v.conj().T
    return np.stack([s_isqrt @ g @ s_isqrt for g in gs])


def _ref_classical(rng, dim):
    return np.diag(rng.dirichlet(np.ones(dim)).astype(complex))


def _ref_sample(name, rng):
    """(group key, states) of one trial of check name, built per trial."""
    if name in ("weak_triangle", "four_state", "fidelity_sq_sum"):
        d = _ref_dim(rng)
        n = 4 if name == "four_state" else 3
        return (d,), {f"rho{i + 1}": _ref_mixed(rng, d) for i in range(n)}
    if name == "cq_fidelity":
        k = int(rng.integers(2, 4))
        d = _ref_dim(rng, (2, 3, 4))
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
        blocks_p = np.stack([_ref_mixed(rng, d) for _ in range(k)])
        blocks_q = np.stack([_ref_mixed(rng, d) for _ in range(k)])
        return (k, d), {"p": p, "q": q, "rho_blocks": blocks_p, "sigma_blocks": blocks_q}
    if name == "povm_bound":
        d = _ref_dim(rng)
        n_out = int(rng.integers(2, 6))
        r, s = _ref_mixed(rng, d), _ref_mixed(rng, d)
        return (d,), {"rho": r, "sigma": s, "povm": _ref_povm(rng, d, n_out)}
    if name == "cptp_mono":
        d1, d2 = _ref_dim(rng, (2, 3)), _ref_dim(rng, (2, 3, 4))
        r, s = _ref_mixed(rng, d1 * d2), _ref_mixed(rng, d1 * d2)
        return (d1, d2, int(rng.integers(2))), {"rho": r, "sigma": s}
    if name == "subadd_cond":
        dims = tuple(_ref_dim(rng, (2, 3)) for _ in range(3))
        return dims, {"rho": _ref_mixed(rng, math.prod(dims))}
    if name in ("relent_vs_fid", "smax_ge_s"):
        d = _ref_dim(rng)
        return (d,), {"rho1": _ref_mixed(rng, d), "rho2": _ref_mixed(rng, d)}
    if name == "superadd_classical":
        d1, d2 = _ref_dim(rng, (2, 3, 4)), _ref_dim(rng, (2, 3, 4))
        joint = _ref_classical(rng, d1 * d2)
        return (d1, d2), {"sigma12": joint, "ref1": _ref_classical(rng, d1),
                          "ref2": _ref_classical(rng, d2)}
    if name == "mi_min_relent":
        d1, d2 = _ref_dim(rng, (2, 3)), _ref_dim(rng, (2, 3))
        r = _ref_mixed(rng, d1 * d2)
        return (d1, d2), {"rho": r, "sigma_x": _ref_mixed(rng, d1),
                          "sigma_y": _ref_mixed(rng, d2)}
    if name == "relent_mono":
        d1, d2 = _ref_dim(rng, (2, 3)), _ref_dim(rng, (2, 3))
        r, s = _ref_mixed(rng, d1 * d2), _ref_mixed(rng, d1 * d2)
        return (d1, d2), {"rho": r, "sigma": s}
    if name == "cool_product":
        db = _ref_dim(rng, (2, 3))
        da = _ref_dim(rng, tuple(d for d in (2, 3, 4) if d >= db))
        return (da, db), {"rho": _ref_mixed(rng, da * db)}
    assert name == "fact_sum"
    n = int(rng.integers(5, 51))
    x = np.concatenate([rng.exponential(1.0, size=n), np.zeros(50 - n)])
    return (), {"x": x, "n": n, "c": float(rng.uniform(1.05, 8.0))}


FACTOR_STATES = {"psi": "rho", "phi": "sigma"}


def _as_states(built: dict) -> dict:
    """Built inputs with each factor psi* or phi* replaced by its state rho*
    or sigma* (psi1 by rho1, phi_x and phi_y by sigma_x and sigma_y)."""
    return {FACTOR_STATES[n[:3]] + n[3:] if n[:3] in FACTOR_STATES else n:
            gram(a) if n[:3] in FACTOR_STATES else a for n, a in built.items()}


class TestStackedConstruction:
    """Samplers draw one row of raw numbers per trial; CheckDef.inputs reads
    a whole group's rows as one array and builds the states (or, for psi
    names, their factors) of the group at once.  That gives each trial the
    key and states of the per-trial reference, up to the order of
    floating-point sums.  fact_sum's reference pads its samples with zeros to
    50, as its sampler does."""

    @pytest.mark.parametrize("name", EXPECTED_ORDER)
    def test_matches_per_trial_reference(self, name):
        check, check_id = REGISTRY[name], EXPECTED_ORDER.index(name)
        trials = range(150)
        samples = [check.sample(rng_for(2, CHECK_STREAM, check_id, t)) for t in trials]
        refs = [_ref_sample(name, rng_for(2, CHECK_STREAM, check_id, t)) for t in trials]
        assert [key for key, _ in samples] == [key for key, _ in refs]
        groups: dict = {}
        for i, (key, _) in enumerate(samples):
            groups.setdefault(key, []).append(i)
        for key, idx in groups.items():
            built = _as_states(check.inputs(key, [samples[i][1] for i in idx]))
            for j, i in enumerate(idx):
                ref = refs[i][1]
                assert built.keys() == ref.keys()
                for n, want in ref.items():
                    got = built[n][j]
                    if n == "povm":     # zero elements pad the reference's n_out
                        assert len(got) == POVM_OUTCOMES and not got[len(want):].any()
                        got = got[:len(want)]
                    assert got.shape == np.shape(want)
                    assert np.abs(got - want).max() <= 1e-12, (name, i, n)
