import json
import math

import numpy as np
import pytest

from entgames.checks import (
    REGISTRY,
    CheckReport,
    CheckSpec,
    any_violations,
    reports_to_csv,
    reports_to_json,
    run_all,
    run_check,
)

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

    def test_counterexample_dump(self, tmp_path):
        run_check(CheckSpec("cool_product", trials=962), report_dir=tmp_path)
        files = list(tmp_path.glob("counterexample_cool_product_*.json"))
        assert len(files) == 1
        doc = json.loads(files[0].read_text())
        assert doc["check"] == "cool_product"
        assert doc["trial"] == 961
        assert doc["margin"] < 0
        assert doc["states"]


class TestSuite:
    def test_run_all_subset(self):
        reps = run_all(trials_per_check=10, names=["four_state", "fact_sum"])
        assert [r.name for r in reps] == ["four_state", "fact_sum"]
        assert not any_violations(reps)

    def test_json_round_trip(self):
        reps = run_all(trials_per_check=5, names=["weak_triangle"])
        doc = json.loads(reports_to_json(reps))
        assert doc[0]["name"] == "weak_triangle"
        assert doc[0]["trials_run"] == 5

    def test_csv_writer(self, tmp_path):
        reps = run_all(trials_per_check=5, names=["weak_triangle", "fact_sum"])
        path = tmp_path / "out.csv"
        reports_to_csv(reps, path)
        lines = path.read_text().strip().splitlines()
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
