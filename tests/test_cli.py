import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entgames
from entgames import checks, cli, games
from entgames.cli import main
from entgames.games import chsh, classical_value, load_game

from conftest import write_game

SQ = 1 / math.sqrt(2)


def write_chsh(tmp_path):
    path = tmp_path / "chsh.json"
    write_game(chsh(), path)
    return path


def constant_spec(tmp_path):
    bell = [[SQ, 0.0], [0.0, 0.0], [0.0, 0.0], [SQ, 0.0]]
    doc = {
        "p": [[0.25, 0.25], [0.25, 0.25]],
        "dims": [2, 2],
        "advice": [[bell, bell], [bell, bell]],
    }
    path = tmp_path / "constant.json"
    path.write_text(json.dumps(doc))
    return path


def revealing_spec(tmp_path):
    grid = []
    for x in range(2):
        row = []
        for y in range(2):
            amps = [[0.0, 0.0]] * 4
            amps = [list(a) for a in amps]
            amps[y * 2 + x][0] = 1.0     # A holds y, B holds x
            row.append(amps)
        grid.append(row)
    doc = {"p": [[0.25, 0.25], [0.25, 0.25]], "dims": [2, 2], "advice": grid}
    path = tmp_path / "revealing.json"
    path.write_text(json.dumps(doc))
    return path


class TestValue:
    def test_classical(self, tmp_path, capsys):
        game = write_chsh(tmp_path)
        out = tmp_path / "out"
        assert main(["value", str(game), "--out", str(out)]) == 0
        assert "classical value: 0.75" in capsys.readouterr().out
        rep = json.loads((out / "report.json").read_text())
        assert rep["value"] == 0.75
        assert rep["strategy"] == {"alice": [0, 0], "bob": [0, 0]}
        man = json.loads((out / "manifest.json").read_text())
        assert man["command"] == "value"
        assert "report.json" in man["outputs"]

    def test_entangled(self, tmp_path, capsys):
        game = write_chsh(tmp_path)
        out = tmp_path / "out"
        code = main(["value", str(game), "--mode", "entangled", "--seed", "0",
                     "--restarts", "5", "--iters", "60", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "entangled value (lower bound):" in text
        assert "restart 0:" in text
        rep = json.loads((out / "report.json").read_text())
        assert rep["value"] >= 0.85
        assert len(rep["traces"]) == 5
        assert rep["seed"] == 0

    def test_entangled_rerun_identical(self, tmp_path):
        game = write_chsh(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["value", str(game), "--mode", "entangled", "--seed", "7",
                  "--restarts", "3", "--iters", "40", "--out", str(out)])
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_manifest_timings(self, tmp_path):
        game = write_chsh(tmp_path)
        for mode in ("classical", "entangled"):
            out = tmp_path / mode
            assert main(["value", str(game), "--mode", mode, "--seed", "0",
                         "--restarts", "4", "--iters", "30", "--out", str(out)]) == 0
            man = json.loads((out / "manifest.json").read_text())
            rep = json.loads((out / "report.json").read_text())
            assert set(man["timings"]) == {"load_s", "compute_s", "write_s"}
            assert all(t >= 0.0 for t in man["timings"].values())
            if mode == "classical":
                assert "seesaw" not in man
                assert set(rep) == {"command", "mode", "game", "free", "projection",
                                    "value", "strategy"}
                continue
            # timings stay out of report.json, which is byte-deterministic
            assert set(rep) == {"command", "mode", "game", "free", "projection", "value",
                                "seed", "d", "restarts", "iters", "best_restart", "traces"}
            assert man["seesaw"]["iterations"] == sum(len(t) for t in rep["traces"])
            assert man["seesaw"]["iterations_per_s"] > 0.0
            # the restarts advance in lockstep, so the longest trace sets the steps
            assert man["seesaw"]["steps"] == max(len(t) for t in rep["traces"])

    @pytest.mark.parametrize("mode", ["classical", "entangled"])
    def test_reports_which_theorem_covers_the_game(self, tmp_path, mode):
        # free: the paper's free-game bound applies; free and projection: the
        # free projection-game bound applies too
        win_all = np.ones((2, 2, 2, 2), dtype=bool)
        corr = games.Game(2, 2, np.array([[0.5, 0.0], [0.0, 0.5]]), win_all)
        all_ones = games.Game(2, 2, np.full((2, 2), 0.25), win_all)
        cases = {"chsh": (chsh(), True, True), "chsh2": (games.repeat(chsh(), 2), True, True),
                 "corr": (corr, False, False), "all_ones": (all_ones, True, False)}
        for name, (g, free, projection) in cases.items():
            path, out = tmp_path / f"{name}.json", tmp_path / f"{name}-{mode}"
            write_game(g, path)
            assert main(["value", str(path), "--mode", mode, "--seed", "0", "--d", "2",
                         "--restarts", "1", "--iters", "2", "--out", str(out)]) == 0
            rep = json.loads((out / "report.json").read_text())
            assert (rep["free"], rep["projection"]) == (free, projection), name

    def test_manifest_final_increments(self, tmp_path):
        # each restart's last trace step, null for a one-entry trace; a
        # restart that still rose by 1e-12 or more stopped at --iters
        game = write_chsh(tmp_path)
        for iters in (1, 2, 100):
            out = tmp_path / f"iters{iters}"
            assert main(["value", str(game), "--mode", "entangled", "--seed", "2",
                         "--restarts", "6", "--iters", str(iters), "--out", str(out)]) == 0
            man = json.loads((out / "manifest.json").read_text())
            rep = json.loads((out / "report.json").read_text())
            assert "final_increments" not in rep
            incs = man["seesaw"]["final_increments"]
            assert len(incs) == len(rep["traces"]) == 6
            for inc, trace in zip(incs, rep["traces"]):
                if len(trace) == 1:
                    assert inc is None
                    continue
                assert inc == trace[-1] - trace[-2]
                assert inc < 1e-12 or len(trace) == iters
            if iters == 1:
                assert incs == [None] * 6
            if iters == 2:
                assert any(inc is not None and inc >= 1e-12 for inc in incs)

    @pytest.mark.parametrize("flag", ["--iters", "--restarts"])
    def test_entangled_rejects_zero(self, tmp_path, capsys, flag):
        # --iters 0 used to die on an empty trace; --restarts 0 reported -1.0
        game = write_chsh(tmp_path)
        out = tmp_path / "out"
        code = main(["value", str(game), "--mode", "entangled", "--seed", "0",
                     flag, "0", "--out", str(out)])
        assert code == 2
        assert "restarts and iters must be >= 1" in capsys.readouterr().err
        assert not out.exists()         # input errors leave no output directory

    def test_missing_file(self, tmp_path, capsys):
        assert main(["value", str(tmp_path / "nope.json")]) == 2
        assert "file not found" in capsys.readouterr().err

    def test_broken_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"k": 2,,}')
        assert main(["value", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "x", "2.5"])
    def test_seed_must_be_non_negative_integer(self, tmp_path, capsys, seed):
        # a negative seed used to reach numpy, whose message named no field
        game = write_chsh(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["value", str(game), "--mode", "entangled", "--seed", seed,
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_seesaw_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        # one CHSH restart at d = 2 needs a 16-entry payoff operator
        game = write_chsh(tmp_path)
        monkeypatch.setattr(games, "MAX_TABLE_ENTRIES", 15)
        out = tmp_path / "o"
        assert main(["value", str(game), "--mode", "entangled", "--d", "2",
                     "--seed", "0", "--out", str(out)]) == 3
        assert "one see-saw restart needs 16 entries" in capsys.readouterr().err
        assert not out.exists()


class TestRepeat:
    def test_two_fold(self, tmp_path):
        game = write_chsh(tmp_path)
        out = tmp_path / "out"
        assert main(["repeat", str(game), "--n", "2", "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["k"] == 4 and rep["l"] == 4
        g2 = load_game(out / "game.json")
        assert classical_value(g2).value == 0.625

    def test_once_is_byte_identical(self, tmp_path):
        game = write_chsh(tmp_path)
        out = tmp_path / "out"
        main(["repeat", str(game), "--n", "1", "--out", str(out)])
        assert (out / "game.json").read_bytes() == game.read_bytes()

    def test_majority_alpha_zero(self, tmp_path):
        game = write_chsh(tmp_path)
        out = tmp_path / "out"
        main(["repeat", str(game), "--n", "2", "--alpha", "0", "--out", str(out)])
        g = load_game(out / "game.json")
        assert g.v.all()

    def test_manifest_timings(self, tmp_path):
        game = write_chsh(tmp_path)
        out = tmp_path / "out"
        assert main(["repeat", str(game), "--n", "2", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert set(man["timings"]) == {"load_s", "compute_s", "write_s"}
        assert all(t >= 0.0 for t in man["timings"].values())
        # timings stay out of report.json, which is byte-deterministic
        rep = json.loads((out / "report.json").read_text())
        assert set(rep) == {"command", "n", "alpha", "k", "l", "name"}

    def test_budget_exit_code(self, tmp_path, capsys):
        game = write_chsh(tmp_path)
        assert main(["repeat", str(game), "--n", "12",
                     "--out", str(tmp_path / "o")]) == 3
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_filtered_clean(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["verify", "--filter", "weak*", "--trials", "50",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        assert "weak_triangle" in capsys.readouterr().out
        rep = json.loads((out / "report.json").read_text())
        assert [r["name"] for r in rep] == ["weak_triangle"]
        assert rep[0]["violations"] == 0
        assert (out / "report.csv").read_text().startswith("name,trials,")

    def test_counterexample_flow(self, tmp_path):
        out = tmp_path / "out"
        code = main(["verify", "--filter", "cool_product", "--trials", "1000",
                     "--seed", "0", "--out", str(out)])
        assert code == 1
        dump = out / "counterexample_cool_product_961.json"
        assert dump.exists()
        man = json.loads((out / "manifest.json").read_text())
        assert dump.name in man["outputs"]

    def test_outputs_omit_older_dumps(self, tmp_path):
        # a clean run into a directory that holds an earlier run's dump lists
        # only the files it wrote; it used to list every dump found there
        out = tmp_path / "out"
        assert main(["verify", "--filter", "cool_product", "--trials", "1000",
                     "--seed", "7", "--out", str(out)]) == 1
        man = json.loads((out / "manifest.json").read_text())
        assert man["outputs"] == ["report.json", "report.csv",
                                  "counterexample_cool_product_640.json"]
        assert main(["verify", "--filter", "fact_sum", "--trials", "100",
                     "--seed", "7", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["outputs"] == ["report.json", "report.csv"]
        assert (out / "counterexample_cool_product_640.json").exists()

    def test_manifest_check_timings(self, tmp_path):
        # per-check wall time and throughput go to the manifest, never the report
        out = tmp_path / "out"
        main(["verify", "--filter", "*_mono", "--trials", "30", "--seed", "2",
              "--out", str(out)])
        man = json.loads((out / "manifest.json").read_text())
        assert list(man["checks"]) == ["cptp_mono", "relent_mono"]
        for timing in man["checks"].values():
            assert timing["wall_s"] > 0
            assert timing["trials_per_s"] == pytest.approx(30 / timing["wall_s"])
        assert sum(t["wall_s"] for t in man["checks"].values()) <= man["wall_time_s"]
        assert "wall_s" not in (out / "report.json").read_text()

    def test_manifest_and_report_schema(self, tmp_path):
        # counters and the environment go to the manifest; report.json keeps
        # exactly the CheckReport fields, the same bytes as the suite runner's
        out = tmp_path / "out"
        main(["verify", "--filter", "*_mono", "--trials", "300", "--seed", "2",
              "--out", str(out)])
        man = json.loads((out / "manifest.json").read_text())
        assert set(man["environment"]) == {"cpu_count", "numpy", "blas"}
        assert man["environment"]["numpy"] == np.__version__
        assert set(man["environment"]["blas"]) == {"name", "version"}
        counters: dict = {}
        reports = checks.run_all(2, 300, ["cptp_mono", "relent_mono"], counters)
        for name, entry in man["checks"].items():
            assert set(entry) == {"wall_s", "trials_per_s", "kernel_calls",
                                  "max_batch_entries", "draw_s", "kernel_s", "replay_s",
                                  "replay_mismatches"}
            assert {k: entry[k] for k in ("kernel_calls", "max_batch_entries")} \
                == {k: counters[name][k] for k in ("kernel_calls", "max_batch_entries")}
            assert entry["kernel_calls"] >= 1
            assert 0 < entry["max_batch_entries"] < checks._BUDGET + 1000
        assert (out / "report.json").read_text() == checks.reports_to_json(reports)
        for rep in json.loads((out / "report.json").read_text()):
            assert set(rep) == {"name", "trials_run", "violations", "worst_margin",
                                "worst_case_seed"}

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_rejects_no_trials(self, tmp_path, capsys, trials):
        # used to exit 0 with "worst_margin": Infinity, which is not JSON
        out = tmp_path / "out"
        code = main(["verify", "--filter", "fact_sum", "--trials", trials,
                     "--seed", "0", "--out", str(out)])
        assert code == 2
        assert "trials must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_reports(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["verify", "--filter", "four_state", "--trials", "40",
                  "--seed", "3", "--out", str(out)])
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_negative_seed_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--filter", "fact_sum", "--trials", "5", "--seed", "-1",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_filter(self, tmp_path, capsys):
        assert main(["verify", "--filter", "zzz*", "--trials", "5",
                     "--out", str(tmp_path / "o")]) == 2
        assert "matches no checks" in capsys.readouterr().err

    def test_empty_filter_matches_no_checks(self, tmp_path, capsys):
        # an empty glob matches no name; it does not mean "no filter"
        out = tmp_path / "o"
        assert main(["verify", "--filter", "", "--trials", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: filter '' matches no checks\n"
        assert not out.exists()

    def test_error_after_a_counterexample_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # four_state, cool_product (violating at trial 961) and fact_sum, whose
        # kernel raises: the run stops before _finish, so the document of
        # cool_product's counterexample is never written and no directory is left
        def kernel(key, x):
            raise ValueError("kernel failed")

        monkeypatch.setitem(checks.REGISTRY, "fact_sum",
                            dataclasses.replace(checks.REGISTRY["fact_sum"], kernel=kernel))
        out = tmp_path / "out"
        assert main(["verify", "--filter", "[cf][ao]*", "--trials", "962", "--seed", "0",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: kernel failed\n"
        assert not out.exists()


class TestSimulate:
    def write_config(self, tmp_path, **overrides):
        doc = {
            "n": 8, "epsilon": 1.0, "t": 0.0, "trials": 400,
            "v_override": 4, "seed": 0,
            "model": {"kind": "iid_bernoulli", "w": 1.0},
        }
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_always_winner_consistent(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "verdict: consistent" in text
        rep = json.loads((out / "report.json").read_text())
        assert rep["guarantee"]["verdict"] == "consistent"
        assert rep["stats"]["p_succeed_hat"] == 1.0
        assert (out / "report.csv").read_text().count("\n") == 2

    def test_violated_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, n=20, t=15.0, trials=3000,
                                v_override=1,
                                model={"kind": "iid_bernoulli", "w": 0.6})
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "verdict: violated" in capsys.readouterr().out

    def test_two_branch_model(self, tmp_path):
        cfg = self.write_config(tmp_path, t=2.0, n=16, v_override=8,
                                trials=2000,
                                model={"kind": "win_all_or_partial",
                                       "q": 0.9, "f": 0.75})
        out = tmp_path / "out"
        main(["simulate", str(cfg), "--out", str(out)])
        rep = json.loads((out / "report.json").read_text())
        assert rep["stats"]["mismatch_trials"] == 0   # general variant
        assert 0.85 < rep["stats"]["p_succeed_hat"] < 1.0

    def test_strategy_backed_model(self, tmp_path):
        write_chsh(tmp_path)
        cfg = self.write_config(tmp_path, n=2, trials=400,
                                model={"kind": "strategy_backed",
                                       "game": "chsh.json", "d": 2,
                                       "restarts": 2, "iters": 40})
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["guarantee"]["win_all_probability"] == pytest.approx(
            math.cos(math.pi / 8) ** 4, abs=1e-3)

    def test_readme_strategy_backed_example(self, tmp_path):
        # the README config with its strategy_backed model, at n = 256
        write_chsh(tmp_path)
        cfg = self.write_config(tmp_path, n=256, epsilon=1.0, t=1.0, trials=100_000,
                                variant="general", v_override=None,
                                model={"kind": "strategy_backed", "game": "chsh.json",
                                       "d": 2, "restarts": 8, "iters": 60,
                                       "strategy_seed": 0})
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--seed", "0", "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["stats"]["v_used"] == 2304
        assert rep["stats"]["trials_effective"] == 100_000
        omega = rep["guarantee"]["win_all_probability"] ** (1 / 256)
        assert omega == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-6)
        assert rep["guarantee"]["verdict"] == "inconclusive"   # omega^256 < 2^-1

    def test_projection_variant(self, tmp_path):
        cfg = self.write_config(tmp_path, variant="projection", t=2.0,
                                model={"kind": "iid_bernoulli", "w": 0.0},
                                v_override=1, hash_bits=2, trials=2000)
        out = tmp_path / "out"
        main(["simulate", str(cfg), "--out", str(out)])
        rep = json.loads((out / "report.json").read_text())
        assert rep["stats"]["mismatch_trials"] == 2000
        p = rep["stats"]["p_hash_accept_given_mismatch"]
        assert abs(p - 0.25) < 0.03

    def test_seed_flag_overrides(self, tmp_path):
        cfg = self.write_config(tmp_path, model={"kind": "iid_bernoulli", "w": 0.8})
        runs = {}
        for seed in ("0", "1"):
            out = tmp_path / f"s{seed}"
            main(["simulate", str(cfg), "--seed", seed, "--out", str(out)])
            runs[seed] = json.loads((out / "report.json").read_text())
        assert runs["0"]["config"]["seed"] == 0
        assert runs["1"]["config"]["seed"] == 1
        assert runs["0"]["stats"]["successes"] != runs["1"]["stats"]["successes"]

    def test_rerun_identical(self, tmp_path):
        cfg = self.write_config(tmp_path, model={"kind": "iid_bernoulli", "w": 0.8})
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["simulate", str(cfg), "--out", str(out)])
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("trials, chunks", [(400, 1), (4096, 1), (8200, 3)])
    def test_manifest_timings_and_chunks(self, tmp_path, trials, chunks):
        # n + 1 > 2^16: W is drawn per trial, one generator per 4,096 trials
        cfg = self.write_config(tmp_path, trials=trials, n=1 << 16)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert set(man["timings"]) == {"load_s", "compute_s", "write_s"}
        assert all(t >= 0.0 for t in man["timings"].values())
        assert man["chunks"] == chunks
        # the sampling's share of compute_s, which also builds the model
        assert 0.0 <= man["sample_s"] <= man["timings"]["compute_s"]
        # timings stay out of report.json, which is byte-deterministic
        rep = json.loads((out / "report.json").read_text())
        assert set(rep) == {"command", "config", "stats", "guarantee"}

    @pytest.mark.parametrize("model", [{"kind": "iid_bernoulli", "w": 0.9},
                                       {"kind": "win_all_or_partial", "q": 0.9, "f": 0.5}])
    def test_histogram_run_draws_from_one_generator(self, tmp_path, model):
        cfg = self.write_config(tmp_path, trials=10**12, model=model)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["chunks"] == 1
        rep = json.loads((out / "report.json").read_text())
        assert rep["stats"]["trials_effective"] == 10**12

    def test_negative_seed_flag_is_input_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(cfg), "--seed", "-1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err

    def test_general_variant_takes_any_t(self, tmp_path):
        # the general variant never hashes, so ceil(2t) > 62 is no error there
        cfg = self.write_config(tmp_path, t=40.0, v_override=None, trials=100)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["config"]["t"] == 40.0 and rep["config"]["hash_bits"] is None
        assert rep["stats"]["p_succeed_hat"] == 1.0

    def test_integral_float_fields_accepted(self, tmp_path):
        cfg = self.write_config(tmp_path, v_override=4.0, hash_bits=3.0, trials=400.0)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["config"]["v_override"] == 4 and rep["config"]["hash_bits"] == 3

    def test_config_errors(self, tmp_path, capsys):
        missing = tmp_path / "none.json"
        assert main(["simulate", str(missing)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["simulate", str(bad)]) == 2
        nomodel = tmp_path / "nomodel.json"
        nomodel.write_text(json.dumps({"n": 4, "epsilon": 1.0, "t": 0, "trials": 5}))
        assert main(["simulate", str(nomodel)]) == 2
        badkind = self.write_config(tmp_path, model={"kind": "oracle"})
        assert main(["simulate", str(badkind)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("overrides, field", [
        ({"model": {"kind": "iid_bernoulli"}}, "'w'"),
        ({"model": {"kind": "win_all_or_partial", "q": 0.9}}, "'f'"),
        ({"model": {"kind": "strategy_backed", "game": "chsh.json", "d": [2]}}, "'d'"),
        ({"n": None}, "'n'"),
        ({"trials": [5]}, "'trials'"),
        ({"v_override": "x"}, "'v_override'"),
        ({"v_override": [3]}, "'v_override'"),
        ({"v_override": 2.5}, "'v_override'"),
        ({"hash_bits": "x"}, "'hash_bits'"),
        ({"hash_bits": [3]}, "'hash_bits'"),
        ({"hash_bits": 2.5}, "'hash_bits'"),
        ({"t": float("inf")}, "t must be finite"),
        ({"t": float("nan")}, "t must be finite"),
        ({"seed": -4}, "'seed'"),
        ({"seed": 2.5}, "'seed'"),
        ({"model": {"kind": "strategy_backed", "game": "chsh.json", "strategy_seed": -1}},
         "'strategy_seed'"),
        ({"variant": "projection", "t": 40.0}, "t = 40"),
        ({"hash_bits": 63}, "hash_bits must lie in [0, 62]"),
        # JSON booleans and strings are not numbers
        ({"trials": True}, "'trials'"),
        ({"epsilon": True}, "'epsilon'"),
        ({"n": "256"}, "'n'"),
        ({"t": "1"}, "'t'"),
        ({"seed": True}, "'seed'"),
        ({"v_override": True}, "'v_override'"),
        ({"model": {"kind": "iid_bernoulli", "w": "0.99"}}, "'w'"),
        ({"model": {"kind": "win_all_or_partial", "q": True, "f": 0.5}}, "'q'"),
        ({"t": 10**400}, "'t'"),        # too large for a float
        ({"model": {"kind": "strategy_backed", "game": 5}}, "'game'"),
        ({"model": {"kind": "strategy_backed", "game": ["chsh.json"]}}, "'game'"),
        ({"variant": 5}, "'variant'"),
    ])
    def test_bad_fields_are_input_errors(self, tmp_path, capsys, overrides, field):
        write_chsh(tmp_path)
        cfg = self.write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("doc, field", [
        ([1, 2], "JSON object"),
        ({"k": None}, "'k'"),
        ({"k": [2]}, "'k'"),
        ({"k": 2.5}, "'k'"),
        ({"l": 2.5}, "'l'"),
        ({"p": {"x": 1}}, "'p'"),
        ({"V": [[1], [1, 2]]}, "'V'"),
        ({"name": {"a": 1}}, "'name'"),
        ({"name": 3}, "'name'"),
        ({"p": [[float("nan"), 0.25], [0.25, 0.25]]}, "non-finite"),
        # JSON booleans and strings are not numbers, and V holds only 0 and 1
        ({"k": "2"}, "'k'"),
        ({"l": True}, "'l'"),
        ({"p": [[True, False], [False, False]]}, "'p'"),
        ({"p": [[1, 0], [0, False]]}, "'p'"),
        ({"p": [["0.25", "0.25"], ["0.25", "0.25"]]}, "'p'"),
        ({"k": 1, "l": 1, "p": [[1.0]], "V": [[[["0"]]]]}, "'V'"),
        ({"k": 1, "l": 1, "p": [[1.0]], "V": [[[[False]]]]}, "'V'"),
        ({"k": 1, "l": 1, "p": [[1.0]], "V": [[[[2]]]]}, "'V'"),
        ({"k": 1, "l": 1, "p": [[1.0]], "V": [[[[0.5]]]]}, "'V'"),
    ])
    def test_malformed_game_is_input_error(self, tmp_path, capsys, doc, field):
        game = json.loads(write_chsh(tmp_path).read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**game, **doc} if isinstance(doc, dict) else doc))
        cfg = self.write_config(tmp_path, model={"kind": "strategy_backed", "game": "bad.json"})
        for argv in (["value", str(bad)], ["repeat", str(bad), "--n", "2"],
                     ["simulate", str(cfg)]):
            out = tmp_path / "out"
            assert main([*argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and field in err
            assert not out.exists()


    def test_game_path_is_a_directory(self, tmp_path, capsys):
        # an unreadable game file is an input error, not a traceback (exit 1)
        (tmp_path / "dir.json").mkdir()
        cfg = self.write_config(tmp_path, model={"kind": "strategy_backed", "game": "dir.json"})
        for argv in (["value", str(tmp_path / "dir.json")],
                     ["repeat", str(tmp_path / "dir.json"), "--n", "2"],
                     ["simulate", str(cfg)]):
            out = tmp_path / "out"
            assert main([*argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: cannot read ") and "dir.json" in err
            assert not out.exists()

    def test_game_name_kept_or_absent(self, tmp_path):
        game = json.loads(write_chsh(tmp_path).read_text())
        for name, want in (("CHSH", "CHSH^2"), (None, "")):
            path = tmp_path / "named.json"
            path.write_text(json.dumps({**game, "name": name}))
            out = tmp_path / f"out{want}"
            assert main(["repeat", str(path), "--n", "2", "--out", str(out)]) == 0
            assert json.loads((out / "report.json").read_text())["name"] == want


class TestSic:
    def test_constant_advice(self, tmp_path, capsys):
        spec = constant_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["sic", str(spec), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert abs(rep["objective"]) <= 1e-9
        assert "objective: " in capsys.readouterr().out

    def test_revealing_advice(self, tmp_path):
        spec = revealing_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["sic", str(spec), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["objective"] == pytest.approx(2.0, abs=1e-9)
        assert rep["term_x"] == pytest.approx(1.0, abs=1e-9)

    def test_decouple_flag(self, tmp_path, capsys):
        spec = revealing_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["sic", str(spec), "--decouple", "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        dec = rep["decoupling"]
        assert dec["alice_ok"] and dec["combined_ok"]
        assert dec["fbar_alice"] <= dec["alice_bound_9x"] + 1e-6
        text = capsys.readouterr().out
        assert "decoupling: fbar_alice" in text and "ok" in text

    def test_manifest_phase_timings(self, tmp_path):
        # phase timings go to the manifest, never the report
        spec = revealing_spec(tmp_path)
        for flag in ([], ["--decouple"]):
            out = tmp_path / f"out{len(flag)}"
            assert main(["sic", str(spec), *flag, "--out", str(out)]) == 0
            man = json.loads((out / "manifest.json").read_text())
            timings = man["timings"]
            assert set(timings) == {"load_s", "compute_s", "write_s"}
            assert all(v >= 0.0 for v in timings.values())
            assert sum(timings.values()) <= man["wall_time_s"]
            assert timings["compute_s"] > 0.0
            assert man["config"]["decouple"] == bool(flag)     # which computation ran
            assert "timings" not in (out / "report.json").read_text()

    def test_decouple_rejects_correlated_input(self, tmp_path, capsys):
        doc = json.loads(constant_spec(tmp_path).read_text())
        doc["p"] = [[0.5, 0.0], [0.0, 0.5]]
        spec = tmp_path / "correlated.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["sic", str(spec), "--decouple", "--out", str(out)]) == 2
        assert "product input distribution" in capsys.readouterr().err
        assert not out.exists()

    def test_spec_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"p": [[1.0]], "dims": [2, 2]}))
        assert main(["sic", str(bad)]) == 2
        assert "missing field" in capsys.readouterr().err
        short = tmp_path / "short.json"
        short.write_text(json.dumps({
            "p": [[0.25, 0.25], [0.25, 0.25]], "dims": [2, 2],
            "advice": [[[[1.0, 0.0]] * 4]],
        }))
        assert main(["sic", str(short)]) == 2

    @pytest.mark.parametrize("advice", [5, "grid", [1, 2], [[None, None], [None]]])
    def test_malformed_advice_is_input_error(self, tmp_path, capsys, advice):
        doc = json.loads(constant_spec(tmp_path).read_text())
        doc["advice"] = advice
        spec = tmp_path / "bad_advice.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["sic", str(spec), "--decouple", "--out", str(out)]) == 2
        assert "'advice'" in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_dims_are_input_error(self, tmp_path, capsys):
        doc = json.loads(constant_spec(tmp_path).read_text())
        doc["dims"] = [2.5, 2]
        spec = tmp_path / "bad_dims.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["sic", str(spec), "--out", str(out)]) == 2
        assert "'dims'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dims", [[2, 2, 2], [2], [], [-1, -2], [0, 2]])
    def test_dims_not_two_positive_integers(self, tmp_path, capsys, dims):
        doc = json.loads(constant_spec(tmp_path).read_text())
        doc["dims"] = dims
        spec = tmp_path / "bad_dims.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["sic", str(spec), "--out", str(out)]) == 2
        assert "'dims' must be two positive integers" in capsys.readouterr().err
        assert not out.exists()

    def test_unnormalized_advice_is_input_error(self, tmp_path, capsys):
        # pairs (x, 1) have probability 0 and advice of norm 1/sqrt(2)
        doc = json.loads(constant_spec(tmp_path).read_text())
        doc["p"] = [[0.5, 0.0], [0.5, 0.0]]
        half = [[SQ * SQ, 0.0], [0.0, 0.0], [0.0, 0.0], [SQ * SQ, 0.0]]
        doc["advice"][0][1] = doc["advice"][1][1] = half
        spec = tmp_path / "unnormalized.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["sic", str(spec), "--out", str(out)]) == 2
        assert "normalized" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("p", [[True, False], [False, False]]),
        ("p", [[1, 0], [0, False]]),
        ("p", [["0.25", "0.25"], ["0.25", "0.25"]]),
        ("advice", "booleans"),
        ("advice", "strings"),
    ])
    def test_tables_must_hold_numbers(self, tmp_path, capsys, field, value):
        # JSON booleans and strings used to be read as the numbers 1, 0, 0.25
        doc = json.loads(revealing_spec(tmp_path).read_text())
        if value == "booleans":
            value = [[[[bool(v) for v in pair] for pair in st] for st in row]
                     for row in doc["advice"]]
        elif value == "strings":
            value = [[[[str(v) for v in pair] for pair in st] for st in row]
                     for row in doc["advice"]]
        doc[field] = value
        spec = tmp_path / "bad_table.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["sic", str(spec), "--out", str(out)]) == 2
        assert f"{field!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [[], ["--decouple"]])
    def test_rounded_negative_p_entry_weighs_zero(self, tmp_path, capsys, flag):
        # check_distribution accepts entries down to -1e-15; their square root
        # used to be nan, reported as "amplitudes have non-finite entries"
        doc = json.loads(constant_spec(tmp_path).read_text())
        spec = tmp_path / "rounded.json"
        for low, code in ((-1e-16, 0), (-2e-15, 2)):
            doc["p"] = [[0.5, 0.5 - low], [low, 0.0]]
            spec.write_text(json.dumps(doc))
            out = tmp_path / f"out{code}"
            assert main(["sic", str(spec), *flag, "--out", str(out)]) == code
            assert out.exists() == (code == 0)
        assert "error: p has negative entries" in capsys.readouterr().err

    def test_non_object_spec_is_input_error(self, tmp_path, capsys):
        spec = tmp_path / "list.json"
        spec.write_text("[1, 2]")
        assert main(["sic", str(spec), "--out", str(tmp_path / "out")]) == 2
        assert "JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def run_fresh(args: list[str]) -> int:
    """Exit code of `python args` in a new interpreter that imports this entgames."""
    src = str(Path(entgames.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          timeout=300).returncode


def _out_of_memory(*args):
    raise MemoryError("Unable to allocate 58.2 TiB for an array with shape "
                      "(1000000000000, 2, 2)")


@pytest.mark.parametrize("argv, doc, code, named", [
    pytest.param(["simulate"], {"t": 1e308}, 2, "t = 1e+308", id="t-general"),
    pytest.param(["simulate"], {"t": 1e308, "variant": "projection", "hash_bits": 4}, 2,
                 "t = 1e+308", id="t-projection-hash_bits"),
    pytest.param(["simulate"], {"t": 1e308, "variant": "projection"}, 2, "t = 1e+308",
                 id="t-projection"),
    pytest.param(["simulate"], {"epsilon": 5e-324}, 2, "epsilon = 4.94066e-324",
                 id="epsilon-subnormal"),
    pytest.param(["simulate"], {"v_override": 10**310}, 2,
                 "v_override is too large for a float", id="v_override-huge"),
    pytest.param(["simulate"], {"n": 1 << 63}, 2, "n must lie", id="n-iid"),
    pytest.param(["simulate"], {"n": 1 << 63, "model": {"kind": "strategy_backed",
                                                       "game": "chsh.json"}},
                 2, "n must lie", id="n-strategy"),
    pytest.param(["simulate"], {"trials": 1 << 63}, 2, "trials must lie", id="trials"),
    pytest.param(["repeat", "--n", "4000"], None, 3, "budget", id="repeat"),
    pytest.param(["repeat", "--n", "4000", "--alpha", "0.5"], None, 3, "budget",
                 id="repeat-majority"),
    pytest.param(["value", "--mode", "entangled", "--restarts", "1000000000000",
                  "--seed", "0"], None, 3, "Unable to allocate", id="value-memory"),
])
def test_hostile_input_is_an_error_exit(tmp_path, capsys, monkeypatch, argv, doc, code, named):
    # an input or budget error, not a traceback: simulate's required v as
    # ceil(inf), an n or a trial count beyond numpy's int64 binomial and
    # multinomial, a table size with over 4,300 digits, and an allocation of
    # every see-saw start at once
    target = write_chsh(tmp_path)
    if doc is not None:
        target = tmp_path / "config.json"
        target.write_text(json.dumps({"n": 8, "epsilon": 1.0, "t": 0.0, "trials": 400,
                                      "model": {"kind": "iid_bernoulli", "w": 1.0}, **doc}))
    if argv[0] == "value":      # the failed allocation, without allocating
        monkeypatch.setattr(games, "_draw_starts", _out_of_memory)
    out = tmp_path / "out"
    assert main([argv[0], str(target), *argv[1:], "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["value", "simulate", "sic"])
def test_oversized_integer_names_the_file(tmp_path, capsys, command):
    # json.loads refuses an integer literal over Python's 4,300-digit limit
    # with a ValueError that names no file
    if command == "value":
        doc = json.loads(games.game_to_json(chsh()))
        doc["k"] = "HUGE"
    elif command == "simulate":
        doc = {"n": "HUGE", "epsilon": 1.0, "t": 0.0, "trials": 10,
               "model": {"kind": "iid_bernoulli", "w": 1.0}}
    else:
        doc = json.loads(revealing_spec(tmp_path).read_text())
        doc["dims"] = [2, "HUGE"]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * 5000))
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid JSON in {path}: ") and "4300" in err
    assert not out.exists()


def test_deeply_nested_json_names_the_file(tmp_path, capsys):
    # json.loads raises RecursionError on nesting deeper than the interpreter's stack
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["value", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid JSON in {path}: maximum recursion depth")
    assert not (tmp_path / "out").exists()


def test_default_out_is_a_new_directory(tmp_path, monkeypatch, capsys):
    # runs of one command with one seed in one second used to share
    # out/<command>/<stamp>-<seed>/, so the last report sat next to the
    # files of the runs before it
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101-000000")
    game, spec = write_chsh(tmp_path), str(constant_spec(tmp_path))
    assert main(["verify", "--filter", "cool_product", "--trials", "1000", "--seed", "0"]) == 1
    assert main(["verify", "--filter", "fact_sum", "--trials", "10", "--seed", "0"]) == 0
    for _ in range(3):
        assert main(["sic", spec]) == 0
    for _ in range(2):
        assert main(["repeat", str(game), "--n", "2"]) == 0
    runs = {c: sorted(p.name for p in (tmp_path / "out" / c).iterdir())
            for c in ("verify", "sic", "repeat")}
    stamp = "20260101-000000-0"
    assert runs == {"verify": [stamp, f"{stamp}-1"],
                    "sic": [stamp, f"{stamp}-1", f"{stamp}-2"],
                    "repeat": [stamp, f"{stamp}-1"]}
    verify = tmp_path / "out" / "verify"
    assert [r["name"] for r in json.loads((verify / stamp / "report.json").read_text())] \
        == ["cool_product"]
    assert sorted(p.name for p in (verify / f"{stamp}-1").iterdir()) \
        == ["manifest.json", "report.csv", "report.json"]
    assert f"wrote {Path('out', 'repeat', f'{stamp}-1', 'game.json')} " in capsys.readouterr().out
    # an explicit --out is written into again, as before
    out = tmp_path / "given"
    for _ in range(2):
        assert main(["sic", spec, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "report.json"]


@pytest.mark.parametrize("command", ["value", "verify"])
def test_out_names_a_file(tmp_path, capsys, command):
    # an --out that is a regular file, or lies under one, is an input error
    # (exit 2) with one line, not a traceback and exit 1 (a property violation)
    argv = {"value": ["value", str(write_chsh(tmp_path))],
            "verify": ["verify", "--filter", "fact_sum", "--trials", "5", "--seed", "0"]}[command]
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    for out in (afile, afile / "sub"):
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert afile.read_text() == "kept\n"


class TestTopLevel:
    def test_version_flag(self, capsys):
        for _ in range(2):          # also once the parser is built and reused
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert "entgames" in capsys.readouterr().out

    def test_argparse_error_exits_2(self, capsys):
        for argv in (["value"], ["repeat", "g.json", "--n", "x"], ["nocommand"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "error:" in capsys.readouterr().err

    def test_parser_built_once_and_not_at_import(self, capsys):
        code = "import entgames.cli as c; assert c._parser.cache_info().currsize == 0"
        assert run_fresh(["-c", code]) == 0
        for _ in range(2):
            with pytest.raises(SystemExit):
                main(["--version"])
        info = cli._parser.cache_info()
        assert info.misses == 1 and info.hits >= 1

    def test_reused_parser_matches_fresh_process(self, tmp_path):
        # one process running several subcommands in turn writes the same
        # report.json bytes as a fresh process per command
        game = write_chsh(tmp_path)
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({
            "n": 8, "epsilon": 1.0, "t": 0.0, "trials": 500, "seed": 0,
            "model": {"kind": "strategy_backed", "game": "chsh.json", "restarts": 4,
                      "iters": 40}}))
        commands = [
            ["value", str(game), "--mode", "entangled", "--seed", "7",
             "--restarts", "3", "--iters", "40"],
            ["repeat", str(game), "--n", "2"],
            ["value", str(game)],
            ["sic", str(revealing_spec(tmp_path)), "--decouple"],
            ["verify", "--filter", "four_state", "--trials", "100", "--seed", "3"],
            ["simulate", str(sim)],
        ]
        for i, argv in enumerate(commands):
            same, fresh = tmp_path / f"same{i}", tmp_path / f"fresh{i}"
            code = main([*argv, "--out", str(same)])
            assert run_fresh(["-m", "entgames.cli", *argv, "--out", str(fresh)]) == code
            assert (same / "report.json").read_bytes() == (fresh / "report.json").read_bytes()

    @pytest.mark.parametrize("run", ["value", "value_entangled", "repeat", "verify",
                                     "verify_dumps", "simulate", "sic", "sic_decouple"])
    def test_manifest_schema(self, tmp_path, run):
        # every command writes its manifest through one writer, with one
        # phase-timing schema; only the command's own extra keys differ
        game = write_chsh(tmp_path)
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"n": 8, "epsilon": 1.0, "t": 0.0, "trials": 50,
                                   "model": {"kind": "iid_bernoulli", "w": 0.9}}))
        spec = str(revealing_spec(tmp_path))
        argv, extra = {
            "value": (["value", str(game)], set()),
            "value_entangled": (["value", str(game), "--mode", "entangled", "--seed", "0",
                                 "--restarts", "2", "--iters", "10"], {"seesaw"}),
            "repeat": (["repeat", str(game), "--n", "2"], set()),
            "verify": (["verify", "--filter", "f*", "--trials", "20", "--seed", "0"],
                       {"checks"}),
            "verify_dumps": (["verify", "--filter", "cool_product", "--trials", "1000",
                              "--seed", "0"], {"checks"}),
            "simulate": (["simulate", str(sim)], {"chunks", "sample_s"}),
            "sic": (["sic", spec], set()),
            "sic_decouple": (["sic", spec, "--decouple"], set()),
        }[run]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) in (0, 1)
        man = json.loads((out / "manifest.json").read_text())
        assert set(man) == {"command", "config", "seed", "version", "environment",
                            "wall_time_s", "outputs", "timings"} | extra
        assert man["command"] == argv[0]
        timings = man["timings"]
        assert set(timings) == {"load_s", "compute_s", "write_s"}
        assert all(t >= 0.0 for t in timings.values())
        assert sum(timings.values()) <= man["wall_time_s"]
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert sorted(man["outputs"]) == written
        assert len(set(man["outputs"])) == len(man["outputs"])
        assert man["outputs"][0] == "report.json"
        if run == "verify_dumps":
            assert "counterexample_cool_product_961.json" in written
        if run.startswith("verify"):
            # each check's draw, kernel and replay phases fit in its wall
            # time, and the audit's replays gave the batched margins
            for entry in man["checks"].values():
                phases = [entry["draw_s"], entry["kernel_s"], entry["replay_s"]]
                assert all(t >= 0.0 for t in phases)
                assert sum(phases) <= entry["wall_s"]
                assert entry["replay_mismatches"] == []

    def test_every_manifest_names_its_machine(self, tmp_path):
        game = write_chsh(tmp_path)
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"n": 8, "epsilon": 1.0, "t": 0.0, "trials": 50,
                                   "model": {"kind": "iid_bernoulli", "w": 0.9}}))
        commands = [["value", str(game)], ["repeat", str(game), "--n", "2"],
                    ["sic", str(constant_spec(tmp_path))],
                    ["verify", "--filter", "fact_sum", "--trials", "5", "--seed", "0"],
                    ["simulate", str(sim)]]
        for i, argv in enumerate(commands):
            out = tmp_path / f"out{i}"
            assert main([*argv, "--out", str(out)]) == 0
            man = json.loads((out / "manifest.json").read_text())
            assert man["environment"] == cli._environment()
            assert man["environment"]["cpu_count"] == os.cpu_count()
            assert "environment" not in (out / "report.json").read_text()
