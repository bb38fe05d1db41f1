"""Tests of the benchmark itself: metric names, tracer restoration, smoke runs.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import entgames  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_spec_and_pattern(tmp_path):
    spec = _spec()
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    assert e2e == list(harness.END_TO_END)
    assert layer == list(tracing.layer_metrics(tracing.Tracer(), 0.0))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert tracing.CHECK_NAMES == tuple(entgames.checks.REGISTRY)
    protocol = workloads.ProtocolMC(tmp_path, 0)
    protocol.prepare()
    assert tracing.PROTOCOL_OPS == tuple(protocol.docs)
    names = e2e + layer + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == harness.unit_of(m["name"]), m["name"]


def _package_attributes() -> dict:
    """Every attribute of every entgames module, and of every class they define."""
    snap = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "entgames" and not mod_name.startswith("entgames."):
            continue
        for attr, value in vars(mod).items():
            snap[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in vars(value).items():
                    snap[(mod_name, attr, cattr)] = cvalue
    return snap


def _assert_restored(before: dict) -> None:
    after = _package_attributes()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, changed


def test_tracer_patches_every_consumer_and_restores():
    before = _package_attributes()
    fidelity = entgames.qinfo.fidelity
    with tracing.Tracer():
        assert entgames.checks.fidelity is not fidelity
        assert entgames.sic.fidelity is entgames.qinfo.fidelity is not fidelity
        assert entgames.qinfo.matrix_sqrt_psd is not before[("entgames.linalg", "matrix_sqrt_psd")]
        assert entgames.checks.run_check is not before[("entgames.checks", "run_check")]
        sample_wins = entgames.protocol.IidBernoulli.__dict__["sample_wins"]
        assert sample_wins is not before[("entgames.protocol", "IidBernoulli", "sample_wins")]
    _assert_restored(before)


def test_tracer_restores_after_an_op_raises():
    before = _package_attributes()
    with tracing.Tracer() as tracer:
        tracer.op = "bad"
        with pytest.raises(ValueError):
            entgames.qinfo.fidelity(np.eye(2) / 2, np.eye(3) / 3)
        tracer.op = None
    _assert_restored(before)
    assert [s[tracing.NAME] for s in tracer.spans] == ["qinfo.fidelity"]
    assert tracer.spans[0][tracing.RAISED]
    assert tracing.layer_metrics(tracer, 0.0)["qinfo.errors"] == 1

    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("escapes the traced block")
    _assert_restored(before)


SMOKE = {
    "verify_suite": {"trials": 3},
    "protocol_mc": {"trials": 600},
    "seesaw_values": {"restarts": 4, "iters": (30, 30)},
    "sic_decouple": {"instances": 3},
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_passes_gates_and_reruns_byte_identical(name, tmp_path):
    reports = []
    for run in ("a", "b"):
        wl = workloads.WORKLOADS[name](tmp_path / run, 0, **SMOKE[name])
        wl.prepare()
        runner = harness.Runner(wl)
        with tracing.Tracer() as tracer:
            runner.run_pass(0, tracer)
        runner.run_pass(1)
        assert runner.errors == []
        assert tracer.spans and tracer.spans[0][tracing.NAME] == "cli.main"
        metrics = harness.end_to_end(runner, 0.0)
        assert metrics["work_per_s"] > 0 and metrics["value_shortfall"] > 0
        reports.append({r.op.label: (r.op.out / "report.json").read_bytes()
                        for r in runner.passes[0] if (r.op.out / "report.json").exists()})
    assert reports[0] == reports[1]
