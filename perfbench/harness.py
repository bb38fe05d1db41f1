"""Runs a workload's passes, gates them, and computes the metrics.

A run measures closed-loop and serially: the next op starts when the last
one returned.  Passes repeat until the next one would end after the measuring
time, so every measured pass is complete.  End-to-end metrics come from
untraced runs.  A traced run runs one op to warm up, times one untraced
reference pass, then repeats passes under the tracer; the traced and
untraced times of the same pass give the tracing overhead.

Timings are scaled by the speed probe of calibration.py so that they read as
if the machine ran at the probe's reference speed.  The probe runs before the
first op and after each op that ends at least PROBE_EVERY_S of op time since
the last probe, and after the last op of each pass; the ops between two
probes are scaled by the mean of the two.  The raw figures and the probe
times go to the results file.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import calibration
from entgames import cli
from tracing import Tracer, layer_metrics, layer_table
from workloads import WORKLOADS, OpResult, Workload

SETUP_REPEATS = 5
PROBE_EVERY_S = 1.0
OUT_DIR = ".perfbench_out"      # results and spans, at the checkout root
TMP_DIR = ".perfbench_tmp"      # inputs and --out directories, removed after the run

# name: (unit, what it is); every workload reports all of them
END_TO_END = {
    "setup_s": ("s", "import of entgames plus input generation, median of repeats, scaled"),
    "peak_rss_mb": ("MiB", "peak resident set size of the benchmark process"),
    "ok_op_share": ("share", "ops that exited 0 or 1, over ops attempted"),
    "work_per_s": ("1/s", "median over passes of work units per second of op time, scaled"),
    "value_shortfall": ("prob", "see-saw value below its known value, at least 1e-9"),
}

IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import entgames; "
                "print(time.perf_counter() - t)")


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_share"):
        return "share"
    return "count"


def call_op(op, tracer: Tracer | None = None) -> OpResult:
    """One entgames command line in-process, output captured, exit code kept."""
    out, err = io.StringIO(), io.StringIO()
    argv = [*op.argv, "--out", str(op.out)]
    if tracer is not None:
        tracer.op = op.label
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:          # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        err.write(traceback.format_exc())
    seconds = perf_counter() - t0
    if tracer is not None:
        tracer.op = None
    return OpResult(op, code, seconds, err.getvalue())


class Runner:
    """Runs passes of one workload and keeps what its metrics need."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.passes: list[list[OpResult]] = []
        self.shortfalls: list[float] = []
        self.probes: list[float] = []
        self.scaled: list[float] = []       # scaled op time of each pass
        self.errors: list[str] = []
        self._digests: dict[tuple, str] = {}

    def run_pass(self, p: int, tracer: Tracer | None = None) -> list[OpResult]:
        """Run pass p and gate it while its reports are on disk."""
        ops = self.wl.ops(p)
        for op in ops:
            shutil.rmtree(op.out, ignore_errors=True)
        if not self.probes:
            self.probes.append(calibration.probe())
        results, scaled, segment = [], 0.0, 0.0
        for i, op in enumerate(ops):
            results.append(call_op(op, tracer))
            segment += results[-1].seconds
            if segment >= PROBE_EVERY_S or i == len(ops) - 1:
                self.probes.append(calibration.probe())
                scaled += segment / calibration.slowness(self.probes[-2:])
                segment = 0.0
        self.scaled.append(scaled)
        self.errors += [f"pass {p}: {e}" for e in self.wl.check(results)]
        self.errors += [f"pass {p}: {e}" for e in self._check_rerun(results)]
        self.shortfalls.append(self.wl.shortfall(results))
        self.passes.append(results)
        return results

    def _check_rerun(self, results) -> list[str]:
        """The same command line must write a byte-identical report.json."""
        errors = []
        for r in results:
            path = r.op.out / "report.json"
            if not path.exists():
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if self._digests.setdefault(tuple(r.op.argv), digest) != digest:
                errors.append(f"{r.op.label}: rerun wrote a different report.json")
        return errors

    def results(self):
        return [r for results in self.passes for r in results]


def pass_seconds(results) -> float:
    return sum(r.seconds for r in results)


def measure_passes(runner: Runner, seconds: float, t_start: float,
                   tracer: Tracer | None = None) -> None:
    """Run passes 0, 1, ... while the next one is expected to end in time."""
    p = 0
    while True:
        t0 = perf_counter()
        runner.run_pass(p, tracer)
        p += 1
        if perf_counter() - t_start + (perf_counter() - t0) > seconds:
            return


def measure_setup(wl: Workload, src: Path) -> tuple[float, float]:
    """Median over repeats of (fresh-interpreter import of entgames + input
    generation): scaled, and raw."""
    raw, scaled, probes = [], [], [calibration.probe()]
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(src)],
                               capture_output=True, text=True, timeout=120, check=True)
        shutil.rmtree(wl.inputs, ignore_errors=True)
        t0 = perf_counter()
        wl.prepare()
        raw.append(float(child.stdout) + perf_counter() - t0)
        probes.append(calibration.probe())
        scaled.append(raw[-1] / calibration.slowness(probes[-2:]))
    return statistics.median(scaled), statistics.median(raw)


def end_to_end(runner: Runner, setup_s: float) -> dict[str, float]:
    results = runner.results()
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_op_share": sum(r.ok for r in results) / len(results),
        "work_per_s": statistics.median(_pass_work(rs) / t
                                        for rs, t in zip(runner.passes, runner.scaled)),
        "value_shortfall": statistics.median(runner.shortfalls),
    }


def _pass_work(results) -> int:
    return sum(r.op.work for r in results if r.ok)


def raw_work_per_s(runner: Runner) -> float:
    return statistics.median(_pass_work(rs) / pass_seconds(rs) for rs in runner.passes)


def named_figures(name: str, runner: Runner, e2e: dict[str, float]) -> list[str]:
    """The workload's figures under their usual names (verify.check_trials_per_s, ...)."""
    lines = [f"failed_op_share {1.0 - e2e['ok_op_share']:.6g} share"]
    work = e2e["work_per_s"]
    if name == "verify_suite":
        lines.append(f"verify.check_trials_per_s {work:.6g} 1/s")
    elif name == "protocol_mc":
        lines.append(f"protocol.trials_per_s {work:.6g} 1/s")
    elif name == "seesaw_values":
        lines.append(f"seesaw.wall_s {1.0 / work:.6g} s")
        lines.append(f"seesaw.shortfall {e2e['value_shortfall']:.6g} prob")
    elif name == "sic_decouple":
        ms = [r.seconds * 1e3 for r in runner.results()]
        q = statistics.quantiles(ms, n=20) if len(ms) > 1 else ms * 19
        lines.append(f"sic.instances_per_s {work:.6g} 1/s")
        lines.append(f"sic.op_p50_ms {statistics.median(ms):.6g} ms ({len(ms)} samples)")
        lines.append(f"sic.op_p95_ms {q[18]:.6g} ms ({len(ms)} samples, "
                     f"{sum(m > q[18] for m in ms)} beyond)")
    return lines


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    lib = {k: {f: deps.get(k, {}).get(f) for f in ("name", "version", "openblas configuration")}
           for k in ("blas", "lapack")}
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": lib["blas"],
        "lapack": lib["lapack"],
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "src_lines": src_lines,
    }


def run(root: Path, name: str, seed: int, seconds: float, trace: bool) -> int:
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    (root / TMP_DIR).mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=root / TMP_DIR))
    try:
        wl = WORKLOADS[name](tmp, seed)
        info: dict = {}
        setup_s, info["raw_setup_s"] = measure_setup(wl, root / "src")
        runner = Runner(wl)
        t_start = perf_counter()
        if trace:
            # first calls into numpy and LAPACK would slow only the untraced
            # reference pass and make the overhead read low
            call_op(wl.ops(0)[0])
            runner.run_pass(0)
            with Tracer() as tracer:
                measure_passes(runner, seconds, t_start, tracer=tracer)
            ref, traced = runner.scaled[:2]
            metrics = layer_metrics(tracer, traced / ref - 1.0)
            tracer.write(out_dir / f"{name}.spans.csv.gz")
            lines = ["per-layer calls and self time (traced passes):", *layer_table(tracer)]
            info["scaled_untraced_pass_s"], info["scaled_traced_pass_s"] = ref, traced
        else:
            measure_passes(runner, seconds, t_start)
            metrics = end_to_end(runner, setup_s)
            lines = named_figures(name, runner, metrics)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()          # unless another run is still using it
        except OSError:
            pass
    results = runner.results()
    doc = {
        "correct": not runner.errors,
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "metrics": {k: {"value": float(v), "unit": unit_of(k)} for k, v in metrics.items()},
    }
    info.update(raw_pass_s=[pass_seconds(rs) for rs in runner.passes],
                raw_work_per_s=raw_work_per_s(runner), probe_s=runner.probes)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(root), "info": info,
              "gate_errors": runner.errors, "result": doc}
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(f"workload {name}, seed {seed}, {len(runner.passes)} passes, "
          f"{len(results)} ops ({wl.unit} as work units)")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for line in lines:
        print(line)
    for e in runner.errors[:20]:
        print(f"gate: {e}")
    print(json.dumps(doc))
    return 0
