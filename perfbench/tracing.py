"""Span tracing of entgames from outside the package.

The tracer replaces each traced function with a wrapper that records a span
(name, tag, start, end, parent span, op label, raised) and then calls the
original.  The package binds names with ``from .x import f``, so a function
has one reference in its defining module and one in every module that
imported it; the tracer patches every entgames module attribute that is the
original object, and every class attribute for methods.  Use the tracer as a
context manager: leaving the block restores every patched attribute, also
when an op raised.

Spans are recorded only while ``tracer.op`` is set, so code the benchmark
runs between ops (input generation, correctness gates) is not traced.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

LAYERS = ("cli", "checks", "protocol", "games", "sic", "qinfo", "linalg",
          "random_states")


@dataclass(frozen=True)
class Target:
    """One traced callable.

    ``attr`` is a module attribute ("fidelity") or a class attribute
    ("SuperposedState.build").  ``tag`` maps the call's arguments to a span
    tag; ``count`` maps (result, op label) to counter increments.
    """

    span: str
    module: str
    attr: str
    tag: Callable | None = None
    count: Callable | None = None


def _seesaw_counts(res, op):
    finals = [tr[-1] for tr in res.traces]
    best = max(finals)
    return {"games.seesaw.iterations": sum(len(tr) for tr in res.traces),
            "games.seesaw.restarts": len(finals),
            "games.seesaw.restarts_at_best": sum(best - f <= 1e-9 for f in finals)}


TARGETS = (
    Target("cli.main", "entgames.cli", "main"),
    Target("checks.run_check", "entgames.checks", "run_check",
           tag=lambda spec, *a, **k: spec.name,
           count=lambda r, op: {f"checks.{r.name}.trials": r.trials_run,
                                "checks.counterexamples": r.violations}),
    Target("protocol.run_protocol", "entgames.protocol", "run_protocol",
           count=lambda s, op: {f"protocol.{op}.trials": s.trials_effective}),
    Target("protocol.sample_wins", "entgames.protocol", "IidBernoulli.sample_wins"),
    Target("protocol.sample_wins", "entgames.protocol", "WinAllOrPartial.sample_wins"),
    Target("protocol.sample_wins", "entgames.protocol", "StrategyBacked.sample_wins"),
    Target("protocol.StrategyBacked", "entgames.protocol", "StrategyBacked.__init__"),
    Target("games.entangled_value_seesaw", "entgames.games", "entangled_value_seesaw",
           count=_seesaw_counts),
    Target("games.classical_value", "entgames.games", "classical_value"),
    Target("games.repeat", "entgames.games", "repeat"),
    Target("sic.SuperposedState.build", "entgames.sic", "SuperposedState.build"),
    Target("sic.sic_terms", "entgames.sic", "sic_terms"),
    Target("sic.build_decoupling", "entgames.sic", "build_decoupling"),
    Target("qinfo.fidelity", "entgames.qinfo", "fidelity"),
    Target("qinfo.relative_entropy", "entgames.qinfo", "relative_entropy"),
    Target("qinfo.von_neumann_entropy", "entgames.qinfo", "von_neumann_entropy"),
    Target("qinfo.min_relative_entropy", "entgames.qinfo", "min_relative_entropy"),
    Target("qinfo.povm_outcome_bound", "entgames.qinfo", "povm_outcome_bound"),
    Target("qinfo.mutual_information", "entgames.qinfo", "mutual_information"),
    Target("qinfo.max_overlap_isometry", "entgames.qinfo", "max_overlap_isometry"),
    Target("linalg.hermitian_eig", "entgames.linalg", "hermitian_eig"),
    Target("linalg.matrix_sqrt_psd", "entgames.linalg", "matrix_sqrt_psd"),
    Target("linalg.trace_norm", "entgames.linalg", "trace_norm"),
    Target("linalg.partial_trace_matrix", "entgames.linalg", "partial_trace_matrix"),
    Target("linalg.partial_trace", "entgames.linalg", "partial_trace"),
    Target("random_states.rng_for", "entgames.random_states", "rng_for"),
    Target("random_states.random_mixed", "entgames.random_states", "random_mixed"),
    Target("random_states.random_projective", "entgames.random_states", "random_projective"),
)

CHECK_NAMES = (
    "weak_triangle", "four_state", "fidelity_sq_sum", "cq_fidelity", "povm_bound",
    "cptp_mono", "subadd_cond", "relent_vs_fid", "superadd_classical", "smax_ge_s",
    "mi_min_relent", "relent_mono", "cool_product", "fact_sum",
)
PROTOCOL_OPS = ("general_iid", "general_waop", "projection_iid", "projection_waop",
                "strategy_n8", "readme_n256")

# span fields
NAME, TAG, START, END, PARENT, OP, RAISED = range(7)


class Tracer:
    """Patches TARGETS on entry, restores them on exit; spans stay in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            tag = target.tag(*args, **kwargs) if target.tag else ""
            span = [target.span, tag, 0.0, 0.0, stack[-1] if stack else -1, op, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if target.count:
                self.counters.update(target.count(result, op))
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "entgames" or name.startswith("entgames."))]
        for target in TARGETS:
            home = sys.modules[target.module]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(target, raw.__func__))
                else:
                    new = self._wrap(target, raw)
                self._patch(cls, meth, new)
                continue
            original = getattr(home, target.attr)
            new = self._wrap(target, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.op = None
        self._stack.clear()
        self.restore()

    def write(self, path: Path) -> None:
        """Write the spans as gzipped CSV: name,tag,start_us,end_us,parent,op,raised."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,tag,start_us,end_us,parent,op,raised\n")
            for s in self.spans:
                fh.write(f"{s[NAME]},{s[TAG]},{s[START] * 1e6:.3f},{s[END] * 1e6:.3f},"
                         f"{s[PARENT]},{s[OP]},{int(s[RAISED])}\n")


@dataclass
class SpanStats:
    calls: int = 0
    seconds: float = 0.0       # total duration
    self_seconds: float = 0.0
    errors: int = 0


def span_stats(spans) -> tuple[dict, dict]:
    """Per span name and per (name, tag or op) totals, with self time."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    by_name: dict[str, SpanStats] = defaultdict(SpanStats)
    by_key: dict[tuple, SpanStats] = defaultdict(SpanStats)
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        for st in (by_name[s[NAME]], by_key[(s[NAME], s[TAG] or s[OP])]):
            st.calls += 1
            st.seconds += dur
            st.self_seconds += dur - child[i]
            st.errors += s[RAISED]
    return by_name, by_key


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, overhead_share: float) -> dict[str, float]:
    """Every per-layer metric, in a fixed order; zero for layers a workload never calls."""
    by_name, by_key = span_stats(tracer.spans)
    total = by_name["cli.main"].seconds
    c = tracer.counters
    out: dict[str, float] = {}
    for span in dict.fromkeys(t.span for t in TARGETS):
        st = by_name.get(span, SpanStats())
        out[f"{span}.calls"] = st.calls
        out[f"{span}.self_share"] = st.self_seconds / total if total > 0 else 0.0
    for name in CHECK_NAMES:
        st = by_key.get(("checks.run_check", name), SpanStats())
        out[f"checks.{name}.trials_per_s"] = _rate(c[f"checks.{name}.trials"], st.seconds)
    out["checks.counterexamples"] = c["checks.counterexamples"]
    for op in PROTOCOL_OPS:
        st = by_key.get(("protocol.run_protocol", op), SpanStats())
        out[f"protocol.{op}.trials_per_s"] = _rate(c[f"protocol.{op}.trials"], st.seconds)
    seesaw = by_name.get("games.entangled_value_seesaw", SpanStats())
    out["games.seesaw.iterations"] = c["games.seesaw.iterations"]
    out["games.seesaw.iterations_per_s"] = _rate(c["games.seesaw.iterations"], seesaw.seconds)
    out["games.seesaw.restarts_at_best_share"] = (
        c["games.seesaw.restarts_at_best"] / c["games.seesaw.restarts"]
        if c["games.seesaw.restarts"] else 0.0)
    errors = Counter()
    for span, st in by_name.items():
        errors[span.split(".", 1)[0]] += st.errors
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer]
    out["trace.overhead_share"] = overhead_share
    return out


def layer_table(tracer: Tracer) -> list[str]:
    """Readable lines: calls and self time per call for every traced function."""
    by_name, _ = span_stats(tracer.spans)
    lines = []
    for span, st in sorted(by_name.items(), key=lambda kv: -kv[1].self_seconds):
        lines.append(f"  {span:34s} {st.calls:9d} calls {st.self_seconds / st.calls * 1e6:10.1f}"
                     f" us/call self {st.seconds / st.calls * 1e6:10.1f} us/call total")
    return lines
