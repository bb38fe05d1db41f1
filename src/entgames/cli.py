"""Command-line front end.

Subcommands: value, repeat, verify, simulate, sic.  Each loads and validates
its input, computes and builds its report; _finish writes every run's output
directory (default out/<command>/<timestamp>-<seed>/): report.json, the
command's other files, and manifest.json (command, config echo, seed,
version, environment (cores, numpy, BLAS), wall time, output files, the
phase timings load_s, compute_s and write_s, and the command's own counters).
report.json is byte-deterministic for a fixed seed; the manifest holds the
nondeterministic bookkeeping.  _finish is the one function that writes files, and
it runs once the computation has finished, so a run that stops on an error
leaves no directory; one that cannot be written is an error too (exit 2).

Exit codes: 0 success, 1 property violation, 2 input error, 3 budget or memory,
4 a program fault: a verify trial whose replay does not give the bits of its
batched margin.
"""

from __future__ import annotations

import argparse
import fnmatch
import functools
import os
import sys
import time
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import checks as checks_mod
from . import protocol as protocol_mod
from .config import (VERSION, BudgetError, _canonical_json, _field, _integer, _load_json, _real,
                     _seed, _string)
from .games import (
    classical_value,
    entangled_value_seesaw,
    game_to_json,
    is_free,
    is_projection,
    load_game,
    majority_game,
    repeat,
)
from .sic import build_decoupling, sic_terms, superposed_from_dict


def _fresh_seed() -> int:
    return int(np.random.SeedSequence().entropy % (1 << 32))


def _out_path(args, seed) -> Path:
    """--out, or out/<command>/<timestamp>-<seed>/ (seed 0 for a run without one)."""
    if args.out is not None:
        return Path(args.out)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path("out") / args.command / f"{stamp}-{0 if seed is None else seed}"


@functools.cache
def _environment() -> dict:
    """The machine a run's timings come from: cores, numpy and its BLAS."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"cpu_count": os.cpu_count(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


def _finish(args, out: Path, config: dict, seed, clocks: tuple[float, float],
            files: dict[str, str], code: int = 0, **extra) -> int:
    """Create out and write files (name -> text, report.json first) and the
    manifest there; return code.  clocks are the run's start and the end of its
    load phase.  A directory or file that cannot be written is a ValueError."""
    t0, t_load = clocks
    t_write = time.perf_counter()
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)
        timings = {"load_s": t_load - t0, "compute_s": t_write - t_load,
                   "write_s": time.perf_counter() - t_write}
        manifest = {
            "command": args.command,
            "config": config,
            "seed": seed,
            "version": VERSION,
            "environment": _environment(),
            "wall_time_s": time.perf_counter() - t0,
            "outputs": list(files),
            "timings": timings,
            **extra,
        }
        (out / "manifest.json").write_text(_canonical_json(manifest))
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}") from None
    return code


def cmd_value(args) -> int:
    t0 = time.perf_counter()
    g = load_game(args.game)
    t_load = time.perf_counter()
    seed = args.seed
    if args.mode == "entangled" and seed is None:
        seed = _fresh_seed()
    # which of the paper's two repetition theorems covers g: free games, or
    # free projection games
    report: dict = {"command": "value", "mode": args.mode, "game": g.name or "",
                    "free": is_free(g), "projection": is_projection(g)}
    extra: dict = {}
    if args.mode == "classical":
        res = classical_value(g)
        report["value"] = res.value
        report["strategy"] = {
            "alice": list(res.strategy.alice),
            "bob": list(res.strategy.bob),
        }
        print(f"classical value: {res.value:.12g}")
    else:
        res = entangled_value_seesaw(g, d=args.d, restarts=args.restarts,
                                     iters=args.iters, seed=seed)
        n_iter = sum(len(tr) for tr in res.traces)
        # a restart whose last step still rose by 1e-12 or more hit --iters
        extra["seesaw"] = {"iterations": n_iter, "steps": res.steps,
                           "iterations_per_s": n_iter / (time.perf_counter() - t_load),
                           "final_increments": [tr[-1] - tr[-2] if len(tr) > 1 else None
                                                for tr in res.traces]}
        report["value"] = res.value
        report["seed"] = seed
        report["d"] = args.d
        report["restarts"] = args.restarts
        report["iters"] = args.iters
        report["best_restart"] = res.best_restart
        report["traces"] = [[float(v) for v in tr] for tr in res.traces]
        print(f"entangled value (lower bound): {res.value:.12g}")
        for r, tr in enumerate(res.traces):
            print(f"  restart {r}: {tr[-1]:.12g} after {len(tr)} iterations")
    cfg = {"game": str(args.game), "mode": args.mode, "d": args.d,
           "restarts": args.restarts, "iters": args.iters}
    return _finish(args, _out_path(args, seed), cfg, seed, (t0, t_load),
                   {"report.json": _canonical_json(report)}, **extra)


def cmd_repeat(args) -> int:
    t0 = time.perf_counter()
    g = load_game(args.game)
    t_load = time.perf_counter()
    if args.alpha is None:
        rep = repeat(g, args.n)
    else:
        rep = majority_game(g, args.n, args.alpha)
    report = {
        "command": "repeat", "n": args.n, "alpha": args.alpha,
        "k": rep.k, "l": rep.l, "name": rep.name or "",
    }
    cfg = {"game": str(args.game), "n": args.n, "alpha": args.alpha}
    files = {"report.json": _canonical_json(report), "game.json": game_to_json(rep) + "\n"}
    out = _out_path(args, 0)
    code = _finish(args, out, cfg, 0, (t0, t_load), files)
    print(f"wrote {out / 'game.json'} ({rep.k} inputs, {rep.l} outputs per side)")
    return code


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    seed = args.seed if args.seed is not None else _fresh_seed()
    names = list(checks_mod.REGISTRY)
    if args.filter:
        names = [n for n in names if fnmatch.fnmatch(n, args.filter)]
        if not names:
            raise ValueError(f"filter {args.filter!r} matches no checks")
    t_load = time.perf_counter()
    per_check: dict = {}
    reports = checks_mod.run_all(seed, args.trials, names, per_check)
    dumps: dict = {}
    code = 1 if checks_mod.any_violations(reports) else 0
    for rep in reports:
        entry = per_check[rep.name]
        dumps.update(entry.pop("dumps"))
        entry["trials_per_s"] = rep.trials_run / entry["wall_s"]
        print(f"{rep.name}: trials={rep.trials_run} violations={rep.violations} "
              f"worst_margin={rep.worst_margin:.3e}")
        if mismatched := entry["replay_mismatches"]:
            print(f"error: {rep.name}: replayed trials {mismatched} do not give "
                  f"their batched margins", file=sys.stderr)
            code = 4
    cfg = {"trials": args.trials, "filter": args.filter}
    files = {"report.json": checks_mod.reports_to_json(reports),
             "report.csv": checks_mod.reports_to_csv(reports), **dict(sorted(dumps.items()))}
    return _finish(args, _out_path(args, seed), cfg, seed, (t0, t_load), files, code=code,
                   checks=per_check)


def _model_from_doc(doc: dict, base_dir: Path):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("model must be an object with a 'kind' field")
    kind, get = doc["kind"], partial(_field, "model", doc)
    if kind == "iid_bernoulli":
        return protocol_mod.IidBernoulli(w=get("w", _real))
    if kind == "win_all_or_partial":
        return protocol_mod.WinAllOrPartial(q=get("q", _real), f=get("f", _real))
    if kind == "strategy_backed":
        game = load_game(base_dir / get("game", _string))
        res = entangled_value_seesaw(
            game, d=get("d", _integer, 2), restarts=get("restarts", _integer, 8),
            iters=get("iters", _integer, 60), seed=get("strategy_seed", _seed, 0))
        return protocol_mod.StrategyBacked(game, res.strategy)
    raise ValueError(f"unknown model kind {kind!r}")


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    path = Path(args.config)
    doc = _load_json(path)
    if not isinstance(doc, dict) or "model" not in doc:
        raise ValueError("simulate config must be an object with a 'model' field")
    get = partial(_field, "simulate config", doc)
    config = protocol_mod.ProtocolConfig(
        n=get("n", _integer), epsilon=get("epsilon", _real), t=get("t", _real),
        trials=get("trials", _integer),
        seed=args.seed if args.seed is not None else get("seed", _seed, 0),
        variant=get("variant", _string, "general"),
        v_override=get("v_override", _integer, None),
        hash_bits=get("hash_bits", _integer, None),
    )
    t_load = time.perf_counter()
    model = _model_from_doc(doc["model"], path.parent)
    t_sample = time.perf_counter()
    stats = protocol_mod.run_protocol(config, model)
    sample_s = time.perf_counter() - t_sample
    verdict = protocol_mod.guarantee_report(config, model, stats)
    report = {
        "command": "simulate",
        "config": asdict(config),
        "stats": asdict(stats),
        "guarantee": asdict(verdict),
    }
    print(f"v = {stats.v_used}, success rate = {stats.p_succeed_hat:.6g} "
          f"(99% CI {stats.succeed_ci[0]:.6g}..{stats.succeed_ci[1]:.6g})")
    if stats.conditional_defined:
        print(f"P(most rounds won | success) = "
              f"{stats.p_mostwin_given_succeed_hat:.6g}")
    else:
        print("conditional statistic undefined: no successful trials")
    print(f"verdict: {verdict.verdict}")
    cfg = {**doc, "seed": config.seed}
    files = {"report.json": _canonical_json(report),
             "report.csv": "\n".join(protocol_mod.stats_csv_lines(stats, verdict.verdict)) + "\n"}
    return _finish(args, _out_path(args, config.seed), cfg, config.seed, (t0, t_load), files,
                   code=1 if verdict.verdict == "violated" else 0,
                   chunks=protocol_mod.chunk_count(config.trials), sample_s=sample_s)


def cmd_sic(args) -> int:
    t0 = time.perf_counter()
    doc = _load_json(Path(args.spec))
    omega = superposed_from_dict(doc)
    t_load = time.perf_counter()
    dec = None
    if args.decouple:
        dec = build_decoupling(omega)       # computes the two terms as delta_x, delta_y
        term_x, term_y = dec.delta_x, dec.delta_y
    else:
        term_x, term_y = sic_terms(omega)
    report: dict = {
        "command": "sic",
        "objective": term_x + term_y,
        "term_x": term_x,
        "term_y": term_y,
    }
    print(f"objective: {term_x + term_y:.12g} (terms {term_x:.12g}, {term_y:.12g})")
    code = 0
    if dec is not None:
        alice_ok = dec.fbar_alice <= 9.0 * dec.delta_x + 1e-6
        out_ok = dec.fbar_out <= 81.0 * dec.delta_in + 1e-6
        report["decoupling"] = {
            "delta_x": dec.delta_x,
            "delta_y": dec.delta_y,
            "delta_in": dec.delta_in,
            "fbar_alice": dec.fbar_alice,
            "fbar_out": dec.fbar_out,
            "alice_bound_9x": 9.0 * dec.delta_x,
            "combined_bound_81x": 81.0 * dec.delta_in,
            "alice_ok": bool(alice_ok),
            "combined_ok": bool(out_ok),
        }
        print(f"decoupling: fbar_alice = {dec.fbar_alice:.6g} "
              f"<= 9*delta_x = {9 * dec.delta_x:.6g}: "
              f"{'ok' if alice_ok else 'VIOLATED'}")
        print(f"decoupling: fbar_out = {dec.fbar_out:.6g} "
              f"<= 81*delta = {81 * dec.delta_in:.6g}: "
              f"{'ok' if out_ok else 'VIOLATED'}")
        if not (alice_ok and out_ok):
            code = 1
    cfg = {"spec": str(args.spec), "decouple": bool(args.decouple)}
    return _finish(args, _out_path(args, 0), cfg, 0, (t0, t_load),
                   {"report.json": _canonical_json(report)}, code=code)


def _seed_arg(text: str) -> int:
    """A --seed value; anything but a non-negative integer is a usage error (exit 2)."""
    try:
        return _seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="entgames",
        description="Values, repetitions, inequality runs, superposed-state "
                    "diagnostics, and referee-protocol simulations for "
                    "two-player games.")
    p.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("value", help="classical or entangled value of a game")
    sp.add_argument("game", help="game JSON file")
    sp.add_argument("--mode", choices=["classical", "entangled"],
                    default="classical")
    sp.add_argument("--d", type=int, default=2, help="local dimension")
    sp.add_argument("--restarts", type=int, default=20)
    sp.add_argument("--iters", type=int, default=100)
    sp.add_argument("--seed", type=_seed_arg, default=None)
    sp.set_defaults(func=cmd_value)

    sp = sub.add_parser("repeat", help="n-fold repetition or majority game")
    sp.add_argument("game", help="game JSON file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=float, default=None,
                    help="win fraction threshold; omitted means win-all")
    sp.set_defaults(func=cmd_repeat)

    sp = sub.add_parser("verify", help="run the randomized inequality suite")
    sp.add_argument("--trials", type=int, default=10_000)
    sp.add_argument("--seed", type=_seed_arg, default=None)
    sp.add_argument("--filter", default=None, help="glob over check names")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("simulate", help="referee-protocol Monte Carlo")
    sp.add_argument("config", help="protocol config JSON file")
    sp.add_argument("--seed", type=_seed_arg, default=None,
                    help="override the seed in the config file")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sic", help="superposed-state objective and decoupling")
    sp.add_argument("spec", help="superposed-state spec JSON file")
    sp.add_argument("--decouple", action="store_true")
    sp.set_defaults(func=cmd_sic)
    for sp in sub.choices.values():
        sp.add_argument("--out", default=None)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's tree, built on the first main call and reused after it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (BudgetError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc.filename}: file not found", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
