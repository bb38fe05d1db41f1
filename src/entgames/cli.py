"""Command-line front end.

Subcommands: value, repeat, verify, simulate, sic.  Every run writes an
output directory (default out/<command>/<timestamp>-<seed>/) containing
manifest.json (command, config echo, seed, version, environment (cores,
numpy, BLAS), wall time, output paths; value, repeat, simulate and sic add
phase timings, the see-saw its iteration count and rate, its lockstep
steps and each restart's final increment, simulate its number of chunk
generators, verify each check's wall seconds, trials/s, evaluated blocks
and kernel calls) and report.json.
report.json is byte-deterministic for a fixed seed; the manifest holds the
nondeterministic bookkeeping.  The directory is created only once a
command's input has passed validation, so an input error (exit 2) leaves none.

Exit codes: 0 success, 1 property violation, 2 input error, 3 budget.
"""

from __future__ import annotations

import argparse
import fnmatch
import functools
import json
import os
import sys
import time
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import checks as checks_mod
from . import protocol as protocol_mod
from .config import VERSION, BudgetError, _field, _integer, _load_json, _seed
from .games import (
    classical_value,
    entangled_value_seesaw,
    game_to_json,
    load_game,
    majority_game,
    repeat,
    save_game,
)
from .sic import SuperposedState, build_decoupling, sic_terms


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _fresh_seed() -> int:
    return int(np.random.SeedSequence().entropy % (1 << 32))


def _out_path(args, command: str, seed) -> Path:
    if args.out is not None:
        return Path(args.out)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path("out") / command / f"{stamp}-{seed}"


def _out_dir(args, command: str, seed) -> Path:
    """The output directory, created; call it only after input validation."""
    out = _out_path(args, command, seed)
    out.mkdir(parents=True, exist_ok=True)
    return out


@functools.cache
def _environment() -> dict:
    """The machine a run's timings come from: cores, numpy and its BLAS."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"cpu_count": os.cpu_count(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


def _write_manifest(out: Path, command: str, config: dict, seed, t0: float,
                    outputs: list[str], **extra) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": VERSION,
        "environment": _environment(),
        "wall_time_s": time.perf_counter() - t0,
        "outputs": outputs,
        **extra,
    }
    (out / "manifest.json").write_text(_canonical_json(manifest))


def cmd_value(args) -> int:
    t0 = time.perf_counter()
    g = load_game(args.game)
    t_load = time.perf_counter()
    seed = args.seed
    if args.mode == "entangled" and seed is None:
        seed = _fresh_seed()
    report: dict = {"command": "value", "mode": args.mode, "game": g.name or ""}
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
    t_write = time.perf_counter()
    out = _out_dir(args, "value", 0 if seed is None else seed)
    (out / "report.json").write_text(_canonical_json(report))
    timings = {"load_s": t_load - t0, "compute_s": t_write - t_load,
               "write_s": time.perf_counter() - t_write}
    cfg = {"game": str(args.game), "mode": args.mode, "d": args.d,
           "restarts": args.restarts, "iters": args.iters}
    _write_manifest(out, "value", cfg, seed, t0, ["report.json"],
                    timings=timings, **extra)
    return 0


def cmd_repeat(args) -> int:
    t0 = time.perf_counter()
    g = load_game(args.game)
    t_load = time.perf_counter()
    if args.alpha is None:
        rep = repeat(g, args.n)
    else:
        rep = majority_game(g, args.n, args.alpha)
    t_write = time.perf_counter()
    out = _out_dir(args, "repeat", 0)
    save_game(rep, out / "game.json")
    report = {
        "command": "repeat", "n": args.n, "alpha": args.alpha,
        "k": rep.k, "l": rep.l, "name": rep.name or "",
    }
    (out / "report.json").write_text(_canonical_json(report))
    cfg = {"game": str(args.game), "n": args.n, "alpha": args.alpha}
    timings = {"load_s": t_load - t0, "compute_s": t_write - t_load,
               "write_s": time.perf_counter() - t_write}
    _write_manifest(out, "repeat", cfg, 0, t0, ["game.json", "report.json"],
                    timings=timings)
    print(f"wrote {out / 'game.json'} ({rep.k} inputs, {rep.l} outputs per side)")
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    seed = args.seed if args.seed is not None else _fresh_seed()
    names = list(checks_mod.REGISTRY)
    if args.filter:
        names = [n for n in names if fnmatch.fnmatch(n, args.filter)]
        if not names:
            raise ValueError(f"filter {args.filter!r} matches no checks")
    out = _out_path(args, "verify", seed)     # counterexample dumps create it
    counters: dict = {}
    reports, walls = checks_mod.run_all(seed, args.trials, names, out, counters)
    per_check = {rep.name: {"wall_s": wall, "trials_per_s": rep.trials_run / wall,
                            **counters[rep.name]}
                 for rep, wall in zip(reports, walls)}
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(checks_mod.reports_to_json(reports))
    checks_mod.reports_to_csv(reports, out / "report.csv")
    for rep in reports:
        print(f"{rep.name}: trials={rep.trials_run} violations={rep.violations} "
              f"worst_margin={rep.worst_margin:.3e}")
    outputs = ["report.json", "report.csv"]
    outputs += sorted(p.name for p in out.glob("counterexample_*.json"))
    cfg = {"trials": args.trials, "filter": args.filter}
    _write_manifest(out, "verify", cfg, seed, t0, outputs, checks=per_check)
    return 1 if checks_mod.any_violations(reports) else 0


def _model_from_doc(doc: dict, base_dir: Path, n: int):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("model must be an object with a 'kind' field")
    kind, get = doc["kind"], partial(_field, "model", doc)
    if kind == "iid_bernoulli":
        return protocol_mod.IidBernoulli(w=get("w", float))
    if kind == "win_all_or_partial":
        return protocol_mod.WinAllOrPartial(q=get("q", float), f=get("f", float))
    if kind == "strategy_backed":
        game = load_game(base_dir / get("game", str))
        res = entangled_value_seesaw(
            game, d=get("d", _integer, 2), restarts=get("restarts", _integer, 8),
            iters=get("iters", _integer, 60), seed=get("strategy_seed", _seed, 0))
        return protocol_mod.StrategyBacked(game, res.strategy, n)
    raise ValueError(f"unknown model kind {kind!r}")


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    path = Path(args.config)
    doc = _load_json(path)
    if not isinstance(doc, dict) or "model" not in doc:
        raise ValueError("simulate config must be an object with a 'model' field")
    get = partial(_field, "simulate config", doc)
    config = protocol_mod.ProtocolConfig(
        n=get("n", _integer), epsilon=get("epsilon", float), t=get("t", float),
        trials=get("trials", _integer),
        seed=args.seed if args.seed is not None else get("seed", _seed, 0),
        variant=get("variant", str, "general"),
        v_override=get("v_override", _integer, None),
        hash_bits=get("hash_bits", _integer, None),
    )
    t_load = time.perf_counter()
    model = _model_from_doc(doc["model"], path.parent, config.n)
    stats = protocol_mod.run_protocol(config, model)
    verdict = protocol_mod.guarantee_report(config, model, stats)
    t_write = time.perf_counter()
    out = _out_dir(args, "simulate", config.seed)
    report = {
        "command": "simulate",
        "config": asdict(config),
        "stats": asdict(stats),
        "guarantee": asdict(verdict),
    }
    (out / "report.json").write_text(_canonical_json(report))
    (out / "report.csv").write_text(
        "\n".join(protocol_mod.stats_csv_lines(stats, verdict.verdict)) + "\n")
    print(f"v = {stats.v_used}, success rate = {stats.p_succeed_hat:.6g} "
          f"(99% CI {stats.succeed_ci[0]:.6g}..{stats.succeed_ci[1]:.6g})")
    if stats.conditional_defined:
        print(f"P(most rounds won | success) = "
              f"{stats.p_mostwin_given_succeed_hat:.6g}")
    else:
        print("conditional statistic undefined: no successful trials")
    print(f"verdict: {verdict.verdict}")
    cfg = dict(doc)
    cfg["seed"] = config.seed
    timings = {"load_s": t_load - t0, "compute_s": t_write - t_load,
               "write_s": time.perf_counter() - t_write}
    _write_manifest(out, "simulate", cfg, config.seed, t0, ["report.json", "report.csv"],
                    timings=timings, chunks=protocol_mod.chunk_count(config.trials))
    return 1 if verdict.verdict == "violated" else 0


def _superposed_from_doc(doc) -> SuperposedState:
    if not isinstance(doc, dict):
        raise ValueError("state spec must be a JSON object")
    get = partial(_field, "state spec", doc)
    p = get("p", lambda v: np.asarray(v, dtype=float))
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("'p' must be a square matrix")
    k = p.shape[0]
    dims = get("dims", lambda v: [_integer(d) for d in v])
    if len(dims) != 2 or min(dims) < 1:
        raise ValueError("'dims' must be two positive integers")
    da, db = dims
    adv = get("advice", lambda v: np.asarray(v, dtype=float))
    if adv.shape != (k, k, da * db, 2):
        raise ValueError(f"'advice' must be a k x k grid of lists of {da * db} [re, im] pairs")
    states = (adv[..., 0] + 1j * adv[..., 1]).reshape(k, k, da, db)
    return SuperposedState.build(p, states)


def cmd_sic(args) -> int:
    t0 = time.perf_counter()
    doc = _load_json(Path(args.spec))
    omega = _superposed_from_doc(doc)
    t_load = time.perf_counter()
    dec = None
    if args.decouple:
        dec = build_decoupling(omega)       # computes the two terms as delta_x, delta_y
        term_x, term_y = dec.delta_x, dec.delta_y
    else:
        term_x, term_y = sic_terms(omega)
    t_compute = time.perf_counter()
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
    t_write = time.perf_counter()
    out = _out_dir(args, "sic", 0)
    (out / "report.json").write_text(_canonical_json(report))
    compute_s = t_compute - t_load
    timings = {
        "load_s": t_load - t0,
        "terms_s": 0.0 if dec is not None else compute_s,
        "decouple_s": compute_s if dec is not None else 0.0,
        "write_s": time.perf_counter() - t_write,
    }
    cfg = {"spec": str(args.spec), "decouple": bool(args.decouple)}
    _write_manifest(out, "sic", cfg, 0, t0, ["report.json"], timings=timings)
    return code


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
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_value)

    sp = sub.add_parser("repeat", help="n-fold repetition or majority game")
    sp.add_argument("game", help="game JSON file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=float, default=None,
                    help="win fraction threshold; omitted means win-all")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_repeat)

    sp = sub.add_parser("verify", help="run the randomized inequality suite")
    sp.add_argument("--trials", type=int, default=10_000)
    sp.add_argument("--seed", type=_seed_arg, default=None)
    sp.add_argument("--filter", default=None, help="glob over check names")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("simulate", help="referee-protocol Monte Carlo")
    sp.add_argument("config", help="protocol config JSON file")
    sp.add_argument("--seed", type=_seed_arg, default=None,
                    help="override the seed in the config file")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sic", help="superposed-state objective and decoupling")
    sp.add_argument("spec", help="superposed-state spec JSON file")
    sp.add_argument("--decouple", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_sic)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's tree, built on the first main call and reused after it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc.filename}: file not found", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
