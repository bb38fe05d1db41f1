"""The four benchmark workloads: seeded inputs, op sequences, correctness gates.

Every op is one ``entgames`` command line, run in-process through
``entgames.cli.main`` as a user runs it, with ``--out`` under the run's
temporary directory; the program sees only the files written here.  A pass is
a workload's fixed op sequence, and the runner repeats passes until the
measuring time is used.  Each gate checks the reports against values derived
outside the program, so it stays valid when the program's random streams or
algorithms change.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from entgames.checks import REGISTRY
from entgames.random_states import rng_for

CHECK_STREAM = 201              # trial t of check c replays from rng_for(seed, 201, c, t)
SIC_STREAM = 400                # the stream acceptance criterion 4 draws its instances from
DIM_PAIRS = ((2, 2), (2, 3), (3, 2), (3, 3))
TSIRELSON = math.cos(math.pi / 8) ** 2          # CHSH entangled value
CHSH2_VALUE = TSIRELSON ** 2    # CHSH^2 value, exact by parallel repetition of XOR games
SHORTFALL_FLOOR = 1e-9          # the gates' tolerance; keeps value_shortfall nonzero
SE_LIMIT = 5.0                  # simulated rates must lie within 5 standard errors


@dataclass
class Op:
    label: str
    argv: list[str]             # entgames arguments without --out
    out: Path
    work: int = 0               # work units the op contributes when it succeeds


@dataclass
class OpResult:
    op: Op
    code: int | None            # exit code; None when cli.main raised
    seconds: float
    stderr: str

    @property
    def ok(self) -> bool:
        """Exit 0 or 1 (a violated property is a result); raised or 2/3 is a failed op."""
        return self.code in (0, 1)

    def report(self):
        return json.loads((self.op.out / "report.json").read_text())


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


def _chsh_doc() -> dict:
    v = [[[[int((a ^ b) == (x & y)) for y in range(2)] for x in range(2)]
          for b in range(2)] for a in range(2)]
    return {"k": 2, "l": 2, "p": [[0.25, 0.25], [0.25, 0.25]], "V": v, "name": "CHSH"}


class Workload:
    name = ""
    unit = ""                   # what one unit of work_per_s is

    def __init__(self, tmp: Path, seed: int):
        self.seed = seed
        self.inputs = tmp / "inputs"
        self.outs = tmp / "out"

    def prepare(self) -> None:
        """Write the input files; part of set-up."""
        self.inputs.mkdir(parents=True, exist_ok=True)

    def ops(self, p: int) -> list[Op]:
        raise NotImplementedError

    def check(self, results: list[OpResult]) -> list[str]:
        """Gate one pass; returns the reasons it is wrong, empty when correct."""
        raise NotImplementedError

    def shortfall(self, results: list[OpResult]) -> float:
        return SHORTFALL_FLOOR


class VerifySuite(Workload):
    name = "verify_suite"
    unit = "check trials"

    def __init__(self, tmp: Path, seed: int, trials: int = 1000):
        super().__init__(tmp, seed)
        self.trials = trials

    def ops(self, p):
        # one command per check (--filter), so that the speed probe can run
        # between commands instead of once per 7-10 s pass
        return [Op(name, ["verify", "--filter", name, "--trials", str(self.trials),
                          "--seed", str(self.seed)], self.outs / name, work=self.trials)
                for name in REGISTRY]

    def check(self, results):
        errors = []
        for r in results:
            if not r.ok:
                errors.append(f"{r.op.label}: exit {r.code}: {r.stderr.strip()}")
                continue
            (x,) = r.report()
            if x["name"] != r.op.label or x["trials_run"] != self.trials:
                errors.append(f"{r.op.label}: report is for {x['name']}, "
                              f"{x['trials_run']} trials")
                continue
            check_id = list(REGISTRY).index(x["name"])
            rng = rng_for(self.seed, CHECK_STREAM, check_id, x["worst_case_seed"])
            margin, _ = REGISTRY[x["name"]].func(rng)
            if _bits(float(margin)) != _bits(x["worst_margin"]):
                errors.append(f"{x['name']}: replayed worst margin {float(margin)!r} "
                              f"!= reported {x['worst_margin']!r}")
            dumps = len(list(r.op.out.glob("counterexample_*.json")))
            if dumps != x["violations"]:
                errors.append(f"{x['name']}: {dumps} counterexample files for "
                              f"{x['violations']} violations")
            if r.code != (1 if x["violations"] else 0):
                errors.append(f"{x['name']}: exit {r.code} with {x['violations']} violations")
        return errors


def required_v(epsilon: float, t: float, variant: str) -> int:
    """Inspected rounds the paper's guarantees need (general and projection)."""
    log_term = t + math.log2(1.0 / epsilon)
    if variant == "general":
        return math.ceil(256.0 / epsilon * (log_term + 8.0))
    return math.ceil(32.0 / epsilon * (log_term + 9.0))


def _accept_given_wins(w_won: int, n: int, v: int, hash_bits: int | None) -> float:
    """P(accept | w_won of n rounds won): all v uniform inspections hit won rounds,
    or, in the projection variant, a mismatch survives a 2^-bits hash collision."""
    match = (w_won / n) ** v
    return match if hash_bits is None else match + (1.0 - match) * 2.0 ** -hash_bits


def exact_acceptance(model: dict, n: int, v: int, hash_bits: int | None,
                     omega: float | None = None) -> float:
    """Exact acceptance probability of the referee against a round model."""
    if model["kind"] == "win_all_or_partial":
        q, m = model["q"], int(round(model["f"] * n))
        return q * _accept_given_wins(n, n, v, hash_bits) \
            + (1 - q) * _accept_given_wins(m, n, v, hash_bits)
    w = model["w"] if model["kind"] == "iid_bernoulli" else omega
    total = 0.0
    for k in range(n + 1):
        if (w == 0.0 and k) or (w == 1.0 and k < n):
            continue
        log_pmf = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                   + (k * math.log(w) if k else 0.0)
                   + ((n - k) * math.log1p(-w) if n - k else 0.0))
        total += math.exp(log_pmf) * _accept_given_wins(k, n, v, hash_bits)
    return total


def _within(hat: float, exact: float, trials: int) -> bool:
    se = max(math.sqrt(exact * (1.0 - exact) / trials), 1.0 / trials)
    return abs(hat - exact) <= SE_LIMIT * se


class ProtocolMC(Workload):
    name = "protocol_mc"
    unit = "referee trials"
    BUDGET_MESSAGE = "joint input table too large"

    def __init__(self, tmp: Path, seed: int, trials: int = 20_000):
        super().__init__(tmp, seed)
        self.trials = trials
        self.docs: dict[str, dict] = {}

    def prepare(self):
        super().prepare()
        _write_json(self.inputs / "chsh.json", _chsh_doc())
        base = {"n": 256, "epsilon": 1.0, "t": 1.0, "trials": self.trials}
        iid = {"kind": "iid_bernoulli", "w": 0.998}
        waop = {"kind": "win_all_or_partial", "q": 0.99, "f": 255 / 256}
        strategy = {"kind": "strategy_backed", "game": "chsh.json", "d": 2,
                    "restarts": 8, "iters": 60, "strategy_seed": 0}
        self.docs = {
            "general_iid": {**base, "variant": "general", "model": iid},
            "general_waop": {**base, "variant": "general", "model": waop},
            "projection_iid": {**base, "variant": "projection", "model": iid},
            "projection_waop": {**base, "variant": "projection", "model": waop},
            "strategy_n8": {**base, "n": 8, "variant": "general",
                            "model": {**strategy, "strategy_seed": self.seed}},
            # the README's own example; exits 3 (joint input table too large)
            # until the strategy model stops tabulating k^(2n) joint inputs
            "readme_n256": {**base, "trials": 100_000, "variant": "general",
                            "model": strategy},
        }
        for label, doc in self.docs.items():
            _write_json(self.inputs / f"{label}.json", doc)

    def ops(self, p):
        return [Op(label, ["simulate", str(self.inputs / f"{label}.json"),
                           "--seed", str(self.seed)],
                   self.outs / label, work=doc["trials"])
                for label, doc in self.docs.items()]

    def check(self, results):
        errors = []
        for r in results:
            doc, label = self.docs[r.op.label], r.op.label
            if (label == "readme_n256" and r.code == 3
                    and self.BUDGET_MESSAGE in r.stderr):
                continue                # known defect, counted as a failed op
            if not r.ok:
                errors.append(f"{label}: exit {r.code}: {r.stderr.strip()}")
                continue
            errors += [f"{label}: {e}" for e in self._check_report(doc, r.report())]
        return errors

    def _check_report(self, doc, rep) -> list[str]:
        stats, errors = rep["stats"], []
        n, variant = doc["n"], doc["variant"]
        v = required_v(doc["epsilon"], doc["t"], variant)
        bits = math.ceil(2 * doc["t"]) if variant == "projection" else None
        if stats["v_used"] != v or stats["trials_effective"] != doc["trials"]:
            return [f"ran v={stats['v_used']}, {stats['trials_effective']} trials"]
        omega = None
        if doc["model"]["kind"] == "strategy_backed":
            omega = rep["guarantee"]["win_all_probability"] ** (1.0 / n)
            if omega > TSIRELSON + 1e-9:
                errors.append(f"strategy wins with {omega!r} > cos^2(pi/8)")
        exact = exact_acceptance(doc["model"], n, v, bits, omega)
        if not _within(stats["p_succeed_hat"], exact, doc["trials"]):
            errors.append(f"p_succeed {stats['p_succeed_hat']!r} vs exact {exact!r}")
        if bits is not None and stats["mismatch_trials"]:
            rate = stats["mismatch_accepts"] / stats["mismatch_trials"]
            if not _within(rate, 2.0 ** -bits, stats["mismatch_trials"]):
                errors.append(f"mismatch accept rate {rate!r} vs 2^-{bits}")
        return errors


class SeesawValues(Workload):
    name = "seesaw_values"
    unit = "command sequences"

    def __init__(self, tmp: Path, seed: int, restarts: int = 20,
                 iters: tuple[int, int] = (100, 200)):
        super().__init__(tmp, seed)
        self.restarts = restarts
        self.iters = iters

    def prepare(self):
        super().prepare()
        _write_json(self.inputs / "chsh.json", _chsh_doc())

    def ops(self, p):
        # The CHSH^2 see-saw always starts from see-saw seed 0, where all 20
        # restarts stop at 0.676777.  Its cost varies 26% (coefficient of
        # variation) with the seed and a run holds about ten, so seeds drawn
        # from the workload seed would move a run's figure by about 10%; a
        # fixed seed times the same work in every pass of every run.
        chsh = str(self.inputs / "chsh.json")
        chsh2 = str(self.outs / "repeat" / "game.json")
        ent = ["--mode", "entangled", "--restarts", str(self.restarts)]
        return [
            Op("repeat", ["repeat", chsh, "--n", "2"], self.outs / "repeat"),
            Op("classical_chsh", ["value", chsh], self.outs / "classical_chsh"),
            Op("classical_chsh2", ["value", chsh2], self.outs / "classical_chsh2"),
            Op("entangled_chsh", ["value", chsh, *ent, "--d", "2", "--iters",
                                  str(self.iters[0]), "--seed", str(self.seed)],
               self.outs / "entangled_chsh"),
            Op("entangled_chsh2", ["value", chsh2, *ent, "--d", "4", "--iters",
                                   str(self.iters[1]), "--seed", "0"],
               self.outs / "entangled_chsh2", work=1),
        ]

    def _values(self, results) -> dict[str, float]:
        return {r.op.label: r.report()["value"] for r in results
                if r.code == 0 and r.op.label != "repeat"}

    def check(self, results):
        errors = [f"{r.op.label}: exit {r.code}: {r.stderr.strip()}"
                  for r in results if r.code != 0]
        if errors:
            return errors
        val = self._values(results)
        if val["classical_chsh"] != 0.75 or val["classical_chsh2"] != 0.625:
            errors.append(f"classical values {val['classical_chsh']!r}, "
                          f"{val['classical_chsh2']!r} != 0.75, 0.625")
        if not 0.8535 <= val["entangled_chsh"] <= TSIRELSON + 1e-9:
            errors.append(f"CHSH see-saw value {val['entangled_chsh']!r}")
        if val["entangled_chsh2"] > CHSH2_VALUE + 1e-9:
            errors.append(f"CHSH^2 see-saw value {val['entangled_chsh2']!r} "
                          f"exceeds cos^4(pi/8)")
        return errors

    def shortfall(self, results):
        val = self._values(results)
        gaps = [TSIRELSON - val.get("entangled_chsh", 0.0),
                CHSH2_VALUE - val.get("entangled_chsh2", 0.0)]
        return max(SHORTFALL_FLOOR, *gaps)


class SicDecouple(Workload):
    name = "sic_decouple"
    unit = "sic instances"

    def __init__(self, tmp: Path, seed: int, instances: int = 200):
        super().__init__(tmp, seed)
        self.instances = instances

    def prepare(self):
        """Random product-distribution instances in the style of acceptance
        criterion 4: k=2, Dirichlet marginals, Haar advice states.

        The cost of an instance depends mostly on (dA, dB), so the dimension
        pairs cycle through {2, 3}^2 instead of being drawn: every seed then
        gives the same mix, 50 instances of each pair in 200.
        """
        super().prepare()
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, SIC_STREAM]))
        k = 2
        for i in range(self.instances):
            da, db = DIM_PAIRS[i % len(DIM_PAIRS)]
            px, py = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
            advice = [[None] * k for _ in range(k)]
            for x in range(k):
                for y in range(k):
                    amp = rng.standard_normal(da * db) + 1j * rng.standard_normal(da * db)
                    amp /= np.linalg.norm(amp)
                    advice[x][y] = [[a.real, a.imag] for a in amp.tolist()]
            doc = {"p": np.outer(px, py).tolist(), "dims": [da, db], "advice": advice}
            _write_json(self.inputs / f"sic_{i}.json", doc)

    def ops(self, p):
        return [Op(f"sic_{i}", ["sic", str(self.inputs / f"sic_{i}.json"), "--decouple"],
                   self.outs / f"sic_{i}", work=1)
                for i in range(self.instances)]

    def check(self, results):
        errors = []
        for r in results:
            if r.code != 0:
                errors.append(f"{r.op.label}: exit {r.code}: {r.stderr.strip()}")
                continue
            dec = r.report()["decoupling"]
            if not (dec["alice_ok"] and dec["combined_ok"]):
                errors.append(f"{r.op.label}: defect bound does not hold")
        return errors


WORKLOADS = {w.name: w for w in (VerifySuite, ProtocolMC, SeesawValues, SicDecouple)}
