"""Acceptance suite: one test per stated criterion, each records a summary line.

Two criteria assert a documented discrepancy instead of a clean result, and
each still fails if the discrepancy changes.  Criterion 3 runs the full
randomized suite: the 13 sound checks must report no violation, and the
cool_product check, whose product-dominance inequality is false, must report
exactly its 10 documented seed-0 counterexamples (worst at trial 961), each
dumped state re-confirmed as a violation in 50-digit arithmetic.  The check is
kept as stated rather than weakened, so the default `entgames verify` run
still exits 1.  Criterion 5 does the same for the eps/324 special case.
"""

import json
import math
import time

import mpmath
import numpy as np

from entgames.checks import replay, run_all
from entgames.cli import main as cli_main
from entgames.games import chsh, classical_value, entangled_value_seesaw, repeat
from entgames.protocol import (
    IidBernoulli,
    ProtocolConfig,
    WinAllOrPartial,
    checking_bound_margin,
    exact_collision_probability,
    guarantee_report,
    run_protocol,
)
from entgames.random_states import haar_state, rng_for
from entgames.sic import (
    SuperposedState,
    build_decoupling,
    check_bound_at_delta_zero,
    check_supercos,
    special_case_report,
)

from conftest import record_criterion, write_game

TSIRELSON = math.cos(math.pi / 8) ** 2


def test_criterion_1_exact_classical_values():
    t0 = time.perf_counter()
    v1 = classical_value(chsh()).value
    v2 = classical_value(repeat(chsh(), 2)).value
    dt = time.perf_counter() - t0
    ok = abs(v1 - 0.75) <= 1e-12 and abs(v2 - 0.625) <= 1e-12 and dt < 1.0
    record_criterion(1, ok, f"classical values {v1:.12g} / {v2:.12g} in {dt:.2f}s")
    assert abs(v1 - 0.75) <= 1e-12
    assert abs(v2 - 0.625) <= 1e-12
    assert dt < 1.0


def test_criterion_2_seesaw_reaches_tsirelson():
    t0 = time.perf_counter()
    res = entangled_value_seesaw(chsh(), d=2, restarts=20, iters=100, seed=0)
    dt = time.perf_counter() - t0
    # CHSH^2 at d = 4: cos^4(pi/8) is exact, and the tensor start (the last
    # restart) reaches it; the best random restart shows ROADMAP item 1's gap
    t1 = time.perf_counter()
    sq = entangled_value_seesaw(repeat(chsh(), 2), d=4, restarts=20, iters=200, seed=0)
    dt_sq = time.perf_counter() - t1
    target = TSIRELSON ** 2
    best_random = max(t[-1] for t in sq.traces[:20])
    sq_ok = target - 1e-12 <= sq.value <= target + 1e-9
    ok = res.value >= 0.8535 and res.value <= TSIRELSON + 1e-9 and dt < 10.0 and sq_ok
    record_criterion(2, ok,
                     f"see-saw lower bound {res.value:.10f} "
                     f"(target {TSIRELSON:.10f}) in {dt:.2f}s; CHSH^2 at d=4 "
                     f"{sq.value:.12f} (target {target:.12f}, best random restart "
                     f"{best_random:.6f}) in {dt_sq:.2f}s")
    assert res.value >= 0.8535
    assert res.value <= TSIRELSON + 1e-9
    assert dt < 10.0
    assert sq_ok, sq.value


# cool_product at seed 0, 10000 trials: the documented counterexamples
COOL_PRODUCT_TRIALS = (961, 1195, 2667, 3466, 4100, 4345, 4760, 5865, 7198, 9961)
COOL_PRODUCT_WORST_MARGIN = -0.0444849458789
# every check's (violations, worst_case_seed, worst_margin.hex()) at seed 0,
# 10000 trials, so that a change to the random streams or to how trials are
# batched fails here rather than passing with moved numbers.  cq_fidelity is
# an equality check whose worst margin is rounding noise: a change to the
# fidelity arithmetic re-pins its entry, with a CHANGES.md note saying so
SEED_0_REPORT = {
    "weak_triangle": (0, 5439, "0x1.a77b560495480p-8"),
    "four_state": (0, 6574, "0x1.59eb8d4587df0p-4"),
    "fidelity_sq_sum": (0, 9499, "0x1.590c0131e0d00p-9"),
    "cq_fidelity": (0, 589, "-0x1.2d00000000000p-44"),
    "povm_bound": (0, 4289, "0x1.e3dd9d151e800p-12"),
    "cptp_mono": (0, 1072, "0x1.3b461ad3ce860p-6"),
    "subadd_cond": (0, 6388, "0x1.5fef467303170p-3"),
    "relent_vs_fid": (0, 8782, "0x1.a38060a532c80p-8"),
    "superadd_classical": (0, 7292, "0x1.31f4f00000000p-29"),
    "smax_ge_s": (0, 4476, "0x1.9681a2a8ef3c0p-6"),
    "mi_min_relent": (0, 7340, "0x1.605182578dc80p-4"),
    "relent_mono": (0, 7819, "0x1.cee2f63d762a8p-3"),
    "cool_product": (10, 961, "-0x1.6c6bb176dc16fp-5"),
    "fact_sum": (0, 4483, "0x1.b1583604f9380p-2"),
}


def _cool_product_gap_min_eig(rho: np.ndarray) -> float:
    """Least eigenvalue of |B|^2 rho_A (x) rho_B - rho in 50-digit arithmetic.

    (|A|, |B|) follows from the size of rho alone: the check draws
    |B| in {2, 3} and |A| in {2, 3, 4} with |A| >= |B|.
    """
    n = rho.shape[0]
    da, db = next((a, b) for b in (2, 3) for a in (2, 3, 4)
                  if a >= b and a * b == n)
    with mpmath.workdps(50):
        r = mpmath.matrix(rho.tolist())
        r = (r + r.H) / 2
        ra = mpmath.matrix(da, da)
        rb = mpmath.matrix(db, db)
        for a1 in range(da):
            for a2 in range(da):
                ra[a1, a2] = mpmath.fsum(r[a1 * db + b, a2 * db + b] for b in range(db))
        for b1 in range(db):
            for b2 in range(db):
                rb[b1, b2] = mpmath.fsum(r[a * db + b1, a * db + b2] for a in range(da))
        gap = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                gap[i, j] = db * db * ra[i // db, j // db] * rb[i % db, j % db] - r[i, j]
        return float(min(mpmath.eighe(gap, eigvals_only=True)))


def test_criterion_3_randomized_suite_clean():
    t0 = time.perf_counter()
    counters: dict = {}
    reports = run_all(seed=0, trials_per_check=10_000, counters=counters)
    dt = time.perf_counter() - t0
    mismatched = {n: c["replay_mismatches"] for n, c in counters.items() if c["replay_mismatches"]}
    # each worst trial, replayed from the report alone, gives the reported bits
    mismatched.update({r.name: [r.worst_case_seed] for r in reports
                       if replay(0, r.name, r.worst_case_seed)[0].hex() != r.worst_margin.hex()})
    walls = [c["wall_s"] for c in counters.values()]
    assert len(walls) == len(reports) == 14 and 0.0 < sum(walls) <= dt
    pinned = {r.name: (r.violations, r.worst_case_seed, r.worst_margin.hex()) for r in reports}
    by_name = {r.name: r for r in reports}
    cool = by_name.pop("cool_product")
    dirty = [r for r in by_name.values() if r.violations > 0]

    # each counterexample document run_check returns, by file name
    documents = {f: text for c in counters.values() for f, text in c["dumps"].items()}
    dumps = sorted(documents)
    expected_dumps = sorted(f"counterexample_cool_product_{t}.json"
                            for t in COOL_PRODUCT_TRIALS)
    cool_dumps = sorted(counters["cool_product"]["dumps"])
    confirmed = []
    for name in cool_dumps:
        doc = json.loads(documents[name])
        state = doc["states"]["rho"]
        rho = np.array(state["re"]) + 1j * np.array(state["im"])
        exact = _cool_product_gap_min_eig(rho)
        confirmed.append(doc["check"] == "cool_product" and exact < -1e-9
                         and abs(exact - doc["margin"]) <= 1e-9)

    cool_ok = (cool.violations == len(COOL_PRODUCT_TRIALS)
               and cool.worst_case_seed == COOL_PRODUCT_TRIALS[0]
               and abs(cool.worst_margin - COOL_PRODUCT_WORST_MARGIN) <= 1e-9)
    dumps_ok = dumps == expected_dumps and all(confirmed)
    ok = (not dirty and cool_ok and dumps_ok and pinned == SEED_0_REPORT and not mismatched
          and dt < 300.0)
    detail = (f"14 checks x 10000 trials in {dt:.1f}s; 13 sound checks: "
              + ("no violations" if not dirty else "; ".join(
                  f"{r.name}: {r.violations} violations "
                  f"(worst {r.worst_margin:.3e} at trial {r.worst_case_seed})"
                  for r in dirty))
              + f"; documented discrepancy in cool_product: {cool.violations} "
                f"violations, worst {cool.worst_margin:.4e} at trial "
                f"{cool.worst_case_seed}, {sum(confirmed)}/{len(cool_dumps)} dumps "
                f"confirmed at 50 digits; "
              + ("every check's report entry as pinned" if pinned == SEED_0_REPORT else
                 "moved from the pins: " + ", ".join(
                     n for n in SEED_0_REPORT if pinned.get(n) != SEED_0_REPORT[n]))
              + ("; every replay gave its batched margin" if not mismatched else
                 f"; replays that differ from their batched margins: {mismatched}"))
    record_criterion(3, ok, detail)
    assert dt < 300.0
    assert not dirty, "sound checks found violations: " + ", ".join(
        r.name for r in dirty)
    # rho <= |B|^2 (rho_A (x) rho_B) is false off the flat-spectrum case (see
    # TestCoolProduct in test_checks.py); the check is kept as stated and its
    # seed-0 counterexamples are pinned rather than patched over
    assert cool.violations == len(COOL_PRODUCT_TRIALS)
    assert cool.worst_case_seed == COOL_PRODUCT_TRIALS[0]
    assert abs(cool.worst_margin - COOL_PRODUCT_WORST_MARGIN) <= 1e-9
    assert dumps == expected_dumps
    assert all(confirmed), [n for n, c in zip(cool_dumps, confirmed) if not c]
    assert pinned == SEED_0_REPORT
    assert not mismatched


def test_criterion_4_decoupling_defect_bounds():
    t0 = time.perf_counter()
    rng = rng_for(0, 400)
    worst_alice = worst_out = -math.inf
    for _ in range(200):
        k = 2
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        px, py = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
        states = np.zeros((k, k, da, db), dtype=complex)
        for x in range(k):
            for y in range(k):
                states[x, y] = haar_state(rng, da * db).reshape(da, db)
        om = SuperposedState.build(np.outer(px, py), states)
        res = build_decoupling(om)
        worst_alice = max(worst_alice, res.fbar_alice - 9.0 * res.delta_x)
        worst_out = max(worst_out, res.fbar_out - 81.0 * res.delta_in)
    dt = time.perf_counter() - t0
    ok = worst_alice <= 1e-6 and worst_out <= 1e-6 and dt < 120.0
    record_criterion(4, ok,
                     f"200 instances in {dt:.1f}s; worst slacks "
                     f"{worst_alice:.3e} (9x) / {worst_out:.3e} (81x)")
    assert worst_alice <= 1e-6
    assert worst_out <= 1e-6
    assert dt < 120.0


def test_criterion_5_scalar_bound_grids():
    rep162 = check_bound_at_delta_zero(grid_size=10_000)
    rep324 = special_case_report(grid_size=10_000)
    repcos = check_supercos(grid_size=10_000)
    ok = rep162.holds_everywhere and repcos.holds_everywhere \
        and not rep324.holds_everywhere
    record_criterion(
        5, ok,
        f"eps/162 form holds on 10000 points; documented discrepancy in the "
        f"eps/324 special case: {rep324.n_failures} failures, worst "
        f"{rep324.worst_margin:.3e} at eps={rep324.worst_point:.4f}")
    assert rep162.holds_everywhere, rep162.summary()
    assert repcos.holds_everywhere, repcos.summary()
    # the stated special case is numerically false in a whole region; the
    # discrepancy is reported rather than patched over
    assert not rep324.holds_everywhere
    assert -6e-5 < rep324.worst_margin < -4e-5
    assert 0.17 < rep324.worst_point < 0.19


def test_criterion_6_protocol_guarantees():
    t0 = time.perf_counter()
    margins = [checking_bound_margin(eps, t)
               for eps in np.arange(0.05, 1.0 + 1e-12, 0.05)
               for t in range(21)]
    grid_ok = min(margins) >= 0.0

    model = WinAllOrPartial(q=0.99, f=255 / 256)
    verdicts = []
    for variant in ("general", "projection"):
        cfg = ProtocolConfig(n=256, epsilon=1.0, t=1.0, trials=100_000,
                             seed=0, variant=variant)
        stats = run_protocol(cfg, model)
        rep = guarantee_report(cfg, model, stats)
        verdicts.append(rep.verdict)
    dt = time.perf_counter() - t0
    ok = grid_ok and all(v == "consistent" for v in verdicts) and dt < 360.0
    record_criterion(6, ok,
                     f"scalar margin >= {min(margins):.3f} over 420 grid points; "
                     f"1e5-trial verdicts {verdicts[0]}/{verdicts[1]} in {dt:.1f}s")
    assert grid_ok
    assert verdicts == ["consistent", "consistent"]
    assert dt < 360.0


def test_criterion_7_hash_family():
    t0 = time.perf_counter()
    exact_ok = all(
        exact_collision_probability(b, w) == 2.0 ** -w
        for b in range(1, 13) for w in (1, 2, 4, 8))
    cfg = ProtocolConfig(n=16, epsilon=1.0, t=2.0, trials=100_000, seed=0,
                         variant="projection", v_override=1, hash_bits=4)
    stats = run_protocol(cfg, IidBernoulli(0.0))
    rate = stats.p_hash_accept_given_mismatch
    half_width = 2.5758 * math.sqrt(rate * (1 - rate) / stats.mismatch_trials)
    mc_ok = rate <= 2.0 ** -4 + half_width and abs(rate - 2.0 ** -4) < 0.004
    dt = time.perf_counter() - t0
    record_criterion(7, exact_ok and mc_ok and dt < 120.0,
                     f"collision probability exact for 1..12 input bits; "
                     f"mismatch accept rate {rate:.4f} vs 2^-4 in {dt:.1f}s")
    assert exact_ok
    assert mc_ok
    assert dt < 120.0


def test_criterion_8_reproducible_reports(tmp_path):
    def run_twice(argv_builder):
        # a builder gives the commands of one run; the last writes to out
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{argv_builder.__name__}_{tag}"
            for argv in argv_builder(out):
                code = cli_main(argv)
                assert code in (0, 1)
            blobs.append((out / "report.json").read_bytes())
        return blobs[0] == blobs[1]

    game = tmp_path / "chsh.json"
    write_game(chsh(), game)
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({
        "n": 8, "epsilon": 1.0, "t": 0.0, "trials": 500, "v_override": 4,
        "seed": 0, "model": {"kind": "iid_bernoulli", "w": 0.9},
    }))

    def value(out):
        return [["value", str(game), "--mode", "entangled", "--seed", "7",
                 "--restarts", "3", "--iters", "40", "--out", str(out)]]

    def repeated_value(out):
        # CHSH^2 at d = 4 runs its tensor start
        rep = out.with_name(out.name + "_game")
        return [["repeat", str(game), "--n", "2", "--out", str(rep)],
                ["value", str(rep / "game.json"), "--mode", "entangled", "--d", "4",
                 "--seed", "7", "--restarts", "3", "--iters", "40", "--out", str(out)]]

    def verify(out):
        return [["verify", "--filter", "four_state", "--trials", "200",
                 "--seed", "3", "--out", str(out)]]

    def simulate(out):
        return [["simulate", str(sim), "--out", str(out)]]

    results = {f.__name__: run_twice(f) for f in (value, repeated_value, verify, simulate)}
    ok = all(results.values())
    record_criterion(8, ok,
                     "byte-identical reruns: " + ", ".join(
                         f"{k}={'yes' if v else 'NO'}" for k, v in results.items()))
    assert ok, results
