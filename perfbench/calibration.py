"""Speed probe: a fixed numpy kernel that does not call entgames.

On a shared virtual machine the processor's speed drifts by up to 2x for
minutes at a time.  The harness times this probe between ops, about once a
second, and divides the op time between two probes by their mean over
REFERENCE_S.  That removes the machine's drift and leaves the program's own
speed; no change to entgames can move the probe.

The kernel is interpreter-bound work on small complex Hermitian matrices,
the kind of work that suffers most from the drift.  Over 30 s windows
alternating short passes with the probe, scaling cut the spread (quartile
distance over median) of the pass time from 12% to 6% on verify_suite, from
10% to 5% on sic_decouple and from 7% to 3% on protocol_mc.  A probe of
144x144 eigensolves and one of protocol-style sampling tracked the workloads
no better.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# the probe's mean time on a shared 2 GHz Xeon (Sapphire Rapids) vCPU; the
# scaled figures read as if every run had measured this
REFERENCE_S = 0.06


def probe() -> float:
    """Seconds for 1,500 eigensolves, square roots and products of 2..8-dimensional
    complex Hermitian matrices, one call at a time."""
    rng = np.random.default_rng(12345)
    mats = []
    for d in (2, 3, 4, 6, 8):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mats.append(a + a.conj().T)
    t0 = perf_counter()
    for _ in range(300):
        for m in mats:
            w, v = np.linalg.eigh(m)
            np.linalg.eigvalsh((v * np.sqrt(np.abs(w))) @ v.conj().T)
    return perf_counter() - t0


def slowness(samples: list[float]) -> float:
    """Mean probe time over REFERENCE_S: above 1 on a slow machine."""
    return statistics.fmean(samples) / REFERENCE_S
