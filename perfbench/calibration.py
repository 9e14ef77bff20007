"""Calibrated seconds: wall time corrected for the machine's current speed.

On a shared machine the same CPU-bound code runs at speeds that drift by
tens of percent over tens of seconds, because other tenants load the same
physical cores; process CPU time drifts with it.  The benchmark therefore
runs a short fixed probe, owned by the benchmark and independent of
dyadicbump, around the work it times, and reports

    calibrated = measured seconds * REFERENCE_S / probe seconds nearby,

that is, the time the work would take when the probe takes REFERENCE_S.
The probe mixes what the workloads spend their time on: interpreter
arithmetic, many small numpy calls, and float formatting.  README.md gives
the spread of raw and calibrated figures measured on one machine.
"""

from __future__ import annotations

import json
import time

import numpy as np

REFERENCE_S = 0.004   # the probe's time on the reference machine speed
# the standard-library probe that brackets a fresh interpreter's import
# (see run.py), on the same reference speed
IMPORT_REFERENCE_S = 0.005


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = [rng.random(64) for _ in range(50)]
        self.floats = rng.random(4000).tolist()

    def __call__(self, reps: int = 1) -> float:
        """Run the probe ``reps`` times; returns its mean wall time in
        seconds."""
        t = time.perf_counter()
        for _ in range(reps):
            acc = 0
            for i in range(20000):
                acc += i * i
            for a in self.small:
                np.sort(a)
                np.dot(a, a)
                a * 2.0
            json.dumps(self.floats)
        return (time.perf_counter() - t) / reps


def calibrated(seconds: float, probe_before: float, probe_after: float,
               reference: float = REFERENCE_S) -> float:
    """Seconds at the reference speed, from the probes that bracket them."""
    return seconds * 2.0 * reference / (probe_before + probe_after)
