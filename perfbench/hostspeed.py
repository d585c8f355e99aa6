"""Host-speed calibration: report times at a fixed reference speed.

On a shared host the CPU speed can drift by up to 2x over minutes (as
measured on a 2-vCPU VM); no statistic inside one run removes that.  A fixed
pure-Python calibration job, timed between the pieces of work it
corrects, measures how slow the host runs during the run, and every
time metric is reported as it would read at the reference speed.  The
job never calls the program under test, so a change to the program
moves the reported times exactly as it moves the raw ones.

Set-up metrics (``setup_s`` and ``setup.*``) are scaled by the samples
taken around the set-ups, every other time by the samples taken around
and between the timed segments.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

#: Seconds one calibration pass takes at the reference host speed.
REFERENCE_PASS_S = 0.014
#: Calibration passes per sample.
PASSES_PER_SAMPLE = 3
#: Metric units that are times, and that are rates.
TIME_UNITS = ("ms", "s", "ms/op")
RATE_UNITS = ("1/s",)
#: Sample stages: around the set-ups, and around the timed segments.
SETUP = "setup"
TIMED = "timed"


def calibration_pass() -> float:
    """Seconds a fixed job of dict building, sorting and JSON encoding
    takes, the kind of work the predictor's Python layers do.

    The collector is paused so the time does not depend on how many
    objects the workload keeps alive.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(20):
            table = {(i, str(i)): [i, i * 0.5] for i in range(1000)}
            ordered = sorted(table.items(), key=lambda item: item[0][1])
            json.dumps([key[1] for key, _ in ordered])
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostSpeed:
    """Calibration samples of one run, by stage."""

    def __init__(self) -> None:
        self.passes: dict[str, list[float]] = {SETUP: [], TIMED: []}

    def sample(self, stage: str = TIMED) -> None:
        """Time :data:`PASSES_PER_SAMPLE` calibration passes."""
        self.passes[stage] += [
            calibration_pass() for _ in range(PASSES_PER_SAMPLE)
        ]

    def slowdown(self, stage: str = TIMED) -> float:
        """Median calibration time of a stage over the reference time."""
        return statistics.median(self.passes[stage]) / REFERENCE_PASS_S

    def to_reference(self, metrics: dict) -> dict:
        """Time and rate metrics as they would read at reference speed."""
        out = {}
        for name, m in metrics.items():
            slowdown = self.slowdown(
                SETUP if name.startswith("setup") else TIMED
            )
            value = m["value"]
            if m["unit"] in TIME_UNITS:
                value /= slowdown
            elif m["unit"] in RATE_UNITS:
                value *= slowdown
            out[name] = {"value": value, "unit": m["unit"]}
        return out
