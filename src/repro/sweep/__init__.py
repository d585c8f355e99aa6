"""Grid sweep engine: batched, cached, parallel what-if evaluation."""

from repro.sweep.engine import (
    IDENTITY_TRANSFORM,
    SweepEngine,
    evaluate_graphs,
    sweep_batch_sizes,
)
from repro.sweep.parallel import default_workers, parallel_sweep
from repro.sweep.prune import lower_bound_us, plan_lower_bounds_us
from repro.sweep.result import (
    MultiGpuSweepPoint,
    MultiGpuSweepRecord,
    MultiGpuSweepResult,
    SweepPoint,
    SweepRecord,
    SweepResult,
)

__all__ = [
    "IDENTITY_TRANSFORM",
    "MultiGpuSweepPoint",
    "MultiGpuSweepRecord",
    "MultiGpuSweepResult",
    "SweepEngine",
    "SweepPoint",
    "SweepRecord",
    "SweepResult",
    "default_workers",
    "evaluate_graphs",
    "lower_bound_us",
    "parallel_sweep",
    "plan_lower_bounds_us",
    "sweep_batch_sizes",
]
