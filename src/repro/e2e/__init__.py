"""End-to-end per-batch training-time prediction (Algorithm 1)."""

from repro.e2e.memory import (
    MemoryPrediction,
    max_batch_within_memory,
    predict_memory,
)
from repro.e2e.predictor import (
    DEFAULT_T4_US,
    KERNEL_GAP_US,
    E2EPrediction,
    collect_plan,
    plan_kernels,
    plan_structure,
    predict_e2e,
    traverse_columns,
    traverse_plan,
)
from repro.e2e.prediction_key import kernel_digest, plan_digest, prediction_key

__all__ = [
    "DEFAULT_T4_US",
    "E2EPrediction",
    "KERNEL_GAP_US",
    "MemoryPrediction",
    "collect_plan",
    "kernel_digest",
    "max_batch_within_memory",
    "plan_digest",
    "plan_kernels",
    "plan_structure",
    "predict_e2e",
    "predict_memory",
    "prediction_key",
    "traverse_columns",
    "traverse_plan",
]
