"""Critical-path E2E training-time predictor (Algorithm 1).

Walks the execution graph in recorded order keeping both a CPU clock
and per-stream GPU clocks.  For every op it charges T1 (and T2 when the
op launches kernels); each kernel starts at
``max(gpu_time + 1, cpu_time + T4/2)`` — whichever of host launch path
or device queue is the critical path — then T4/T5/T3 advance the CPU
clock.  The prediction is ``max(cpu_time, gpu_time)``.

The same traversal yields the "kernel only" baseline (the sum of
predicted kernel times, i.e. predicted GPU active time), which previous
compute-bound-focused work would report as E2E.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph import ExecutionGraph
from repro.ops import KernelType
from repro.overheads import OverheadDatabase
from repro.perfmodels import PerfModelRegistry
from repro.simulator.host import T1, T2, T3, T4, T5

#: Algorithm 1 line 11 charges a 1 µs device-side gap between kernels.
KERNEL_GAP_US = 1.0
#: The paper approximates every CUDA runtime call with 10 µs.
DEFAULT_T4_US = 10.0


@dataclass
class E2EPrediction:
    """Outcome of one Algorithm 1 traversal."""

    total_us: float
    cpu_us: float
    gpu_us: float
    active_us: float
    per_op_active_us: dict[str, float] = field(default_factory=dict)
    num_ops: int = 0
    num_kernels: int = 0

    @property
    def kernel_only_us(self) -> float:
        """The "kernel only" baseline: predicted device active time."""
        return self.active_us

    @property
    def predicted_idle_us(self) -> float:
        """Predicted device idle time within the predicted batch time."""
        return max(self.total_us - self.active_us, 0.0)

    def to_dict(self) -> dict:
        """JSON-compatible row (inverse of :meth:`from_dict`).

        Per-op attribution is emitted key-sorted so the serialized form
        is independent of traversal insertion order and hash seed.
        """
        return {
            "total_us": self.total_us,
            "cpu_us": self.cpu_us,
            "gpu_us": self.gpu_us,
            "active_us": self.active_us,
            "per_op_active_us": {
                name: self.per_op_active_us[name]
                for name in sorted(self.per_op_active_us)
            },
            "num_ops": self.num_ops,
            "num_kernels": self.num_kernels,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "E2EPrediction":
        """Rebuild a prediction from a :meth:`to_dict` row."""
        return cls(
            total_us=data["total_us"],
            cpu_us=data["cpu_us"],
            gpu_us=data["gpu_us"],
            active_us=data["active_us"],
            per_op_active_us=dict(data["per_op_active_us"]),
            num_ops=data["num_ops"],
            num_kernels=data["num_kernels"],
        )


def predict_e2e(
    graph: ExecutionGraph,
    registry: PerfModelRegistry,
    overheads: OverheadDatabase,
    t4_us: float | None = DEFAULT_T4_US,
    kernel_gap_us: float = KERNEL_GAP_US,
    sync_h2d: bool = False,
) -> E2EPrediction:
    """Predict per-batch training time of ``graph`` (Algorithm 1).

    Args:
        graph: Execution graph (from the observer or a transform).
        registry: Kernel performance models ``{M}``.
        overheads: Overhead statistics ``Ov`` (individual or shared).
        t4_us: Flat CUDA-runtime-call cost (paper default 10 µs).  Pass
            ``None`` to use the per-op measured T4 means instead — this
            captures blocking ``cudaMemcpyAsync`` calls whose duration
            the flat value underestimates (the paper's named source of
            E2E underestimation).
        kernel_gap_us: Device-side gap between consecutive kernels.
        sync_h2d: Model pageable host-to-device copies as synchronous
            (the host blocks until the copy completes).  Off by default
            to stay faithful to the paper's Algorithm 1; the multi-GPU
            extension enables it.

    Returns:
        The prediction, including the kernel-only baseline and per-op
        active-time attribution for breakdown-style reporting.
    """
    # Collect the whole kernel population up front and predict it in one
    # batched, memoized registry call; the traversal then only consumes
    # precomputed times.  Grouping + dedup + caching happen inside
    # ``predict_many`` — results are bit-identical to looped
    # ``predict_us`` calls (the models' predict_batch contract).
    plan = collect_plan(graph)
    kernel_times = registry.predict_many(plan_kernels(plan))
    return traverse_plan(
        plan,
        kernel_times,
        overheads,
        t4_us=t4_us,
        kernel_gap_us=kernel_gap_us,
        sync_h2d=sync_h2d,
    )


#: One traversal row: (op name, stream, the op's kernel calls).
PlanRow = tuple[str, int, tuple]

#: Graph-memo key (:meth:`ExecutionGraph.derived`) of :func:`collect_plan`.
_PLAN = "e2e.plan"


def collect_plan(graph: ExecutionGraph) -> list[PlanRow]:
    """The traversal-relevant view of a graph: one row per node.

    Computed once per graph state (:meth:`ExecutionGraph.derived`), so
    a segment shared by several devices, or read by several callers,
    is walked once.  The returned list is shared: treat it as
    read-only.
    """
    return graph.derived(_PLAN, _collect_plan)


def _collect_plan(graph: ExecutionGraph) -> list[PlanRow]:
    return [
        (node.op_name, node.stream, node.op.cached_kernel_calls())
        for node in graph.nodes
    ]


def plan_kernels(plan: list[PlanRow]) -> list:
    """All kernel calls of a plan, flattened in traversal order."""
    return [k for _, _, kernels in plan for k in kernels]


def traverse_plan(
    plan: list[PlanRow],
    kernel_times,
    overheads: OverheadDatabase,
    t4_us: float | None = DEFAULT_T4_US,
    kernel_gap_us: float = KERNEL_GAP_US,
    sync_h2d: bool = False,
) -> E2EPrediction:
    """Algorithm 1's traversal over precomputed kernel times.

    ``kernel_times`` must align with :func:`plan_kernels` order — the
    sweep engine uses this entry point directly so one batched
    prediction pass can serve many traversals.
    """
    cpu_time = 0.0
    gpu_time: dict[int, float] = {}
    active = 0.0
    per_op: dict[str, float] = {}
    num_kernels = 0

    for name, stream, kernels in plan:
        node_t4 = (
            overheads.mean_us(name, T4) if t4_us is None else t4_us
        )
        cpu_time += overheads.mean_us(name, T1)
        if kernels:
            cpu_time += overheads.mean_us(name, T2)
            for ki, kernel in enumerate(kernels):
                t_kernel = float(kernel_times[num_kernels])
                current = gpu_time.get(stream, 0.0)
                start = max(
                    current + kernel_gap_us, cpu_time + node_t4 / 2.0
                )
                gpu_time[stream] = start + t_kernel
                active += t_kernel
                per_op[name] = per_op.get(name, 0.0) + t_kernel
                num_kernels += 1
                cpu_time += node_t4
                if (
                    sync_h2d
                    and kernel.kernel_type == KernelType.MEMCPY
                    and kernel.params.get("h2d")
                ):
                    cpu_time = max(cpu_time, gpu_time[stream])
                if ki < len(kernels) - 1:
                    cpu_time += overheads.mean_us(name, T5)
            cpu_time += overheads.mean_us(name, T3)
        else:
            cpu_time += overheads.mean_us(name, T5)

    gpu_max = max(gpu_time.values(), default=0.0)
    return E2EPrediction(
        total_us=max(cpu_time, gpu_max),
        cpu_us=cpu_time,
        gpu_us=gpu_max,
        active_us=active,
        per_op_active_us=per_op,
        num_ops=len(plan),
        num_kernels=num_kernels,
    )
