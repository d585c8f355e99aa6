"""Multi-GPU E2E prediction for hybrid-parallel plans.

Applies Algorithm 1 to every device's compute segment (reusing the
single-GPU kernel models and overhead databases unchanged) and the
calibrated collective model to the communication phases.  The per-phase
and per-collective durations are then laid out by the *same* scheduler
the simulator uses (:func:`repro.multigpu.schedule.schedule_iteration`),
so prediction and ground truth stay comparable under every overlap
policy: with ``"none"`` phase boundaries gate at the slowest predicted
device exactly as in the paper's synchronous model; with ``"full"``
collectives hide behind independent compute.

Heterogeneous fleets are supported by passing per-device registries
(each trained on its own :class:`~repro.hardware.GpuSpec` testbed) and,
optionally, per-device overhead databases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.e2e import collect_plan, plan_kernels, predict_e2e
from repro.multigpu.interconnect import CollectiveModel
from repro.multigpu.plan import MultiGpuPlan, distinct_segments
from repro.multigpu.schedule import (
    DEFAULT_CHANNEL,
    OVERLAP_NONE,
    per_device,
    schedule_iteration,
)
from repro.multigpu.topology import Topology, TopologyCollectiveModel
from repro.overheads import OverheadDatabase
from repro.perfmodels import PerfModelRegistry


def resource_bottleneck(
    per_device_phase_us: Sequence[Sequence[float]],
    channel_busy_us: Mapping[str, float] | None,
    total_comm_us: float,
) -> str:
    """Name the busiest resource: ``"compute"`` or a comm channel.

    Compute busy time is the busiest single device (sum of its phase
    durations); each channel's busy time is its stage-duration sum.
    Shared by prediction and simulation so both report the same
    bottleneck semantics; ties go to compute (buying more network
    cannot help a fleet that computes just as long).
    """
    num_devices = len(per_device_phase_us[0]) if per_device_phase_us else 0
    compute = max(
        (
            sum(phase[d] for phase in per_device_phase_us)
            for d in range(num_devices)
        ),
        default=0.0,
    )
    channels = (
        dict(channel_busy_us)
        if channel_busy_us
        else {DEFAULT_CHANNEL: total_comm_us}
    )
    name, busy = max(channels.items(), key=lambda kv: kv[1])
    return name if busy > compute else "compute"


@dataclass(frozen=True)
class MultiGpuPrediction:
    """Predicted timing of one multi-GPU iteration.

    ``phase_us`` holds the raw per-phase compute gates (``max`` over
    devices); under overlap these are resource-busy times, not
    wall-clock gaps, and ``iteration_us`` comes from the event-driven
    schedule instead of their sum.  ``comm_us_by_channel`` splits the
    interconnect-busy total per fabric (one ``"fabric"`` entry for flat
    fleets, ``"intra"``/``"inter"`` for hierarchical topologies).
    """

    iteration_us: float
    phase_us: tuple[float, ...]
    collective_us: tuple[float, ...]
    per_device_phase_us: tuple[tuple[float, ...], ...]
    overlap: str = OVERLAP_NONE
    exposed_comm_us: float | None = None
    comm_us_by_channel: Mapping[str, float] = field(default_factory=dict)

    @property
    def bottleneck(self) -> str:
        """Busiest resource: ``"compute"``, ``"fabric"``, or a channel."""
        return resource_bottleneck(
            self.per_device_phase_us,
            self.comm_us_by_channel,
            self.communication_us,
        )

    @property
    def compute_us(self) -> float:
        """Total gated compute time."""
        return sum(self.phase_us)

    @property
    def communication_us(self) -> float:
        """Total predicted collective (interconnect-busy) time."""
        return sum(self.collective_us)

    @property
    def hidden_comm_us(self) -> float:
        """Predicted collective time hidden behind compute by overlap."""
        exposed = (
            self.exposed_comm_us
            if self.exposed_comm_us is not None
            else self.communication_us
        )
        return max(self.communication_us - exposed, 0.0)

    @property
    def communication_fraction(self) -> float:
        """Share of the iteration where communication is exposed.

        Division semantics under overlap: the numerator is the
        *exposed* collective time (``iteration - compute-only
        schedule``), not the raw interconnect-busy total — otherwise a
        fully hidden all-to-all would still claim a share of an
        iteration it never lengthened.  Without overlap the exposed
        time equals the total, preserving the historical meaning.
        """
        if self.iteration_us <= 0:
            return 0.0
        exposed = (
            self.exposed_comm_us
            if self.exposed_comm_us is not None
            else self.communication_us
        )
        return exposed / self.iteration_us


def predict_multi_gpu(
    plan: MultiGpuPlan,
    registry: PerfModelRegistry | Sequence[PerfModelRegistry],
    overheads: OverheadDatabase | Sequence[OverheadDatabase],
    collective_model: CollectiveModel | TopologyCollectiveModel,
    overlap: str | None = None,
    topology: Topology | None = None,
) -> MultiGpuPrediction:
    """Predict one hybrid-parallel iteration's time.

    Args:
        plan: The multi-GPU execution plan.
        registry: Single-GPU kernel performance models (reused as-is).
            Pass a per-device sequence for a heterogeneous fleet, each
            registry trained on that device's testbed.
        overheads: Host-overhead database (reused as-is) — single or
            per-device like ``registry``.
        collective_model: Calibrated communication model — the flat
            :class:`CollectiveModel` or a hierarchical
            :class:`~repro.multigpu.topology.TopologyCollectiveModel`
            (which carries its own :class:`Topology`).
        overlap: Override of the plan's overlap policy (``None`` keeps
            ``plan.overlap``).
        topology: The fleet's hierarchical shape.  Defaults to the
            collective model's own topology when it has one; when both
            are given they must be equal (the model's calibration is
            what prices the stages), and either way the shape must
            match the plan's device count.  A single-node topology
            reproduces the flat prediction bit-identically.
    """
    policy = plan.overlap if overlap is None else overlap
    model_topology = getattr(collective_model, "topology", None)
    if topology is None:
        topology = model_topology
    elif model_topology is not None and topology != model_topology:
        # Stage prices come from the model's calibration; a different
        # explicit topology would be silently mislabeled numbers.
        raise ValueError(
            f"topology {topology.label!r} does not match the collective "
            f"model's calibrated topology {model_topology.label!r}"
        )
    if topology is not None and topology.num_devices != plan.num_devices:
        raise ValueError(
            f"topology {topology.label!r} has {topology.num_devices} devices "
            f"but the plan has {plan.num_devices}"
        )
    if topology is not None and not hasattr(collective_model, "predict_stages"):
        raise ValueError(
            "a hierarchical topology needs a TopologyCollectiveModel "
            "(the flat CollectiveModel cannot split intra/inter stages)"
        )
    registries = per_device(registry, plan.num_devices, "registries")
    overhead_dbs = per_device(overheads, plan.num_devices, "overhead dbs")

    # Devices may share a segment object (and usually a registry and
    # database), so each distinct triple is priced once per call.
    priced: dict[tuple[int, int, int], float] = {}

    def price(segment, registry, overheads) -> float:
        """Algorithm 1 time of one device's segment, memoized."""
        key = (id(segment), id(registry), id(overheads))
        if key not in priced:
            priced[key] = predict_e2e(
                segment, registry, overheads, sync_h2d=True
            ).total_us
        return priced[key]

    phase_times = []
    per_device_times = []
    for phase in plan.compute_phases:
        device_times = tuple(
            price(segment, registries[d], overhead_dbs[d])
            for d, segment in enumerate(phase)
        )
        per_device_times.append(device_times)
        phase_times.append(max(device_times))

    if topology is not None:
        staged = [
            collective_model.predict_stages(c.kind, c.bytes_per_device)
            for c in plan.collectives
        ]
        collective_times = tuple(
            sum(us for _, us in stages) for stages in staged
        )
        durations: list = list(staged)
    else:
        collective_times = tuple(
            collective_model.predict_us(
                c.kind, c.bytes_per_device, plan.num_devices
            )
            for c in plan.collectives
        )
        durations = list(collective_times)
    schedule = schedule_iteration(
        per_device_times,
        [
            (produced_by, consumed_by, duration)
            for (produced_by, consumed_by, _), duration in zip(
                plan.resolved_collectives(), durations
            )
        ],
        overlap=policy,
    )
    return MultiGpuPrediction(
        iteration_us=schedule.iteration_us,
        phase_us=tuple(phase_times),
        collective_us=collective_times,
        per_device_phase_us=tuple(per_device_times),
        overlap=policy,
        exposed_comm_us=schedule.exposed_comm_us,
        comm_us_by_channel=dict(schedule.channel_busy_us),
    )


def scaling_curve(
    build_plan,
    device_counts: tuple[int, ...],
    registry: PerfModelRegistry | Sequence[PerfModelRegistry],
    overheads: OverheadDatabase | Sequence[OverheadDatabase],
    collective_model_for,
    overlap: str | None = None,
) -> dict[int, MultiGpuPrediction]:
    """Predict iteration time across device counts (weak/strong scaling).

    Args:
        build_plan: Callable mapping a device count to a plan.
        device_counts: Counts to evaluate.
        registry: Kernel models — one registry, or a per-device
            sequence (every plan in the curve must then have exactly
            that many devices).
        overheads: Overhead database (single or per-device).
        collective_model_for: Callable mapping a device count to a
            calibrated :class:`CollectiveModel`.
        overlap: Override forwarded to every prediction (``None`` keeps
            each plan's own policy) — sweep the same curve with
            overlap on and off by calling twice.
    """
    plans = {n: build_plan(n) for n in device_counts}
    # Batch the whole curve's kernel population into one registry call:
    # device segments across counts share most kernels, so the single
    # deduplicated predict_many warms the cache every per-count
    # prediction below then hits.
    all_kernels = [
        kernel
        for segment in distinct_segments(plans.values())
        for kernel in plan_kernels(collect_plan(segment))
    ]
    unique_registries = (
        {id(r): r for r in registry}.values()
        if isinstance(registry, (list, tuple))
        else [registry]
    )
    if all_kernels:
        for reg in unique_registries:
            reg.predict_many(all_kernels)
    return {
        n: predict_multi_gpu(
            plans[n],
            registry,
            overheads,
            collective_model_for(n),
            overlap=overlap,
        )
        for n in device_counts
    }
