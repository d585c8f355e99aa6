"""QPS/SLO-driven fleet search over the sweep engine.

The sweep engine makes a single forward-pass prediction cheap enough to
evaluate *thousands* of serving configurations: the planner grids
per-replica batch size × replica count × fleet (GPU kind, GPUs per
replica) × sharding × overlap policy, predicts each point's batch
service time through the shared batched/cached prediction substrate,
pushes it through the closed-form batch-arrival model of
:mod:`repro.capacity.slo`, and ranks the configurations that meet the
:class:`~repro.capacity.slo.ServingTarget` by dollar cost.

The service-time substrate is the inference mode added to the graph
builders: single-GPU replicas run Algorithm 1 over the forward-only
graph; sharded replicas run the overlap-aware multi-GPU scheduler over
the forward-only hybrid-parallel plan (lookup + all-to-all + MLP
forward — no gradient exchange, no all-reduce).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

from repro.capacity.slo import (
    DEFAULT_MAX_UTILIZATION,
    LatencyBreakdown,
    ServingTarget,
    predict_percentile_latency,
    replica_capacity_qps,
    replica_utilization,
)
from repro.models import MODE_INFERENCE
from repro.models.dlrm import DlrmConfig, build_dlrm_graph
from repro.multigpu.interconnect import NVLINK, InterconnectSpec
from repro.multigpu.plan import MultiGpuPlan, build_multi_gpu_dlrm_plan
from repro.multigpu.schedule import OVERLAP_POLICIES
from repro.multigpu.topology import ETHERNET_100G, Topology
from repro.serving.arrivals import ARRIVAL_POISSON, ArrivalSpec
from repro.serving.batching import BatchingPolicy
from repro.serving.service import TabulatedServiceTimes, price_dlrm_service
from repro.serving.simulate import ServingSimulator
from repro.sweep import SweepEngine

#: Sharding-axis label for the default round-robin table assignment.
ROUND_ROBIN = "round_robin"
#: Overlap-axis label used for single-GPU replicas (nothing to hide).
SINGLE_GPU_OVERLAP = "n/a"
#: ``plan_dlrm(validate=...)`` mode: re-check closed-form-feasible
#: plans in the discrete-event serving simulator.
VALIDATE_SIMULATE = "simulate"
#: How many closed-form-feasible plans the validation stage re-checks.
DEFAULT_VALIDATE_TOP_K = 3
#: Arrival-trace length of one validation simulation.
DEFAULT_VALIDATE_REQUESTS = 4000


@dataclass(frozen=True)
class CandidateFleet:
    """One fleet shape the planner may buy.

    Attributes:
        gpu: Registry label in the sweep engine (the GPU kind every
            replica uses).
        gpus_per_replica: Devices per replica; ``1`` means single-GPU
            replicas, larger values shard the embedding tables across
            the replica's devices.
        nodes: Nodes each replica spans.  ``1`` keeps the replica
            inside one box (flat fabric); larger values split its
            ``gpus_per_replica`` devices evenly across ``nodes`` nodes
            connected by the cross-node network — the hierarchical
            :class:`~repro.multigpu.topology.Topology` regime.
        max_replicas: Upper bound on the replica count the search will
            consider.
        cost_per_gpu_hour: Relative (or dollar) cost of one GPU-hour,
            used to rank feasible plans.
    """

    gpu: str
    gpus_per_replica: int = 1
    nodes: int = 1
    max_replicas: int = 64
    cost_per_gpu_hour: float = 1.0

    def __post_init__(self) -> None:
        if self.gpus_per_replica < 1:
            raise ValueError(
                f"gpus_per_replica must be >= 1, got {self.gpus_per_replica}"
            )
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.gpus_per_replica % self.nodes != 0:
            raise ValueError(
                f"gpus_per_replica={self.gpus_per_replica} must divide "
                f"evenly across nodes={self.nodes}"
            )
        if self.max_replicas < 1:
            raise ValueError(
                f"max_replicas must be >= 1, got {self.max_replicas}"
            )
        if self.cost_per_gpu_hour <= 0:
            raise ValueError(
                f"cost_per_gpu_hour must be positive, got "
                f"{self.cost_per_gpu_hour}"
            )

    @property
    def gpus_per_node(self) -> int:
        """GPUs on each of the replica's nodes."""
        return self.gpus_per_replica // self.nodes

    @property
    def label(self) -> str:
        """Human-readable fleet shape, e.g. ``A100x2`` or ``A100x8@2n``."""
        base = f"{self.gpu}x{self.gpus_per_replica}"
        return base if self.nodes == 1 else f"{base}@{self.nodes}n"


@dataclass(frozen=True)
class CapacityPlan:
    """One evaluated serving configuration.

    Attributes:
        fleet: Fleet-shape label (``gpu x gpus_per_replica``).
        gpu: GPU kind of every device in the fleet.
        gpus_per_replica: Devices per replica.
        replicas: Replica count this plan provisions.
        batch_size: Per-replica serving batch size.
        sharding: Sharding-axis label (multi-GPU replicas only).
        overlap: Overlap policy of the replica's serving plan.
        service_us: Predicted forward-pass time of one batch.
        latency: Predicted per-request latency breakdown at the target
            percentile.
        throughput_qps: Sustainable fleet throughput at the utilization
            ceiling.
        utilization: Replica utilization at the target QPS.
        cost_per_hour: Fleet cost (replicas × GPUs × cost/GPU-hour).
        meets_slo: Whether the plan satisfies the serving target.
        nodes: Nodes each replica spans (1 = flat single-node replica).
        bottleneck: Busiest resource of the replica's serving plan —
            ``"compute"``, ``"fabric"`` (flat interconnect), or the
            ``"intra"``/``"inter"`` channel of a hierarchical topology.
        simulated_us: Measured p99 from the discrete-event serving
            simulator when the plan went through the
            ``validate="simulate"`` stage; ``None`` when the plan was
            only priced by the closed form.
    """

    fleet: str
    gpu: str
    gpus_per_replica: int
    replicas: int
    batch_size: int
    sharding: str
    overlap: str
    service_us: float
    latency: LatencyBreakdown
    throughput_qps: float
    utilization: float
    cost_per_hour: float
    meets_slo: bool
    nodes: int = 1
    bottleneck: str = "compute"
    simulated_us: float | None = None

    @property
    def latency_us(self) -> float:
        """Predicted percentile latency (the SLO-facing number)."""
        return self.latency.total_us

    @property
    def total_gpus(self) -> int:
        """Devices the plan provisions across all replicas."""
        return self.replicas * self.gpus_per_replica

    def to_dict(self) -> dict:
        """JSON-compatible row for reports and ``results/`` tables."""
        return {
            "fleet": self.fleet,
            "gpu": self.gpu,
            "gpus_per_replica": self.gpus_per_replica,
            "nodes": self.nodes,
            "replicas": self.replicas,
            "total_gpus": self.total_gpus,
            "bottleneck": self.bottleneck,
            "batch_size": self.batch_size,
            "sharding": self.sharding,
            "overlap": self.overlap,
            "service_us": self.service_us,
            "fill_us": self.latency.fill_us,
            "queue_us": (
                None if math.isinf(self.latency.queue_us)
                else self.latency.queue_us
            ),
            "latency_us": (
                None if math.isinf(self.latency_us) else self.latency_us
            ),
            "throughput_qps": self.throughput_qps,
            "utilization": self.utilization,
            "cost_per_hour": self.cost_per_hour,
            "meets_slo": self.meets_slo,
            "simulated_us": (
                None
                if self.simulated_us is None or math.isinf(self.simulated_us)
                else self.simulated_us
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CapacityPlan":
        """Rebuild a plan from a :meth:`to_dict` row.

        ``queue_us`` (and the derived ``latency_us``) serialize
        saturated replicas as ``None``; restoring them as ``inf`` makes
        the round trip exact.
        """
        queue_us = data["queue_us"]
        latency = LatencyBreakdown(
            fill_us=data["fill_us"],
            queue_us=math.inf if queue_us is None else queue_us,
            service_us=data["service_us"],
        )
        return cls(
            fleet=data["fleet"],
            gpu=data["gpu"],
            gpus_per_replica=data["gpus_per_replica"],
            replicas=data["replicas"],
            batch_size=data["batch_size"],
            sharding=data["sharding"],
            overlap=data["overlap"],
            service_us=data["service_us"],
            latency=latency,
            throughput_qps=data["throughput_qps"],
            utilization=data["utilization"],
            cost_per_hour=data["cost_per_hour"],
            meets_slo=data["meets_slo"],
            nodes=data["nodes"],
            bottleneck=data["bottleneck"],
            simulated_us=data["simulated_us"],
        )


def rank_plans(plans: Sequence[CapacityPlan]) -> list[CapacityPlan]:
    """Rank plans: feasible first by (cost, latency), then best-effort.

    Infeasible plans are kept (sorted by how close they get to the SLO)
    so an impossible target still yields an actionable report instead
    of an empty list.
    """
    feasible = [p for p in plans if p.meets_slo]
    infeasible = [p for p in plans if not p.meets_slo]
    feasible.sort(key=lambda p: (p.cost_per_hour, p.latency_us, p.fleet))
    infeasible.sort(key=lambda p: (p.latency_us, p.cost_per_hour, p.fleet))
    return feasible + infeasible


def plans_to_json(plans: Sequence[CapacityPlan], indent: int = 1) -> str:
    """Serialize a ranked plan list (one JSON row per plan)."""
    return json.dumps([p.to_dict() for p in plans], indent=indent)


class CapacityPlanner:
    """Searches serving configurations against a :class:`ServingTarget`.

    Args:
        engine: Sweep engine whose registries/overhead DBs supply the
            service-time predictions; its shared cache is what makes
            the grid cheap.
        target: The QPS + tail-latency objective.
        max_utilization: Per-replica utilization ceiling; plans running
            hotter are rejected even if the latency math still closes.
    """

    def __init__(
        self,
        engine: SweepEngine,
        target: ServingTarget,
        max_utilization: float = DEFAULT_MAX_UTILIZATION,
    ) -> None:
        if not 0.0 < max_utilization <= 1.0:
            raise ValueError(
                f"max_utilization must be in (0, 1], got {max_utilization}"
            )
        self.engine = engine
        self.target = target
        self.max_utilization = max_utilization
        #: Pruning telemetry of the most recent :meth:`plan_dlrm` call:
        #: grid points skipped as provably infeasible vs. evaluated.
        self.last_prune_stats: dict[str, int] = {"pruned": 0, "evaluated": 0}

    # -- replica-count search -------------------------------------------
    def size_replicas(
        self, fleet: CandidateFleet, batch_size: int, service_us: float,
        sharding: str = ROUND_ROBIN, overlap: str = SINGLE_GPU_OVERLAP,
        bottleneck: str = "compute",
    ) -> CapacityPlan:
        """Pick the cheapest feasible replica count for one service time.

        Cost grows with the replica count, so the scan returns the
        *first* replica count that meets both the utilization ceiling
        and the percentile SLO.  Latency is not monotonic in the count
        (more replicas lengthen the batch-fill wait while shortening
        the queue wait), hence the linear scan rather than bisection.
        When nothing feasible exists within ``fleet.max_replicas`` the
        lowest-latency best-effort plan is returned with
        ``meets_slo=False``.
        """
        best_effort: CapacityPlan | None = None
        for replicas in range(1, fleet.max_replicas + 1):
            replica_qps = self.target.qps / replicas
            utilization = replica_utilization(
                service_us, batch_size, replica_qps
            )
            latency = predict_percentile_latency(
                service_us, batch_size, replica_qps, self.target.percentile
            )
            meets = (
                utilization <= self.max_utilization
                and not latency.saturated
                and latency.total_us <= self.target.latency_slo_us
            )
            plan = CapacityPlan(
                fleet=fleet.label,
                gpu=fleet.gpu,
                gpus_per_replica=fleet.gpus_per_replica,
                nodes=fleet.nodes,
                bottleneck=bottleneck,
                replicas=replicas,
                batch_size=batch_size,
                sharding=sharding,
                overlap=overlap,
                service_us=service_us,
                latency=latency,
                throughput_qps=replicas * replica_capacity_qps(
                    service_us, batch_size, self.max_utilization
                ),
                utilization=utilization,
                cost_per_hour=(
                    replicas * fleet.gpus_per_replica * fleet.cost_per_gpu_hour
                ),
                meets_slo=meets,
            )
            if meets:
                return plan
            if best_effort is None or plan.latency_us < best_effort.latency_us:
                best_effort = plan
        assert best_effort is not None  # max_replicas >= 1
        return best_effort

    # -- grid evaluation ------------------------------------------------
    def plan_dlrm(
        self,
        config: DlrmConfig,
        batch_sizes: Sequence[int],
        fleets: Sequence[CandidateFleet] | None = None,
        collective_model_for: Callable[[int], object] | None = None,
        shardings: Mapping[str, list[list[int]] | None] | None = None,
        overlap_policies: Sequence[str] = OVERLAP_POLICIES,
        topology_model_for: Callable[[Topology], object] | None = None,
        intra_fabric: InterconnectSpec = NVLINK,
        inter_fabric: InterconnectSpec = ETHERNET_100G,
        prune: bool = False,
        validate: str | None = None,
        validate_top_k: int = DEFAULT_VALIDATE_TOP_K,
        validate_requests: int = DEFAULT_VALIDATE_REQUESTS,
        validate_seed: int = 0,
    ) -> list[CapacityPlan]:
        """Search the full serving grid for one DLRM configuration.

        Args:
            config: The DLRM to serve.
            batch_sizes: Per-replica batch sizes to consider.
            fleets: Fleet shapes; defaults to one single-GPU fleet per
                engine registry.  Fleets with ``nodes > 1`` shard each
                replica across nodes and price its collectives on the
                hierarchical intra/inter fabrics.
            collective_model_for: Device count -> calibrated collective
                model; required as soon as any fleet shards a replica
                across multiple GPUs (within one node).
            shardings: Label -> table assignment for sharded replicas
                (``None`` value = round-robin).  Feed the output of
                :func:`repro.codesign.greedy_balance` here to put the
                balanced sharding on the axis.
            overlap_policies: Overlap policies to evaluate for sharded
                replicas (single-GPU replicas have nothing to hide).
            topology_model_for: :class:`Topology` -> calibrated
                :class:`~repro.multigpu.topology.TopologyCollectiveModel`;
                required as soon as any fleet spans multiple nodes.
            intra_fabric: Intra-node interconnect of multi-node
                replicas.
            inter_fabric: Cross-node network of multi-node replicas.
            prune: Skip single-GPU grid points whose admissible
                service-time lower bound (:mod:`repro.sweep.prune`)
                already exceeds the latency SLO.  Sound: percentile
                latency ≥ batch service time ≥ the bound, so a pruned
                point could never have met the target — only its
                best-effort (``meets_slo=False``) row disappears from
                the report.  Skipped counts land in
                :attr:`last_prune_stats`.
            validate: ``None`` (closed form only) or
                :data:`VALIDATE_SIMULATE` to re-check the top
                ``validate_top_k`` closed-form-feasible plans in the
                discrete-event serving simulator
                (:meth:`validate_plans`).
            validate_top_k: Feasible plans the validation re-checks.
            validate_requests: Arrival-trace length per validation run.
            validate_seed: Seed of the validation traces.

        Returns:
            All evaluated configurations, ranked by :func:`rank_plans`.
        """
        if not batch_sizes:
            raise ValueError("capacity search needs at least one batch size")
        if any(b <= 0 for b in batch_sizes):
            raise ValueError("batch sizes must be positive")
        if fleets is None:
            fleets = [
                CandidateFleet(gpu=name) for name in self.engine.registries
            ]
        if not fleets:
            raise ValueError("capacity search needs at least one fleet")
        for fleet in fleets:
            if fleet.gpu not in self.engine.registries:
                known = ", ".join(sorted(self.engine.registries))
                raise ValueError(
                    f"fleet {fleet.label!r} references unknown registry "
                    f"{fleet.gpu!r}; known: {known}"
                )
        if shardings is None:
            shardings = {ROUND_ROBIN: None}
        if not shardings:
            raise ValueError("capacity search needs at least one sharding")
        if not overlap_policies:
            raise ValueError(
                "capacity search needs at least one overlap policy"
            )

        plans: list[CapacityPlan] = []
        self.last_prune_stats = {"pruned": 0, "evaluated": 0}
        single = [f for f in fleets if f.gpus_per_replica == 1]
        sharded = [f for f in fleets if f.gpus_per_replica > 1]
        if single:
            plans.extend(
                self._plan_single_gpu(config, batch_sizes, single, prune)
            )
        if any(f.nodes == 1 for f in sharded) and collective_model_for is None:
            raise ValueError("multi-GPU replicas need collective_model_for")
        if any(f.nodes > 1 for f in sharded) and topology_model_for is None:
            raise ValueError("multi-node replicas need topology_model_for")
        if sharded:
            plans.extend(
                self._plan_multi_gpu(
                    config, batch_sizes, sharded, collective_model_for,
                    topology_model_for, shardings, overlap_policies,
                    intra_fabric, inter_fabric,
                )
            )
        ranked = rank_plans(plans)
        if validate is None:
            return ranked
        if validate != VALIDATE_SIMULATE:
            raise ValueError(
                f"unknown validate mode {validate!r}; known: "
                f"{VALIDATE_SIMULATE!r}"
            )
        return self.validate_plans(
            config, ranked, top_k=validate_top_k,
            num_requests=validate_requests, seed=validate_seed,
        )

    # -- simulator validation stage -------------------------------------
    def validate_plans(
        self,
        config: DlrmConfig,
        plans: Sequence[CapacityPlan],
        top_k: int = DEFAULT_VALIDATE_TOP_K,
        num_requests: int = DEFAULT_VALIDATE_REQUESTS,
        seed: int = 0,
    ) -> list[CapacityPlan]:
        """Re-check the top closed-form-feasible plans in the simulator.

        The first ``top_k`` feasible plans (in rank order) are each
        replayed against a steady Poisson trace at the target QPS with
        the plan's own batch size as the front end's ``max_batch`` and
        the latency SLO as the fill timeout.  A plan whose *measured*
        p99 misses the SLO gets ``meets_slo`` demoted — the closed form
        accepted it, the simulator rejects it — and every re-checked
        plan carries its measured p99 in ``simulated_us``.  The result
        is re-ranked, so a demoted plan falls behind still-feasible
        ones.

        Single-GPU plans are priced at a power-of-two batch ladder
        through the shared sweep cache (partial timeout batches pay the
        next ladder price); sharded plans reuse their already-predicted
        full-batch service time for every formed batch — conservative
        for partials.
        """
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        budget = top_k
        out: list[CapacityPlan] = []
        for plan in plans:
            if plan.meets_slo and budget > 0:
                budget -= 1
                out.append(
                    self._validate_one(config, plan, num_requests, seed)
                )
            else:
                out.append(plan)
        return rank_plans(out)

    def _validate_one(
        self,
        config: DlrmConfig,
        plan: CapacityPlan,
        num_requests: int,
        seed: int,
    ) -> CapacityPlan:
        """Simulate one plan under steady Poisson at the target QPS."""
        if plan.gpus_per_replica == 1:
            model = price_dlrm_service(
                self.engine, config, plan.gpu, plan.batch_size
            )
        else:
            model = TabulatedServiceTimes({plan.batch_size: plan.service_us})
        simulator = ServingSimulator(
            model,
            plan.replicas,
            BatchingPolicy(
                max_batch=plan.batch_size,
                timeout_us=self.target.latency_slo_us,
            ),
            seed=seed,
        )
        spec = ArrivalSpec(
            kind=ARRIVAL_POISSON,
            qps=self.target.qps,
            num_requests=num_requests,
        )
        label = f"validate:{plan.fleet}|b{plan.batch_size}|r{plan.replicas}"
        report = simulator.run(spec, scenario=label)
        simulated_us = report.latency_p99_us
        meets = (
            plan.meets_slo and simulated_us <= self.target.latency_slo_us
        )
        return replace(plan, simulated_us=simulated_us, meets_slo=meets)

    def _plan_single_gpu(
        self,
        config: DlrmConfig,
        batch_sizes: Sequence[int],
        fleets: Sequence[CandidateFleet],
        prune: bool = False,
    ) -> list[CapacityPlan]:
        """Evaluate single-GPU replicas via the batch-size sweep.

        The sweep grid spans every engine transform and overhead DB;
        the capacity search pins both to the engine's first axis value
        so each (fleet, batch) maps to exactly one plan.  With
        ``prune``, the sweep rides the branch-and-bound engine: the
        latency SLO is the cutoff, and provably-over-SLO points are
        skipped instead of traversed.
        """
        recorded = max(batch_sizes)
        graph = build_dlrm_graph(config, recorded, mode=MODE_INFERENCE)
        result = self.engine.run(
            graph,
            recorded,
            sorted(set(batch_sizes)),
            cutoff_us=self.target.latency_slo_us if prune else None,
        )
        self.last_prune_stats = {
            "pruned": result.pruned,
            "evaluated": len(result),
        }
        transform = next(iter(self.engine.transforms))
        db_name = next(iter(self.engine.overhead_dbs))
        plans = []
        for record in result.filter(transform=transform, overheads=db_name):
            for fleet in fleets:
                if fleet.gpu != record.point.gpu:
                    continue
                plans.append(
                    self.size_replicas(
                        fleet,
                        record.point.batch_size,
                        record.prediction.total_us,
                    )
                )
        return plans

    def _plan_multi_gpu(
        self,
        config: DlrmConfig,
        batch_sizes: Sequence[int],
        fleets: Sequence[CandidateFleet],
        collective_model_for: Callable[[int], object] | None,
        topology_model_for: Callable[[Topology], object] | None,
        shardings: Mapping[str, list[list[int]] | None],
        overlap_policies: Sequence[str],
        intra_fabric: InterconnectSpec,
        inter_fabric: InterconnectSpec,
    ) -> list[CapacityPlan]:
        """Evaluate sharded replicas, one- or multi-node, via the sweep.

        One ``run_multi_gpu`` call per (overlap policy, replica shape):
        policies have structurally different forward-only plans, and
        grouping by shape keeps each call's fleet axis limited to the
        GPU labels actually sold in that shape.  A one-node shape
        prices its collectives with the flat ``collective_model_for``;
        a multi-node shape becomes a hierarchical :class:`Topology`
        (``nodes × gpus_per_node`` over the given fabrics) priced by
        ``topology_model_for``, stage by stage.

        Shapes with the same device count (a 4-GPU box and a 2×2-node
        replica) serve the same plans, so plans come from a table keyed
        by (batch, devices, sharding, policy) that lives for this call
        only.
        """
        by_shape: dict[tuple[int, int], list[CandidateFleet]] = {}
        for fleet in fleets:
            key = (fleet.nodes, fleet.gpus_per_replica)
            by_shape.setdefault(key, []).append(fleet)
        # One-node shapes first, each group policy-major: the order whose
        # ties rank_plans' stable sort keeps.
        grid = sorted(
            (nodes > 1, i, nodes, devices)
            for i in range(len(overlap_policies))
            for nodes, devices in by_shape
        )
        plan_table: dict[tuple[int, int, str, str], MultiGpuPlan] = {}
        plans = []
        for _, i, nodes, devices in grid:
            policy = overlap_policies[i]
            mg_plans = {}
            for batch in sorted(set(batch_sizes)):
                if batch % devices != 0:
                    continue
                for shard_label, assignment in shardings.items():
                    key = (batch, devices, shard_label, policy)
                    if key not in plan_table:
                        plan_table[key] = build_multi_gpu_dlrm_plan(
                            config, batch, devices,
                            table_assignment=assignment,
                            overlap=policy,
                            mode=MODE_INFERENCE,
                        )
                    mg_plans[f"b{batch}|{shard_label}"] = plan_table[key]
            if not mg_plans:
                continue
            shape_fleets = by_shape[nodes, devices]
            if nodes == 1:
                model_for, topologies = collective_model_for, None
            else:
                topology = Topology(
                    num_nodes=nodes, gpus_per_node=devices // nodes,
                    intra=intra_fabric, inter=inter_fabric,
                )
                model_for = topology_model_for
                topologies = {topology.label: topology}
            result = self.engine.run_multi_gpu(
                mg_plans,
                model_for,
                fleets={
                    label: label
                    for label in sorted({f.gpu for f in shape_fleets})
                },
                overlap_policies=(policy,),
                topologies=topologies,
            )
            for record in result:
                batch_str, shard_label = record.point.plan.split("|", 1)
                batch = int(batch_str[1:])
                for fleet in shape_fleets:
                    if fleet.gpu != record.point.fleet:
                        continue
                    plans.append(
                        self.size_replicas(
                            fleet, batch,
                            record.prediction.iteration_us,
                            sharding=shard_label, overlap=policy,
                            bottleneck=record.prediction.bottleneck,
                        )
                    )
        return plans


def plan_capacity(
    target: ServingTarget,
    config: DlrmConfig,
    registries: Mapping[str, object],
    overheads: Mapping[str, object],
    batch_sizes: Sequence[int],
    fleets: Sequence[CandidateFleet] | None = None,
    collective_model_for: Callable[[int], object] | None = None,
    max_utilization: float = DEFAULT_MAX_UTILIZATION,
    **planner_kwargs,
) -> list[CapacityPlan]:
    """One-call capacity search (builds the engine and planner for you).

    Args:
        target: QPS + tail-latency objective.
        config: The DLRM to serve.
        registries: GPU label -> kernel-model registry.
        overheads: Label -> overhead database.
        batch_sizes: Per-replica batch sizes to consider.
        fleets: Fleet shapes (default: one single-GPU fleet per registry).
        collective_model_for: Device count -> collective model (needed
            for sharded replicas).
        max_utilization: Per-replica utilization ceiling.
        **planner_kwargs: Forwarded to :meth:`CapacityPlanner.plan_dlrm`
            (``shardings``, ``overlap_policies``).

    Returns:
        Ranked :class:`CapacityPlan` list.
    """
    engine = SweepEngine(registries=registries, overhead_dbs=overheads)
    planner = CapacityPlanner(engine, target, max_utilization=max_utilization)
    return planner.plan_dlrm(
        config, batch_sizes, fleets=fleets,
        collective_model_for=collective_model_for, **planner_kwargs,
    )
