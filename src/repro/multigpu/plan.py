"""Hybrid-parallel DLRM execution plans.

Industrial DLRM trains with the classic hybrid scheme: embedding tables
are *model-parallel* (each device owns a shard of tables and looks up
the **full** batch for them) while the MLPs are *data-parallel* (each
device processes its ``B / n`` slice).  An all-to-all exchanges
embedding outputs between the two regimes, and an all-reduce
synchronises dense gradients.

A :class:`MultiGpuPlan` captures one iteration as alternating compute
phases (per-device execution-graph segments) and collective phases.
The simulator and the predictor both consume this plan, so every
single-GPU asset (kernel models, overhead databases) is reused
unchanged — the paper's intended extension path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.graph import ExecutionGraph
from repro.models.common import MODE_TRAIN, ModelBuilder, check_mode
from repro.multigpu.interconnect import ALL2ALL, ALLREDUCE, COLLECTIVE_KINDS
from repro.multigpu.schedule import OVERLAP_FULL, OVERLAP_NONE, OVERLAP_POLICIES
from repro.models.dlrm import DlrmConfig
from repro.ops import (
    Add,
    BatchedTranspose,
    BinaryCrossEntropy,
    BinaryCrossEntropyBackward,
    Bmm,
    BmmBackward,
    Cat,
    Index,
    IndexBackward,
    LookupFunction,
    LookupFunctionBackward,
    MseLoss,
    MseLossBackward,
    SliceBackward,
    ToDevice,
    View,
    tril_output_size,
)
from repro.tensormeta import TensorMeta


@dataclass(frozen=True)
class CollectivePhase:
    """One collective, with its dependency edges into the compute phases.

    ``produced_by`` names the compute phase whose output the collective
    exchanges and ``consumed_by`` the first compute phase that needs its
    result.  When either is ``None`` the collective keeps its historical
    barrier position: it is produced by the compute phase matching its
    index in the plan's collective list and consumed by the next one.
    Edges with ``consumed_by > produced_by + 1`` are what create overlap
    opportunity — the phases in between are independent of the
    collective and can hide it (the paper's Section V discussion of
    communication cost is extended with this hiding axis).
    """

    kind: str  # ALL2ALL or ALLREDUCE (repro.multigpu.interconnect)
    bytes_per_device: float
    label: str = ""
    produced_by: int | None = None
    consumed_by: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in COLLECTIVE_KINDS:
            raise ValueError(f"unknown collective kind {self.kind!r}")
        if self.bytes_per_device < 0:
            raise ValueError("bytes_per_device must be non-negative")
        if self.produced_by is not None and self.produced_by < 0:
            raise ValueError("produced_by must be a phase index")
        if (
            self.produced_by is not None
            and self.consumed_by is not None
            and self.consumed_by <= self.produced_by
        ):
            raise ValueError(
                f"consumed_by={self.consumed_by} must come after "
                f"produced_by={self.produced_by}"
            )


@dataclass
class MultiGpuPlan:
    """Compute phases, collectives and an overlap policy for a fleet.

    ``compute_phases[p][d]`` is device ``d``'s execution-graph segment
    in phase ``p``.  Without explicit dependency edges,
    ``collectives[p]`` runs after compute phase ``p`` (the historical
    barrier layout).  ``overlap`` selects the default scheduling policy
    (see :mod:`repro.multigpu.schedule`): ``"none"`` reproduces the
    paper's synchronous phase-gated model bit-identically, ``"full"``
    hides collectives behind independent compute.

    Devices whose segments would be identical may share one
    :class:`ExecutionGraph` object (``phase[0] is phase[1]``), so
    segments must be treated as immutable: mutating one can change
    several devices at once.
    """

    num_devices: int
    compute_phases: list[list[ExecutionGraph]]
    collectives: list[CollectivePhase]
    table_assignment: list[list[int]] = field(default_factory=list)
    overlap: str = OVERLAP_NONE

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if self.overlap not in OVERLAP_POLICIES:
            known = ", ".join(OVERLAP_POLICIES)
            raise ValueError(
                f"unknown overlap policy {self.overlap!r}; known: {known}"
            )
        for p, phase in enumerate(self.compute_phases):
            if len(phase) != self.num_devices:
                raise ValueError(
                    f"phase {p} has {len(phase)} device segments for "
                    f"{self.num_devices} devices"
                )
        num_phases = len(self.compute_phases)
        for i, collective in enumerate(self.collectives):
            produced_by, consumed_by = self.resolve_edge(i)
            if not 0 <= produced_by < num_phases:
                raise ValueError(
                    f"collective {i} ({collective.label!r}): produced_by="
                    f"{produced_by} outside the {num_phases} compute phases"
                )
            if not produced_by < consumed_by <= num_phases:
                raise ValueError(
                    f"collective {i} ({collective.label!r}): consumed_by="
                    f"{consumed_by} must satisfy produced_by < consumed_by "
                    f"<= {num_phases}"
                )

    @property
    def num_phases(self) -> int:
        """Number of compute phases."""
        return len(self.compute_phases)

    def resolve_edge(self, index: int) -> tuple[int, int]:
        """Resolved ``(produced_by, consumed_by)`` of one collective.

        Defaults preserve the historical barrier layout: collective
        ``i`` is produced by compute phase ``i`` and consumed by phase
        ``i + 1`` (or the iteration end for the last collective).
        """
        collective = self.collectives[index]
        produced_by = (
            collective.produced_by
            if collective.produced_by is not None
            else index
        )
        consumed_by = (
            collective.consumed_by
            if collective.consumed_by is not None
            else min(produced_by + 1, self.num_phases)
        )
        return produced_by, consumed_by

    def resolved_collectives(self) -> list[tuple[int, int, CollectivePhase]]:
        """Every collective with its resolved dependency edges."""
        return [
            (*self.resolve_edge(i), c) for i, c in enumerate(self.collectives)
        ]


def distinct_segments(plans: Iterable[MultiGpuPlan]) -> list[ExecutionGraph]:
    """Every segment object of ``plans`` once, in first-seen order.

    Devices sharing a segment contribute it once, so callers that
    gather a kernel population walk each shared segment once.
    """
    return list({
        id(segment): segment
        for plan in plans
        for phase in plan.compute_phases
        for segment in phase
    }.values())


def _lookup_key(config: DlrmConfig,
                local_tables: list[int]) -> tuple[int, int]:
    """What a device's lookup segments depend on: ``(tables, avg rows)``.

    Lookups over the device's tables are priced by their count and mean
    row count, so devices with equal keys build identical segments.
    """
    if not local_tables:
        return 0, 0
    rows = [config.table_rows[i] for i in local_tables]
    return len(local_tables), max(1, round(sum(rows) / len(rows)))


def _phase_a(config: DlrmConfig, local_batch: int, full_batch: int,
             lookup_key: tuple[int, int], device: int) -> ExecutionGraph:
    """Input copies + bottom MLP (local batch) + local-table lookups."""
    b = ModelBuilder(f"dlrm_mp_d{device}_phaseA")
    dense_host = b.input(TensorMeta((local_batch, config.dense_dim), device="cpu"))
    (dense,) = b.call(ToDevice((local_batch, config.dense_dim)), [dense_host])
    num_tables, avg_e = lookup_key
    T_local = max(num_tables, 1)
    L = config.lookups_per_table
    idx_host = b.input(
        TensorMeta((full_batch * T_local * L,), "int64", device="cpu")
    )
    (indices,) = b.call(
        ToDevice((full_batch * T_local * L,), "int64", batch=full_batch),
        [idx_host],
    )
    b.mlp_forward(dense, local_batch, list(config.bot_mlp), final_relu=True)
    if num_tables:
        lookup = LookupFunction(
            full_batch, avg_e, num_tables, L, config.embedding_dim
        )
        weights = b.input(lookup.inputs[0])
        offsets = b.input(lookup.inputs[2])
        b.call(lookup, [weights, indices, offsets])
    return b.finish()


def _phase_b(config: DlrmConfig, local_batch: int, device: int,
             train: bool = True) -> ExecutionGraph:
    """Interaction + top MLP (+ loss and their backward when training)."""
    suffix = "phaseB" if train else "phaseBfwd"
    b = ModelBuilder(f"dlrm_mp_d{device}_{suffix}")
    B = local_batch
    T = config.num_tables
    D = config.embedding_dim
    F = config.num_interaction_features
    tril = tril_output_size(F)

    bot_out = b.input(TensorMeta((B, D)))
    emb = b.input(TensorMeta((B, T, D)))
    target = b.input(TensorMeta((B, 1))) if train else None

    (bot_3d,) = b.call(View((B, D), (B, 1, D)), [bot_out])
    (cat_feats,) = b.call(Cat([(B, 1, D), (B, T, D)], dim=1), [bot_3d, emb])
    (cat_t,) = b.call(BatchedTranspose(B, F, D), [cat_feats])
    (scores,) = b.call(Bmm(B, F, D, F), [cat_feats, cat_t])
    (flat,) = b.call(Index(B, F), [scores])
    (top_in,) = b.call(Cat([(B, D), (B, tril)], dim=1), [bot_out, flat])
    top_sizes = [D + tril] + list(config.top_mlp)
    top_out, top_records = b.mlp_forward(top_in, B, top_sizes, final_relu=False)

    if not train:
        if config.loss == "bce":
            b.sigmoid_forward(top_out, (B, 1))
        return b.finish()

    if config.loss == "bce":
        pred, sig_record = b.sigmoid_forward(top_out, (B, 1))
        b.call(BinaryCrossEntropy((B, 1)), [pred, target])
        (grad,) = b.call(BinaryCrossEntropyBackward((B, 1)), [pred, target])
        grad = b.sigmoid_backward(grad, sig_record)
    else:
        b.call(MseLoss((B, 1)), [top_out, target])
        (grad,) = b.call(MseLossBackward((B, 1)), [top_out, target])

    grad = b.mlp_backward(grad, top_records)
    (bot_grad_direct,) = b.call(SliceBackward((B, D + tril), (B, D)), [grad])
    (flat_grad,) = b.call(SliceBackward((B, D + tril), (B, tril)), [grad])
    (scores_grad,) = b.call(IndexBackward(B, F), [flat_grad])
    cat_grad, cat_t_grad = b.call(
        BmmBackward(B, F, D, F), [scores_grad, cat_feats, cat_t]
    )
    (cat_t_grad_t,) = b.call(BatchedTranspose(B, D, F), [cat_t_grad])
    (cat_grad_total,) = b.call(Add((B, F, D)), [cat_grad, cat_t_grad_t])
    (bot3d_grad,) = b.call(SliceBackward((B, F, D), (B, 1, D)), [cat_grad_total])
    b.call(SliceBackward((B, F, D), (B, T, D)), [cat_grad_total])
    (bot_grad_i,) = b.call(View((B, 1, D), (B, D)), [bot3d_grad])
    b.call(Add((B, D)), [bot_grad_direct, bot_grad_i])
    return b.finish()


def _phase_c(config: DlrmConfig, local_batch: int, full_batch: int,
             lookup_key: tuple[int, int], device: int) -> ExecutionGraph:
    """Lookup backward (local tables, full batch) + bottom MLP backward."""
    b = ModelBuilder(f"dlrm_mp_d{device}_phaseC")
    D = config.embedding_dim
    L = config.lookups_per_table
    num_tables, avg_e = lookup_key
    if num_tables:
        bwd = LookupFunctionBackward(full_batch, avg_e, num_tables, L, D)
        grad = b.input(bwd.inputs[0])
        weights = b.input(bwd.inputs[1])
        indices = b.input(bwd.inputs[2])
        b.call(bwd, [grad, weights, indices], inplace=(1,))
    # Bottom MLP backward on the local batch.
    grad_in = b.input(TensorMeta((local_batch, D)))
    _, records = b.mlp_forward(
        b.input(TensorMeta((local_batch, config.dense_dim))),
        local_batch, list(config.bot_mlp), final_relu=True,
    )
    b.mlp_backward(grad_in, records)
    return b.finish()


def _phase_lookup_fwd(config: DlrmConfig, full_batch: int,
                      lookup_key: tuple[int, int],
                      device: int) -> ExecutionGraph:
    """Index copies + local-table lookups only (overlap plan phase 0).

    Splitting the lookups from the bottom MLP lets the embedding
    all-to-all start as early as possible and hide behind the MLP.
    """
    b = ModelBuilder(f"dlrm_mp_d{device}_lookupF")
    num_tables, avg_e = lookup_key
    T_local = max(num_tables, 1)
    L = config.lookups_per_table
    idx_host = b.input(
        TensorMeta((full_batch * T_local * L,), "int64", device="cpu")
    )
    (indices,) = b.call(
        ToDevice((full_batch * T_local * L,), "int64", batch=full_batch),
        [idx_host],
    )
    if num_tables:
        lookup = LookupFunction(
            full_batch, avg_e, num_tables, L, config.embedding_dim
        )
        weights = b.input(lookup.inputs[0])
        offsets = b.input(lookup.inputs[2])
        b.call(lookup, [weights, indices, offsets])
    return b.finish()


def _phase_bot_mlp(config: DlrmConfig, local_batch: int,
                   device: int) -> ExecutionGraph:
    """Dense-input copy + bottom MLP forward (overlaps the all-to-all)."""
    b = ModelBuilder(f"dlrm_mp_d{device}_botMLP")
    dense_host = b.input(TensorMeta((local_batch, config.dense_dim), device="cpu"))
    (dense,) = b.call(ToDevice((local_batch, config.dense_dim)), [dense_host])
    b.mlp_forward(dense, local_batch, list(config.bot_mlp), final_relu=True)
    return b.finish()


def _phase_bot_mlp_bwd(config: DlrmConfig, local_batch: int,
                       device: int) -> ExecutionGraph:
    """Bottom MLP backward — independent of the gradient all-to-all."""
    b = ModelBuilder(f"dlrm_mp_d{device}_botMLPbwd")
    grad_in = b.input(TensorMeta((local_batch, config.embedding_dim)))
    _, records = b.mlp_forward(
        b.input(TensorMeta((local_batch, config.dense_dim))),
        local_batch, list(config.bot_mlp), final_relu=True,
    )
    b.mlp_backward(grad_in, records)
    return b.finish()


def _phase_lookup_bwd(config: DlrmConfig, full_batch: int,
                      lookup_key: tuple[int, int],
                      device: int) -> ExecutionGraph:
    """Lookup backward for the local tables (needs the gradient a2a)."""
    b = ModelBuilder(f"dlrm_mp_d{device}_lookupB")
    D = config.embedding_dim
    L = config.lookups_per_table
    num_tables, avg_e = lookup_key
    if num_tables:
        bwd = LookupFunctionBackward(full_batch, avg_e, num_tables, L, D)
        grad = b.input(bwd.inputs[0])
        weights = b.input(bwd.inputs[1])
        indices = b.input(bwd.inputs[2])
        b.call(bwd, [grad, weights, indices], inplace=(1,))
    return b.finish()


def _phase_d(config: DlrmConfig, local_batch: int, device: int) -> ExecutionGraph:
    """Optimizer step for the (replicated) dense parameters."""
    b = ModelBuilder(f"dlrm_mp_d{device}_phaseD")
    # Reconstruct dense-parameter shapes from the MLP widths.
    sizes = list(config.bot_mlp)
    tril = tril_output_size(config.num_interaction_features)
    top_sizes = [config.embedding_dim + tril] + list(config.top_mlp)
    for widths in (sizes, top_sizes):
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            b.param((fan_out, fan_in))
            b.param((fan_out,))
    b.optimizer_ops()
    return b.finish()


def dense_parameter_bytes(config: DlrmConfig) -> float:
    """Bytes of the data-parallel (replicated) dense parameters."""
    total = 0
    tril = tril_output_size(config.num_interaction_features)
    top_sizes = [config.embedding_dim + tril] + list(config.top_mlp)
    for widths in (list(config.bot_mlp), top_sizes):
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            total += fan_out * fan_in + fan_out
    return 4.0 * total


def build_multi_gpu_dlrm_plan(
    config: DlrmConfig,
    batch_size: int,
    num_devices: int,
    table_assignment: list[list[int]] | None = None,
    overlap: str = OVERLAP_NONE,
    mode: str = MODE_TRAIN,
) -> MultiGpuPlan:
    """Build the hybrid-parallel plan for one DLRM iteration.

    Args:
        config: DLRM configuration (Table III or custom).
        batch_size: Global batch size; must divide by ``num_devices``.
        num_devices: Number of GPUs.
        table_assignment: Per-device table indices; defaults to
            round-robin.  Use :func:`repro.codesign.greedy_balance` for
            a predicted-cost-balanced assignment.
        overlap: ``"none"`` builds the paper's four-phase barrier plan
            (unchanged numbers); ``"full"`` builds a six-phase plan
            whose dependency edges let the forward all-to-all hide
            behind the bottom MLP, the gradient all-to-all behind the
            bottom-MLP backward, and the all-reduce behind the lookup
            backward — the overlap the paper's Section V model leaves
            on the table.
        mode: ``"train"`` (default) emits the full iteration.
            ``"inference"`` emits the forward-only serving plan —
            lookups + embedding all-to-all + MLP forward; the gradient
            all-to-all, the dense all-reduce, every backward phase and
            the optimizer step all disappear.

    Returns:
        The plan; collective dependency edges reflect true DLRM data
        dependencies for ``overlap="full"``, barrier positions
        otherwise.
    """
    check_mode(mode)
    train = mode == MODE_TRAIN
    if batch_size % num_devices != 0:
        raise ValueError(
            f"batch {batch_size} not divisible by {num_devices} devices"
        )
    if overlap not in OVERLAP_POLICIES:
        known = ", ".join(OVERLAP_POLICIES)
        raise ValueError(f"unknown overlap policy {overlap!r}; known: {known}")
    if table_assignment is None:
        table_assignment = [
            [i for i in range(config.num_tables) if i % num_devices == d]
            for d in range(num_devices)
        ]
    assigned = sorted(i for dev in table_assignment for i in dev)
    if assigned != list(range(config.num_tables)):
        raise ValueError("table_assignment must cover every table exactly once")

    local_batch = batch_size // num_devices
    D = config.embedding_dim

    # Each device exchanges its local-table outputs for the full batch:
    # buffer = B * T_local * D floats (max over devices gates the wire).
    max_local_tables = max((len(t) for t in table_assignment), default=0)
    emb_bytes = 4.0 * batch_size * max_local_tables * D

    # Local-batch phases are identical on every device, and lookup
    # phases on devices with equal lookup keys: each distinct segment is
    # built once and shared (see MultiGpuPlan).
    lookup_keys = [_lookup_key(config, tables) for tables in table_assignment]

    def per_key(build) -> list[ExecutionGraph]:
        """``build(key, device)`` once per distinct lookup key."""
        built: dict[tuple[int, int], ExecutionGraph] = {}
        for d, key in enumerate(lookup_keys):
            if key not in built:
                built[key] = build(key, d)
        return [built[key] for key in lookup_keys]

    phase_b = [_phase_b(config, local_batch, 0, train=train)] * num_devices
    if overlap == OVERLAP_FULL:
        lookup_fwd = per_key(
            lambda key, d: _phase_lookup_fwd(config, batch_size, key, d)
        )
        bot_mlp = [_phase_bot_mlp(config, local_batch, 0)] * num_devices
        if not train:
            # Serving: lookups start the all-to-all as early as possible
            # and it hides behind the bottom MLP; nothing runs after the
            # top-MLP forward.
            return MultiGpuPlan(
                num_devices=num_devices,
                compute_phases=[lookup_fwd, bot_mlp, phase_b],
                collectives=[
                    CollectivePhase(ALL2ALL, emb_bytes,
                                    label="embedding forward",
                                    produced_by=0, consumed_by=2),
                ],
                table_assignment=table_assignment,
                overlap=OVERLAP_FULL,
            )
        bot_bwd = [_phase_bot_mlp_bwd(config, local_batch, 0)] * num_devices
        lookup_bwd = per_key(
            lambda key, d: _phase_lookup_bwd(config, batch_size, key, d)
        )
        phase_d = [_phase_d(config, local_batch, 0)] * num_devices
        collectives = [
            CollectivePhase(ALL2ALL, emb_bytes, label="embedding forward",
                            produced_by=0, consumed_by=2),
            CollectivePhase(ALL2ALL, emb_bytes, label="embedding gradient",
                            produced_by=2, consumed_by=4),
            CollectivePhase(ALLREDUCE, dense_parameter_bytes(config),
                            label="dense grads", produced_by=3, consumed_by=5),
        ]
        return MultiGpuPlan(
            num_devices=num_devices,
            compute_phases=[lookup_fwd, bot_mlp, phase_b,
                            bot_bwd, lookup_bwd, phase_d],
            collectives=collectives,
            table_assignment=table_assignment,
            overlap=OVERLAP_FULL,
        )

    phase_a = per_key(
        lambda key, d: _phase_a(config, local_batch, batch_size, key, d)
    )
    if not train:
        # Serving with barriers: lookup/bottom-MLP phase, the embedding
        # all-to-all, then the interaction + top-MLP forward.
        return MultiGpuPlan(
            num_devices=num_devices,
            compute_phases=[phase_a, phase_b],
            collectives=[
                CollectivePhase(ALL2ALL, emb_bytes, label="embedding forward"),
            ],
            table_assignment=table_assignment,
        )
    phase_c = per_key(
        lambda key, d: _phase_c(config, local_batch, batch_size, key, d)
    )
    phase_d = [_phase_d(config, local_batch, 0)] * num_devices

    collectives = [
        CollectivePhase(ALL2ALL, emb_bytes, label="embedding forward"),
        CollectivePhase(ALL2ALL, emb_bytes, label="embedding gradient"),
        CollectivePhase(
            ALLREDUCE, dense_parameter_bytes(config), label="dense grads"
        ),
    ]
    return MultiGpuPlan(
        num_devices=num_devices,
        compute_phases=[phase_a, phase_b, phase_c, phase_d],
        collectives=collectives,
        table_assignment=table_assignment,
    )
