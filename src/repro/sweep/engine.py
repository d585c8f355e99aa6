"""Grid evaluation over (transform x batch size x GPU x overhead DB).

The what-if studies the paper motivates (batch-size scans, fusion
co-design, sharding balance, scaling curves) all evaluate *families* of
closely related execution graphs.  The sweep engine runs the full grid
through Algorithm 1 while sharing one prediction cache per registry
across every point: the whole grid's kernel population is deduplicated
and predicted in one vectorized batch per kernel type (see
:meth:`PerfModelRegistry.predict_many`), then the walk reads each
plan's kernel times back as cache hits.

Per-point work is kept lean on purpose: instead of rebuilding a full
:class:`ExecutionGraph` per batch size (tensor table remap, node
revalidation), each point only rescales the *ops* and reuses the
predictor's plan/traversal split.  Ops whose shapes are
batch-independent (optimizer steps, weight-grad accumulation) return
themselves from ``rescale_batch``, so their cached kernel tuples are
shared across every point of the sweep.

The walk runs Algorithm 1 once per *structure group*: points whose
plans share a :func:`repro.e2e.plan_structure` are traversed together,
one column per point, by :func:`repro.e2e.traverse_columns`.  Groups
with fewer than ``_MIN_COLUMNS`` points take one
:func:`repro.e2e.traverse_plan` per point instead, which is cheaper
there and gives the same bits.  Results are bit-identical to
``predict_e2e(rescale_batch(graph, ...), ...)`` — a test enforces it.

A *transform* axis value is any ``ExecutionGraph -> ExecutionGraph``
callable (identity, :func:`fuse_embedding_bags`, a reorder, ...); the
*GPU* axis pairs a label with the registry trained for that device;
the *overheads* axis selects between individual / shared databases.

Three scale features ride on the same grid walk:

* **Pruning** — pass ``cutoff_us`` and points whose admissible lower
  bound (:mod:`repro.sweep.prune`) already exceeds it are skipped and
  reported in :attr:`SweepResult.pruned_points` instead of evaluated.
* **Incremental re-sweeps** — :meth:`SweepEngine.run_incremental`
  reuses records from a persisted :class:`SweepResult` whose per-point
  fingerprint (plan kernels + dispatched models + overhead DB +
  traversal knobs) still matches, re-evaluating only the invalidated
  points.
* **Parallel fan-out** — :func:`repro.sweep.parallel.parallel_sweep`
  shards the same grid across forked workers, byte-identical to the
  serial walk.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.e2e import (
    DEFAULT_T4_US,
    E2EPrediction,
    KERNEL_GAP_US,
    collect_plan,
    plan_digest,
    plan_kernels,
    plan_structure,
    prediction_key,
    traverse_columns,
    traverse_plan,
)
from repro.graph import ExecutionGraph
from repro.multigpu.plan import MultiGpuPlan, distinct_segments
from repro.multigpu.predict import predict_multi_gpu
from repro.multigpu.schedule import OVERLAP_POLICIES
from repro.multigpu.topology import Topology
from repro.overheads import OverheadDatabase
from repro.perfmodels import CacheInfo, PerfModelRegistry
from repro.sweep.prune import plan_lower_bounds_us
from repro.sweep.result import (
    MultiGpuSweepPoint,
    MultiGpuSweepRecord,
    MultiGpuSweepResult,
    SweepPoint,
    SweepRecord,
    SweepResult,
)

#: The identity transform (the "no rewrite" axis value).
IDENTITY_TRANSFORM = "none"

#: Structure groups with fewer columns than this are traversed point
#: by point: below it, the column pass's fixed per-kernel numpy cost
#: exceeds the scalar loop's per-point cost.
_MIN_COLUMNS = 8

GraphTransform = Callable[[ExecutionGraph], ExecutionGraph]


class SweepEngine:
    """Evaluates prediction grids with shared, batched kernel prediction.

    Args:
        registries: GPU label -> kernel-model registry for that device.
        overhead_dbs: Label -> overhead database (individual/shared).
        transforms: Label -> graph transform.  ``None`` means just the
            identity transform.
        t4_us: Forwarded to the Algorithm 1 traversal.
        kernel_gap_us: Forwarded to the Algorithm 1 traversal.
        sync_h2d: Forwarded to the Algorithm 1 traversal.
        auto_size_cache: Grow each registry's prediction-cache bound to
            the grid's deduplicated kernel population before the
            up-front prediction pass.  Without it, a grid whose
            population exceeds the bound thrashes the LRU — the giant
            precompute evicts its own early entries and every per-point
            lookup misses.  Leave on unless memory-bounding the cache
            matters more than sweep throughput.
    """

    def __init__(
        self,
        registries: Mapping[str, PerfModelRegistry],
        overhead_dbs: Mapping[str, OverheadDatabase],
        transforms: Mapping[str, GraphTransform] | None = None,
        t4_us: float | None = DEFAULT_T4_US,
        kernel_gap_us: float = KERNEL_GAP_US,
        sync_h2d: bool = False,
        auto_size_cache: bool = True,
    ) -> None:
        if not registries:
            raise ValueError("sweep needs at least one registry")
        if not overhead_dbs:
            raise ValueError("sweep needs at least one overhead database")
        self.registries = dict(registries)
        self.overhead_dbs = dict(overhead_dbs)
        self.transforms: dict[str, GraphTransform] = (
            dict(transforms)
            if transforms is not None
            else {IDENTITY_TRANSFORM: lambda g: g}
        )
        if not self.transforms:
            raise ValueError("sweep needs at least one transform")
        self.t4_us = t4_us
        self.kernel_gap_us = kernel_gap_us
        self.sync_h2d = sync_h2d
        self.auto_size_cache = auto_size_cache

    def _precompute(
        self,
        registry: PerfModelRegistry,
        all_kernels: list,
        need_times: bool = False,
    ) -> np.ndarray | None:
        """Warm one registry's cache with the grid's kernel population.

        The pass is *chunked to the cache bound*: a single
        ``predict_many`` over a population larger than the bound would
        evict its own earliest entries before returning (LRU
        sequential-scan thrash), leaving every per-point lookup a miss.
        With :attr:`auto_size_cache` the bound is first grown to the
        deduplicated population, so the whole grid fits and the
        chunking degenerates to one pass.

        Args:
            registry: The registry to warm.
            all_kernels: Concatenated kernels of every plan, plan order.
            need_times: Also return the predicted time of every entry
                of ``all_kernels`` (aligned) — the pruning bounds input.

        Returns:
            The aligned times array when ``need_times``, else ``None``.
        """
        if not all_kernels:
            return np.zeros(0, dtype=np.float64) if need_times else None
        if self.auto_size_cache:
            bound = registry.ensure_cache_capacity(len(set(all_kernels)))
        else:
            bound = registry.cache_info().max_size
        if bound <= 0:
            # Caching disabled: warming is pure waste, but pruning still
            # needs the aligned times (one vectorized uncached pass).
            return registry.predict_many(all_kernels) if need_times else None
        chunks = [
            registry.predict_many(all_kernels[start : start + bound])
            for start in range(0, len(all_kernels), bound)
        ]
        if not need_times:
            return None
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    def _evaluate(
        self,
        labeled_plans: Sequence[tuple[str, int, list]],
        cutoff_us: float | None = None,
        fingerprints: bool = False,
        previous: Mapping[SweepPoint, SweepRecord] | None = None,
    ) -> SweepResult:
        """Predict every (plan, registry, overheads) grid point.

        Per registry, one chunked :meth:`_precompute` pass covers the
        whole grid up front (dedup + one vectorized batch per kernel
        type); the per-point lookups then run entirely on cache hits.
        Each plan's kernel list is extracted exactly once and shared
        across every registry.

        Args:
            labeled_plans: ``(transform label, batch, plan)`` triples.
            cutoff_us: Prune points whose admissible lower bound
                exceeds this (reported, not silently dropped).
            fingerprints: Stamp every record with its content
                fingerprint (enables later incremental re-sweeps).
            previous: Point -> persisted record; records whose
                fingerprint still matches are reused instead of
                re-traversed (implies ``fingerprints``).
        """
        if previous is not None:
            fingerprints = True
        kernel_lists = [plan_kernels(plan) for _, _, plan in labeled_plans]
        all_kernels = [k for ks in kernel_lists for k in ks]
        plan_digests = _plan_digests(labeled_plans) if fingerprints else None
        records: list[SweepRecord] = []
        pruned: list[SweepPoint] = []
        deltas: dict[str, CacheInfo] = {}
        reused = 0
        for gpu_name, registry in self.registries.items():
            before = registry.cache_info()
            times = self._precompute(
                registry, all_kernels, need_times=cutoff_us is not None
            )
            bounds = (
                plan_lower_bounds_us(
                    [plan for _, _, plan in labeled_plans], times
                )
                if cutoff_us is not None
                else None
            )
            recs, prn, reu = self._evaluate_plans(
                gpu_name,
                registry,
                labeled_plans,
                kernel_lists,
                bounds=bounds,
                cutoff_us=cutoff_us,
                fingerprints=fingerprints,
                previous=previous,
                plan_digests=plan_digests,
            )
            records.extend(recs)
            pruned.extend(prn)
            reused += reu
            deltas[gpu_name] = registry.cache_info().since(before)
        return SweepResult(
            records, pruned_points=pruned, cache_info=deltas, reused=reused
        )

    def _evaluate_plans(
        self,
        gpu_name: str,
        registry: PerfModelRegistry,
        labeled_plans: Sequence[tuple[str, int, list]],
        kernel_lists: Sequence[list],
        bounds: np.ndarray | None = None,
        cutoff_us: float | None = None,
        fingerprints: bool = False,
        previous: Mapping[SweepPoint, SweepRecord] | None = None,
        plan_digests: Sequence[bytes] | None = None,
    ) -> tuple[list[SweepRecord], list[SweepPoint], int]:
        """Walk one registry's share of the grid.

        The per-(registry, plan span) unit of work both the serial walk
        and the parallel fan-out execute — keeping them byte-identical
        by construction.  Assumes the registry cache was already warmed
        by :meth:`_precompute` (in this process or a forked parent), so
        each plan's kernel times are cache hits.  The points left to
        traverse (neither reused nor pruned) are grouped by
        :func:`~repro.e2e.plan_structure` and each group is traversed
        in one pass (:meth:`_traverse_group`); the records then fill
        the slots they hold in grid order.

        Returns:
            ``(records, pruned points, reused count)`` for this span,
            in deterministic grid order.
        """
        records: list[SweepRecord | None] = []
        pruned: list[SweepPoint] = []
        reused = 0
        knobs = (self.t4_us, self.kernel_gap_us, self.sync_h2d)
        # Structure -> points to traverse: (record slot, plan, kernel
        # times, overhead DB, point, fingerprint).
        groups: dict[tuple, list[tuple]] = {}
        for idx, (label, batch, plan) in enumerate(labeled_plans):
            kernels = kernel_lists[idx]
            fps: dict[str, str] = {}
            if fingerprints:
                types = tuple(sorted({k.kernel_type for k in kernels}))
                registry_fp = registry.fingerprint(types)
                fps = {
                    db_name: prediction_key(
                        plan_digests[idx], registry_fp, db.fingerprint(), knobs
                    )
                    for db_name, db in self.overhead_dbs.items()
                }
            reusable: dict[str, SweepRecord] = {}
            if previous is not None:
                for db_name in self.overhead_dbs:
                    rec = previous.get(
                        SweepPoint(label, batch, gpu_name, db_name)
                    )
                    if rec is not None and rec.fingerprint == fps[db_name]:
                        reusable[db_name] = rec
                if len(reusable) == len(self.overhead_dbs):
                    records.extend(
                        reusable[db_name] for db_name in self.overhead_dbs
                    )
                    reused += len(reusable)
                    continue
            if bounds is not None and bounds[idx] > cutoff_us:
                # Provably worse than the cutoff: reuse what we have,
                # report the rest as pruned.
                if not reusable:
                    pruned.extend(
                        SweepPoint(label, batch, gpu_name, db_name)
                        for db_name in self.overhead_dbs
                    )
                    continue
                for db_name in self.overhead_dbs:
                    rec = reusable.get(db_name)
                    if rec is not None:
                        records.append(rec)
                        reused += 1
                    else:
                        pruned.append(
                            SweepPoint(label, batch, gpu_name, db_name)
                        )
                continue
            times = registry.predict_many(kernels)
            group = groups.setdefault(plan_structure(plan, self.sync_h2d), [])
            for db_name, db in self.overhead_dbs.items():
                rec = reusable.get(db_name)
                if rec is not None:
                    records.append(rec)
                    reused += 1
                    continue
                point = SweepPoint(label, batch, gpu_name, db_name)
                group.append(
                    (len(records), plan, times, db, point, fps.get(db_name, ""))
                )
                records.append(None)
        for group in groups.values():
            slots, plans, times, dbs, points, fps = zip(*group)
            for slot, point, prediction, fp in zip(
                slots, points, self._traverse_group(plans, times, dbs), fps
            ):
                records[slot] = SweepRecord(point, prediction, fp)
        return records, pruned, reused

    def _traverse_group(
        self, plans: Sequence[list], times: Sequence, dbs: Sequence
    ) -> list[E2EPrediction]:
        """Algorithm 1 over the points of one structure group.

        One :func:`~repro.e2e.traverse_columns` pass, or one
        :func:`~repro.e2e.traverse_plan` per point for groups smaller
        than :data:`_MIN_COLUMNS`; both give the same bits.
        """
        knobs = dict(
            t4_us=self.t4_us,
            kernel_gap_us=self.kernel_gap_us,
            sync_h2d=self.sync_h2d,
        )
        if len(plans) < _MIN_COLUMNS:
            return [
                traverse_plan(plan, plan_times, db, **knobs)
                for plan, plan_times, db in zip(plans, times, dbs)
            ]
        return traverse_columns(plans[0], np.stack(times, axis=1), dbs, **knobs)

    def _prepare(
        self,
        graph: ExecutionGraph,
        recorded_batch: int,
        batch_sizes: Sequence[int],
    ) -> list[tuple[str, int, list]]:
        """Build and validate the (transform × batch) plan list.

        Each transform runs once; each op rescales once per batch size
        (batch-independent ops share their cached kernel tuples across
        the whole grid).  Duplicate batch sizes are an error: the grid
        would evaluate — and double-count — identical points.
        """
        if not batch_sizes:
            raise ValueError("sweep needs at least one batch size")
        if recorded_batch <= 0 or any(b <= 0 for b in batch_sizes):
            raise ValueError("batch sizes must be positive")
        duplicates = sorted(
            b for b, n in Counter(batch_sizes).items() if n > 1
        )
        if duplicates:
            raise ValueError(
                f"duplicate batch sizes in sweep grid: {duplicates} — "
                "identical points would be evaluated twice"
            )
        labeled_plans: list[tuple[str, int, list]] = []
        # Transforms that merely reorder nodes share the original op
        # objects, so one (op, batch) rescale serves every transform.
        # Keyed by identity: the ops stay referenced by ``bases`` for
        # the lifetime of the memo, so ids cannot be recycled.
        bases: list[list] = []
        rescaled: dict[tuple[int, int], tuple] = {}
        for tname, transform in self.transforms.items():
            transformed = transform(graph)
            base = [
                (node.op_name, node.stream, node.op)
                for node in transformed.nodes
            ]
            bases.append(base)
            for batch in batch_sizes:
                rows = []
                for name, stream, op in base:
                    key = (id(op), batch)
                    kernels = rescaled.get(key)
                    if kernels is None:
                        kernels = (
                            op
                            if batch == recorded_batch
                            else op.rescale_batch(recorded_batch, batch)
                        ).cached_kernel_calls()
                        rescaled[key] = kernels
                    rows.append((name, stream, kernels))
                labeled_plans.append((tname, batch, rows))
        return labeled_plans

    def run(
        self,
        graph: ExecutionGraph,
        recorded_batch: int,
        batch_sizes: Sequence[int],
        cutoff_us: float | None = None,
        fingerprints: bool = False,
    ) -> SweepResult:
        """Evaluate the full grid for one recorded graph.

        Grid order is GPU-major (one batched prediction pass per
        registry), then transform, batch size and overhead DB exactly
        as the axes were given.

        Args:
            graph: The recorded execution graph.
            recorded_batch: Batch size the graph was recorded at.
            batch_sizes: Batch-size axis (duplicates are an error).
            cutoff_us: When set, points whose admissible lower bound
                (:mod:`repro.sweep.prune`) exceeds this are skipped and
                reported in :attr:`SweepResult.pruned_points`.
            fingerprints: Stamp records with content fingerprints so
                the saved result supports :meth:`run_incremental`.
        """
        return self._evaluate(
            self._prepare(graph, recorded_batch, batch_sizes),
            cutoff_us=cutoff_us,
            fingerprints=fingerprints,
        )

    def run_incremental(
        self,
        graph: ExecutionGraph,
        recorded_batch: int,
        batch_sizes: Sequence[int],
        previous: SweepResult,
        cutoff_us: float | None = None,
    ) -> SweepResult:
        """Re-sweep, reusing still-valid records of a previous result.

        Every grid point is fingerprinted over what its prediction
        depends on — the plan's kernels (transform + batch rescale),
        the kernel models its types dispatch to, the overhead database
        and the traversal knobs.  Points whose fingerprint matches a
        record in ``previous`` are carried over verbatim
        (:attr:`SweepResult.reused`); only the invalidated points are
        re-evaluated.  Changing one registry model, one overhead DB, or
        adding batch sizes therefore costs only the affected slice of
        the grid.

        Args:
            graph: The recorded execution graph.
            recorded_batch: Batch size the graph was recorded at.
            batch_sizes: Batch-size axis of the *new* grid.
            previous: A persisted result produced with
                ``fingerprints=True`` (see :meth:`SweepResult.save`).
                Records without fingerprints are never reused.
            cutoff_us: Optional pruning cutoff for re-evaluated points.

        Returns:
            The full new grid, fingerprinted (save it to chain further
            incremental runs).
        """
        prev: dict[SweepPoint, SweepRecord] = {}
        for rec in previous.records:
            if rec.fingerprint:
                prev[rec.point] = rec
        return self._evaluate(
            self._prepare(graph, recorded_batch, batch_sizes),
            cutoff_us=cutoff_us,
            previous=prev,
        )

    def run_multi_gpu(
        self,
        plans: Mapping[str, MultiGpuPlan],
        collective_model_for: Callable[..., object],
        fleets: Mapping[str, str | Sequence[str]] | None = None,
        overlap_policies: Sequence[str] = OVERLAP_POLICIES,
        overheads: str | None = None,
        topologies: Mapping[str, "Topology"] | None = None,
    ) -> MultiGpuSweepResult:
        """Evaluate multi-GPU plans over fleet, overlap — and topology — axes.

        The whole grid's kernel population (every device segment of
        every plan) is deduplicated and predicted once per registry up
        front, so each ``predict_multi_gpu`` call below runs on cache
        hits — the multi-GPU counterpart of the single-GPU grid
        batching.

        Args:
            plans: Label -> plan.  Encode workload/batch/devices in the
                label; each plan carries its own device count.
            collective_model_for: Device count -> calibrated
                :class:`~repro.multigpu.interconnect.CollectiveModel`.
                With ``topologies`` it instead receives each
                :class:`~repro.multigpu.topology.Topology` and must
                return a calibrated
                :class:`~repro.multigpu.topology.TopologyCollectiveModel`.
            fleets: Label -> registry label(s) from ``registries``.  A
                single label is a homogeneous fleet for any device
                count; a sequence is a heterogeneous fleet and must
                match each plan's device count.  Defaults to one
                homogeneous fleet per registry.
            overlap_policies: Overlap axis values; each plan is
                re-scheduled under every policy.
            overheads: Overhead-database label to traverse with
                (default: the first database given to the engine).
            topologies: Label -> hierarchical fleet shape — the
                nodes × GPUs-per-node axis.  Each plan is evaluated
                under every topology whose ``num_devices`` matches it;
                a topology matching no plan — or a plan matching no
                topology — is an error rather than a silently thinner
                grid.  ``None`` keeps the flat single-fabric grid
                (points land on the ``"flat"`` topology label).

        Note:
            The per-device traversals use ``predict_multi_gpu``'s
            paper-faithful settings (``sync_h2d=True``, default T4),
            not this engine's single-GPU traversal knobs.
        """
        if not plans:
            raise ValueError("sweep needs at least one multi-GPU plan")
        if fleets is None:
            fleets = {name: name for name in self.registries}
        if not fleets:
            raise ValueError("sweep needs at least one fleet")
        if not overlap_policies:
            raise ValueError("sweep needs at least one overlap policy")
        if topologies is not None:
            if not topologies:
                raise ValueError("sweep needs at least one topology")
            seen_shapes: dict[Topology, str] = {}
            for label, topology in topologies.items():
                other = seen_shapes.get(topology)
                if other is not None:
                    raise ValueError(
                        f"topology labels {other!r} and {label!r} both "
                        f"describe {topology.label} — the duplicate axis "
                        "value would double-count its grid points"
                    )
                seen_shapes[topology] = label
            topo_sizes = {t.num_devices for t in topologies.values()}
            plan_sizes = {plan.num_devices for plan in plans.values()}
            for label, topology in topologies.items():
                if topology.num_devices not in plan_sizes:
                    raise ValueError(
                        f"topology {label!r} has {topology.num_devices} "
                        f"devices but no plan matches (plan sizes: "
                        f"{sorted(plan_sizes)})"
                    )
            for plan_name, plan in plans.items():
                if plan.num_devices not in topo_sizes:
                    raise ValueError(
                        f"plan {plan_name!r} has {plan.num_devices} devices "
                        f"but no topology matches (topology sizes: "
                        f"{sorted(topo_sizes)}) — it would be silently "
                        "dropped from the grid"
                    )
        db_name = (
            overheads if overheads is not None else next(iter(self.overhead_dbs))
        )
        db = self.overhead_dbs[db_name]

        all_kernels = [
            kernel
            for segment in distinct_segments(plans.values())
            for kernel in plan_kernels(collect_plan(segment))
        ]
        used_labels = {
            label
            for labels in fleets.values()
            for label in ((labels,) if isinstance(labels, str) else labels)
        }
        for label in sorted(used_labels):
            if label not in self.registries:
                raise ValueError(
                    f"fleet references unknown registry {label!r}"
                )
            if all_kernels:
                self.registries[label].predict_many(all_kernels)

        # The topology axis: one (label, Topology | None, model) entry
        # per evaluated shape.  Flat mode keeps the historical
        # per-device-count collective models.
        if topologies is None:
            shape_axis = [
                ("flat", None, None)
            ]
        else:
            shape_axis = [
                (label, topology, collective_model_for(topology))
                for label, topology in topologies.items()
            ]
        flat_models: dict[int, object] = {}

        records: list[MultiGpuSweepRecord] = []
        for fleet_name, labels in fleets.items():
            for plan_name, plan in plans.items():
                if isinstance(labels, str):
                    fleet_registries = self.registries[labels]
                else:
                    if len(labels) != plan.num_devices:
                        raise ValueError(
                            f"fleet {fleet_name!r} lists {len(labels)} devices "
                            f"but plan {plan_name!r} has {plan.num_devices}"
                        )
                    fleet_registries = [self.registries[la] for la in labels]
                for topo_label, topology, model in shape_axis:
                    if topology is None:
                        if plan.num_devices not in flat_models:
                            flat_models[plan.num_devices] = (
                                collective_model_for(plan.num_devices)
                            )
                        model = flat_models[plan.num_devices]
                    elif topology.num_devices != plan.num_devices:
                        continue
                    for policy in overlap_policies:
                        records.append(
                            MultiGpuSweepRecord(
                                MultiGpuSweepPoint(
                                    plan_name,
                                    plan.num_devices,
                                    fleet_name,
                                    policy,
                                    db_name,
                                    topo_label,
                                ),
                                predict_multi_gpu(
                                    plan, fleet_registries, db, model,
                                    overlap=policy,
                                    topology=topology,
                                ),
                            )
                        )
        return MultiGpuSweepResult(records)

    def run_graphs(
        self, graphs: Mapping[str, ExecutionGraph], batch_size: int
    ) -> SweepResult:
        """Evaluate explicit labeled graphs (the candidate-search mode).

        Each graph label is recorded on the ``transform`` axis; batch
        resizing is the caller's responsibility here.
        """
        if not graphs:
            raise ValueError("sweep needs at least one graph")
        labeled_plans = [
            (label, batch_size, collect_plan(g)) for label, g in graphs.items()
        ]
        return self._evaluate(labeled_plans)


def _plan_digests(labeled_plans: Sequence[tuple[str, int, list]]) -> list:
    """:func:`~repro.e2e.plan_digest` of every plan of a grid.

    One row memo spans the grid, so rows shared across batch sizes
    (batch-independent ops) are digested once.
    """
    row_cache: dict = {}
    return [plan_digest(plan, row_cache) for _, _, plan in labeled_plans]


def sweep_batch_sizes(
    graph: ExecutionGraph,
    recorded_batch: int,
    batch_sizes: Sequence[int],
    registry: PerfModelRegistry,
    overheads: OverheadDatabase,
    gpu: str = "gpu",
    **engine_kwargs,
) -> SweepResult:
    """One-registry, one-DB batch-size sweep (the everyday case)."""
    engine = SweepEngine(
        registries={gpu: registry},
        overhead_dbs={"default": overheads},
        **engine_kwargs,
    )
    return engine.run(graph, recorded_batch, batch_sizes)


def evaluate_graphs(
    graphs: Mapping[str, ExecutionGraph],
    registry: PerfModelRegistry,
    overheads: OverheadDatabase,
    batch_size: int = 0,
    **engine_kwargs,
) -> dict[str, E2EPrediction]:
    """Predict a set of labeled candidate graphs with one shared cache."""
    engine = SweepEngine(
        registries={"gpu": registry},
        overhead_dbs={"default": overheads},
        **engine_kwargs,
    )
    result = engine.run_graphs(graphs, batch_size)
    return {r.point.transform: r.prediction for r in result}
