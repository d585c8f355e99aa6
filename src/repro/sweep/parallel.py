"""Multiprocessing fan-out for sweep grids, byte-identical to serial.

Large grids (10⁵–10⁶ points) spend their time in per-point cache-hit
lookups and Algorithm 1 traversals — embarrassingly parallel once the
shared prediction cache is warm.  :func:`parallel_sweep` shards the
*plan* axis across forked workers:

1. The parent prepares every plan and runs the engine's chunked
   :meth:`~repro.sweep.engine.SweepEngine._precompute` pass per
   registry, so the caches hold the whole grid's kernel population.
2. Workers are ``fork``-started from module-level state set just
   before the fork.  Each child inherits a copy-on-write snapshot of
   the warm caches (and of the plans — :class:`~repro.ops.KernelCall`
   holds a ``MappingProxyType`` and is deliberately never pickled).
3. Each worker walks its contiguous plan span through the exact
   per-(registry, span) unit of work the serial engine uses
   (:meth:`~repro.sweep.engine.SweepEngine._evaluate_plans`) and sends
   back its records plus its cache-counter *delta*.
4. The parent reassembles spans in GPU-major grid order and merges the
   per-worker deltas with its own precompute delta
   (:meth:`~repro.perfmodels.CacheInfo.merged`).

Because workers execute the same code over the same warm cache in the
same order, the records are **byte-identical to the serial walk** —
``parallel_sweep(..., workers=n).to_json() == engine.run(...).to_json()``
for every ``n`` (a test enforces it).  Platforms without ``fork``
(and ``workers <= 1``) fall back to the serial walk in-process, same
result by construction.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
from typing import Sequence

from repro.graph import ExecutionGraph
from repro.perfmodels import CacheInfo
from repro.sweep.engine import SweepEngine
from repro.sweep.result import SweepPoint, SweepRecord, SweepResult

__all__ = ["default_workers", "parallel_sweep"]

#: Pre-fork state inherited (copy-on-write) by every worker:
#: ``(engine, labeled_plans, kernel_lists, bounds per GPU, cutoff_us,
#: fingerprints, plan_digests)``.  Never pickled.
_WORKER_STATE: dict | None = None


def default_workers() -> int:
    """Worker count used when the caller does not pick one: the CPUs
    this process may run on (its affinity mask, where the platform
    has one), not every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return multiprocessing.cpu_count()


def _fork_available() -> bool:
    """Whether this platform supports ``fork``-started workers."""
    return "fork" in multiprocessing.get_all_start_methods()


def _evaluate_span(span: tuple[int, int]) -> tuple[dict, dict]:
    """Worker entry point: walk one contiguous plan span (all GPUs).

    Reads the forked :data:`_WORKER_STATE` snapshot; returns pickled
    ``(records by GPU, cache deltas by GPU)`` so the parent can splice
    spans back into GPU-major grid order.  Pruned points are *not*
    shipped back: without a ``previous`` result pruning is a pure
    function of the bounds the parent already holds, so the parent
    reconstructs the (possibly huge) pruned list locally instead of
    pickling it through the pipe.
    """
    state = _WORKER_STATE
    engine: SweepEngine = state["engine"]
    start, stop = span
    labeled_plans = state["labeled_plans"][start:stop]
    kernel_lists = state["kernel_lists"][start:stop]
    records: dict[str, list[SweepRecord]] = {}
    deltas: dict[str, CacheInfo] = {}
    for gpu_name, registry in engine.registries.items():
        before = registry.cache_info()
        bounds = state["bounds"][gpu_name]
        recs, _, _ = engine._evaluate_plans(
            gpu_name,
            registry,
            labeled_plans,
            kernel_lists,
            bounds=None if bounds is None else bounds[start:stop],
            cutoff_us=state["cutoff_us"],
            fingerprints=state["fingerprints"],
            plan_digests=state["plan_digests"][start:stop]
            if state["plan_digests"] is not None
            else None,
        )
        records[gpu_name] = recs
        deltas[gpu_name] = registry.cache_info().since(before)
    return records, deltas


def parallel_sweep(
    engine: SweepEngine,
    graph: ExecutionGraph,
    recorded_batch: int,
    batch_sizes: Sequence[int],
    workers: int | None = None,
    cutoff_us: float | None = None,
    fingerprints: bool = False,
) -> SweepResult:
    """Evaluate a batch-size grid across forked workers.

    Args:
        engine: The configured sweep engine (registries, DBs,
            transforms, traversal knobs).
        graph: The recorded execution graph.
        recorded_batch: Batch size the graph was recorded at.
        batch_sizes: Batch-size axis (duplicates are an error).
        workers: Process count; default :func:`default_workers`.  With
            ``workers <= 1`` — or without ``fork`` support — the grid
            runs serially in-process (identical records either way).
        cutoff_us: Optional branch-and-bound cutoff; bounds are
            computed once in the parent and sharded with the plans.
        fingerprints: Stamp records with content fingerprints (for a
            later incremental re-sweep).

    Returns:
        A :class:`SweepResult` byte-identical to
        ``engine.run(graph, recorded_batch, batch_sizes, ...)``, with
        per-worker cache deltas merged into the telemetry.

    Raises:
        concurrent.futures.process.BrokenProcessPool: A worker died
            before returning its span.
    """
    global _WORKER_STATE
    if workers is None:
        workers = default_workers()
    labeled_plans = engine._prepare(graph, recorded_batch, batch_sizes)
    workers = min(int(workers), len(labeled_plans))
    if workers <= 1 or not _fork_available():
        return engine._evaluate(
            labeled_plans, cutoff_us=cutoff_us, fingerprints=fingerprints
        )

    from concurrent.futures import ProcessPoolExecutor

    from repro.e2e import plan_kernels
    from repro.sweep.engine import _plan_digests
    from repro.sweep.prune import plan_lower_bounds_us

    kernel_lists = [plan_kernels(plan) for _, _, plan in labeled_plans]
    all_kernels = [k for ks in kernel_lists for k in ks]
    plan_digests = _plan_digests(labeled_plans) if fingerprints else None

    # Warm every registry cache in the parent; children inherit the
    # warm snapshot copy-on-write at fork time.
    parent_deltas: dict[str, CacheInfo] = {}
    bounds_by_gpu: dict[str, object] = {}
    for gpu_name, registry in engine.registries.items():
        before = registry.cache_info()
        times = engine._precompute(
            registry, all_kernels, need_times=cutoff_us is not None
        )
        bounds_by_gpu[gpu_name] = (
            plan_lower_bounds_us([p for _, _, p in labeled_plans], times)
            if cutoff_us is not None
            else None
        )
        parent_deltas[gpu_name] = registry.cache_info().since(before)

    n = len(labeled_plans)
    spans = [
        (i * n // workers, (i + 1) * n // workers) for i in range(workers)
    ]
    spans = [s for s in spans if s[0] < s[1]]
    _WORKER_STATE = {
        "engine": engine,
        "labeled_plans": labeled_plans,
        "kernel_lists": kernel_lists,
        "bounds": bounds_by_gpu,
        "cutoff_us": cutoff_us,
        "fingerprints": fingerprints,
        "plan_digests": plan_digests,
    }
    # Freeze the parent heap across the fork: a child's first garbage
    # collection would otherwise touch every inherited object's header,
    # copy-on-write-faulting the whole heap into each worker.  Frozen
    # (permanent-generation) objects are skipped by the child's GC, so
    # workers fault in only the pages they actually compute on.
    gc.collect()
    gc.freeze()
    try:
        # Unlike multiprocessing.Pool, the executor notices a worker
        # that dies mid-span and raises BrokenProcessPool instead of
        # waiting forever for its result.
        with ProcessPoolExecutor(
            max_workers=len(spans),
            mp_context=multiprocessing.get_context("fork"),
        ) as pool:
            span_results = list(pool.map(_evaluate_span, spans))
    finally:
        _WORKER_STATE = None
        gc.unfreeze()

    # Splice the spans back into GPU-major grid order: for each GPU,
    # worker spans concatenate in plan order — exactly the serial walk.
    # The pruned list is reconstructed here from the parent's own
    # bounds, in the same (GPU, plan, DB) order the serial walk emits.
    records: list[SweepRecord] = []
    pruned: list[SweepPoint] = []
    deltas: dict[str, CacheInfo] = {}
    db_names = tuple(engine.overhead_dbs)
    for gpu_name in engine.registries:
        for recs, _ in span_results:
            records.extend(recs[gpu_name])
        bounds = bounds_by_gpu[gpu_name]
        if bounds is not None:
            for idx, (label, batch, _) in enumerate(labeled_plans):
                if bounds[idx] > cutoff_us:
                    pruned.extend(
                        SweepPoint(label, batch, gpu_name, db_name)
                        for db_name in db_names
                    )
        deltas[gpu_name] = CacheInfo.merged(
            [parent_deltas[gpu_name]]
            + [d[gpu_name] for _, d in span_results]
        )
    return SweepResult(records, pruned_points=pruned, cache_info=deltas)
