"""Sweep-engine speedup — the batched/cached pipeline's perf baseline.

A 16-point DLRM batch-size sweep is the canonical what-if workload
(Section V-A(a)).  The old pipeline dispatched every kernel through a
scalar model call, one graph at a time, with no dedup or caching; the
sweep engine predicts the whole grid's kernel population in
deduplicated, vectorized batches behind one shared cache.  This
benchmark times both pipelines over identical grids with the same
trained models and enforces the acceptance floor: the sweep path must
be >= 3x faster.

The scale test extends the baseline to a 10⁵-point grid (reorder
transforms × batch sizes × registries × host-efficiency overhead
variants) and enforces the large-grid contracts: the auto-sized cache
keeps the cold full walk above a 95% hit rate, branch-and-bound
pruning plus the forked fan-out beat a point-at-a-time full walk by
>= 4x wall-clock, the engine's column full walk gives that walk's
records bit for bit at >= 2x its speed, parallel records stay
byte-identical to serial, and an incremental re-sweep after one
overhead-DB edit reuses every surviving point of the untouched DBs.

The 4x floor divides the point-at-a-time walk (one ``predict_many`` per
plan and one ``traverse_plan`` per point), not the engine's own full
walk: the engine traverses each structure group in one column pass,
which shrinks the full walk far more than the pruned one, so a ratio
against it would measure the column pass rather than pruning.

Both tests merge their deterministic sections (grid sizes, cache
counters, prune and reuse counts) into ``results/sweep_speedup.json``;
the wall-clock timings and speedups only go to stdout, since
``results/`` must be a pure function of the code (speed is tracked by
``perfbench/``).
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.assets import (
    get_graph,
    get_overheads,
    get_registry,
    merge_result,
)
from repro.baselines import predict_kernel_only_us
from repro.e2e import plan_kernels, traverse_plan
from repro.graph.transforms import move_independent_earlier, rescale_batch
from repro.models.dlrm import DLRM_DEFAULT, build_dlrm_graph
from repro.overheads import OverheadDatabase, OverheadStats
from repro.perfmodels import PerfModelRegistry
from repro.simulator.host import T1, T2, T3, T5
from repro.sweep import (
    SweepEngine,
    SweepPoint,
    SweepRecord,
    parallel_sweep,
    sweep_batch_sizes,
)

#: 16 batch sizes spanning the DLRM training range.
SWEEP_BATCHES = tuple(128 * i for i in range(1, 17))
RECORDED_BATCH = 2048

#: Scale-grid axes: 20 transforms x 160 batches x 2 registries x 16
#: overhead variants = 102,400 points.
SCALE_BATCHES = tuple(range(64, 64 + 8 * 160, 8))
SCALE_TRANSFORMS = 20
SCALE_DB_FACTORS = tuple(1.0 - 0.025 * i for i in range(16))
SCALE_WORKERS = 2
SCALE_SPEEDUP_FLOOR = 4.0
SCALE_HIT_RATE_FLOOR = 0.95
#: The column full walk against the point-at-a-time walk, same process.
SCALE_COLUMN_FLOOR = 2.0


def _naive_predict_e2e_us(graph, registry, overheads, t4_us=10.0, gap=1.0):
    """The seed pipeline: scalar per-kernel dispatch, no cache."""
    cpu_time = 0.0
    gpu_time = {}
    for node in graph.nodes:
        name = node.op_name
        cpu_time += overheads.mean_us(name, T1)
        kernels = node.op.kernel_calls()
        if kernels:
            cpu_time += overheads.mean_us(name, T2)
            stream = node.stream
            for ki, kernel in enumerate(kernels):
                t_kernel = registry.model_for(
                    kernel.kernel_type
                ).predict_kernel(kernel)
                current = gpu_time.get(stream, 0.0)
                start = max(current + gap, cpu_time + t4_us / 2.0)
                gpu_time[stream] = start + t_kernel
                cpu_time += t4_us
                if ki < len(kernels) - 1:
                    cpu_time += overheads.mean_us(name, T5)
            cpu_time += overheads.mean_us(name, T3)
        else:
            cpu_time += overheads.mean_us(name, T5)
    return max(cpu_time, max(gpu_time.values(), default=0.0))


def _time_naive(graph, registry, overheads):
    started = time.perf_counter()
    totals = [
        _naive_predict_e2e_us(
            rescale_batch(graph, RECORDED_BATCH, batch), registry, overheads
        )
        for batch in SWEEP_BATCHES
    ]
    return time.perf_counter() - started, totals


def _time_swept(graph, registry, overheads):
    registry.cache_clear()
    started = time.perf_counter()
    result = sweep_batch_sizes(
        graph, RECORDED_BATCH, SWEEP_BATCHES, registry, overheads
    )
    elapsed = time.perf_counter() - started
    return elapsed, [r.prediction.total_us for r in result]


def test_sweep_speedup_floor(benchmark):
    """16-point DLRM sweep: sweep engine >= 3x over scalar dispatch."""
    registry, _ = get_registry("V100")
    graph = get_graph("DLRM_default", RECORDED_BATCH)
    overheads = get_overheads("V100", "DLRM_default", RECORDED_BATCH)

    # Warm both paths once (imports, lazy state), then time.
    _naive_predict_e2e_us(graph, registry, overheads)
    naive_s, naive_totals = _time_naive(graph, registry, overheads)
    swept_s, swept_totals = _time_swept(graph, registry, overheads)
    speedup = naive_s / swept_s
    info = registry.cache_info()

    merge_result(
        "sweep_speedup",
        {
            "points": len(SWEEP_BATCHES),
            "cache_hits": info.hits,
            "cache_misses": info.misses,
        },
    )
    print(
        f"\n16-point DLRM sweep: naive {naive_s * 1e3:.1f} ms, "
        f"sweep engine {swept_s * 1e3:.1f} ms -> {speedup:.1f}x "
        f"(cache {info.hits} hits / {info.misses} misses)"
    )

    benchmark.pedantic(
        lambda: _time_swept(graph, registry, overheads), rounds=3, iterations=1
    )

    # Same numbers, much faster.
    for naive_total, swept_total in zip(naive_totals, swept_totals):
        assert swept_total == naive_total
    assert speedup >= 3.0, f"sweep speedup {speedup:.2f}x below the 3x floor"


def test_repeat_sweep_is_nearly_free(benchmark):
    """A re-run over a warmed cache must be far faster still."""
    registry, _ = get_registry("V100")
    graph = get_graph("DLRM_default", RECORDED_BATCH)
    overheads = get_overheads("V100", "DLRM_default", RECORDED_BATCH)

    cold_s, _ = _time_swept(graph, registry, overheads)

    def rerun():
        return sweep_batch_sizes(
            graph, RECORDED_BATCH, SWEEP_BATCHES, registry, overheads
        )

    rerun()
    started = time.perf_counter()
    rerun()
    warm_s = time.perf_counter() - started
    benchmark.pedantic(rerun, rounds=3, iterations=1)
    assert warm_s < cold_s
    assert registry.cache_info().hit_rate > 0.9


def _clone_registry(registry, cache_size):
    """Fresh registry sharing trained models but not cache/counters.

    The deliberately small ``cache_size`` is the point of the scale
    test: the grid's kernel population is ~40% larger, so without
    auto-sizing the cold precompute would thrash the LRU back to
    per-point re-prediction.
    """
    clone = PerfModelRegistry(cache_size=cache_size)
    for kernel_type in registry.kernel_types:
        clone.register(registry.model_for(kernel_type))
    return clone


def _scaled_db(db, factor):
    """A host-efficiency what-if: every overhead mean scaled by ``factor``."""
    return OverheadDatabase(
        {
            op: {
                otype: OverheadStats(st.mean * factor, st.std * factor, st.count)
                for otype, st in per_type.items()
            }
            for op, per_type in db._stats.items()
        }
    )


def _tiny_dlrm_graph():
    """A small DLRM training graph so the 10⁵-point walk stays seconds."""
    tiny = DLRM_DEFAULT.with_overrides(
        name="DLRM_tiny",
        bot_mlp=(32, 16, 8),
        embedding_dim=8,
        num_tables=4,
        rows_per_table=1000,
        top_mlp=(16, 8, 1),
    )
    return build_dlrm_graph(tiny, RECORDED_BATCH)


def _scale_engine(db_factors=SCALE_DB_FACTORS):
    """The 10⁵-point sweep engine plus its recorded graph."""
    base_registry, _ = get_registry("V100")
    base_db = get_overheads("V100", "DLRM_default", RECORDED_BATCH)
    graph = _tiny_dlrm_graph()
    transforms = {"base": (lambda g: g)}
    for node in graph.nodes:
        if len(transforms) >= SCALE_TRANSFORMS:
            break
        nid = node.node_id
        transforms[f"hoist-{nid}"] = (
            lambda g, nid=nid: move_independent_earlier(g, nid)
        )
    engine = SweepEngine(
        registries={
            "V100-a": _clone_registry(base_registry, 4096),
            "V100-b": _clone_registry(base_registry, 4096),
        },
        overhead_dbs={
            f"hostx{factor:.3f}": _scaled_db(base_db, factor)
            for factor in db_factors
        },
        transforms=transforms,
    )
    return engine, graph


def _point_at_a_time_walk(engine, graph):
    """The full walk one point at a time: the same warmed caches, one
    ``predict_many`` per plan and one ``traverse_plan`` per point."""
    labeled_plans = engine._prepare(graph, RECORDED_BATCH, SCALE_BATCHES)
    kernel_lists = [plan_kernels(plan) for _, _, plan in labeled_plans]
    all_kernels = [k for ks in kernel_lists for k in ks]
    records = []
    for gpu, registry in engine.registries.items():
        engine._precompute(registry, all_kernels)
        for (label, batch, plan), kernels in zip(labeled_plans, kernel_lists):
            times = registry.predict_many(kernels)
            for db_name, db in engine.overhead_dbs.items():
                records.append(
                    SweepRecord(
                        SweepPoint(label, batch, gpu, db_name),
                        traverse_plan(plan, times, db),
                    )
                )
    return records


def _float_bits(records):
    """Every float of every record's prediction, as int64 bit patterns."""
    return np.array(
        [
            value
            for r in records
            for value in (
                r.prediction.total_us,
                r.prediction.cpu_us,
                r.prediction.gpu_us,
                r.prediction.active_us,
                *r.prediction.per_op_active_us.values(),
            )
        ],
        dtype=np.float64,
    ).view(np.int64)


def test_scale_sweep_parallel_pruned_incremental(benchmark):
    """10⁵-point grid: pruned fan-out >= 4x a point-at-a-time walk."""
    engine, graph = _scale_engine()
    grid = (
        len(engine.transforms)
        * len(SCALE_BATCHES)
        * len(engine.registries)
        * len(engine.overhead_dbs)
    )
    assert grid >= 100_000
    # Branch-and-bound cutoff: admit only points that could still beat
    # the kernel-only bound of the 8th-smallest batch.
    cutoff = (
        predict_kernel_only_us(
            rescale_batch(graph, RECORDED_BATCH, SCALE_BATCHES[7]),
            engine.registries["V100-a"],
        )
        * 1.001
    )

    started = time.perf_counter()
    fanned = parallel_sweep(
        engine,
        graph,
        RECORDED_BATCH,
        SCALE_BATCHES,
        workers=SCALE_WORKERS,
        cutoff_us=cutoff,
    )
    fanned_s = time.perf_counter() - started

    started = time.perf_counter()
    serial_pruned = engine.run(
        graph, RECORDED_BATCH, SCALE_BATCHES, cutoff_us=cutoff
    )
    serial_pruned_s = time.perf_counter() - started
    # The fan-out contract: byte-identical records, identical prunes.
    assert fanned.to_json() == serial_pruned.to_json()
    assert fanned.pruned_points == serial_pruned.pruned_points
    assert len(fanned) + fanned.pruned == grid

    # Cold full walks, point at a time and by column pass: every
    # point, freshly warmed auto-sized caches, the same records.
    for registry in engine.registries.values():
        registry.cache_clear()
    started = time.perf_counter()
    reference = _point_at_a_time_walk(engine, graph)
    reference_s = time.perf_counter() - started
    for registry in engine.registries.values():
        registry.cache_clear()
    started = time.perf_counter()
    full = engine.run(graph, RECORDED_BATCH, SCALE_BATCHES)
    serial_s = time.perf_counter() - started
    info = full.merged_cache_info()
    speedup = reference_s / fanned_s
    column_speedup = reference_s / serial_s
    assert len(full) == grid
    assert full.records == reference
    assert np.array_equal(_float_bits(full.records), _float_bits(reference))
    del reference

    # Pruning is admissible: kept points match the full walk exactly,
    # pruned points are provably over the cutoff.
    totals = {r.point: r.prediction.total_us for r in full.records}
    assert all(
        totals[r.point] == r.prediction.total_us for r in fanned.records
    )
    assert all(totals[p] > cutoff for p in fanned.pruned_points)
    del full, totals

    # Incremental re-sweep: edit one overhead DB, reuse the rest.
    previous = engine.run(
        graph,
        RECORDED_BATCH,
        SCALE_BATCHES,
        cutoff_us=cutoff,
        fingerprints=True,
    )
    # Same label (3-decimal format), different content: the realistic
    # "re-profiled DB under the same name" edit.
    edited = list(SCALE_DB_FACTORS)
    edited[-4] = edited[-4] + 0.0004
    engine2, _ = _scale_engine(db_factors=tuple(edited))
    started = time.perf_counter()
    incremental = engine2.run_incremental(
        graph, RECORDED_BATCH, SCALE_BATCHES, previous, cutoff_us=cutoff
    )
    incremental_s = time.perf_counter() - started
    changed = f"hostx{SCALE_DB_FACTORS[-4]:.3f}"
    assert changed == f"hostx{edited[-4]:.3f}"
    expected_reused = sum(
        1 for r in previous.records if r.point.overheads != changed
    )
    assert incremental.reused == expected_reused
    assert incremental.invalidated == grid - expected_reused
    assert len(incremental) == len(previous)

    merge_result(
        "sweep_speedup",
        {
            "scale": {
                "points": grid,
                "workers": SCALE_WORKERS,
                "speedup_floor": SCALE_SPEEDUP_FLOOR,
                "hit_rate": info.hit_rate,
                "cache_hits": info.hits,
                "cache_misses": info.misses,
                "kept": len(fanned),
                "pruned": fanned.pruned,
                "reused": incremental.reused,
                "invalidated": incremental.invalidated,
            }
        },
    )
    print(
        f"\n{grid}-point sweep: point-at-a-time {reference_s:.2f} s, "
        f"column walk {serial_s:.2f} s ({column_speedup:.1f}x), "
        f"serial+pruned {serial_pruned_s:.2f} s, "
        f"parallel+pruned {fanned_s:.2f} s -> {speedup:.1f}x "
        f"({fanned.pruned} pruned, hit rate {info.hit_rate:.3f}, "
        f"incremental {incremental_s:.2f} s reused {incremental.reused})"
    )

    benchmark.pedantic(
        lambda: parallel_sweep(
            engine,
            graph,
            RECORDED_BATCH,
            SCALE_BATCHES,
            workers=SCALE_WORKERS,
            cutoff_us=cutoff,
        ),
        rounds=1,
        iterations=1,
    )

    assert info.hit_rate >= SCALE_HIT_RATE_FLOOR, (
        f"cold full-walk hit rate {info.hit_rate:.3f} below "
        f"{SCALE_HIT_RATE_FLOOR}"
    )
    assert speedup >= SCALE_SPEEDUP_FLOOR, (
        f"parallel+pruned speedup {speedup:.2f}x below the "
        f"{SCALE_SPEEDUP_FLOOR}x floor"
    )
    assert column_speedup >= SCALE_COLUMN_FLOOR, (
        f"column full walk {column_speedup:.2f}x over the point-at-a-time "
        f"walk, below the {SCALE_COLUMN_FLOOR}x floor"
    )
