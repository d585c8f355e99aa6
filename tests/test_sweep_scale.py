"""Scale features of the sweep engine: cache sizing, parallel fan-out,
branch-and-bound pruning, and incremental re-sweeps."""

import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.baselines import predict_kernel_only_us
from repro.e2e import collect_plan, plan_digest, plan_kernels, predict_e2e
from repro.models import build_model
from repro.multigpu.topology import Topology
from repro.overheads import OverheadDatabase
from repro.perfmodels import KernelPerfModel, PerfModelRegistry
from repro.sweep import (
    SweepEngine,
    SweepResult,
    default_workers,
    lower_bound_us,
    parallel_sweep,
    plan_lower_bounds_us,
    sweep_batch_sizes,
)

BATCHES = [128, 256, 512, 1024, 2048, 3072]


def clone_registry(registry, cache_size):
    """Fresh registry (own cache) sharing the session's trained models."""
    clone = PerfModelRegistry(cache_size=cache_size)
    for kernel_type in registry.kernel_types:
        clone.register(registry.model_for(kernel_type))
    return clone


@pytest.fixture()
def engine(registry, overhead_db):
    return SweepEngine(
        registries={"V100": registry},
        overhead_dbs={"indiv": overhead_db},
    )


class TestCacheThrashFix:
    def test_auto_size_keeps_hit_rate_high_on_oversized_grid(
        self, dlrm_graph, registry, overhead_db
    ):
        """A grid population larger than the cache bound must not thrash.

        With auto-sizing, the bound grows to the deduplicated
        population, the chunked precompute warms it once, and every
        per-point lookup hits.  With auto-sizing off and a small bound,
        the same sweep degenerates to LRU sequential-scan thrash.
        """
        # Four kernel-multiset-preserving transforms (labels of the
        # identity — stand-ins for reorders): the grid re-looks-up the
        # same kernels, which is exactly where a warm cache pays.
        transforms = {t: (lambda g: g) for t in ("a", "b", "c", "d")}
        population = len(set(plan_kernels(collect_plan(dlrm_graph))))
        small = clone_registry(registry, cache_size=max(population // 8, 4))
        assert small.cache_info().max_size < population

        sized = sweep_batch_sizes(
            dlrm_graph, 512, BATCHES, small, overhead_db,
            transforms=transforms,
        )
        assert small.cache_info().max_size >= population
        info = sized.merged_cache_info()
        assert info.hit_rate >= 0.9
        # The contract behind the rate: every distinct kernel of the
        # whole grid is predicted exactly once — misses equal the
        # entries the auto-sized cache retains (nothing was evicted).
        assert info.misses == info.size

        thrash = clone_registry(registry, cache_size=max(population // 8, 4))
        thrashed = sweep_batch_sizes(
            dlrm_graph, 512, BATCHES, thrash, overhead_db,
            transforms=transforms, auto_size_cache=False,
        )
        assert thrash.cache_info().max_size < population
        assert thrashed.merged_cache_info().hit_rate < info.hit_rate

    def test_zero_cache_registry_stays_disabled(
        self, dlrm_graph, registry, overhead_db
    ):
        uncached = clone_registry(registry, cache_size=0)
        result = sweep_batch_sizes(
            dlrm_graph, 512, [256, 512], uncached, overhead_db
        )
        assert uncached.cache_info().max_size == 0
        assert uncached.cache_info().size == 0
        assert len(result) == 2

    def test_telemetry_is_per_run_delta(
        self, dlrm_graph, registry, overhead_db
    ):
        """A result reports its own hits/misses, not the cache's life."""
        warm = clone_registry(registry, cache_size=1 << 16)
        sweep_batch_sizes(dlrm_graph, 512, [256], warm, overhead_db)
        again = sweep_batch_sizes(
            dlrm_graph, 512, [256], warm, overhead_db, gpu="V100"
        )
        info = again.cache_info["V100"]
        assert info.misses == 0
        assert info.hits > 0
        assert info.hit_rate == 1.0

    def test_register_invalidates_only_its_type(self, registry, dlrm_graph):
        fresh = clone_registry(registry, cache_size=1 << 16)
        kernels = plan_kernels(collect_plan(dlrm_graph))
        fresh.predict_many(kernels)
        size_before = fresh.cache_info().size
        target = kernels[0].kernel_type
        of_type = len(
            {k for k in kernels if k.kernel_type == target}
        )
        assert 0 < of_type < size_before
        fresh.register(fresh.model_for(target))
        assert fresh.cache_info().size == size_before - of_type
        misses_before = fresh.cache_info().misses
        fresh.predict_many(kernels)
        # Exactly the invalidated type re-predicts; everything else hits.
        assert fresh.cache_info().misses == misses_before + of_type


class TestParallelSweep:
    def test_byte_identical_to_serial(self, engine, dlrm_graph):
        serial = engine.run(dlrm_graph, 512, BATCHES)
        for workers in (1, 3):
            fanned = parallel_sweep(
                engine, dlrm_graph, 512, BATCHES, workers=workers
            )
            assert fanned.to_json() == serial.to_json()

    def test_byte_identical_with_pruning_and_fingerprints(
        self, engine, dlrm_graph
    ):
        cutoff = engine.run(dlrm_graph, 512, BATCHES).records[
            len(BATCHES) // 2
        ].prediction.total_us
        serial = engine.run(
            dlrm_graph, 512, BATCHES, cutoff_us=cutoff, fingerprints=True
        )
        fanned = parallel_sweep(
            engine, dlrm_graph, 512, BATCHES,
            workers=2, cutoff_us=cutoff, fingerprints=True,
        )
        assert fanned.to_json() == serial.to_json()
        assert fanned.pruned_points == serial.pruned_points

    def test_merged_cache_telemetry(self, registry, overhead_db, dlrm_graph):
        fresh = clone_registry(registry, cache_size=1 << 16)
        engine = SweepEngine(
            registries={"V100": fresh}, overhead_dbs={"indiv": overhead_db}
        )
        result = parallel_sweep(engine, dlrm_graph, 512, BATCHES, workers=2)
        info = result.merged_cache_info()
        # Parent precompute misses once per distinct kernel (the cache
        # retains them all); worker walks run on inherited hits, whose
        # forked counters made it back into the merged telemetry.
        assert info.misses == info.size
        assert info.hits > 0

    def test_duplicate_batches_rejected(self, engine, dlrm_graph):
        with pytest.raises(ValueError, match="duplicate batch sizes"):
            parallel_sweep(engine, dlrm_graph, 512, [256, 512, 256])

    def test_dead_worker_fails_fast_instead_of_hanging(
        self, engine, dlrm_graph, monkeypatch
    ):
        parent = os.getpid()

        def die(*args, **kwargs):
            assert os.getpid() != parent, "the parent walked a span"
            os._exit(3)

        def hung(signum, frame):
            raise TimeoutError("parallel_sweep hung on a dead worker")

        monkeypatch.setattr(engine, "_evaluate_plans", die)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        start = time.monotonic()
        try:
            with pytest.raises(BrokenProcessPool):
                parallel_sweep(engine, dlrm_graph, 512, BATCHES, workers=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30


class TestDefaultWorkers:
    def test_counts_the_affinity_mask_not_every_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert default_workers() == 1

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(multiprocessing, "cpu_count", lambda: 3)
        assert default_workers() == 3


class TestPruning:
    def test_lower_bound_is_admissible(
        self, dlrm_graph, registry, overhead_db
    ):
        plan = collect_plan(dlrm_graph)
        bound = lower_bound_us(plan, registry)
        direct = predict_e2e(dlrm_graph, registry, overhead_db)
        assert 0 < bound <= direct.total_us
        # Single-stream graphs reduce to the kernel-only baseline.
        assert bound == pytest.approx(
            predict_kernel_only_us(dlrm_graph, registry)
        )

    def test_vectorized_bounds_match_direct(self, engine, dlrm_graph, registry):
        labeled_plans = engine._prepare(dlrm_graph, 512, BATCHES)
        plans = [plan for _, _, plan in labeled_plans]
        kernels = [k for plan in plans for k in plan_kernels(plan)]
        times = registry.predict_many(kernels)
        bounds = plan_lower_bounds_us(plans, times)
        assert bounds.shape == (len(plans),)
        for plan, bound in zip(plans, bounds):
            assert bound == pytest.approx(lower_bound_us(plan, registry))

    def test_misaligned_times_rejected(self, engine, dlrm_graph, registry):
        labeled_plans = engine._prepare(dlrm_graph, 512, [256])
        plans = [plan for _, _, plan in labeled_plans]
        with pytest.raises(ValueError, match="misaligned"):
            plan_lower_bounds_us(plans, np.zeros(3))

    def test_never_drops_a_feasible_point(self, engine, dlrm_graph):
        full = engine.run(dlrm_graph, 512, BATCHES)
        cutoff = sorted(r.prediction.total_us for r in full)[
            len(BATCHES) // 2
        ]
        pruned = engine.run(dlrm_graph, 512, BATCHES, cutoff_us=cutoff)
        assert pruned.pruned > 0
        assert len(pruned) + pruned.pruned == len(full)
        kept = {r.point: r for r in pruned}
        for record in full:
            if record.prediction.total_us <= cutoff:
                assert kept[record.point].prediction == record.prediction
        # Every pruned point is provably infeasible.
        by_point = {r.point: r for r in full}
        for point in pruned.pruned_points:
            assert by_point[point].prediction.total_us > cutoff


class TestIncrementalSweep:
    def test_save_load_roundtrip(self, engine, dlrm_graph, tmp_path):
        result = engine.run(dlrm_graph, 512, BATCHES, fingerprints=True)
        path = tmp_path / "sweep.json"
        result.save(path)
        loaded = SweepResult.load(path)
        assert loaded.to_json() == result.to_json()
        assert [r.fingerprint for r in loaded] == [
            r.fingerprint for r in result
        ]
        assert all(r.fingerprint for r in loaded)

    def test_unchanged_grid_reuses_everything(
        self, engine, dlrm_graph, tmp_path
    ):
        first = engine.run(dlrm_graph, 512, BATCHES, fingerprints=True)
        path = tmp_path / "sweep.json"
        first.save(path)
        second = engine.run_incremental(
            dlrm_graph, 512, BATCHES, SweepResult.load(path)
        )
        assert second.reused == len(first)
        assert second.invalidated == 0
        assert second.to_json() == first.to_json()

    def test_added_batches_evaluate_only_the_new_points(
        self, engine, dlrm_graph
    ):
        first = engine.run(dlrm_graph, 512, BATCHES, fingerprints=True)
        grown = BATCHES + [4096, 8192]
        second = engine.run_incremental(dlrm_graph, 512, grown, first)
        assert second.reused == len(BATCHES)
        assert second.invalidated == 2
        assert len(second) == len(grown)
        # Grid order is preserved across reused and fresh records.
        assert [r.point.batch_size for r in second] == grown

    def test_changed_db_invalidates_only_its_slice(
        self, registry, overhead_db, dlrm_graph
    ):
        fallback_only = OverheadDatabase({})
        before = SweepEngine(
            registries={"V100": registry},
            overhead_dbs={"indiv": overhead_db, "alt": overhead_db},
        ).run(dlrm_graph, 512, BATCHES, fingerprints=True)
        after = SweepEngine(
            registries={"V100": registry},
            overhead_dbs={"indiv": overhead_db, "alt": fallback_only},
        ).run_incremental(dlrm_graph, 512, BATCHES, before)
        assert after.reused == len(BATCHES)  # the untouched indiv slice
        assert after.invalidated == len(BATCHES)
        changed = [r for r in after if r.point.overheads == "alt"]
        prior = {r.point: r for r in before}
        assert all(
            r.prediction != prior[r.point].prediction for r in changed
        )

    def test_unrelated_model_swap_does_not_invalidate(
        self, registry, overhead_db, dlrm_graph
    ):
        """Fingerprints select only the kernel types a plan dispatches."""
        used = {
            k.kernel_type
            for k in plan_kernels(collect_plan(dlrm_graph))
        }
        unused = [t for t in registry.kernel_types if t not in used]
        if not unused:
            pytest.skip("every registered type is used by the graph")
        swapped = clone_registry(registry, cache_size=1 << 16)
        swapped.register(_Doubled(registry.model_for(unused[0])))
        first = SweepEngine(
            registries={"V100": registry}, overhead_dbs={"d": overhead_db}
        ).run(dlrm_graph, 512, BATCHES, fingerprints=True)
        second = SweepEngine(
            registries={"V100": swapped}, overhead_dbs={"d": overhead_db}
        ).run_incremental(dlrm_graph, 512, BATCHES, first)
        assert second.reused == len(first)

    def test_used_model_swap_invalidates(
        self, registry, overhead_db, dlrm_graph
    ):
        used = sorted(
            {k.kernel_type for k in plan_kernels(collect_plan(dlrm_graph))}
        )
        swapped = clone_registry(registry, cache_size=1 << 16)
        swapped.register(_Doubled(registry.model_for(used[0])))
        first = SweepEngine(
            registries={"V100": registry}, overhead_dbs={"d": overhead_db}
        ).run(dlrm_graph, 512, BATCHES, fingerprints=True)
        second = SweepEngine(
            registries={"V100": swapped}, overhead_dbs={"d": overhead_db}
        ).run_incremental(dlrm_graph, 512, BATCHES, first)
        assert second.reused == 0
        assert second.invalidated == len(first)


class TestFingerprintBytesPinned:
    """Sweep fingerprints are persisted (``SweepResult.save``) and
    compared by later incremental re-sweeps, so their bytes may never
    move: a changed digest would silently invalidate every saved grid."""

    def test_plan_digest_bytes(self):
        plan = collect_plan(build_model("DLRM_default", 64))
        assert plan_digest(plan).hex() == (
            "3d28ad176a94155ddac3356fcdb40407"
            "d4189a0555799c047733bb8f261fc84f"
        )

    def test_record_fingerprint_bytes(self, registry, overhead_db, dlrm_graph):
        result = SweepEngine(
            registries={"V100": registry},
            overhead_dbs={"indiv": overhead_db, "empty": OverheadDatabase({})},
        ).run(dlrm_graph, 512, [256, 512, 1024], fingerprints=True)
        assert [r.fingerprint for r in result] == [
            "1ccc0db17f05ec6b", "0c787d93677a09f1", "a0ab640c169a1178",
            "a2a54f8e4759624d", "34fb8f921d626cbb", "ac325d23f82a80fa",
        ]


class _Doubled(KernelPerfModel):
    """Test double: wraps a trained model, doubling its predictions."""

    def __init__(self, inner: KernelPerfModel) -> None:
        self.inner = inner
        self.kernel_type = inner.kernel_type

    def predict_us(self, params) -> float:
        """Twice the wrapped model's prediction."""
        return 2.0 * self.inner.predict_us(params)


class TestDuplicateAxes:
    def test_duplicate_batch_sizes_rejected(self, engine, dlrm_graph):
        with pytest.raises(ValueError, match=r"duplicate batch sizes.*512"):
            engine.run(dlrm_graph, 512, [256, 512, 512])

    def test_duplicate_topology_shapes_rejected(self, engine):
        from repro.models.dlrm import DLRM_DEFAULT
        from repro.multigpu import build_multi_gpu_dlrm_plan

        plans = {"x4": build_multi_gpu_dlrm_plan(DLRM_DEFAULT, 1024, 4)}
        with pytest.raises(ValueError, match="describe"):
            engine.run_multi_gpu(
                plans,
                lambda t: None,
                topologies={
                    "a": Topology(num_nodes=2, gpus_per_node=2),
                    "b": Topology(num_nodes=2, gpus_per_node=2),
                },
            )
