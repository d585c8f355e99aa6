"""Property tests for the batched + memoized prediction pipeline.

Three invariants guard the refactor:

* ``predict_batch`` ≡ looped ``predict_us`` — bit-identical — for every
  registered model type, on real kernel populations, and the embedding
  L2 hit rate's chunked grid pass ≡ its scalar loop on drawn populations.
* ``predict_e2e`` (collect -> predict_many -> traversal) is bit-identical
  to the seed implementation's one-kernel-at-a-time traversal.
* The kernel cache keeps no object the garbage collector tracks.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.e2e import E2EPrediction, predict_e2e
from repro.hardware import A100, TESLA_V100
from repro.models import build_model
from repro.ops import KernelType, elementwise_kernel, gemm_kernel, scan_kernel
from repro.perfmodels import PerfModelRegistry
from repro.perfmodels.base import DEFAULT_CACHE_SIZE
from repro.perfmodels.heuristic.embedding import (
    _HIT_RATE_CHUNK,
    EnhancedEmbeddingModel,
)
from repro.simulator.host import T1, T2, T3, T4, T5

#: Graphs whose kernel populations exercise every registered model.
PROPERTY_GRAPHS = (
    ("DLRM_default", 512),
    ("resnet50", 32),
    ("Transformer", 128),
)


@pytest.fixture(scope="module")
def kernel_population(registry):
    """Real kernels from the property graphs, grouped by type."""
    by_type = {}
    for name, batch in PROPERTY_GRAPHS:
        graph = build_model(name, batch)
        for node in graph.nodes:
            for kernel in node.op.kernel_calls():
                by_type.setdefault(kernel.kernel_type, []).append(kernel)
    # No zoo workload launches a scan; cover the registered scan model
    # with a synthetic population spanning both of its regimes.
    by_type.setdefault(KernelType.SCAN, []).extend(
        scan_kernel(rows=rows, n=n)
        for rows, n in ((1, 1 << 20), (256, 512), (4096, 8))
    )
    return by_type


def _reference_predict_e2e(
    graph, registry, overheads, t4_us=10.0, kernel_gap_us=1.0, sync_h2d=False
) -> E2EPrediction:
    """The seed implementation: per-kernel scalar model dispatch."""
    cpu_time = 0.0
    gpu_time = {}
    active = 0.0
    per_op = {}
    num_kernels = 0
    for node in graph.nodes:
        name = node.op_name
        node_t4 = overheads.mean_us(name, T4) if t4_us is None else t4_us
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
        num_ops=len(graph),
        num_kernels=num_kernels,
    )


class TestPredictBatchEquivalence:
    def test_population_covers_all_registered_types(
        self, registry, kernel_population
    ):
        assert set(registry.kernel_types) <= set(kernel_population)

    def test_batch_matches_loop_for_every_model(
        self, registry, kernel_population
    ):
        """predict_batch ≡ looped predict_us, bit for bit, per type."""
        for kernel_type in registry.kernel_types:
            model = registry.model_for(kernel_type)
            params_list = [
                k.params for k in kernel_population[kernel_type][:200]
            ]
            batched = model.predict_batch(params_list)
            looped = np.array(
                [model.predict_us(p) for p in params_list]
            )
            assert batched.shape == looped.shape
            assert np.array_equal(batched, looped), kernel_type

    def test_empty_batch(self, registry):
        for kernel_type in registry.kernel_types:
            out = registry.model_for(kernel_type).predict_batch([])
            assert out.shape == (0,)


class TestPredictMany:
    def test_matches_scalar_path(self, registry, kernel_population):
        kernels = [ks[0] for ks in kernel_population.values()]
        many = registry.predict_many(kernels)
        for kernel, t in zip(kernels, many):
            assert registry.predict_us(kernel) == t

    def test_dedup_and_memoization(self, kernel_population, registry):
        fresh = PerfModelRegistry()
        for kernel_type in registry.kernel_types:
            fresh.register(registry.model_for(kernel_type))
        kernels = kernel_population[KernelType.GEMM][:10]
        fresh.predict_many(kernels + kernels)
        misses_after_first = fresh.cache_info().misses
        assert misses_after_first == len(set(kernels))
        fresh.predict_many(kernels)
        info = fresh.cache_info()
        assert info.misses == misses_after_first
        assert info.hits >= len(set(kernels))

    def test_bounded_cache_evicts_but_stays_correct(
        self, registry, kernel_population
    ):
        tiny = PerfModelRegistry(cache_size=4)
        for kernel_type in registry.kernel_types:
            tiny.register(registry.model_for(kernel_type))
        kernels = kernel_population[KernelType.GEMM][:20]
        expected = registry.predict_many(kernels)
        got = tiny.predict_many(kernels)
        assert np.array_equal(expected, got)
        assert tiny.cache_info().size <= 4

    def test_unknown_type_raises(self, registry):
        empty = PerfModelRegistry()
        with pytest.raises(KeyError, match="no performance model"):
            empty.predict_many([gemm_kernel(64, 64, 64)])

    def test_default_cache_bound(self):
        assert PerfModelRegistry().cache_info().max_size == DEFAULT_CACHE_SIZE

    def test_cache_clear(self, registry, kernel_population):
        reg = PerfModelRegistry()
        for kernel_type in registry.kernel_types:
            reg.register(registry.model_for(kernel_type))
        reg.predict_many(kernel_population[KernelType.GEMM][:5])
        assert reg.cache_info().size > 0
        reg.cache_clear()
        info = reg.cache_info()
        assert (info.size, info.hits, info.misses) == (0, 0, 0)


class TestE2EBitIdentical:
    @pytest.mark.parametrize("name,batch", PROPERTY_GRAPHS)
    def test_batched_path_matches_seed(
        self, name, batch, registry, overhead_db
    ):
        graph = build_model(name, batch)
        batched = predict_e2e(graph, registry, overhead_db)
        reference = _reference_predict_e2e(graph, registry, overhead_db)
        assert batched.total_us == reference.total_us
        assert batched.cpu_us == reference.cpu_us
        assert batched.gpu_us == reference.gpu_us
        assert batched.active_us == reference.active_us
        assert batched.per_op_active_us == reference.per_op_active_us
        assert batched.num_kernels == reference.num_kernels

    def test_sync_h2d_and_measured_t4_variants(self, registry, overhead_db):
        graph = build_model("DLRM_default", 256)
        for kwargs in (
            {"sync_h2d": True},
            {"t4_us": None},
            {"t4_us": None, "sync_h2d": True, "kernel_gap_us": 2.5},
        ):
            batched = predict_e2e(graph, registry, overhead_db, **kwargs)
            reference = _reference_predict_e2e(
                graph, registry, overhead_db, **kwargs
            )
            assert batched.total_us == reference.total_us
            assert batched.cpu_us == reference.cpu_us


#: One embedding lookup row.  Small ``E`` and ``L`` up to 300 make dead
#: rows (``E < L``) common; a big ``D`` at a small ``B`` squeezes
#: ``avg_cached`` below ``L`` (the other dead branch).
_embedding_rows = st.fixed_dictionaries(
    {
        "B": st.integers(1, 8192).map(float),
        "E": st.one_of(st.integers(0, 300), st.integers(1, 10**8)).map(float),
        "L": st.one_of(st.just(0), st.integers(0, 300)),
        "D": st.sampled_from([1.0, 16.0, 64.0, 256.0, 4096.0]),
    },
    optional={"rows_per_block": st.integers(1, 256).map(float)},
)

#: Every branch on purpose: an alive row, ``E < L``, ``avg_cached < L``
#: (32 rows per SM at B=1 leave under one 4096-wide row cached per
#: table), ``L = 0``, ``rows_per_block`` present and absent, mixed ``L``.
_BRANCH_ROWS = [
    {"B": 512.0, "E": 1e6, "L": 100, "D": 64.0},
    {"B": 512.0, "E": 50.0, "L": 100, "D": 64.0, "rows_per_block": 8.0},
    {"B": 1.0, "E": 1e6, "L": 3, "D": 4096.0},
    {"B": 512.0, "E": 1e6, "L": 0, "D": 64.0, "rows_per_block": 32.0},
]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestHitRateBatch:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(
        gpu=st.sampled_from([TESLA_V100, A100]),
        rows=st.lists(_embedding_rows, min_size=1, max_size=40),
    )
    @example(gpu=TESLA_V100, rows=_BRANCH_ROWS)
    @example(gpu=A100, rows=_BRANCH_ROWS)
    def test_matches_scalar_bit_for_bit(self, gpu, rows):
        model = EnhancedEmbeddingModel(gpu, None, backward=False)
        batched = model.hit_rate_batch(rows)
        looped = [model.hit_rate(p) for p in rows]
        assert np.array_equal(_bits(batched), _bits(looped))

    def test_branch_rows_cover_every_branch(self):
        model = EnhancedEmbeddingModel(TESLA_V100, None, backward=False)
        alive, e_dead, cache_dead, no_lookup = model.hit_rate_batch(
            _BRANCH_ROWS
        )
        assert 0.0 < alive < 1.0
        assert (e_dead, cache_dead, no_lookup) == (0.0, 0.0, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_L_stays_within_one_chunk(self):
        model = EnhancedEmbeddingModel(TESLA_V100, None, backward=False)
        huge = {"B": 8192.0, "E": 2e6, "L": 100_000, "D": 1.0,
                "rows_per_block": 1.0}
        rows = [huge] + _BRANCH_ROWS * 16
        tracemalloc.start()
        try:
            batched = model.hit_rate_batch(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        chunk_bytes = 8 * len(rows) * (_HIT_RATE_CHUNK + 1)
        # A handful of chunk-sized temporaries (the L x n grid is 390x
        # one chunk).
        assert peak < 8 * chunk_bytes
        looped = [model.hit_rate(p) for p in rows]
        assert np.array_equal(_bits(batched), _bits(looped))


def _index_matches_cache(reg: PerfModelRegistry) -> bool:
    """Every per-type index lists exactly its type's cached keys."""
    expected = {}
    for key in reg._cache:
        expected.setdefault(key[0], set()).add(key)
    return {t: set(keys) for t, keys in reg._by_type.items()} == expected


class TestKernelCacheAndGc:
    @pytest.fixture
    def fresh(self, registry):
        reg = PerfModelRegistry()
        for kernel_type in registry.kernel_types:
            reg.register(registry.model_for(kernel_type))
        return reg

    def test_cache_keeps_nothing_the_gc_tracks(self, fresh):
        gc.collect()
        before = len(gc.get_objects())
        graph = build_model("DLRM_default", 512)
        kernels = [
            k for node in graph.nodes for k in node.op.kernel_calls()
        ]
        kernels += [
            elementwise_kernel(float(i), 4.0 * i, 4.0 * i)
            for i in range(10_000)
        ]
        fresh.predict_many(kernels)
        probe = weakref.ref(kernels[0])
        del kernels, graph
        # A pass untracks a tuple only if its items are untracked by
        # then, so a key it reaches before its inner tuples needs a
        # second pass.
        gc.collect()
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert probe() is None
        assert fresh.cache_info().size > 10_000
        # Keyed by the calls, each entry kept two tracked objects alive.
        assert grown < 100

    def test_register_invalidates_exactly_its_type(self, fresh, registry):
        gemms = [gemm_kernel(64, 64, k) for k in range(1, 30)]
        elementwise = [elementwise_kernel(i, i, i) for i in range(1, 20)]
        fresh.predict_many(gemms + elementwise)
        fresh.register(registry.model_for(KernelType.GEMM))
        assert KernelType.GEMM not in fresh._by_type
        assert set(fresh._cache) == {k.key for k in elementwise}
        assert _index_matches_cache(fresh)

    def test_lru_eviction_keeps_the_type_index_exact(self, registry):
        tiny = PerfModelRegistry(cache_size=10)
        for kernel_type in registry.kernel_types:
            tiny.register(registry.model_for(kernel_type))
        gemms = [gemm_kernel(64, 64, k) for k in range(1, 7)]
        elementwise = [elementwise_kernel(i, i, i) for i in range(1, 7)]
        tiny.predict_many(gemms)
        tiny.predict_many(elementwise)
        assert set(tiny._cache) == {k.key for k in gemms[2:] + elementwise}
        assert _index_matches_cache(tiny)
        tiny.predict_many([elementwise_kernel(i, i, i) for i in range(7, 11)])
        assert KernelType.GEMM not in tiny._by_type
        assert _index_matches_cache(tiny)
