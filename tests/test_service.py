"""The prediction service: canonical keys, memo tier, byte-identity.

Four contracts of :mod:`repro.service` are pinned here:

* the canonicalizer — structurally equal requests hash equal, any
  answer-changing perturbation hashes different, and keys are stable
  across ``PYTHONHASHSEED`` values (fresh-interpreter probes);
* the kernel-level cache under concurrency — the satellite bugfix:
  8 threads hammering one shared :class:`PerfModelRegistry` lose no
  counter updates, corrupt no values, and a mid-flight ``register``
  cannot resurrect stale cache entries;
* the graph-level memo tier — LRU bounds, tagged invalidation,
  epoch-guarded inserts;
* byte-identity — server responses on every path (cold, memo-hit,
  batched-concurrent) equal the direct library calls bit for bit, for
  DLRM / ResNet / Transformer in both modes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import predict_kernel_only_us
from repro.e2e import predict_e2e, predict_memory
from repro.models import MODE_INFERENCE, MODE_TRAIN, build_model
from repro.models.dlrm import DlrmConfig, build_dlrm_graph
from repro.ops import KernelCall, KernelType
from repro.ops.dense import gemm_kernel
from repro.perfmodels import CacheInfo, KernelPerfModel, PerfModelRegistry
from repro.service import (
    GraphMemoCache,
    MemoInfo,
    PredictionService,
    REQUEST_KERNEL_ONLY,
    REQUEST_KINDS,
    REQUEST_MEMORY,
    REQUEST_PREDICT,
    ServiceStats,
    WhatIfRequest,
    WhatIfResponse,
    canonical,
    graph_key,
    render_stats,
    request_key,
)
from repro.serving import BatchingPolicy
from repro.sweep import kernel_digest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A batched policy wide/slow enough that a burst submitted together
#: coalesces, yet narrow enough to exercise span slicing.
COALESCE = BatchingPolicy(max_batch=8, timeout_us=50_000.0)


def _response_bytes(response: WhatIfResponse) -> str:
    """Canonical JSON bytes of a response (the byte-identity witness)."""
    return json.dumps(response.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Canonicalizer


small_dlrm_configs = st.builds(
    DlrmConfig,
    name=st.just("svc-prop"),
    bot_mlp=st.sampled_from([(13, 64, 64), (13, 128, 64)]),
    num_tables=st.integers(min_value=1, max_value=6),
    rows_per_table=st.sampled_from([1000, 100_000]),
    embedding_dim=st.just(64),
    top_mlp=st.sampled_from([(64, 1), (256, 64, 1)]),
    lookups_per_table=st.integers(min_value=1, max_value=16),
    loss=st.sampled_from(["mse", "bce"]),
)


class TestCanonicalKeys:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=small_dlrm_configs, batch=st.sampled_from([64, 256]))
    def test_rebuilt_graph_hashes_equal(self, config, batch):
        """Two independent builds of the same spec share every key."""
        a = build_dlrm_graph(config, batch)
        b = build_dlrm_graph(config, batch)
        for kind in REQUEST_KINDS:
            key_a = request_key(
                WhatIfRequest(graph=a, kind=kind), registry_fp="R", db_fp="D"
            )
            key_b = request_key(
                WhatIfRequest(graph=b, kind=kind), registry_fp="R", db_fp="D"
            )
            assert key_a == key_b, kind
        assert graph_key(a) == graph_key(b)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=small_dlrm_configs)
    def test_batch_perturbation_changes_every_key(self, config):
        a = build_dlrm_graph(config, 64)
        b = build_dlrm_graph(config, 128)
        for kind in REQUEST_KINDS:
            assert request_key(
                WhatIfRequest(graph=a, kind=kind), registry_fp="R", db_fp="D"
            ) != request_key(
                WhatIfRequest(graph=b, kind=kind), registry_fp="R", db_fp="D"
            ), kind

    def test_kinds_never_collide(self, dlrm_graph):
        keys = {
            request_key(
                WhatIfRequest(graph=dlrm_graph, kind=kind),
                registry_fp="R", db_fp="D",
            )
            for kind in REQUEST_KINDS
        }
        assert len(keys) == len(REQUEST_KINDS)

    def test_mode_perturbation_changes_key(self):
        train = build_model("DLRM_default", 256, mode=MODE_TRAIN)
        inference = build_model("DLRM_default", 256, mode=MODE_INFERENCE)
        assert request_key(
            WhatIfRequest(graph=train), registry_fp="R", db_fp="D"
        ) != request_key(
            WhatIfRequest(graph=inference), registry_fp="R", db_fp="D"
        )

    def test_each_kind_depends_on_exactly_its_inputs(self, dlrm_graph):
        def key(kind, **kwargs):
            return request_key(WhatIfRequest(graph=dlrm_graph, kind=kind),
                               **kwargs)

        base = dict(registry_fp="R", db_fp="D")
        # Registry fingerprint feeds predict and kernel_only.
        assert key(REQUEST_PREDICT, **base) != key(
            REQUEST_PREDICT, registry_fp="R2", db_fp="D"
        )
        assert key(REQUEST_KERNEL_ONLY, **base) != key(
            REQUEST_KERNEL_ONLY, registry_fp="R2", db_fp="D"
        )
        # Overhead DB and traversal knobs feed predict only.
        assert key(REQUEST_PREDICT, **base) != key(
            REQUEST_PREDICT, registry_fp="R", db_fp="D2"
        )
        assert key(REQUEST_KERNEL_ONLY, **base) == key(
            REQUEST_KERNEL_ONLY, registry_fp="R", db_fp="D2"
        )
        assert key(REQUEST_PREDICT, **base) != key(
            REQUEST_PREDICT, registry_fp="R", db_fp="D", kernel_gap_us=9.9
        )
        assert key(REQUEST_KERNEL_ONLY, **base) == key(
            REQUEST_KERNEL_ONLY, registry_fp="R", db_fp="D", kernel_gap_us=9.9
        )
        assert key(REQUEST_PREDICT, **base) != key(
            REQUEST_PREDICT, registry_fp="R", db_fp="D", sync_h2d=True
        )
        assert key(REQUEST_PREDICT, **base) != key(
            REQUEST_PREDICT, registry_fp="R", db_fp="D", t4_us=None
        )

    def test_memory_key_covers_optimizer_and_nothing_else(self, dlrm_graph):
        sgd = request_key(
            WhatIfRequest(graph=dlrm_graph, kind=REQUEST_MEMORY),
            registry_fp="R", db_fp="D",
        )
        adam = request_key(
            WhatIfRequest(graph=dlrm_graph, kind=REQUEST_MEMORY,
                          optimizer="adam"),
            registry_fp="R", db_fp="D",
        )
        assert sgd != adam
        # Asset fingerprints and knobs are not memory inputs.
        assert sgd == request_key(
            WhatIfRequest(graph=dlrm_graph, kind=REQUEST_MEMORY),
            registry_fp="OTHER", db_fp="OTHER", kernel_gap_us=123.0,
        )

    def test_kernel_digest_ignores_param_insertion_order(self):
        forward = KernelCall(
            KernelType.GEMM, {"m": 8, "n": 16, "k": 32, "batch": 1}
        )
        reversed_params = KernelCall(
            KernelType.GEMM, {"batch": 1, "k": 32, "n": 16, "m": 8}
        )
        assert kernel_digest(forward, {}) == kernel_digest(reversed_params, {})

    def test_unknown_kind_and_optimizer_rejected(self, dlrm_graph):
        with pytest.raises(ValueError, match="unknown request kind"):
            WhatIfRequest(graph=dlrm_graph, kind="explain")
        with pytest.raises(ValueError, match="unknown optimizer"):
            WhatIfRequest(graph=dlrm_graph, optimizer="lion")


class TestKeysCachedOnTheGraph:
    """Keys are derived once per graph object and dropped on mutation."""

    def test_warm_keys_need_no_plan_or_serialization(self, monkeypatch):
        graph = build_model("DLRM_default", 64)
        requests = [WhatIfRequest(graph=graph, kind=kind)
                    for kind in REQUEST_KINDS]
        warm = [request_key(r, registry_fp="R", db_fp="D") for r in requests]
        warm_graph = graph_key(graph)

        def refuse(*args, **kwargs):
            raise AssertionError("a warm key re-derived its graph")

        monkeypatch.setattr(canonical, "collect_plan", refuse)
        monkeypatch.setattr(canonical, "graph_to_dict", refuse)
        assert [
            request_key(r, registry_fp="R", db_fp="D") for r in requests
        ] == warm
        assert graph_key(graph) == warm_graph
        # A different graph object still derives its own keys.
        with pytest.raises(AssertionError, match="re-derived"):
            graph_key(build_model("DLRM_default", 64))

    def test_mutated_graph_gets_a_new_key_and_a_fresh_answer(
        self, registry, overhead_db
    ):
        graph = build_model("DLRM_default", 256)
        with PredictionService(
            registries={"V100": registry},
            overhead_dbs={"individual": overhead_db},
        ) as service:
            before = service.predict(WhatIfRequest(graph=graph))
            assert service.predict(WhatIfRequest(graph=graph)).cached
            last = graph.nodes[-1]
            graph.add_node(last.op, last.input_ids, stream=last.stream)
            after = service.predict(WhatIfRequest(graph=graph))
        assert after.key != before.key
        assert after.cached is False
        assert after.prediction.to_dict() == (
            predict_e2e(graph, registry, overhead_db).to_dict()
        )
        assert after.prediction.total_us != before.prediction.total_us

    def test_renamed_graph_gets_a_new_memory_key(self, registry, overhead_db):
        graph = build_model("DLRM_default", 256)
        request = WhatIfRequest(graph=graph, kind=REQUEST_MEMORY)
        with PredictionService(
            registries={"V100": registry},
            overhead_dbs={"individual": overhead_db},
        ) as service:
            before = service.predict(request)
            old_graph_key = graph_key(graph)
            graph.name = "renamed"
            after = service.predict(request)
        assert graph_key(graph) != old_graph_key
        assert after.key != before.key
        assert after.cached is False
        assert after.memory == predict_memory(graph)


#: Fresh-interpreter probe: every canonical key for a small DLRM graph,
#: with the asset fingerprints held fixed (they are hashlib-based and
#: covered by their own determinism tests).
KEY_PROBE = """
import json
import sys

from repro.models import build_model
from repro.service import (
    REQUEST_KINDS, WhatIfRequest, graph_key, request_key,
)

graph = build_model("DLRM_default", 64)
keys = {"graph": graph_key(graph)}
for kind in REQUEST_KINDS:
    keys[kind] = request_key(
        WhatIfRequest(graph=graph, kind=kind), registry_fp="R", db_fp="D"
    )
sys.stdout.write(json.dumps(keys, sort_keys=True))
"""


def _probe_keys(hash_seed: str) -> dict:
    env = {
        "PYTHONPATH": f"{REPO_ROOT / 'src'}:{REPO_ROOT}",
        "PYTHONHASHSEED": hash_seed,
        "PATH": "/usr/bin:/bin",
    }
    proc = subprocess.run(
        [sys.executable, "-c", KEY_PROBE],
        capture_output=True, text=True, env=env, check=True, cwd=REPO_ROOT,
    )
    return json.loads(proc.stdout)


class TestKeysAreHashSeedIndependent:
    def test_keys_match_across_interpreters(self):
        keys_a = _probe_keys("0")
        keys_b = _probe_keys("424242")
        assert keys_a == keys_b
        assert set(keys_a) == {"graph", *REQUEST_KINDS}


# ---------------------------------------------------------------------------
# Thread-safe kernel cache (the satellite bugfix)


class _AffineGemm(KernelPerfModel):
    """Deterministic toy model: time = base + slope * m."""

    kernel_type = KernelType.GEMM

    def __init__(self, base: float, slope: float = 0.25,
                 gate: threading.Event | None = None) -> None:
        self.base = base
        self.slope = slope
        self._gate = gate

    def predict_us(self, params):
        if self._gate is not None:
            self._gate.wait()
        return self.base + self.slope * params["m"]


class TestRegistryThreadSafety:
    def test_eight_thread_hammer_loses_no_updates(self):
        model = _AffineGemm(base=1.0)
        registry = PerfModelRegistry(cache_size=4096)
        registry.register(model)
        kernels = [gemm_kernel(m, 64, 64, 8) for m in range(1, 257)]
        expected = np.array([model.predict_us(k.params) for k in kernels])

        num_threads, rounds = 8, 20
        barrier = threading.Barrier(num_threads)
        errors: list[str] = []

        def hammer(thread_index: int) -> None:
            # Distinct per-thread rotations so lookups interleave on
            # different kernels, not in lockstep.
            order = kernels[thread_index:] + kernels[:thread_index]
            want = np.array([model.predict_us(k.params) for k in order])
            barrier.wait()
            for _ in range(rounds):
                got = registry.predict_many(order)
                if not np.array_equal(got, want):
                    errors.append(f"thread {thread_index}: wrong values")
                    return

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(num_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        info = registry.cache_info()
        lookups = num_threads * rounds * len(kernels)
        # Exact counter conservation is the no-lost-updates witness: a
        # single dropped increment breaks the sum.
        assert info.hits + info.misses == lookups
        assert info.size == len(kernels)
        assert len(kernels) <= info.misses < lookups
        # Values in cache are correct after the stampede.
        assert np.array_equal(registry.predict_many(kernels), expected)

    def test_register_during_flight_keeps_stale_values_out(self):
        gate = threading.Event()
        old = _AffineGemm(base=1.0, gate=gate)
        new = _AffineGemm(base=1000.0)
        registry = PerfModelRegistry()
        registry.register(old)
        kernel = gemm_kernel(32, 32, 32)

        results: list[float] = []
        in_flight = threading.Thread(
            target=lambda: results.append(registry.predict_us(kernel))
        )
        in_flight.start()
        # The flight is blocked inside the old model's predict, outside
        # the registry lock; swap the model underneath it.
        registry.register(new)
        gate.set()
        in_flight.join()

        # The in-flight caller got the model it started with...
        assert results == [old.base + old.slope * 32]
        # ...but its value must not have been cached over the new
        # model's: the next lookup recomputes via the new model.
        assert registry.predict_us(kernel) == new.base + new.slope * 32

    def test_concurrent_cache_info_snapshots_are_consistent(self):
        registry = PerfModelRegistry()
        registry.register(_AffineGemm(base=2.0))
        kernels = [gemm_kernel(m, 8, 8) for m in range(1, 65)]
        stop = threading.Event()
        snapshots: list[CacheInfo] = []

        def reader() -> None:
            while not stop.is_set() and len(snapshots) < 10_000:
                snapshots.append(registry.cache_info())

        t = threading.Thread(target=reader)
        t.start()
        for _ in range(50):
            registry.predict_many(kernels)
        stop.set()
        t.join()
        final = registry.cache_info()
        assert final.hits + final.misses == 50 * len(kernels)
        for snap in snapshots:
            assert 0 <= snap.hits + snap.misses <= 50 * len(kernels)
            assert snap.size <= snap.max_size


# ---------------------------------------------------------------------------
# Graph-level memo tier


class TestGraphMemoCache:
    def test_lru_bound_and_eviction_order(self):
        memo = GraphMemoCache(max_entries=2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refresh a; b is now the LRU victim
        memo.put("c", 3)
        assert len(memo) == 2
        assert memo.get("b") is None
        assert memo.get("a") == 1 and memo.get("c") == 3
        info = memo.info()
        assert info.evictions == 1
        assert info.size == 2 and info.max_size == 2

    def test_invalidate_drops_exactly_the_tagged_entries(self):
        memo = GraphMemoCache()
        memo.put("p", "pred", tags=("gpu:V100", "db:raw"))
        memo.put("k", "kern", tags=("gpu:V100",))
        memo.put("m", "mem", tags=())
        assert memo.invalidate("db:raw") == 1
        assert memo.get("p") is None
        assert memo.get("k") == "kern" and memo.get("m") == "mem"
        assert memo.invalidate("gpu:V100") == 1
        assert memo.get("k") is None and memo.get("m") == "mem"
        assert memo.invalidate("gpu:V100") == 0  # nothing left to drop
        assert memo.info().invalidations == 2

    def test_epoch_guard_discards_stale_inserts(self):
        memo = GraphMemoCache()
        tags = ("gpu:V100",)
        epochs = memo.epochs(tags)
        memo.invalidate("gpu:V100")  # races the in-flight computation
        assert memo.put("key", "stale", tags=tags, epochs=epochs) is False
        assert memo.get("key") is None
        fresh = memo.epochs(tags)
        assert memo.put("key", "fresh", tags=tags, epochs=fresh) is True
        assert memo.get("key") == "fresh"

    def test_zero_capacity_never_caches(self):
        memo = GraphMemoCache(max_entries=0)
        assert memo.put("a", 1) is False
        assert memo.get("a") is None
        assert len(memo) == 0

    def test_clear_resets_counters_but_not_epochs(self):
        memo = GraphMemoCache()
        memo.put("a", 1, tags=("gpu:V100",))
        epochs = memo.epochs(("gpu:V100",))
        memo.invalidate("gpu:V100")
        memo.clear()
        assert memo.info() == MemoInfo(
            hits=0, misses=0, size=0, max_size=memo.info().max_size,
            evictions=0, invalidations=0,
        )
        # The pre-invalidation snapshot is still stale after clear().
        assert memo.put("a", 1, tags=("gpu:V100",), epochs=epochs) is False


# ---------------------------------------------------------------------------
# Byte-identity: server vs direct library calls


@pytest.fixture(scope="module")
def workloads():
    """(label, graph) pairs: three architectures in both modes."""
    specs = [
        ("DLRM_default", 512),
        ("resnet50", 16),
        ("Transformer", 8),
    ]
    return [
        (f"{name}@{batch}:{mode}", build_model(name, batch, mode=mode))
        for name, batch in specs
        for mode in (MODE_TRAIN, MODE_INFERENCE)
    ]


class TestByteIdentity:
    def test_cold_memo_and_batched_paths_match_direct(
        self, registry, overhead_db, workloads
    ):
        direct = {
            label: _response_bytes(
                WhatIfResponse(
                    kind=REQUEST_PREDICT, key="", cached=False,
                    prediction=predict_e2e(graph, registry, overhead_db),
                )
            )
            for label, graph in workloads
        }

        with PredictionService(
            registries={"V100": registry},
            overhead_dbs={"individual": overhead_db},
            batching=COALESCE,
        ) as service:
            # Batched-concurrent: the whole mix submitted at once, two
            # copies each, so micro-batches mix architectures and the
            # duplicate arrives both as in-batch twin and memo hit.
            requests = [
                WhatIfRequest(graph=graph)
                for _, graph in workloads for _ in range(2)
            ]
            responses = service.predict_all(requests)
            labels = [label for label, _ in workloads for _ in range(2)]
            for label, response in zip(labels, responses):
                got = WhatIfResponse(
                    kind=response.kind, key="", cached=False,
                    prediction=response.prediction,
                )
                assert _response_bytes(got) == direct[label], label

            # Memo-hit path: a repeat ask is served from the tier and
            # still byte-identical.
            for label, graph in workloads:
                repeat = service.predict(WhatIfRequest(graph=graph))
                assert repeat.cached is True
                got = WhatIfResponse(
                    kind=repeat.kind, key="", cached=False,
                    prediction=repeat.prediction,
                )
                assert _response_bytes(got) == direct[label], label
            assert service.stats().peak_batch > 1

        # Cold path: a fresh, unbatched server (memo disabled) computes
        # every answer from scratch.
        with PredictionService(
            registries={"V100": registry},
            overhead_dbs={"individual": overhead_db},
            batching=BatchingPolicy(max_batch=1, timeout_us=0.0),
            memo_entries=0,
        ) as service:
            for label, graph in workloads:
                cold = service.predict(WhatIfRequest(graph=graph))
                assert cold.cached is False
                got = WhatIfResponse(
                    kind=cold.kind, key="", cached=False,
                    prediction=cold.prediction,
                )
                assert _response_bytes(got) == direct[label], label

    def test_kernel_only_and_memory_kinds_match_direct(
        self, registry, overhead_db, dlrm_graph
    ):
        with PredictionService(
            registries={"V100": registry},
            overhead_dbs={"individual": overhead_db},
        ) as service:
            kernel_only = service.predict(
                WhatIfRequest(graph=dlrm_graph, kind=REQUEST_KERNEL_ONLY)
            )
            assert kernel_only.kernel_only_us == predict_kernel_only_us(
                dlrm_graph, registry
            )
            memory = service.predict(
                WhatIfRequest(graph=dlrm_graph, kind=REQUEST_MEMORY,
                              optimizer="adam")
            )
            assert memory.memory == predict_memory(
                dlrm_graph, optimizer="adam"
            )


# ---------------------------------------------------------------------------
# Service behavior: invalidation, errors, lifecycle


class TestServiceInvalidation:
    def test_reregistering_overheads_drops_only_predict_entries(
        self, registry, overhead_db, dlrm_graph, device
    ):
        from repro.overheads import OverheadDatabase

        with PredictionService(
            registries={"V100": registry},
            overhead_dbs={"individual": overhead_db},
        ) as service:
            first = service.predict(WhatIfRequest(graph=dlrm_graph))
            baseline = service.predict(
                WhatIfRequest(graph=dlrm_graph, kind=REQUEST_KERNEL_ONLY)
            )
            profiled = device.run(
                dlrm_graph, iterations=4, batch_size=512,
                with_profiler=True, warmup=1,
            )
            replacement = OverheadDatabase.from_trace(profiled.trace)
            assert service.register_overheads("individual", replacement) == 1

            # predict recomputes under a new key (db fingerprint moved);
            # kernel_only is untouched by overheads and stays memoized.
            second = service.predict(WhatIfRequest(graph=dlrm_graph))
            assert second.cached is False
            assert second.key != first.key
            repeat = service.predict(
                WhatIfRequest(graph=dlrm_graph, kind=REQUEST_KERNEL_ONLY)
            )
            assert repeat.cached is True
            assert repeat.key == baseline.key

    def test_reregistering_registry_drops_predict_and_kernel_only(
        self, registry, overhead_db, dlrm_graph
    ):
        with PredictionService(
            registries={"V100": registry},
            overhead_dbs={"individual": overhead_db},
        ) as service:
            service.predict(WhatIfRequest(graph=dlrm_graph))
            service.predict(
                WhatIfRequest(graph=dlrm_graph, kind=REQUEST_KERNEL_ONLY)
            )
            memory = service.predict(
                WhatIfRequest(graph=dlrm_graph, kind=REQUEST_MEMORY)
            )
            # Same registry object re-registered: same content, so the
            # keys do not move — but the entries are still dropped and
            # recomputed (explicit invalidation, never staleness).
            assert service.register_registry("V100", registry) == 2
            recomputed = service.predict(WhatIfRequest(graph=dlrm_graph))
            assert recomputed.cached is False
            # memory answers carry no asset tags and survive.
            still_cached = service.predict(
                WhatIfRequest(graph=dlrm_graph, kind=REQUEST_MEMORY)
            )
            assert still_cached.cached is True
            assert still_cached.key == memory.key

    def test_unknown_labels_fail_the_future_with_known_labels_listed(
        self, registry, overhead_db, dlrm_graph
    ):
        with PredictionService(
            registries={"V100": registry},
            overhead_dbs={"individual": overhead_db},
        ) as service:
            with pytest.raises(KeyError, match="no resident registry"):
                service.predict(
                    WhatIfRequest(graph=dlrm_graph, gpu="H100")
                )
            with pytest.raises(KeyError, match="no resident overhead DB"):
                service.predict(
                    WhatIfRequest(graph=dlrm_graph, overheads="shared")
                )

    def _fault_batch(self, registries, overhead_db, dlrm_graph, faulty):
        """One sealed micro-batch: a request routed to the ``faulty``
        registry, a valid predict and a memory request alongside it.

        Returns the three futures, each resolved within the timeout.
        """
        with PredictionService(
            registries=registries,
            overhead_dbs={"individual": overhead_db},
            batching=BatchingPolicy(max_batch=3, timeout_us=5e6),
        ) as service:
            futures = [
                service.submit(WhatIfRequest(graph=dlrm_graph, gpu=faulty)),
                service.submit(WhatIfRequest(graph=dlrm_graph, gpu="V100")),
                service.submit(
                    WhatIfRequest(graph=dlrm_graph, kind=REQUEST_MEMORY)
                ),
            ]
            for future in futures:
                future.exception(timeout=10)
            assert service.stats().batches_dispatched == 1
        return futures

    def _assert_neighbours_answered(
        self, futures, registry, overhead_db, dlrm_graph
    ):
        direct = predict_e2e(dlrm_graph, registry, overhead_db)
        assert futures[1].result().prediction.to_dict() == direct.to_dict()
        assert futures[2].result().memory.to_dict() == (
            predict_memory(dlrm_graph).to_dict()
        )

    def test_unregistered_kernel_type_fails_only_its_requests(
        self, registry, overhead_db, dlrm_graph
    ):
        futures = self._fault_batch(
            {"V100": registry, "empty": PerfModelRegistry()},
            overhead_db,
            dlrm_graph,
            faulty="empty",
        )
        with pytest.raises(KeyError, match="no performance model"):
            futures[0].result()
        self._assert_neighbours_answered(
            futures, registry, overhead_db, dlrm_graph
        )

    def test_raising_predict_batch_fails_only_its_requests(
        self, registry, overhead_db, dlrm_graph
    ):
        class _Exploding(_AffineGemm):
            def predict_batch(self, params):
                raise RuntimeError("gemm model exploded")

        broken = PerfModelRegistry()
        for kernel_type in registry.kernel_types:
            broken.register(registry.model_for(kernel_type))
        broken.register(_Exploding(base=1.0))
        futures = self._fault_batch(
            {"V100": registry, "broken": broken},
            overhead_db,
            dlrm_graph,
            faulty="broken",
        )
        with pytest.raises(RuntimeError, match="exploded"):
            futures[0].result()
        self._assert_neighbours_answered(
            futures, registry, overhead_db, dlrm_graph
        )

    def test_escape_from_a_batch_fails_every_unresolved_future(
        self, registry, overhead_db, dlrm_graph, monkeypatch
    ):
        def crash(self, misses, done):
            raise RuntimeError("batch crashed")

        monkeypatch.setattr(PredictionService, "_predict_misses", crash)
        with PredictionService(
            registries={"V100": registry},
            overhead_dbs={"individual": overhead_db},
            batching=BatchingPolicy(max_batch=2, timeout_us=5e6),
        ) as service:
            futures = [
                service.submit(WhatIfRequest(graph=dlrm_graph)),
                service.submit(
                    WhatIfRequest(graph=dlrm_graph, kind=REQUEST_MEMORY)
                ),
            ]
            for future in futures:
                with pytest.raises(RuntimeError, match="batch crashed"):
                    future.result(timeout=10)

    def test_close_drains_then_rejects(
        self, registry, overhead_db, dlrm_graph
    ):
        service = PredictionService(
            registries={"V100": registry},
            overhead_dbs={"individual": overhead_db},
        )
        futures = [
            service.submit(WhatIfRequest(graph=dlrm_graph)) for _ in range(5)
        ]
        service.close()
        for future in futures:
            assert future.result().kind == REQUEST_PREDICT
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(WhatIfRequest(graph=dlrm_graph))
        service.close()  # idempotent

    def test_dispatcher_crash_fails_queued_futures_and_closes(
        self, registry, overhead_db, dlrm_graph
    ):
        service = PredictionService(
            registries={"V100": registry},
            overhead_dbs={"individual": overhead_db},
            batching=BatchingPolicy(max_batch=1, timeout_us=0.0),
        )
        entered = threading.Event()
        release = threading.Event()

        def refuse(*args, **kwargs):
            entered.set()
            release.wait(10)
            raise RuntimeError("pool refused the batch")

        service._pool.submit = refuse
        futures = [service.submit(WhatIfRequest(graph=dlrm_graph))]
        assert entered.wait(10)
        # Queued behind the batch the dispatcher is failing to hand off.
        futures += [
            service.submit(WhatIfRequest(graph=dlrm_graph)) for _ in range(2)
        ]
        release.set()
        for future in futures:
            with pytest.raises(RuntimeError, match="refused"):
                future.result(timeout=3)
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(WhatIfRequest(graph=dlrm_graph))
        service.close()
        assert not service._dispatcher.is_alive()

    def test_close_under_load_resolves_every_accepted_future(
        self, registry, overhead_db, dlrm_graph
    ):
        service = PredictionService(
            registries={"V100": registry},
            overhead_dbs={"individual": overhead_db},
            batching=BatchingPolicy(max_batch=4, timeout_us=1000.0),
        )
        clients = 4
        accepted: list = []
        rejected: list[BaseException] = []
        lock = threading.Lock()
        barrier = threading.Barrier(clients + 1)

        def client() -> None:
            barrier.wait()
            while True:
                try:
                    future = service.submit(WhatIfRequest(graph=dlrm_graph))
                except RuntimeError as err:
                    with lock:
                        rejected.append(err)
                    return
                with lock:
                    accepted.append(future)

        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        barrier.wait()
        # Close mid-stream, once the clients are submitting.
        deadline = time.monotonic() + 10
        while len(accepted) < 10 * clients and time.monotonic() < deadline:
            time.sleep(0.001)
        service.close()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()

        assert len(rejected) == clients
        assert all("closed" in str(err) for err in rejected)
        direct = predict_e2e(dlrm_graph, registry, overhead_db).to_dict()
        for future in accepted:
            assert future.result(timeout=10).prediction.to_dict() == direct

    def test_reregistering_a_registry_mid_batch_memoizes_nothing_stale(
        self, registry, overhead_db, dlrm_graph
    ):
        entered = threading.Event()
        release = threading.Event()
        real_gemm = registry.model_for(KernelType.GEMM)

        class _GatedDoubleGemm(KernelPerfModel):
            """The real GEMM model at twice the time, held at a gate."""

            kernel_type = KernelType.GEMM

            def predict_us(self, params):
                entered.set()
                release.wait(10)
                return 2.0 * real_gemm.predict_us(params)

        old = PerfModelRegistry()
        for kernel_type in registry.kernel_types:
            old.register(registry.model_for(kernel_type))
        old.register(_GatedDoubleGemm())
        direct = predict_e2e(dlrm_graph, registry, overhead_db).to_dict()

        with PredictionService(
            registries={"V100": old},
            overhead_dbs={"individual": overhead_db},
        ) as service:
            in_flight = service.submit(WhatIfRequest(graph=dlrm_graph))
            assert entered.wait(10)
            # The batch is pricing with the old registry; swap it.
            service.register_registry("V100", registry)
            release.set()
            stale = in_flight.result(timeout=10)
            assert stale.prediction.to_dict() != direct
            assert service.memo_info().size == 0
            fresh = service.predict(WhatIfRequest(graph=dlrm_graph))
            repeat = service.predict(WhatIfRequest(graph=dlrm_graph))
        assert fresh.cached is False
        assert fresh.prediction.to_dict() == direct
        assert repeat.cached is True

    def test_validation_of_constructor_arguments(self, registry, overhead_db):
        with pytest.raises(ValueError, match="at least one registry"):
            PredictionService({}, {"db": overhead_db})
        with pytest.raises(ValueError, match="overhead database"):
            PredictionService({"V100": registry}, {})
        with pytest.raises(KeyError, match="unknown default registry"):
            PredictionService(
                {"V100": registry}, {"db": overhead_db}, default_gpu="A100"
            )
        with pytest.raises(ValueError, match="workers"):
            PredictionService(
                {"V100": registry}, {"db": overhead_db}, workers=0
            )


# ---------------------------------------------------------------------------
# Serialization round-trips + stats + golden snapshot


class TestRoundTrips:
    def test_request_roundtrip(self, dlrm_graph):
        request = WhatIfRequest(
            graph=dlrm_graph, kind=REQUEST_MEMORY, gpu="V100",
            overheads="individual", optimizer="adam",
        )
        restored = WhatIfRequest.from_dict(request.to_dict())
        assert restored.kind == request.kind
        assert restored.gpu == request.gpu
        assert restored.overheads == request.overheads
        assert restored.optimizer == request.optimizer
        assert graph_key(restored.graph) == graph_key(request.graph)

    def test_response_roundtrip(self, registry, overhead_db, dlrm_graph):
        prediction = predict_e2e(dlrm_graph, registry, overhead_db)
        response = WhatIfResponse(
            kind=REQUEST_PREDICT, key="abc123", cached=True,
            prediction=prediction,
        )
        restored = WhatIfResponse.from_dict(response.to_dict())
        assert _response_bytes(restored) == _response_bytes(response)
        bare = WhatIfResponse(
            kind=REQUEST_KERNEL_ONLY, key="k", cached=False,
            kernel_only_us=123.5,
        )
        assert WhatIfResponse.from_dict(bare.to_dict()) == bare

    def test_memory_response_roundtrip(self, dlrm_graph):
        response = WhatIfResponse(
            kind=REQUEST_MEMORY, key="m", cached=False,
            memory=predict_memory(dlrm_graph),
        )
        restored = WhatIfResponse.from_dict(response.to_dict())
        assert restored.memory == response.memory

    def test_stats_roundtrip_and_render(
        self, registry, overhead_db, dlrm_graph
    ):
        with PredictionService(
            registries={"V100": registry},
            overhead_dbs={"individual": overhead_db},
        ) as service:
            service.predict_all(
                [WhatIfRequest(graph=dlrm_graph) for _ in range(3)]
            )
            stats = service.stats()
        restored = ServiceStats.from_dict(stats.to_dict())
        assert restored.to_dict() == stats.to_dict()
        rendered = render_stats(stats)
        assert "memo tier" in rendered
        assert "e2e predictions" in rendered
        assert sum(stats.requests.values()) == 3

    def test_memo_info_roundtrip(self):
        info = MemoInfo(hits=3, misses=2, size=2, max_size=8,
                        evictions=1, invalidations=4)
        assert MemoInfo.from_dict(info.to_dict()) == info
        assert info.hit_rate == pytest.approx(0.6)


class TestServerSnapshotGolden:
    def test_snapshot_matches_golden(
        self, registry, overhead_db, dlrm_graph, golden
    ):
        """One full server interaction, pinned numerically.

        Latency numbers are wall-clock and excluded; keys, payloads and
        deterministic counters are all golden-checked.
        """
        with PredictionService(
            registries={"V100": registry},
            overhead_dbs={"individual": overhead_db},
        ) as service:
            responses = {
                kind: service.predict(
                    WhatIfRequest(graph=dlrm_graph, kind=kind)
                )
                for kind in REQUEST_KINDS
            }
            repeat = service.predict(WhatIfRequest(graph=dlrm_graph))
            memo = service.memo_info()
        assert repeat.cached is True
        golden(
            "service_snapshot",
            {
                "responses": {
                    kind: responses[kind].to_dict() for kind in REQUEST_KINDS
                },
                "repeat_key": repeat.key,
                "memo": {
                    "hits": memo.hits,
                    "misses": memo.misses,
                    "size": memo.size,
                },
            },
        )
