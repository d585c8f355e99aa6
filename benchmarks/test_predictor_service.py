"""Prediction-as-a-service load test — the what-if server's perf baseline.

The service front end (``repro.service``) keeps trained registries and
overhead databases resident, coalesces concurrent requests into
``predict_many`` micro-batches, and memoizes whole-graph answers under
canonical content keys.  This benchmark drives a sustained synthetic
request mix through a running :class:`PredictionService` from eight
client threads and enforces the acceptance floor: warm-cache throughput
must beat the cold single-query rate by >= 5x.

Two phases over the same DLRM what-if mix (three batch sizes):

* **Cold** — an unbatched, memo-disabled server; the kernel LRU is
  cleared before every query, so each one pays the full Algorithm 1
  pipeline (collect -> predict_many -> traverse).  This is the rate a
  stateless CLI invocation would sustain, minus process startup.
* **Warm** — a coalescing server with the memo primed; every client
  request is a graph-level memo hit.  Client threads record exact
  per-request latencies, and every response is checked byte-identical
  to a direct ``predict_e2e`` call *while the pool is under load*.

Only the deterministic facts (workload shape and memo counters) land
in ``results/predictor_service.json``, banded exactly.  Throughput and
client-side p50/p99 are printed to stdout: co-tenant noise on shared
hardware swings a threaded server's tail severalfold even best-of-N,
so the >= 5x floor below is what enforces the perf, and ``perfbench/``
tracks the timings.
"""

from __future__ import annotations

import threading
import time

from benchmarks.assets import (
    get_graph,
    get_overheads,
    get_registry,
    write_result,
)
from repro.e2e import predict_e2e
from repro.service import PredictionService, WhatIfRequest
from repro.serving import BatchingPolicy, nearest_rank_us

_GPU = "V100"
_MODEL = "DLRM_default"
#: The what-if mix: one graph per serving batch size.
SERVICE_BATCHES = (512, 1024, 2048)
#: Overheads are profiled once at the largest batch (CLI convention).
RECORDED_BATCH = 2048
#: Cold queries, cycling the mix; each clears the kernel LRU first.
COLD_QUERIES = 9
#: Warm load: clients x requests-per-client synchronous submissions,
#: repeated for WARM_WAVES waves; the recorded wave is the one with
#: the lowest exact p99 (best-of-N filters co-tenant noise spikes).
WARM_CLIENTS = 8
WARM_REQUESTS_PER_CLIENT = 150
WARM_WAVES = 3
#: Acceptance floor: warm throughput over cold single-query rate.
WARM_SPEEDUP_FLOOR = 5.0
#: Coalescing policy under load (cap well above the client count so
#: only the timeout seals; 200 us keeps batches sub-millisecond).
WARM_POLICY = BatchingPolicy(max_batch=16, timeout_us=200.0)


def _assets():
    registry, _ = get_registry(_GPU)
    overheads = get_overheads(_GPU, _MODEL, RECORDED_BATCH)
    graphs = {b: get_graph(_MODEL, b) for b in SERVICE_BATCHES}
    return registry, overheads, graphs


def _request_mix(graphs, count):
    """``count`` requests cycling round-robin over the graph mix."""
    batches = sorted(graphs)
    return [
        WhatIfRequest(graph=graphs[batches[i % len(batches)]])
        for i in range(count)
    ]


def _time_cold(registry, overheads, graphs):
    """Single-query rate with nothing resident between queries.

    Best of :data:`WARM_WAVES` passes, symmetric with the warm phase,
    so the speedup ratio compares two noise-filtered measurements.
    """
    requests = _request_mix(graphs, COLD_QUERIES)
    with PredictionService(
        registries={_GPU: registry},
        overhead_dbs={"individual": overheads},
        batching=BatchingPolicy(max_batch=1, timeout_us=0.0),
        workers=1,
        memo_entries=0,
    ) as service:
        passes = []
        for _ in range(WARM_WAVES):
            started = time.perf_counter()
            for request in requests:
                registry.cache_clear()
                service.predict(request)
            passes.append(time.perf_counter() - started)
    return min(passes)


def test_service_warm_throughput_floor(benchmark):
    """8-client warm load: memoized server >= 5x the cold query rate."""
    registry, overheads, graphs = _assets()
    expected = {
        batch: predict_e2e(graph, registry, overheads).to_dict()
        for batch, graph in graphs.items()
    }

    cold_s = _time_cold(registry, overheads, graphs)
    cold_query_s = cold_s / COLD_QUERIES

    with PredictionService(
        registries={_GPU: registry},
        overhead_dbs={"individual": overheads},
        batching=WARM_POLICY,
        workers=WARM_CLIENTS,
    ) as service:
        # Prime: one miss per unique canonical key.
        for batch in SERVICE_BATCHES:
            service.predict(WhatIfRequest(graph=graphs[batch]))

        failures: list[str] = []
        lock = threading.Lock()

        def load_once() -> tuple[float, list[float]]:
            """One 8-client wave; returns wall time + sorted latencies."""
            latencies: list[float] = []
            barrier = threading.Barrier(WARM_CLIENTS)

            def client() -> None:
                order = [
                    SERVICE_BATCHES[i % len(SERVICE_BATCHES)]
                    for i in range(WARM_REQUESTS_PER_CLIENT)
                ]
                requests = [
                    (batch, WhatIfRequest(graph=graphs[batch]))
                    for batch in order
                ]
                mine: list[float] = []
                barrier.wait()
                for batch, request in requests:
                    t0 = time.perf_counter()
                    response = service.predict(request)
                    mine.append(time.perf_counter() - t0)
                    # Byte-identity while the pool is under load.
                    if response.prediction.to_dict() != expected[batch]:
                        with lock:
                            failures.append(f"batch {batch} diverged")
                with lock:
                    latencies.extend(mine)

            threads = [
                threading.Thread(target=client)
                for _ in range(WARM_CLIENTS)
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
            return elapsed, sorted(latencies)

        # Wall-clock tails on a shared machine swing with co-tenant
        # noise; best-of-N filters the spikes so the reported p50/p99
        # track the server, not the neighbours.
        waves = [load_once() for _ in range(WARM_WAVES)]
        stats = service.stats()

    assert failures == []
    total = WARM_CLIENTS * WARM_REQUESTS_PER_CLIENT
    assert all(len(lats) == total for _, lats in waves)
    warm_s, latencies = min(
        waves, key=lambda wave: nearest_rank_us(wave[1], 99.0)
    )
    warm_qps = total / warm_s
    cold_qps = COLD_QUERIES / cold_s
    warm_speedup = warm_qps / cold_qps
    p50_s = nearest_rank_us(latencies, 50.0)
    p99_s = nearest_rank_us(latencies, 99.0)

    # Every warm request hit the memo primed beforehand; the counters
    # are deterministic and banded exactly.
    assert stats.memo.hits == total * WARM_WAVES
    assert stats.memo.misses == len(SERVICE_BATCHES)
    # The server's histogram approximates the client-side median to
    # within one geometric bucket (ratio 2); client latency also
    # includes the submit/wakeup hop, so allow it on the high side.
    combined = sorted(lat for _, lats in waves for lat in lats)
    histogram_p50_s = stats.latency["p50_us"] / 1e6
    assert histogram_p50_s <= nearest_rank_us(combined, 50.0) * 2.0

    write_result(
        "predictor_service",
        {
            "gpu": _GPU,
            "model": _MODEL,
            "service_batches": list(SERVICE_BATCHES),
            "cold": {"queries": COLD_QUERIES},
            "warm": {
                "clients": WARM_CLIENTS,
                "requests": total,
                "waves": WARM_WAVES,
                "memo_hits": stats.memo.hits,
                "memo_misses": stats.memo.misses,
            },
            "warm_speedup_floor": WARM_SPEEDUP_FLOOR,
        },
    )
    print(
        f"\n{total} warm requests from {WARM_CLIENTS} clients: "
        f"{warm_qps:,.0f} qps (p50 {p50_s * 1e6:.0f} us, "
        f"p99 {p99_s * 1e6:.0f} us) vs cold {cold_qps:.1f} qps "
        f"({cold_query_s * 1e3:.1f} ms/query) "
        f"-> {warm_speedup:.0f}x"
    )

    burst = _request_mix(graphs, 64)
    with PredictionService(
        registries={_GPU: registry},
        overhead_dbs={"individual": overheads},
        batching=WARM_POLICY,
        workers=WARM_CLIENTS,
    ) as reservice:
        reservice.predict_all(burst[: len(SERVICE_BATCHES)])
        benchmark.pedantic(
            lambda: reservice.predict_all(burst), rounds=3, iterations=1
        )

    assert warm_speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm throughput {warm_speedup:.2f}x the cold rate, below the "
        f"{WARM_SPEEDUP_FLOOR}x floor"
    )
