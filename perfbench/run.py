"""Benchmark of the DLRM performance predictor.

Run from the repository root::

    python3 perfbench/run.py --workload whatif-repeat --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
two untraced and two traced segments of ``--seconds / 4`` each and
reports per-layer metrics instead, writing the spans to
``.bench_out/trace-<workload>-<seed>.json`` (Chrome trace-event JSON).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: The tail percentile keeps at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def pin_to_one_core() -> int:
    """Pin this process, and every thread it starts later, to one core.

    Must run before any thread exists (numpy's BLAS pool included):
    Linux applies the mask to the calling thread and threads inherit it.
    """
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return core


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile that still has
    :data:`TAIL_SAMPLES_BEYOND` samples beyond it (the maximum when
    there are too few samples)."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - 1 - TAIL_SAMPLES_BEYOND if n > TAIL_SAMPLES_BEYOND else n - 1
    return 100.0 * (index + 1) / n, ordered[index]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(phase, setup_s: float, accuracy: tuple[float, float]
               ) -> dict:
    """The end-to-end metrics of one untraced phase."""
    percentile, tail_s = tail(phase.latencies_s)
    e2e_gmae, kernel_gmae = accuracy
    print(f"# latency_tail_ms is p{percentile:.2f} of "
          f"{len(phase.latencies_s)} samples")
    return {
        "throughput_per_s": metric(phase.throughput, "1/s"),
        "latency_p50_ms": metric(
            1e3 * statistics.median(phase.latencies_s), "ms"
        ),
        "latency_tail_ms": metric(1e3 * tail_s, "ms"),
        "e2e_gmae_pct": metric(e2e_gmae, "%"),
        "kernel_gmae_pct": metric(kernel_gmae, "%"),
        "correct_pct": metric(
            100.0 * (phase.attempted - phase.failed) / phase.attempted, "%"
        ),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer(phase, recorder, setup_stages: dict[str, float],
              overhead_pct: float) -> dict:
    """The per-layer metrics of one traced phase (see README.md)."""
    spans = recorder.summary()
    counts = recorder.counts()
    c = phase.counters
    ops = phase.attempted

    def self_ms(name: str) -> dict:
        return metric(1e3 * spans.get(name, {}).get("self_s", 0.0) / ops,
                      "ms/op")

    def calls(name: str) -> dict:
        return metric(spans.get(name, {}).get("calls", 0) / ops, "count/op")

    def ratio(num: float, den: float) -> dict:
        return metric(num / den if den else 0.0, "ratio")

    return {
        "service.roundtrip.self_ms": self_ms("service.roundtrip"),
        "service.canonical.self_ms": self_ms("service.canonical"),
        "service.memo.hit_ratio": ratio(
            c["memo_hits"], c["memo_hits"] + c["memo_misses"]
        ),
        "service.batch.mean_size": metric(
            c["requests"] / c["batches"] if c["batches"] else 0.0,
            "count",
        ),
        "service.queue.peak_depth": metric(c["queue_peak"], "count"),
        "perfmodels.predict_many.calls": calls("perfmodels.predict_many"),
        "perfmodels.predict_many.kernels": metric(
            counts.get("perfmodels.predict_many.items", 0.0) / ops,
            "count/op",
        ),
        "perfmodels.predict_many.self_ms": self_ms("perfmodels.predict_many"),
        "perfmodels.cache.hit_ratio": ratio(
            c["cache_hits"], c["cache_hits"] + c["cache_misses"]
        ),
        "perfmodels.fingerprint.self_ms": self_ms("perfmodels.fingerprint"),
        "models.build_model.self_ms": self_ms("models.build_model"),
        "e2e.traverse_plan.calls": calls("e2e.traverse_plan"),
        "e2e.traverse_plan.self_ms": self_ms("e2e.traverse_plan"),
        "e2e.collect_plan.self_ms": self_ms("e2e.collect_plan"),
        "e2e.predict_memory.self_ms": self_ms("e2e.predict_memory"),
        "overheads.mean_us.calls": metric(
            counts.get("overheads.mean_us.calls", 0.0) / ops, "count/op"
        ),
        "sweep.run.self_ms": self_ms("sweep.run"),
        "sweep.transforms.self_ms": self_ms("sweep.transforms"),
        "sweep.pruned_ratio": ratio(c["pruned"], c["points"]),
        "multigpu.plan_build.self_ms": self_ms("multigpu.plan_build"),
        "multigpu.schedule_iteration.calls": calls(
            "multigpu.schedule_iteration"
        ),
        "multigpu.schedule_iteration.self_ms": self_ms(
            "multigpu.schedule_iteration"
        ),
        "multigpu.calibrate.self_ms": self_ms("multigpu.calibrate"),
        "capacity.size_replicas.calls": calls("capacity.size_replicas"),
        "capacity.size_replicas.self_ms": self_ms("capacity.size_replicas"),
        "capacity.pruned_ratio": ratio(
            c["capacity_pruned"],
            c["capacity_pruned"] + c["capacity_evaluated"],
        ),
        "serving.simulate.self_ms": self_ms("serving.simulate"),
        "serving.sim_requests": metric(
            counts.get("serving.simulate.items", 0.0) / ops, "count/op"
        ),
        "setup.build_perf_models_s": metric(
            setup_stages.get("build_perf_models_s", 0.0), "s"
        ),
        "setup.overhead_profile_s": metric(
            setup_stages.get("overhead_profile_s", 0.0), "s"
        ),
        "setup.graph_build_s": metric(
            setup_stages.get("graph_build_s", 0.0), "s"
        ),
        "trace.overhead_pct": metric(overhead_pct, "%"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    core = pin_to_one_core()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import tracer
        import workloads
        from hostspeed import SETUP, HostSpeed
    except ImportError as err:
        print(f"cannot import the program under test: {err}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"unknown workload {args.workload!r}; known: {known}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START
    speed = HostSpeed()
    speed.sample(SETUP)

    # Set up several times and keep the last: the median is the set-up
    # time, and the first repetition also pays one-time warm-ups.
    durations: list[float] = []
    stages: dict[str, list[float]] = {}
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = workloads.WORKLOADS[args.workload](args.seed, speed)
        timer = workloads.SetupTimer()
        start = time.perf_counter()
        workload.setup(timer)
        durations.append(time.perf_counter() - start)
        for name, value in timer.totals.items():
            stages.setdefault(name, []).append(value)
        speed.sample(SETUP)
    setup_s = import_s + statistics.median(durations)
    setup_stages = {k: statistics.median(v) for k, v in stages.items()}

    try:
        if args.trace:
            # Untraced, traced, traced, untraced: the symmetric order
            # cancels a linear drift (such as a warming kernel cache)
            # out of the tracing overhead.
            recorder = tracer.SpanRecorder()
            untraced = traced = workloads.Phase()
            for traced_segment in (False, True, True, False):
                if traced_segment:
                    with recorder:
                        segment = workload.run(args.seconds / 4, recorder)
                    workload.check(segment)
                    traced = traced.merge(segment)
                else:
                    segment = workload.run(args.seconds / 4)
                    workload.check(segment)
                    untraced = untraced.merge(segment)
            overhead_pct = 100.0 * (
                untraced.throughput / traced.throughput - 1.0
            )
            metrics = per_layer(traced, recorder, setup_stages, overhead_pct)
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(
                OUT_DIR, f"trace-{args.workload}-{args.seed}.json"
            )
            recorder.write_chrome(path, f"perfbench {args.workload}")
            print(f"# wrote {len(recorder.spans)} spans to {path}")
            phases = (untraced, traced)
        else:
            phase = workload.run(args.seconds)
            workload.check(phase)
            metrics = end_to_end(phase, setup_s, workload.accuracy())
            phases = (phase,)
    finally:
        workload.close()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    reported = speed.to_reference(metrics)
    print(f"# {args.workload} seed {args.seed} on core {core}: "
          f"{attempted} operations, {failed} failed; host slowdown "
          f"{speed.slowdown():.3f} timed, {speed.slowdown(SETUP):.3f} "
          f"set-up (reference-speed value, raw value)")
    for name, m in metrics.items():
        print(f"# {name:38s} {reported[name]['value']:14.6g} "
              f"{m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
