"""The benchmark's four workloads against the public ``repro`` API.

Each workload builds its inputs from a seed in :meth:`Workload.setup`,
runs closed-loop operations for a fixed measuring time in
:meth:`Workload.run`, checks every answer against a direct library call
outside the timed window, and scores the predictor's accuracy against
the simulated testbed on a seeded sample of its own inputs.

* ``whatif-repeat`` — one client re-asking a small working set of
  what-if questions; after a warm pass every answer is a memo hit.
* ``whatif-fresh`` — two clients each asking about a never-seen DLRM
  graph; the memo never hits and the kernel cache mostly misses.
* ``sweep-grid`` — serial grid sweeps over transforms x batch sizes x
  GPUs x overhead databases with branch-and-bound pruning.
* ``plan-fleet`` — capacity searches over single-GPU, NVLink-sharded
  and two-node fleets, validated in the serving simulator.
"""

from __future__ import annotations

import gc
import statistics
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.kernel_only import predict_kernel_only_us
from repro.capacity import (
    VALIDATE_SIMULATE,
    CandidateFleet,
    CapacityPlanner,
    ServingTarget,
    plans_to_json,
)
from repro.e2e import collect_plan, plan_kernels, predict_e2e, predict_memory
from repro.graph.transforms import (
    fuse_embedding_bags,
    move_independent_earlier,
    rescale_batch,
)
from repro.hardware import ALL_GPUS
from repro.metrics import gmae
from repro.models import MODE_INFERENCE, MODE_TRAIN, build_model
from repro.models.dlrm import DLRM_CONFIGS, DLRM_DEFAULT, build_dlrm_graph
from repro.multigpu import (
    NETWORK_FABRICS,
    NVLINK,
    CollectiveModel,
    GroundTruthCollectives,
    GroundTruthTopologyCollectives,
    TopologyCollectiveModel,
)
from repro.overheads import OverheadDatabase
from repro.perfmodels import CV_ML_KERNELS, DEFAULT_ML_KERNELS, build_perf_models
from repro.service import (
    REQUEST_KERNEL_ONLY,
    REQUEST_KINDS,
    REQUEST_MEMORY,
    REQUEST_PREDICT,
    PredictionService,
    WhatIfRequest,
    WhatIfResponse,
)
from repro.serving import BatchingPolicy
from repro.simulator import SimulatedDevice
from repro.sweep import IDENTITY_TRANSFORM, SweepEngine

from hostspeed import HostSpeed
from tracer import ROUNDTRIP, SpanRecorder

#: Registry training at a small microbenchmark scale: one MLP
#: hyperparameter point keeps set-up to seconds per GPU.
MICROBENCH_SCALE = 0.1
TRAIN_SPACE = {
    "num_layers": (3,),
    "num_neurons": (128,),
    "optimizer": ("adam",),
    "learning_rate": (5e-3,),
}
TRAIN_EPOCHS = 120
TRAIN_SEED = 7
#: Testbed seed per GPU; fixed so every run measures the same testbed.
DEVICE_SEEDS = {"V100": 11, "A100": 12}
#: Iterations of one simulated ground-truth run.
TRUTH_ITERATIONS = 2
PROFILE_ITERATIONS = 8
#: A timed phase is cut into this many equal segments; its throughput
#: is their median, so a burst of host load in one segment is ignored.
SEGMENTS = 20

#: `repro serve` defaults: micro-batch seal policy, pool and memo size.
SERVICE_MAX_BATCH = 16
SERVICE_TIMEOUT_US = 1000.0
SERVICE_WORKERS = 4
SERVICE_MEMO_ENTRIES = 4096

#: The batch size graphs are recorded (and overheads profiled) at.
RECORDED_BATCH = 2048

#: Phase counters that are maxima rather than sums.
PEAK_COUNTERS = ("queue_peak",)


@dataclass
class Phase:
    """What one timed phase measured.

    Attributes:
        attempted: Operations started.
        failed: Operations that raised or whose answer was wrong.
        latencies_s: One latency sample per timed call, per operation.
        segments: Operations per second of each segment of the phase.
        counters: Layer counters the workload read outside the timing.
    """

    attempted: int = 0
    failed: int = 0
    latencies_s: list[float] = field(default_factory=list)
    segments: list[float] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)

    @property
    def throughput(self) -> float:
        """Operations completed per second (median over segments)."""
        return statistics.median(self.segments)

    def merge(self, other: "Phase") -> "Phase":
        """Both phases as one (peak counters keep their maximum)."""
        counters = self.counters + other.counters
        for key in PEAK_COUNTERS:
            counters[key] = max(self.counters[key], other.counters[key])
        return Phase(
            attempted=self.attempted + other.attempted,
            failed=self.failed + other.failed,
            latencies_s=self.latencies_s + other.latencies_s,
            segments=self.segments + other.segments,
            counters=counters,
        )


class SetupTimer:
    """Accumulates the duration of named set-up stages."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.totals[name] += time.perf_counter() - start


def device(gpu: str) -> SimulatedDevice:
    """The simulated testbed of one GPU."""
    return SimulatedDevice(ALL_GPUS[gpu], seed=DEVICE_SEEDS[gpu])


def train_registry(gpu: str, timer: SetupTimer, cv: bool = False):
    """A kernel-model registry trained at the benchmark's small scale."""
    with timer.stage("build_perf_models_s"):
        registry, _ = build_perf_models(
            device(gpu),
            ml_kernels=CV_ML_KERNELS if cv else DEFAULT_ML_KERNELS,
            microbench_scale=MICROBENCH_SCALE,
            space=TRAIN_SPACE,
            epochs=TRAIN_EPOCHS,
            seed=TRAIN_SEED,
        )
    return registry


def profile_overheads(
    gpu: str, graphs: list, timer: SetupTimer
) -> OverheadDatabase:
    """Overhead database profiled from one graph, or pooled over many."""
    with timer.stage("overhead_profile_s"):
        traces = [
            device(gpu).run(
                graph, iterations=PROFILE_ITERATIONS, with_profiler=True,
                warmup=2,
            ).trace
            for graph in graphs
        ]
    if len(traces) == 1:
        return OverheadDatabase.from_trace(traces[0])
    return OverheadDatabase.shared(traces)


def distinct_kernels(graphs) -> list:
    """Distinct kernel calls of some graphs, in first-seen order."""
    return list(
        dict.fromkeys(k for g in graphs for k in plan_kernels(collect_plan(g)))
    )


def kernel_times(gpu: str, registry, graphs) -> tuple[list, list]:
    """Predicted and simulator-measured times of the graphs' distinct
    kernels."""
    kernels = distinct_kernels(graphs)
    testbed = device(gpu)
    return (
        list(registry.predict_many(kernels)),
        [testbed.measure_kernel_us(k) for k in kernels],
    )


def truth_us(gpu: str, graph) -> float:
    """Simulated ground-truth per-batch time of one graph."""
    return device(gpu).run(
        graph, iterations=TRUTH_ITERATIONS, warmup=1
    ).mean_e2e_us


def timed_calls(seconds: float, call, settle, speed: HostSpeed) -> Phase:
    """Serial closed loop: ``call(i)`` until ``seconds`` of timed work.

    ``settle(i, result)`` runs outside the timing: it verifies or stores
    the result (``None`` when the call raised) and returns
    ``(operations, failed operations)`` for the call.  The result is
    dropped before the next call.  The host speed is sampled, untimed,
    before the first call and at every segment boundary.
    """
    phase = Phase()
    segment_s = seconds / SEGMENTS
    busy_s = segment_busy_s = 0.0
    segment_ops = 0
    gc.collect()
    speed.sample()
    i = 0
    while busy_s < seconds:
        start = time.perf_counter()
        try:
            result = call(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = None
        elapsed = time.perf_counter() - start
        ops, failed = settle(i, result)
        result = None
        phase.attempted += ops
        phase.failed += failed
        phase.latencies_s.append(elapsed / ops)
        busy_s += elapsed
        segment_busy_s += elapsed
        segment_ops += ops
        if segment_busy_s >= segment_s or busy_s >= seconds:
            phase.segments.append(segment_ops / segment_busy_s)
            segment_busy_s = 0.0
            segment_ops = 0
            speed.sample()
        i += 1
    return phase


class Workload:
    """A seeded workload: set-up, timed phases, checks and accuracy."""

    name = ""

    def __init__(self, seed: int, speed: HostSpeed) -> None:
        self.rng = np.random.default_rng(seed)
        self.speed = speed

    def setup(self, timer: SetupTimer) -> None:
        """Build everything the first timed operation needs."""
        raise NotImplementedError

    def run(self, seconds: float, recorder: SpanRecorder | None = None
            ) -> Phase:
        """Measure for ``seconds``; spans go to ``recorder`` if given."""
        raise NotImplementedError

    def check(self, phase: Phase) -> None:
        """Compare the phase's answers with direct library calls."""

    def accuracy(self) -> tuple[float, float]:
        """``(e2e GMAE %, kernel GMAE %)`` on a seeded input sample."""
        raise NotImplementedError

    def close(self) -> None:
        """Release threads and other resources."""


# ----------------------------------------------------------------------
# What-if service workloads


def reference_response(request: WhatIfRequest, registry, overheads) -> dict:
    """What the service must answer, from a direct library call."""
    kind = request.kind
    if kind == REQUEST_PREDICT:
        response = WhatIfResponse(
            kind=kind, key="", cached=False,
            prediction=predict_e2e(request.graph, registry, overheads),
        )
    elif kind == REQUEST_KERNEL_ONLY:
        response = WhatIfResponse(
            kind=kind, key="", cached=False,
            kernel_only_us=predict_kernel_only_us(request.graph, registry),
        )
    elif kind == REQUEST_MEMORY:
        response = WhatIfResponse(
            kind=kind, key="", cached=False,
            memory=predict_memory(request.graph, optimizer=request.optimizer),
        )
    else:
        raise ValueError(f"unknown request kind {kind!r}")
    return payload(response)


def payload(response: WhatIfResponse) -> dict:
    """A response's answer, without its cache key and hit flag."""
    data = response.to_dict()
    del data["key"], data["cached"]
    return data


class _ServiceWorkload(Workload):
    """Shared set-up of the two what-if workloads."""

    gpu = "V100"

    def start_service(self, registry, overheads) -> None:
        self.registry = registry
        self.overheads = overheads
        self.service = PredictionService(
            registries={self.gpu: registry},
            overhead_dbs={"individual": overheads},
            batching=BatchingPolicy(
                max_batch=SERVICE_MAX_BATCH, timeout_us=SERVICE_TIMEOUT_US
            ),
            workers=SERVICE_WORKERS,
            memo_entries=SERVICE_MEMO_ENTRIES,
        )

    def service_counters(self) -> Counter:
        stats = self.service.stats()
        memo = stats.memo
        cache = stats.kernel_caches[self.gpu]
        return Counter(
            memo_hits=memo.hits,
            memo_misses=memo.misses,
            requests=sum(stats.requests.values()),
            batches=stats.batches_dispatched,
            cache_hits=cache.hits,
            cache_misses=cache.misses,
        )

    def finish_counters(self, phase: Phase, before: Counter) -> None:
        after = self.service_counters()
        after.subtract(before)
        phase.counters.update(after)
        phase.counters["queue_peak"] = self.service.stats().peak_queue_depth

    def graph_accuracy(self, graphs) -> tuple[float, float]:
        predicted = [
            predict_e2e(g, self.registry, self.overheads).total_us
            for g in graphs
        ]
        actual = [truth_us(self.gpu, g) for g in graphs]
        kernels = kernel_times(self.gpu, self.registry, graphs)
        return 100.0 * gmae(predicted, actual), 100.0 * gmae(*kernels)

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()


class WhatIfRepeat(_ServiceWorkload):
    """One closed-loop client re-asking a warm working set."""

    name = "whatif-repeat"
    #: (model, two batch sizes) of the working set.
    MODELS = (
        ("DLRM_default", (1024, 2048)),
        ("DLRM_MLPerf", (1024, 2048)),
        ("resnet50", (32, 64)),
        ("Transformer", (128, 256)),
    )

    def setup(self, timer: SetupTimer) -> None:
        registry = train_registry(self.gpu, timer, cv=True)
        with timer.stage("graph_build_s"):
            graphs = {
                (model, batch, mode): build_model(model, batch, mode=mode)
                for model, batches in self.MODELS
                for batch in batches
                for mode in (MODE_TRAIN, MODE_INFERENCE)
            }
        overheads = profile_overheads(
            self.gpu, [graphs["DLRM_default", RECORDED_BATCH, MODE_TRAIN]],
            timer,
        )
        self.graphs = list(graphs.values())
        self.requests = [
            WhatIfRequest(graph=g, kind=kind)
            for g in self.graphs
            for kind in REQUEST_KINDS
        ]
        self.start_service(registry, overheads)
        # Warm pass: a resident service has answered its working set
        # before; users of a warm service never pay the cold cost.
        for request in self.requests:
            self.service.predict(request)
        self.references: dict[int, dict] = {}
        self.order = self.shuffled_passes()

    def shuffled_passes(self):
        """Request indices: endless passes, each a seeded shuffle."""
        while True:
            yield from self.rng.permutation(len(self.requests)).tolist()

    def run(self, seconds: float, recorder: SpanRecorder | None = None
            ) -> Phase:
        predict = self.service.predict
        if recorder is not None:
            predict = recorder.wrap(predict, ROUNDTRIP, waits=True)
        order: list[int] = []
        responses: list[WhatIfResponse] = []

        def call(i: int) -> WhatIfResponse:
            order.append(next(self.order))
            return predict(self.requests[order[-1]])

        def settle(i: int, response) -> tuple[int, int]:
            responses.append(response)
            return 1, int(response is None)

        before = self.service_counters()
        phase = timed_calls(seconds, call, settle, self.speed)
        self.finish_counters(phase, before)
        self.pending = list(zip(order, responses))
        return phase

    def check(self, phase: Phase) -> None:
        for index, response in self.pending:
            if response is None:
                continue  # already counted as failed
            expected = self.references.get(index)
            if expected is None:
                expected = self.references[index] = reference_response(
                    self.requests[index], self.registry, self.overheads
                )
            if payload(response) != expected:
                phase.failed += 1
        self.pending = []

    def accuracy(self) -> tuple[float, float]:
        return self.graph_accuracy(self.graphs)


class WhatIfFresh(_ServiceWorkload):
    """Two closed-loop clients, each asking about never-seen graphs."""

    name = "whatif-fresh"
    CLIENTS = 2
    MODELS = tuple(sorted(DLRM_CONFIGS))
    #: Unique batch sizes are drawn from this range without replacement.
    BATCH_RANGE = (64, 16384)
    #: Accuracy sample: for every (model, mode) pair, the graphs of its
    #: first operations in the seeded sequence.
    ACCURACY_PER_STRATUM = 24

    def setup(self, timer: SetupTimer) -> None:
        registry = train_registry(self.gpu, timer)
        with timer.stage("graph_build_s"):
            recorded = build_model("DLRM_default", RECORDED_BATCH)
        overheads = profile_overheads(self.gpu, [recorded], timer)
        self.start_service(registry, overheads)
        batches = self.rng.permutation(np.arange(*self.BATCH_RANGE))
        models = self.rng.integers(len(self.MODELS), size=len(batches))
        modes = self.rng.integers(2, size=len(batches))
        kinds = self.rng.integers(len(REQUEST_KINDS), size=len(batches))
        self.ops = [
            (
                self.MODELS[m],
                int(b),
                (MODE_TRAIN, MODE_INFERENCE)[mode],
                REQUEST_KINDS[k],
            )
            for m, b, mode, k in zip(models, batches, modes, kinds)
        ]
        self.next_op = 0
        self.pending: list[tuple[int, WhatIfResponse | None]] = []

    def request(self, op: int, build=build_model) -> WhatIfRequest:
        model, batch, mode, kind = self.ops[op]
        return WhatIfRequest(graph=build(model, batch, mode=mode), kind=kind)

    def run(self, seconds: float, recorder: SpanRecorder | None = None
            ) -> Phase:
        predict = self.service.predict
        build = build_model
        if recorder is not None:
            predict = recorder.wrap(predict, ROUNDTRIP, waits=True)
            build = recorder.wrap(build, "models.build_model")
        before = self.service_counters()
        phase = Phase()
        gc.collect()
        for _ in range(SEGMENTS):
            # The clients stop between segments while the host speed is
            # sampled; sampling beside running clients would slow both.
            self.speed.sample()
            self.run_segment(seconds / SEGMENTS, predict, build, phase)
        self.speed.sample()
        self.finish_counters(phase, before)
        return phase

    def run_segment(self, seconds: float, predict, build,
                    phase: Phase) -> None:
        """Every client in a closed loop until ``seconds`` have passed."""
        first = self.next_op
        results: list[list] = [[] for _ in range(self.CLIENTS)]

        def client(c: int) -> None:
            op = first + c
            while time.perf_counter() < deadline:
                start = time.perf_counter()
                try:
                    response = predict(self.request(op, build))
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    response = None
                results[c].append((op, time.perf_counter() - start, response))
                op += self.CLIENTS

        threads = [
            threading.Thread(target=client, args=(c,), name=f"client-{c}")
            for c in range(self.CLIENTS)
        ]
        start = time.perf_counter()
        deadline = start + seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        done = 0
        for out in results:
            for op, latency, response in out:
                done += 1
                phase.failed += response is None
                phase.latencies_s.append(latency)
                self.pending.append((op, response))
                self.next_op = max(self.next_op, op + 1)
        phase.attempted += done
        phase.segments.append(done / elapsed)

    def check(self, phase: Phase) -> None:
        for op, response in self.pending:
            if response is None:
                continue  # already counted as failed
            expected = reference_response(
                self.request(op), self.registry, self.overheads
            )
            if payload(response) != expected:
                phase.failed += 1
        self.pending = []

    def accuracy(self) -> tuple[float, float]:
        taken: Counter = Counter()
        graphs = []
        for op, (model, _, mode, _) in enumerate(self.ops):
            if taken[model, mode] < self.ACCURACY_PER_STRATUM:
                taken[model, mode] += 1
                graphs.append(self.request(op).graph)
        return self.graph_accuracy(graphs)


# ----------------------------------------------------------------------
# Grid sweep


class SweepGrid(Workload):
    """Serial grid sweeps of DLRM_default with pruning."""

    name = "sweep-grid"
    GPUS = ("V100", "A100")
    #: The seed moves each batch size by up to ``BATCH_JITTER`` so the
    #: grid differs between seeds while its cost and pruned share stay
    #: nearly equal.
    BATCH_STRATA = tuple(range(256, 256 + 24 * 320, 320))
    BATCH_JITTER = 32
    BATCH_STEP = 8
    #: Reorder transforms: hoist this many movable nodes, one each.
    HOISTS = 2
    CUTOFF_US = 14_000.0
    #: Grid points checked against a direct prediction.
    SAMPLE = 12

    def setup(self, timer: SetupTimer) -> None:
        registries = {gpu: train_registry(gpu, timer) for gpu in self.GPUS}
        with timer.stage("graph_build_s"):
            dlrms = [
                build_model(model, RECORDED_BATCH)
                for model in ("DLRM_default", "DLRM_MLPerf", "DLRM_DDP")
            ]
        self.graph = dlrms[0]
        overhead_dbs = {
            "individual": profile_overheads("V100", dlrms[:1], timer),
            "shared": profile_overheads("V100", dlrms, timer),
        }
        transforms = {
            IDENTITY_TRANSFORM: lambda g: g,
            "fuse_embeddings": fuse_embedding_bags,
        }
        for node in self.graph.nodes:
            if len(transforms) == 2 + self.HOISTS:
                break
            nid = node.node_id
            if move_independent_earlier(self.graph, nid) is not self.graph:
                transforms[f"hoist-{nid}"] = (
                    lambda g, nid=nid: move_independent_earlier(g, nid)
                )
        self.engine = SweepEngine(
            registries=registries,
            overhead_dbs=overhead_dbs,
            transforms=transforms,
        )
        offsets = self.rng.integers(
            0, self.BATCH_JITTER // self.BATCH_STEP,
            size=len(self.BATCH_STRATA),
        )
        self.batches = [
            int(lo + self.BATCH_STEP * off)
            for lo, off in zip(self.BATCH_STRATA, offsets)
        ]
        self.grid_points = (
            len(transforms) * len(self.batches) * len(registries)
            * len(overhead_dbs)
        )
        self.first_json: str | None = None
        self.first_records: list = []
        self.sample: list = []

    def run(self, seconds: float, recorder: SpanRecorder | None = None
            ) -> Phase:
        engine = self.engine
        original = engine.transforms
        if recorder is not None:
            engine.transforms = {
                label: recorder.wrap(fn, "sweep.transforms")
                for label, fn in original.items()
            }
        counters = Counter()

        def call(i: int):
            # A `repro sweep` process starts with empty kernel caches.
            for registry in engine.registries.values():
                registry.cache_clear()
            return engine.run(
                self.graph, RECORDED_BATCH, self.batches,
                cutoff_us=self.CUTOFF_US,
            )

        def settle(i: int, result) -> tuple[int, int]:
            if result is None:
                return self.grid_points, self.grid_points
            ops = len(result) + result.pruned
            text = result.to_json()
            if self.first_json is None:
                self.first_json = text
                self.first_records = result.records
                picks = self.rng.choice(
                    len(result), min(self.SAMPLE, len(result)), replace=False
                )
                self.sample = [result.records[int(p)] for p in sorted(picks)]
            counters["points"] += ops
            counters["pruned"] += result.pruned
            for registry in engine.registries.values():
                info = registry.cache_info()
                counters["cache_hits"] += info.hits
                counters["cache_misses"] += info.misses
            return ops, (ops if text != self.first_json else 0)

        try:
            phase = timed_calls(seconds, call, settle, self.speed)
        finally:
            engine.transforms = original
        phase.counters.update(counters)
        return phase

    def sample_graph(self, record):
        point = record.point
        transformed = self.engine.transforms[point.transform](self.graph)
        return rescale_batch(transformed, RECORDED_BATCH, point.batch_size)

    def check(self, phase: Phase) -> None:
        for record in self.sample:
            direct = predict_e2e(
                self.sample_graph(record),
                self.engine.registries[record.point.gpu],
                self.engine.overhead_dbs[record.point.overheads],
            )
            if direct.to_dict() != record.prediction.to_dict():
                phase.failed += 1

    def accuracy(self) -> tuple[float, float]:
        """Scored on every grid point the first call evaluated."""
        graphs: dict[tuple, object] = {}
        truths: dict[tuple, float] = {}
        predicted, actual = [], []
        for record in self.first_records:
            point = record.point
            key = (point.transform, point.batch_size)
            if key not in graphs:
                graphs[key] = self.sample_graph(record)
            if key + (point.gpu,) not in truths:
                truths[key + (point.gpu,)] = truth_us(point.gpu, graphs[key])
            predicted.append(record.prediction.total_us)
            actual.append(truths[key + (point.gpu,)])
        kernel_predicted, kernel_measured = [], []
        for gpu, registry in self.engine.registries.items():
            p, m = kernel_times(
                gpu, registry,
                [graphs[k[:2]] for k in truths if k[2] == gpu],
            )
            kernel_predicted += p
            kernel_measured += m
        return (
            100.0 * gmae(predicted, actual),
            100.0 * gmae(kernel_predicted, kernel_measured),
        )


# ----------------------------------------------------------------------
# Fleet capacity planning


class PlanFleet(Workload):
    """Capacity searches over single-GPU, sharded and two-node fleets."""

    name = "plan-fleet"
    GPU = "A100"
    BATCHES = (1, 2, 4, 8, 16, 32, 64, 128, 256)
    SERVING_BATCH = 256
    QPS = 50_000.0
    SLO_MS = 5.0

    def setup(self, timer: SetupTimer) -> None:
        self.registry = train_registry(self.GPU, timer)
        with timer.stage("graph_build_s"):
            serving_graph = build_model(
                "DLRM_default", self.SERVING_BATCH, mode=MODE_INFERENCE
            )
        self.overheads = profile_overheads(self.GPU, [serving_graph], timer)
        self.engine = SweepEngine(
            registries={self.GPU: self.registry},
            overhead_dbs={"individual": self.overheads},
        )
        self.planner = CapacityPlanner(
            self.engine, ServingTarget.from_ms(self.QPS, self.SLO_MS)
        )
        self.fleets = [
            CandidateFleet(self.GPU, gpus_per_replica=1, max_replicas=512),
            CandidateFleet(self.GPU, gpus_per_replica=2, max_replicas=256),
            CandidateFleet(self.GPU, gpus_per_replica=4, max_replicas=128),
            CandidateFleet(self.GPU, gpus_per_replica=4, nodes=2,
                           max_replicas=128),
        ]
        # The seed picks the validation simulator's arrival traces.
        self.validate_seed = int(self.rng.integers(1 << 31))
        self.reference = plans_to_json(self.plan())

    def plan(self, recorder: SpanRecorder | None = None):
        def flat(devices: int) -> CollectiveModel:
            return CollectiveModel.calibrate(
                GroundTruthCollectives(NVLINK), devices
            )

        def topo(topology) -> TopologyCollectiveModel:
            return TopologyCollectiveModel.calibrate(
                GroundTruthTopologyCollectives(topology)
            )

        if recorder is not None:
            flat = recorder.wrap(flat, "multigpu.calibrate")
            topo = recorder.wrap(topo, "multigpu.calibrate")
        # A `repro capacity` process starts with an empty kernel cache.
        self.registry.cache_clear()
        return self.planner.plan_dlrm(
            DLRM_DEFAULT,
            self.BATCHES,
            fleets=self.fleets,
            collective_model_for=flat,
            topology_model_for=topo,
            intra_fabric=NVLINK,
            inter_fabric=NETWORK_FABRICS["100GbE"],
            prune=True,
            validate=VALIDATE_SIMULATE,
            validate_seed=self.validate_seed,
        )

    def run(self, seconds: float, recorder: SpanRecorder | None = None
            ) -> Phase:
        counters = Counter()

        def settle(i: int, plans) -> tuple[int, int]:
            if plans is None:
                return 1, 1
            stats = self.planner.last_prune_stats
            counters["capacity_pruned"] += stats["pruned"]
            counters["capacity_evaluated"] += stats["evaluated"]
            info = self.registry.cache_info()
            counters["cache_hits"] += info.hits
            counters["cache_misses"] += info.misses
            return 1, int(plans_to_json(plans) != self.reference)

        phase = timed_calls(
            seconds, lambda i: self.plan(recorder), settle, self.speed
        )
        phase.counters.update(counters)
        return phase

    def accuracy(self) -> tuple[float, float]:
        graphs = [
            build_dlrm_graph(DLRM_DEFAULT, b, mode=MODE_INFERENCE)
            for b in self.BATCHES
        ]
        predicted = [
            predict_e2e(g, self.registry, self.overheads).total_us
            for g in graphs
        ]
        actual = [truth_us(self.GPU, g) for g in graphs]
        kernels = kernel_times(self.GPU, self.registry, graphs)
        return 100.0 * gmae(predicted, actual), 100.0 * gmae(*kernels)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (WhatIfRepeat, WhatIfFresh, SweepGrid, PlanFleet)
}
