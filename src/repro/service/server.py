"""The concurrent prediction server.

:class:`PredictionService` keeps registries, overhead databases and
trained MLP weights resident and answers
:class:`~repro.service.request.WhatIfRequest` queries through a
thread-pool front end:

1. ``submit()`` enqueues the request and returns a future; a single
   dispatcher thread seals the queue into micro-batches under the
   resident :class:`~repro.serving.BatchingPolicy` (seal as soon as
   ``max_batch`` requests wait *or* the oldest has waited
   ``timeout_us``; a zero timeout dispatches every request alone — the
   same edge semantics the serving simulator executes).
2. A worker pool executes each micro-batch: canonicalize every request
   to its content key, serve memo hits, then predict all remaining
   kernel populations through **one** ``predict_many`` call per
   registry label and traverse each plan against its precomputed
   slice.
3. Answers enter the graph-level memo tier tagged with the asset
   labels they were computed from; ``register_registry`` /
   ``register_overheads`` invalidate exactly those tags.

Determinism guarantee: responses are byte-identical to direct
:func:`~repro.e2e.predict_e2e` (or the kernel-only baseline /
:func:`~repro.e2e.predict_memory`) on every path — cold, memo-hit and
batched-concurrent — because ``predict_batch`` is row-stable (each
kernel's value is independent of what else shares its batch) and the
traversal consumes only that request's slice.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Mapping

from repro.e2e.memory import predict_memory
# collect_plan is unused since plans come from the graph memo, but it
# stays bound: perfbench's traced run wraps this module's names.
from repro.e2e.predictor import (  # noqa: F401
    DEFAULT_T4_US,
    KERNEL_GAP_US,
    collect_plan,
    traverse_plan,
)
from repro.overheads import OverheadDatabase
from repro.perfmodels import PerfModelRegistry
from repro.service.canonical import plan_and_types, request_key
from repro.service.memo import DEFAULT_MEMO_ENTRIES, GraphMemoCache
from repro.service.request import (
    REQUEST_KERNEL_ONLY,
    REQUEST_KINDS,
    REQUEST_MEMORY,
    REQUEST_PREDICT,
    WhatIfRequest,
    WhatIfResponse,
)
from repro.service.stats import LatencyHistogram, ServiceStats
from repro.serving import BatchingPolicy

#: Default worker-pool width (micro-batches executing concurrently).
DEFAULT_WORKERS = 4

#: Tag namespaces keeping registry labels and overhead-DB labels from
#: colliding in the memo tier's invalidation index.
_GPU_TAG = "gpu:"
_DB_TAG = "db:"


def _memo_tags(kind: str, gpu: str, db_label: str) -> tuple[str, ...]:
    """Asset tags of a request kind's answer: the labels it was priced
    with, so re-registering one invalidates exactly its answers."""
    if kind == REQUEST_PREDICT:
        return (_GPU_TAG + gpu, _DB_TAG + db_label)
    if kind == REQUEST_KERNEL_ONLY:
        return (_GPU_TAG + gpu,)
    return ()


class _Pending:
    """One queued request: payload, its future and its enqueue time."""

    __slots__ = ("request", "future", "enqueued_at")

    def __init__(self, request: WhatIfRequest, future: Future) -> None:
        self.request = request
        self.future = future
        self.enqueued_at = time.perf_counter()


class PredictionService:
    """Long-lived, concurrent what-if server over resident assets.

    Use as a context manager (``with PredictionService(...) as svc:``)
    or call :meth:`close` explicitly; close drains the queue before
    shutting the pool down, so every submitted future completes.
    """

    def __init__(
        self,
        registries: Mapping[str, PerfModelRegistry],
        overhead_dbs: Mapping[str, OverheadDatabase],
        default_gpu: str | None = None,
        default_overheads: str | None = None,
        batching: BatchingPolicy | None = None,
        workers: int = DEFAULT_WORKERS,
        memo_entries: int = DEFAULT_MEMO_ENTRIES,
        t4_us: float | None = DEFAULT_T4_US,
        kernel_gap_us: float = KERNEL_GAP_US,
        sync_h2d: bool = False,
    ) -> None:
        """Start the server with its resident assets.

        Args:
            registries: Registry label -> warm kernel models.
            overhead_dbs: Overhead-DB label -> overhead statistics.
            default_gpu: Registry label a request with an empty ``gpu``
                resolves to (default: first label in sorted order).
            default_overheads: Overhead-DB label an empty ``overheads``
                resolves to (default: first label in sorted order).
            batching: Micro-batch seal policy (max-batch + timeout);
                defaults to :class:`~repro.serving.BatchingPolicy`'s
                defaults.
            workers: Worker threads executing sealed micro-batches.
            memo_entries: Bound of the graph-level memo tier.
            t4_us: Traversal knob — flat CUDA-runtime-call cost.
            kernel_gap_us: Traversal knob — inter-kernel device gap.
            sync_h2d: Traversal knob — synchronous pageable H2D copies.
        """
        if not registries:
            raise ValueError("service needs at least one registry")
        if not overhead_dbs:
            raise ValueError("service needs at least one overhead database")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._registries = dict(registries)
        self._overhead_dbs = dict(overhead_dbs)
        self._default_gpu = default_gpu or sorted(self._registries)[0]
        self._default_overheads = (
            default_overheads or sorted(self._overhead_dbs)[0]
        )
        if self._default_gpu not in self._registries:
            raise KeyError(f"unknown default registry {self._default_gpu!r}")
        if self._default_overheads not in self._overhead_dbs:
            raise KeyError(
                f"unknown default overhead DB {self._default_overheads!r}"
            )
        self._batching = batching if batching is not None else BatchingPolicy()
        self._t4_us = t4_us
        self._kernel_gap_us = kernel_gap_us
        self._sync_h2d = sync_h2d
        self._memo = GraphMemoCache(memo_entries)

        # Guards the asset tables.
        self._assets_lock = threading.RLock()

        self._cond = threading.Condition()
        self._pending: deque[_Pending] = deque()
        self._closed = False

        self._metrics_lock = threading.Lock()
        self._request_counts = {kind: 0 for kind in REQUEST_KINDS}
        self._peak_queue_depth = 0
        self._batches_dispatched = 0
        self._peak_batch = 0
        self._latency = LatencyHistogram()

        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service"
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # Front end

    def submit(self, request: WhatIfRequest) -> Future:
        """Enqueue one request; the future resolves to a response."""
        future: Future = Future()
        with self._cond:
            if self._closed:
                raise RuntimeError("service is closed")
            self._pending.append(_Pending(request, future))
            depth = len(self._pending)
            self._cond.notify_all()
        with self._metrics_lock:
            if depth > self._peak_queue_depth:
                self._peak_queue_depth = depth
        return future

    def predict(self, request: WhatIfRequest) -> WhatIfResponse:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(request).result()

    def predict_all(
        self, requests: list[WhatIfRequest]
    ) -> list[WhatIfResponse]:
        """Submit many requests at once and gather their responses.

        Submitting before gathering lets the dispatcher coalesce them
        into micro-batches (a sequential ``predict`` loop never leaves
        more than one request in the queue).
        """
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Asset registration / invalidation

    def register_registry(
        self, label: str, registry: PerfModelRegistry
    ) -> int:
        """Install (or replace) a registry; invalidates its memo entries.

        Returns:
            Number of memoized answers dropped.
        """
        with self._assets_lock:
            self._registries[label] = registry
        return self._memo.invalidate(_GPU_TAG + label)

    def register_overheads(
        self, label: str, overheads: OverheadDatabase
    ) -> int:
        """Install (or replace) an overhead DB; invalidates its entries.

        Returns:
            Number of memoized answers dropped.
        """
        with self._assets_lock:
            self._overhead_dbs[label] = overheads
        return self._memo.invalidate(_DB_TAG + label)

    # ------------------------------------------------------------------
    # Dispatcher + workers

    def _dispatch_loop(self) -> None:
        """Seal the queue into micro-batches and hand them to the pool.

        Single-threaded, so seal decisions are totally ordered — the
        role the simulator's seal epoch plays across its event queue.
        """
        batch: list[_Pending] = []
        try:
            while True:
                batch = self._seal()
                if not batch:
                    return  # closed and drained
                with self._metrics_lock:
                    self._batches_dispatched += 1
                    if len(batch) > self._peak_batch:
                        self._peak_batch = len(batch)
                self._pool.submit(self._execute, batch)
                batch = []  # the pool owns it now
        except BaseException as err:
            # A dead dispatcher would strand every queued future: close
            # the service and fail them (and the batch in hand) instead.
            with self._cond:
                self._closed = True
                batch.extend(self._pending)
                self._pending.clear()
            for pending in batch:
                self._complete(pending, err)

    def _seal(self) -> list[_Pending]:
        """Wait for and pop the next micro-batch; empty once closed
        and drained."""
        policy = self._batching
        with self._cond:
            while not self._pending and not self._closed:
                self._cond.wait()
            if not self._pending:
                return []
            if policy.batched:
                deadline = (
                    self._pending[0].enqueued_at + policy.timeout_us / 1e6
                )
                while (
                    len(self._pending) < policy.max_batch
                    and not self._closed
                ):
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
            take = policy.max_batch if policy.batched else 1
            return [
                self._pending.popleft()
                for _ in range(min(take, len(self._pending)))
            ]

    def _resolve(
        self, gpu: str, db_label: str
    ) -> tuple[PerfModelRegistry, OverheadDatabase]:
        """Resolve a request's asset labels to the resident assets."""
        with self._assets_lock:
            try:
                registry = self._registries[gpu]
            except KeyError:
                known = ", ".join(sorted(self._registries))
                raise KeyError(
                    f"no resident registry {gpu!r}; known: {known}"
                ) from None
            try:
                overheads = self._overhead_dbs[db_label]
            except KeyError:
                known = ", ".join(sorted(self._overhead_dbs))
                raise KeyError(
                    f"no resident overhead DB {db_label!r}; known: {known}"
                ) from None
        return registry, overheads

    def _execute(self, batch: list[_Pending]) -> None:
        """Run one micro-batch; an escape fails its unresolved futures."""
        try:
            self._execute_batch(batch)
        except BaseException as err:  # the pool would discard it
            for pending in batch:
                if not pending.future.done():
                    self._complete(pending, err)

    def _execute_batch(self, batch: list[_Pending]) -> None:
        """Run one sealed micro-batch end to end."""
        # Per-request resolution + canonicalization + memo lookup.
        misses: list[dict] = []
        done: list[tuple[_Pending, WhatIfResponse | BaseException]] = []
        for pending in batch:
            request = pending.request
            try:
                gpu = request.gpu or self._default_gpu
                db_label = request.overheads or self._default_overheads
                tags = _memo_tags(request.kind, gpu, db_label)
                # Snapshot before resolving: an asset re-registered from
                # here on turns this answer's memo insert into a no-op.
                epochs = self._memo.epochs(tags)
                registry, overheads = self._resolve(gpu, db_label)
                if request.kind == REQUEST_MEMORY:
                    plan = None
                    registry_fp = ""
                    db_fp = ""
                else:
                    plan, types = plan_and_types(request.graph)
                    registry_fp = registry.fingerprint(types)
                    db_fp = (
                        overheads.fingerprint()
                        if request.kind == REQUEST_PREDICT
                        else ""
                    )
                key = request_key(
                    request,
                    registry_fp=registry_fp,
                    db_fp=db_fp,
                    t4_us=self._t4_us,
                    kernel_gap_us=self._kernel_gap_us,
                    sync_h2d=self._sync_h2d,
                )
                hit = self._memo.get(key)
                if hit is not None:
                    done.append(
                        (pending, self._response(request.kind, key, hit, True))
                    )
                    continue
                misses.append(
                    {
                        "pending": pending,
                        "key": key,
                        "gpu": gpu,
                        "registry": registry,
                        "overheads": overheads,
                        "plan": plan,
                        "tags": tags,
                        "epochs": epochs,
                    }
                )
            except BaseException as err:  # resolution/canonicalization
                done.append((pending, err))

        self._predict_misses(misses, done)
        for pending, outcome in done:
            self._complete(pending, outcome)

    def _predict_misses(
        self,
        misses: list[dict],
        done: list[tuple[_Pending, WhatIfResponse | BaseException]],
    ) -> None:
        """Compute every memo miss of one micro-batch.

        All prediction-kind requests sharing a registry are priced
        through one concatenated ``predict_many`` call — the
        micro-batching that amortizes cache lookups and model dispatch
        across concurrent clients.  A raising call fails only the
        misses of its registry group.
        """
        by_gpu: dict[str, list[dict]] = {}
        for miss in misses:
            if miss["pending"].request.kind == REQUEST_MEMORY:
                continue
            by_gpu.setdefault(miss["gpu"], []).append(miss)
        for gpu_misses in by_gpu.values():
            registry = gpu_misses[0]["registry"]
            kernels = []
            spans = []
            for miss in gpu_misses:
                plan_kernels_flat = [
                    k for _, _, ks in miss["plan"] for k in ks
                ]
                spans.append(
                    (len(kernels), len(kernels) + len(plan_kernels_flat))
                )
                kernels.extend(plan_kernels_flat)
            try:
                times = registry.predict_many(kernels)
            except BaseException as err:
                for miss in gpu_misses:
                    miss["fault"] = err
                continue
            for miss, (start, stop) in zip(gpu_misses, spans):
                miss["times"] = times[start:stop]

        for miss in misses:
            pending = miss["pending"]
            if "fault" in miss:
                done.append((pending, miss["fault"]))
                continue
            request = pending.request
            try:
                if request.kind == REQUEST_PREDICT:
                    payload = traverse_plan(
                        miss["plan"],
                        miss["times"],
                        miss["overheads"],
                        t4_us=self._t4_us,
                        kernel_gap_us=self._kernel_gap_us,
                        sync_h2d=self._sync_h2d,
                    )
                elif request.kind == REQUEST_KERNEL_ONLY:
                    total_us = 0.0
                    for t in miss["times"]:
                        total_us += float(t)
                    payload = total_us
                elif request.kind == REQUEST_MEMORY:
                    payload = predict_memory(
                        request.graph, optimizer=request.optimizer
                    )
                else:  # pragma: no cover - __post_init__ rejects these
                    raise ValueError(f"unknown request kind {request.kind!r}")
                self._memo.put(
                    miss["key"], payload, miss["tags"], miss["epochs"]
                )
                done.append(
                    (
                        pending,
                        self._response(request.kind, miss["key"], payload,
                                       False),
                    )
                )
            except BaseException as err:
                done.append((pending, err))

    @staticmethod
    def _response(
        kind: str, key: str, payload, cached: bool
    ) -> WhatIfResponse:
        """Wrap a memo payload in a response for its request kind."""
        if kind == REQUEST_PREDICT:
            return WhatIfResponse(
                kind=kind, key=key, cached=cached, prediction=payload
            )
        if kind == REQUEST_KERNEL_ONLY:
            return WhatIfResponse(
                kind=kind, key=key, cached=cached, kernel_only_us=payload
            )
        return WhatIfResponse(kind=kind, key=key, cached=cached,
                              memory=payload)

    def _complete(
        self,
        pending: _Pending,
        outcome: WhatIfResponse | BaseException,
    ) -> None:
        """Record metrics and resolve one request's future."""
        latency_us = (time.perf_counter() - pending.enqueued_at) * 1e6
        with self._metrics_lock:
            self._request_counts[pending.request.kind] += 1
        self._latency.record(latency_us)
        if isinstance(outcome, BaseException):
            pending.future.set_exception(outcome)
        else:
            pending.future.set_result(outcome)

    # ------------------------------------------------------------------
    # Observability + lifecycle

    def stats(self) -> ServiceStats:
        """One consistent observability snapshot."""
        with self._cond:
            queue_depth = len(self._pending)
        with self._assets_lock:
            kernel_caches = {
                label: registry.cache_info()
                for label, registry in self._registries.items()
            }
        with self._metrics_lock:
            requests = dict(self._request_counts)
            peak_queue = self._peak_queue_depth
            batches = self._batches_dispatched
            peak_batch = self._peak_batch
        return ServiceStats(
            requests=requests,
            memo=self._memo.info(),
            kernel_caches=kernel_caches,
            queue_depth=queue_depth,
            peak_queue_depth=peak_queue,
            batches_dispatched=batches,
            peak_batch=peak_batch,
            latency=self._latency.summary(),
        )

    def memo_info(self):
        """Graph-level memo-tier statistics (shortcut for tests/CLI)."""
        return self._memo.info()

    def close(self) -> None:
        """Drain the queue, stop the dispatcher, shut the pool down.

        Idempotent, and also shuts down a service whose dispatcher
        already closed it on a crash.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._dispatcher.join()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "PredictionService":
        """Context-manager entry (the service is already running)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()
