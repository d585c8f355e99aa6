"""Kernel performance model interface and registry.

A kernel performance model predicts the execution time of one kernel
type from its parameters.  Models are shared across all ops that call
the same kernel type (the paper's key cost saving: ``addmm``, ``bmm``
and their backwards all use the one GEMM model).  The registry maps
kernel types to models and is what the E2E predictor dispatches
through (Algorithm 1's ``{M}``).

Prediction is *batched and memoized*: :meth:`PerfModelRegistry.predict_many`
groups a kernel population by type, deduplicates identical calls
(:class:`~repro.ops.KernelCall` is hashable by design), dispatches one
:meth:`KernelPerfModel.predict_batch` call per type, and caches results
in a bounded per-registry LRU keyed by ``KernelCall.key``: plain
tuples the garbage collector stops tracking, so full-collection pauses
barely grow with the cache.  What-if sweeps that re-evaluate
overlapping kernel populations (batch-size grids, fusion studies,
scaling curves) therefore pay for each distinct kernel exactly once.

The cache is *thread-safe*: every structural mutation (lookup + LRU
reorder, insert, evict, invalidate, clear) and every counter update
happens under one re-entrant lock, so the concurrent prediction server
(:mod:`repro.service`) can share a warm registry across its worker
pool without lost updates or a corrupted ``OrderedDict``.
"""

from __future__ import annotations

import hashlib
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.ops import KernelCall

#: Default bound on the per-registry prediction cache (distinct kernels).
DEFAULT_CACHE_SIZE = 65536


class KernelPerfModel(ABC):
    """Predicts execution time (µs) of one kernel type."""

    #: Kernel type this model covers (a :class:`repro.ops.KernelType` key).
    kernel_type: str = ""

    @abstractmethod
    def predict_us(self, params: Mapping[str, float]) -> float:
        """Predicted kernel execution time in microseconds."""

    def predict_batch(
        self, params_list: Sequence[Mapping[str, float]]
    ) -> np.ndarray:
        """Predicted times (µs) for many parameter sets at once.

        The base implementation loops :meth:`predict_us`; vectorized
        subclasses override it.  Overrides must stay bit-identical to
        the looped scalar path (a property test enforces this for every
        registered model).
        """
        return np.array(
            [self.predict_us(params) for params in params_list],
            dtype=np.float64,
        )

    def predict_kernel(self, kernel: KernelCall) -> float:
        """Predict for a :class:`KernelCall`, validating its type."""
        if kernel.kernel_type != self.kernel_type:
            raise ValueError(
                f"model for {self.kernel_type!r} got a "
                f"{kernel.kernel_type!r} kernel"
            )
        return self.predict_us(kernel.params)


@dataclass(frozen=True)
class CacheInfo:
    """Hit/miss statistics of a registry's prediction cache."""

    hits: int
    misses: int
    size: int
    max_size: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def since(self, earlier: "CacheInfo") -> "CacheInfo":
        """Counter delta between this snapshot and an ``earlier`` one.

        ``size``/``max_size`` keep their current (later) values — they
        are states, not counters.  This is how sweeps report the hit
        rate of *one run* against a registry whose cache has lived
        through earlier work.
        """
        return CacheInfo(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            size=self.size,
            max_size=self.max_size,
        )

    @classmethod
    def merged(cls, infos: Iterable["CacheInfo"]) -> "CacheInfo":
        """Aggregate statistics over several caches (or cache deltas).

        Hits and misses sum; ``size``/``max_size`` take the maximum —
        the parallel sweep merges per-worker deltas of forked
        copy-on-write caches, which all descend from one parent cache.
        """
        hits = misses = size = max_size = 0
        for info in infos:
            hits += info.hits
            misses += info.misses
            size = max(size, info.size)
            max_size = max(max_size, info.max_size)
        return cls(hits=hits, misses=misses, size=size, max_size=max_size)

    def to_dict(self) -> dict:
        """JSON-compatible row (hit rate included for reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "max_size": self.max_size,
            "hit_rate": self.hit_rate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CacheInfo":
        """Inverse of :meth:`to_dict` (``hit_rate`` is derived, ignored)."""
        return cls(
            hits=data["hits"],
            misses=data["misses"],
            size=data["size"],
            max_size=data["max_size"],
        )


class PerfModelRegistry:
    """Kernel-type -> performance-model dispatch table with a memo cache."""

    def __init__(self, cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        self._models: dict[str, KernelPerfModel] = {}
        self._cache: OrderedDict[tuple, float] = OrderedDict()
        # Cache keys indexed by kernel type so replacing one model
        # invalidates exactly its own entries (no full-LRU scan).
        self._by_type: dict[str, dict[tuple, None]] = {}
        self._cache_size = max(int(cache_size), 0)
        self._hits = 0
        self._misses = 0
        # Guards the cache, its per-type index and the hit/miss
        # counters.  Re-entrant so predict_us -> predict_many and a
        # model-swap inside a locked section both stay safe.
        self._lock = threading.RLock()
        # Bumped on every model (re)registration.  predict_many runs
        # its model dispatch outside the lock; values computed against
        # a replaced model's epoch are returned to that caller but kept
        # out of the cache (inserting them would resurrect entries the
        # registration just invalidated).
        self._epoch = 0

    def register(self, model: KernelPerfModel) -> "PerfModelRegistry":
        """Add (or replace) the model for its kernel type; chainable."""
        if not model.kernel_type:
            raise ValueError("model does not declare a kernel_type")
        with self._lock:
            self._models[model.kernel_type] = model
            self._epoch += 1
            # A replaced model invalidates every memoized value of its
            # type; the per-type key index makes this O(entries of that
            # type) instead of a scan over the whole cache.
            for key in self._by_type.pop(model.kernel_type, ()):
                del self._cache[key]
        return self

    def ensure_cache_capacity(self, num_kernels: int) -> int:
        """Grow the cache bound to hold at least ``num_kernels`` entries.

        The bound only ever grows — shrinking a warm cache would evict
        live entries.  Sweep engines call this with the grid's
        deduplicated kernel population so the "predict once, then
        cache-hit traverse" contract holds at any grid size (a
        population larger than the bound would otherwise thrash the
        LRU back to per-point re-prediction).  A registry constructed
        with ``cache_size=0`` keeps caching disabled.

        Returns:
            The (possibly grown) cache bound.
        """
        with self._lock:
            if self._cache_size > 0:
                self._cache_size = max(self._cache_size, int(num_kernels))
            return self._cache_size

    def model_for(self, kernel_type: str) -> KernelPerfModel:
        """The registered model for ``kernel_type``."""
        try:
            return self._models[kernel_type]
        except KeyError:
            known = ", ".join(sorted(self._models))
            raise KeyError(
                f"no performance model registered for {kernel_type!r}; "
                f"registered: {known or '(none)'}"
            ) from None

    def predict_us(self, kernel: KernelCall) -> float:
        """Predict execution time of one kernel call (memoized)."""
        return float(self.predict_many([kernel])[0])

    def predict_many(self, kernels: Sequence[KernelCall]) -> np.ndarray:
        """Predict execution times (µs) of a population of kernel calls.

        Deduplicates identical calls, serves repeats from the bounded
        per-registry cache, groups the remaining misses by kernel type,
        and dispatches one :meth:`KernelPerfModel.predict_batch` call
        per type.  Returns one time per input kernel, in input order.

        Thread-safe: cache lookups and inserts happen under the
        registry lock; the model dispatch itself runs outside it, so
        concurrent callers predicting disjoint populations overlap.
        Two threads missing on the same kernel may both compute it —
        the models are deterministic, so the duplicate write is benign
        (each deduplicated lookup still counts exactly one hit or one
        miss).
        """
        times: dict[KernelCall, float] = {}
        by_type: dict[str, list[KernelCall]] = {}
        with self._lock:
            for kernel in kernels:
                if kernel in times:
                    continue
                cached = self._cache.get(kernel.key)
                if cached is not None:
                    self._hits += 1
                    self._cache.move_to_end(kernel.key)
                    times[kernel] = cached
                else:
                    self._misses += 1
                    by_type.setdefault(kernel.kernel_type, []).append(kernel)
                    times[kernel] = 0.0  # placeholder; keeps dedup in one pass
            models = {
                kernel_type: self.model_for(kernel_type)
                for kernel_type in by_type
            }
            epoch = self._epoch

        predicted_by_type: dict[str, np.ndarray] = {}
        for kernel_type, misses in by_type.items():
            predicted = models[kernel_type].predict_batch(
                [k.params for k in misses]
            )
            if len(predicted) != len(misses):
                raise ValueError(
                    f"{kernel_type} model's predict_batch returned "
                    f"{len(predicted)} values for {len(misses)} kernels"
                )
            predicted_by_type[kernel_type] = predicted

        with self._lock:
            # A registration since the lookup phase invalidated entries;
            # values computed against the old models still serve *this*
            # call (it began before the swap) but must not be cached.
            cacheable = epoch == self._epoch
            for kernel_type, misses in by_type.items():
                for kernel, t in zip(misses, predicted_by_type[kernel_type]):
                    t = float(t)
                    times[kernel] = t
                    if not cacheable:
                        continue
                    self._cache[kernel.key] = t
                    self._by_type.setdefault(kernel_type, {})[kernel.key] = None
            while len(self._cache) > self._cache_size:
                evicted, _ = self._cache.popitem(last=False)
                index = self._by_type.get(evicted[0])
                if index is not None:
                    index.pop(evicted, None)
                    if not index:
                        del self._by_type[evicted[0]]

        return np.array([times[k] for k in kernels], dtype=np.float64)

    def cache_info(self) -> CacheInfo:
        """Current prediction-cache statistics (a consistent snapshot)."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                size=len(self._cache),
                max_size=self._cache_size,
            )

    def cache_clear(self) -> None:
        """Drop all memoized predictions and reset the counters."""
        with self._lock:
            self._cache.clear()
            self._by_type.clear()
            self._hits = 0
            self._misses = 0

    @property
    def kernel_types(self) -> tuple[str, ...]:
        """Registered kernel types."""
        with self._lock:
            return tuple(sorted(self._models))

    def fingerprint(self, kernel_types: Sequence[str] | None = None) -> str:
        """Stable content digest of the registered models.

        Two registries whose (selected) models would produce identical
        predictions for every kernel share a fingerprint; retraining or
        replacing a model changes it.  Incremental re-sweeps combine
        this with plan and overhead digests to decide which persisted
        grid points are still valid — restricting ``kernel_types`` to
        the types a plan actually dispatches keeps unrelated model
        swaps from invalidating it.

        The digest is content-based (model class plus parameter state,
        ``hashlib``-hashed), so it is stable across processes — unlike
        ``id()``-style identity or the randomized ``hash()`` builtin.
        """
        selected = (
            self.kernel_types
            if kernel_types is None
            else tuple(sorted(set(kernel_types)))
        )
        digest = hashlib.sha256()
        with self._lock:
            for kernel_type in selected:
                digest.update(kernel_type.encode())
                model = self._models.get(kernel_type)
                if model is None:
                    digest.update(b"<unregistered>")
                    continue
                digest.update(type(model).__name__.encode())
                _update_digest(digest, vars(model))
        return digest.hexdigest()[:16]


def _update_digest(digest, obj, _depth: int = 0) -> None:
    """Feed one object's value (recursively) into a hash digest.

    Handles the states performance models actually carry — floats,
    strings, numpy arrays, nested dataclass-like objects — and falls
    back to ``repr`` for anything else.  Depth-bounded so a cyclic
    object cannot hang the fingerprint.
    """
    if _depth > 8:
        digest.update(b"<deep>")
        return
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        digest.update(repr(obj).encode())
    elif isinstance(obj, np.ndarray):
        digest.update(str(obj.dtype).encode())
        digest.update(str(obj.shape).encode())
        digest.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, Mapping):
        for key in sorted(obj, key=repr):
            digest.update(repr(key).encode())
            _update_digest(digest, obj[key], _depth + 1)
    elif isinstance(obj, (list, tuple)):
        digest.update(b"[")
        for item in obj:
            _update_digest(digest, item, _depth + 1)
        digest.update(b"]")
    elif callable(obj):
        digest.update(getattr(obj, "__qualname__", repr(type(obj))).encode())
    elif hasattr(obj, "__dict__"):
        digest.update(type(obj).__name__.encode())
        _update_digest(digest, vars(obj), _depth + 1)
    else:
        digest.update(repr(obj).encode())
