"""Structural request canonicalizer.

Two requests that would provably produce the same answer must hash to
the same content key, and any perturbation that could change the
answer must change the key.  Each request kind keys exactly the inputs
it consumes:

* ``predict`` — :func:`repro.e2e.prediction_key` (the sweep engine's
  fingerprint function) over the plan digest, the registry fingerprint
  restricted to the plan's kernel types, the overhead-DB fingerprint
  and the traversal knobs ``(t4_us, kernel_gap_us, sync_h2d)``;
* ``kernel_only`` — the same key without overheads and knobs (the
  baseline reads neither);
* ``memory`` — a full structural graph digest (liveness analysis reads
  tensor metadata the plan does not carry) + the optimizer name.

Keys are stable across processes and ``PYTHONHASHSEED`` values — the
property that lets the memo tier and persisted snapshots survive
restarts.  The graph-derived halves (plan, kernel types, plan digest,
structural digest) are cached on the graph object and dropped when it
is mutated.
"""

from __future__ import annotations

import hashlib
import json

from repro.e2e.prediction_key import KEY_WIDTH, plan_digest, prediction_key
from repro.e2e.predictor import DEFAULT_T4_US, KERNEL_GAP_US, collect_plan
from repro.graph import ExecutionGraph
from repro.graph.serialize import graph_to_dict
from repro.service.request import (
    REQUEST_KERNEL_ONLY,
    REQUEST_MEMORY,
    WhatIfRequest,
)

#: Graph-memo keys (:meth:`~repro.graph.ExecutionGraph.derived`) of the
#: per-graph values below.
_KERNEL_TYPES = "service.kernel_types"
_PLAN_DIGEST = "service.plan_digest"
_GRAPH_KEY = "service.graph_key"


def plan_and_types(graph: ExecutionGraph) -> tuple[list, tuple[str, ...]]:
    """A graph's :func:`~repro.e2e.collect_plan` rows and the sorted
    kernel types they dispatch, computed once per graph state."""
    return collect_plan(graph), graph.derived(_KERNEL_TYPES, _kernel_types)


def _kernel_types(graph: ExecutionGraph) -> tuple[str, ...]:
    plan = collect_plan(graph)
    return tuple(sorted({k.kernel_type for _, _, ks in plan for k in ks}))


def _plan_digest(graph: ExecutionGraph) -> bytes:
    return plan_digest(collect_plan(graph))


def graph_key(graph: ExecutionGraph) -> str:
    """Full structural content digest of a graph.

    Hashes the canonical JSON serialization (key-sorted), covering op
    classes, tensor signatures and attributes — everything the memory
    predictor's liveness analysis can observe.  Computed once per
    graph state.
    """
    return graph.derived(_GRAPH_KEY, _graph_key)


def _graph_key(graph: ExecutionGraph) -> str:
    payload = json.dumps(
        graph_to_dict(graph), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:KEY_WIDTH]


def request_key(
    request: WhatIfRequest,
    registry_fp: str = "",
    db_fp: str = "",
    t4_us: float | None = DEFAULT_T4_US,
    kernel_gap_us: float = KERNEL_GAP_US,
    sync_h2d: bool = False,
) -> str:
    """Canonical content key of one request.

    The graph's plan and structural digests are cached on the graph
    (:meth:`~repro.graph.ExecutionGraph.derived`), so a repeat request
    for the same graph object hashes only a few short strings.

    Args:
        request: The what-if request to canonicalize.
        registry_fp: Content fingerprint of the resolved registry,
            restricted to the plan's kernel types
            (:meth:`~repro.perfmodels.PerfModelRegistry.fingerprint`).
            Ignored by memory requests.
        db_fp: Content fingerprint of the resolved overhead database.
            Ignored by memory and kernel-only requests.
        t4_us: Traversal knob — flat CUDA-runtime-call cost.
        kernel_gap_us: Traversal knob — inter-kernel device gap.
        sync_h2d: Traversal knob — synchronous pageable H2D copies.

    Returns:
        A :data:`KEY_WIDTH`-hex-char content key.
    """
    if request.kind == REQUEST_MEMORY:
        digest = hashlib.sha256()
        digest.update(request.kind.encode())
        digest.update(graph_key(request.graph).encode())
        digest.update(request.optimizer.encode())
        return digest.hexdigest()[:KEY_WIDTH]
    plan = request.graph.derived(_PLAN_DIGEST, _plan_digest)
    if request.kind == REQUEST_KERNEL_ONLY:
        return prediction_key(plan, registry_fp, kind=request.kind)
    knobs = (t4_us, kernel_gap_us, sync_h2d)
    return prediction_key(plan, registry_fp, db_fp, knobs, kind=request.kind)
