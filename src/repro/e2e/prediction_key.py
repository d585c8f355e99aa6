"""The one content key of an Algorithm 1 answer.

A traversal's result depends on exactly four inputs: the plan, the
kernel models it dispatches to, the T1–T5 overhead database and the
traversal knobs.  :func:`prediction_key` is the only place that hashes
them together, for the sweep engine's per-point fingerprints and the
prediction service's request keys alike.  The asset halves come from
their owners, which memoize them (``PerfModelRegistry.fingerprint``,
``OverheadDatabase.fingerprint``).  Everything is ``hashlib``-based,
so keys are stable across processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib

#: Hex digits kept from a key's sha256 digest (64 bits).
KEY_WIDTH = 16


def kernel_digest(kernel) -> bytes:
    """Content digest of one kernel call: type, display name and
    name-sorted parameters (``KernelCall.key``), everything the
    performance models see."""
    kernel_type, params, name = kernel.key
    digest = hashlib.sha256()
    digest.update(kernel_type.encode())
    digest.update(name.encode())
    for param, value in params:
        digest.update(param.encode())
        digest.update(repr(value).encode())
    return digest.digest()


def plan_digest(plan: list, row_cache: dict | None = None) -> bytes:
    """Content digest of one traversal plan (op names, streams, kernels).

    ``row_cache`` memoizes row digests across calls: a sweep's
    batch-independent ops share their row tuples across every batch
    size, so one memo per grid digests each of them once.
    """
    digest = hashlib.sha256()
    for row in plan:
        row_digest = None if row_cache is None else row_cache.get(row)
        if row_digest is None:
            name, stream, kernels = row
            h = hashlib.sha256()
            h.update(name.encode())
            h.update(str(stream).encode())
            for kernel in kernels:
                h.update(kernel_digest(kernel))
            row_digest = h.digest()
            if row_cache is not None:
                row_cache[row] = row_digest
        digest.update(row_digest)
    return digest.digest()


def prediction_key(
    plan_digest: bytes,
    registry_fp: str,
    db_fp: str | None = None,
    knobs: tuple | None = None,
    kind: str | None = None,
) -> str:
    """Content key of one answer over a plan.

    Args:
        plan_digest: :func:`plan_digest` of the traversed plan.
        registry_fp: Registry fingerprint restricted to the plan's
            kernel types.
        db_fp: Overhead-database fingerprint; ``None`` for answers that
            never read overheads (the kernel-only baseline), which then
            ignore ``knobs`` too.
        knobs: ``(t4_us, kernel_gap_us, sync_h2d)`` of the traversal.
        kind: Service request kind, hashed first; ``None`` for sweep
            points.

    Returns:
        A :data:`KEY_WIDTH`-hex-char key.
    """
    digest = hashlib.sha256()
    if kind is not None:
        digest.update(kind.encode())
    digest.update(plan_digest)
    digest.update(registry_fp.encode())
    if db_fp is not None:
        digest.update(db_fp.encode())
        digest.update(repr(knobs).encode())
    return digest.hexdigest()[:KEY_WIDTH]
