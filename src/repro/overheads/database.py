"""Per-workload and shared overhead databases.

The paper stores per-type overhead means in a JSON file consumed by the
E2E model, and shows that *sharing* overheads aggregated across
workloads costs only ~2% extra error — enabling one database for
large-scale prediction (Section IV-C).  :class:`OverheadDatabase`
supports both modes plus a per-type global fallback for ops never seen
during collection.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict

from repro.overheads.extract import (
    OverheadSamples,
    extract_overhead_samples,
    merge_samples,
)
from repro.overheads.stats import OverheadStats
from repro.simulator.host import OVERHEAD_TYPES, T1, T4
from repro.trace import Trace


class OverheadDatabase:
    """Mean host overheads per op name and type, with fallbacks."""

    def __init__(self, stats: dict[str, dict[str, OverheadStats]]) -> None:
        # Copied one level deep (OverheadStats is frozen), so mutating
        # the caller's dict cannot desync the means from the fallbacks
        # and the memoized fingerprint.
        self._stats = {op: dict(per_type) for op, per_type in stats.items()}
        self._fingerprint: str | None = None
        self._fallback: dict[str, float] = {}
        # Count-weighted mean per type via running sums — O(1) memory,
        # where materializing [mean] * count lists is O(total samples).
        weighted_sum: dict[str, float] = defaultdict(float)
        weight: dict[str, int] = defaultdict(int)
        for per_type in self._stats.values():
            for otype, st in per_type.items():
                n = max(st.count, 1)
                weighted_sum[otype] += st.mean * n
                weight[otype] += n
        for otype in OVERHEAD_TYPES:
            self._fallback[otype] = (
                weighted_sum[otype] / weight[otype] if weight[otype] else 5.0
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_samples(
        cls, samples: OverheadSamples, filter_outliers: bool = True
    ) -> "OverheadDatabase":
        """Aggregate raw samples into a database (with IQR filtering)."""
        stats: dict[str, dict[str, OverheadStats]] = {}
        for op_name, per_type in samples.items():
            stats[op_name] = {
                otype: OverheadStats.from_samples(values, filter_outliers)
                for otype, values in per_type.items()
                if values
            }
        return cls(stats)

    @classmethod
    def from_trace(cls, trace: Trace) -> "OverheadDatabase":
        """Individual-workload database (the paper's "E2E" mode)."""
        return cls.from_samples(extract_overhead_samples(trace))

    @classmethod
    def shared(cls, traces: list[Trace]) -> "OverheadDatabase":
        """Shared database pooled across workloads ("shared E2E" mode)."""
        if not traces:
            raise ValueError("shared database needs at least one trace")
        return cls.from_samples(
            merge_samples([extract_overhead_samples(t) for t in traces])
        )

    # ------------------------------------------------------------------
    def mean_us(self, op_name: str, otype: str) -> float:
        """Mean overhead for ``(op, type)``, with per-type fallback."""
        if otype not in self._fallback:
            raise KeyError(f"unknown overhead type {otype!r}")
        per_type = self._stats.get(op_name)
        if per_type and otype in per_type:
            return per_type[otype].mean
        return self._fallback[otype]

    def stats_for(self, op_name: str, otype: str) -> OverheadStats | None:
        """Raw stats for ``(op, type)``, or None if never observed."""
        per_type = self._stats.get(op_name)
        return per_type.get(otype) if per_type else None

    @property
    def op_names(self) -> tuple[str, ...]:
        """Ops with collected statistics."""
        return tuple(sorted(self._stats))

    def fingerprint(self) -> str:
        """Stable content digest of everything ``mean_us`` can return.

        Covers the per-``(op, type)`` means and the per-type fallback
        means, so two databases with the same fingerprint drive any
        Algorithm 1 traversal to identical results.  Hashed with
        ``hashlib`` (process-stable), this is the overheads component
        of every prediction key (:func:`repro.e2e.prediction_key`).
        Computed once: the database is immutable.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        digest = hashlib.sha256()
        for op_name in sorted(self._stats):
            digest.update(op_name.encode())
            per_type = self._stats[op_name]
            for otype in sorted(per_type):
                digest.update(otype.encode())
                digest.update(repr(per_type[otype].mean).encode())
        digest.update(b"|fallback|")
        for otype in sorted(self._fallback):
            digest.update(otype.encode())
            digest.update(repr(self._fallback[otype]).encode())
        self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint

    def dominating_ops_by(self, otype: str, top_k: int = 10) -> list[tuple[str, OverheadStats]]:
        """Ops ranked by mean overhead of one type (Figure 8 panels)."""
        ranked = [
            (name, per_type[otype])
            for name, per_type in self._stats.items()
            if otype in per_type
        ]
        ranked.sort(key=lambda item: item[1].mean, reverse=True)
        return ranked[:top_k]

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize (the paper's JSON overhead file)."""
        return json.dumps(
            {
                op: {ot: st.to_dict() for ot, st in per_type.items()}
                for op, per_type in self._stats.items()
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "OverheadDatabase":
        """Load a database serialized by :meth:`to_json`."""
        raw = json.loads(text)
        return cls(
            {
                op: {ot: OverheadStats.from_dict(d) for ot, d in per_type.items()}
                for op, per_type in raw.items()
            }
        )
