"""Heuristic embedding-lookup performance models (Section III-B-1a).

Two variants, exactly as published:

* :class:`PlainEmbeddingModel` — assumes all weight-row traffic comes
  from DRAM and divides total per-WARP traffic by peak DRAM bandwidth.
  Accurate for big tables (``E`` > 100k), poor for small ones where the
  L2 captures locality (Table IV rows EL-F vs EL-FL).
* :class:`EnhancedEmbeddingModel` — adds the L2-hit-rate estimation:
  the number of tables simultaneously resident in L2, the average
  cached rows per table, and a hypergeometric all-``L``-lookups hit
  probability splitting weight traffic between L2 and DRAM.

One deliberate deviation from the paper's printed equations: the
forward per-WARP weights traffic is multiplied by ``L`` (each of the
``L`` pooled lookups fetches one ``D``-vector).  The printed forward
equation omits the factor, while the backward one includes it; we read
the omission as a typo since the physics requires it.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.hardware import GpuSpec, MeasuredPeaks
from repro.ops import KernelType
from repro.perfmodels.base import KernelPerfModel

_HIT_RATE_CHUNK = 256  # lookups i per EnhancedEmbeddingModel.hit_rate_batch pass


def warp_traffic_bytes(params: Mapping[str, float], backward: bool) -> dict:
    """Per-WARP traffic components in bytes (paper notation)."""
    L = int(params["L"])
    D = int(params["D"])
    traffic = {
        "table_offsets": 32.0,
        "offsets": 64.0,
        "indices": math.ceil(4.0 * L / 32.0) * 32.0,
        "outputs": math.ceil(4.0 * D / 32.0) * 32.0,
    }
    if backward:
        traffic["weights"] = math.ceil(2.0 * 4.0 * L * D / 32.0) * 32.0
    else:
        traffic["weights"] = math.ceil(4.0 * D / 32.0) * 32.0 * L
    return traffic


def _params_column(
    params_list: Sequence[Mapping[str, float]], name: str
) -> np.ndarray:
    """One required kernel parameter as a float64 column."""
    return np.array([float(p[name]) for p in params_list], dtype=np.float64)


def _warp_traffic_columns(
    params_list: Sequence[Mapping[str, float]], backward: bool
) -> dict:
    """Vectorized :func:`warp_traffic_bytes` over a kernel population.

    Keeps the exact scalar arithmetic (``ceil`` on float64 matches
    ``math.ceil`` for these magnitudes) so the batched models remain
    bit-identical to the looped path.
    """
    L = np.array([float(int(p["L"])) for p in params_list], dtype=np.float64)
    D = np.array([float(int(p["D"])) for p in params_list], dtype=np.float64)
    traffic = {
        "table_offsets": np.full(len(L), 32.0),
        "offsets": np.full(len(L), 64.0),
        "indices": np.ceil(4.0 * L / 32.0) * 32.0,
        "outputs": np.ceil(4.0 * D / 32.0) * 32.0,
    }
    if backward:
        traffic["weights"] = np.ceil(2.0 * 4.0 * L * D / 32.0) * 32.0
    else:
        traffic["weights"] = np.ceil(4.0 * D / 32.0) * 32.0 * L
    return traffic


def _sum_traffic(traffic: dict) -> np.ndarray:
    """Sum traffic components in dict insertion order (as ``sum`` does)."""
    total = 0.0
    for component in traffic.values():
        total = total + component
    return total


class PlainEmbeddingModel(KernelPerfModel):
    """All weight traffic from DRAM: ``t = B*T*sum(traffic) / peak_BW``."""

    def __init__(self, gpu: GpuSpec, peaks: MeasuredPeaks, backward: bool) -> None:
        self.gpu = gpu
        self.peaks = peaks
        self.backward = backward
        self.kernel_type = (
            KernelType.EMBEDDING_BWD if backward else KernelType.EMBEDDING_FWD
        )

    def predict_us(self, params: Mapping[str, float]) -> float:
        """Predicted duration in µs for one kernel's parameters."""
        traffic = warp_traffic_bytes(params, self.backward)
        per_warp = sum(traffic.values())
        warps = float(params["B"]) * float(params["T"])
        return warps * per_warp / (self.peaks.dram_bw_gbs * 1e3)

    def predict_batch(
        self, params_list: Sequence[Mapping[str, float]]
    ) -> np.ndarray:
        """Vectorized ``predict_us`` over rows of kernel parameters."""
        if not params_list:
            return np.empty(0, dtype=np.float64)
        traffic = _warp_traffic_columns(params_list, self.backward)
        per_warp = _sum_traffic(traffic)
        warps = _params_column(params_list, "B") * _params_column(
            params_list, "T"
        )
        return warps * per_warp / (self.peaks.dram_bw_gbs * 1e3)


class EnhancedEmbeddingModel(KernelPerfModel):
    """DRAM/L2 traffic split via the published L2-hit-rate estimation."""

    def __init__(self, gpu: GpuSpec, peaks: MeasuredPeaks, backward: bool) -> None:
        self.gpu = gpu
        self.peaks = peaks
        self.backward = backward
        self.kernel_type = (
            KernelType.EMBEDDING_BWD if backward else KernelType.EMBEDDING_FWD
        )

    def hit_rate(self, params: Mapping[str, float]) -> float:
        """Published hypergeometric L2 hit-rate estimate."""
        B = float(params["B"])
        E = float(params["E"])
        L = int(params["L"])
        D = float(params["D"])
        rows_per_block = float(params.get("rows_per_block", 32))
        # "assuming only one CTA resides on each SM at a time"
        num_tables = max(1.0, rows_per_block * self.gpu.num_sms / B)
        avg_cached = min(
            self.gpu.l2_cache_bytes / (num_tables * D * 4.0), E
        )
        # p = C(avg_cached, L) / C(E, L)
        p = 1.0
        for i in range(L):
            num = avg_cached - i
            den = E - i
            if num <= 0 or den <= 0:
                return 0.0
            p *= num / den
        return min(1.0, p)

    def hit_rate_batch(
        self, params_list: Sequence[Mapping[str, float]]
    ) -> np.ndarray:
        """Vectorized :meth:`hit_rate` over a kernel population.

        The ``(i, row)`` grid of factors (``1.0`` where ``i >= L``) is
        reduced along ``i`` in ``_HIT_RATE_CHUNK``-row chunks, each
        seeded with the running product, so rows multiply left to right
        as the scalar loop does (bit-identical) and no temporary
        outgrows one chunk, however large ``L`` is.
        """
        B = _params_column(params_list, "B")
        E = _params_column(params_list, "E")
        L = np.array([int(p["L"]) for p in params_list], dtype=np.int64)
        D = _params_column(params_list, "D")
        rows_per_block = np.array(
            [float(p.get("rows_per_block", 32)) for p in params_list],
            dtype=np.float64,
        )
        num_tables = np.maximum(1.0, rows_per_block * self.gpu.num_sms / B)
        avg_cached = np.minimum(
            self.gpu.l2_cache_bytes / (num_tables * D * 4.0), E
        )
        p = np.ones(len(B), dtype=np.float64)
        L_max = int(L.max(initial=0))
        with np.errstate(divide="ignore", invalid="ignore"):  # dead rows
            for start in range(0, L_max, _HIT_RATE_CHUNK):
                i = np.arange(start, min(start + _HIT_RATE_CHUNK, L_max))[:, None]
                factors = np.where(i < L, (avg_cached - i) / (E - i), 1.0)
                p = np.multiply.reduce(np.vstack((p, factors)), axis=0)
        # num and den fall with i, so the last factor decides death.
        last = L - 1.0
        p[(L > 0) & ((avg_cached - last <= 0) | (E - last <= 0))] = 0.0
        return np.minimum(1.0, p)

    def predict_us(self, params: Mapping[str, float]) -> float:
        """Predicted duration in µs for one kernel's parameters."""
        traffic = warp_traffic_bytes(params, self.backward)
        p = self.hit_rate(params)
        # table_offsets and offsets are small and hot: always in L2.
        l2_bytes = traffic["table_offsets"] + traffic["offsets"] + p * traffic["weights"]
        dram_bytes = (
            traffic["indices"] + traffic["outputs"] + (1.0 - p) * traffic["weights"]
        )
        warps = float(params["B"]) * float(params["T"])
        return warps * (
            dram_bytes / (self.peaks.dram_bw_gbs * 1e3)
            + l2_bytes / (self.peaks.l2_bw_gbs * 1e3)
        )

    def predict_batch(
        self, params_list: Sequence[Mapping[str, float]]
    ) -> np.ndarray:
        """Vectorized ``predict_us`` over rows of kernel parameters."""
        if not params_list:
            return np.empty(0, dtype=np.float64)
        traffic = _warp_traffic_columns(params_list, self.backward)
        p = self.hit_rate_batch(params_list)
        l2_bytes = (
            traffic["table_offsets"] + traffic["offsets"] + p * traffic["weights"]
        )
        dram_bytes = (
            traffic["indices"] + traffic["outputs"] + (1.0 - p) * traffic["weights"]
        )
        warps = _params_column(params_list, "B") * _params_column(
            params_list, "T"
        )
        return warps * (
            dram_bytes / (self.peaks.dram_bw_gbs * 1e3)
            + l2_bytes / (self.peaks.l2_bw_gbs * 1e3)
        )
