"""Unit tests for overhead extraction, filtering and databases."""

import pytest

from repro.models import build_model
from repro.overheads import (
    OverheadDatabase,
    OverheadStats,
    extract_overhead_samples,
    merge_samples,
    remove_outliers,
)
from repro.simulator.host import T1, T2, T3, T4, T5


class TestOutlierRemoval:
    def test_keeps_clean_data(self):
        data = [1.0, 1.1, 0.9, 1.05, 0.95]
        assert sorted(remove_outliers(data)) == sorted(data)

    def test_drops_extreme(self):
        data = [1.0] * 20 + [50.0]
        kept = remove_outliers(data)
        assert 50.0 not in kept
        assert len(kept) == 20

    def test_small_samples_untouched(self):
        assert remove_outliers([1.0, 99.0]) == [1.0, 99.0]


class TestStats:
    def test_mean_std(self):
        st = OverheadStats.from_samples([2.0, 4.0], filter_outliers=False)
        assert st.mean == pytest.approx(3.0)
        assert st.count == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            OverheadStats.from_samples([])

    def test_dict_roundtrip(self):
        st = OverheadStats.from_samples([1.0, 2.0, 3.0])
        assert OverheadStats.from_dict(st.to_dict()) == st


class TestExtraction:
    def test_all_types_present(self, profiled_run):
        samples = extract_overhead_samples(profiled_run.trace)
        types = {t for per in samples.values() for t in per}
        assert {T1, T2, T3, T4} <= types

    def test_t5_for_multi_kernel_ops(self, profiled_run):
        samples = extract_overhead_samples(profiled_run.trace)
        # AddmmBackward0 launches two kernels -> has T5 gaps.
        assert samples["AddmmBackward0"][T5]

    def test_t5_for_cpu_only_ops(self, profiled_run):
        samples = extract_overhead_samples(profiled_run.trace)
        assert samples["aten::view"][T5]

    def test_extracted_t1_near_true_mean(self, device, profiled_run):
        """Extraction must recover the hidden T1 level (~8 µs)."""
        samples = extract_overhead_samples(profiled_run.trace)
        t1_all = [v for per in samples.values() for v in per.get(T1, [])]
        mean = sum(t1_all) / len(t1_all)
        true = device.host.mean_us("any", T1)
        assert mean == pytest.approx(true, rel=0.35)

    def test_extracted_t2_tracks_op_differences(self, device, profiled_run):
        samples = extract_overhead_samples(profiled_run.trace)
        heavy = samples["LookupFunction"][T2]
        light = samples["aten::relu"][T2]
        assert sum(heavy) / len(heavy) > sum(light) / len(light)

    def test_merge_pools_samples(self, profiled_run):
        a = extract_overhead_samples(profiled_run.trace)
        merged = merge_samples([a, a])
        assert len(merged["aten::linear"][T2]) == 2 * len(a["aten::linear"][T2])


class TestDatabase:
    def test_from_trace(self, overhead_db):
        assert overhead_db.mean_us("aten::linear", T2) > 0
        assert "aten::linear" in overhead_db.op_names

    def test_fallback_for_unknown_op(self, overhead_db):
        value = overhead_db.mean_us("aten::never_seen", T2)
        assert value > 0

    def test_unknown_type_rejected(self, overhead_db):
        with pytest.raises(KeyError):
            overhead_db.mean_us("aten::linear", "T7")

    def test_json_roundtrip(self, overhead_db):
        restored = OverheadDatabase.from_json(overhead_db.to_json())
        assert restored.mean_us("aten::linear", T2) == pytest.approx(
            overhead_db.mean_us("aten::linear", T2)
        )

    def test_shared_database(self, device):
        traces = []
        for name in ("DLRM_default", "DLRM_DDP"):
            g = build_model(name, 128)
            traces.append(
                device.run(g, iterations=4, with_profiler=True, warmup=1).trace
            )
        shared = OverheadDatabase.shared(traces)
        assert shared.mean_us("aten::linear", T2) > 0

    def test_shared_requires_traces(self):
        with pytest.raises(ValueError):
            OverheadDatabase.shared([])

    def test_dominating_ops_ranked(self, overhead_db):
        ranked = overhead_db.dominating_ops_by(T2, top_k=5)
        means = [st.mean for _, st in ranked]
        assert means == sorted(means, reverse=True)

    def test_stats_for_missing(self, overhead_db):
        assert overhead_db.stats_for("aten::never_seen", T2) is None

    def test_fallback_is_count_weighted_mean(self):
        """Regression: the running-sum fallback must equal the old
        materialize-[mean]*count computation (without its O(total
        samples) memory cost)."""
        stats = {
            "op_a": {T1: OverheadStats(mean=2.0, std=0.0, count=3)},
            "op_b": {T1: OverheadStats(mean=10.0, std=0.0, count=1)},
            "op_c": {T1: OverheadStats(mean=4.0, std=0.0, count=0)},
        }
        db = OverheadDatabase(stats)
        values = [2.0] * 3 + [10.0] * 1 + [4.0] * 1  # count clamped to >= 1
        assert db.mean_us("unknown_op", T1) == pytest.approx(
            sum(values) / len(values), rel=1e-12
        )

    def test_fallback_unchanged_on_real_trace(self, profiled_run):
        """Fallbacks from a real trace match the naive weighted mean."""
        samples = extract_overhead_samples(profiled_run.trace)
        db = OverheadDatabase.from_samples(samples)
        for otype in (T1, T2, T4):
            pooled = []
            for op_name in db.op_names:
                st = db.stats_for(op_name, otype)
                if st is not None:
                    pooled.extend([st.mean] * max(st.count, 1))
            assert db.mean_us("aten::never_seen", otype) == pytest.approx(
                sum(pooled) / len(pooled), rel=1e-12
            )

    def test_fallback_default_when_type_unobserved(self):
        db = OverheadDatabase({"op": {T1: OverheadStats(1.0, 0.0, 5)}})
        assert db.mean_us("op", T2) == 5.0

    def test_mutating_the_callers_dict_changes_nothing(self):
        """The database copies its stats: a caller editing its dict
        afterwards moves neither the means, the fallbacks nor the
        (memoized) fingerprint, so all three keep agreeing."""
        stats = {
            "op_a": {T1: OverheadStats(2.0, 0.0, 3)},
            "op_b": {T1: OverheadStats(10.0, 0.0, 1)},
        }
        db = OverheadDatabase(stats)
        mean, fallback, fp = (
            db.mean_us("op_a", T1), db.mean_us("unknown", T1), db.fingerprint()
        )
        stats["op_a"][T1] = OverheadStats(99.0, 0.0, 3)
        stats["op_a"][T2] = OverheadStats(7.0, 0.0, 3)
        del stats["op_b"]
        stats["op_c"] = {T1: OverheadStats(50.0, 0.0, 9)}
        assert db.mean_us("op_a", T1) == mean
        assert db.mean_us("op_a", T2) == 5.0  # still the unobserved default
        assert db.mean_us("unknown", T1) == fallback
        assert db.fingerprint() == fp
        assert db.fingerprint() == OverheadDatabase(
            {
                "op_a": {T1: OverheadStats(2.0, 0.0, 3)},
                "op_b": {T1: OverheadStats(10.0, 0.0, 1)},
            }
        ).fingerprint()


class TestModelSizeIndependence:
    """The paper's two working assumptions (Section III-C)."""

    def test_t1_stable_across_batch_sizes(self, device):
        means = []
        for batch in (128, 512):
            g = build_model("DLRM_default", batch)
            trace = device.run(
                g, iterations=5, with_profiler=True, warmup=1
            ).trace
            db = OverheadDatabase.from_trace(trace)
            means.append(db.mean_us("aten::linear", T1))
        assert means[0] == pytest.approx(means[1], rel=0.25)

    def test_t2_stable_across_models(self, device):
        means = []
        for name in ("DLRM_default", "DLRM_DDP"):
            g = build_model(name, 256)
            trace = device.run(
                g, iterations=5, with_profiler=True, warmup=1
            ).trace
            db = OverheadDatabase.from_trace(trace)
            means.append(db.mean_us("aten::linear", T2))
        assert means[0] == pytest.approx(means[1], rel=0.25)
