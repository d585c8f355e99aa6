"""Unit + integration tests for the Algorithm 1 E2E predictor."""

import pytest

from repro.baselines import predict_kernel_only_us
from repro.e2e import collect_plan, predict_e2e
from repro.graph.transforms import parallelize_independent_branches
from repro.models import build_model
from repro.ops import Relu
from repro.overheads import OverheadDatabase


class TestAlgorithmProperties:
    def test_total_is_max_of_clocks(self, dlrm_graph, registry, overhead_db):
        pred = predict_e2e(dlrm_graph, registry, overhead_db)
        assert pred.total_us == pytest.approx(max(pred.cpu_us, pred.gpu_us))

    def test_active_no_more_than_gpu_span(self, dlrm_graph, registry, overhead_db):
        pred = predict_e2e(dlrm_graph, registry, overhead_db)
        assert pred.active_us <= pred.gpu_us

    def test_kernel_only_equals_active(self, dlrm_graph, registry, overhead_db):
        pred = predict_e2e(dlrm_graph, registry, overhead_db)
        assert pred.kernel_only_us == pred.active_us
        assert predict_kernel_only_us(dlrm_graph, registry) == pytest.approx(
            pred.active_us
        )

    def test_counts(self, dlrm_graph, registry, overhead_db):
        pred = predict_e2e(dlrm_graph, registry, overhead_db)
        assert pred.num_ops == len(dlrm_graph)
        assert pred.num_kernels == dlrm_graph.num_kernels()

    def test_per_op_attribution_sums_to_active(
        self, dlrm_graph, registry, overhead_db
    ):
        pred = predict_e2e(dlrm_graph, registry, overhead_db)
        assert sum(pred.per_op_active_us.values()) == pytest.approx(pred.active_us)

    def test_monotone_in_t4(self, dlrm_graph, registry, overhead_db):
        lo = predict_e2e(dlrm_graph, registry, overhead_db, t4_us=5.0)
        hi = predict_e2e(dlrm_graph, registry, overhead_db, t4_us=20.0)
        assert hi.total_us > lo.total_us

    def test_batch_monotonicity(self, registry, overhead_db):
        small = predict_e2e(
            build_model("DLRM_default", 256), registry, overhead_db
        )
        large = predict_e2e(
            build_model("DLRM_default", 1024), registry, overhead_db
        )
        assert large.total_us > small.total_us
        assert large.active_us > small.active_us

    def test_predicted_idle_nonnegative(self, dlrm_graph, registry, overhead_db):
        pred = predict_e2e(dlrm_graph, registry, overhead_db)
        assert pred.predicted_idle_us >= 0


class TestAccuracy:
    def test_e2e_within_paper_band(self, device, dlrm_graph, registry, overhead_db):
        """E2E prediction error should be comparable to the paper's."""
        truth = device.run(dlrm_graph, iterations=8, warmup=1)
        pred = predict_e2e(dlrm_graph, registry, overhead_db)
        err = abs(pred.total_us - truth.mean_e2e_us) / truth.mean_e2e_us
        assert err < 0.25

    def test_active_within_paper_band(self, device, dlrm_graph, registry, overhead_db):
        truth = device.run(dlrm_graph, iterations=8, warmup=1)
        pred = predict_e2e(dlrm_graph, registry, overhead_db)
        err = abs(pred.active_us - truth.mean_gpu_active_us) / truth.mean_gpu_active_us
        assert err < 0.16

    def test_kernel_only_much_worse_at_small_batch(
        self, device, dlrm_graph, registry, overhead_db
    ):
        """The paper's core claim (Figure 9)."""
        truth = device.run(dlrm_graph, iterations=8, warmup=1)
        pred = predict_e2e(dlrm_graph, registry, overhead_db)
        e2e_err = abs(pred.total_us - truth.mean_e2e_us) / truth.mean_e2e_us
        ko_err = abs(pred.kernel_only_us - truth.mean_e2e_us) / truth.mean_e2e_us
        assert ko_err > 2 * e2e_err
        assert pred.kernel_only_us < truth.mean_e2e_us  # underestimates


class TestStreams:
    def test_parallel_streams_no_slower(self, dlrm_graph, registry, overhead_db):
        parallel = parallelize_independent_branches(dlrm_graph, 2)
        base = predict_e2e(dlrm_graph, registry, overhead_db)
        multi = predict_e2e(parallel, registry, overhead_db)
        # Same active time; GPU span may shrink with overlap.
        assert multi.active_us == pytest.approx(base.active_us)
        assert multi.gpu_us <= base.gpu_us * 1.01


class TestPlanMemo:
    def test_collect_plan_is_walked_once_per_graph_state(self):
        graph = build_model("DLRM_default", 64)
        first = collect_plan(graph)
        assert collect_plan(graph) is first
        last = graph.nodes[-1]
        graph.add_node(Relu(last.op.outputs[0].shape), [last.output_ids[0]])
        rows = collect_plan(graph)
        assert rows is not first
        assert len(rows) == len(first) + 1
        assert rows[:-1] == first
        assert rows[-1][0] == "aten::relu"
