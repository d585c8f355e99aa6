"""Unit + integration tests for the multi-GPU extension."""

import dataclasses

import pytest

from repro.codesign import TableSpec, greedy_balance
from repro.graph.serialize import graph_to_dict
from repro.hardware import TESLA_V100
from repro.models import MODE_INFERENCE, MODE_TRAIN
from repro.models.dlrm import DLRM_DEFAULT
from repro.multigpu import plan as plan_module
from repro.multigpu import (
    NVLINK,
    PCIE_FABRIC,
    CollectiveModel,
    CollectivePhase,
    GroundTruthCollectives,
    MultiGpuPlan,
    MultiGpuSimulator,
    all2all_wire_bytes,
    allreduce_wire_bytes,
    build_multi_gpu_dlrm_plan,
    dense_parameter_bytes,
    predict_multi_gpu,
)


class TestWireVolumes:
    def test_all2all_fraction(self):
        assert all2all_wire_bytes(1000.0, 4) == pytest.approx(750.0)
        assert all2all_wire_bytes(1000.0, 1) == 0.0

    def test_allreduce_ring(self):
        assert allreduce_wire_bytes(1000.0, 4) == pytest.approx(1500.0)

    def test_bad_device_count(self):
        with pytest.raises(ValueError):
            all2all_wire_bytes(1.0, 0)


class TestCollectives:
    def test_truth_monotone_in_bytes(self):
        truth = GroundTruthCollectives(NVLINK)
        small = truth.duration_us("all2all", 1e6, 4)
        large = truth.duration_us("all2all", 1e8, 4)
        assert large > small

    def test_nvlink_faster_than_pcie(self):
        nv = GroundTruthCollectives(NVLINK).duration_us("allreduce", 1e8, 4)
        pcie = GroundTruthCollectives(PCIE_FABRIC).duration_us("allreduce", 1e8, 4)
        assert nv < pcie

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GroundTruthCollectives(NVLINK).duration_us("broadcast", 1.0, 2)

    def test_calibrated_model_accurate(self):
        truth = GroundTruthCollectives(NVLINK)
        model = CollectiveModel.calibrate(truth, 4)
        for kind in ("all2all", "allreduce"):
            for size in (1e6, 1e7, 1e8):
                measured = truth.measure_us(kind, size, 4)
                predicted = model.predict_us(kind, size, 4)
                assert predicted == pytest.approx(measured, rel=0.25)

    def test_model_rejects_bad_bw(self):
        with pytest.raises(ValueError):
            CollectiveModel(measured_bw_gbs=0.0, base_latency_us=5.0)


class TestPlan:
    def test_plan_structure(self):
        plan = build_multi_gpu_dlrm_plan(DLRM_DEFAULT, 1024, 4)
        assert plan.num_devices == 4
        assert plan.num_phases == 4
        assert len(plan.collectives) == 3
        assert [c.kind for c in plan.collectives] == [
            "all2all", "all2all", "allreduce",
        ]

    def test_segments_valid_graphs(self):
        plan = build_multi_gpu_dlrm_plan(DLRM_DEFAULT, 1024, 2)
        for phase in plan.compute_phases:
            for segment in phase:
                segment.validate()

    def test_round_robin_default_assignment(self):
        plan = build_multi_gpu_dlrm_plan(DLRM_DEFAULT, 1024, 4)
        assigned = sorted(i for dev in plan.table_assignment for i in dev)
        assert assigned == list(range(DLRM_DEFAULT.num_tables))

    def test_indivisible_batch_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            build_multi_gpu_dlrm_plan(DLRM_DEFAULT, 1000, 3)

    def test_incomplete_assignment_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            build_multi_gpu_dlrm_plan(
                DLRM_DEFAULT, 1024, 2, table_assignment=[[0, 1], [2]]
            )

    def test_dense_parameter_bytes_positive(self):
        assert dense_parameter_bytes(DLRM_DEFAULT) > 1e6

    def test_collective_phase_validation(self):
        with pytest.raises(ValueError):
            CollectivePhase("gather", 1.0)
        with pytest.raises(ValueError):
            CollectivePhase("all2all", -1.0)

    def test_plan_shape_validation(self):
        plan = build_multi_gpu_dlrm_plan(DLRM_DEFAULT, 1024, 2)
        with pytest.raises(ValueError):
            MultiGpuPlan(
                num_devices=3,
                compute_phases=plan.compute_phases,
                collectives=plan.collectives,
            )


#: DLRM_DEFAULT with uneven tables, so devices' lookup segments differ.
UNEVEN_DLRM = dataclasses.replace(
    DLRM_DEFAULT,
    rows_per_table=(
        4_000_000, 2_000_000, 1_000_000, 500_000,
        250_000, 100_000, 10_000, 1_000,
    ),
)


def fresh_segments(config, batch, assignment, overlap, mode):
    """Every device's segments built one by one, sharing nothing."""
    n = len(assignment)
    local = batch // n
    train = mode == MODE_TRAIN

    def lookup_key(tables):
        if not tables:
            return 0, 0
        rows = [config.table_rows[i] for i in tables]
        return len(tables), max(1, round(sum(rows) / len(rows)))

    def b(d):
        return plan_module._phase_b(config, local, d, train=train)

    phases = []
    for d, tables in enumerate(assignment):
        key = lookup_key(tables)
        if overlap == "full":
            row = [
                plan_module._phase_lookup_fwd(config, batch, key, d),
                plan_module._phase_bot_mlp(config, local, d),
                b(d),
            ]
            if train:
                row += [
                    plan_module._phase_bot_mlp_bwd(config, local, d),
                    plan_module._phase_lookup_bwd(config, batch, key, d),
                    plan_module._phase_d(config, local, d),
                ]
        else:
            row = [plan_module._phase_a(config, local, batch, key, d), b(d)]
            if train:
                row += [
                    plan_module._phase_c(config, local, batch, key, d),
                    plan_module._phase_d(config, local, d),
                ]
        phases.append(row)
    return [list(phase) for phase in zip(*phases)]


def structure(segment):
    """A segment's serialized form without its (device-named) name."""
    data = graph_to_dict(segment)
    del data["name"]
    return data


class TestSharedSegments:
    @pytest.fixture(scope="class")
    def assignments(self, registry):
        tables = [
            TableSpec(rows=r, dim=UNEVEN_DLRM.embedding_dim,
                      lookups=UNEVEN_DLRM.lookups_per_table)
            for r in UNEVEN_DLRM.table_rows
        ]
        out = {}
        for n in (1, 2, 4, 8):
            out[n, "round_robin"] = None
            out[n, "greedy"] = greedy_balance(
                tables, n, 1024, registry
            ).assignment
            # Everything on device 0: the others look up nothing.
            out[n, "skewed"] = [list(range(len(tables)))] + [[]] * (n - 1)
        return out

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    @pytest.mark.parametrize("overlap", ["none", "full"])
    @pytest.mark.parametrize("mode", [MODE_TRAIN, MODE_INFERENCE])
    @pytest.mark.parametrize("sharding", ["round_robin", "greedy", "skewed"])
    def test_every_segment_equals_a_fresh_per_device_build(
        self, assignments, n, overlap, mode, sharding
    ):
        plan = build_multi_gpu_dlrm_plan(
            UNEVEN_DLRM, 1024, n,
            table_assignment=assignments[n, sharding],
            overlap=overlap, mode=mode,
        )
        fresh = fresh_segments(
            UNEVEN_DLRM, 1024, plan.table_assignment, overlap, mode
        )
        assert len(plan.compute_phases) == len(fresh)
        for phase, expected in zip(plan.compute_phases, fresh):
            assert [structure(s) for s in phase] == [
                structure(s) for s in expected
            ]

    def test_identical_segments_are_one_object(self):
        plan = build_multi_gpu_dlrm_plan(DLRM_DEFAULT, 1024, 4)
        # Round-robin over equal tables: every phase is one graph.
        for phase in plan.compute_phases:
            assert all(segment is phase[0] for segment in phase)
        assert plan_module.distinct_segments([plan]) == [
            phase[0] for phase in plan.compute_phases
        ]

    def test_uneven_lookups_keep_their_own_segments(self):
        plan = build_multi_gpu_dlrm_plan(
            UNEVEN_DLRM, 1024, 2, table_assignment=[[0, 1, 2], [3, 4, 5, 6, 7]]
        )
        phase_a, phase_b = plan.compute_phases[:2]
        assert phase_a[0] is not phase_a[1]
        assert phase_b[0] is phase_b[1]

    def test_shared_segment_is_priced_once(
        self, monkeypatch, registry, overhead_db
    ):
        from repro.multigpu import predict as predict_module

        plan = build_multi_gpu_dlrm_plan(DLRM_DEFAULT, 1024, 4)
        calls = []
        real = predict_module.predict_e2e

        def counting(segment, *args, **kwargs):
            calls.append(segment)
            return real(segment, *args, **kwargs)

        monkeypatch.setattr(predict_module, "predict_e2e", counting)
        model = CollectiveModel.calibrate(GroundTruthCollectives(NVLINK), 4)
        shared = predict_multi_gpu(plan, registry, overhead_db, model)
        assert len(calls) == plan.num_phases
        # A per-device registry list of one object prices the same way.
        calls.clear()
        listed = predict_multi_gpu(plan, [registry] * 4, overhead_db, model)
        assert len(calls) == plan.num_phases
        assert listed == shared

    def test_sharing_leaves_predictions_unchanged(self, registry, overhead_db):
        plan = build_multi_gpu_dlrm_plan(
            UNEVEN_DLRM, 1024, 4, overlap="full"
        )
        unshared = MultiGpuPlan(
            num_devices=4,
            compute_phases=fresh_segments(
                UNEVEN_DLRM, 1024, plan.table_assignment, "full", MODE_TRAIN
            ),
            collectives=plan.collectives,
            table_assignment=plan.table_assignment,
            overlap="full",
        )
        model = CollectiveModel.calibrate(GroundTruthCollectives(NVLINK), 4)
        assert predict_multi_gpu(
            plan, registry, overhead_db, model
        ) == predict_multi_gpu(unshared, registry, overhead_db, model)


class TestSimulateAndPredict:
    @pytest.fixture(scope="class")
    def plan(self):
        return build_multi_gpu_dlrm_plan(DLRM_DEFAULT, 1024, 4)

    @pytest.fixture(scope="class")
    def truth(self, plan):
        return MultiGpuSimulator(TESLA_V100, NVLINK, seed=9).run(plan, 3)

    def test_truth_structure(self, plan, truth):
        assert truth.iteration_us > 0
        assert len(truth.phase_us) == plan.num_phases
        assert len(truth.collective_us) == 3
        assert truth.iteration_us == pytest.approx(
            truth.compute_us + truth.communication_us
        )

    def test_phase_gating_at_slowest_device(self, truth):
        for phase, devices in zip(truth.phase_us, truth.per_device_phase_us):
            assert phase == pytest.approx(max(devices))

    def test_straggler_loss_nonnegative(self, truth):
        assert truth.straggler_loss_us >= 0

    def test_prediction_tracks_truth(self, plan, truth, registry, overhead_db):
        model = CollectiveModel.calibrate(GroundTruthCollectives(NVLINK), 4)
        pred = predict_multi_gpu(plan, registry, overhead_db, model)
        err = abs(pred.iteration_us - truth.iteration_us) / truth.iteration_us
        assert err < 0.25

    def test_multi_gpu_faster_than_single(self, truth, device):
        from repro.models import build_model

        single = device.run(
            build_model("DLRM_default", 1024), iterations=3, warmup=1
        )
        assert truth.iteration_us < single.mean_e2e_us

    def test_balanced_sharding_beats_skewed(self, registry, overhead_db):
        """The Section V-A(c) load-balancing claim, end to end."""
        model = CollectiveModel.calibrate(GroundTruthCollectives(NVLINK), 2)
        skewed = build_multi_gpu_dlrm_plan(
            DLRM_DEFAULT, 1024, 2,
            table_assignment=[[0, 1, 2, 3, 4, 5, 6], [7]],
        )
        balanced = build_multi_gpu_dlrm_plan(
            DLRM_DEFAULT, 1024, 2,
            table_assignment=[[0, 1, 2, 3], [4, 5, 6, 7]],
        )
        p_skewed = predict_multi_gpu(skewed, registry, overhead_db, model)
        p_balanced = predict_multi_gpu(balanced, registry, overhead_db, model)
        assert p_balanced.iteration_us < p_skewed.iteration_us
        # And the simulator agrees.
        sim = MultiGpuSimulator(TESLA_V100, NVLINK, seed=4)
        t_skewed = sim.run(skewed, 2)
        t_balanced = sim.run(balanced, 2)
        assert t_balanced.iteration_us < t_skewed.iteration_us

    def test_pcie_fabric_increases_comm_share(self, plan, registry, overhead_db):
        nv_model = CollectiveModel.calibrate(GroundTruthCollectives(NVLINK), 4)
        pcie_model = CollectiveModel.calibrate(
            GroundTruthCollectives(PCIE_FABRIC), 4
        )
        nv = predict_multi_gpu(plan, registry, overhead_db, nv_model)
        pcie = predict_multi_gpu(plan, registry, overhead_db, pcie_model)
        assert pcie.communication_fraction > nv.communication_fraction
