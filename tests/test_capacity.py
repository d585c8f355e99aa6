"""Capacity planner + SLO latency-model unit tests."""

from __future__ import annotations

import json
import math

import pytest

from repro.capacity import (
    VALIDATE_SIMULATE,
    CandidateFleet,
    CapacityPlan,
    CapacityPlanner,
    ServingTarget,
    percentile_factor,
    plan_capacity,
    plans_to_json,
    predict_percentile_latency,
    rank_plans,
    replica_capacity_qps,
    replica_utilization,
)
from repro.models.dlrm import DLRM_DEFAULT
from repro.multigpu import (
    NVLINK,
    CollectiveModel,
    GroundTruthCollectives,
    GroundTruthTopologyCollectives,
    TopologyCollectiveModel,
)
from repro.sweep import SweepEngine


class TestServingTarget:
    def test_from_ms(self):
        target = ServingTarget.from_ms(100_000, 2.0, 95.0)
        assert target.latency_slo_us == 2000.0
        assert target.percentile == 95.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"qps": 0, "latency_slo_us": 1000},
            {"qps": 1000, "latency_slo_us": 0},
            {"qps": 1000, "latency_slo_us": 1000, "percentile": 100.0},
            {"qps": 1000, "latency_slo_us": 1000, "percentile": 0.0},
        ],
    )
    def test_invalid_targets_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServingTarget(**kwargs)


class TestLatencyModel:
    def test_batch_one_has_no_fill_wait(self):
        lat = predict_percentile_latency(500.0, 1, 1000.0)
        assert lat.fill_us == 0.0
        assert lat.service_us == 500.0

    def test_fill_grows_with_batch(self):
        lats = [
            predict_percentile_latency(500.0, b, 10_000.0).fill_us
            for b in (1, 8, 64)
        ]
        assert lats == sorted(lats)
        assert lats[0] < lats[-1]

    def test_queue_wait_explodes_at_saturation(self):
        # rho = qps/1e6 * service / batch; saturate with qps > batch/service.
        saturated = predict_percentile_latency(1000.0, 1, 2000.0)
        assert math.isinf(saturated.queue_us)
        assert math.isinf(saturated.total_us)

    def test_queue_wait_monotone_in_load(self):
        waits = [
            predict_percentile_latency(1000.0, 1, qps).queue_us
            for qps in (100.0, 400.0, 800.0)
        ]
        assert waits == sorted(waits)

    def test_higher_percentile_waits_longer(self):
        p50 = predict_percentile_latency(1000.0, 4, 2000.0, percentile=50.0)
        p99 = predict_percentile_latency(1000.0, 4, 2000.0, percentile=99.0)
        assert p99.queue_us > p50.queue_us
        assert percentile_factor(99.0) > percentile_factor(50.0)

    def test_saturation_pinned_across_rho_one(self):
        # The P-K mean wait turns negative past rho = 1; the model must
        # return an explicit infeasible marker instead.  Pin the three
        # sides of the boundary: rho = 0.99 / 1.0 / 1.01.
        service_us = 1000.0
        almost = predict_percentile_latency(service_us, 1, 990.0)
        assert replica_utilization(service_us, 1, 990.0) == pytest.approx(
            0.99
        )
        assert not almost.saturated
        assert almost.queue_us > 0.0
        assert math.isfinite(almost.total_us)
        for qps in (1000.0, 1010.0):
            lat = predict_percentile_latency(service_us, 1, qps)
            assert lat.saturated
            assert math.isinf(lat.queue_us)
            assert math.isinf(lat.total_us)
            assert lat.queue_us > 0  # never the negative extrapolation

    def test_saturated_property_tracks_queue_divergence(self):
        finite = predict_percentile_latency(500.0, 4, 1000.0)
        assert not finite.saturated
        assert finite.total_us == pytest.approx(
            finite.fill_us + finite.queue_us + finite.service_us
        )

    def test_utilization_and_capacity_are_inverses(self):
        capacity = replica_capacity_qps(500.0, 32, max_utilization=0.8)
        assert replica_utilization(500.0, 32, capacity) == pytest.approx(0.8)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_invalid_service_time_rejected(self, bad):
        with pytest.raises(ValueError):
            replica_utilization(bad, 32, 1000.0)


class TestCandidateFleet:
    def test_label(self):
        assert CandidateFleet("A100", gpus_per_replica=2).label == "A100x2"

    def test_multinode_label_and_shape(self):
        fleet = CandidateFleet("A100", gpus_per_replica=8, nodes=2)
        assert fleet.label == "A100x8@2n"
        assert fleet.gpus_per_node == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gpus_per_replica": 0},
            {"max_replicas": 0},
            {"cost_per_gpu_hour": 0.0},
            {"nodes": 0},
            {"gpus_per_replica": 4, "nodes": 3},
        ],
    )
    def test_invalid_fleets_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CandidateFleet("V100", **kwargs)


@pytest.fixture(scope="module")
def engine(registry, overhead_db):
    return SweepEngine(
        registries={"V100": registry},
        overhead_dbs={"individual": overhead_db},
    )


@pytest.fixture(scope="module")
def collective_model_for():
    return lambda n: CollectiveModel.calibrate(
        GroundTruthCollectives(NVLINK), n
    )


class TestCapacityPlanner:
    def test_relaxed_target_is_feasible_and_ranked(self, engine):
        planner = CapacityPlanner(
            engine, ServingTarget.from_ms(10_000, 50.0)
        )
        plans = planner.plan_dlrm(DLRM_DEFAULT, (32, 64, 128))
        assert plans
        assert plans[0].meets_slo
        assert plans[0].latency_us <= 50_000.0
        # Feasible block first, cost-sorted inside the block.
        feasible = [p for p in plans if p.meets_slo]
        assert plans[: len(feasible)] == feasible
        costs = [p.cost_per_hour for p in feasible]
        assert costs == sorted(costs)

    def test_prune_preserves_feasible_plans(self, engine, registry):
        """Branch-and-bound pruning only drops provably-over-SLO points."""
        from repro.baselines import predict_kernel_only_us
        from repro.models import MODE_INFERENCE
        from repro.models.dlrm import build_dlrm_graph

        batches = (32, 8192)
        big_bound = predict_kernel_only_us(
            build_dlrm_graph(DLRM_DEFAULT, 8192, mode=MODE_INFERENCE),
            registry,
        )
        target = ServingTarget(qps=10_000.0, latency_slo_us=big_bound * 0.5)
        planner = CapacityPlanner(engine, target)
        unpruned = planner.plan_dlrm(DLRM_DEFAULT, batches)
        assert planner.last_prune_stats == {
            "pruned": 0, "evaluated": len(batches),
        }
        pruned = planner.plan_dlrm(DLRM_DEFAULT, batches, prune=True)
        stats = planner.last_prune_stats
        assert stats["pruned"] > 0
        assert stats["pruned"] + stats["evaluated"] == len(batches)
        # Every SLO-meeting plan survives pruning, byte-identically.
        assert [p.to_dict() for p in pruned if p.meets_slo] == [
            p.to_dict() for p in unpruned if p.meets_slo
        ]

    def test_impossible_target_returns_best_effort(self, engine):
        planner = CapacityPlanner(
            engine,
            ServingTarget(qps=5_000_000.0, latency_slo_us=10.0),
        )
        plans = planner.plan_dlrm(
            DLRM_DEFAULT, (32,),
            fleets=[CandidateFleet("V100", max_replicas=4)],
        )
        assert plans
        assert not any(p.meets_slo for p in plans)

    def test_sharded_replicas_on_the_grid(
        self, engine, collective_model_for
    ):
        planner = CapacityPlanner(engine, ServingTarget.from_ms(5_000, 50.0))
        plans = planner.plan_dlrm(
            DLRM_DEFAULT, (64, 128),
            fleets=[
                CandidateFleet("V100", gpus_per_replica=1),
                CandidateFleet("V100", gpus_per_replica=2),
            ],
            collective_model_for=collective_model_for,
        )
        shapes = {p.fleet for p in plans}
        assert shapes == {"V100x1", "V100x2"}
        overlaps = {p.overlap for p in plans if p.fleet == "V100x2"}
        assert overlaps == {"none", "full"}

    def test_sharded_without_collective_model_rejected(self, engine):
        planner = CapacityPlanner(engine, ServingTarget.from_ms(1000, 50.0))
        with pytest.raises(ValueError, match="collective_model_for"):
            planner.plan_dlrm(
                DLRM_DEFAULT, (64,),
                fleets=[CandidateFleet("V100", gpus_per_replica=2)],
            )

    def test_unknown_registry_rejected(self, engine):
        planner = CapacityPlanner(engine, ServingTarget.from_ms(1000, 50.0))
        with pytest.raises(ValueError, match="unknown registry"):
            planner.plan_dlrm(
                DLRM_DEFAULT, (64,), fleets=[CandidateFleet("H100")]
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_sizes": ()},
            {"batch_sizes": (0,)},
            {"batch_sizes": (64,), "fleets": []},
            {"batch_sizes": (64,), "shardings": {}},
            {"batch_sizes": (64,), "overlap_policies": ()},
        ],
    )
    def test_empty_axes_rejected(self, engine, kwargs):
        planner = CapacityPlanner(engine, ServingTarget.from_ms(1000, 50.0))
        with pytest.raises(ValueError):
            planner.plan_dlrm(DLRM_DEFAULT, **kwargs)

    def test_plan_capacity_convenience(self, registry, overhead_db):
        plans = plan_capacity(
            ServingTarget.from_ms(10_000, 50.0),
            DLRM_DEFAULT,
            registries={"V100": registry},
            overheads={"individual": overhead_db},
            batch_sizes=(64, 128),
        )
        assert plans and plans[0].meets_slo

    def test_plans_serialize_to_json(self, engine):
        planner = CapacityPlanner(engine, ServingTarget.from_ms(10_000, 50.0))
        plans = planner.plan_dlrm(DLRM_DEFAULT, (64,))
        rows = json.loads(plans_to_json(plans))
        assert len(rows) == len(plans)
        assert rows[0]["fleet"] == "V100x1"
        assert isinstance(rows[0]["meets_slo"], bool)

    def test_rank_plans_keeps_every_plan(self, engine):
        planner = CapacityPlanner(engine, ServingTarget.from_ms(10_000, 50.0))
        plans = planner.plan_dlrm(DLRM_DEFAULT, (32, 64, 128))
        assert sorted(rank_plans(plans), key=id) == sorted(plans, key=id)


class TestSimulateValidation:
    def test_top_feasible_plans_get_measured_p99(self, engine):
        target = ServingTarget.from_ms(10_000, 50.0)
        planner = CapacityPlanner(engine, target)
        plans = planner.plan_dlrm(
            DLRM_DEFAULT, (32, 64, 128),
            validate=VALIDATE_SIMULATE, validate_top_k=2,
            validate_requests=1500,
        )
        validated = [p for p in plans if p.simulated_us is not None]
        assert len(validated) == 2
        for plan in validated:
            assert plan.simulated_us > 0.0
            # meets_slo can only be demoted by the simulator, never
            # promoted: every still-feasible validated plan measured
            # under the SLO.
            if plan.meets_slo:
                assert plan.simulated_us <= target.latency_slo_us
        # The re-ranked list still leads with the feasible block.
        feasible = [p for p in plans if p.meets_slo]
        assert plans[: len(feasible)] == feasible

    def test_validation_is_seeded(self, engine):
        planner = CapacityPlanner(engine, ServingTarget.from_ms(10_000, 50.0))
        kwargs = dict(
            validate=VALIDATE_SIMULATE, validate_top_k=1,
            validate_requests=1000, validate_seed=3,
        )
        first = planner.plan_dlrm(DLRM_DEFAULT, (64,), **kwargs)
        second = planner.plan_dlrm(DLRM_DEFAULT, (64,), **kwargs)
        assert [p.to_dict() for p in first] == [p.to_dict() for p in second]

    def test_unknown_validate_mode_rejected(self, engine):
        planner = CapacityPlanner(engine, ServingTarget.from_ms(10_000, 50.0))
        with pytest.raises(ValueError, match="unknown validate mode"):
            planner.plan_dlrm(DLRM_DEFAULT, (64,), validate="analytically")

    def test_validate_plans_rejects_bad_top_k(self, engine):
        planner = CapacityPlanner(engine, ServingTarget.from_ms(10_000, 50.0))
        with pytest.raises(ValueError, match="top_k"):
            planner.validate_plans(DLRM_DEFAULT, [], top_k=0)

    def test_simulated_us_roundtrips(self, engine):
        planner = CapacityPlanner(engine, ServingTarget.from_ms(10_000, 50.0))
        plans = planner.plan_dlrm(
            DLRM_DEFAULT, (64,),
            validate=VALIDATE_SIMULATE, validate_top_k=1,
            validate_requests=1000,
        )
        for plan in plans:
            row = json.loads(json.dumps(plan.to_dict()))
            assert CapacityPlan.from_dict(row) == plan


class TestMultiNodeCapacity:
    def test_multinode_without_topology_model_rejected(self, engine):
        planner = CapacityPlanner(engine, ServingTarget.from_ms(1000, 50.0))
        with pytest.raises(ValueError, match="topology_model_for"):
            planner.plan_dlrm(
                DLRM_DEFAULT, (64,),
                fleets=[
                    CandidateFleet("V100", gpus_per_replica=4, nodes=2)
                ],
            )

    def test_multinode_replicas_on_the_grid(self, engine):
        planner = CapacityPlanner(engine, ServingTarget.from_ms(5_000, 50.0))
        plans = planner.plan_dlrm(
            DLRM_DEFAULT, (64, 128),
            fleets=[
                CandidateFleet("V100", gpus_per_replica=2),
                CandidateFleet("V100", gpus_per_replica=4, nodes=2),
            ],
            collective_model_for=lambda n: CollectiveModel.calibrate(
                GroundTruthCollectives(NVLINK), n
            ),
            topology_model_for=lambda topo: (
                TopologyCollectiveModel.calibrate(
                    GroundTruthTopologyCollectives(topo)
                )
            ),
        )
        shapes = {p.fleet for p in plans}
        assert shapes == {"V100x2", "V100x4@2n"}
        multinode = [p for p in plans if p.nodes == 2]
        assert multinode
        assert all(p.gpus_per_replica == 4 for p in multinode)
        assert all(
            p.bottleneck in ("compute", "intra", "inter") for p in multinode
        )
        rows = json.loads(plans_to_json(plans))
        assert {"nodes", "bottleneck"} <= set(rows[0])

    def test_each_distinct_plan_is_built_once_per_search(
        self, engine, monkeypatch
    ):
        """perfbench's plan-fleet fleet set builds 30 plans, not 44.

        The 4-GPU box and the 2×2-node replica share their plans, and a
        second search builds them all again: nothing outlives a call.
        """
        from repro.capacity import planner as planner_module

        builds = []
        real = planner_module.build_multi_gpu_dlrm_plan

        def counting(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(
            planner_module, "build_multi_gpu_dlrm_plan", counting
        )
        planner = CapacityPlanner(engine, ServingTarget.from_ms(50_000, 5.0))

        def search():
            return planner.plan_dlrm(
                DLRM_DEFAULT, (1, 2, 4, 8, 16, 32, 64, 128, 256),
                fleets=[
                    CandidateFleet("V100", gpus_per_replica=1),
                    CandidateFleet("V100", gpus_per_replica=2),
                    CandidateFleet("V100", gpus_per_replica=4),
                    CandidateFleet("V100", gpus_per_replica=4, nodes=2),
                ],
                collective_model_for=lambda n: CollectiveModel.calibrate(
                    GroundTruthCollectives(NVLINK), n
                ),
                topology_model_for=lambda topo: (
                    TopologyCollectiveModel.calibrate(
                        GroundTruthTopologyCollectives(topo)
                    )
                ),
                prune=True,
            )

        first = search()
        assert len(builds) == 30
        builds.clear()
        second = search()
        assert len(builds) == 30
        assert plans_to_json(second) == plans_to_json(first)
        fleets = {p.fleet for p in first}
        assert {"V100x4", "V100x4@2n"} <= fleets
