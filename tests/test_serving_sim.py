"""Serving-simulator tests: generators, scenarios, cross-validation.

The cross-validation class is the load-bearing one: where the
discrete-event simulator and the closed-form planner share assumptions
(steady Poisson, random routing, batches that always fill, healthy
replicas), the measured p99 must land within ±30% of the closed-form
p99.  The agreement window is calibrated per batch size — see
docs/SERVING.md for why b=1 and off-window utilizations are excluded.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capacity import predict_percentile_latency
from repro.serving import (
    ARRIVAL_DIURNAL,
    ARRIVAL_FLASH_CROWD,
    ARRIVAL_KINDS,
    ARRIVAL_POISSON,
    ARRIVAL_REPLAY,
    ArrivalSpec,
    BatchingPolicy,
    FaultInjection,
    QueueDepthAutoscaler,
    ROUTE_LEAST_LOADED,
    ROUTE_RANDOM,
    ROUTING_POLICIES,
    ServingSimulator,
    SimulatedServingReport,
    TabulatedServiceTimes,
    batch_ladder,
    describe_arrivals,
    generate_arrivals,
    nearest_rank_us,
    render_report,
)
from repro.serving.report import ARRIVAL_DESCRIPTIONS

#: Effectively-infinite seal timeout: batches always fill to max_batch
#: (the closed-form model's fill assumption).
ALWAYS_FILL_US = 1e12


def flat_service(service_us: float, max_batch: int) -> TabulatedServiceTimes:
    """A service table pricing every batch up to max_batch the same."""
    return TabulatedServiceTimes({max_batch: service_us})


# ---------------------------------------------------------------------------
# Arrival-trace generators
# ---------------------------------------------------------------------------
class TestArrivalGenerators:
    def test_poisson_trace_is_ascending_at_the_requested_rate(self):
        spec = ArrivalSpec(
            kind=ARRIVAL_POISSON, qps=5000.0, num_requests=20_000
        )
        times_us = generate_arrivals(spec, seed=3)
        assert len(times_us) == 20_000
        assert np.all(np.diff(times_us) >= 0)
        measured_qps = len(times_us) / times_us[-1] * 1e6
        assert measured_qps == pytest.approx(5000.0, rel=0.05)

    def test_same_seed_replays_byte_for_byte(self):
        spec = ArrivalSpec(
            kind=ARRIVAL_DIURNAL, qps=2000.0, num_requests=5000
        )
        a = generate_arrivals(spec, seed=9)
        b = generate_arrivals(spec, seed=9)
        assert a.tobytes() == b.tobytes()
        assert generate_arrivals(spec, seed=10).tobytes() != a.tobytes()

    def test_diurnal_rate_tracks_the_sinusoid(self):
        spec = ArrivalSpec(
            kind=ARRIVAL_DIURNAL, qps=1000.0, num_requests=1000,
            period_us=1e6, amplitude=0.8,
        )
        quarter = spec.rate_qps(0.25e6)  # sin peak
        trough = spec.rate_qps(0.75e6)  # sin trough
        assert quarter == pytest.approx(1800.0)
        assert trough == pytest.approx(200.0)
        # The sampled trace is denser around peaks than troughs.
        times_us = generate_arrivals(spec, seed=1)
        phase = (times_us % 1e6) / 1e6
        rising = np.count_nonzero((phase >= 0.0) & (phase < 0.5))
        falling = np.count_nonzero((phase >= 0.5) & (phase < 1.0))
        assert rising > falling

    def test_flash_crowd_is_denser_inside_the_window(self):
        spec = ArrivalSpec(
            kind=ARRIVAL_FLASH_CROWD, qps=1000.0, num_requests=20_000,
            spike_start_us=2e6, spike_duration_us=3e6,
            spike_multiplier=5.0,
        )
        times_us = generate_arrivals(spec, seed=2)
        in_window = np.count_nonzero(
            (times_us >= 2e6) & (times_us < 5e6)
        )
        window_qps = in_window / 3e6 * 1e6
        assert window_qps == pytest.approx(5000.0, rel=0.1)
        before = np.count_nonzero(times_us < 2e6)
        assert before / 2e6 * 1e6 == pytest.approx(1000.0, rel=0.15)

    def test_replay_is_the_exact_cumsum(self):
        gaps = (10.0, 5.0, 0.0, 25.0)
        spec = ArrivalSpec(kind=ARRIVAL_REPLAY, inter_arrival_us=gaps)
        assert spec.num_requests == 4
        times_us = generate_arrivals(spec, seed=123)
        assert times_us.tolist() == [10.0, 15.0, 15.0, 40.0]

    def test_peak_qps_per_kind(self):
        assert ArrivalSpec(kind=ARRIVAL_POISSON, qps=100.0).peak_qps == 100.0
        assert ArrivalSpec(
            kind=ARRIVAL_DIURNAL, qps=100.0, amplitude=0.5
        ).peak_qps == pytest.approx(150.0)
        assert ArrivalSpec(
            kind=ARRIVAL_FLASH_CROWD, qps=100.0, spike_multiplier=3.0
        ).peak_qps == pytest.approx(300.0)
        replay = ArrivalSpec(
            kind=ARRIVAL_REPLAY, inter_arrival_us=(1000.0, 1000.0)
        )
        assert replay.peak_qps == pytest.approx(1000.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "bursty"},
            {"kind": ARRIVAL_POISSON, "qps": 0.0},
            {"kind": ARRIVAL_POISSON, "num_requests": 0},
            {"kind": ARRIVAL_DIURNAL, "amplitude": 1.0},
            {"kind": ARRIVAL_DIURNAL, "period_us": 0.0},
            {"kind": ARRIVAL_FLASH_CROWD, "spike_multiplier": 0.5},
            {"kind": ARRIVAL_FLASH_CROWD, "spike_duration_us": -1.0},
            {"kind": ARRIVAL_REPLAY},
            {"kind": ARRIVAL_REPLAY, "inter_arrival_us": (1.0, -2.0)},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ArrivalSpec(**kwargs)

    @pytest.mark.parametrize(
        "spec",
        [
            ArrivalSpec(kind=ARRIVAL_POISSON, qps=123.0, num_requests=7),
            ArrivalSpec(
                kind=ARRIVAL_DIURNAL, qps=50.0, period_us=2e6,
                amplitude=0.25,
            ),
            ArrivalSpec(
                kind=ARRIVAL_FLASH_CROWD, qps=10.0, spike_start_us=5.0,
                spike_duration_us=6.0, spike_multiplier=2.0,
            ),
            ArrivalSpec(
                kind=ARRIVAL_REPLAY, inter_arrival_us=(3.0, 4.0)
            ),
        ],
    )
    def test_spec_roundtrips(self, spec):
        assert ArrivalSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        ) == spec

    def test_every_kind_has_a_description(self):
        assert set(ARRIVAL_DESCRIPTIONS) == set(ARRIVAL_KINDS)
        for kind in ARRIVAL_KINDS:
            if kind == ARRIVAL_REPLAY:
                spec = ArrivalSpec(
                    kind=kind, inter_arrival_us=(1.0, 2.0)
                )
            else:
                spec = ArrivalSpec(kind=kind)
            assert describe_arrivals(spec)


# ---------------------------------------------------------------------------
# Service-time models
# ---------------------------------------------------------------------------
class TestServiceModels:
    def test_batch_ladder_is_powers_of_two_plus_max(self):
        assert batch_ladder(32) == (1, 2, 4, 8, 16, 32)
        assert batch_ladder(24) == (1, 2, 4, 8, 16, 24)
        assert batch_ladder(1) == (1,)

    def test_batch_ladder_step_filters_unshardable_sizes(self):
        assert batch_ladder(32, step=4) == (4, 8, 16, 32)
        with pytest.raises(ValueError):
            batch_ladder(32, step=3)

    def test_partial_batches_round_up_to_the_next_rung(self):
        table = TabulatedServiceTimes({1: 10.0, 8: 50.0, 32: 100.0})
        assert table.sizes == (1, 8, 32)
        assert table.service_us(1) == 10.0
        assert table.service_us(2) == 50.0
        assert table.service_us(8) == 50.0
        assert table.service_us(9) == 100.0
        with pytest.raises(ValueError):
            table.service_us(33)
        with pytest.raises(ValueError):
            table.service_us(0)

    @pytest.mark.parametrize(
        "times", [{}, {0: 1.0}, {4: 0.0}, {4: -2.0}]
    )
    def test_invalid_tables_rejected(self, times):
        with pytest.raises(ValueError):
            TabulatedServiceTimes(times)

    def test_table_roundtrips(self):
        table = TabulatedServiceTimes({1: 10.0, 16: 80.0})
        again = TabulatedServiceTimes.from_dict(
            json.loads(json.dumps(table.to_dict()))
        )
        assert again.sizes == table.sizes
        assert again.service_us(16) == table.service_us(16)


# ---------------------------------------------------------------------------
# Batching policy
# ---------------------------------------------------------------------------
class TestBatchingPolicy:
    def test_roundtrip_and_batched_property(self):
        policy = BatchingPolicy(max_batch=8, timeout_us=500.0)
        assert policy.batched
        assert BatchingPolicy.from_dict(policy.to_dict()) == policy
        assert not BatchingPolicy(max_batch=1, timeout_us=500.0).batched
        assert not BatchingPolicy(max_batch=8, timeout_us=0.0).batched

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_batch": 0}, {"max_batch": 4, "timeout_us": -1.0}],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BatchingPolicy(**kwargs)


# ---------------------------------------------------------------------------
# Hypothesis cross-validation: simulated p99 vs closed-form p99
# ---------------------------------------------------------------------------
#: Calibrated per-batch utilization windows where the closed form's
#: assumptions hold (see docs/SERVING.md).  Below each window the
#: closed form ignores fill-time variance; above it, batch departures
#: are Erlang-regular and M/D/1 is conservative; b=1 is excluded
#: because the ln-scaled-mean p99 underestimates the true M/D/1 tail.
RHO_WINDOWS = {2: (0.52, 0.60), 4: (0.42, 0.50), 8: (0.34, 0.44)}
#: Required agreement between simulated and closed-form p99.
CROSS_VALIDATION_TOLERANCE = 0.30


class TestClosedFormCrossValidation:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        batch=st.sampled_from(sorted(RHO_WINDOWS)),
        rho_frac=st.floats(0.0, 1.0),
        service_us=st.floats(200.0, 5000.0),
        replicas=st.integers(1, 4),
        seed=st.integers(0, 2**20),
    )
    def test_simulated_p99_within_tolerance_of_closed_form(
        self, batch, rho_frac, service_us, replicas, seed
    ):
        lo, hi = RHO_WINDOWS[batch]
        rho = lo + rho_frac * (hi - lo)
        qps = rho * batch / service_us * 1e6 * replicas
        spec = ArrivalSpec(
            kind=ARRIVAL_POISSON, qps=qps,
            num_requests=4000 * replicas,
        )
        sim = ServingSimulator(
            flat_service(service_us, batch),
            replicas,
            BatchingPolicy(max_batch=batch, timeout_us=ALWAYS_FILL_US),
            seed=seed,
        )
        report = sim.run(spec)
        assert report.completed == spec.num_requests
        closed = predict_percentile_latency(
            service_us, batch, qps / replicas
        )
        assert not closed.saturated
        ratio = report.latency_p99_us / closed.total_us
        assert 1 - CROSS_VALIDATION_TOLERANCE <= ratio, (
            f"simulated p99 {report.latency_p99_us:.0f} us far below "
            f"closed-form {closed.total_us:.0f} us (ratio {ratio:.3f})"
        )
        assert ratio <= 1 + CROSS_VALIDATION_TOLERANCE, (
            f"simulated p99 {report.latency_p99_us:.0f} us far above "
            f"closed-form {closed.total_us:.0f} us (ratio {ratio:.3f})"
        )

    def test_same_seed_gives_byte_identical_reports(self):
        spec = ArrivalSpec(
            kind=ARRIVAL_FLASH_CROWD, qps=3000.0, num_requests=4000,
            spike_start_us=2e5, spike_duration_us=4e5,
            spike_multiplier=4.0,
        )

        def run(seed):
            sim = ServingSimulator(
                flat_service(800.0, 8), 3,
                BatchingPolicy(max_batch=8, timeout_us=500.0),
                faults=FaultInjection(kill_replica=2, kill_at_us=3e5),
                seed=seed,
            )
            return json.dumps(
                sim.run(spec, scenario="determinism").to_dict(),
                sort_keys=True,
            )

        assert run(5) == run(5)
        assert run(5) != run(6)


# ---------------------------------------------------------------------------
# Scenario suite: monotonicity, faults, batching edge cases
# ---------------------------------------------------------------------------
class TestScenarios:
    def test_more_replicas_never_raise_p99(self):
        spec = ArrivalSpec(
            kind=ARRIVAL_POISSON, qps=850.0, num_requests=6000
        )
        unbatched = BatchingPolicy(max_batch=1, timeout_us=0.0)
        p99s = []
        for replicas in (1, 2, 4):
            sim = ServingSimulator(
                flat_service(1000.0, 1), replicas, unbatched, seed=4
            )
            p99s.append(sim.run(spec).latency_p99_us)
        assert p99s[0] >= p99s[1] >= p99s[2]

    def test_flash_crowd_never_lowers_p99(self):
        steady = ArrivalSpec(
            kind=ARRIVAL_POISSON, qps=2000.0, num_requests=6000
        )
        crowd = ArrivalSpec(
            kind=ARRIVAL_FLASH_CROWD, qps=2000.0, num_requests=6000,
            spike_start_us=5e5, spike_duration_us=1e6,
            spike_multiplier=4.0,
        )
        policy = BatchingPolicy(max_batch=8, timeout_us=1000.0)
        base = ServingSimulator(
            flat_service(900.0, 8), 2, policy, seed=11
        ).run(steady)
        spiked = ServingSimulator(
            flat_service(900.0, 8), 2, policy, seed=11
        ).run(crowd)
        assert spiked.latency_p99_us >= base.latency_p99_us

    def test_killing_one_of_n_degrades_but_completes(self):
        spec = ArrivalSpec(
            kind=ARRIVAL_POISSON, qps=1800.0, num_requests=6000
        )
        policy = BatchingPolicy(max_batch=4, timeout_us=800.0)
        healthy = ServingSimulator(
            flat_service(1000.0, 4), 3, policy, seed=8
        ).run(spec)
        faults = FaultInjection(kill_replica=1, kill_at_us=1e6)
        degraded = ServingSimulator(
            flat_service(1000.0, 4), 3, policy, faults=faults, seed=8
        ).run(spec)
        assert degraded.completed + degraded.dropped == 6000
        assert degraded.dropped == 0  # survivors absorb the orphans
        assert degraded.latency_p99_us >= healthy.latency_p99_us

    def test_killing_the_last_replica_drops_instead_of_deadlocking(self):
        spec = ArrivalSpec(
            kind=ARRIVAL_POISSON, qps=1000.0, num_requests=500
        )
        faults = FaultInjection(kill_replica=0, kill_at_us=50_000.0)
        report = ServingSimulator(
            flat_service(1000.0, 4),
            1,
            BatchingPolicy(max_batch=4, timeout_us=500.0),
            faults=faults,
            seed=2,
        ).run(spec)
        assert report.completed + report.dropped == 500
        assert report.dropped > 0
        assert report.completed < 500

    def test_nothing_completed_reports_inf_and_roundtrips(self):
        spec = ArrivalSpec(
            kind=ARRIVAL_POISSON, qps=1000.0, num_requests=50
        )
        report = ServingSimulator(
            flat_service(1000.0, 4),
            1,
            faults=FaultInjection(kill_replica=0, kill_at_us=0.0),
            seed=2,
        ).run(spec)
        assert report.completed == 0
        assert report.dropped == 50
        assert math.isinf(report.latency_p99_us)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["latency_p99_us"] is None
        assert SimulatedServingReport.from_dict(payload) == report

    def test_straggler_raises_the_tail(self):
        spec = ArrivalSpec(
            kind=ARRIVAL_POISSON, qps=1200.0, num_requests=6000
        )
        policy = BatchingPolicy(max_batch=4, timeout_us=800.0)
        healthy = ServingSimulator(
            flat_service(1000.0, 4), 2, policy, seed=6
        ).run(spec)
        slowed = ServingSimulator(
            flat_service(1000.0, 4), 2, policy, seed=6,
            faults=FaultInjection(
                straggler_replica=0, straggler_factor=3.0
            ),
        ).run(spec)
        assert slowed.completed == 6000
        assert slowed.latency_p99_us > healthy.latency_p99_us

    def test_integers_of_one_consumes_no_generator_state(self):
        """The premise that lets a lone replica skip the routing draw."""
        rng = np.random.default_rng(17)
        before = rng.bit_generator.state
        for _ in range(5):
            assert rng.integers(1) == 0
        assert rng.bit_generator.state == before

    def test_lone_replica_routes_without_a_draw(self, monkeypatch):
        draws = []
        real = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self._rng = real(seed)

            def integers(self, *args, **kwargs):
                draws.append(args)
                return self._rng.integers(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._rng, name)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        spec = ArrivalSpec(kind=ARRIVAL_POISSON, qps=900.0, num_requests=500)
        policy = BatchingPolicy(max_batch=4, timeout_us=500.0)
        ServingSimulator(flat_service(300.0, 4), 1, policy, seed=2).run(spec)
        assert draws == []
        ServingSimulator(flat_service(300.0, 4), 2, policy, seed=2).run(spec)
        assert draws

    def test_zero_timeout_disables_batching(self):
        spec = ArrivalSpec(
            kind=ARRIVAL_POISSON, qps=1000.0, num_requests=2000
        )
        report = ServingSimulator(
            flat_service(400.0, 32),
            2,
            BatchingPolicy(max_batch=32, timeout_us=0.0),
            seed=3,
        ).run(spec)
        assert report.mean_batch == 1.0
        assert report.num_batches == report.completed == 2000

    def test_max_batch_one_matches_unbatched(self):
        spec = ArrivalSpec(
            kind=ARRIVAL_POISSON, qps=900.0, num_requests=3000
        )

        def run(policy):
            sim = ServingSimulator(
                flat_service(700.0, 1), 2, policy, seed=7
            )
            return sim.run(spec)

        single = run(BatchingPolicy(max_batch=1, timeout_us=1000.0))
        unbatched = run(BatchingPolicy(max_batch=8, timeout_us=0.0))
        for metric in (
            "latency_mean_us", "latency_p50_us", "latency_p99_us",
            "latency_p999_us", "latency_max_us", "completed",
            "num_batches",
        ):
            assert getattr(single, metric) == getattr(unbatched, metric)

    def test_autoscaler_grows_the_pool_under_overload(self):
        spec = ArrivalSpec(
            kind=ARRIVAL_POISSON, qps=2500.0, num_requests=8000
        )
        policy = BatchingPolicy(max_batch=1, timeout_us=0.0)
        scaler = QueueDepthAutoscaler(
            target_queue=4.0, min_replicas=1, max_replicas=8,
            interval_us=50_000.0, startup_us=100_000.0,
        )
        fixed = ServingSimulator(
            flat_service(1000.0, 1), 1, policy, seed=5
        ).run(spec)
        scaled = ServingSimulator(
            flat_service(1000.0, 1), 1, policy,
            autoscaler=scaler, seed=5,
        ).run(spec)
        assert scaled.completed == 8000
        assert scaled.peak_replicas > 1
        assert scaled.peak_replicas <= 8
        assert scaled.latency_p99_us < fixed.latency_p99_us

    def test_least_loaded_routing_serves_everything(self):
        assert set(ROUTING_POLICIES) == {ROUTE_RANDOM, ROUTE_LEAST_LOADED}
        spec = ArrivalSpec(
            kind=ARRIVAL_POISSON, qps=1500.0, num_requests=3000
        )
        report = ServingSimulator(
            flat_service(1000.0, 4), 2,
            BatchingPolicy(max_batch=4, timeout_us=500.0),
            routing=ROUTE_LEAST_LOADED, seed=1,
        ).run(spec)
        assert report.completed == 3000
        assert report.routing == ROUTE_LEAST_LOADED

    def test_replayed_trace_is_served_in_order(self):
        gaps = tuple([500.0] * 200)
        spec = ArrivalSpec(kind=ARRIVAL_REPLAY, inter_arrival_us=gaps)
        report = ServingSimulator(
            flat_service(400.0, 2),
            1,
            BatchingPolicy(max_batch=2, timeout_us=250.0),
            seed=0,
        ).run(spec, scenario="replay")
        assert report.completed == 200
        assert report.arrival_kind == ARRIVAL_REPLAY

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replicas": 0},
            {"replicas": 2, "routing": "sticky"},
            {
                "replicas": 2,
                "faults": FaultInjection(kill_replica=2),
            },
            {
                "replicas": 2,
                "faults": FaultInjection(straggler_replica=5),
            },
        ],
    )
    def test_invalid_simulators_rejected(self, kwargs):
        kwargs.setdefault("replicas", 1)
        with pytest.raises(ValueError):
            ServingSimulator(flat_service(100.0, 4), **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kill_at_us": -1.0},
            {"straggler_factor": 0.5},
        ],
    )
    def test_invalid_faults_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultInjection(**kwargs)

    def test_fault_injection_roundtrips(self):
        faults = FaultInjection(
            kill_replica=1, kill_at_us=10.0,
            straggler_replica=0, straggler_factor=2.0,
        )
        assert FaultInjection.from_dict(faults.to_dict()) == faults

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_queue": 0.0},
            {"min_replicas": 0},
            {"min_replicas": 4, "max_replicas": 2},
            {"interval_us": 0.0},
            {"startup_us": -1.0},
        ],
    )
    def test_invalid_autoscalers_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QueueDepthAutoscaler(**kwargs)

    def test_autoscaler_desired_replicas_clamps(self):
        scaler = QueueDepthAutoscaler(
            target_queue=2.0, min_replicas=2, max_replicas=5
        )
        assert scaler.desired_replicas(0.0, 2, 0) == 2
        assert scaler.desired_replicas(0.0, 2, 6) == 3
        assert scaler.desired_replicas(0.0, 2, 1000) == 5


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------
class TestReport:
    def test_nearest_rank_matches_known_values(self):
        sorted_us = np.arange(1.0, 101.0)
        assert nearest_rank_us(sorted_us, 50.0) == 50.0
        assert nearest_rank_us(sorted_us, 99.0) == 99.0
        assert nearest_rank_us(sorted_us, 100.0) == 100.0
        assert nearest_rank_us(sorted_us, 0.5) == 1.0
        assert math.isinf(nearest_rank_us(np.array([]), 99.0))
        with pytest.raises(ValueError):
            nearest_rank_us(sorted_us, 0.0)
        with pytest.raises(ValueError):
            nearest_rank_us(sorted_us, 101.0)

    def test_render_report_mentions_the_essentials(self):
        spec = ArrivalSpec(
            kind=ARRIVAL_POISSON, qps=1000.0, num_requests=400
        )
        report = ServingSimulator(
            flat_service(500.0, 4),
            2,
            BatchingPolicy(max_batch=4, timeout_us=300.0),
            seed=0,
        ).run(spec, scenario="render me")
        text = render_report(report)
        assert "render me" in text
        assert "p99" in text
        assert "2 replicas" in text

    def test_report_roundtrips_through_json(self):
        spec = ArrivalSpec(
            kind=ARRIVAL_DIURNAL, qps=1500.0, num_requests=1500
        )
        report = ServingSimulator(
            flat_service(600.0, 8),
            2,
            BatchingPolicy(max_batch=8, timeout_us=400.0),
            seed=12,
        ).run(spec, scenario="roundtrip")
        payload = json.loads(json.dumps(report.to_dict()))
        assert SimulatedServingReport.from_dict(payload) == report


# ---------------------------------------------------------------------------
# Goldens
# ---------------------------------------------------------------------------
class TestGoldens:
    def test_steady_report_golden(self, golden):
        spec = ArrivalSpec(
            kind=ARRIVAL_POISSON, qps=1500.0, num_requests=800
        )
        report = ServingSimulator(
            flat_service(900.0, 8),
            2,
            BatchingPolicy(max_batch=8, timeout_us=700.0),
            seed=21,
        ).run(spec, scenario="golden:steady")
        golden("serving_sim_steady", report.to_dict())

    def test_faulted_flash_crowd_golden(self, golden):
        spec = ArrivalSpec(
            kind=ARRIVAL_FLASH_CROWD, qps=1500.0, num_requests=800,
            spike_start_us=1e5, spike_duration_us=2e5,
            spike_multiplier=5.0,
        )
        report = ServingSimulator(
            flat_service(900.0, 8),
            3,
            BatchingPolicy(max_batch=8, timeout_us=700.0),
            faults=FaultInjection(kill_replica=0, kill_at_us=1.5e5),
            seed=22,
        ).run(spec, scenario="golden:flash-crowd-kill")
        golden("serving_sim_faults", report.to_dict())
