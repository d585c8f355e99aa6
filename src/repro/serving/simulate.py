"""Discrete-event serving simulator: replica pool, faults, autoscaling.

The executable counterpart of the closed-form fill + M/D/1 model in
:mod:`repro.capacity.slo` — the same predict-vs-simulate discipline the
repo enforces for iteration time, one level up.  A heap-ordered event
loop drives a pool of replicas: requests arrive on a generated trace
(:mod:`repro.serving.arrivals`), a dynamic-batching front end per
replica forms batches (:mod:`repro.serving.batching`), each formed
batch occupies its replica for the service time priced through the
sweep cache (:mod:`repro.serving.service`), and per-request latencies
are *measured* from the simulated completion distribution rather than
derived from queueing algebra.

Beyond the closed form, the simulator executes fault injection (kill a
replica at time t — its backlog is rerouted to survivors — and
straggler slowdown factors) and autoscaling policy hooks (scale the
pool against observed queue depth, with a startup delay).  Everything
is seeded: one ``(simulator, spec)`` pair replays byte-for-byte.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.serving.arrivals import ArrivalSpec, generate_arrivals
from repro.serving.batching import BatchingPolicy
from repro.serving.report import SimulatedServingReport, build_report
from repro.serving.service import ServiceTimeModel

#: Routing policy: seeded-uniform random replica choice.  Splitting a
#: Poisson stream uniformly keeps each replica's arrivals Poisson,
#: matching the closed-form model's per-replica ``qps / replicas``.
ROUTE_RANDOM = "random"
#: Routing policy: fewest outstanding requests, ties to lowest index.
ROUTE_LEAST_LOADED = "least_loaded"
#: Every routing policy the simulator understands.
ROUTING_POLICIES = (ROUTE_RANDOM, ROUTE_LEAST_LOADED)

#: Default autoscaler decision interval.
DEFAULT_AUTOSCALE_INTERVAL_US = 100_000.0
#: Default replica startup (cold-start) delay.
DEFAULT_REPLICA_STARTUP_US = 250_000.0
#: Default queue-depth target per replica for the autoscaler.
DEFAULT_TARGET_QUEUE = 4.0

# Event kinds, ordered within a timestamp by insertion sequence.
_EV_ARRIVAL = 0
_EV_SEAL = 1
_EV_DONE = 2
_EV_KILL = 3
_EV_SCALE = 4
_EV_UP = 5


@dataclass(frozen=True)
class FaultInjection:
    """Fault knobs for one simulated run.

    Attributes:
        kill_replica: Index of the replica to kill (``None`` disables).
        kill_at_us: Simulated time of the kill.  The in-flight batch
            finishes (it is already on the accelerator); forming and
            queued requests are rerouted to surviving replicas, or
            dropped when none remain.
        straggler_replica: Index of a replica whose service times are
            stretched (``None`` disables).
        straggler_factor: Service-time multiplier of the straggler
            (``1.0`` means no slowdown).
    """

    kill_replica: int | None = None
    kill_at_us: float = 0.0
    straggler_replica: int | None = None
    straggler_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kill_at_us < 0:
            raise ValueError(
                f"kill_at_us must be >= 0, got {self.kill_at_us}"
            )
        if self.straggler_factor < 1.0:
            raise ValueError(
                f"straggler_factor must be >= 1, got {self.straggler_factor}"
            )

    def to_dict(self) -> dict:
        """JSON-compatible form (inverse of :meth:`from_dict`)."""
        return {
            "kill_replica": self.kill_replica,
            "kill_at_us": self.kill_at_us,
            "straggler_replica": self.straggler_replica,
            "straggler_factor": self.straggler_factor,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultInjection":
        """Rebuild fault knobs from a :meth:`to_dict` row."""
        return cls(
            kill_replica=data["kill_replica"],
            kill_at_us=data["kill_at_us"],
            straggler_replica=data["straggler_replica"],
            straggler_factor=data["straggler_factor"],
        )


class AutoscalePolicy:
    """Hook interface for replica-pool autoscaling decisions.

    The simulator calls :meth:`desired_replicas` every
    :attr:`interval_us` of simulated time; scale-ups become routable
    after :attr:`startup_us`, scale-downs drain (stop receiving
    requests, finish their backlog, then retire).
    """

    #: Simulated time between autoscaling decisions.
    interval_us: float = DEFAULT_AUTOSCALE_INTERVAL_US
    #: Cold-start delay before a scaled-up replica becomes routable.
    startup_us: float = DEFAULT_REPLICA_STARTUP_US

    def desired_replicas(
        self, now_us: float, alive: int, waiting: int
    ) -> int:
        """Target routable-replica count given the observed state.

        Args:
            now_us: Current simulated time.
            alive: Currently routable replicas.
            waiting: Requests forming or queued (not yet in service)
                across the pool.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class QueueDepthAutoscaler(AutoscalePolicy):
    """Scale to keep per-replica queue depth near a target.

    Attributes:
        target_queue: Desired waiting requests per routable replica.
        min_replicas: Floor of the scaling range.
        max_replicas: Ceiling of the scaling range.
        interval_us: Simulated time between decisions.
        startup_us: Cold-start delay of a scaled-up replica.
    """

    target_queue: float = DEFAULT_TARGET_QUEUE
    min_replicas: int = 1
    max_replicas: int = 64
    interval_us: float = DEFAULT_AUTOSCALE_INTERVAL_US
    startup_us: float = DEFAULT_REPLICA_STARTUP_US

    def __post_init__(self) -> None:
        if self.target_queue <= 0:
            raise ValueError(
                f"target_queue must be positive, got {self.target_queue}"
            )
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError(
                f"need 1 <= min_replicas <= max_replicas, got "
                f"{self.min_replicas}..{self.max_replicas}"
            )
        if self.interval_us <= 0:
            raise ValueError(
                f"interval_us must be positive, got {self.interval_us}"
            )
        if self.startup_us < 0:
            raise ValueError(
                f"startup_us must be >= 0, got {self.startup_us}"
            )

    def desired_replicas(
        self, now_us: float, alive: int, waiting: int
    ) -> int:
        """Waiting requests divided by the per-replica target, clamped."""
        desired = math.ceil(waiting / self.target_queue)
        return max(self.min_replicas, min(self.max_replicas, desired))


class _Replica:
    """Mutable per-replica simulation state."""

    __slots__ = (
        "index", "speed_factor", "alive", "draining",
        "forming", "seal_epoch", "queue", "in_service",
    )

    def __init__(self, index: int, speed_factor: float = 1.0) -> None:
        self.index = index
        self.speed_factor = speed_factor
        self.alive = True
        self.draining = False
        #: Arrival timestamps of requests waiting for the batch to fill.
        self.forming: list[float] = []
        #: Monotonic counter invalidating stale timeout (seal) events.
        self.seal_epoch = 0
        #: Sealed batches waiting for the accelerator:
        #: ``(dispatch_us, [arrival_us, ...])``.
        self.queue: deque = deque()
        #: ``(dispatch_us, start_us, [arrival_us, ...])`` or ``None``.
        self.in_service: tuple | None = None

    @property
    def waiting(self) -> int:
        """Requests forming or queued (not yet in service)."""
        return len(self.forming) + sum(len(b[1]) for b in self.queue)

    @property
    def idle(self) -> bool:
        """No forming requests, no queued batches, nothing in service."""
        return (
            not self.forming and not self.queue and self.in_service is None
        )


class ServingSimulator:
    """Simulates one replica pool serving one arrival trace.

    Args:
        service_model: Batch service-time model (see
            :mod:`repro.serving.service`).
        replicas: Initial replica-pool size.
        batching: Dynamic-batching policy (default:
            :class:`~repro.serving.batching.BatchingPolicy`).
        routing: One of :data:`ROUTING_POLICIES`.  Random routing is
            the default because it preserves per-replica Poisson
            arrivals — the apples-to-apples setting for validating the
            closed-form planner.
        autoscaler: Optional :class:`AutoscalePolicy` hook.
        faults: Optional :class:`FaultInjection` knobs.
        seed: Seed for the arrival trace and routing choices.
    """

    def __init__(
        self,
        service_model: ServiceTimeModel,
        replicas: int,
        batching: BatchingPolicy | None = None,
        routing: str = ROUTE_RANDOM,
        autoscaler: AutoscalePolicy | None = None,
        faults: FaultInjection | None = None,
        seed: int = 0,
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if routing not in ROUTING_POLICIES:
            known = ", ".join(ROUTING_POLICIES)
            raise ValueError(
                f"unknown routing policy {routing!r}; known: {known}"
            )
        self.service_model = service_model
        self.replicas = replicas
        self.batching = batching if batching is not None else BatchingPolicy()
        self.routing = routing
        self.autoscaler = autoscaler
        self.faults = faults
        self.seed = seed
        if faults is not None and faults.kill_replica is not None:
            if not 0 <= faults.kill_replica < replicas:
                raise ValueError(
                    f"kill_replica {faults.kill_replica} outside the "
                    f"initial pool of {replicas}"
                )
        if faults is not None and faults.straggler_replica is not None:
            if not 0 <= faults.straggler_replica < replicas:
                raise ValueError(
                    f"straggler_replica {faults.straggler_replica} outside "
                    f"the initial pool of {replicas}"
                )

    # -- public entry points --------------------------------------------
    def run(
        self, spec: ArrivalSpec, scenario: str = ""
    ) -> SimulatedServingReport:
        """Generate the trace for ``spec`` and simulate serving it."""
        arrivals_us = generate_arrivals(spec, self.seed)
        return self.run_trace(arrivals_us, spec, scenario)

    def run_trace(
        self,
        arrivals_us: np.ndarray,
        spec: ArrivalSpec,
        scenario: str = "",
    ) -> SimulatedServingReport:
        """Simulate serving an explicit (pre-generated) arrival trace."""
        state = _LoopState(self, np.asarray(arrivals_us, dtype=float))
        state.drain()
        return build_report(
            scenario=scenario,
            spec=spec,
            simulator=self,
            state=state,
        )


class _LoopState:
    """One simulation run: the event heap and all mutable pool state."""

    def __init__(self, sim: ServingSimulator, arrivals_us: np.ndarray):
        self.sim = sim
        self.arrivals_us = arrivals_us
        self.rng = np.random.default_rng(sim.seed)
        self.pool: list[_Replica] = []
        for index in range(sim.replicas):
            factor = 1.0
            faults = sim.faults
            if (
                faults is not None
                and faults.straggler_replica == index
            ):
                factor = faults.straggler_factor
            self.pool.append(_Replica(index, speed_factor=factor))
        self.heap: list[tuple] = []
        self.seq = itertools.count()
        # Completed-request component samples (µs), appended in
        # deterministic event order.
        self.fill_us: list[float] = []
        self.queue_wait_us: list[float] = []
        self.service_us: list[float] = []
        self.done_us: list[float] = []
        self.arrival_of_done_us: list[float] = []
        self.batch_sizes: list[int] = []
        self.dropped = 0
        self.peak_replicas = sim.replicas
        self.pending_up = 0
        self._next_arrival = 0
        if len(arrivals_us):
            self._push(arrivals_us[0], _EV_ARRIVAL, 0)
        if sim.faults is not None and sim.faults.kill_replica is not None:
            self._push(
                sim.faults.kill_at_us, _EV_KILL, sim.faults.kill_replica
            )
        if sim.autoscaler is not None:
            self._push(sim.autoscaler.interval_us, _EV_SCALE, 0)

    # -- bookkeeping ----------------------------------------------------
    def _push(self, at_us: float, kind: int, payload: int) -> None:
        heapq.heappush(self.heap, (at_us, next(self.seq), kind, payload))

    @property
    def outstanding(self) -> int:
        """Arrivals not yet completed or dropped."""
        settled = len(self.done_us) + self.dropped
        return len(self.arrivals_us) - settled

    def routable(self) -> list[_Replica]:
        """Replicas currently accepting new requests."""
        return [r for r in self.pool if r.alive and not r.draining]

    def _route(self) -> _Replica | None:
        candidates = self.routable()
        if not candidates:
            return None
        if len(candidates) == 1:
            # integers(1) draws nothing from the generator, so skipping
            # it leaves every later draw, and the trace, unchanged.
            return candidates[0]
        if self.sim.routing == ROUTE_RANDOM:
            return candidates[int(self.rng.integers(len(candidates)))]
        return min(
            candidates,
            key=lambda r: (
                r.waiting + (
                    len(r.in_service[2]) if r.in_service is not None else 0
                ),
                r.index,
            ),
        )

    # -- event handlers -------------------------------------------------
    def drain(self) -> None:
        """Run the event loop until every event is processed."""
        while self.heap:
            now_us, _, kind, payload = heapq.heappop(self.heap)
            if kind == _EV_ARRIVAL:
                self._on_arrival(now_us)
            elif kind == _EV_SEAL:
                self._on_seal(now_us, payload)
            elif kind == _EV_DONE:
                self._on_done(now_us, payload)
            elif kind == _EV_KILL:
                self._on_kill(now_us, payload)
            elif kind == _EV_SCALE:
                self._on_scale(now_us)
            elif kind == _EV_UP:
                self._on_up(now_us)

    def _on_arrival(self, now_us: float) -> None:
        self._next_arrival += 1
        if self._next_arrival < len(self.arrivals_us):
            self._push(
                self.arrivals_us[self._next_arrival], _EV_ARRIVAL, 0
            )
        self._assign(now_us, arrival_us=now_us)

    def _assign(self, now_us: float, arrival_us: float) -> None:
        """Route one request (fresh or rerouted) into a forming batch."""
        replica = self._route()
        if replica is None:
            self.dropped += 1
            return
        policy = self.sim.batching
        replica.forming.append(arrival_us)
        if policy.timeout_us <= 0:
            self._seal(replica, now_us)
            return
        if len(replica.forming) == 1:
            replica.seal_epoch += 1
            self._push(
                now_us + policy.timeout_us, _EV_SEAL,
                self._seal_token(replica),
            )
        if len(replica.forming) >= policy.max_batch:
            self._seal(replica, now_us)

    def _seal_token(self, replica: _Replica) -> int:
        """Encode (replica, epoch) into one deterministic int payload."""
        return replica.index * 1_000_000_000 + replica.seal_epoch

    def _on_seal(self, now_us: float, token: int) -> None:
        index, epoch = divmod(token, 1_000_000_000)
        if index >= len(self.pool):
            return
        replica = self.pool[index]
        if (
            not replica.alive
            or epoch != replica.seal_epoch
            or not replica.forming
        ):
            return
        self._seal(replica, now_us)

    def _seal(self, replica: _Replica, now_us: float) -> None:
        """Dispatch the forming batch into the replica's service queue."""
        replica.queue.append((now_us, replica.forming))
        replica.forming = []
        replica.seal_epoch += 1
        self._try_start(replica, now_us)

    def _try_start(self, replica: _Replica, now_us: float) -> None:
        if (
            replica.in_service is not None
            or not replica.queue
            or not replica.alive
        ):
            return
        dispatch_us, batch = replica.queue.popleft()
        batch_service_us = (
            self.sim.service_model.service_us(len(batch))
            * replica.speed_factor
        )
        replica.in_service = (dispatch_us, now_us, batch)
        self._push(now_us + batch_service_us, _EV_DONE, replica.index)

    def _on_done(self, now_us: float, index: int) -> None:
        replica = self.pool[index]
        assert replica.in_service is not None
        dispatch_us, start_us, batch = replica.in_service
        replica.in_service = None
        for arrival_us in batch:
            self.fill_us.append(dispatch_us - arrival_us)
            self.queue_wait_us.append(start_us - dispatch_us)
            self.service_us.append(now_us - start_us)
            self.done_us.append(now_us)
            self.arrival_of_done_us.append(arrival_us)
        self.batch_sizes.append(len(batch))
        if replica.alive:
            self._try_start(replica, now_us)
            if replica.draining and replica.idle:
                replica.alive = False

    def _on_kill(self, now_us: float, index: int) -> None:
        replica = self.pool[index]
        if not replica.alive:
            return
        replica.alive = False
        orphans = list(replica.forming)
        for _, batch in replica.queue:
            orphans.extend(batch)
        replica.forming = []
        replica.queue.clear()
        replica.seal_epoch += 1
        # The in-flight batch (if any) finishes: it is already on the
        # accelerator.  Its _EV_DONE stays scheduled.
        for arrival_us in orphans:
            self._assign(now_us, arrival_us=arrival_us)

    def _on_scale(self, now_us: float) -> None:
        scaler = self.sim.autoscaler
        assert scaler is not None
        routable = self.routable()
        waiting = sum(r.waiting for r in routable)
        desired = scaler.desired_replicas(now_us, len(routable), waiting)
        current = len(routable) + self.pending_up
        if desired > current:
            for _ in range(desired - current):
                self.pending_up += 1
                self._push(now_us + scaler.startup_us, _EV_UP, 0)
        elif desired < len(routable):
            # Drain the highest-index routable replicas first.
            excess = len(routable) - desired
            for replica in sorted(routable, key=lambda r: -r.index)[:excess]:
                replica.draining = True
                if replica.idle:
                    replica.alive = False
        if self.outstanding > 0 or self._next_arrival < len(self.arrivals_us):
            self._push(now_us + scaler.interval_us, _EV_SCALE, 0)

    def _on_up(self, now_us: float) -> None:
        self.pending_up -= 1
        self.pool.append(_Replica(len(self.pool)))
        self.peak_replicas = max(self.peak_replicas, len(self.routable()))
