"""The seeded fault process: failures, stragglers, degraded links.

Faults are modelled as independent Poisson processes (exponential
inter-arrival times), the standard assumption behind MTBF arithmetic and
the Young–Daly checkpoint-interval derivation.  Three processes run side
by side, each on its own RNG stream spawned from one seed:

failures
    A component (one serving replica, or the whole training job's GCD
    pool) dies and must be restarted.  The per-component rate is
    ``gcds_per_component / MTBF``: a replica spanning 8 GCDs fails 8x as
    often as a single-GCD replica, which is exactly the resilience cost
    of wide tensor-parallel layouts.
stragglers
    A component transiently slows down by a factor over a window —
    the thermally-throttled or contended-node behaviour reported on
    large Frontier allocations.
link degradation
    A node's Slingshot/Infinity-Fabric links drop to a fraction of
    nominal bandwidth over a window, taxing whatever communication the
    affected component pays (TP allreduces in serving, gradient
    collectives in training).

Determinism contract: a :class:`FaultModel` built from the same
(config, component counts) draws the identical event sequence no matter
how callers interleave :meth:`FaultModel.peek_time` / ``pop`` /
:meth:`FaultModel.schedule` calls, because every stream owns a spawned
child of the config seed and draws strictly in time order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["BREAKER_STATES", "CircuitBreaker", "FAULT_KINDS", "FaultConfig",
           "FaultEvent", "FaultModel", "RetryPolicy"]

#: Event kinds a :class:`FaultModel` can emit.
FAULT_KINDS = ("failure", "straggler", "link-degrade")

#: States a :class:`CircuitBreaker` moves through.
BREAKER_STATES = ("closed", "open", "half-open")

_SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class FaultConfig:
    """Rates and shapes of the three fault processes.

    All rates are expressed as mean time between events *per unit*
    (hours), the way machine-room reliability is quoted; ``math.inf``
    disables a process entirely, and the all-``inf`` default makes the
    zero-fault path an exact no-op.
    """

    #: Per-GCD mean time between hard failures, hours (inf = never).
    mtbf_hours: float = math.inf
    #: Per-component mean time between straggler episodes, hours.
    straggler_mtbe_hours: float = math.inf
    #: Multiplier applied to step durations inside a straggler window.
    straggler_slowdown: float = 2.0
    #: Straggler window length, seconds.
    straggler_window_s: float = 30.0
    #: Per-node mean time between link-degradation episodes, hours.
    link_mtbe_hours: float = math.inf
    #: Fraction of nominal bandwidth remaining on a degraded link.
    link_degrade_factor: float = 0.5
    #: Link-degradation window length, seconds.
    link_window_s: float = 60.0
    #: Seed of every fault stream (spawned, never shared).
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("mtbf_hours", "straggler_mtbe_hours",
                     "link_mtbe_hours"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be > 0 (inf disables the "
                                 f"process): {value}")
        if self.straggler_slowdown < 1.0:
            raise ValueError(f"straggler_slowdown must be >= 1: "
                             f"{self.straggler_slowdown}")
        if self.straggler_window_s <= 0:
            raise ValueError(f"straggler_window_s must be > 0: "
                             f"{self.straggler_window_s}")
        if not 0.0 < self.link_degrade_factor <= 1.0:
            raise ValueError(f"link_degrade_factor must be in (0, 1]: "
                             f"{self.link_degrade_factor}")
        if self.link_window_s <= 0:
            raise ValueError(f"link_window_s must be > 0: "
                             f"{self.link_window_s}")

    @property
    def mtbf_s(self) -> float:
        return self.mtbf_hours * _SECONDS_PER_HOUR


@dataclass(frozen=True)
class FaultEvent:
    """One sampled fault: what, when, to whom, for how long."""

    kind: str           #: one of :data:`FAULT_KINDS`
    time_s: float       #: virtual-clock onset
    component: int      #: component index (replica, GCD pool, or node)
    window_s: float = 0.0   #: duration of the episode (0 for failures)
    factor: float = 1.0     #: slowdown multiplier / bandwidth fraction

    def to_dict(self) -> dict:
        return {"kind": self.kind, "time_s": self.time_s,
                "component": self.component, "window_s": self.window_s,
                "factor": self.factor}


class _PoissonStream:
    """One seeded Poisson event stream, drawn strictly in time order."""

    def __init__(self, rng: np.random.Generator, rate_per_s: float,
                 num_components: int, make_event) -> None:
        self._rng = rng
        self._rate = rate_per_s
        self._num_components = num_components
        self._make_event = make_event
        self._next: FaultEvent | None = None
        self._t = 0.0

    def _draw(self) -> None:
        if self._rate <= 0.0:
            return
        self._t += float(self._rng.exponential(1.0 / self._rate))
        component = int(self._rng.integers(self._num_components))
        self._next = self._make_event(self._t, component)

    def peek_time(self) -> float:
        if self._next is None:
            self._draw()
        return math.inf if self._next is None else self._next.time_s

    def pop(self) -> FaultEvent:
        if self._next is None:
            self._draw()
        if self._next is None:
            raise RuntimeError("popped a disabled fault stream")
        event, self._next = self._next, None
        return event


class FaultModel:
    """Merged, lazily-drawn fault schedule for one simulation.

    ``num_components`` scales the aggregate failure rate (superposed
    Poisson processes: N components at rate r fail collectively at rate
    N*r, with the victim drawn uniformly); ``gcds_per_component``
    multiplies a component's own failure rate by the hardware it spans,
    and ``num_link_domains`` (defaults to ``num_components``) is the
    population link-degradation events strike — one domain per node in
    the serving cluster.

    A model instance is *consumed* by one simulation: ``pop`` advances
    the streams.  Build a fresh instance (same config) to replay the
    identical schedule.
    """

    def __init__(self, config: FaultConfig, num_components: int, *,
                 gcds_per_component: int = 1,
                 num_link_domains: int | None = None):
        if num_components < 1:
            raise ValueError(
                f"num_components must be >= 1: {num_components}")
        if gcds_per_component < 1:
            raise ValueError(
                f"gcds_per_component must be >= 1: {gcds_per_component}")
        self.config = config
        self.num_components = num_components
        self.gcds_per_component = gcds_per_component
        self.num_link_domains = num_link_domains or num_components
        seeds = np.random.SeedSequence(config.seed).spawn(3)
        fail_rate = 0.0 if math.isinf(config.mtbf_hours) else \
            num_components * gcds_per_component / config.mtbf_s
        strag_rate = 0.0 if math.isinf(config.straggler_mtbe_hours) else \
            num_components / (config.straggler_mtbe_hours
                              * _SECONDS_PER_HOUR)
        link_rate = 0.0 if math.isinf(config.link_mtbe_hours) else \
            self.num_link_domains / (config.link_mtbe_hours
                                     * _SECONDS_PER_HOUR)
        self._streams = [
            _PoissonStream(
                np.random.default_rng(seeds[0]), fail_rate, num_components,
                lambda t, c: FaultEvent("failure", t, c)),
            _PoissonStream(
                np.random.default_rng(seeds[1]), strag_rate,
                num_components,
                lambda t, c: FaultEvent(
                    "straggler", t, c,
                    window_s=config.straggler_window_s,
                    factor=config.straggler_slowdown)),
            _PoissonStream(
                np.random.default_rng(seeds[2]), link_rate,
                self.num_link_domains,
                lambda t, c: FaultEvent(
                    "link-degrade", t, c,
                    window_s=config.link_window_s,
                    factor=config.link_degrade_factor)),
        ]

    @property
    def system_mtbf_s(self) -> float:
        """Aggregate mean time between failures across all components."""
        if math.isinf(self.config.mtbf_hours):
            return math.inf
        return self.config.mtbf_s / (self.num_components
                                     * self.gcds_per_component)

    # ------------------------------------------------------------------
    def peek_time(self) -> float:
        """Onset of the earliest undrawn event (inf when all disabled)."""
        return min(s.peek_time() for s in self._streams)

    def pop(self) -> FaultEvent:
        """Consume and return the earliest pending event."""
        stream = min(self._streams, key=lambda s: s.peek_time())
        return stream.pop()

    def events_until(self, t: float) -> list[FaultEvent]:
        """Consume every event with onset <= ``t``, in time order."""
        events: list[FaultEvent] = []
        while self.peek_time() <= t:
            events.append(self.pop())
        return events

    def schedule(self, horizon_s: float) -> list[FaultEvent]:
        """The full schedule over ``[0, horizon_s]`` (consumes streams)."""
        if horizon_s <= 0:
            raise ValueError(f"horizon_s must be > 0: {horizon_s}")
        return self.events_until(horizon_s)


class CircuitBreaker:
    """Deterministic per-component circuit breaker over fault signals.

    The classic three-state machine, driven entirely by the virtual
    clock (no RNG, no wall time):

    * **closed** — traffic flows normally.
    * **open** — a fault signal (health-check detection, straggler
      onset) called :meth:`trip`; the component is avoided until
      ``now + hold_s + cooldown_s``, where ``hold_s`` covers the known
      fault window (straggler duration, remaining recovery time).
    * **half-open** — the hold elapsed; up to ``probes`` trial requests
      may be admitted (:meth:`note_admit`).  The first probe that
      completes (:meth:`note_success`) closes the breaker; a trip while
      half-open re-opens it.

    Transitions out of ``open`` are lazy: :meth:`available` performs the
    open→half-open move the first time it is queried past the hold, so
    the breaker needs no timer wheel of its own.
    """

    def __init__(self, cooldown_s: float, probes: int) -> None:
        if not cooldown_s > 0:
            raise ValueError(f"cooldown_s must be > 0: {cooldown_s}")
        if probes < 1:
            raise ValueError(f"probes must be >= 1: {probes}")
        self.cooldown_s = cooldown_s
        self.probes = probes
        self.state = "closed"
        self.trips = 0
        self._until = 0.0
        self._probes_used = 0

    def trip(self, now: float, hold_s: float = 0.0) -> None:
        """Open the breaker until ``now + hold_s + cooldown_s``."""
        self.state = "open"
        self.trips += 1
        self._until = now + max(0.0, hold_s) + self.cooldown_s
        self._probes_used = 0

    @property
    def ready_at(self) -> float:
        """Instant an open breaker will half-open (0.0 when not open).

        Lets an event-driven router schedule a wake-up instead of
        polling :meth:`available` — without it, a fleet whose breakers
        are all open would have no next event to advance the clock to.
        """
        return self._until if self.state == "open" else 0.0

    def available(self, now: float) -> bool:
        """May the router send this component a request at ``now``?"""
        if self.state == "open" and now >= self._until:
            self.state = "half-open"
            self._probes_used = 0
        if self.state == "closed":
            return True
        if self.state == "half-open":
            return self._probes_used < self.probes
        return False

    def note_admit(self, now: float) -> None:
        """Record an admission; consumes a probe while half-open."""
        if self.state == "half-open":
            self._probes_used += 1

    def note_success(self) -> None:
        """A request completed; a half-open breaker closes."""
        if self.state == "half-open":
            self.state = "closed"
            self._probes_used = 0


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    The jitter for (request, attempt) is drawn from a generator seeded
    by ``(seed, request_id, attempt)``, so a retry's delay never depends
    on how many other requests failed before it — the whole failover
    trace stays reproducible under one seed.
    """

    max_retries: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.5     #: delay stretches by up to this fraction
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: "
                             f"{self.max_retries}")
        if self.base_delay_s < 0:
            raise ValueError(f"base_delay_s must be >= 0: "
                             f"{self.base_delay_s}")
        if self.max_delay_s < self.base_delay_s:
            raise ValueError(
                f"max_delay_s must be >= base_delay_s: "
                f"{self.max_delay_s} < {self.base_delay_s}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")

    def delay(self, request_id: int, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based) re-routes."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1: {attempt}")
        base = min(self.max_delay_s,
                   self.base_delay_s * 2.0 ** (attempt - 1))
        u = np.random.default_rng(
            (self.seed, request_id, attempt)).random()
        return base * (1.0 + self.jitter * float(u))
