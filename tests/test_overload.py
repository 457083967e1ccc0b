"""Tests for the overload-protection layer: per-request deadlines and
timeout cancellation, SLO-aware admission control (load shedding),
graceful degradation, the per-replica circuit breaker, queue-depth
observability — and the bit-exactness contract that ``OverloadConfig()``
defaults are a no-op for both the engine and the cluster."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import CircuitBreaker, FaultConfig, RetryPolicy
from repro.models import GPTModel, preset
from repro.serving import (SHED_POLICIES, ClusterConfig, ClusterSimulator,
                           FailoverConfig, OverloadConfig, ReplicaLayout,
                           RoutingConfig, ServingConfig, ServingEngine,
                           WorkloadConfig, slo_availability,
                           synthesize_workload)
from repro.serving.metrics import RequestRecord
from repro.serving.results import TIMEOUT_STAGES, record_timeout
from repro.serving.scheduler import Request

#: Overload knobs switched on but sized to never fire: runs under this
#: config must be bit-identical to runs under the defaults.
NEVER_FIRING = OverloadConfig(shed_policy="bounded-queue",
                              max_queue_depth=10**6,
                              degrade_queue_depth=10**6,
                              degrade_max_new_tokens=10**6)


@pytest.fixture(scope="module")
def model():
    return GPTModel(preset("tiny-llama"), seed=0)


#: Timing-level cluster preset (no weights are instantiated); a module
#: global rather than a fixture so the hypothesis test can reach it.
CLUSTER_CFG = preset("llama-1.7b-hf-32k")


def engine_workload(model, n=24, rate=2000.0, seed=0, **kw):
    cfg = WorkloadConfig(num_requests=n, arrival_rate=rate, seed=seed, **kw)
    return synthesize_workload(cfg, model.config)


def run_engine(model, requests, overload=None, **serving_kw):
    cfg = ServingConfig(overload=overload or OverloadConfig(),
                        **serving_kw)
    engine = ServingEngine(model, cfg)
    return engine, engine.run(requests)


def run_cluster(overload=None, *, n=48, rate=40.0, deadline=None,
                seed=3, fault_seed=11, mtbf=None, policy="round-robin",
                max_outstanding=32, batch_fraction=0.0, cache=False):
    wl = WorkloadConfig(num_requests=n, arrival_rate=rate,
                        prompt_len_range=(128, 512),
                        output_len_range=(128, 256),
                        deadline_s=deadline,
                        batch_fraction=batch_fraction, seed=seed)
    faults = None if mtbf is None else \
        FaultConfig(mtbf_hours=mtbf, seed=fault_seed)
    cfg = ClusterConfig(
        num_nodes=1, layout=ReplicaLayout.from_label("8xTP1"),
        routing=RoutingConfig(
            policy=policy, max_outstanding_per_replica=max_outstanding),
        serving=ServingConfig(
            max_batch_tokens=8192, prefix_cache=cache,
            overload=overload or OverloadConfig()),
        faults=faults,
        failover=FailoverConfig(
            detection_s=0.01, recovery_s=0.5,
            retry=RetryPolicy(max_retries=3, seed=5)))
    sim = ClusterSimulator(CLUSTER_CFG, cfg)
    return sim, sim.run(synthesize_workload(wl, CLUSTER_CFG))


def run_straggler_cluster():
    """A 2P6DxTP1 node with armed breakers and stragglers only."""
    cfg = ClusterConfig(
        num_nodes=1, layout=ReplicaLayout.from_label("2P6DxTP1"),
        serving=ServingConfig(max_batch_tokens=8192,
                              overload=OverloadConfig(breaker=True)),
        # One straggler per replica-second: both prefill replicas
        # trip (2 and 3 times), early enough to re-close.
        faults=FaultConfig(straggler_mtbe_hours=1.0 / 3600,
                           straggler_window_s=0.05, seed=9))
    sim = ClusterSimulator(CLUSTER_CFG, cfg)
    res = sim.run(synthesize_workload(WorkloadConfig(
        num_requests=120, arrival_rate=60.0,
        prompt_len_range=(128, 512), output_len_range=(16, 32),
        seed=3), CLUSTER_CFG))
    return sim, res


def last_outcome(res):
    """Virtual time of the last request outcome, of any of the four kinds."""
    return max([r.finish for r in res.records]
               + [f.failed_at for f in res.failed_records]
               + [s.shed_at for s in res.shed_records]
               + [t.cancelled_at for t in res.timeout_records])


def assert_no_leaks(pool, scheduler, prefix_cache=None):
    """Cancellation must retain zero pool blocks or cache leases."""
    assert not scheduler.waiting and not scheduler.running
    if prefix_cache is None:
        assert pool.blocks_used == 0
    else:
        # Whatever the pool still holds is cache-owned, and none of it
        # is leased to a (cancelled) request.
        assert prefix_cache.referenced_blocks == 0
        assert pool.blocks_used == prefix_cache.num_blocks


# ----------------------------------------------------------------------
# Config validation and the no-op contract
# ----------------------------------------------------------------------

class TestOverloadConfig:
    def test_defaults_are_inert(self):
        cfg = OverloadConfig()
        assert not cfg.shedding and not cfg.degrading and not cfg.active

    def test_feature_flags(self):
        assert OverloadConfig(shed_policy="bounded-queue",
                              max_queue_depth=4).shedding
        assert OverloadConfig(degrade_queue_depth=4,
                              degrade_max_new_tokens=2).degrading
        assert OverloadConfig(breaker=True).active

    def test_validation_names_the_field(self):
        with pytest.raises(ValueError, match="shed_policy"):
            OverloadConfig(shed_policy="edf")
        with pytest.raises(ValueError, match="max_queue_depth"):
            OverloadConfig(shed_policy="bounded-queue")
        with pytest.raises(ValueError, match="max_queue_depth"):
            OverloadConfig(shed_policy="priority", max_queue_depth=0)
        with pytest.raises(ValueError, match="estimate_margin"):
            OverloadConfig(estimate_margin=0.0)
        with pytest.raises(ValueError, match="degrade_queue_depth"):
            OverloadConfig(degrade_queue_depth=0)
        with pytest.raises(ValueError, match="breaker_cooldown_s"):
            OverloadConfig(breaker_cooldown_s=0.0)
        with pytest.raises(ValueError, match="breaker_probes"):
            OverloadConfig(breaker_probes=0)

    def test_policy_catalog(self):
        assert SHED_POLICIES == ("none", "bounded-queue",
                                 "deadline-estimate", "priority")


class TestEngineParity:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("policy", ["fcfs", "spf"])
    def test_armed_but_never_firing_is_bit_exact(self, model, seed,
                                                 policy):
        """Overload machinery that never triggers must not perturb the
        run: same records, same outputs, same metrics as the default."""
        base_engine, base = run_engine(
            model, engine_workload(model, seed=seed), policy=policy)
        armed_engine, armed = run_engine(
            model, engine_workload(model, seed=seed), NEVER_FIRING,
            policy=policy)
        assert [r.__dict__ for r in base.records] == \
            [r.__dict__ for r in armed.records]
        assert base.metrics == armed.metrics
        assert not armed.shed_records and not armed.timeout_records

    def test_generous_deadline_changes_only_metadata(self, model):
        plain = run_engine(model, engine_workload(model))[1]
        dated = run_engine(model,
                           engine_workload(model, deadline_s=1e6))[1]
        key = lambda r: (r.request_id, r.admit, r.first_token, r.finish,
                         r.output_len)
        assert [key(r) for r in plain.records] == \
            [key(r) for r in dated.records]
        assert dated.metrics.deadline_attainment == 1.0
        assert dated.metrics.goodput_tokens_per_s == pytest.approx(
            dated.metrics.tokens_per_s)


# ----------------------------------------------------------------------
# Deadlines and timeout cancellation (engine)
# ----------------------------------------------------------------------

class TestEngineDeadlines:
    def run_tight(self, model, **kw):
        reqs = engine_workload(model, n=24, rate=5000.0,
                               deadline_s=0.008)
        return run_engine(model, reqs, **kw)

    def test_timeouts_fire_and_account(self, model):
        engine, res = self.run_tight(model)
        assert res.timeout_records
        assert len(res.records) + len(res.shed_records) \
            + len(res.timeout_records) == 24
        assert res.metrics.timed_out == len(res.timeout_records)
        assert res.metrics.deadline_attainment < 1.0

    def test_stages_are_catalogued(self, model):
        _, res = self.run_tight(model)
        assert {t.stage for t in res.timeout_records} <= \
            set(TIMEOUT_STAGES)
        for t in res.timeout_records:
            assert t.cancelled_at > t.deadline >= t.arrival

    def test_cancellation_leaves_no_leaks(self, model):
        engine, _ = self.run_tight(model)
        assert_no_leaks(engine.pool, engine.scheduler)

    def test_cancellation_releases_cache_leases(self, model):
        engine, res = self.run_tight(model, prefix_cache=True,
                                     prefix_cache_blocks=16)
        assert res.timeout_records
        assert_no_leaks(engine.pool, engine.scheduler,
                        engine.prefix_cache)

    def test_deterministic_under_timeouts(self, model):
        a = self.run_tight(model)[1]
        b = self.run_tight(model)[1]
        assert a.timeout_records == b.timeout_records
        assert [r.__dict__ for r in a.records] == \
            [r.__dict__ for r in b.records]

    def test_timeout_writer_enforces_the_stage_catalog(self):
        req = Request(request_id=7, prompt=np.arange(4), max_new_tokens=2,
                      arrival_time=0.0, deadline_s=0.1)
        records, lane = [], []
        with pytest.raises(ValueError, match="stage must be one of"):
            record_timeout(records, lane, req, 0.2, "kv-transfer")
        assert records == [] and lane == []
        record_timeout(records, lane, req, 0.2, "queued")
        [t] = records
        assert (t.request_id, t.cancelled_at, t.stage, t.deadline) == \
            (7, 0.2, "queued", 0.1)
        assert [(e.name, e.start_s, e.category) for e in lane] == \
            [("req7/timeout", 0.2, "timeout")]

    def test_met_deadline_property(self):
        rec = RequestRecord(request_id=0, arrival=0.0, admit=0.0,
                            first_token=0.1, finish=0.5, prompt_len=8,
                            output_len=4, deadline=0.6)
        assert rec.met_deadline
        assert not RequestRecord(
            request_id=0, arrival=0.0, admit=0.0, first_token=0.1,
            finish=0.7, prompt_len=8, output_len=4,
            deadline=0.6).met_deadline


# ----------------------------------------------------------------------
# Load shedding (engine)
# ----------------------------------------------------------------------

class TestEngineShedding:
    def test_bounded_queue_sheds_at_cap(self, model):
        overload = OverloadConfig(shed_policy="bounded-queue",
                                  max_queue_depth=2)
        reqs = engine_workload(model, n=24, rate=50000.0)
        _, res = run_engine(model, reqs, overload)
        assert res.shed_records
        assert all(s.reason == "queue-full" for s in res.shed_records)
        assert all(s.policy == "bounded-queue" for s in res.shed_records)
        # Judged at the arrival time, like every policy.
        assert all(s.shed_at == s.arrival for s in res.shed_records)
        assert len(res.records) + len(res.shed_records) == 24

    def test_deadline_estimate_sheds_unattainable_at_arrival(self, model):
        overload = OverloadConfig(shed_policy="deadline-estimate")
        reqs = engine_workload(model, n=24, rate=5000.0,
                               deadline_s=0.002)
        _, res = run_engine(model, reqs, overload)
        assert res.shed_records
        assert all(s.reason == "deadline-unattainable"
                   for s in res.shed_records)
        # Shed at the arrival itself, before any prefill work is
        # invested.
        assert all(s.shed_at == s.arrival for s in res.shed_records)

    def test_deadline_estimate_ignores_undated_requests(self, model):
        overload = OverloadConfig(shed_policy="deadline-estimate")
        reqs = engine_workload(model, n=24, rate=50000.0)
        _, res = run_engine(model, reqs, overload)
        assert not res.shed_records
        assert len(res.records) == 24

    def test_priority_sheds_batch_tier_first(self, model):
        overload = OverloadConfig(shed_policy="priority",
                                  max_queue_depth=2)
        reqs = engine_workload(model, n=32, rate=50000.0,
                               batch_fraction=0.5, seed=2)
        _, res = run_engine(model, reqs, overload)
        assert res.shed_records
        evicted = [s for s in res.shed_records
                   if s.reason == "priority-evict"]
        assert evicted and all(s.tier == "batch" for s in evicted)
        # A refused arrival is shed at its own arrival time, an evicted
        # request at its interactive evictor's.
        evictors = {r.arrival_time for r in reqs if r.tier == "interactive"}
        assert all(s.shed_at in evictors for s in evicted)
        assert all(s.shed_at == s.arrival for s in res.shed_records
                   if s.reason == "queue-full")
        batch_shed = sum(1 for s in res.shed_records if s.tier == "batch")
        assert batch_shed >= len(res.shed_records) - batch_shed

    def test_shedding_keeps_goodput_under_tight_deadlines(self, model):
        """Refusing provably-doomed work must not deliver fewer in-time
        tokens than admitting everything."""
        reqs = lambda: engine_workload(model, n=32, rate=5000.0,
                                       deadline_s=0.006)
        base = run_engine(model, reqs())[1]
        shed = run_engine(model, reqs(),
                          OverloadConfig(
                              shed_policy="deadline-estimate"))[1]
        in_time = lambda res: sum(r.output_len for r in res.records
                                  if r.met_deadline)
        assert in_time(shed) >= in_time(base)


# ----------------------------------------------------------------------
# Graceful degradation (engine)
# ----------------------------------------------------------------------

class TestEngineDegradation:
    OVERLOAD = OverloadConfig(degrade_queue_depth=2,
                              degrade_max_new_tokens=2)

    def test_degraded_requests_get_capped_budgets(self, model):
        reqs = engine_workload(model, n=24, rate=50000.0)
        _, res = run_engine(model, reqs, self.OVERLOAD)
        degraded = [r for r in res.records if r.degraded]
        assert degraded
        assert res.metrics.degraded == len(degraded)
        assert all(r.output_len <= 2 for r in degraded)
        assert len(res.records) == 24  # degraded, not dropped

    def test_degraded_requests_bypass_prefix_cache(self, model):
        reqs = engine_workload(model, n=24, rate=50000.0)
        engine, res = run_engine(model, reqs, self.OVERLOAD,
                                 prefix_cache=True,
                                 prefix_cache_blocks=16)
        assert any(r.degraded for r in res.records)
        assert engine.prefix_cache.stats.bypassed > 0


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------

class TestCircuitBreaker:
    def test_lifecycle(self):
        brk = CircuitBreaker(cooldown_s=0.25, probes=2)
        assert brk.state == "closed" and brk.available(0.0)
        assert brk.ready_at == 0.0
        brk.trip(1.0, hold_s=0.5)
        assert brk.state == "open" and brk.trips == 1
        assert brk.ready_at == pytest.approx(1.75)
        assert not brk.available(1.5)
        assert brk.available(1.75)          # lazy open -> half-open
        assert brk.state == "half-open"
        brk.note_admit(1.75)
        assert brk.available(1.8)           # second probe allowed
        brk.note_admit(1.8)
        assert not brk.available(1.9)       # probes exhausted
        brk.note_success()
        assert brk.state == "closed" and brk.available(2.0)

    def test_trip_while_half_open_reopens(self):
        brk = CircuitBreaker(cooldown_s=0.1, probes=1)
        brk.trip(0.0)
        assert brk.available(0.2)
        brk.trip(0.2)
        assert brk.state == "open" and brk.trips == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="cooldown_s"):
            CircuitBreaker(cooldown_s=0.0, probes=1)
        with pytest.raises(ValueError, match="probes"):
            CircuitBreaker(cooldown_s=1.0, probes=0)

    def test_cluster_breaker_trips_on_detections(self):
        overload = OverloadConfig(breaker=True)
        _, res = run_cluster(overload, mtbf=0.0002)
        assert res.breaker_trips > 0
        assert len(res.records) + len(res.failed_records) == \
            res.submitted

    def test_breaker_off_by_default(self):
        _, res = run_cluster(mtbf=0.0002)
        assert res.breaker_trips == 0

    def test_prefill_breakers_close_on_handoff(self):
        """Regression: a prefill replica hands every request off, so its
        half-open breaker waited for a finish that never happens there
        and kept the replica out of rotation for good."""
        sim, res = run_straggler_cluster()
        assert len(res.records) == res.submitted
        prefill = [r.breaker for r in sim.replicas if r.role == "prefill"]
        assert all(b.trips > 0 for b in prefill)
        assert [b.state for b in prefill] == ["closed", "closed"]

    def test_expired_slow_windows_are_dropped(self):
        """A straggler window that ended at or before a replica's clock
        can never apply again, so the replica does not keep it (the
        list would otherwise grow with every straggler of the run)."""
        sim, _ = run_straggler_cluster()
        stragglers = [e for r in sim.replicas for e in r.events
                      if e.name == "fault/straggler"]
        assert len(stragglers) > 8
        for replica in sim.replicas:
            assert all(end > replica.clock
                       for _, end, _ in replica.slow_windows)


# ----------------------------------------------------------------------
# Cluster: parity, deadlines, queue observability
# ----------------------------------------------------------------------

class TestClusterOverload:
    @pytest.mark.parametrize("mtbf", [None, 0.0002])
    def test_armed_but_never_firing_is_bit_exact(self, mtbf):
        base = run_cluster(mtbf=mtbf)[1]
        armed = run_cluster(NEVER_FIRING, mtbf=mtbf)[1]
        assert [r.__dict__ for r in base.records] == \
            [r.__dict__ for r in armed.records]
        assert base.metrics == armed.metrics
        assert base.availability == armed.availability

    def test_default_run_has_no_queue_lane(self):
        _, res = run_cluster()
        assert res.queue_depth_series == []
        assert res.max_queue_depth == 0
        assert "queue-depth" not in res.lanes.get("cluster", {})

    def run_overloaded(self, **kw):
        return run_cluster(n=64, rate=200.0, deadline=0.5,
                           max_outstanding=2, **kw)

    def test_timeouts_account_and_leave_no_leaks(self):
        sim, res = self.run_overloaded()
        assert res.timeout_records
        assert len(res.records) + len(res.failed_records) \
            + len(res.shed_records) + len(res.timeout_records) == \
            res.submitted
        for replica in sim.replicas:
            assert_no_leaks(replica.pool, replica.scheduler,
                            replica.prefix_cache)
            assert not replica.outbox

    def test_queue_depth_series_and_counter_lane(self):
        _, res = self.run_overloaded()
        assert res.max_queue_depth > 0
        assert res.queue_depth_series
        assert res.max_queue_depth == max(
            d for _, d in res.queue_depth_series)
        times = [t for t, _ in res.queue_depth_series]
        assert times == sorted(times)
        lane = res.lanes["cluster"]["queue-depth"]
        assert all(e.category == "counter" for e in lane)
        assert [e.duration_s for e in lane] == \
            [float(d) for _, d in res.queue_depth_series]

    def test_shed_and_timeout_trace_events(self):
        _, res = self.run_overloaded(
            overload=OverloadConfig(shed_policy="bounded-queue",
                                    max_queue_depth=4))
        router = res.lanes["cluster"]["router"]
        assert any(e.category == "shed" for e in router)
        categories = {e.category
                      for lanes in res.lanes.values()
                      for events in lanes.values() for e in events}
        assert "timeout" in categories

    def test_bounded_queue_caps_cluster_queue(self):
        unshed = self.run_overloaded()[1]
        shed = self.run_overloaded(
            overload=OverloadConfig(shed_policy="bounded-queue",
                                    max_queue_depth=4))[1]
        assert unshed.max_queue_depth > 4
        assert shed.max_queue_depth <= 4
        assert shed.shed_records

    def test_shed_counts_against_availability(self):
        res = self.run_overloaded(
            overload=OverloadConfig(shed_policy="bounded-queue",
                                    max_queue_depth=4))[1]
        assert res.availability == pytest.approx(
            len(res.records) / res.submitted)
        assert res.availability < 1.0

    def test_to_dict_carries_overload_fields(self):
        data = self.run_overloaded(
            overload=OverloadConfig(shed_policy="bounded-queue",
                                    max_queue_depth=4))[1].to_dict()
        assert data["shed"] and data["timed_out"] is not None
        assert data["max_queue_depth"] <= 4
        assert data["queue_depth_series"]
        assert "breaker_trips" in data

    @pytest.mark.parametrize("policy", ["bounded-queue", "priority"])
    def test_queue_cap_bounds_the_replica_queue(self, policy):
        """With the backpressure cap (32) above the queue cap (4) no
        request waits at the router: each arrival would join its
        replica's waiting queue, and the shed policy bounds that one."""
        tiny = preset("tiny-llama")
        sim = ClusterSimulator(tiny, ClusterConfig(
            num_nodes=1, layout=ReplicaLayout(replicas_per_node=2, tp=1),
            routing=RoutingConfig(max_outstanding_per_replica=32),
            serving=ServingConfig(max_batch_size=2, overload=OverloadConfig(
                shed_policy=policy, max_queue_depth=4))))
        res = sim.run(synthesize_workload(WorkloadConfig(
            num_requests=64, arrival_rate=2000.0, batch_fraction=0.5,
            seed=3), tiny))
        assert res.shed_records
        assert res.max_queue_depth == 0
        assert res.metrics.peak_queue_depth <= 4
        assert len(res.records) + len(res.shed_records) == 64
        if policy == "priority":
            assert any(s.reason == "priority-evict"
                       for s in res.shed_records)

    def test_priority_evicts_queued_batch_work(self):
        _, res = run_cluster(
            OverloadConfig(shed_policy="priority", max_queue_depth=8),
            n=64, rate=400.0, max_outstanding=1, batch_fraction=0.5)
        evicted = [s for s in res.shed_records
                   if s.reason == "priority-evict"]
        assert evicted
        assert all(s.tier == "batch" for s in evicted)
        assert {s.reason for s in res.shed_records} == \
            {"priority-evict", "queue-full"}
        assert any(s.tier == "batch" and s.reason == "queue-full"
                   for s in res.shed_records)
        tiers = [s.tier for s in res.shed_records]
        assert tiers.count("batch") >= tiers.count("interactive")
        assert res.max_queue_depth <= 8
        ids = [r.request_id for r in res.records] \
            + [s.request_id for s in res.shed_records]
        assert sorted(ids) == list(range(res.submitted))


class TestAvailabilitySemantics:
    REC = RequestRecord(request_id=0, arrival=0.0, admit=0.0,
                        first_token=0.2, finish=0.5, prompt_len=8,
                        output_len=4)

    def test_denominator_is_submitted(self):
        assert slo_availability([self.REC], 4) == 0.25
        assert slo_availability([self.REC], 1) == 1.0

    def test_slo_filters_numerator(self):
        assert slo_availability([self.REC], 2, slo_ttft_s=0.1) == 0.0
        assert slo_availability([self.REC], 2, slo_ttft_s=0.3) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError, match="submitted"):
            slo_availability([], 0)


# ----------------------------------------------------------------------
# Seeded chaos: faults x shedding never lose or leak a request
# ----------------------------------------------------------------------

class TestChaosAccounting:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16),
           mtbf=st.sampled_from([math.inf, 0.0005, 0.0002]),
           policy=st.sampled_from(["round-robin", "least-outstanding",
                                   "jskq"]),
           shed=st.sampled_from(SHED_POLICIES))
    def test_every_request_accounted_and_no_leaks(self, seed, mtbf,
                                                  policy, shed):
        overload = OverloadConfig(
            shed_policy=shed, breaker=True,
            **({"max_queue_depth": 8}
               if shed in ("bounded-queue", "priority") else {}))
        sim, res = run_cluster(
            overload, n=32, rate=30.0, deadline=1.0, seed=seed,
            fault_seed=seed + 1, mtbf=mtbf, policy=policy,
            max_outstanding=4, batch_fraction=0.3)
        ids = [r.request_id for r in res.records] \
            + [f.request_id for f in res.failed_records] \
            + [s.request_id for s in res.shed_records] \
            + [t.request_id for t in res.timeout_records]
        assert sorted(ids) == list(range(res.submitted))
        assert len(res.records) + len(res.failed_records) \
            + len(res.shed_records) + len(res.timeout_records) == \
            res.submitted
        for replica in sim.replicas:
            assert_no_leaks(replica.pool, replica.scheduler,
                            replica.prefix_cache)
            assert not replica.outbox
        # The fault process stops with the work: no health check or
        # recovery is processed once every request has its outcome.
        last = last_outcome(res)
        assert not [e.name for group in res.lanes.values()
                    for events in group.values() for e in events
                    if e.category in ("detect", "recover")
                    and e.start_s > last]

    @staticmethod
    def run_chaos(shed):
        return run_cluster(
            OverloadConfig(shed_policy=shed, breaker=True,
                           max_queue_depth=8),
            n=64, rate=200.0, deadline=1.0, mtbf=0.0002,
            max_outstanding=4)[1]

    @staticmethod
    def detections(res):
        return {e.start_s for group in res.lanes.values()
                for events in group.values() for e in events
                if e.name == "fault/detect"}

    def test_failover_past_the_deadline_times_out(self):
        """A request whose replica is detected dead after its deadline
        is cancelled at the router with its partial output, not
        retried."""
        res = self.run_chaos("deadline-estimate")
        assert any(e["kind"] == "failure" for e in res.fault_events)
        detections = self.detections(res)
        router = res.lanes["cluster"]["router"]
        retried_at = {(e.name.split("/")[0], e.start_s) for e in router
                      if e.category == "retry"}
        expired = [t for t in res.timeout_records
                   if t.stage == "decode" and t.output_len > 0
                   and t.cancelled_at in detections]
        assert expired
        for t in expired:
            assert t.cancelled_at > t.deadline
            assert (f"req{t.request_id}", t.cancelled_at) not in retried_at
        assert len(res.records) + len(res.failed_records) \
            + len(res.shed_records) + len(res.timeout_records) == \
            res.submitted

    def test_failover_timeout_keeps_the_stage_at_death(self):
        """A failed-over request cancelled at the detection is recorded
        at the stage it was in when its replica died: decoding if it
        had emitted tokens, never ``queued``."""
        res = self.run_chaos("deadline-estimate")
        detections = self.detections(res)
        at_detection = [t for t in res.timeout_records
                        if t.cancelled_at in detections]
        decoding = [t for t in at_detection if t.output_len > 0]
        assert decoding
        assert {t.stage for t in decoding} == {"decode"}
        assert {t.stage for t in at_detection if t.output_len == 0} \
            <= {"queued", "prefill"}

    def test_each_timeout_has_one_lane_event(self):
        """Router and replica cancellations share one writer: every
        record has exactly one ``timeout`` event, at its instant."""
        res = self.run_chaos("deadline-estimate")
        router = [e for e in res.lanes["cluster"]["router"]
                  if e.category == "timeout"]
        events = Counter((e.name, e.start_s)
                         for group in res.lanes.values()
                         for lane in group.values() for e in lane
                         if e.category == "timeout")
        assert router and len(router) < len(res.timeout_records)
        assert sum(events.values()) == len(res.timeout_records)
        for t in res.timeout_records:
            assert events[(f"req{t.request_id}/timeout",
                           t.cancelled_at)] == 1

    def test_arrivals_are_shed_while_faults_replay(self):
        res = self.run_chaos("bounded-queue")
        assert any(e["kind"] == "failure" for e in res.fault_events)
        assert res.shed_records
        assert all(s.reason == "queue-full" and s.shed_at == s.arrival
                   for s in res.shed_records)
        assert not {s.request_id for s in res.shed_records} \
            & set(res.assignments)
        ids = [r.request_id for r in res.records] \
            + [f.request_id for f in res.failed_records] \
            + [s.request_id for s in res.shed_records] \
            + [t.request_id for t in res.timeout_records]
        assert sorted(ids) == list(range(res.submitted))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestOverloadCLI:
    def test_parser_defaults_and_alias(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["overload-bench"])
        assert args.loads == "0.5,1.0,1.5,2.0"
        assert args.deadline == 0.0
        alias = build_parser().parse_args(["overload"])
        assert alias.policies == args.policies

    def test_shared_flags_on_all_benches(self):
        from repro.cli import build_parser
        for cmd in ("serve-bench", "cluster-bench", "fault-bench"):
            args = build_parser().parse_args([cmd])
            assert args.deadline == 0.0
            assert args.shed_policy == "none"
            assert args.offered_load == 0.0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--shed-policy",
                                       "edf"])

    def test_overload_bench_smoke(self, capsys, tmp_path):
        import json

        from repro.cli import main
        out = tmp_path / "bench.json"
        assert main(["overload-bench", "--smoke",
                     "--loads", "0.5,2", "--policies",
                     "none,deadline-estimate",
                     "--output", str(out)]) == 0
        text = capsys.readouterr().out
        assert "verdict" in text and "FAIL" not in text
        data = json.loads(out.read_text())
        assert data["deadline_s"] > 0
        assert len(data["sweep"]) == 4
        assert all(row["completed"] + row["shed"] + row["timed_out"]
                   == data["requests"] for row in data["sweep"])

    def test_serve_bench_with_overload_flags(self, capsys):
        from repro.cli import main
        assert main(["serve-bench", "--smoke", "--deadline", "0.05",
                     "--shed-policy", "deadline-estimate",
                     "--offered-load", "1.5"]) == 0
        assert "deadline" in capsys.readouterr().out
