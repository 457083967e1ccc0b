"""Tests for the multi-node serving cluster simulator: replica
layouts, load-balancing policies, backpressure, lifecycle traces, the
ClusterResult API, the simulator's own per-event cost, and the rejection
of repeated request ids."""

import json
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontier.hardware import GCDSpec, NodeSpec
from repro.models import GPTModel, preset
from repro.serving import (LB_POLICIES, ClusterConfig, ClusterResult,
                           ClusterSimulator, OverloadConfig, ReplicaLayout,
                           ReplicaServer, Request, RoutingConfig,
                           ServingConfig, ServingEngine, ServingResultBase,
                           WorkloadConfig, format_cluster,
                           synthesize_workload)


@pytest.fixture(scope="module")
def config():
    return preset("llama-1.7b-hf-52k")


def make_workload(config, n=40, rate=800.0, seed=0, skew=0.0, **kw):
    """Fresh requests every call: the scheduler mutates Request objects,
    so a workload must never be re-run through a second simulator."""
    wl = WorkloadConfig(num_requests=n, arrival_rate=rate, seed=seed,
                        prompt_len_range=(64, 256),
                        output_len_range=(16, 64), prompt_skew=skew,
                        heavy_multiplier=8, **kw)
    return synthesize_workload(wl, config)


def run_cluster(config, policy="round-robin", nodes=2, n=40, seed=0,
                skew=0.0, rate=800.0, cap=32, **cluster_kw):
    cfg = ClusterConfig(num_nodes=nodes, routing=RoutingConfig(
        policy=policy, max_outstanding_per_replica=cap), **cluster_kw)
    sim = ClusterSimulator(config, cfg)
    return sim.run(make_workload(config, n=n, seed=seed, skew=skew,
                                 rate=rate))


class TestReplicaLayout:
    def test_label_roundtrip(self):
        for label in ("8xTP1", "1xTP8", "4xTP2"):
            assert ReplicaLayout.from_label(label).label == label

    def test_parse_is_case_insensitive(self):
        layout = ReplicaLayout.from_label("8xtp1")
        assert layout.replicas_per_node == 8 and layout.tp == 1

    def test_bad_labels_rejected(self):
        for bad in ("8x1", "TP8", "8xTPx", "", "axTPb"):
            with pytest.raises(ValueError):
                ReplicaLayout.from_label(bad)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            ReplicaLayout(replicas_per_node=0)
        with pytest.raises(ValueError):
            ReplicaLayout(tp=0)

    def test_validate_checks_node_capacity(self, config):
        layout = ReplicaLayout(replicas_per_node=8, tp=2)  # 16 GCDs
        with pytest.raises(ValueError, match="GCDs"):
            layout.validate(config, NodeSpec(), GCDSpec())

    def test_validate_checks_hbm(self, config):
        tiny_gcd = GCDSpec(hbm_gb=1.0)
        with pytest.raises(ValueError, match="HBM"):
            ReplicaLayout().validate(config, NodeSpec(), tiny_gcd)

    def test_cluster_config_validates(self):
        with pytest.raises(ValueError):
            ClusterConfig(routing=RoutingConfig(policy="random"))
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(routing=RoutingConfig(
                max_outstanding_per_replica=0))


class TestClusterRun:
    def test_all_requests_complete_every_policy(self, config):
        for policy in LB_POLICIES:
            result = run_cluster(config, policy=policy)
            assert result.metrics.num_requests == 40
            ids = [r.request_id for r in result.records]
            assert ids == sorted(ids) == list(range(40))
            assert set(result.assignments) == set(range(40))

    def test_deterministic(self, config):
        a = run_cluster(config, policy="least-outstanding", skew=0.2)
        b = run_cluster(config, policy="least-outstanding", skew=0.2)
        assert a.records == b.records
        assert a.metrics == b.metrics
        assert a.assignments == b.assignments

    def test_round_robin_spreads_evenly(self, config):
        # 32 requests over 2 nodes x 8 replicas: exactly 2 per replica.
        result = run_cluster(config, policy="round-robin", nodes=2, n=32)
        assert Counter(result.assignments.values()) == {
            (node, replica): 2 for node in range(2) for replica in range(8)}

    def test_load_aware_policies_use_all_nodes(self, config):
        """Regression: a lowest-index tie-break used to funnel ties onto
        the first replicas and leave later nodes idle."""
        for policy in ("least-outstanding", "jskq"):
            result = run_cluster(config, policy=policy, nodes=4, n=80)
            assert {node for node, _ in result.assignments.values()} == \
                {0, 1, 2, 3}

    def test_tp8_layout_completes(self, config):
        result = run_cluster(
            config, nodes=2, layout=ReplicaLayout(replicas_per_node=1,
                                                  tp=8))
        assert result.metrics.num_requests == 40
        assert result.layout == "1xTP8"
        # One replica per node: every assignment's replica index is 0.
        assert {a[1] for a in result.assignments.values()} == {0}

    def test_tp8_decode_slower_per_token_at_light_load(self, config):
        """TP=8 pays the allreduce tax every decode step; with ample
        per-replica HBM either way, 8xTP1 wins on aggregate tok/s."""
        tp1 = run_cluster(config, nodes=1, n=64, rate=4000.0)
        tp8 = run_cluster(config, nodes=1, n=64, rate=4000.0,
                          layout=ReplicaLayout(replicas_per_node=1, tp=8))
        assert tp1.metrics.tokens_per_s > tp8.metrics.tokens_per_s

    def test_backpressure_queues_then_completes(self, config):
        result = run_cluster(config, nodes=1, rate=100000.0, cap=1)
        assert result.queued_requests > 0
        assert result.metrics.num_requests == 40

    def test_tight_pool_forces_cluster_preemption(self, config):
        result = run_cluster(
            config, nodes=1, rate=100000.0, n=24,
            layout=ReplicaLayout(replicas_per_node=1, tp=1),
            serving=ServingConfig(num_blocks=30, block_size=16,
                                  max_batch_size=8))
        assert result.metrics.preemptions > 0
        assert result.metrics.num_requests == 24
        stages = {e.category
                  for lanes in result.lanes.values()
                  for events in lanes.values() for e in events}
        assert "preempt" in stages

    def test_least_outstanding_beats_round_robin_tail(self, config):
        """The acceptance bar: on a skewed prompt-length workload at the
        cluster-bench defaults, least-outstanding's p99 TTFT is no worse
        than blind round-robin."""
        rr = run_cluster(config, policy="round-robin", nodes=4, n=200,
                         skew=0.15, rate=800.0)
        lo = run_cluster(config, policy="least-outstanding", nodes=4,
                         n=200, skew=0.15, rate=800.0)
        assert lo.percentiles("ttft")[99.0] <= rr.percentiles("ttft")[99.0]

    def test_simulator_serves_one_run(self, config):
        sim = ClusterSimulator(config, ClusterConfig(num_nodes=2))
        first = sim.run(make_workload(config))
        assert first.metrics.num_requests == 40
        with pytest.raises(RuntimeError, match="new ClusterSimulator"):
            sim.run(make_workload(config))
        # The refused call leaves the first run's state alone.
        assert sum(len(r.records) for r in sim.replicas) == 40

    def test_format_cluster_table(self, config):
        results = [run_cluster(config, policy=p, n=16)
                   for p in LB_POLICIES]
        table = format_cluster(results)
        for p in LB_POLICIES:
            assert p in table
        assert "p99 TTFT" in table


class TestClusterResult:
    def test_shares_result_base(self, config):
        result = run_cluster(config, n=16)
        assert isinstance(result, ClusterResult)
        assert isinstance(result, ServingResultBase)
        p = result.percentiles("ttft", qs=(50.0, 99.0))
        assert p[50.0] <= p[99.0]
        with pytest.raises(ValueError):
            result.percentiles("nope")

    def test_to_dict_and_save_json(self, config, tmp_path):
        result = run_cluster(config, n=16)
        data = result.to_dict()
        assert data["policy"] == "round-robin"
        assert data["num_nodes"] == 2
        assert len(data["assignments"]) == 16
        path = result.save_json(tmp_path / "cluster")
        assert json.loads(path.read_text())["layout"] == "8xTP1"


class TestLifecycleTrace:
    def test_every_request_emits_full_lifecycle(self, config):
        result = run_cluster(config, n=24)
        per_req: dict[int, set] = {}
        for lanes in result.lanes.values():
            for events in lanes.values():
                for e in events:
                    rid, stage = e.name.split("/")
                    per_req.setdefault(int(rid[3:]), set()).add(stage)
        need = {"arrive", "route", "admit", "prefill", "decode", "finish"}
        assert set(per_req) == set(range(24))
        for stages in per_req.values():
            assert need <= stages

    def test_chrome_export_one_track_per_node(self, config, tmp_path):
        result = run_cluster(config, nodes=3, n=24)
        path = result.save_trace(tmp_path / "trace")
        doc = json.loads(path.read_text())
        procs = [e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("name") == "process_name"]
        assert sorted(procs) == ["cluster", "node0", "node1", "node2"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "i"} <= phases  # spans and instant markers


class TestSimulatorCost:
    def test_scans_per_event_do_not_grow_with_fleet_size(
            self, config, monkeypatch):
        """``busy`` + ``advance_to`` evaluations per (replica step +
        arrival) stay under one constant on 8 and on 256 replicas."""
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(ReplicaServer, "busy", property(
            counting("busy", ReplicaServer.busy.fget)))
        for name in ("advance_to", "step"):
            monkeypatch.setattr(ReplicaServer, name, counting(
                name, getattr(ReplicaServer, name)))
        for nodes in (1, 32):
            counts.clear()
            requests = make_workload(config, n=400, rate=3000.0, skew=0.15)
            ClusterSimulator(config, ClusterConfig(
                num_nodes=nodes,
                routing=RoutingConfig(policy="least-outstanding"),
                serving=ServingConfig(num_blocks=2048))).run(requests)
            scans = counts["busy"] + counts["advance_to"]
            events = counts["step"] + len(requests)
            assert scans <= 3 * events, (nodes, scans, events)


def reference_choose(sim, request):
    """The router before the single-pass rewrite, kept as the reference:
    a candidate list, one filter list per policy, then the rotating pick
    of the first candidate at or after the cursor."""
    cap = sim.config.routing.max_outstanding_per_replica
    candidates = [r for r in sim.replicas
                  if r.healthy and r.role != "decode"
                  and r.outstanding < cap]
    if sim._overload.breaker:
        candidates = [r for r in candidates
                      if r.breaker_allows(sim._router_clock)]
    if not candidates:
        return None
    policy = sim.config.routing.policy
    if policy == "least-outstanding":
        best = min(r.outstanding for r in candidates)
        candidates = [r for r in candidates if r.outstanding == best]
    elif policy == "jskq":
        best = min(r.kv_demand_tokens for r in candidates)
        candidates = [r for r in candidates if r.kv_demand_tokens == best]
    elif policy == "cache-aware":
        scores = {r.index: (r.prefix_cache.peek(request.prompt)
                            if r.prefix_cache is not None else 0)
                  for r in candidates}
        best = max(scores.values())
        candidates = [r for r in candidates if scores[r.index] == best]
        least = min(r.outstanding for r in candidates)
        candidates = [r for r in candidates if r.outstanding == least]
    chosen = min(candidates, key=lambda r: ((r.index - sim._rr_next)
                                            % len(sim.replicas)))
    sim._rr_next = (chosen.index + 1) % len(sim.replicas)
    return chosen


#: Timing-level routing model (no weights are instantiated); a module
#: global rather than a fixture so the hypothesis test can reach it.
ROUTER_MODEL = preset("llama-1.7b-hf-52k")

#: One replica's router-visible state: queued request budgets (blocks),
#: health, breaker state, whether an open breaker's hold has elapsed,
#: probes used, and the prefix-cache peek in blocks (None = no cache).
REPLICA_STATE = st.tuples(
    st.lists(st.integers(1, 4), max_size=4), st.booleans(),
    st.sampled_from(["closed", "open", "half-open"]), st.booleans(),
    st.integers(0, 2), st.none() | st.integers(0, 3))


def router_sim(policy, label, cap, breaker, states, cursor):
    sim = ClusterSimulator(ROUTER_MODEL, ClusterConfig(
        num_nodes=2, layout=ReplicaLayout.from_label(label),
        routing=RoutingConfig(policy=policy,
                              max_outstanding_per_replica=cap),
        serving=ServingConfig(num_blocks=64,
                              overload=OverloadConfig(breaker=breaker))))
    sim._router_clock = 1.0
    sim._rr_next = cursor
    for replica, (budgets, healthy, state, elapsed, used, peek) in zip(
            sim.replicas, states):
        replica.scheduler.waiting = [SimpleNamespace(budget_tokens=16 * b)
                                     for b in budgets]
        replica.healthy = healthy
        if peek is not None:
            replica.prefix_cache = SimpleNamespace(
                peek=lambda prompt, hit=16 * peek: hit)
        if breaker:
            replica.breaker.state = state
            replica.breaker._until = 0.5 if elapsed else 2.0
            replica.breaker._probes_used = used
    return sim


class TestSinglePassRouting:
    @settings(max_examples=200, deadline=None)
    @given(policy=st.sampled_from(LB_POLICIES),
           label=st.sampled_from(["8xTP1", "2P6DxTP1"]),
           cap=st.integers(1, 4), breaker=st.booleans(),
           states=st.lists(REPLICA_STATE, min_size=16, max_size=16),
           cursor=st.integers(0, 15))
    def test_choose_matches_three_list_reference(self, policy, label, cap,
                                                 breaker, states, cursor):
        request = SimpleNamespace(prompt=[1, 2, 3])
        new = router_sim(policy, label, cap, breaker, states, cursor)
        ref = router_sim(policy, label, cap, breaker, states, cursor)
        chosen = new._choose(request)
        expected = reference_choose(ref, request)
        assert getattr(chosen, "index", None) \
            == getattr(expected, "index", None)
        assert new._rr_next == ref._rr_next
        if breaker:
            for a, b in zip(new.replicas, ref.replicas):
                assert (a.breaker.state, a.breaker._probes_used,
                        len(a.events)) == (b.breaker.state,
                                           b.breaker._probes_used,
                                           len(b.events))


class _Unreadable:
    """A replica stand-in that fails the test when the router reads it."""

    def __getattr__(self, name):
        raise AssertionError(f"the router read {name!r} past its pick")


#: router_sim state of an idle, healthy replica with a closed breaker
IDLE = ([], True, "closed", False, 0, None)


class TestEarlyExitRouting:
    @pytest.mark.parametrize("policy",
                             ["least-outstanding", "jskq", "round-robin"])
    @pytest.mark.parametrize("cursor", [0, 9, 14])
    def test_pass_stops_at_a_key_of_zero(self, policy, cursor):
        """With no breaker armed, no replica after the first eligible
        one with a key of 0 is read: the first idle one under the
        load-aware policies, the first eligible one under round-robin.
        At the cursor sits an unhealthy replica, then a busy one."""
        states = [IDLE] * 16
        states[cursor] = ([], False, "closed", False, 0, None)
        states[(cursor + 1) % 16] = ([1, 2], True, "closed", False, 0,
                                     None)
        sim = router_sim(policy, "8xTP1", 4, False, states, cursor)
        pick = (cursor + (1 if policy == "round-robin" else 2)) % 16
        for k in range(1, 16):
            if (pick + k) % 16 == cursor:
                break
            sim.replicas[(pick + k) % 16] = _Unreadable()
        chosen = sim._choose(SimpleNamespace(prompt=[1, 2, 3]))
        assert chosen.index == pick
        assert sim._rr_next == (pick + 1) % 16

    def test_armed_breaker_keeps_the_full_pass(self):
        """An armed breaker keeps the pass full: an expired open breaker
        after the pick half-opens and records its event, as it does when
        every eligible replica is asked."""
        states = [IDLE] * 16
        states[9] = ([], True, "open", True, 0, None)
        sim = router_sim("round-robin", "8xTP1", 4, True, states, 0)
        chosen = sim._choose(SimpleNamespace(prompt=[1, 2, 3]))
        late = sim.replicas[9]
        assert chosen.index == 0
        assert late.breaker.state == "half-open"
        assert [(e.name, e.start_s) for e in late.events] \
            == [("breaker/half-open", 1.0)]


class TestDuplicateRequestIds:
    """Pool leases, records and assignments are keyed by request id, so
    a run rejects two requests with one id, whether or not they meet."""

    CASES = {"overlap-equal-len": (0.0, 8), "overlap-unequal-len": (0.0, 12),
             "apart": (5.0, 8)}

    @staticmethod
    def requests(second_arrival, second_len):
        return [Request(request_id=7, prompt=np.arange(1, 9),
                        max_new_tokens=4, arrival_time=0.0),
                Request(request_id=7, prompt=np.arange(1, second_len + 1),
                        max_new_tokens=6, arrival_time=second_arrival)]

    @pytest.mark.parametrize("case", list(CASES))
    def test_cluster_rejects_a_repeated_id(self, config, case):
        sim = ClusterSimulator(config, ClusterConfig(
            num_nodes=1, layout=ReplicaLayout(replicas_per_node=1)))
        with pytest.raises(ValueError, match="duplicate request id 7"):
            sim.run(self.requests(*self.CASES[case]))

    @pytest.mark.parametrize("case", list(CASES))
    def test_engine_rejects_a_repeated_id(self, case):
        engine = ServingEngine(GPTModel(preset("tiny-llama"), seed=0))
        with pytest.raises(ValueError, match="duplicate request id 7"):
            engine.run(self.requests(*self.CASES[case]))
