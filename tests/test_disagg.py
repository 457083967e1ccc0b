"""Tests for disaggregated prefill/decode serving: role-aware layouts,
priced KV-cache transfer, handoff routing, colocated token parity, the
deprecation shims of the role-aware cluster API, and transfer re-queue
under replica failover."""

import json
import math
import warnings

import numpy as np
import pytest

from repro.faults import FaultConfig, RetryPolicy
from repro.frontier.hardware import NodeSpec
from repro.models import preset
from repro.parallel.collectives import CollectiveModel
from repro.serving import (HANDOFF_POLICIES, ClusterConfig, ClusterSimulator,
                           FailoverConfig, KVTransferConfig, KVTransferModel,
                           ReplicaLayout, Request, RoutingConfig,
                           ServingConfig, SessionWorkloadConfig,
                           TransferRecord, WorkloadConfig, format_cluster,
                           kv_bytes_per_token, synthesize_sessions,
                           synthesize_workload)


@pytest.fixture(scope="module")
def config():
    return preset("llama-1.7b-hf-52k")


def make_workload(config, n=40, rate=800.0, seed=0, skew=0.15):
    wl = WorkloadConfig(num_requests=n, arrival_rate=rate, seed=seed,
                        prompt_len_range=(64, 256),
                        output_len_range=(16, 64), prompt_skew=skew,
                        heavy_multiplier=8)
    return synthesize_workload(wl, config)


def run_disagg(config, layout="2p6dxTP1", nodes=2, n=40, seed=0,
               handoff="least-outstanding", granularity="layer",
               requests=None, **cluster_kw):
    cfg = ClusterConfig(
        num_nodes=nodes, layout=ReplicaLayout.from_label(layout),
        routing=RoutingConfig(handoff=handoff),
        transfer=KVTransferConfig(granularity=granularity), **cluster_kw)
    sim = ClusterSimulator(config, cfg)
    result = sim.run(requests if requests is not None
                     else make_workload(config, n=n, seed=seed))
    return sim, result


class TestRoleAwareLayout:
    def test_disagg_label_roundtrip(self):
        for label in ("2P6DxTP1", "4P4DxTP1", "1P1DxTP2"):
            layout = ReplicaLayout.from_label(label)
            assert layout.label == label
            assert layout.disaggregated

    def test_parse_is_case_insensitive(self):
        layout = ReplicaLayout.from_label("6p2dxtp1")
        assert layout.prefill_replicas == 6
        assert layout.decode_replicas == 2
        assert layout.replicas_per_node == 8

    def test_colocated_layout_unchanged(self):
        layout = ReplicaLayout.from_label("8xTP1")
        assert not layout.disaggregated
        assert layout.prefill_replicas == 0
        assert layout.decode_replicas == 0
        assert layout.label == "8xTP1"

    def test_role_of(self):
        layout = ReplicaLayout(replicas_per_node=8, prefill_replicas=2)
        roles = [layout.role_of(r) for r in range(8)]
        assert roles == ["prefill"] * 2 + ["decode"] * 6
        assert ReplicaLayout(replicas_per_node=8).role_of(3) == "mixed"
        with pytest.raises(ValueError):
            layout.role_of(8)

    def test_needs_at_least_one_decode_replica(self):
        with pytest.raises(ValueError, match="decode"):
            ReplicaLayout(replicas_per_node=8, prefill_replicas=8)
        with pytest.raises(ValueError):
            ReplicaLayout(replicas_per_node=1, prefill_replicas=1)
        with pytest.raises(ValueError):
            ReplicaLayout(prefill_replicas=-1)

    def test_bad_disagg_labels_rejected(self):
        for bad in ("2P0DxTP1", "0P8DxTP1", "2PxTP1", "PDxTP1"):
            with pytest.raises(ValueError):
                ReplicaLayout.from_label(bad)

    def test_replica_roles_assigned(self, config):
        sim, _ = run_disagg(config, layout="2p6dxTP1", n=8)
        roles = [r.role for r in sim.replicas]
        per_node = ["prefill"] * 2 + ["decode"] * 6
        assert roles == per_node * 2


class TestDeprecationShims:
    def test_new_api_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = ClusterConfig(routing=RoutingConfig(
                policy="jskq", max_outstanding_per_replica=4))
        assert cfg.routing.policy == "jskq"
        assert cfg.routing.max_outstanding_per_replica == 4

    def test_routing_config_validates(self):
        with pytest.raises(ValueError):
            RoutingConfig(policy="random")
        with pytest.raises(ValueError):
            RoutingConfig(handoff="random")
        with pytest.raises(ValueError):
            RoutingConfig(max_outstanding_per_replica=0)
        with pytest.raises(ValueError):
            KVTransferConfig(granularity="bytes")


class TestTransferPricing:
    """Golden-value checks against CollectiveModel point-to-point cost."""

    def test_layer_granularity_matches_p2p(self, config):
        model = KVTransferModel(config, KVTransferConfig("layer"))
        collectives = CollectiveModel(NodeSpec())
        tokens = 384
        total = tokens * kv_bytes_per_token(config, 2)
        layers = config.num_layers
        expected = layers * collectives.p2p(total // layers,
                                            "system").seconds
        assert model.transfer_time(tokens) == pytest.approx(
            expected, rel=1e-12)

    def test_cache_granularity_matches_p2p(self, config):
        model = KVTransferModel(config, KVTransferConfig("cache"))
        collectives = CollectiveModel(NodeSpec())
        tokens = 384
        total = tokens * kv_bytes_per_token(config, 2)
        expected = collectives.p2p(total, "system").seconds
        assert model.transfer_time(tokens) == pytest.approx(
            expected, rel=1e-12)

    def test_same_node_uses_node_span(self, config):
        model = KVTransferModel(config, KVTransferConfig("cache"))
        collectives = CollectiveModel(NodeSpec())
        total = 256 * kv_bytes_per_token(config, 2)
        expected = collectives.p2p(total, "node").seconds
        assert model.transfer_time(256, same_node=True) == pytest.approx(
            expected, rel=1e-12)
        # Infinity Fabric beats the per-GCD Slingshot share.
        assert model.transfer_time(256, same_node=True) \
            < model.transfer_time(256)

    def test_layer_split_is_exact_and_costs_more_latency(self, config):
        model = KVTransferModel(config, KVTransferConfig("layer"))
        assert model.token_bytes % config.num_layers == 0
        whole = KVTransferModel(config, KVTransferConfig("cache"))
        # Same bytes, more message latencies.
        assert model.transfer_time(512) > whole.transfer_time(512)

    def test_rejects_empty_transfer(self, config):
        with pytest.raises(ValueError):
            KVTransferModel(config).transfer_time(0)


class TestDisaggRun:
    def test_all_requests_complete_with_transfers(self, config):
        _, result = run_disagg(config, n=40)
        assert result.metrics.num_requests == 40
        assert result.transfers == 40
        assert result.transfer_seconds > 0
        assert result.transfer_requeues == 0
        assert len(result.transfer_records) == 40
        for rec in result.transfer_records:
            assert isinstance(rec, TransferRecord)
            assert rec.duration_s > 0
            assert rec.tokens >= 1
            assert rec.bytes == rec.tokens * kv_bytes_per_token(config, 2)
            # src is a prefill replica, dst a decode replica.
            assert rec.src[1] < 2 <= rec.dst[1]

    def test_token_parity_with_colocated(self, config):
        reqs_colo = make_workload(config, n=40)
        reqs_disagg = make_workload(config, n=40)
        ClusterSimulator(config, ClusterConfig(
            num_nodes=2, layout=ReplicaLayout.from_label("8xTP1"))
        ).run(reqs_colo)
        run_disagg(config, n=40, requests=reqs_disagg)
        for colo, disagg in zip(reqs_colo, reqs_disagg):
            assert colo.output, "timing-level decode emitted no tokens"
            assert colo.output == disagg.output

    def test_deterministic(self, config):
        _, a = run_disagg(config, n=40)
        _, b = run_disagg(config, n=40)
        assert [r.__dict__ for r in a.records] == \
            [r.__dict__ for r in b.records]
        assert a.transfer_records == b.transfer_records

    def test_transfer_lane_in_trace(self, config, tmp_path):
        _, result = run_disagg(config, n=16)
        lane = result.lanes["cluster"]["kv-transfer"]
        assert len(lane) == 16
        assert all(e.category == "kv-transfer" for e in lane)
        assert all(e.duration_s > 0 for e in lane)
        doc = json.loads(
            result.save_trace(tmp_path / "disagg.json").read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"kv-transfer", "handoff", "kv-import"} <= cats

    def test_colocated_has_no_transfer_machinery(self, config):
        sim = ClusterSimulator(config, ClusterConfig(
            num_nodes=2, layout=ReplicaLayout.from_label("8xTP1")))
        result = sim.run(make_workload(config, n=16))
        assert result.transfers == 0
        assert result.transfer_records == []
        assert "kv-transfer" not in result.lanes["cluster"]

    def test_decode_replicas_never_preempt(self, config):
        sim, result = run_disagg(config, n=40)
        assert result.metrics.num_requests == 40
        for replica in sim.replicas:
            if replica.role == "decode":
                assert replica.scheduler.total_preemptions == 0

    def test_cache_granularity_run_is_cheaper_on_wire(self, config):
        _, layer = run_disagg(config, n=24, granularity="layer")
        _, cache = run_disagg(config, n=24, granularity="cache")
        assert layer.transfer_seconds > cache.transfer_seconds
        # Same tokens either way — pricing only changes the clock.
        for a, b in zip(layer.transfer_records, cache.transfer_records):
            assert a.tokens == b.tokens and a.bytes == b.bytes

    def test_to_dict_round_trips_transfers(self, config):
        _, result = run_disagg(config, n=8)
        data = json.loads(json.dumps(result.to_dict()))
        assert data["transfers"] == 8
        assert data["transfer_requeues"] == 0
        assert len(data["transfer_records"]) == 8
        rec = data["transfer_records"][0]
        assert isinstance(rec["src"], list) and isinstance(rec["dst"], list)

    def test_format_cluster_adds_transfer_columns(self, config):
        _, disagg = run_disagg(config, n=8)
        sim = ClusterSimulator(config, ClusterConfig(
            num_nodes=2, layout=ReplicaLayout.from_label("8xTP1")))
        colo = sim.run(make_workload(config, n=8))
        table = format_cluster([colo, disagg])
        assert "xfers" in table and "requeued" in table
        assert "xfers" not in format_cluster([colo])

    def test_dead_on_arrival_handoff_is_cancelled(self, config):
        """A deadline that falls between a request's handoff and its KV
        delivery times it out at stage ``handoff``, before any wire time
        is spent on it."""
        rng = np.random.default_rng(0)
        long_prompt = rng.integers(0, config.vocab_size, size=1024)
        short_prompt = rng.integers(0, config.vocab_size, size=64)

        def run(deadline):
            # The short undated request keeps the run from completing
            # nothing when the long one is cancelled.
            requests = [
                Request(request_id=0, prompt=long_prompt, max_new_tokens=8,
                        arrival_time=0.0, deadline_s=deadline),
                Request(request_id=1, prompt=short_prompt, max_new_tokens=8,
                        arrival_time=0.0)]
            return run_disagg(config, layout="1P1DxTP1", nodes=1,
                              requests=requests)[1]

        free = run(None)
        first_token = free.records[0].first_token
        [wire] = [t for t in free.transfer_records if t.request_id == 0]
        assert wire.start == first_token
        res = run(first_token + 0.5 * wire.duration_s)
        [timeout] = res.timeout_records
        assert (timeout.request_id, timeout.stage) == (0, "handoff")
        assert timeout.cancelled_at == first_token
        assert [t.request_id for t in res.transfer_records] == [1]
        assert [r.request_id for r in res.records] == [1]
        assert res.transfers == 1
        router = res.lanes["cluster"]["router"]
        assert [e.name for e in router if e.category == "timeout"] == \
            ["req0/timeout"]


class TestHandoffPolicies:
    def test_all_policies_complete(self, config):
        for handoff in HANDOFF_POLICIES:
            _, result = run_disagg(config, n=32, handoff=handoff)
            assert result.metrics.num_requests == 32
            assert result.transfers == 32

    def test_round_robin_spreads_decode_load(self, config):
        _, result = run_disagg(config, n=32, handoff="round-robin",
                               nodes=1)
        dsts = [rec.dst for rec in result.transfer_records]
        assert len(set(dsts)) == 6  # every decode replica used

    def test_session_affinity_is_sticky(self, config):
        swl = SessionWorkloadConfig(num_sessions=6, arrival_rate=50.0,
                                    seed=0)
        requests = synthesize_sessions(swl, config)
        sessions = {req.request_id: req.session_id for req in requests}
        _, result = run_disagg(config, layout="2p6dxTP1", nodes=1,
                               handoff="session-affinity",
                               requests=requests)
        by_session: dict[int, set] = {}
        for rid, dst in result.assignments.items():
            by_session.setdefault(sessions[rid], set()).add(dst)
        for session_id, dsts in by_session.items():
            assert len(dsts) == 1, \
                f"session {session_id} split across {dsts}"


class TestCacheAwareRouting:
    def test_cache_aware_completes_and_looks_up(self, config):
        swl = SessionWorkloadConfig(num_sessions=8, arrival_rate=50.0,
                                    seed=0)
        serving = ServingConfig(prefix_cache=True, prefix_cache_blocks=64)
        results = {}
        for policy in ("round-robin", "cache-aware"):
            sim = ClusterSimulator(config, ClusterConfig(
                num_nodes=1, layout=ReplicaLayout.from_label("4xTP1"),
                routing=RoutingConfig(policy=policy), serving=serving))
            results[policy] = sim.run(synthesize_sessions(swl, config))
        for res in results.values():
            assert res.metrics.num_requests == len(
                synthesize_sessions(swl, config))
            assert res.metrics.cache_lookups > 0
        # Routing toward the replica already holding the prefix cannot
        # hit less than blind rotation on the same workload.
        assert results["cache-aware"].metrics.cache_hit_rate >= \
            results["round-robin"].metrics.cache_hit_rate

    def test_cache_aware_without_cache_falls_back(self, config):
        sim = ClusterSimulator(config, ClusterConfig(
            num_nodes=1, layout=ReplicaLayout.from_label("4xTP1"),
            routing=RoutingConfig(policy="cache-aware")))
        result = sim.run(make_workload(config, n=16))
        assert result.metrics.num_requests == 16


class TestTransferFailover:
    """In-flight transfers toward a dead decode replica are re-queued."""

    @staticmethod
    def run_faulted(config, fault_seed, mtbf=0.0002):
        wl = WorkloadConfig(num_requests=64, arrival_rate=30.0,
                            prompt_len_range=(128, 512),
                            output_len_range=(128, 256), seed=3)
        cfg = ClusterConfig(
            num_nodes=1, layout=ReplicaLayout.from_label("6p2dxTP1"),
            routing=RoutingConfig(policy="least-outstanding"),
            serving=ServingConfig(max_batch_tokens=8192),
            faults=FaultConfig(mtbf_hours=mtbf, seed=fault_seed),
            failover=FailoverConfig(
                detection_s=0.01, recovery_s=0.5,
                retry=RetryPolicy(max_retries=3, seed=5),
                slo_ttft_s=1.0))
        sim = ClusterSimulator(config, cfg)
        return sim.run(synthesize_workload(wl, config))

    def test_in_flight_transfer_requeued_not_dropped(self, config):
        # fault_seed=28 kills a decode replica with exactly one transfer
        # on the wire; the request retries from prefill and completes —
        # nothing is silently dropped.
        result = self.run_faulted(config, fault_seed=28)
        assert result.transfer_requeues == 1
        assert len(result.records) + len(result.failed_records) == 64
        assert len(result.failed_records) == 0
        assert result.retries_total > 0

    def test_heavy_faulting_preserves_accounting(self, config):
        result = self.run_faulted(config, fault_seed=8)
        assert result.transfer_requeues > 1
        assert len(result.records) + len(result.failed_records) == 64
        ids = {r.request_id for r in result.records} \
            | {f.request_id for f in result.failed_records}
        assert ids == set(range(64))

    def test_mtbf_inf_matches_fault_free(self, config):
        faulted = self.run_faulted(config, fault_seed=28, mtbf=math.inf)
        wl = WorkloadConfig(num_requests=64, arrival_rate=30.0,
                            prompt_len_range=(128, 512),
                            output_len_range=(128, 256), seed=3)
        sim = ClusterSimulator(config, ClusterConfig(
            num_nodes=1, layout=ReplicaLayout.from_label("6p2dxTP1"),
            routing=RoutingConfig(policy="least-outstanding"),
            serving=ServingConfig(max_batch_tokens=8192)))
        base = sim.run(synthesize_workload(wl, config))
        assert [r.__dict__ for r in faulted.records] == \
            [r.__dict__ for r in base.records]
        assert faulted.transfer_records == base.transfer_records
        assert faulted.transfer_requeues == 0
