"""Tests for the fault-injection subsystem (repro.faults): seeded fault
schedules, checkpoint-restart goodput (Young-Daly), serving failover,
crash-safe checkpoints, and the zero-fault bit-exactness contract."""

import math

import pytest

from repro.faults import FaultConfig, FaultModel, RetryPolicy
from repro.models import (CheckpointCorruptError, GPTModel, load_checkpoint,
                          preset, save_checkpoint)
from repro.models.checkpoint import read_verified, write_atomic
from repro.serving import (ClusterConfig, ClusterSimulator, FailoverConfig,
                           ReplicaLayout, RoutingConfig, ServingConfig,
                           WorkloadConfig, synthesize_workload)
from repro.training import (CheckpointCostModel, CheckpointRestartSimulator,
                            checkpoint_state_bytes, expected_goodput,
                            young_daly_interval)


# ----------------------------------------------------------------------
# Fault model determinism and validation
# ----------------------------------------------------------------------

class TestFaultModel:
    CFG = FaultConfig(mtbf_hours=0.01, straggler_mtbe_hours=0.02,
                      link_mtbe_hours=0.05, seed=42)

    def test_same_seed_same_schedule(self):
        a = FaultModel(self.CFG, 8).schedule(600.0)
        b = FaultModel(self.CFG, 8).schedule(600.0)
        assert a == b
        assert len(a) > 0

    def test_schedule_is_interleaving_independent(self):
        """peek/pop interleaving must not perturb the draw order."""
        a = FaultModel(self.CFG, 8)
        b = FaultModel(self.CFG, 8)
        serial = a.schedule(600.0)
        stepped = []
        t = 0.0
        while t < 600.0:
            t += 37.0
            b.peek_time()            # extra peeks must be harmless
            stepped.extend(b.events_until(min(t, 600.0)))
        assert serial == stepped

    def test_different_seed_different_schedule(self):
        other = FaultConfig(mtbf_hours=0.01, seed=43)
        a = FaultModel(self.CFG, 8).schedule(600.0)
        b = FaultModel(other, 8).schedule(600.0)
        assert [e.time_s for e in a if e.kind == "failure"] != \
            [e.time_s for e in b if e.kind == "failure"]

    def test_events_sorted_and_typed(self):
        events = FaultModel(self.CFG, 8).schedule(600.0)
        times = [e.time_s for e in events]
        assert times == sorted(times)
        assert {e.kind for e in events} <= {"failure", "straggler",
                                            "link-degrade"}
        assert all(0 <= e.component < 8 for e in events
                   if e.kind != "link-degrade")

    def test_failure_rate_scales_with_components(self):
        cfg = FaultConfig(mtbf_hours=0.01, seed=1)
        few = [e for e in FaultModel(cfg, 2).schedule(600.0)]
        many = [e for e in FaultModel(cfg, 16).schedule(600.0)]
        assert len(many) > len(few)
        assert FaultModel(cfg, 16).system_mtbf_s == \
            pytest.approx(FaultModel(cfg, 2).system_mtbf_s / 8)

    def test_fault_free_is_empty(self):
        model = FaultModel(FaultConfig(), 8)
        assert model.peek_time() == math.inf
        assert model.schedule(1e9) == []

    def test_validation_errors_name_the_field(self):
        with pytest.raises(ValueError, match="mtbf_hours"):
            FaultConfig(mtbf_hours=0.0)
        with pytest.raises(ValueError, match="straggler_slowdown"):
            FaultConfig(straggler_slowdown=0.5)
        with pytest.raises(ValueError, match="link_degrade_factor"):
            FaultConfig(link_degrade_factor=0.0)
        with pytest.raises(ValueError, match="num_components"):
            FaultModel(FaultConfig(), 0)


class TestRetryPolicy:
    def test_jitter_is_deterministic_per_request_attempt(self):
        policy = RetryPolicy(seed=5)
        assert policy.delay(7, 2) == RetryPolicy(seed=5).delay(7, 2)
        assert policy.delay(7, 2) != policy.delay(8, 2)
        assert policy.delay(7, 2) != policy.delay(7, 3)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.4, jitter=0.0,
                             seed=0)
        assert policy.delay(0, 1) == pytest.approx(0.1)
        assert policy.delay(0, 2) == pytest.approx(0.2)
        assert policy.delay(0, 3) == pytest.approx(0.4)
        assert policy.delay(0, 5) == pytest.approx(0.4)  # capped

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.1, jitter=0.5,
                             seed=9)
        for rid in range(20):
            delay = policy.delay(rid, 1)
            assert 0.1 <= delay <= 0.15

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="max_delay_s"):
            RetryPolicy(base_delay_s=1.0, max_delay_s=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().delay(0, 0)


# ----------------------------------------------------------------------
# Young-Daly analysis and checkpoint-restart replay
# ----------------------------------------------------------------------

def make_sim(mtbf_hours, seed=7, step=1.0, steps=2000, gcds=128):
    cost = CheckpointCostModel(
        state_bytes=checkpoint_state_bytes(10**9), num_nodes=4)
    return CheckpointRestartSimulator(
        step, steps, cost, FaultConfig(mtbf_hours=mtbf_hours, seed=seed),
        num_gcds=gcds)


class TestYoungDaly:
    def test_interval_formula(self):
        assert young_daly_interval(10.0, 2000.0) == \
            pytest.approx(math.sqrt(2 * 10.0 * 2000.0))
        assert young_daly_interval(10.0, math.inf) == math.inf
        with pytest.raises(ValueError, match="write_s"):
            young_daly_interval(0.0, 100.0)

    def test_expected_goodput_peaks_at_the_optimum(self):
        write, mtbf, restart = 10.0, 3600.0, 70.0
        tau = young_daly_interval(write, mtbf)
        at_tau = expected_goodput(tau, mtbf, write, restart)
        assert at_tau > expected_goodput(tau / 4, mtbf, write, restart)
        assert at_tau > expected_goodput(tau * 4, mtbf, write, restart)

    def test_expected_goodput_edge_cases(self):
        assert expected_goodput(math.inf, math.inf, 10.0, 70.0) == 1.0
        assert expected_goodput(100.0, math.inf, 10.0, 70.0) == \
            pytest.approx(100.0 / 110.0)
        with pytest.raises(ValueError, match="closed form"):
            expected_goodput(math.inf, 3600.0, 10.0, 70.0)


class TestCheckpointRestartSimulator:
    def test_zero_fault_replay_is_exact(self):
        sim = make_sim(math.inf)
        rep = sim.replay(math.inf)
        assert rep.wall_time_s == 2000 * 1.0
        assert rep.goodput == 1.0
        assert rep.failures == 0 and rep.checkpoints == 0
        assert rep.lost_work_s == 0.0

    def test_same_seed_identical_report(self):
        assert make_sim(4.0).replay(60.0) == make_sim(4.0).replay(60.0)

    def test_goodput_degrades_monotonically_with_mtbf(self):
        goodputs = [make_sim(m).replay(60.0).goodput
                    for m in (math.inf, 16.0, 8.0, 4.0, 2.0, 1.0)]
        assert all(a > b for a, b in zip(goodputs, goodputs[1:]))

    def test_young_daly_interval_beats_4x_shorter_and_longer(self):
        sim = make_sim(4.0)
        tau = sim.young_daly_interval()
        short, best, long_ = sim.interval_sweep(
            [tau * 0.25, tau, tau * 4.0])
        assert best.goodput > short.goodput
        assert best.goodput > long_.goodput

    def test_accounting_identity(self):
        rep = make_sim(4.0).replay(60.0)
        total = (rep.useful_s + rep.lost_work_s + rep.restart_overhead_s
                 + rep.checkpoint_overhead_s + rep.straggler_stretch_s)
        assert rep.wall_time_s == pytest.approx(total)
        assert rep.goodput == pytest.approx(
            rep.useful_s / rep.wall_time_s)

    def test_stragglers_stretch_but_do_not_rewind(self):
        cfg = FaultConfig(straggler_mtbe_hours=0.05,
                          straggler_slowdown=3.0, straggler_window_s=50.0,
                          seed=3)
        cost = CheckpointCostModel(state_bytes=10**9)
        sim = CheckpointRestartSimulator(1.0, 500, cost, cfg, num_gcds=8)
        rep = sim.replay(math.inf)
        assert rep.failures == 0
        assert rep.straggler_stretch_s > 0
        assert rep.wall_time_s == pytest.approx(
            rep.useful_s + rep.straggler_stretch_s)

    def test_link_degrade_taxes_only_the_comm_fraction(self):
        cfg = FaultConfig(link_mtbe_hours=0.05, link_degrade_factor=0.5,
                          link_window_s=50.0, seed=3)
        cost = CheckpointCostModel(state_bytes=10**9)
        compute_only = CheckpointRestartSimulator(
            1.0, 500, cost, cfg, num_gcds=8, comm_fraction=0.0)
        comm_heavy = CheckpointRestartSimulator(
            1.0, 500, cost, cfg, num_gcds=8, comm_fraction=0.5)
        assert compute_only.replay(math.inf).wall_time_s == 500.0
        assert comm_heavy.replay(math.inf).wall_time_s > 500.0

    def test_report_to_dict_roundtrips(self):
        rep = make_sim(4.0).replay(60.0)
        data = rep.to_dict()
        assert data["goodput"] == rep.goodput
        assert data["failures"] == rep.failures

    def test_validation(self):
        with pytest.raises(ValueError, match="step_time_s"):
            make_sim(4.0).__class__(0.0, 10,
                                    CheckpointCostModel(state_bytes=1e9),
                                    FaultConfig())
        with pytest.raises(ValueError, match="interval_s"):
            make_sim(4.0).replay(0.0)
        with pytest.raises(ValueError, match="state_bytes"):
            CheckpointCostModel(state_bytes=0)
        with pytest.raises(ValueError, match="unknown optimizer"):
            checkpoint_state_bytes(1000, "adagrad")


# ----------------------------------------------------------------------
# Serving failover
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def model_config():
    return preset("llama-1.7b-hf-32k")


def failover_cfg(slo=1.0, recovery=0.5, max_retries=3):
    return FailoverConfig(detection_s=0.01, recovery_s=recovery,
                          retry=RetryPolicy(max_retries=max_retries,
                                            seed=5),
                          slo_ttft_s=slo)


def run_faulted(model_config, mtbf_hours, *, seed=3, fault_seed=11,
                n=64, rate=30.0, policy="least-outstanding", nodes=1,
                failover=None):
    """The validated failover regime: a high-utilization single node
    whose ~2 s virtual horizon makes second-scale MTBFs meaningful."""
    wl = WorkloadConfig(num_requests=n, arrival_rate=rate,
                        prompt_len_range=(128, 512),
                        output_len_range=(128, 256), seed=seed)
    faults = None if mtbf_hours is None else \
        FaultConfig(mtbf_hours=mtbf_hours, seed=fault_seed)
    cfg = ClusterConfig(
        num_nodes=nodes, layout=ReplicaLayout.from_label("8xTP1"),
        routing=RoutingConfig(policy=policy),
        serving=ServingConfig(max_batch_tokens=8192),
        faults=faults, failover=failover or failover_cfg())
    sim = ClusterSimulator(model_config, cfg)
    return sim.run(synthesize_workload(wl, model_config))


class TestServingFailover:
    def test_mtbf_inf_is_bit_exact_with_faults_none(self, model_config):
        base = run_faulted(model_config, None)
        inf = run_faulted(model_config, math.inf)
        assert [r.__dict__ for r in base.records] == \
            [r.__dict__ for r in inf.records]
        assert base.metrics == inf.metrics
        assert inf.availability == 1.0
        assert inf.retries_total == 0
        assert inf.fault_events == []

    def test_same_seeds_identical_faulted_result(self, model_config):
        a = run_faulted(model_config, 0.0002)
        b = run_faulted(model_config, 0.0002)
        assert [r.__dict__ for r in a.records] == \
            [r.__dict__ for r in b.records]
        assert a.failed_records == b.failed_records
        assert a.fault_events == b.fault_events
        assert a.retries_total == b.retries_total

    def test_no_request_is_silently_dropped(self, model_config):
        for mtbf in (0.0005, 0.0002):
            res = run_faulted(model_config, mtbf)
            ids = {r.request_id for r in res.records} | \
                {f.request_id for f in res.failed_records}
            assert ids == set(range(res.submitted))
            assert len(res.records) + len(res.failed_records) == \
                res.submitted

    def test_availability_degrades_monotonically(self, model_config):
        avail = [run_faulted(model_config, m).availability
                 for m in (math.inf, 0.0005, 0.0002)]
        assert all(a >= b for a, b in zip(avail, avail[1:]))
        assert avail[-1] < 1.0

    def test_failover_produces_retries_and_fault_events(self, model_config):
        res = run_faulted(model_config, 0.0002)
        assert res.retries_total > 0
        assert any(e["kind"] == "failure" for e in res.fault_events)
        assert any(r.retries > 0 for r in res.records)

    def test_retry_exhaustion_fails_requests(self, model_config):
        res = run_faulted(model_config, 0.0002,
                          failover=failover_cfg(max_retries=0))
        assert res.failed_records
        assert all(f.retries == 0 for f in res.failed_records)

    def test_zero_survivors_raises_descriptive_error(self, model_config):
        # One single replica, fail-stop (no recovery): once it dies the
        # pending requests can never be placed.
        wl = WorkloadConfig(num_requests=48, arrival_rate=20.0,
                            prompt_len_range=(128, 512),
                            output_len_range=(128, 256), seed=3)
        cfg = ClusterConfig(
            num_nodes=1, layout=ReplicaLayout.from_label("1xTP8"),
            serving=ServingConfig(max_batch_tokens=8192),
            faults=FaultConfig(mtbf_hours=0.0002, seed=11),
            failover=FailoverConfig(
                detection_s=0.01, recovery_s=math.inf,
                retry=RetryPolicy(max_retries=3, seed=5)))
        sim = ClusterSimulator(model_config, cfg)
        with pytest.raises(ValueError, match="surviving replicas"):
            sim.run(synthesize_workload(wl, model_config))

    def test_fault_process_stops_with_the_work(self):
        """The router loop ends with the last request, so no fault is
        applied after it; the unbounded loop applied 23 failures here,
        22 of them after the last finish (0.0196 s)."""
        config = preset("tiny-llama")
        cfg = ClusterConfig(num_nodes=1,
                            layout=ReplicaLayout.from_label("2xTP1"),
                            faults=FaultConfig(mtbf_hours=0.00005, seed=3))
        res = ClusterSimulator(config, cfg).run(synthesize_workload(
            WorkloadConfig(num_requests=40, arrival_rate=3000.0, seed=1),
            config))
        assert len(res.records) == res.submitted == 40
        last = max(r.finish for r in res.records)
        assert len(res.fault_events) == 1
        assert all(e["time_s"] <= last for e in res.fault_events)
        assert not [e for group in res.lanes.values()
                    for events in group.values() for e in events
                    if e.phase == "fault" and e.start_s > last]

    def test_result_to_dict_carries_fault_fields(self, model_config):
        data = run_faulted(model_config, 0.0002).to_dict()
        assert "availability" in data and "fault_events" in data
        assert data["submitted"] == 64

    @staticmethod
    def run_links(model_config, layout, faults):
        cfg = ClusterConfig(num_nodes=2,
                            layout=ReplicaLayout.from_label(layout),
                            faults=faults)
        wl = WorkloadConfig(num_requests=64, arrival_rate=400.0, seed=0)
        return ClusterSimulator(model_config, cfg).run(
            synthesize_workload(wl, model_config))

    LINKS = FaultConfig(link_mtbe_hours=0.0001, link_degrade_factor=0.25,
                        link_window_s=0.2, seed=3)

    def test_degraded_link_slows_tensor_parallel_decode(self, model_config):
        free = self.run_links(model_config, "2xTP4", None)
        hit = self.run_links(model_config, "2xTP4", self.LINKS)
        assert hit.fault_events
        assert {e["kind"] for e in hit.fault_events} == {"link-degrade"}
        assert hit.percentiles("tpot", (50.0,))[50.0] \
            > free.percentiles("tpot", (50.0,))[50.0]
        lanes = [e for group in hit.lanes.values()
                 for events in group.values() for e in events
                 if e.category == "link-degrade"]
        assert lanes
        assert hit.availability == 1.0 and hit.retries_total == 0

    def test_degraded_link_leaves_tp1_untouched(self, model_config):
        free = self.run_links(model_config, "8xTP1", None)
        hit = self.run_links(model_config, "8xTP1", self.LINKS)
        assert hit.fault_events
        assert [r.__dict__ for r in hit.records] == \
            [r.__dict__ for r in free.records]
        assert hit.metrics == free.metrics

    def test_failover_config_validation(self):
        with pytest.raises(ValueError, match="detection_s"):
            FailoverConfig(detection_s=-1.0)
        with pytest.raises(ValueError, match="recovery_s"):
            FailoverConfig(recovery_s=0.0)
        with pytest.raises(ValueError, match="detection_s"):
            FailoverConfig(detection_s=5.0, recovery_s=1.0)
        with pytest.raises(ValueError, match="slo_ttft_s"):
            FailoverConfig(slo_ttft_s=0.0)
        assert FailoverConfig(recovery_s=math.inf).fail_stop


# ----------------------------------------------------------------------
# Crash-safe checkpoint files
# ----------------------------------------------------------------------

class TestCrashSafeCheckpoint:
    def test_atomic_write_and_verified_read(self, tmp_path):
        path = tmp_path / "artifact.bin"
        write_atomic(path, b"hello world")
        assert read_verified(path) == b"hello world"
        assert not list(tmp_path.glob("*.tmp-*"))

    def test_flipped_byte_is_detected(self, tmp_path):
        path = tmp_path / "artifact.bin"
        write_atomic(path, b"hello world")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            read_verified(path)

    def test_truncation_is_detected(self, tmp_path):
        path = tmp_path / "artifact.bin"
        write_atomic(path, b"hello world" * 100)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            read_verified(path)

    def test_headerless_legacy_file_returns_none(self, tmp_path):
        path = tmp_path / "legacy.bin"
        path.write_bytes(b"old-format payload")
        assert read_verified(path) is None

    def test_model_roundtrip_and_corruption(self, tmp_path):
        model = GPTModel(preset("tiny-llama"), seed=0)
        path = save_checkpoint(model, tmp_path / "model.npz")
        clone = load_checkpoint(path)
        for (name, p), (_, q) in zip(model.named_parameters(),
                                     clone.named_parameters()):
            assert (p.data == q.data).all(), name
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_garbage_pickle_raises_corrupt_error(self, tmp_path):
        from repro.models.checkpoint import load_tokenizer
        path = tmp_path / "tok.pkl"
        write_atomic(path, b"not a pickle at all")
        with pytest.raises(CheckpointCorruptError, match="unpickle"):
            load_tokenizer(path)

    def test_overwrite_keeps_old_or_new_never_mixed(self, tmp_path):
        path = tmp_path / "artifact.bin"
        write_atomic(path, b"version-1")
        write_atomic(path, b"version-2")
        assert read_verified(path) == b"version-2"
