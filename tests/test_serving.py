"""Tests for the serving subsystem: paged KV pool, continuous-batching
scheduler, decode engine, workloads, metrics, Frontier extrapolation."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.models import GPTModel, ModelConfig, preset
from repro.serving import (ContinuousBatchScheduler, DecodeCostModel,
                           FrontierServingEstimate, KVPoolConfig,
                           PagedKVPool, Request, SchedulerConfig,
                           ServeResult, ServingConfig, ServingEngine,
                           ServingPerfModel, ServingResultBase,
                           WorkloadConfig, format_estimate, format_metrics,
                           kv_bytes_per_token, run_sequential,
                           synthesize_workload)


@pytest.fixture(scope="module")
def model():
    return GPTModel(preset("tiny-llama"), seed=0)


def make_workload(model, n=16, rate=2000.0, seed=0, **kw):
    cfg = WorkloadConfig(num_requests=n, arrival_rate=rate, seed=seed, **kw)
    return synthesize_workload(cfg, model.config)


class TestKVPool:
    def test_bytes_per_token_matches_live_cache(self, model):
        """Analytic per-token bytes agree with an actual KVCache."""
        from repro.models import KVCache
        caches = [KVCache() for _ in model.layers]
        model._forward_cached(np.arange(10)[None], caches)
        live = sum(c.memory_bytes() for c in caches)
        assert kv_bytes_per_token(model.config) * 10 == live

    def test_gqa_shrinks_token_cost(self):
        mha = ModelConfig(arch="llama", hidden_size=64, num_layers=2,
                          num_heads=8, vocab_size=256, max_seq_len=64)
        gqa = ModelConfig(arch="llama", hidden_size=64, num_layers=2,
                          num_heads=8, num_kv_heads=2, vocab_size=256,
                          max_seq_len=64)
        assert kv_bytes_per_token(gqa) == kv_bytes_per_token(mha) // 4

    def test_alloc_grow_free_cycle(self, model):
        pool = PagedKVPool(model.config, KVPoolConfig(block_size=4,
                                                      num_blocks=8))
        assert pool.allocate(1, 5)          # 2 blocks
        assert pool.blocks_used == 2
        assert pool.allocate(1, 6)          # still 2 blocks
        assert pool.blocks_used == 2
        assert pool.allocate(1, 9)          # grows to 3
        assert pool.blocks_used == 3
        assert pool.free(1) == 3
        assert pool.blocks_used == 0

    def test_all_or_nothing_on_exhaustion(self, model):
        pool = PagedKVPool(model.config, KVPoolConfig(block_size=4,
                                                      num_blocks=2))
        assert pool.allocate(1, 4)
        assert not pool.allocate(2, 8)      # needs 2, only 1 free
        assert pool.blocks_used == 1        # nothing leaked
        assert pool.alloc_failures == 1
        assert pool.can_allocate(2, 4)

    def test_fragmentation_and_peak(self, model):
        pool = PagedKVPool(model.config, KVPoolConfig(block_size=8,
                                                      num_blocks=4))
        pool.allocate(1, 9)                 # 2 blocks, 9/16 slots filled
        assert pool.fragmentation() == pytest.approx(7 / 16)
        pool.free(1)
        assert pool.fragmentation() == 0.0
        assert pool.peak_blocks_used == 2
        assert pool.peak_utilization == pytest.approx(0.5)

    def test_budget_sizing_from_hbm(self):
        config = preset("llama-1.7b-hf-52k")
        pool = PagedKVPool(config, KVPoolConfig(block_size=16))
        # 64 GB minus ~3.4 GB of weights, at 36 KB/token/2 per block…
        expected = int((64e9 - 2.0 * config.num_parameters())
                       // (16 * kv_bytes_per_token(config)))
        assert pool.num_blocks == expected
        assert pool.num_blocks > 0

    def test_oversized_model_rejected(self):
        config = preset("llama-6.7b-hf-52k")
        with pytest.raises(ValueError):
            PagedKVPool(config, KVPoolConfig(hbm_gb=1.0))

    def test_lazy_free_list_leases_eager_order(self, model):
        """Seeded allocate/free traffic leases exactly the block ids of
        an eager ``[n-1, ..., 0]`` pop-stack free list."""
        n, size = 64, 4
        free = list(range(n - 1, -1, -1))        # the eager reference
        held: dict[int, list[int]] = {}
        pool = PagedKVPool(model.config, KVPoolConfig(block_size=size,
                                                      num_blocks=n))
        rng = np.random.default_rng(0)
        for _ in range(3000):
            rid = int(rng.integers(12))
            if rng.random() < 0.3:
                blocks = held.pop(rid, [])
                free.extend(reversed(blocks))
                assert pool.free(rid) == len(blocks)
            else:
                tokens = int(rng.integers(1, 24 * size))
                have = held.get(rid, [])
                extra = -(-tokens // size) - len(have)
                fits = extra <= len(free)
                if fits:
                    held[rid] = have + [free.pop()
                                        for _ in range(max(0, extra))]
                assert pool.allocate(rid, tokens) == fits
            assert pool._blocks == held
            assert pool.blocks_free == len(free)

    def test_gcd_sized_pool_builds_in_constant_memory(self, model):
        """A whole-GCD tiny-llama pool holds millions of blocks; building
        it must not materialize a free-list entry per block."""
        tracemalloc.start()
        try:
            pool = PagedKVPool(model.config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pool.num_blocks > 1_000_000
        assert peak < 1_000_000


class TestScheduler:
    def _pool(self, model, blocks=64, block_size=4):
        return PagedKVPool(model.config,
                           KVPoolConfig(block_size=block_size,
                                        num_blocks=blocks))

    def _req(self, i, plen, arrival=0.0, max_new=4):
        return Request(request_id=i, prompt=np.arange(1, plen + 1),
                       max_new_tokens=max_new, arrival_time=arrival)

    def test_fcfs_admits_in_arrival_order(self, model):
        sched = ContinuousBatchScheduler(self._pool(model),
                                         SchedulerConfig(policy="fcfs"))
        for i, (plen, t) in enumerate([(8, 0.2), (2, 0.1), (5, 0.3)]):
            sched.submit(self._req(i, plen, arrival=t))
        admitted = sched.admit(now=1.0)
        assert [r.request_id for r in admitted] == [1, 0, 2]

    def test_spf_admits_shortest_prompt_first(self, model):
        sched = ContinuousBatchScheduler(self._pool(model),
                                         SchedulerConfig(policy="spf"))
        for i, plen in enumerate([8, 2, 5]):
            sched.submit(self._req(i, plen, arrival=0.0))
        admitted = sched.admit(now=0.0)
        assert [r.request_id for r in admitted] == [1, 2, 0]

    def test_batch_size_cap(self, model):
        sched = ContinuousBatchScheduler(
            self._pool(model), SchedulerConfig(max_batch_size=2))
        for i in range(4):
            sched.submit(self._req(i, 3))
        assert len(sched.admit(now=0.0)) == 2
        assert sched.queue_depth == 2

    def test_token_budget_cap(self, model):
        sched = ContinuousBatchScheduler(
            self._pool(model), SchedulerConfig(max_batch_tokens=20))
        for i in range(3):
            sched.submit(self._req(i, 6, max_new=4))  # 10 tokens each
        assert len(sched.admit(now=0.0)) == 2
        assert sched.queue_depth == 1

    def test_pool_exhaustion_blocks_admission(self, model):
        sched = ContinuousBatchScheduler(self._pool(model, blocks=2))
        sched.submit(self._req(0, 7))   # 8 slots with next token: 2 blocks
        sched.submit(self._req(1, 7))
        assert len(sched.admit(now=0.0)) == 1
        assert sched.queue_depth == 1

    def test_requests_compare_by_identity(self):
        """A field-for-field copy is another request: ``==`` and
        ``list.remove`` go by identity and never compare the prompts."""
        first = self._req(0, 5)
        copy = dataclasses.replace(first)
        assert first == first and copy != first
        queue = [first, copy]
        queue.remove(copy)
        assert len(queue) == 1 and queue[0] is first

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SchedulerConfig(policy="lifo")
        with pytest.raises(ValueError):
            SchedulerConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            Request(request_id=0, prompt=np.array([]), max_new_tokens=4)


class TestWorkload:
    def test_seeded_workload_is_deterministic(self, model):
        a = make_workload(model, n=20, seed=7)
        b = make_workload(model, n=20, seed=7)
        for ra, rb in zip(a, b):
            assert ra.arrival_time == rb.arrival_time
            np.testing.assert_array_equal(ra.prompt, rb.prompt)
            assert ra.max_new_tokens == rb.max_new_tokens

    def test_poisson_rate_roughly_respected(self, model):
        reqs = make_workload(model, n=200, rate=100.0, seed=0)
        mean_gap = reqs[-1].arrival_time / len(reqs)
        assert 0.5 / 100.0 < mean_gap < 2.0 / 100.0

    def test_lengths_respect_context(self, model):
        reqs = make_workload(model, n=50, seed=3)
        for r in reqs:
            assert r.budget_tokens <= model.config.max_seq_len

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_requests=0)
        with pytest.raises(ValueError):
            WorkloadConfig(arrival_rate=0.0)
        with pytest.raises(ValueError):
            WorkloadConfig(prompt_len_range=(5, 2))


def _tight_engine(model, blocks, batch=4):
    return ServingEngine(model, ServingConfig(max_batch_size=batch,
                                              block_size=4,
                                              num_blocks=blocks))


class TestEngine:
    def test_all_requests_complete(self, model):
        reqs = make_workload(model, n=16)
        result = ServingEngine(model).run(reqs)
        assert result.metrics.num_requests == 16
        assert sorted(result.outputs) == list(range(16))

    def test_outputs_match_generate_exactly(self, model):
        """Engine tokens are bit-identical to cached greedy generate."""
        reqs = make_workload(model, n=8)
        result = ServingEngine(model).run(reqs)
        for r in reqs:
            expected = model.generate(r.prompt, r.max_new_tokens,
                                      use_cache=True)[r.prompt_len:]
            np.testing.assert_array_equal(result.outputs[r.request_id],
                                          expected)

    def test_continuous_batching_beats_sequential(self, model):
        """The acceptance bar: batched tokens/s > one-at-a-time."""
        reqs = make_workload(model, n=24, rate=2000.0)
        batched = ServingEngine(model).run(reqs)
        seq = run_sequential(model, make_workload(model, n=24, rate=2000.0))
        assert batched.metrics.mean_batch_size > 1.5
        assert batched.metrics.tokens_per_s > 1.2 * seq.metrics.tokens_per_s

    def test_preempted_requests_all_complete(self, model):
        """A pool too small for the batch forces requeues, yet every
        request finishes with the right tokens."""
        reqs = make_workload(model, n=12, rate=5000.0)
        result = _tight_engine(model, blocks=12).run(reqs)
        assert result.metrics.num_requests == 12
        assert result.metrics.preemptions > 0
        preempted = [r for r in result.records if r.preemptions > 0]
        assert preempted, "tight pool should actually requeue someone"
        for r in reqs:
            expected = model.generate(r.prompt, r.max_new_tokens,
                                      use_cache=True)[r.prompt_len:]
            np.testing.assert_array_equal(result.outputs[r.request_id],
                                          expected)

    def test_no_livelock_under_extreme_contention(self, model):
        """Regression: with a pool much smaller than aggregate demand,
        victim choice must include the grower itself (youngest-first),
        or two requests crossing block boundaries alternately evict
        each other forever.  max_steps converts a livelock into a
        failure instead of a hang."""
        reqs = make_workload(model, n=20, rate=5000.0)
        engine = ServingEngine(model, ServingConfig(max_batch_size=8,
                                                    block_size=4,
                                                    num_blocks=10,
                                                    max_steps=5000))
        result = engine.run(reqs)
        assert result.metrics.num_requests == 20
        assert result.metrics.peak_pool_utilization == 1.0

    def test_engine_serves_one_run(self, model):
        """Like the one-replica fleet it runs on, an engine serves one
        run: its replica keeps the first run's records and clock."""
        engine = ServingEngine(model)
        engine.run(make_workload(model, n=4))
        with pytest.raises(RuntimeError, match="already served a run"):
            engine.run(make_workload(model, n=4))

    def test_trace_and_metrics_deterministic(self, model):
        runs = []
        for _ in range(2):
            reqs = make_workload(model, n=16, seed=5)
            runs.append(ServingEngine(model).run(reqs))
        assert runs[0].lanes == runs[1].lanes
        assert runs[0].metrics == runs[1].metrics

    def test_eos_stops_requests_early(self, model):
        reqs = make_workload(model, n=8, seed=2)
        probe = ServingEngine(model).run(
            make_workload(model, n=8, seed=2))
        # Use a token some request actually produces as the eos id.
        eos = int(probe.outputs[0][0])
        for r in reqs:
            r.eos_id = eos
        result = ServingEngine(model).run(reqs)
        lengths = {i: len(result.outputs[i]) for i in result.outputs}
        assert lengths[0] == 1  # request 0 hits eos on its first token
        for r in reqs:
            expected = model.generate(r.prompt, r.max_new_tokens,
                                      use_cache=True,
                                      eos_id=eos)[r.prompt_len:]
            np.testing.assert_array_equal(result.outputs[r.request_id],
                                          expected)

    def test_oversized_request_rejected(self, model):
        big = Request(request_id=0, prompt=np.arange(1, 60),
                      max_new_tokens=30)  # 89 > max_seq_len 64
        with pytest.raises(ValueError):
            ServingEngine(model).run([big])

    def test_request_larger_than_pool_rejected(self, model):
        req = Request(request_id=0, prompt=np.arange(1, 20),
                      max_new_tokens=10)
        with pytest.raises(ValueError):
            _tight_engine(model, blocks=2).run([req])

    def test_pool_empty_after_run(self, model):
        engine = ServingEngine(model)
        engine.run(make_workload(model, n=8))
        assert engine.pool.blocks_used == 0
        assert engine.pool.peak_blocks_used > 0

    def test_metrics_are_sane(self, model):
        result = ServingEngine(model).run(make_workload(model, n=16))
        m = result.metrics
        assert m.ttft_p50 <= m.ttft_p95
        assert m.latency_p50 <= m.latency_p95 <= m.latency_p99
        assert m.tokens_per_s > 0
        assert 0.0 < m.peak_pool_utilization <= 1.0
        for rec in result.records:
            assert rec.arrival <= rec.first_token <= rec.finish
            assert rec.ttft > 0 and rec.latency > 0
        assert "tok/s" in format_metrics(m)


class TestServingConfig:
    """The unified replica description shared by engine and cluster."""

    def test_frozen_and_validated(self):
        cfg = ServingConfig()
        with pytest.raises((AttributeError, TypeError)):
            cfg.max_batch_size = 2
        for bad in (dict(policy="lifo"), dict(max_batch_size=0),
                    dict(block_size=0), dict(tensor_parallel=0),
                    dict(step_overhead_s=-1.0), dict(max_steps=0)):
            with pytest.raises(ValueError):
                ServingConfig(**bad)

    def test_engine_consumes_config(self, model):
        cfg = ServingConfig(policy="spf", max_batch_size=2, block_size=4,
                            num_blocks=32)
        engine = ServingEngine(model, cfg)
        assert engine.scheduler.config.policy == "spf"
        assert engine.pool.block_size == 4
        assert engine.pool.num_blocks == 32
        result = engine.run(make_workload(model, n=6))
        assert result.metrics.num_requests == 6
        assert result.metrics.mean_batch_size <= 2.0


class TestResults:
    """ServeResult / ClusterResult share the ServingResultBase surface."""

    def test_unknown_request_id_is_descriptive(self, model):
        result = ServingEngine(model).run(make_workload(model, n=4))
        assert isinstance(result, ServeResult)
        with pytest.raises(ValueError, match=r"unknown request id 99"):
            result.output_tokens(99)
        with pytest.raises(ValueError, match=r"0, 1, 2, 3"):
            result.output_tokens(99)

    def test_percentiles_and_errors(self, model):
        result = ServingEngine(model).run(make_workload(model, n=8))
        assert isinstance(result, ServingResultBase)
        p = result.percentiles("ttft")
        assert set(p) == {50.0, 95.0, 99.0}
        assert p[50.0] <= p[95.0] <= p[99.0]
        assert result.percentiles("tpot", qs=(50.0,))[50.0] > 0
        with pytest.raises(ValueError):
            result.percentiles("throughput")

    def test_save_json_roundtrip(self, model, tmp_path):
        import json
        result = ServingEngine(model).run(make_workload(model, n=4))
        path = result.save_json(tmp_path / "serve")
        assert path.suffix == ".json"
        data = json.loads(path.read_text())
        assert data["metrics"]["num_requests"] == 4
        assert len(data["records"]) == 4


class TestPreemptionFairness:
    """Property-style check: youngest-first LIFO preemption terminates.

    Adversarial same-length request pairs arriving together are the
    worst case for victim selection — identical budgets mean every
    tie-break matters, and a victim choice that excludes the grower
    itself livelocks two requests crossing block boundaries in
    lockstep.  ``max_steps`` turns any such livelock into a hard
    failure instead of a hang."""

    @pytest.mark.parametrize("plen,max_new", [(6, 6), (7, 5), (4, 8)])
    def test_adversarial_pairs_terminate(self, model, plen, max_new):
        budget_blocks = -(-(plen + max_new) // 4)       # ceil
        engine = ServingEngine(
            model, ServingConfig(max_batch_size=4, block_size=4,
                                 num_blocks=budget_blocks + 1,
                                 max_steps=4000))
        reqs = [Request(request_id=i, prompt=np.arange(1, plen + 1),
                        max_new_tokens=max_new, arrival_time=0.0)
                for i in range(4)]
        result = engine.run(reqs)
        assert result.metrics.num_requests == 4
        assert result.metrics.preemptions > 0
        for r in reqs:
            assert len(result.outputs[r.request_id]) == max_new

    def test_preempted_pairs_match_generate(self, model):
        """Recompute after preemption still yields exact tokens."""
        engine = ServingEngine(
            model, ServingConfig(max_batch_size=4, block_size=4,
                                 num_blocks=4, max_steps=4000))
        reqs = [Request(request_id=i, prompt=np.arange(3, 9),
                        max_new_tokens=6, arrival_time=0.0)
                for i in range(4)]
        result = engine.run(reqs)
        expected = model.generate(np.arange(3, 9), 6, use_cache=True)[6:]
        for i in range(4):
            np.testing.assert_array_equal(result.outputs[i], expected)


class TestCostModel:
    def test_batching_amortizes_weight_stream(self, model):
        cost = DecodeCostModel(model.config)
        one = cost.decode_step_time(1, 32)
        eight = cost.decode_step_time(8, 8 * 32)
        # 8 requests in one step is far cheaper than 8 separate steps.
        assert eight < 8 * one
        assert eight >= one

    def test_prefill_scales_with_prompt(self, model):
        cost = DecodeCostModel(model.config)
        assert cost.prefill_time(32) > cost.prefill_time(4)

    def test_prefill_memo_matches_fresh_pricing(self, model):
        lengths = [1, 5, 64, 5, 300, 1, 64]
        for tp in (1, 8):
            cost = DecodeCostModel(model.config, tp=tp)
            memo = [cost.prefill_time(n) for n in lengths]
            fresh = [DecodeCostModel(model.config, tp=tp).prefill_time(n)
                     for n in lengths]
            assert memo == fresh

    def test_prefill_prices_each_length_once(self, model):
        cost = DecodeCostModel(model.config)
        seen = []
        price = cost.roofline.layer_forward_timing

        def spy(*args, **kwargs):
            seen.append(kwargs["seq_len"])
            return price(*args, **kwargs)
        cost.roofline.layer_forward_timing = spy
        for n in (16, 32, 16, 16, 32):
            cost.prefill_time(n)
        cost.chunked_prefill_time(16, 100)
        assert sorted(seen) == [16, 32]


class TestPerfModel:
    def test_small_model_prefers_replicas(self, model):
        result = ServingEngine(model).run(make_workload(model, n=16))
        est = ServingPerfModel().estimate(model.config, result.metrics)
        assert isinstance(est, FrontierServingEstimate)
        assert est.best.tp == 1
        assert est.best.node_tokens_per_s > 0
        assert "recommended" in format_estimate(est)

    def test_tp_pays_comm_tax(self):
        config = preset("llama-6.7b-hf-52k")
        pm = ServingPerfModel()
        t1, c1 = pm.decode_step_time(config, 8, 8 * 512, tp=1)
        t8, c8 = pm.decode_step_time(config, 8, 8 * 512, tp=8)
        assert c1 == 0.0 and c8 > 0.0
        # Sharding still wins on step time for a memory-bound decode.
        assert t8 < t1

    def test_fit_check_gates_replicas(self):
        config = preset("llama-6.7b-hf-52k")  # 13.7 GB bf16: fits TP=1
        pm = ServingPerfModel()
        assert pm.fits(config, tp=1)
        big = ModelConfig(arch="llama", hidden_size=8192, num_layers=80,
                          num_heads=64, vocab_size=52000, max_seq_len=2048)
        assert not pm.fits(big, tp=1)      # ~130 GB bf16
        assert pm.fits(big, tp=8)


class TestGenerateEos:
    """Satellite: GPTModel.generate stop-token support."""

    @pytest.mark.parametrize("use_cache", [False, True])
    def test_eos_truncates_both_paths(self, model, use_cache):
        prompt = np.array([3, 14, 15])
        full = model.generate(prompt, 16, use_cache=use_cache)
        eos = int(full[len(prompt) + 4])   # 5th generated token
        out = model.generate(prompt, 16, use_cache=use_cache, eos_id=eos)
        assert len(out) <= len(full)
        assert int(out[-1]) == eos
        np.testing.assert_array_equal(out, full[:len(out)])

    def test_eos_never_produced_runs_full_length(self, model):
        prompt = np.array([1, 2])
        out = model.generate(prompt, 8, eos_id=-1)
        assert len(out) == 10


class TestEngineLifecycleTrace:
    """Satellite: per-request lifecycle events from the single engine."""

    def run_engine(self, model, n=8):
        engine = ServingEngine(model, ServingConfig(max_batch_size=4,
                                                    num_blocks=32))
        return engine.run(make_workload(model, n=n))

    def test_lanes_cover_every_request_lifecycle(self, model):
        result = self.run_engine(model)
        # The router lane carries arrivals, the replica lane the rest.
        events = result.lanes["cluster"]["router"] \
            + result.lanes["node0"]["replica0 (TP=1)"]
        stages = {}
        for event in events:
            req, stage = event.name.split("/")
            stages.setdefault(req, set()).add(stage)
        assert len(stages) == len(result.records)
        for seen in stages.values():
            assert {"arrive", "admit", "prefill", "decode",
                    "finish"} <= seen

    def test_spans_match_record_timings(self, model):
        result = self.run_engine(model)
        events = result.lanes["node0"]["replica0 (TP=1)"]
        by_record = {r.request_id: r for r in result.records}
        for event in events:
            req_id = int(event.name.split("/")[0][len("req"):])
            record = by_record[req_id]
            if event.category == "decode":
                assert event.start_s == pytest.approx(record.first_token)
                assert event.end_s == pytest.approx(record.finish)
            elif event.category == "finish":
                assert event.start_s == pytest.approx(record.finish)

    def test_save_trace_writes_chrome_json(self, model, tmp_path):
        import json
        result = self.run_engine(model)
        path = result.save_trace(tmp_path / "engine-trace")
        doc = json.loads(path.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"cluster", "node0"} <= {
            e["args"]["name"] for e in doc["traceEvents"]
            if e["name"] == "process_name"}
        assert any(n.startswith("req") and n.endswith("/prefill")
                   for n in names)

    def test_trace_is_deterministic_under_seed(self, model):
        a = self.run_engine(model)
        b = self.run_engine(model)
        assert a.lanes == b.lanes
