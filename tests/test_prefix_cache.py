"""Tests for the prefix/KV reuse subsystem: radix prefix cache over the
packed KV pool, session-aware workloads, eviction-vs-preemption rules,
cache-on/off output parity, and the perf-bench ratchet."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import lint_source, resolve_rules
from repro.bench import baseline_coverage, compare_perf_baseline
from repro.cli import main
from repro.models import GPTModel, PackedKVPool, preset
from repro.serving import (CacheStats, ClusterConfig, ClusterSimulator,
                           KVPoolConfig, PagedKVPool, RadixPrefixCache,
                           RoutingConfig, ServingConfig, ServingEngine,
                           SessionWorkloadConfig, WorkloadConfig,
                           synthesize_sessions, synthesize_workload)


@pytest.fixture(scope="module")
def model():
    return GPTModel(preset("tiny-llama"), seed=0)


def timing_cache(block=4, capacity=8, **kw):
    return RadixPrefixCache(block_tokens=block, capacity_blocks=capacity,
                            store_kv=False, **kw)


def kv_cache(block=4, capacity=8, layers=2, heads=2, dim=4, **kw):
    return RadixPrefixCache(block_tokens=block, capacity_blocks=capacity,
                            num_layers=layers, num_kv_heads=heads,
                            head_dim=dim, store_kv=True, **kw)


def seeded_pool(layers=2, heads=2, dim=4, tokens=16, seed=0):
    """A packed pool with one leased slot holding ``tokens`` random KV."""
    pool = PackedKVPool(layers, heads, dim, num_slots=8, max_len=64,
                        block_tokens=4)
    slot = pool.acquire()
    rng = np.random.default_rng(seed)
    k = [rng.normal(size=(heads, tokens, dim)) for _ in range(layers)]
    v = [rng.normal(size=(heads, tokens, dim)) for _ in range(layers)]
    pool.import_span(slot, 0, k, v)
    return pool, slot, (k, v)


class TestRadixCacheStructure:
    def test_fresh_cache_misses(self):
        cache = timing_cache()
        match = cache.match(np.arange(12))
        assert not match.hit and match.tokens == 0
        assert cache.stats.lookups == 1 and cache.stats.hits == 0

    def test_insert_then_match_caps_below_prompt_len(self):
        cache = timing_cache(block=4)
        prompt = np.arange(12)
        assert cache.insert(prompt) == 3
        # A full-prompt match must drop trailing blocks so at least one
        # token remains to forward for first-token logits.
        match = cache.match(prompt)
        assert match.tokens == 8
        cache.release(match)
        # A longer prompt sharing the prefix matches all 12 tokens.
        longer = cache.match(np.concatenate([prompt, np.arange(100, 108)]))
        assert longer.tokens == 12
        cache.release(longer)

    def test_partial_prefix_divergence(self):
        cache = timing_cache(block=4)
        cache.insert(np.arange(12))
        other = np.concatenate([np.arange(4), np.arange(50, 62)])
        match = cache.match(other)
        assert match.tokens == 4  # shares only the first block
        cache.release(match)

    def test_sub_block_prompt_never_matches(self):
        cache = timing_cache(block=8)
        cache.insert(np.arange(16))
        assert not cache.match(np.arange(5)).hit

    def test_insert_is_idempotent(self):
        cache = timing_cache(block=4)
        prompt = np.arange(12)
        assert cache.insert(prompt) == 3
        assert cache.insert(prompt) == 0
        assert cache.num_blocks == 3

    def test_release_twice_raises(self):
        cache = timing_cache(block=4)
        cache.insert(np.arange(8))
        match = cache.match(np.arange(12))
        cache.release(match)
        with pytest.raises(ValueError, match="released more than once"):
            cache.release(match)

    def test_capacity_bound_holds(self):
        cache = timing_cache(block=4, capacity=3)
        for base in range(6):
            cache.insert(np.arange(base * 100, base * 100 + 8))
        assert cache.num_blocks <= 3
        assert cache.stats.evicted_blocks > 0


class TestEviction:
    def test_lru_order(self):
        cache = timing_cache(block=4, capacity=8)
        old = np.arange(8)
        new = np.arange(100, 108)
        cache.insert(old)
        cache.insert(new)
        touch = cache.match(np.concatenate([old, old]))  # refresh old
        cache.release(touch)
        cache.evict(2)
        assert cache.match(np.concatenate([old, old])).tokens == 8
        assert not cache.match(np.concatenate([new, new])).hit

    def test_referenced_blocks_survive_full_evict(self):
        cache = timing_cache(block=4, capacity=8)
        pinned = np.arange(8)
        cache.insert(pinned)
        cache.insert(np.arange(100, 108))
        held = cache.match(np.concatenate([pinned, pinned]))
        cache.evict(100)
        assert cache.referenced_blocks == 2
        again = cache.match(np.concatenate([pinned, pinned]))
        assert again.tokens == 8
        cache.release(again)
        cache.release(held)
        cache.evict(100)
        assert cache.num_blocks == 0

    def test_interior_nodes_outlive_their_children(self):
        cache = timing_cache(block=4, capacity=8)
        cache.insert(np.arange(16))  # chain of 4 blocks
        cache.evict(1)
        # Only the deepest leaf goes; the prefix chain stays intact.
        assert cache.num_blocks == 3
        assert cache.match(np.arange(17)).tokens == 12

    def test_paged_pool_accounting(self):
        pool = PagedKVPool(preset("tiny-llama"),
                           KVPoolConfig(block_size=4, num_blocks=8))
        cache = timing_cache(block=4, capacity=8, paged_pool=pool)
        cache.insert(np.arange(12))
        assert pool.blocks_free == 5
        cache.evict(100)
        assert pool.blocks_free == 8

    def test_paged_pool_pressure_stops_insert(self):
        pool = PagedKVPool(preset("tiny-llama"),
                           KVPoolConfig(block_size=4, num_blocks=2))
        cache = timing_cache(block=4, capacity=8, paged_pool=pool)
        assert pool.allocate(7, 4)  # a "request" holds one block
        assert cache.insert(np.arange(12)) == 1  # only one block left
        assert pool.blocks_free == 0


class TestKVMode:
    def test_copy_into_round_trips_kv(self):
        pool, slot, (k, v) = seeded_pool(tokens=16)
        cache = kv_cache(block=4)
        assert cache.insert(np.arange(16), source=pool, slot=slot) == 4
        match = cache.match(np.arange(20))
        assert match.tokens == 16
        dest = pool.acquire()
        cache.copy_into(match, pool, dest)
        k_out, v_out = pool.export_span(dest, 0, 16)
        for layer in range(2):
            np.testing.assert_array_equal(k_out[layer], k[layer])
            np.testing.assert_array_equal(v_out[layer], v[layer])
        cache.release(match)

    def test_store_slot_refcounts_mirror_matches(self):
        pool, slot, _ = seeded_pool(tokens=8)
        cache = kv_cache(block=4)
        cache.insert(np.arange(8), source=pool, slot=slot)
        node = cache.match(np.arange(12)).path[0]
        base = cache.store.refcount(node.slot)
        m2 = cache.match(np.arange(12))
        assert cache.store.refcount(node.slot) == base + 1
        cache.release(m2)
        assert cache.store.refcount(node.slot) == base

    @settings(max_examples=25, deadline=None)
    @given(prompts=st.lists(
        st.lists(st.integers(0, 3), min_size=8, max_size=16),
        min_size=1, max_size=6), held_idx=st.integers(0, 5))
    def test_referenced_kv_never_corrupted(self, prompts, held_idx):
        """The shared-block safety property: while a match is held, its
        KV bytes survive arbitrary inserts and full-pressure evictions
        bit for bit.  The resident-block counter matches a tree walk
        after every insert and evict."""
        held_idx %= len(prompts)
        held_prompt = np.asarray(prompts[held_idx], dtype=np.int64)
        pool, slot, _ = seeded_pool(tokens=16, seed=3)
        cache = kv_cache(block=4, capacity=3)
        cache.insert(held_prompt[:16], source=pool, slot=slot)
        assert cache.num_blocks == len(cache._nodes())
        match = cache.match(np.concatenate([held_prompt, held_prompt]))
        if not match.hit:
            return
        before = pool.acquire()
        cache.copy_into(match, pool, before)
        expect = pool.export_span(before, 0, match.tokens)
        for p in prompts:  # churn: inserts force eviction pressure
            cache.insert(np.asarray(p, dtype=np.int64)[:16],
                         source=pool, slot=slot)
            assert cache.num_blocks == len(cache._nodes())
            cache.evict(100)
            assert cache.num_blocks == len(cache._nodes())
        for node in match.path:  # still resident, still referenced
            assert node.refcount >= 1
        after_slot = pool.acquire()
        cache.copy_into(match, pool, after_slot)
        got = pool.export_span(after_slot, 0, match.tokens)
        for layer in range(2):
            np.testing.assert_array_equal(got[0][layer], expect[0][layer])
            np.testing.assert_array_equal(got[1][layer], expect[1][layer])
        cache.release(match)


class TestCacheStats:
    def test_rates(self):
        stats = CacheStats(lookups=4, hits=3, hit_tokens=30,
                           lookup_tokens=60)
        assert stats.hit_rate == 0.75
        assert stats.token_hit_rate == 0.5
        assert CacheStats().hit_rate == 0.0

    def test_merged_sums_counters(self):
        a = CacheStats(lookups=2, hits=1, hit_tokens=8, lookup_tokens=20,
                       inserted_blocks=3, evictions=1, evicted_blocks=2)
        b = CacheStats(lookups=1, hits=1, hit_tokens=4, lookup_tokens=10)
        m = a.merged(b)
        assert (m.lookups, m.hits, m.hit_tokens) == (3, 2, 12)
        assert (m.inserted_blocks, m.evicted_blocks) == (3, 2)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="block_tokens"):
            RadixPrefixCache(block_tokens=0, capacity_blocks=4,
                             store_kv=False)
        with pytest.raises(ValueError, match="capacity_blocks"):
            RadixPrefixCache(block_tokens=4, capacity_blocks=0,
                             store_kv=False)


class TestSessionWorkloads:
    def test_deterministic(self, model):
        cfg = SessionWorkloadConfig(num_sessions=6, seed=7)
        a = synthesize_sessions(cfg, model.config)
        b = synthesize_sessions(cfg, model.config)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.prompt, rb.prompt)
            assert ra.arrival_time == rb.arrival_time
            assert ra.session_id == rb.session_id

    def test_turns_extend_history(self, model):
        reqs = synthesize_sessions(
            SessionWorkloadConfig(num_sessions=6, seed=1), model.config)
        by_session = {}
        for req in reqs:
            by_session.setdefault(req.session_id, []).append(req)
        multi = [turns for turns in by_session.values() if len(turns) > 1]
        assert multi, "expected at least one multi-turn session"
        for turns in multi:
            turns.sort(key=lambda r: r.arrival_time)
            for prev, cur in zip(turns, turns[1:]):
                assert cur.prompt.size > prev.prompt.size
                np.testing.assert_array_equal(
                    cur.prompt[:prev.prompt.size], prev.prompt)

    def test_system_prompts_are_shared(self, model):
        cfg = SessionWorkloadConfig(num_sessions=12,
                                    num_system_prompts=2, seed=0)
        reqs = synthesize_sessions(cfg, model.config)
        lo = cfg.system_prompt_len_range[0]
        heads = {tuple(r.prompt[:lo].tolist()) for r in reqs}
        assert len(heads) <= 2

    def test_arrival_order_and_ids(self, model):
        reqs = synthesize_sessions(
            SessionWorkloadConfig(num_sessions=8, seed=3), model.config)
        arrivals = [r.arrival_time for r in reqs]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in reqs] == list(range(len(reqs)))

    def test_prompts_fit_context_budget(self, model):
        reqs = synthesize_sessions(
            SessionWorkloadConfig(num_sessions=16, seed=5), model.config)
        for req in reqs:
            assert req.prompt.size + req.max_new_tokens \
                <= model.config.max_seq_len

    def test_diurnal_ramp_stays_deterministic(self, model):
        cfg = SessionWorkloadConfig(num_sessions=8, diurnal_amplitude=0.8,
                                    diurnal_period_s=10.0, seed=2)
        a = synthesize_sessions(cfg, model.config)
        b = synthesize_sessions(cfg, model.config)
        assert [r.arrival_time for r in a] == [r.arrival_time for r in b]

    def test_overflowing_first_turn_rejected(self, model):
        cfg = SessionWorkloadConfig(system_prompt_len_range=(60, 64))
        with pytest.raises(ValueError, match="exceeds"):
            synthesize_sessions(cfg, model.config)

    @pytest.mark.parametrize("kwargs", [
        {"num_sessions": 0},
        {"arrival_rate": 0.0},
        {"arrival_rate": float("inf")},
        {"arrival_rate": float("nan")},
        {"turns_range": (0, 3)},
        {"turns_range": (4, 2)},
        {"think_time_s": -1.0},
        {"num_system_prompts": 0},
        {"user_len_range": (0, 4)},
        {"output_len_range": (8, 4)},
        {"diurnal_amplitude": 1.5},
        {"diurnal_amplitude": -0.1},
        {"diurnal_period_s": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SessionWorkloadConfig(**kwargs)


class TestWorkloadValidation:
    @pytest.mark.parametrize("kwargs", [
        {"num_requests": 0},
        {"num_requests": -3},
        {"arrival_rate": 0.0},
        {"arrival_rate": -1.0},
        {"arrival_rate": float("inf")},
        {"prompt_len_range": (0, 8)},
        {"prompt_len_range": (9, 8)},
        {"output_len_range": (0, 4)},
    ])
    def test_rejects_degenerate_configs(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadConfig(**kwargs)

    def test_error_messages_name_the_field(self):
        with pytest.raises(ValueError, match="arrival_rate"):
            WorkloadConfig(arrival_rate=-2.0)
        with pytest.raises(ValueError, match="num_requests"):
            WorkloadConfig(num_requests=0)


def run_engine(model, requests, **config_kw):
    return ServingEngine(model, ServingConfig(**config_kw)).run(requests)


def session_requests(model, **kw):
    kw.setdefault("num_sessions", 8)
    kw.setdefault("arrival_rate", 50.0)
    kw.setdefault("think_time_s", 0.01)
    kw.setdefault("seed", 0)
    return synthesize_sessions(SessionWorkloadConfig(**kw), model.config)


class TestEngineIntegration:
    def test_cache_on_off_outputs_identical(self, model):
        on = run_engine(model, session_requests(model), prefix_cache=True)
        off = run_engine(model, session_requests(model))
        assert sorted(on.outputs) == sorted(off.outputs)
        for rid in on.outputs:
            np.testing.assert_array_equal(on.outputs[rid],
                                          off.outputs[rid])
        assert on.metrics.prefill_tokens_saved > 0
        assert on.metrics.cache_hit_rate > 0

    def test_cache_parity_under_chunked_prefill(self, model):
        on = run_engine(model, session_requests(model), prefix_cache=True,
                        prefill_chunk_tokens=8)
        off = run_engine(model, session_requests(model),
                         prefill_chunk_tokens=8)
        for rid in on.outputs:
            np.testing.assert_array_equal(on.outputs[rid],
                                          off.outputs[rid])
        assert on.metrics.prefill_tokens_saved > 0

    def test_cached_prefix_lowers_mean_ttft(self, model):
        on = run_engine(model, session_requests(model), prefix_cache=True)
        off = run_engine(model, session_requests(model))
        assert on.metrics.ttft_mean < off.metrics.ttft_mean

    def test_cache_survives_tiny_pool_pressure(self, model):
        # A pool small enough to force cache eviction / preemption
        # interplay must still complete every request correctly.
        reqs = session_requests(model, num_sessions=6)
        on = run_engine(model, session_requests(model, num_sessions=6),
                        prefix_cache=True, prefix_cache_blocks=4,
                        num_blocks=24, max_batch_size=2)
        off = run_engine(model, reqs, num_blocks=24, max_batch_size=2)
        assert on.metrics.num_requests == len(reqs)
        for rid in on.outputs:
            np.testing.assert_array_equal(on.outputs[rid],
                                          off.outputs[rid])

    def test_no_livelock_under_bursty_arrivals(self, model):
        # Regression: when every session arrives near-instantly and the
        # pool is tiny, a request that pinned its matched cache blocks
        # for its whole lifetime (on top of its private copy) would
        # double-count pool demand and admission could never converge.
        # The match must be released as soon as the KV is copied.
        reqs = session_requests(model, arrival_rate=1000.0)
        on = run_engine(model, session_requests(model, arrival_rate=1000.0),
                        prefix_cache=True, prefix_cache_blocks=8,
                        num_blocks=20, block_size=4)
        off = run_engine(model, reqs, num_blocks=20, block_size=4)
        assert on.metrics.num_requests == len(reqs)
        for rid in on.outputs:
            np.testing.assert_array_equal(on.outputs[rid],
                                          off.outputs[rid])

    def test_cache_events_reach_the_trace(self, model):
        result = run_engine(model, session_requests(model),
                            prefix_cache=True)
        cats = {e.category
                for lanes in result.lanes.values()
                for lane_events in lanes.values()
                for e in lane_events}
        assert "cache-hit" in cats and "cache-miss" in cats

    def test_iid_workload_barely_hits(self, model):
        # i.i.d. prompts share no structure: the cache must not invent
        # hits (and must not corrupt outputs either).
        wl = WorkloadConfig(num_requests=12, arrival_rate=2000.0, seed=0)
        reqs = synthesize_workload(wl, model.config)
        on = run_engine(model, synthesize_workload(wl, model.config),
                        prefix_cache=True)
        off = run_engine(model, reqs)
        for rid in on.outputs:
            np.testing.assert_array_equal(on.outputs[rid],
                                          off.outputs[rid])

    def test_config_knobs_validated(self):
        with pytest.raises(ValueError, match="prefix_cache_blocks"):
            ServingConfig(prefix_cache_blocks=0)


class TestClusterIntegration:
    def test_session_traffic_hits_replica_caches(self):
        config = preset("tiny-llama")
        reqs = synthesize_sessions(
            SessionWorkloadConfig(num_sessions=10, arrival_rate=200.0,
                                  think_time_s=0.005, seed=0), config)
        sim = ClusterSimulator(config, ClusterConfig(
            num_nodes=1, routing=RoutingConfig(policy="round-robin"),
            serving=ServingConfig(prefix_cache=True)))
        result = sim.run(reqs)
        assert result.metrics.num_requests == len(reqs)
        assert result.metrics.cache_lookups == len(reqs)
        assert result.metrics.prefill_tokens_saved > 0

    def test_cache_off_by_default(self):
        config = preset("tiny-llama")
        reqs = synthesize_sessions(
            SessionWorkloadConfig(num_sessions=4, seed=0), config)
        sim = ClusterSimulator(config, ClusterConfig(num_nodes=1))
        result = sim.run(reqs)
        assert result.metrics.cache_lookups == 0


class TestPerfRatchet:
    def base(self, speedups=(1.0, 2.0), overhead=1.5):
        return {
            "decode": [{"batch_size": b, "prompt_len": 32, "new_tokens": 16,
                        "speedup": s}
                       for b, s in zip((1, 8), speedups)],
            "prefill": {"overhead_ratio": overhead},
        }

    def test_identical_results_pass(self):
        assert compare_perf_baseline(self.base(), self.base()) == []

    def test_improvement_passes(self):
        assert compare_perf_baseline(self.base(speedups=(2.0, 4.0),
                                               overhead=1.0),
                                     self.base()) == []

    def test_decode_regression_fails(self):
        problems = compare_perf_baseline(self.base(speedups=(1.0, 1.0)),
                                         self.base())
        assert len(problems) == 1 and "batch 8" in problems[0]

    def test_prefill_regression_fails(self):
        problems = compare_perf_baseline(self.base(overhead=2.5),
                                         self.base())
        assert len(problems) == 1 and "prefill" in problems[0]

    def test_within_threshold_tolerated(self):
        assert compare_perf_baseline(self.base(speedups=(0.8, 1.6)),
                                     self.base()) == []

    def test_unknown_batch_sizes_ignored(self):
        results = {"decode": [{"batch_size": 32, "prompt_len": 32,
                               "new_tokens": 16, "speedup": 0.1}],
                   "prefill": {"overhead_ratio": 1.5}}
        assert compare_perf_baseline(results, self.base()) == []
        assert baseline_coverage(results, self.base()) == \
            {"decode": 0, "prefill": 1, "speculative": 0}

    def test_decode_rows_are_keyed_by_shape(self):
        """A speedup measured over fewer tokens is not compared with a
        full-length one."""
        results = self.base(speedups=(0.1, 0.1))
        for row in results["decode"]:
            row["new_tokens"] = 8
        assert compare_perf_baseline(results, self.base()) == []
        assert baseline_coverage(results, self.base())["decode"] == 0
        assert baseline_coverage(self.base(), self.base())["decode"] == 2

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_perf_baseline(self.base(), self.base(), threshold=0.0)
        with pytest.raises(ValueError, match="threshold"):
            compare_perf_baseline(self.base(), self.base(), threshold=1.0)


class TestLintMissingAll:
    RULES = resolve_rules("RPR004")

    def lint(self, source):
        return lint_source(source, "src/repro/serving/mod.py", self.RULES)

    def test_public_def_without_all_flagged(self):
        findings = self.lint("def run(x):\n    return x\n")
        assert any("no __all__" in f.message for f in findings)

    def test_declared_all_clean(self):
        assert self.lint("__all__ = ['run']\n\n"
                         "def run(x):\n    return x\n") == []

    def test_private_only_module_clean(self):
        assert self.lint("def _helper(x):\n    return x\n") == []

    def test_star_import_exempt(self):
        assert self.lint("from os.path import *\n\n"
                         "def run(x):\n    return x\n") == []


class TestCli:
    def test_serve_bench_sessions_compare_cache(self, capsys):
        assert main(["serve-bench", "--sessions", "4",
                     "--compare-cache"]) == 0
        out = capsys.readouterr().out
        assert "prefix cache hit rate" in out
        assert "outputs match" in out

    def test_cluster_bench_sessions_cache(self, capsys):
        assert main(["cluster-bench", "--smoke", "--model", "tiny-llama",
                     "--sessions", "4", "--prefix-cache",
                     "--policy", "round-robin"]) == 0
        out = capsys.readouterr().out
        assert "hit%" in out

    def test_perf_bench_baseline_regression_exits_nonzero(
            self, tmp_path, capsys):
        import json
        absurd = {"decode": [{"batch_size": b, "prompt_len": 32,
                              "new_tokens": 16, "speedup": 1000.0}
                             for b in (1, 2, 4, 8)],
                  "prefill": {"overhead_ratio": 1e-6}}
        path = tmp_path / "base.json"
        path.write_text(json.dumps(absurd))
        assert main(["perf-bench", "--smoke", "--output", "",
                     "--baseline", str(path)]) == 1
        assert "perf regression" in capsys.readouterr().out

    def test_perf_bench_baseline_missing_file_errors(self, tmp_path):
        assert main(["perf-bench", "--smoke", "--output", "",
                     "--baseline", str(tmp_path / "nope.json")]) == 2

    @staticmethod
    def fake_benches(monkeypatch, spec_speedup):
        """Swap the timed benches for ones that echo the requested sweep
        point with fixed ratios, so the ratchet logic runs untimed."""
        import repro.bench as bench

        def decode(model, batch_size, prompt_len, new_tokens, **_):
            return {"batch_size": batch_size, "prompt_len": prompt_len,
                    "new_tokens": new_tokens, "sequential_s": 1.0,
                    "batched_s": 0.001, "speedup": 1000.0,
                    "tokens_match": True}

        def prefill(model, prompt_len, chunk_tokens, **_):
            return {"prompt_len": prompt_len, "chunk_tokens": chunk_tokens,
                    "num_chunks": 3, "monolithic_s": 1.0, "chunked_s": 1.0,
                    "overhead_ratio": 1e-6, "tokens_match": True}

        def spec(model, k, temperature, batch_size, prompt_len,
                 new_tokens, **_):
            return {"k": k, "temperature": temperature,
                    "batch_size": batch_size, "prompt_len": prompt_len,
                    "new_tokens": new_tokens, "plain_s": spec_speedup,
                    "spec_s": 1.0, "speedup": spec_speedup,
                    "acceptance_rate": 0.5,
                    "tokens_match": True if temperature == 0 else None}

        monkeypatch.setattr(bench, "bench_decode", decode)
        monkeypatch.setattr(bench, "bench_prefill", prefill)
        monkeypatch.setattr(bench, "bench_spec_decode", spec)

    def test_smoke_ratchet_sees_speculative_rows(self, monkeypatch,
                                                 capsys):
        """The CI smoke run must compare its speculative rows with the
        committed baseline: a 100x slowdown cannot pass."""
        baseline = str(Path(__file__).resolve().parent.parent
                       / "BENCH_decode.json")
        self.fake_benches(monkeypatch, spec_speedup=0.01)
        assert main(["perf-bench", "--smoke", "--spec-decode",
                     "--output", "", "--baseline", baseline]) == 1
        out = capsys.readouterr().out
        assert "perf regression" in out
        assert "spec k=2 T=0: speedup 0.01x" in out
        assert "4 decode row(s)" in out and "4 speculative row(s)" in out
        self.fake_benches(monkeypatch, spec_speedup=1000.0)
        assert main(["perf-bench", "--smoke", "--spec-decode",
                     "--output", "", "--baseline", baseline]) == 0

    def test_uncompared_kind_fails_the_ratchet(self, tmp_path, monkeypatch,
                                               capsys):
        import json
        self.fake_benches(monkeypatch, spec_speedup=1.0)
        path = tmp_path / "base.json"
        path.write_text(json.dumps({
            "decode": [{"batch_size": 1, "prompt_len": 32,
                        "new_tokens": 99, "speedup": 1.0}]}))
        assert main(["perf-bench", "--smoke", "--output", "",
                     "--baseline", str(path)]) == 1
        out = capsys.readouterr().out
        assert "0 decode row(s)" in out
        assert "decode: no row matches a baseline sweep point" in out
