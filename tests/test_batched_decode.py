"""Tests for the batched decode path: packed KV pool, single-forward
decode steps, chunked prefill, and the engine rewiring on top of them.

The correctness bar is bit-exactness against the sequential per-request
``_forward_cached`` path: the exact (non-flash) kernel stacks only rows
of equal context length, so its matmul shapes match the sequential ones
exactly, and logits must be bitwise identical; the flash decode kernel
reassociates the softmax, so there the bar is token parity.
"""

import json

import numpy as np
import pytest

from repro.models import (GPTModel, KVCache, ModelConfig, PackedKVPool,
                          PackedSlotCache, preset)
from repro.serving import (DecodeCostModel, Request, ServingConfig,
                           ServingEngine)


def tiny_config(arch="llama", kv_heads=None, flash=0):
    return ModelConfig(arch=arch, hidden_size=64, num_layers=2,
                       num_heads=4, num_kv_heads=kv_heads, vocab_size=512,
                       max_seq_len=64, flash_attention=flash,
                       name=f"tiny-{arch}-kv{kv_heads}-f{flash}")


def ragged_prompts(config, lengths=(5, 9, 13, 7), seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, config.vocab_size, size=n) for n in lengths]


def sequential_reference(model, prompts, new_tokens):
    """Per-request cached decode: the pre-batching ground truth."""
    tokens, logits_hist = [], []
    for prompt in prompts:
        caches = [KVCache() for _ in model.layers]
        logits = model._forward_cached(prompt[None], caches)
        out = [int(logits.data[0, -1].argmax())]
        hist = []
        for _ in range(new_tokens - 1):
            step = np.array([[out[-1]]], dtype=np.int64)
            logits = model._forward_cached(step, caches)
            hist.append(logits.data[0, -1].copy())
            out.append(int(logits.data[0, -1].argmax()))
        tokens.append(out)
        logits_hist.append(hist)
    return tokens, logits_hist


def batched_decode(model, prompts, new_tokens):
    """Pool-backed decode: prefill into slots, then batched steps."""
    pool = PackedKVPool.for_model(model.config, num_slots=len(prompts))
    slots, tokens = [], []
    for prompt in prompts:
        slot = pool.acquire()
        logits = model._forward_cached(prompt[None],
                                       pool.slot_caches(slot))
        slots.append(slot)
        tokens.append([int(logits.data[0, -1].argmax())])
    logits_hist = [[] for _ in prompts]
    for _ in range(new_tokens - 1):
        logits = model.decode_step_batched(
            np.array([t[-1] for t in tokens], dtype=np.int64), pool, slots)
        for i in range(len(prompts)):
            logits_hist[i].append(logits[i].copy())
            tokens[i].append(int(logits[i].argmax()))
    return tokens, logits_hist


class TestPackedKVPool:
    def test_acquire_release_cycle(self):
        pool = PackedKVPool(num_layers=2, num_kv_heads=4, head_dim=8,
                            num_slots=3, max_len=64)
        slots = [pool.acquire() for _ in range(3)]
        assert sorted(slots) == [0, 1, 2]
        assert pool.slots_in_use == 3
        with pytest.raises(RuntimeError):
            pool.acquire()
        pool.release(slots[1])
        assert pool.slots_in_use == 2
        assert pool.acquire() == slots[1]

    def test_release_unleased_slot_raises(self):
        pool = PackedKVPool(num_layers=1, num_kv_heads=2, head_dim=4,
                            num_slots=2, max_len=16)
        with pytest.raises(ValueError):
            pool.release(0)

    def test_release_zeroes_lengths(self):
        pool = PackedKVPool(num_layers=1, num_kv_heads=2, head_dim=4,
                            num_slots=1, max_len=16)
        slot = pool.acquire()
        k = np.ones((1, 2, 3, 4))
        pool.append(0, slot, k, k)
        assert pool.length(0, slot) == 3
        pool.release(slot)
        slot = pool.acquire()
        assert pool.length(0, slot) == 0

    def test_growth_rounds_to_block_multiple(self):
        pool = PackedKVPool(num_layers=1, num_kv_heads=1, head_dim=2,
                            num_slots=1, max_len=128, block_tokens=16)
        slot = pool.acquire()
        assert pool.k[0].shape[2] == 16
        k = np.zeros((1, 1, 17, 2))
        pool.append(0, slot, k, k)
        # 2*16=32 < 17 doubled-from? need=17, 2*cap=32 -> 32, already a
        # block multiple
        assert pool.k[0].shape[2] == 32
        assert pool.k[0].shape[2] % 16 == 0
        assert pool.grow_count == 1

    def test_growth_is_amortized(self):
        pool = PackedKVPool(num_layers=1, num_kv_heads=1, head_dim=2,
                            num_slots=1, max_len=512, block_tokens=4)
        slot = pool.acquire()
        k = np.zeros((1, 1, 1, 2))
        for _ in range(512):
            pool.append(0, slot, k, k)
        # Geometric doubling: O(log n) grows, not O(n).
        assert pool.grow_count <= 9

    def test_overflow_raises(self):
        pool = PackedKVPool(num_layers=1, num_kv_heads=1, head_dim=2,
                            num_slots=1, max_len=8)
        slot = pool.acquire()
        k = np.zeros((1, 1, 9, 2))
        with pytest.raises(ValueError):
            pool.append(0, slot, k, k)

    def test_memory_vs_capacity_bytes(self):
        pool = PackedKVPool(num_layers=1, num_kv_heads=2, head_dim=4,
                            num_slots=2, max_len=64, block_tokens=16)
        slot = pool.acquire()
        k = np.ones((1, 2, 3, 4))
        pool.append(0, slot, k, k)
        # Logical: 3 tokens * 2 (K+V) * 2 heads * 4 dim * 2 B.
        assert pool.memory_bytes() == 3 * 2 * 2 * 4 * 2
        # Physical: both slots' full capacity, regardless of use.
        assert pool.capacity_bytes() == 2 * 2 * 16 * 4 * 2 * 2

    def test_append_batched_matches_append(self):
        pool = PackedKVPool(num_layers=1, num_kv_heads=2, head_dim=4,
                            num_slots=2, max_len=16)
        ref = PackedKVPool(num_layers=1, num_kv_heads=2, head_dim=4,
                           num_slots=2, max_len=16)
        slots = [pool.acquire(), pool.acquire()]
        rslots = [ref.acquire(), ref.acquire()]
        rng = np.random.default_rng(0)
        for step in range(5):
            k = rng.standard_normal((2, 2, 1, 4))
            v = rng.standard_normal((2, 2, 1, 4))
            lengths = pool.append_batched(0, slots, k, v)
            for i, rslot in enumerate(rslots):
                ref.append(0, rslot, k[i:i + 1], v[i:i + 1])
            assert list(lengths) == [step + 1, step + 1]
        k_b, v_b = pool.gather(0, slots, 5)
        k_r, v_r = ref.gather(0, rslots, 5)
        np.testing.assert_array_equal(k_b, k_r)
        np.testing.assert_array_equal(v_b, v_r)

    def test_slot_caches_speak_kvcache_protocol(self):
        config = tiny_config()
        model = GPTModel(config, seed=0)
        pool = PackedKVPool.for_model(config, num_slots=1)
        slot = pool.acquire()
        caches = pool.slot_caches(slot)
        assert all(isinstance(c, PackedSlotCache) for c in caches)
        prompt = ragged_prompts(config, (6,))[0]
        logits_pool = model._forward_cached(prompt[None], caches)
        plain = [KVCache() for _ in model.layers]
        logits_ref = model._forward_cached(prompt[None], plain)
        np.testing.assert_array_equal(logits_pool.data, logits_ref.data)
        assert caches[0].length == 6
        assert caches[0].memory_bytes() == plain[0].memory_bytes()

    def test_for_model_uses_config_geometry(self):
        config = tiny_config(kv_heads=2)
        pool = PackedKVPool.for_model(config, num_slots=4)
        assert len(pool.k) == config.num_layers
        assert pool.k[0].shape[0] == 4
        assert pool.k[0].shape[1] == 2
        assert pool.max_len == config.max_seq_len


class TestKVCacheGrowth:
    def test_geometric_capacity(self):
        cache = KVCache()
        k = np.zeros((1, 2, 1, 4))
        grows = 0
        last_cap = 0
        for _ in range(100):
            cache.append(k, k)
            if cache.capacity != last_cap:
                grows += 1
                last_cap = cache.capacity
        assert cache.length == 100
        assert cache.capacity >= 100
        assert grows <= 9

    def test_views_expose_logical_length(self):
        cache = KVCache()
        rng = np.random.default_rng(0)
        chunks = [rng.standard_normal((1, 2, n, 4)) for n in (3, 1, 5)]
        for chunk in chunks:
            k_view, v_view = cache.append(chunk, chunk)
        full = np.concatenate(chunks, axis=2)
        np.testing.assert_array_equal(k_view, full)
        np.testing.assert_array_equal(v_view, full)

    def test_memory_bytes_is_logical_capacity_physical(self):
        cache = KVCache()
        k = np.zeros((1, 2, 3, 4))
        cache.append(k, k)
        logical = 2 * 2 * 2 * 3 * 4  # fp16 * K+V * heads * len * dim
        assert cache.memory_bytes() == logical
        assert cache.capacity_bytes() >= logical


@pytest.mark.parametrize("arch", ["neox", "llama"])
@pytest.mark.parametrize("kv_heads", [None, 2])
@pytest.mark.parametrize("flash", [0, 1])
class TestBatchedDecodeParity:
    def test_tokens_match_sequential(self, arch, kv_heads, flash):
        config = tiny_config(arch, kv_heads, flash)
        model = GPTModel(config, seed=0)
        # Distinct context lengths, then partly repeated ones: every step
        # of the second batch attends a lone row (13) next to stacked
        # groups (5, 5 and 9, 9) in one forward.
        for lengths in ((5, 9, 13, 7), (5, 9, 5, 13, 9)):
            prompts = ragged_prompts(config, lengths)
            ref_tokens, ref_logits = sequential_reference(model, prompts, 6)
            bat_tokens, bat_logits = batched_decode(model, prompts, 6)
            assert bat_tokens == ref_tokens
            if not flash:
                # Exact standard kernel: bitwise, not approx.
                for ref_hist, bat_hist in zip(ref_logits, bat_logits):
                    for ref_row, bat_row in zip(ref_hist, bat_hist):
                        np.testing.assert_array_equal(bat_row, ref_row)


def test_same_length_batch_single_group():
    """Uniform contexts stack into one group, still bitwise."""
    config = tiny_config("llama", 2, 0)
    model = GPTModel(config, seed=0)
    prompts = ragged_prompts(config, (8, 8, 8))
    ref_tokens, ref_logits = sequential_reference(model, prompts, 5)
    bat_tokens, bat_logits = batched_decode(model, prompts, 5)
    assert bat_tokens == ref_tokens
    for ref_hist, bat_hist in zip(ref_logits, bat_logits):
        for ref_row, bat_row in zip(ref_hist, bat_hist):
            np.testing.assert_array_equal(bat_row, ref_row)


@pytest.mark.parametrize("arch", ["neox", "llama"])
def test_chunked_prefill_bitwise(arch):
    """Block-aligned chunks reproduce monolithic prefill bit-for-bit."""
    config = tiny_config(arch)
    model = GPTModel(config, seed=0)
    prompt = ragged_prompts(config, (48,))[0]
    mono = [KVCache() for _ in model.layers]
    ref = model._forward_cached(prompt[None], mono)
    chunked = [KVCache() for _ in model.layers]
    for pos in range(0, 48, 16):
        logits = model._forward_cached(prompt[None, pos:pos + 16], chunked)
    np.testing.assert_array_equal(logits.data[0, -1], ref.data[0, -1])
    for mc, cc in zip(mono, chunked):
        np.testing.assert_array_equal(mc.k[:, :, :mc.length],
                                      cc.k[:, :, :cc.length])


def make_requests(config, specs):
    rng = np.random.default_rng(1)
    return [Request(request_id=i,
                    prompt=rng.integers(0, config.vocab_size, size=plen),
                    max_new_tokens=new, arrival_time=at)
            for i, (plen, new, at) in enumerate(specs)]


class TestEngineBatched:
    def test_engine_matches_generate(self):
        config = preset("tiny-llama")
        model = GPTModel(config, seed=0)
        requests = make_requests(
            config, [(5, 6, 0.0), (9, 4, 0.0005), (13, 5, 0.001),
                     (7, 6, 0.0015), (11, 3, 0.002)])
        engine = ServingEngine(model, ServingConfig(max_batch_size=4))
        result = engine.run(requests)
        for req in requests:
            expected = model.generate(req.prompt, req.max_new_tokens,
                                      use_cache=True)
            assert req.output == list(expected[req.prompt_len:])
        assert result.metrics.num_requests == len(requests)

    def test_chunked_outputs_equal_monolithic(self):
        config = preset("tiny-llama")
        model = GPTModel(config, seed=0)
        specs = [(5, 6, 0.0), (9, 4, 0.0005), (13, 5, 0.001),
                 (7, 6, 0.0015)]
        mono = ServingEngine(model, ServingConfig(max_batch_size=4))
        mono_result = mono.run(make_requests(config, specs))
        chunked = ServingEngine(model, ServingConfig(
            max_batch_size=4, prefill_chunk_tokens=4))
        chunk_result = chunked.run(make_requests(config, specs))
        assert sorted(chunk_result.outputs) == sorted(mono_result.outputs)
        for rid, tokens in mono_result.outputs.items():
            np.testing.assert_array_equal(chunk_result.outputs[rid],
                                          tokens)

    def test_billed_time_matches_executed_shape(self):
        """Every decode step is billed at the batch shape it ran."""
        config = preset("tiny-llama")
        calls = []

        class SpyCost(DecodeCostModel):
            def decode_step_time(self, batch_size, total_context_tokens):
                calls.append((batch_size, total_context_tokens))
                return super().decode_step_time(batch_size,
                                                total_context_tokens)

        model = GPTModel(config, seed=0)
        engine = ServingEngine(model, ServingConfig(max_batch_size=4),
                               cost_model=SpyCost(config))
        result = engine.run(make_requests(
            config, [(5, 6, 0.0), (9, 4, 0.0005), (13, 5, 0.001)]))
        assert calls, "decode steps must be billed through the cost model"
        # No phantom batches: every billed shape had real survivors.
        assert all(b >= 1 and ctx >= b for b, ctx in calls)
        # Each billed slot produced exactly one token; the first token of
        # every request comes from prefill, not a decode step.
        decode_tokens = sum(rec.output_len - 1 for rec in result.records)
        assert sum(b for b, _ in calls) == decode_tokens

    def test_pool_slots_recycled(self):
        config = preset("tiny-llama")
        model = GPTModel(config, seed=0)
        engine = ServingEngine(model, ServingConfig(max_batch_size=2))
        engine.run(make_requests(
            config, [(5, 3, 0.0), (6, 3, 0.001), (7, 3, 0.002),
                     (8, 3, 0.003), (9, 3, 0.004)]))
        assert engine.packed.slots_in_use == 0


class TestChunkedPrefillTTFT:
    def test_chunking_bounds_late_short_ttft(self):
        """A long prompt must not head-of-line block later shorts.

        Executes a tiny model (fast) but bills with the default big
        model's cost (compute-bound prefill), via the cost-model
        injection seam.  With monolithic prefill the long prompt's
        whole prefill lands ahead of the late shorts; with chunked
        prefill the shorts' chunks preempt it (SRPT), so their TTFT
        stays below one long-prefill time.
        """
        exec_config = ModelConfig(arch="llama", hidden_size=64,
                                  num_layers=2, num_heads=4,
                                  vocab_size=512, max_seq_len=2048,
                                  name="tiny-long")
        bill = DecodeCostModel(ModelConfig())
        model = GPTModel(exec_config, seed=0)
        specs = [(16, 2, 0.0), (1024, 2, 0.001), (16, 2, 0.002),
                 (16, 2, 0.003), (16, 2, 0.004)]

        def run(chunk):
            engine = ServingEngine(model, ServingConfig(
                max_batch_size=8, max_batch_tokens=8192,
                prefill_chunk_tokens=chunk),
                cost_model=DecodeCostModel(ModelConfig()))
            return engine.run(make_requests(exec_config, specs))

        mono, chunked = run(None), run(256)
        for rid, tokens in mono.outputs.items():
            np.testing.assert_array_equal(chunked.outputs[rid], tokens)

        def late_short_ttfts(result):
            return [rec.ttft for rec in result.records
                    if rec.prompt_len == 16 and rec.arrival > 0.001]

        long_prefill = bill.prefill_time(1024)
        assert max(late_short_ttfts(chunked)) < long_prefill
        assert max(late_short_ttfts(mono)) >= long_prefill

    def test_chunked_prefill_time_adds_kv_reread(self):
        cost = DecodeCostModel(ModelConfig())
        base = cost.prefill_time(256)
        assert cost.chunked_prefill_time(256, 0) == base
        assert cost.chunked_prefill_time(256, 512) > base
        with pytest.raises(ValueError):
            cost.chunked_prefill_time(0)
        with pytest.raises(ValueError):
            cost.chunked_prefill_time(16, -1)

    def test_config_validates_chunk(self):
        with pytest.raises(ValueError):
            ServingConfig(prefill_chunk_tokens=0)
        assert ServingConfig(prefill_chunk_tokens=None) \
            .prefill_chunk_tokens is None


class TestPerfBenchCLI:
    def test_smoke_writes_json(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "bench.json"
        code = main(["perf-bench", "--smoke", "--batch-sizes", "1,2",
                     "--prompt", "8", "--tokens", "4",
                     "--prefill-len", "16", "--chunk", "8",
                     "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert [row["batch_size"] for row in data["decode"]] == [1, 2]
        assert all(row["tokens_match"] for row in data["decode"])
        assert data["prefill"]["tokens_match"]
        assert {"python", "numpy", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "cpu_count"} <= set(data["environment"])
        assert "speedup" in capsys.readouterr().out
