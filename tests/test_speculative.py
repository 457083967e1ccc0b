"""Tests for speculative decoding: batched verification, rejection
sampling, rollback via pool truncation, and the engine integration.

The correctness bar mirrors the batched-decode one: the verification
forward always runs the exact kernel, so its argmax matches per-request
sequential ``_forward_cached`` decoding across NeoX/LLaMA, GQA, and
flash configs (and each stacked row is bitwise equal to verifying it
alone) — which makes greedy speculative output bitwise equal to plain
greedy decoding no matter how bad the draft proposals are.  Sampled
speculative output matches the warped target distribution (seeded
statistical test).
"""

import numpy as np
import pytest

from repro.models import (GPTModel, KVCache, ModelConfig, PackedKVPool,
                          preset)
from repro.models.speculative import (DRAFT_SOURCES, ModelDraft, NGramDraft,
                                      SamplingParams, accept_tokens,
                                      draft_model_config, request_rng,
                                      spec_decode_step, warp_probs)
from repro.serving import (Request, ServingConfig, ServingEngine,
                           SpecDecodeConfig)


def tiny_config(arch="llama", kv_heads=None, flash=0):
    return ModelConfig(arch=arch, hidden_size=64, num_layers=2,
                       num_heads=4, num_kv_heads=kv_heads, vocab_size=512,
                       max_seq_len=64, flash_attention=flash,
                       name=f"tiny-{arch}-kv{kv_heads}-f{flash}")


def make_requests(config, n=5, tokens=10, seed=2, **kw):
    rng = np.random.default_rng(seed)
    return [Request(request_id=i,
                    prompt=rng.integers(0, config.vocab_size,
                                        size=int(rng.integers(6, 14))),
                    max_new_tokens=tokens, arrival_time=0.001 * i, **kw)
            for i in range(n)]


@pytest.mark.parametrize("arch", ["neox", "llama"])
@pytest.mark.parametrize("kv_heads", [None, 2])
@pytest.mark.parametrize("flash", [0, 1])
class TestVerifyBatched:
    def test_matches_sequential_steps(self, arch, kv_heads, flash):
        """verify_step_batched == one-token-at-a-time _forward_cached.

        Logits agree to accumulation-order noise (the verify window is
        one matmul over k+1 rows) and argmax agrees exactly — even for
        flash configs, because verification always uses the exact
        kernel (flash_decode_forward reassociates the softmax, which
        would break the greedy-parity guarantee tested below).  The
        second batch's contexts (5, 9, 5) stack two rows and attend one
        alone in the same forward.
        """
        config = tiny_config(arch, kv_heads, flash)
        model = GPTModel(config, seed=0)
        for lengths in ((5, 9, 13), (5, 9, 5)):
            rng = np.random.default_rng(1)
            prompts = [rng.integers(0, config.vocab_size, size=n)
                       for n in lengths]
            span = 4
            blocks = rng.integers(0, config.vocab_size,
                                  size=(len(prompts), span))

            pool = PackedKVPool.for_model(config, num_slots=len(prompts),
                                          block_tokens=16)
            slots = []
            for prompt in prompts:
                slot = pool.acquire()
                model._forward_cached(prompt[None], pool.slot_caches(slot))
                slots.append(slot)
            batched = model.verify_step_batched(blocks, pool, slots)

            for i, prompt in enumerate(prompts):
                caches = [KVCache() for _ in model.layers]
                model._forward_cached(prompt[None], caches)
                for j in range(span):
                    step = np.array([[blocks[i, j]]], dtype=np.int64)
                    logits = model._forward_cached(step, caches)
                    np.testing.assert_allclose(batched[i, j],
                                               logits.data[0, -1],
                                               rtol=1e-9, atol=1e-12)
                    assert int(batched[i, j].argmax()) \
                        == int(logits.data[0, -1].argmax())
                # The pool holds prompt + span positions afterwards.
                assert pool.length(0, slots[i]) == prompt.size + span

    def test_stacked_rows_bitwise_equal_own_forward(self, arch, kv_heads,
                                                    flash):
        """Each row of a stacked verify is bit-identical to verifying
        that row alone over its own pool."""
        config = tiny_config(arch, kv_heads, flash)
        model = GPTModel(config, seed=0)
        rng = np.random.default_rng(2)
        prompts = [rng.integers(0, config.vocab_size, size=n)
                   for n in (5, 9, 5)]
        blocks = rng.integers(0, config.vocab_size, size=(3, 4))

        def verify(rows):
            pool = PackedKVPool.for_model(config, num_slots=len(rows))
            slots = []
            for i in rows:
                slot = pool.acquire()
                model._forward_cached(prompts[i][None],
                                      pool.slot_caches(slot))
                slots.append(slot)
            return model.verify_step_batched(blocks[rows], pool, slots)

        stacked = verify([0, 1, 2])
        for i in range(3):
            np.testing.assert_array_equal(stacked[i], verify([i])[0])


@pytest.mark.parametrize("arch", ["neox", "llama"])
@pytest.mark.parametrize("kv_heads", [None, 2])
@pytest.mark.parametrize("flash", [0, 1])
@pytest.mark.parametrize("draft", DRAFT_SOURCES)
class TestGreedyEngineParity:
    def test_spec_outputs_bitwise_equal_plain(self, arch, kv_heads, flash,
                                              draft):
        """Greedy spec == greedy plain for every arch/GQA/flash/draft."""
        config = tiny_config(arch, kv_heads, flash)
        model = GPTModel(config, seed=0)
        plain = ServingEngine(model, ServingConfig(
            num_blocks=64, block_size=8,
            max_batch_size=4)).run(make_requests(config))
        spec = ServingEngine(model, ServingConfig(
            num_blocks=64, block_size=8, max_batch_size=4,
            spec_decode=SpecDecodeConfig(k=3, draft=draft))).run(
                make_requests(config))
        assert sorted(plain.outputs) == sorted(spec.outputs)
        for i in plain.outputs:
            np.testing.assert_array_equal(plain.outputs[i],
                                          spec.outputs[i])
        assert spec.metrics.spec_steps > 0
        assert spec.metrics.draft_proposed > 0


class TestAcceptTokens:
    VOCAB = 8

    def _logits(self, argmaxes):
        rows = np.zeros((len(argmaxes), self.VOCAB))
        for j, a in enumerate(argmaxes):
            rows[j, a] = 5.0
        return rows

    def test_greedy_all_accepted_gets_bonus(self):
        logits = self._logits([3, 4, 5, 6])
        emitted, accepted = accept_tokens(
            logits, np.array([3, 4, 5]), [None] * 3, SamplingParams(),
            None, limit=10, eos_id=None)
        assert emitted == [3, 4, 5, 6] and accepted == 3

    def test_greedy_first_mismatch_emits_target_argmax(self):
        logits = self._logits([3, 4, 5, 6])
        emitted, accepted = accept_tokens(
            logits, np.array([3, 7, 5]), [None] * 3, SamplingParams(),
            None, limit=10, eos_id=None)
        assert emitted == [3, 4] and accepted == 1

    def test_limit_clips_emissions(self):
        logits = self._logits([3, 4, 5, 6])
        emitted, accepted = accept_tokens(
            logits, np.array([3, 4, 5]), [None] * 3, SamplingParams(),
            None, limit=2, eos_id=None)
        assert emitted == [3, 4]

    def test_eos_stops_emission(self):
        logits = self._logits([3, 4, 5, 6])
        emitted, accepted = accept_tokens(
            logits, np.array([3, 4, 5]), [None] * 3, SamplingParams(),
            None, limit=10, eos_id=4)
        assert emitted == [3, 4]

    def test_sampled_requires_rng(self):
        logits = self._logits([3, 4])
        with pytest.raises(ValueError, match="rng"):
            accept_tokens(logits, np.array([3]), [None],
                          SamplingParams(temperature=1.0), None,
                          limit=10, eos_id=None)


class TestNGramDraft:
    def test_proposes_continuation_of_last_ngram(self):
        draft = NGramDraft(n=3)
        # ...1 2 3 4 5... earlier, context ends in 1 2 3 -> propose 4 5.
        ctx = np.array([9, 1, 2, 3, 4, 5, 7, 1, 2, 3], dtype=np.int64)
        proposals, q = draft.propose([0], [ctx], 2, [SamplingParams()],
                                     [None])
        np.testing.assert_array_equal(proposals[0], [4, 5])
        assert q == [None]

    def test_no_match_falls_back(self):
        draft = NGramDraft(n=3)
        ctx = np.arange(8, dtype=np.int64)
        proposals, _ = draft.propose([0], [ctx], 3, [SamplingParams()],
                                     [None])
        assert proposals[0].shape == (3,)  # padded, never empty

    def test_most_recent_occurrence_wins(self):
        draft = NGramDraft(n=2)
        #     [1 2] -> 5 early,  [1 2] -> 9 later: later wins.
        ctx = np.array([1, 2, 5, 1, 2, 9, 4, 1, 2], dtype=np.int64)
        proposals, _ = draft.propose([0], [ctx], 1, [SamplingParams()],
                                     [None])
        assert proposals[0][0] == 9


class TestTruncate:
    def _pool(self):
        pool = PackedKVPool(num_layers=1, num_kv_heads=2, head_dim=4,
                            num_slots=2, max_len=16, block_tokens=8)
        slot = pool.acquire()
        k = np.ones((1, 2, 6, 4))
        v = 2 * np.ones((1, 2, 6, 4))
        pool.append(0, slot, k, v)
        return pool, slot

    def test_truncate_shrinks_and_zeroes_tail(self):
        pool, slot = self._pool()
        pool.truncate(slot, 4)
        assert pool.length(0, slot) == 4
        k, v = pool.gather(0, [slot], 6)
        assert not k[0, :, 4:].any() and not v[0, :, 4:].any()
        assert k[0, :, :4].all()

    def test_truncate_refuses_unleased_slot(self):
        pool, slot = self._pool()
        pool.release(slot)
        with pytest.raises(ValueError, match="leased"):
            pool.truncate(slot, 2)

    def test_truncate_refuses_shared_slot(self):
        pool, slot = self._pool()
        pool.retain(slot)
        with pytest.raises(ValueError, match="shared"):
            pool.truncate(slot, 2)
        pool.release(slot)
        pool.truncate(slot, 2)  # sole holder again: fine

    def test_truncate_range_checked(self):
        pool, slot = self._pool()
        with pytest.raises(ValueError):
            pool.truncate(slot, 7)
        with pytest.raises(ValueError):
            pool.truncate(slot, -1)

    def test_kvcache_truncate(self):
        cache = KVCache()
        cache.append(np.ones((1, 2, 6, 4)), np.ones((1, 2, 6, 4)))
        cache.truncate(3)
        assert cache.length == 3
        with pytest.raises(ValueError):
            cache.truncate(10)


class TestRollbackInvariant:
    def test_slot_length_matches_emissions(self):
        """After a spec step, slot i holds pre_len + len(emitted)."""
        config = tiny_config()
        model = GPTModel(config, seed=0)
        rng = np.random.default_rng(4)
        prompts = [rng.integers(0, config.vocab_size, size=8)
                   for _ in range(3)]
        pool = PackedKVPool.for_model(config, num_slots=3,
                                      block_tokens=16)
        slots, outputs = [], []
        for prompt in prompts:
            slot = pool.acquire()
            logits = model._forward_cached(prompt[None],
                                           pool.slot_caches(slot))
            slots.append(slot)
            outputs.append([int(logits.data[0, -1].argmax())])
        draft = NGramDraft()
        for _ in range(4):
            contexts = [np.concatenate([prompts[i],
                                        np.asarray(outputs[i])])
                        for i in range(3)]
            results = spec_decode_step(
                model, pool, slots, draft, contexts,
                [SamplingParams()] * 3, [None] * 3, 3, [100] * 3,
                [None] * 3)
            for i, (emitted, _) in enumerate(results):
                pre = prompts[i].size + len(outputs[i]) - 1
                outputs[i].extend(emitted)
                for layer in range(config.num_layers):
                    assert pool.length(layer, slots[i]) \
                        == pre + len(emitted)


@pytest.mark.parametrize("draft", DRAFT_SOURCES)
class TestSampledDistribution:
    def test_first_emission_matches_warped_target(self, draft):
        """Spec-sampled tokens follow the warped target distribution.

        Total-variation distance between ~2k speculative first
        emissions and the *exact* warped next-token distribution, with
        top_k shrinking the support so the test has power.
        """
        config = tiny_config()
        model = GPTModel(config, seed=3)
        batch, rounds, k = 24, 80, 3
        params = SamplingParams(temperature=0.9, top_k=8)
        rng = np.random.default_rng(5)
        prompt = rng.integers(0, config.vocab_size, size=12)

        caches = [KVCache() for _ in model.layers]
        logits = model._forward_cached(prompt[None], caches)
        t0 = int(logits.data[0, -1].argmax())
        logits = model._forward_cached(np.array([[t0]], dtype=np.int64),
                                       caches)
        target = warp_probs(logits.data[0, -1], params)

        pool = PackedKVPool.for_model(config, num_slots=batch,
                                      block_tokens=16)
        slots = []
        for _ in range(batch):
            slot = pool.acquire()
            model._forward_cached(prompt[None], pool.slot_caches(slot))
            slots.append(slot)
        if draft == "ngram":
            proposer = NGramDraft()
        else:
            proposer = ModelDraft(
                GPTModel(draft_model_config(config, num_layers=1),
                         seed=7), num_slots=batch, block_tokens=16)
        keys = list(range(batch))
        context = np.concatenate([prompt, [t0]]).astype(np.int64)
        for key in keys:
            proposer.start(key, prompt)
        counts = np.zeros(config.vocab_size)
        for r in range(rounds):
            rngs = [request_rng(10_000 + r * batch + i)
                    for i in range(batch)]
            results = spec_decode_step(
                model, pool, slots, proposer, [context] * batch,
                [params] * batch, rngs, k, [1] * batch, [None] * batch,
                keys=keys)
            for emitted, _ in results:
                counts[emitted[0]] += 1
            # Rewind every slot (and the draft) to the shared prefix so
            # the next round samples the same conditional distribution.
            for slot in slots:
                pool.truncate(slot, prompt.size)
            proposer.sync(keys, [0] * batch, [prompt.size] * batch)
        empirical = counts / counts.sum()
        tv = 0.5 * np.abs(empirical - target).sum()
        assert tv < 0.05, f"TV distance {tv:.4f} vs warped target"


class TestSpecEngineUnderPressure:
    def test_tight_pool_keeps_greedy_parity(self):
        """Preemptions + the degrade-to-plain guard preserve outputs."""
        config = tiny_config()
        model = GPTModel(config, seed=0)
        plain = ServingEngine(model, ServingConfig(
            num_blocks=256, block_size=8, max_batch_size=4)).run(
                make_requests(config, tokens=16))
        tight = ServingEngine(model, ServingConfig(
            num_blocks=12, block_size=8, max_batch_size=4,
            spec_decode=SpecDecodeConfig(k=4, draft="ngram"))).run(
                make_requests(config, tokens=16))
        assert tight.metrics.preemptions > 0
        for i in plain.outputs:
            np.testing.assert_array_equal(plain.outputs[i],
                                          tight.outputs[i])

    def test_metrics_and_trace_record_acceptance(self):
        config = tiny_config()
        model = GPTModel(config, seed=0)
        result = ServingEngine(model, ServingConfig(
            num_blocks=64, block_size=8, max_batch_size=4,
            spec_decode=SpecDecodeConfig(k=3, draft="ngram"))).run(
                make_requests(config))
        m = result.metrics
        assert m.spec_steps > 0
        assert m.draft_proposed >= m.draft_accepted >= 0
        assert m.acceptance_rate == pytest.approx(
            m.draft_accepted / m.draft_proposed)
        stages = {e.name.split("/", 1)[1]
                  for lane in result.lanes["engine"].values()
                  for e in lane if "/" in e.name}
        assert stages & {"spec-accept", "spec-reject"}
        rows = dict(m.rows())
        assert "speculative steps" in rows

    def test_spec_off_metrics_stay_zero(self):
        config = tiny_config()
        model = GPTModel(config, seed=0)
        result = ServingEngine(model, ServingConfig(
            num_blocks=64, block_size=8, max_batch_size=4)).run(
                make_requests(config))
        assert result.metrics.spec_steps == 0
        assert result.metrics.acceptance_rate == 0.0
        assert "speculative steps" not in dict(result.metrics.rows())


class TestSpecDecodeConfig:
    def test_validates(self):
        with pytest.raises(ValueError):
            SpecDecodeConfig(k=0)
        with pytest.raises(ValueError):
            SpecDecodeConfig(draft="oracle")
        with pytest.raises(ValueError):
            SpecDecodeConfig(acceptance=1.5)

    def test_draft_config_shares_vocab(self):
        config = preset("tiny-llama")
        draft = draft_model_config(config, num_layers=1)
        assert draft.vocab_size == config.vocab_size
        assert draft.max_seq_len == config.max_seq_len
        assert draft.num_layers == 1

    def test_cluster_requires_acceptance(self):
        from repro.serving import ClusterConfig, ClusterSimulator
        config = preset("small-llama")
        bad = ClusterConfig(num_nodes=1, serving=ServingConfig(
            spec_decode=SpecDecodeConfig(k=4)))
        with pytest.raises(ValueError, match="acceptance"):
            ClusterSimulator(config, bad)

    def test_cluster_spec_runs_and_counts(self):
        from repro.serving import (ClusterConfig, ClusterSimulator,
                                   WorkloadConfig, synthesize_workload)
        config = preset("small-llama")
        workload = WorkloadConfig(num_requests=24, arrival_rate=100.0,
                                  seed=3)
        spec = ClusterConfig(num_nodes=1, serving=ServingConfig(
            spec_decode=SpecDecodeConfig(k=4, acceptance=0.7)))
        result = ClusterSimulator(config, spec).run(
            synthesize_workload(workload, config))
        assert result.metrics.spec_steps > 0
        assert 0.0 < result.metrics.acceptance_rate <= 1.0
        # Output token counts are workload-determined, not spec-dependent.
        base = ClusterSimulator(config, ClusterConfig(num_nodes=1)).run(
            synthesize_workload(workload, config))
        assert result.metrics.total_output_tokens \
            == base.metrics.total_output_tokens
