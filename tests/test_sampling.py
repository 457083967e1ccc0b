"""Tests for per-request sampling through the serving stack.

The contract: ``sample_token`` is op-for-op identical to
``GPTModel._pick``, each request draws from its own seeded
``np.random.Generator`` (so a sampled run is reproducible across
restarts and across preemption — state capture preserves the emitted
prefix and rng position instead of recomputing), and turning sampling
on in ``WorkloadConfig`` does not shift the seeded arrival/length
draw stream.
"""

import numpy as np
import pytest

from repro.models import GPTModel, ModelConfig
from repro.models.speculative import (SamplingParams, request_rng,
                                      sample_token, warp_probs)
from repro.serving import (Request, SchedulerConfig, ServingConfig,
                           ServingEngine, WorkloadConfig, run_sequential,
                           synthesize_workload)
from repro.serving.kv_pool import KVPoolConfig, PagedKVPool
from repro.serving.scheduler import ContinuousBatchScheduler


def tiny_config(arch="llama", **kw):
    return ModelConfig(arch=arch, hidden_size=64, num_layers=2,
                       num_heads=4, vocab_size=512, max_seq_len=64,
                       name=f"tiny-{arch}", **kw)


def sampled_requests(config, n=6, tokens=16, temperature=0.9, top_k=16,
                     seed=7):
    rng = np.random.default_rng(seed)
    return [Request(request_id=i,
                    prompt=rng.integers(0, config.vocab_size,
                                        size=int(rng.integers(6, 14))),
                    max_new_tokens=tokens, arrival_time=0.001 * i,
                    temperature=temperature, top_k=top_k,
                    sampling_seed=1000 + i)
            for i in range(n)]


PARAM_GRID = [
    SamplingParams(temperature=0.7),
    SamplingParams(temperature=1.3, top_k=5),
    SamplingParams(temperature=0.9, top_p=0.8),
    SamplingParams(temperature=1.0, top_k=12, top_p=0.6),
    SamplingParams(),  # greedy
]


class TestSampleToken:
    @pytest.mark.parametrize("params", PARAM_GRID,
                             ids=lambda p: repr(p)[:40])
    def test_bit_identical_to_model_pick(self, params):
        """Same logits + same rng state => the exact same token."""
        rng = np.random.default_rng(0)
        for trial in range(20):
            logits = rng.normal(size=128) * 3.0
            a = sample_token(logits, params, request_rng(trial))
            b = GPTModel._pick(logits, params.temperature,
                               request_rng(trial), top_k=params.top_k,
                               top_p=params.top_p)
            assert a == b

    def test_greedy_ignores_rng(self):
        logits = np.array([0.1, 5.0, -2.0])
        assert sample_token(logits, SamplingParams(), None) == 1

    def test_sampling_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            sample_token(np.zeros(4), SamplingParams(temperature=1.0),
                         None)


class TestWarpProbs:
    def test_is_a_distribution(self):
        p = warp_probs(np.random.default_rng(1).normal(size=64),
                       SamplingParams(temperature=0.8))
        assert p.shape == (64,) and (p >= 0).all()
        assert p.sum() == pytest.approx(1.0)

    def test_top_k_limits_support(self):
        p = warp_probs(np.random.default_rng(2).normal(size=64),
                       SamplingParams(temperature=1.0, top_k=5))
        assert (p > 0).sum() <= 5

    def test_top_p_keeps_nucleus(self):
        logits = np.random.default_rng(3).normal(size=64)
        p = warp_probs(logits, SamplingParams(temperature=1.0, top_p=0.5))
        full = warp_probs(logits, SamplingParams(temperature=1.0))
        kept = p > 0
        # The nucleus is the smallest prefix of the sorted distribution
        # reaching top_p: it always contains the argmax and sums >= 0.5.
        assert kept[full.argmax()]
        assert full[kept].sum() >= 0.5

    def test_temperature_sharpens(self):
        logits = np.random.default_rng(4).normal(size=64)
        cold = warp_probs(logits, SamplingParams(temperature=0.25))
        hot = warp_probs(logits, SamplingParams(temperature=2.0))
        assert cold.max() > hot.max()


class TestRequestRng:
    def test_deterministic_and_distinct(self):
        a = request_rng(42).random(4)
        b = request_rng(42).random(4)
        c = request_rng(43).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_make_rng_matches_request_seed(self):
        req = Request(request_id=5, prompt=np.zeros(4, dtype=np.int64),
                      max_new_tokens=4, temperature=1.0,
                      sampling_seed=99)
        np.testing.assert_array_equal(req.make_rng().random(4),
                                      request_rng(99).random(4))
        no_seed = Request(request_id=5,
                          prompt=np.zeros(4, dtype=np.int64),
                          max_new_tokens=4, temperature=1.0)
        np.testing.assert_array_equal(no_seed.make_rng().random(4),
                                      request_rng(5).random(4))


class TestEngineSampling:
    def test_restart_determinism(self):
        """Two identical sampled runs emit identical tokens."""
        config = tiny_config()
        model = GPTModel(config, seed=0)
        serving = ServingConfig(num_blocks=64, block_size=8,
                                max_batch_size=4)
        first = ServingEngine(model, serving).run(
            sampled_requests(config))
        second = ServingEngine(model, serving).run(
            sampled_requests(config))
        assert sorted(first.outputs) == sorted(second.outputs)
        for i in first.outputs:
            np.testing.assert_array_equal(first.outputs[i],
                                          second.outputs[i])

    def test_batched_matches_sequential(self):
        """Batched sampled decode == the sequential generate baseline."""
        config = tiny_config()
        model = GPTModel(config, seed=0)
        serving = ServingConfig(num_blocks=64, block_size=8,
                                max_batch_size=4)
        batched = ServingEngine(model, serving).run(
            sampled_requests(config))
        sequential = run_sequential(model, sampled_requests(config),
                                    serving)
        for i in batched.outputs:
            np.testing.assert_array_equal(batched.outputs[i],
                                          sequential.outputs[i])

    def test_preemption_state_capture_preserves_outputs(self):
        """A starved pool forces preemptions; sampled outputs survive.

        Sampled requests cannot be replayed by recompute (the rng
        stream would be consumed twice), so preemption captures KV +
        emitted prefix + rng state and restores on re-admission.
        """
        config = tiny_config()
        model = GPTModel(config, seed=0)
        roomy = ServingEngine(model, ServingConfig(
            num_blocks=256, block_size=8, max_batch_size=4)).run(
                sampled_requests(config))
        starved = ServingEngine(model, ServingConfig(
            num_blocks=12, block_size=8, max_batch_size=4)).run(
                sampled_requests(config))
        assert roomy.metrics.preemptions == 0
        assert starved.metrics.preemptions > 0
        for i in roomy.outputs:
            np.testing.assert_array_equal(roomy.outputs[i],
                                          starved.outputs[i])

    def test_preemption_greedy_recompute_parity(self):
        """Greedy requests keep the legacy recompute path; same outputs."""
        config = tiny_config()
        model = GPTModel(config, seed=0)
        reqs = lambda: sampled_requests(config, temperature=0.0, top_k=0)
        roomy = ServingEngine(model, ServingConfig(
            num_blocks=256, block_size=8, max_batch_size=4)).run(reqs())
        starved = ServingEngine(model, ServingConfig(
            num_blocks=12, block_size=8, max_batch_size=4)).run(reqs())
        assert starved.metrics.preemptions > 0
        for i in roomy.outputs:
            np.testing.assert_array_equal(roomy.outputs[i],
                                          starved.outputs[i])


class TestWorkloadSampling:
    def test_sampling_does_not_shift_draw_stream(self):
        """temperature>0 must not consume extra rng draws.

        Sampling seeds are derived arithmetically from (seed, index),
        so the seeded arrival/prompt/length stream is bit-identical
        whether or not the workload samples.
        """
        config = tiny_config()
        greedy = synthesize_workload(
            WorkloadConfig(num_requests=12, seed=5), config)
        sampled = synthesize_workload(
            WorkloadConfig(num_requests=12, seed=5, temperature=0.8,
                           top_k=20), config)
        for g, s in zip(greedy, sampled):
            assert g.arrival_time == s.arrival_time
            assert g.max_new_tokens == s.max_new_tokens
            np.testing.assert_array_equal(g.prompt, s.prompt)
            assert g.temperature == 0.0 and g.sampling_seed is None
            assert s.temperature == 0.8 and s.top_k == 20
            assert s.sampling_seed is not None

    def test_sampling_seeds_distinct_and_reproducible(self):
        config = tiny_config()
        cfg = WorkloadConfig(num_requests=12, seed=5, temperature=0.8)
        seeds = [r.sampling_seed
                 for r in synthesize_workload(cfg, config)]
        again = [r.sampling_seed
                 for r in synthesize_workload(cfg, config)]
        assert seeds == again
        assert len(set(seeds)) == len(seeds)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(temperature=-0.1)
        with pytest.raises(ValueError):
            WorkloadConfig(top_p=0.0)
        with pytest.raises(ValueError):
            WorkloadConfig(top_k=-1)


class TestBucketing:
    def _sched(self, **kw):
        pool = PagedKVPool(tiny_config(),
                           KVPoolConfig(block_size=8, num_blocks=64))
        return ContinuousBatchScheduler(pool, SchedulerConfig(**kw))

    def test_zero_keeps_pure_fcfs(self):
        """FCFS admits in arrival order whatever the prompt lengths."""
        sched = self._sched(max_batch_size=8)
        for i, n in enumerate([30, 5, 29]):
            sched.submit(Request(request_id=i,
                                 prompt=np.zeros(n, dtype=np.int64),
                                 max_new_tokens=4,
                                 arrival_time=0.001 * i))
        sched._sort_waiting()
        assert [r.request_id for r in sched.waiting] == [0, 1, 2]
