"""The replica core and router loop that ServingEngine and
ClusterSimulator share.

The engine is a one-replica fleet: both systems run one router loop and
every serving rule through one ``ReplicaServer``; only the executor
differs (the NumPy model vs sentinel tokens).  These tests pin that the
two executors agree request for request, that a multi-replica fleet of
the numeric executor decodes exactly what ``GPTModel.generate`` does,
and guard two rules that were once wrong in one copy or both: the
chunked-prefill preemption livelock and the empty-batch guard after a
round whose requests all finished at prefill.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultConfig
from repro.models import GPTModel, preset
from repro.serving import (ClusterConfig, ClusterSimulator, OverloadConfig,
                           ReplicaLayout, Request, RoutingConfig,
                           ServingConfig, ServingEngine,
                           SessionWorkloadConfig, WorkloadConfig,
                           synthesize_sessions, synthesize_workload)

SMALL = preset("small-llama")
TINY = preset("tiny-llama")


@pytest.fixture(scope="module")
def small_model():
    return GPTModel(SMALL, seed=0)


def one_replica(model_config, serving, num_requests):
    """A one-replica cluster whose router never holds a request back."""
    return ClusterSimulator(model_config, ClusterConfig(
        num_nodes=1, layout=ReplicaLayout(replicas_per_node=1, tp=1),
        routing=RoutingConfig(max_outstanding_per_replica=num_requests + 1),
        serving=serving))


def poisson(config, n=60, seed=0, rate=3000.0, **kw):
    return synthesize_workload(WorkloadConfig(
        num_requests=n, arrival_rate=rate, seed=seed, **kw), config)


def shared_prompt_requests(n, prompt_len):
    """``n`` simultaneous one-token requests over one prompt."""
    prompt = np.arange(1, prompt_len + 1)
    return [Request(request_id=i, prompt=prompt, max_new_tokens=1)
            for i in range(n)]


class TestEngineMatchesOneTimingReplica:
    """The two executors on one loop: a ``ServingEngine`` (a one-replica
    fleet with the numeric executor) and a one-replica timing
    ``ClusterSimulator`` given the same ``ServingConfig`` and requests
    run the same router loop and produce identical ``RequestRecord``s:
    admit, first-token and finish times, preemptions, output lengths,
    and degradation.

    Two features legitimately differ, so they are not compared here:

    - A prefix cache under pool pressure.  The engine copies a matched
      prefix into the request's own KV slot and drops the cache lease at
      once; a timing replica has no KV copy, so it holds the lease until
      the request leaves.  Leased blocks cannot be evicted, so the two
      reclaim different blocks once the pool runs short.
    - Speculative decoding.  The engine measures acceptance by verifying
      real drafted tokens; a timing replica draws acceptance from
      ``SpecDecodeConfig.acceptance``.
    """

    CASES = {
        "plain": (ServingConfig(num_blocks=4096),
                  lambda: poisson(SMALL)),
        "spf-tight-pool": (ServingConfig(policy="spf", block_size=4,
                                         num_blocks=24),
                           lambda: poisson(SMALL)),
        "chunked-prefill": (ServingConfig(num_blocks=4096,
                                          prefill_chunk_tokens=8),
                            lambda: poisson(SMALL)),
        "deadlines": (ServingConfig(num_blocks=4096),
                      lambda: poisson(SMALL, deadline_s=0.004)),
        "degradation": (ServingConfig(num_blocks=4096,
                                      overload=OverloadConfig(
                                          degrade_queue_depth=2)),
                        lambda: poisson(SMALL)),
        "prefix-cache-with-room": (
            ServingConfig(num_blocks=4096, prefix_cache=True,
                          prefix_cache_blocks=256),
            lambda: synthesize_sessions(SessionWorkloadConfig(
                num_sessions=20, arrival_rate=200.0, seed=0), SMALL)),
        "finished-at-prefill": (ServingConfig(max_batch_size=1,
                                              num_blocks=64),
                                lambda: shared_prompt_requests(3, 8)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_identical_records(self, small_model, case):
        serving, make = self.CASES[case]
        engine = ServingEngine(small_model, serving).run(make())
        requests = make()
        cluster = one_replica(SMALL, serving, len(requests)).run(requests)
        assert engine.records == cluster.records
        key = lambda t: t.request_id  # noqa: E731
        assert sorted(engine.timeout_records, key=key) \
            == cluster.timeout_records
        assert engine.records, "the case must complete some requests"


class TestNumericFleet:
    """``ClusterSimulator(model=...)``: every replica decodes real
    tokens, so a fleet's greedy outputs equal ``GPTModel.generate``,
    also when failover re-prefills requests on another replica."""

    @pytest.fixture(scope="class")
    def tiny_model(self):
        return GPTModel(TINY, seed=0)

    @pytest.mark.parametrize("faults", [
        None, FaultConfig(mtbf_hours=0.00005, seed=3)],
        ids=["plain", "failover"])
    def test_greedy_outputs_match_generate(self, tiny_model, faults):
        requests = poisson(TINY, n=40, seed=1, rate=300.0)
        result = ClusterSimulator(TINY, ClusterConfig(
            num_nodes=1, layout=ReplicaLayout(replicas_per_node=2, tp=1),
            faults=faults), model=tiny_model).run(requests)
        assert len(result.records) == len(requests)
        assert {node_replica[1] for node_replica
                in result.assignments.values()} == {0, 1}
        assert (result.retries_total > 0) == (faults is not None)
        for req in requests:
            expected = tiny_model.generate(
                req.prompt, req.max_new_tokens,
                use_cache=True)[req.prompt_len:]
            np.testing.assert_array_equal(req.output, expected)

    def test_disaggregated_layout_raises(self, tiny_model):
        with pytest.raises(ValueError, match="disaggregated"):
            ClusterSimulator(TINY, ClusterConfig(
                num_nodes=1, layout=ReplicaLayout.from_label("1P1DxTP1")),
                model=tiny_model)


class TestChunkedPrefillLivelock:
    """Chunked prefill on a tight pool must finish every request.

    SRPT picks the youngest, shortest prompt; its first decode step
    needs one block beyond its admission allocation, held by older
    requests still mid-prefill.  When the youngest-first victim rule
    picked the request itself, it was re-admitted at once and the cycle
    repeated forever, so the victim is now the youngest request still
    mid-prefill.
    """

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 3),
           blocks=st.sampled_from([14, 16, 24, 40]),
           chunk=st.sampled_from([4, 8, 16]),
           batch=st.sampled_from([2, 8]),
           policy=st.sampled_from(["fcfs", "spf"]))
    @example(seed=0, blocks=14, chunk=4, batch=8, policy="fcfs")
    @example(seed=1, blocks=24, chunk=4, batch=8, policy="fcfs")
    def test_timing_replica_completes(self, seed, blocks, chunk, batch,
                                      policy):
        requests = poisson(TINY, n=50, seed=seed)
        serving = ServingConfig(policy=policy, max_batch_size=batch,
                                block_size=4, num_blocks=blocks,
                                prefill_chunk_tokens=chunk, max_steps=2000)
        result = one_replica(TINY, serving, len(requests)).run(requests)
        assert result.metrics.num_requests == len(requests)

    def test_engine_completes(self):
        model = GPTModel(TINY, seed=0)
        requests = poisson(TINY, n=50)
        result = ServingEngine(model, ServingConfig(
            block_size=4, num_blocks=10, prefill_chunk_tokens=8,
            max_steps=2000)).run(requests)
        assert result.metrics.num_requests == len(requests)
        assert result.metrics.preemptions > 0
        for req in requests[:5]:
            expected = model.generate(req.prompt, req.max_new_tokens,
                                      use_cache=True)[req.prompt_len:]
            np.testing.assert_array_equal(
                result.outputs[req.request_id], expected)


class TestFinishedAtPrefillRound:
    """A round whose admitted requests all finished at their first token
    leaves the batch empty with the queue non-empty.  That is progress,
    not a deadlock, and must not flush the prefix cache."""

    def test_engine_serves_every_request(self, small_model):
        result = ServingEngine(small_model, ServingConfig(
            max_batch_size=1, num_blocks=64)).run(
            shared_prompt_requests(3, 8))
        assert result.metrics.num_requests == 3

    def test_prefix_cache_is_kept(self, small_model):
        result = ServingEngine(small_model, ServingConfig(
            max_batch_size=1, num_blocks=64, prefix_cache=True)).run(
            shared_prompt_requests(6, 32))
        assert result.metrics.num_requests == 6
        assert result.metrics.cache_hit_rate == pytest.approx(5 / 6)
        assert result.metrics.cache_evicted_blocks == 0
