"""The decode engine: prefill + continuous batched decode steps.

The engine runs the *real* model — every token is produced by the NumPy
forward pass over per-request KV caches, so engine outputs are
bit-identical to ``GPTModel.generate(use_cache=True)`` greedy decoding —
while time is charged on a *virtual clock* by :class:`DecodeCostModel`.
:class:`ServingEngine` is a one-replica fleet: it runs on
:class:`~repro.serving.cluster.ClusterSimulator`'s router loop and
admission control, and its replica is the shared
:class:`~repro.serving.replica.ReplicaServer` core driving this
module's :class:`NumericExecutor`.
The split mirrors the repo's two-track design (docs/ARCHITECTURE.md):
token semantics are exact, timing is a calibrated analytic model, and
the combination keeps every trace deterministic under a fixed seed.

The cost model encodes the physics that makes continuous batching win:
an incremental decode step is memory-bound — it must stream the full
weight matrix from HBM *once per step regardless of batch size* — so
batching B requests amortizes the weight read B ways:

    t_step = overhead + (weights + sum_r kv(r)) / HBM_bw

Prefill is compute-bound and priced through the existing
:class:`~repro.frontier.roofline.RooflineModel` layer timings.  With
``tp > 1`` the model prices a tensor-parallel replica: weights and KV
shard ``tp`` ways, and every layer pays two activation allreduces per
step through :class:`~repro.parallel.collectives.CollectiveModel` — the
same α–β hierarchy the training simulator uses, which is what lets
:mod:`repro.serving.cluster` cost 8×TP=1 against 1×TP=8 layouts.
"""

from __future__ import annotations

import math

import numpy as np

from ..frontier.hardware import GCDSpec
from ..frontier.roofline import RooflineModel
from ..models.config import ModelConfig
from ..models.flops import GEMMShape
from ..models.packed_kv import PackedKVPool
from ..models.speculative import (NGramDraft, SamplingParams, sample_token,
                                  spec_decode_step)
from ..parallel.collectives import CollectiveModel, GroupTopology
from .config import RoutingConfig, ServingConfig
from .kv_pool import kv_bytes_per_token
from .metrics import RequestRecord, ServingMetrics
from .results import ServeResult
# estimate_backlog_eta is bound here only for bench/trace.py, which
# patches it by name in this module.
from .scheduler import Request, estimate_backlog_eta  # noqa: F401

__all__ = ["DecodeCostModel", "NumericExecutor", "ServeResult",
           "ServingEngine", "run_sequential"]

#: Megatron-style TP inference: one allreduce after attention and one
#: after the MLP, per layer per decode step.
TP_ALLREDUCES_PER_LAYER = 2


class DecodeCostModel:
    """Virtual-clock pricing of prefill and decode steps on one replica.

    ``tp = 1`` prices a single GCD.  ``tp > 1`` prices one
    tensor-parallel replica spanning ``tp`` GCDs: compute and HBM
    traffic shard ``tp`` ways and each layer pays
    :data:`TP_ALLREDUCES_PER_LAYER` activation
    allreduces, placed on the fastest links that fit the group.
    """

    def __init__(self, config: ModelConfig, gcd: GCDSpec | None = None,
                 roofline: RooflineModel | None = None,
                 step_overhead_s: float = 250e-6, tp: int = 1,
                 collectives: CollectiveModel | None = None):
        if tp < 1:
            raise ValueError(f"tp must be >= 1: {tp}")
        self.config = config
        self.gcd = gcd or GCDSpec()
        self.roofline = roofline or RooflineModel(self.gcd)
        self.step_overhead_s = step_overhead_s
        self.tp = tp
        self.collectives = collectives or CollectiveModel()
        self.topology = GroupTopology.place(tp)
        self.weight_bytes = 2.0 * config.num_parameters() / tp
        self.kv_token_bytes = kv_bytes_per_token(config)
        #: prefill seconds per prompt length (see :meth:`prefill_time`)
        self._prefill_s: dict[int, float] = {}

    def _tp_comm(self, tokens: int) -> float:
        """Allreduce tax of one forward over ``tokens`` activations."""
        if self.tp <= 1:
            return 0.0
        act_bytes = int(2 * tokens * self.config.hidden_size)
        per_call = self.collectives.allreduce(act_bytes,
                                              self.topology).seconds
        return TP_ALLREDUCES_PER_LAYER * self.config.num_layers * per_call

    def prefill_time(self, prompt_len: int) -> float:
        """Forward pass over the whole prompt (compute-bound, roofline).

        Memoized per length: the price depends on nothing but the
        constructor inputs, and ``deadline-estimate`` shedding re-prices
        the whole backlog on every arrival.
        """
        seconds = self._prefill_s.get(prompt_len)
        if seconds is None:
            layer = self.roofline.layer_forward_timing(
                self.config, seq_len=prompt_len, micro_batch=1)
            total = self.config.num_layers * layer.total_seconds / self.tp
            head = GEMMShape("head", prompt_len, self.config.hidden_size,
                             self.config.vocab_size)
            seconds = total + self.roofline.gemm_time(head) / self.tp \
                + self._tp_comm(prompt_len)
            self._prefill_s[prompt_len] = seconds
        return seconds

    def decode_step_time(self, batch_size: int,
                         total_context_tokens: int) -> float:
        """One batched incremental step (memory-bound, weights read once)."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        hbm_bytes = self.weight_bytes \
            + self.kv_token_bytes * total_context_tokens / self.tp
        return self.step_overhead_s + hbm_bytes / (self.gcd.hbm_bw_gbs * 1e9) \
            + self._tp_comm(batch_size)

    def verify_step_time(self, batch_size: int, total_context_tokens: int,
                         span: int) -> float:
        """One stacked verify forward of ``span`` positions per row.

        The speculative-decoding payoff lives here: the weight matrix
        streams from HBM *once* for the whole ``span``-token window,
        where ``span`` sequential decode steps would stream it ``span``
        times.  KV traffic and the per-layer allreduce tax still scale
        with the verified tokens.  ``span == 1`` prices exactly like
        :meth:`decode_step_time`.
        """
        if span < 1:
            raise ValueError(f"span must be >= 1: {span}")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        hbm_bytes = self.weight_bytes \
            + self.kv_token_bytes * total_context_tokens / self.tp
        return self.step_overhead_s + hbm_bytes / (self.gcd.hbm_bw_gbs * 1e9) \
            + self._tp_comm(batch_size * span)

    def restore_time(self, context_tokens: int) -> float:
        """Re-import a captured KV snapshot (pure HBM write, no compute).

        Prices the state-capture preemption resume path: the saved span
        streams back into the slot at HBM bandwidth — no re-prefill.
        """
        if context_tokens < 0:
            raise ValueError("context_tokens must be >= 0")
        return self.kv_token_bytes * context_tokens / self.tp \
            / (self.gcd.hbm_bw_gbs * 1e9)

    def chunked_prefill_time(self, chunk_tokens: int,
                             prior_context_tokens: int = 0) -> float:
        """One prefill chunk over ``chunk_tokens`` new prompt positions.

        Priced like a short prefill plus the HBM stream of the KV
        already resident from earlier chunks (attention over the prior
        context is memory-bound at decode-like intensity).
        """
        if chunk_tokens < 1:
            raise ValueError("chunk_tokens must be >= 1")
        if prior_context_tokens < 0:
            raise ValueError("prior_context_tokens must be >= 0")
        base = self.prefill_time(chunk_tokens)
        if prior_context_tokens:
            base += self.kv_token_bytes * prior_context_tokens / self.tp \
                / (self.gcd.hbm_bw_gbs * 1e9)
        return base


class NumericExecutor:
    """Token work on the real model, for a :class:`ReplicaServer`.

    Each running request leases one slot of a :class:`PackedKVPool`
    when it first needs KV storage (admission is capped at
    ``max_batch_size`` seats, so a slot is always free) and returns it
    when it finishes, is preempted, or is cancelled.  Decoding is greedy
    per request unless the request samples, in which case it draws from
    its private seeded stream with the same warping ops as
    ``GPTModel.generate`` — engine and sequential outputs stay
    bit-identical either way.
    """

    def __init__(self, model, config: ServingConfig):
        self.model = model
        self.packed = PackedKVPool.for_model(
            model.config, num_slots=config.max_batch_size,
            block_tokens=config.block_size)
        # Speculative decoding: the stateless prompt-lookup proposer.
        self.proposer = None
        if config.spec_decode is not None:
            self.proposer = NGramDraft(config.spec_decode.ngram_n)

    def _lease(self, req: Request) -> None:
        if req.slot is None:
            req.slot = self.packed.acquire()
            req.caches = self.packed.slot_caches(req.slot)

    def release(self, req: Request) -> None:
        """Return the request's slot (finish/preempt/cancel)."""
        self.packed.release(req.slot)
        req.slot = None

    def _emit(self, req: Request, logits_row: np.ndarray) -> None:
        """Append the next token: argmax (greedy) or per-request sampling."""
        if not req.sampling:
            req.output.append(int(logits_row.argmax()))
            return
        params = SamplingParams(req.temperature, req.top_k, req.top_p)
        req.output.append(sample_token(logits_row, params, req.make_rng()))

    def adopt_prefix(self, req: Request, match, cache) -> None:
        """Copy a cached prefix's KV into the request's slot.

        The match lease is released as soon as the KV is copied: the
        copy (not the cached block) is what the request decodes over,
        so pinning the cache for the request's lifetime would only
        double-count pool demand — under pressure that pins eviction
        *and* preemption into a livelock.  The reference is held exactly
        across the copy, which is the window where eviction could
        corrupt it.
        """
        self._lease(req)
        cache.copy_into(match, self.packed, req.slot)
        cache.release(match)

    def restore(self, req: Request) -> None:
        """Re-import a preempted request's captured KV snapshot."""
        self._lease(req)
        k_parts, v_parts = req.saved_kv
        self.packed.import_span(req.slot, 0, k_parts, v_parts)
        req.prefill_pos = req.prompt_len
        req.saved_kv = None
        req.saved_len = 0

    def prefill(self, req: Request, tokens: int) -> None:
        """Forward the next ``tokens`` prompt positions over the slot.

        With a prefix-cache hit the slot already holds ``prefill_pos``
        positions of KV, so only the suffix is forwarded.  Chunk
        boundaries do not change the tokens produced — the cached
        forward is incremental by construction, so the logits of the
        last prompt token are bit-identical to one uncached forward.
        """
        self._lease(req)
        start = req.prefill_pos
        logits = self.model._forward_cached(
            req.prompt[None, start:start + tokens], req.caches)
        req.prefill_pos = start + tokens
        if req.prefill_pos < req.prompt_len:
            return
        self._emit(req, logits.data[0, -1])

    def decode(self, batch: list[Request]) -> None:
        """One stacked decode forward over the batch's slots."""
        last = np.array([r.output[-1] for r in batch], dtype=np.int64)
        logits = self.model.decode_step_batched(
            last, self.packed, [r.slot for r in batch])
        for i, req in enumerate(batch):
            self._emit(req, logits[i])

    def verify(self, batch: list[Request], k: int) -> list[int]:
        """Propose ``k`` tokens per request and verify them in one pass.

        All suffixes go through one stacked ``(batch, k + 1)`` forward;
        rejected tokens roll back via ``PackedKVPool.truncate``.
        """
        contexts = [np.concatenate([np.asarray(r.prompt, dtype=np.int64),
                                    np.asarray(r.output, dtype=np.int64)])
                    for r in batch]
        results = spec_decode_step(
            self.model, self.packed, [r.slot for r in batch],
            self.proposer, contexts,
            [SamplingParams(temperature=r.temperature, top_k=r.top_k,
                            top_p=r.top_p) for r in batch],
            [r.make_rng() if r.sampling else None for r in batch],
            k, [r.max_new_tokens - len(r.output) for r in batch],
            [r.eos_id for r in batch])
        for req, (emitted, _) in zip(batch, results):
            req.output.extend(emitted)
        return [accepted for _, accepted in results]


class ServingEngine:
    """Continuous-batching inference over a paged KV pool.

    A one-replica fleet: a colocated, fault-free
    :class:`~repro.serving.cluster.ClusterSimulator` whose replica runs
    a :class:`NumericExecutor` and whose router never holds a request
    back (its backpressure cap is unbounded).  Routing, admission
    control and the event loop are the cluster's; the engine turns the
    fleet's result into a :class:`ServeResult`.  Like the fleet, an
    engine serves one :meth:`run`.

    Parameters
    ----------
    model:
        A :class:`~repro.models.GPTModel`; decoding is greedy (the
        serving analogue of ``temperature=0``) unless a request sets a
        temperature, which keeps preemption-recompute lossless.
    config:
        A :class:`ServingConfig` describing scheduler policy, pool
        geometry, cost knobs, and the step bound.
    cost_model:
        Injection seam for tests; the default is the fleet's, built
        from ``config``.
    """

    def __init__(self, model, config: ServingConfig | None = None, *,
                 cost_model: DecodeCostModel | None = None):
        from .cluster import ClusterConfig, ClusterSimulator, ReplicaLayout
        self.model = model
        self.config = config or ServingConfig()
        self.fleet = ClusterSimulator(model.config, ClusterConfig(
            num_nodes=1,
            layout=ReplicaLayout(1, self.config.tensor_parallel),
            serving=self.config,
            routing=RoutingConfig(max_outstanding_per_replica=math.inf)),
            model=model)
        replica = self.fleet.replicas[0]
        if cost_model is not None:
            replica.cost = cost_model
        self.pool = replica.pool
        self.scheduler = replica.scheduler
        self.packed = replica.executor.packed
        self.cost = replica.cost
        self.prefix_cache = replica.prefix_cache

    def run(self, requests: list[Request]) -> ServeResult:
        """Serve the workload to completion; returns records + metrics."""
        fleet = self.fleet.run(requests)
        by_id = {r.request_id: r for r in requests}
        outputs = {rec.request_id: np.array(by_id[rec.request_id].output,
                                            dtype=np.int64)
                   for rec in fleet.records}
        return ServeResult(records=fleet.records, metrics=fleet.metrics,
                           shed_records=fleet.shed_records,
                           timeout_records=fleet.timeout_records,
                           outputs=outputs, lanes=fleet.lanes)


def run_sequential(model, requests: list[Request],
                   config: ServingConfig | None = None, *,
                   cost_model: DecodeCostModel | None = None) -> ServeResult:
    """One-request-at-a-time FCFS baseline under the same cost model.

    This is what ``GPTModel.generate`` gives you operationally: each
    request occupies the device alone, paying the full weight-stream
    price per token.  The continuous-batching engine's speedup is
    measured against this.
    """
    if cost_model is None:
        cost_model = (config or ServingConfig()).build_cost_model(
            model.config)
    cost = cost_model
    clock = 0.0
    records: list[RequestRecord] = []
    outputs: dict[int, np.ndarray] = {}
    for req in sorted(requests, key=lambda r: (r.arrival_time,
                                               r.request_id)):
        clock = max(clock, req.arrival_time)
        admit = clock
        # A FRESH generator per call (not req.make_rng()): the baseline
        # must not consume the request's own stream, so the same Request
        # object can be replayed through the engine afterwards.
        rng = None
        if req.temperature > 0:
            seed = req.sampling_seed if req.sampling_seed is not None \
                else req.request_id
            rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
        out = model.generate(req.prompt, req.max_new_tokens,
                             temperature=req.temperature, rng=rng,
                             top_k=req.top_k, top_p=req.top_p,
                             use_cache=True, eos_id=req.eos_id)
        generated = out[req.prompt_len:]
        clock += cost.prefill_time(req.prompt_len)
        first = clock
        for i in range(1, len(generated)):
            clock += cost.decode_step_time(
                1, req.prompt_len + i + 1)
        records.append(RequestRecord(
            request_id=req.request_id, arrival=req.arrival_time,
            admit=admit, first_token=first, finish=clock,
            prompt_len=req.prompt_len, output_len=len(generated),
            preemptions=0))
        outputs[req.request_id] = np.asarray(generated, dtype=np.int64)
    metrics = ServingMetrics.from_records(records, [], makespan=clock,
                                          peak_pool_utilization=0.0,
                                          preemptions=0)
    return ServeResult(records=records, metrics=metrics, outputs=outputs)
