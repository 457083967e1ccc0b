"""The decode engine: prefill + continuous batched decode steps.

The engine runs the *real* model — every token is produced by the NumPy
forward pass over per-request KV caches, so engine outputs are
bit-identical to ``GPTModel.generate(use_cache=True)`` greedy decoding —
while time is charged on a *virtual clock* by :class:`DecodeCostModel`.
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

import warnings

import numpy as np

from ..frontier.hardware import GCDSpec
from ..frontier.roofline import RooflineModel
from ..models.config import ModelConfig
from ..models.flops import GEMMShape
from ..models.packed_kv import PackedKVPool
from ..models.speculative import SamplingParams, sample_token, spec_decode_step
from ..parallel.collectives import CollectiveModel, GroupTopology
from ..profiling.tracer import TraceEvent
from .config import ServingConfig
from .kv_pool import PagedKVPool, kv_bytes_per_token
from .metrics import RequestRecord, ServingMetrics, TimelineSample
from .perf_model import TP_ALLREDUCES_PER_LAYER
from .results import ServeResult, ShedRequest, TimedOutRequest
from .scheduler import (ContinuousBatchScheduler, Request, SchedulerConfig,
                        apply_degradation, estimate_backlog_eta,
                        next_prefill_target)

__all__ = ["DecodeCostModel", "ServeResult", "ServingEngine",
           "run_sequential"]


class DecodeCostModel:
    """Virtual-clock pricing of prefill and decode steps on one replica.

    ``tp = 1`` prices a single GCD.  ``tp > 1`` prices one
    tensor-parallel replica spanning ``tp`` GCDs: compute and HBM
    traffic shard ``tp`` ways and each layer pays
    :data:`~repro.serving.perf_model.TP_ALLREDUCES_PER_LAYER` activation
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


def _validate_requests(requests: list[Request], pool: PagedKVPool,
                       scheduler_config: SchedulerConfig,
                       max_seq_len: int) -> None:
    """Reject requests that can never be served by this replica shape.

    Shared by :class:`ServingEngine` and the cluster replicas, so a
    request that would deadlock one simulated node fails loudly at
    submission in both paths.
    """
    token_budget = scheduler_config.max_batch_tokens
    need = pool.capacity_tokens()
    for req in requests:
        if req.budget_tokens > max_seq_len:
            raise ValueError(
                f"request {req.request_id}: prompt {req.prompt_len} + "
                f"max_new_tokens {req.max_new_tokens} exceeds "
                f"max_seq_len {max_seq_len}")
        if req.budget_tokens > token_budget:
            raise ValueError(
                f"request {req.request_id}: {req.budget_tokens} tokens "
                f"exceed max_batch_tokens {token_budget}")
        if pool.blocks_needed(req.budget_tokens) > pool.num_blocks:
            raise ValueError(
                f"request {req.request_id} can never fit the pool "
                f"({req.budget_tokens} tokens vs {need} slots)")


class ServingEngine:
    """Continuous-batching inference over a paged KV pool.

    Parameters
    ----------
    model:
        A :class:`~repro.models.GPTModel`; decoding is greedy (the
        serving analogue of ``temperature=0``), which keeps preemption-
        recompute lossless.
    config:
        A :class:`ServingConfig` describing scheduler policy, pool
        geometry, cost knobs, and the step bound.
    pool, cost_model:
        Injection seams for tests; defaults are built from ``config``.
    scheduler_config, max_steps:
        Deprecated — fold them into ``config`` instead.  Honoured (and
        they override ``config``) for one release.
    """

    def __init__(self, model, config: ServingConfig | None = None, *,
                 pool: PagedKVPool | None = None,
                 cost_model: DecodeCostModel | None = None,
                 scheduler_config: SchedulerConfig | None = None,
                 max_steps: int | None = None):
        self.model = model
        self.config = config or ServingConfig()
        sched_cfg = self.config.scheduler_config()
        if scheduler_config is not None:
            warnings.warn(
                "ServingEngine(scheduler_config=...) is deprecated; pass "
                "ServingConfig(policy=..., max_batch_size=...) instead",
                DeprecationWarning, stacklevel=2)
            sched_cfg = scheduler_config
        self.max_steps = self.config.max_steps
        if max_steps is not None:
            warnings.warn(
                "ServingEngine(max_steps=...) is deprecated; pass "
                "ServingConfig(max_steps=...) instead",
                DeprecationWarning, stacklevel=2)
            self.max_steps = max_steps
        self.pool = pool or self.config.build_pool(model.config)
        self.scheduler = ContinuousBatchScheduler(self.pool, sched_cfg)
        self.cost = cost_model or self.config.build_cost_model(model.config)
        self.prefill_chunk = self.config.prefill_chunk_tokens
        # Real KV storage: one packed slot per batch seat (admission is
        # capped at max_batch_size, so acquire() can never run dry).
        self.packed = PackedKVPool.for_model(
            model.config, num_slots=sched_cfg.max_batch_size,
            block_tokens=self.config.block_size)
        # Radix prefix cache (optional): real KV blocks, charged to the
        # paged pool.  The scheduler's reclaim hook lets admission evict
        # unreferenced cache blocks instead of preempting requests.
        self.prefix_cache = self.config.build_prefix_cache(
            model.config, self.pool, store_kv=True)
        if self.prefix_cache is not None:
            self.scheduler.reclaim = self.prefix_cache.evict
        # Speculative decoding: a draft proposer keyed by request_id
        # (ModelDraft leases a lockstep slot in its own packed pool;
        # NGramDraft is stateless) and a cost model for draft forwards.
        self.spec = self.config.spec_decode
        self.proposer = None
        self.draft_cost = None
        if self.spec is not None:
            self.proposer = self.spec.build_proposer(
                model.config, sched_cfg.max_batch_size,
                block_tokens=self.config.block_size)
            draft_cfg = self.spec.draft_config(model.config)
            if draft_cfg is not None:
                self.draft_cost = self.config.build_cost_model(draft_cfg)

    # ------------------------------------------------------------------
    def _validate(self, requests: list[Request]) -> None:
        _validate_requests(requests, self.pool, self.scheduler.config,
                           self.model.config.max_seq_len)

    def _assign_slot(self, req: Request) -> None:
        req.slot = self.packed.acquire()
        req.caches = self.packed.slot_caches(req.slot)

    def _release_slot(self, req: Request) -> None:
        if req.slot is not None:
            self.packed.release(req.slot)
            req.slot = None

    def _release_cache(self, req: Request) -> None:
        """Drop the request's prefix-cache lease (finish or preempt)."""
        if req.cache_match is not None:
            self.prefix_cache.release(req.cache_match)
            req.cache_match = None

    def _emit(self, req: Request, logits_row: np.ndarray) -> None:
        """Append the next token: argmax (greedy) or per-request sampling.

        Greedy requests take the exact legacy path; sampling requests
        draw from their private seeded stream with the same warping ops
        as ``GPTModel.generate``, so engine and sequential outputs stay
        bit-identical either way.
        """
        if not req.sampling:
            req.output.append(int(logits_row.argmax()))
            return
        params = SamplingParams(req.temperature, req.top_k, req.top_p)
        req.output.append(sample_token(logits_row, params, req.make_rng()))

    def _spec_attach(self, req: Request) -> float:
        """Start the draft proposer for a decoding request.

        Returns the virtual seconds to bill (a model draft prefills its
        own slot over the request's context; the n-gram draft is free).
        """
        if self.proposer is None or req.done:
            return 0.0
        ctx = np.concatenate([req.prompt,
                              np.asarray(req.output[:-1], dtype=np.int64)])
        self.proposer.start(req.request_id, ctx)
        if self.draft_cost is not None:
            return self.draft_cost.prefill_time(len(ctx))
        return 0.0

    def _spec_detach(self, req: Request) -> None:
        """Release the draft proposer state (finish/preempt/cancel)."""
        if self.proposer is not None:
            self.proposer.release(req.request_id)

    def _cache_admit(self, req: Request) -> int:
        """Match the prompt against the prefix cache; seed the slot.

        Returns the matched token count; the request's prefill resumes
        at that position, so only the suffix is ever forwarded.  The
        match lease is released as soon as the KV is copied into the
        request's own slot: the copy (not the cached block) is what the
        request decodes over, so pinning the cache for the request's
        lifetime would only double-count pool demand — under pressure
        that pins eviction *and* preemption into a livelock.  The
        reference is held exactly across the copy, which is the window
        where eviction could corrupt it.
        """
        match = self.prefix_cache.match(req.prompt)
        if not match.hit:
            return 0
        self.prefix_cache.copy_into(match, self.packed, req.slot)
        self.prefix_cache.release(match)
        req.prefill_pos = match.tokens
        return match.tokens

    def _prefill(self, req: Request) -> None:
        """Encode the (remaining) prompt and emit the first token.

        With a prefix-cache hit the slot already holds ``prefill_pos``
        positions of KV, so only the suffix is forwarded — the logits of
        the last prompt token, and hence every output token, are
        bit-identical to the uncached forward.
        """
        if req.caches is None:
            self._assign_slot(req)
        tokens = req.prompt[req.prefill_pos:]
        logits = self.model._forward_cached(tokens[None], req.caches)
        req.prefill_pos = req.prompt_len
        self._emit(req, logits.data[0, -1])

    def _prefill_chunk(self, req: Request) -> int:
        """Encode the next <= prefill_chunk_tokens prompt positions.

        Returns the chunk size; on the final chunk the first token is
        emitted.  Chunk boundaries do not change the tokens produced —
        the cached forward is incremental by construction.
        """
        chunk = min(self.prefill_chunk, req.prompt_len - req.prefill_pos)
        tokens = req.prompt[req.prefill_pos:req.prefill_pos + chunk]
        logits = self.model._forward_cached(tokens[None], req.caches)
        req.prefill_pos += chunk
        if req.prefill_pos >= req.prompt_len:
            self._emit(req, logits.data[0, -1])
        return chunk

    def _decode_one(self, req: Request) -> None:
        """Advance one request by one token over its caches."""
        last = np.array([req.output[-1]], dtype=np.int64)
        logits = self.model._forward_cached(last[None], req.caches)
        self._emit(req, logits.data[0, -1])

    # ------------------------------------------------------------------
    def run(self, requests: list[Request]) -> ServeResult:
        """Serve the workload to completion; returns records + metrics."""
        self._validate(requests)
        pending = sorted(requests, key=lambda r: (r.arrival_time,
                                                  r.request_id))
        sched = self.scheduler
        cache = self.prefix_cache
        overload = self.config.overload
        # With OverloadConfig() defaults and no deadlines every overload
        # branch below is skipped: the run is bit-identical to the
        # pre-overload engine (pinned by the parity tests).
        has_deadlines = any(r.deadline_s is not None for r in requests)
        clock = 0.0
        trace: list[tuple[float, str, int]] = []
        events: list[TraceEvent] = []
        records: list[RequestRecord] = []
        shed_records: list[ShedRequest] = []
        timeout_records: list[TimedOutRequest] = []
        outputs: dict[int, np.ndarray] = {}
        timeline: list[TimelineSample] = []
        spec_steps = 0
        draft_proposed = 0
        draft_accepted = 0

        def event(request_id: int, stage: str, start: float,
                  duration: float = 0.0) -> None:
            # Same naming scheme as the cluster replicas, so engine and
            # cluster traces open side by side in Perfetto.
            phase = "compute" if stage in ("prefill", "prefill-chunk",
                                           "decode") else "io"
            events.append(TraceEvent(f"req{request_id}/{stage}", start,
                                     duration, stage, phase))

        def cache_ok(req: Request) -> bool:
            # Degraded requests bypass prefix-cache admission (match and
            # insert) when the config says so: under pressure the cache
            # only adds copy traffic for work we are trying to shrink.
            return cache is not None and not (
                req.degraded and overload.degrade_bypass_cache)

        def shed(req: Request, reason: str) -> None:
            trace.append((clock, "shed", req.request_id))
            event(req.request_id, "shed", clock)
            shed_records.append(ShedRequest(
                request_id=req.request_id, arrival=req.arrival_time,
                shed_at=clock, policy=overload.shed_policy, reason=reason,
                tier=req.tier, prompt_len=req.prompt_len,
                deadline=req.deadline_s))

        def shed_reason(req: Request) -> str | None:
            """Admission-control verdict for an arriving request."""
            policy = overload.shed_policy
            if policy == "deadline-estimate":
                if req.deadline_s is None:
                    return None
                eta = estimate_backlog_eta(
                    self.cost, sched.waiting + sched.running, req,
                    sched.config.max_batch_size)
                if clock + overload.estimate_margin * eta > req.deadline_s:
                    return "deadline-unattainable"
                return None
            if policy == "bounded-queue":
                if len(sched.waiting) >= overload.max_queue_depth:
                    return "queue-full"
                return None
            if policy == "priority":
                if len(sched.waiting) < overload.max_queue_depth:
                    return None
                if req.tier == "batch":
                    return "queue-full"
                # Interactive arrival at a full queue: displace the
                # youngest queued batch-tier request instead.
                for victim in reversed(sched.waiting):
                    if victim.tier == "batch":
                        sched.waiting.remove(victim)
                        shed(victim, "priority-evict")
                        return None
                return "queue-full"
            return None

        def timeout(req: Request, stage: str) -> None:
            trace.append((clock, "timeout", req.request_id))
            event(req.request_id, "timeout", clock)
            timeout_records.append(TimedOutRequest(
                request_id=req.request_id, arrival=req.arrival_time,
                deadline=req.deadline_s, cancelled_at=clock, stage=stage,
                prompt_len=req.prompt_len, output_len=len(req.output)))

        def cancel_timeouts() -> None:
            """Unwind every request whose deadline has passed.

            Queued requests only leave the admission queue; running ones
            also release their paged-pool allocation, packed slot, and
            any prefix-cache lease — cancellation must leave zero
            retained resources at every lifecycle stage.
            """
            expired = [r for r in sched.waiting
                       if r.deadline_s is not None and clock > r.deadline_s]
            for req in expired:
                sched.waiting.remove(req)
                timeout(req, "queued")
            expired = [r for r in sched.running
                       if r.deadline_s is not None and clock > r.deadline_s]
            for req in expired:
                sched.running.remove(req)
                self.pool.free(req.request_id)
                self._release_cache(req)
                self._release_slot(req)
                self._spec_detach(req)
                stage = "prefill" if req.prefill_pos < req.prompt_len \
                    else "decode"
                timeout(req, stage)

        if cache is not None:
            def reclaim(blocks: int) -> int:
                # Admission-time reclaim: LRU-evict unreferenced cache
                # blocks so a new request fits without preempting anyone.
                freed = cache.evict(blocks)
                if freed:
                    events.append(TraceEvent(f"cache/evict x{freed}",
                                             clock, 0.0, "cache-evict",
                                             "io"))
                return freed
            sched.reclaim = reclaim

        def finish(req: Request) -> None:
            self._release_cache(req)
            self._release_slot(req)
            self._spec_detach(req)
            sched.finish(req, clock)
            trace.append((clock, "finish", req.request_id))
            event(req.request_id, "decode", req.first_token_time,
                  clock - req.first_token_time)
            event(req.request_id, "finish", clock)
            outputs[req.request_id] = np.array(req.output, dtype=np.int64)
            records.append(RequestRecord(
                request_id=req.request_id, arrival=req.arrival_time,
                admit=req.admit_time, first_token=req.first_token_time,
                finish=clock, prompt_len=req.prompt_len,
                output_len=len(req.output), preemptions=req.preemptions,
                deadline=req.deadline_s, degraded=req.degraded))

        steps = 0
        while pending or not sched.idle:
            if steps >= self.max_steps:
                raise RuntimeError(f"engine exceeded {self.max_steps} steps")
            steps += 1

            while pending and pending[0].arrival_time <= clock:
                req = pending.pop(0)
                trace.append((clock, "arrive", req.request_id))
                event(req.request_id, "arrive", clock)
                if overload.shedding:
                    reason = shed_reason(req)
                    if reason is not None:
                        shed(req, reason)
                        continue
                sched.submit(req)

            if has_deadlines:
                cancel_timeouts()

            for req in sched.admit(clock):
                trace.append((clock, "admit", req.request_id))
                event(req.request_id, "admit", clock)
                if overload.degrading and len(sched.waiting) \
                        >= overload.degrade_queue_depth:
                    apply_degradation(req, overload.degrade_max_new_tokens)
                    trace.append((clock, "degrade", req.request_id))
                    event(req.request_id, "degrade", clock)
                self._assign_slot(req)
                if req.saved_kv is not None:
                    # State-capture resume (sampled requests): re-import
                    # the snapshot instead of re-prefilling — the output
                    # and RNG stream survived the preemption, so decoding
                    # continues exactly where it stopped.
                    k_parts, v_parts = req.saved_kv
                    self.packed.import_span(req.slot, 0, k_parts, v_parts)
                    start = clock
                    clock += self.cost.restore_time(req.saved_len)
                    event(req.request_id, "kv-restore", start,
                          clock - start)
                    trace.append((clock, "kv-restore", req.request_id))
                    req.prefill_pos = req.prompt_len
                    req.saved_kv = None
                    req.saved_len = 0
                    clock += self._spec_attach(req)
                    continue
                matched = 0
                if cache is not None and not cache_ok(req):
                    cache.stats.bypassed += 1
                if cache_ok(req):
                    matched = self._cache_admit(req)
                    stage = "cache-hit" if matched else "cache-miss"
                    trace.append((clock, stage, req.request_id))
                    event(req.request_id, stage, clock)
                if self.prefill_chunk is None:
                    self._prefill(req)
                    start = clock
                    if matched:
                        # The cached prefix skips its prefill compute;
                        # the suffix is priced like a chunk attending
                        # over the resident prefix KV.
                        clock += self.cost.chunked_prefill_time(
                            req.prompt_len - matched, matched)
                    else:
                        clock += self.cost.prefill_time(req.prompt_len)
                    event(req.request_id, "prefill", start, clock - start)
                    if cache_ok(req):
                        cache.insert(req.prompt, self.packed, req.slot)
                    req.first_token_time = clock
                    if req.done:
                        finish(req)
                    else:
                        clock += self._spec_attach(req)
                # else: the prompt is encoded chunk by chunk below,
                # interleaved with decode steps of the running batch.

            if self.prefill_chunk is not None:
                target = next_prefill_target(sched.running)
                if target is not None:
                    prior = target.prefill_pos
                    chunk = self._prefill_chunk(target)
                    start = clock
                    clock += self.cost.chunked_prefill_time(chunk, prior)
                    event(target.request_id, "prefill-chunk", start,
                          clock - start)
                    if target.prefill_pos >= target.prompt_len:
                        req = target
                        if cache_ok(req):
                            cache.insert(req.prompt, self.packed, req.slot)
                        req.first_token_time = clock
                        if req.done:
                            finish(req)
                        else:
                            clock += self._spec_attach(req)

            if not sched.running:
                if pending and not sched.waiting:
                    # Idle: jump to the next arrival.
                    clock = max(clock, pending[0].arrival_time)
                    continue
                if sched.waiting:
                    # Nothing running yet the queue is non-empty: the
                    # head request alone must fit — force space for it,
                    # draining the cache before declaring deadlock.
                    victim = sched.preempt_victim()
                    if victim is None:
                        if cache is not None \
                                and cache.evict(self.pool.num_blocks) > 0:
                            events.append(TraceEvent(
                                "cache/evict", clock, 0.0, "cache-evict",
                                "io"))
                            continue
                        raise RuntimeError(
                            "deadlock: empty batch but admission failed")
                    self._release_cache(victim)
                    self._release_slot(victim)
                    self._spec_detach(victim)
                    trace.append((clock, "preempt", victim.request_id))
                    event(victim.request_id, "preempt", clock)
                continue

            # One continuous-batching decode step over the running set
            # (requests still mid-prefill under chunking don't decode yet).
            batch = [r for r in sched.running
                     if r.prefill_pos >= r.prompt_len]
            # Speculative window for this step: k_eff drafted tokens
            # plus one bonus position, clipped by the tightest request's
            # sequence-length and output-budget headroom (a plain step
            # is spec_extra == 1).
            k_eff = 0
            spec_extra = 1
            if self.proposer is not None and batch:
                ctx_max = max(r.context_len for r in batch)
                rem_min = min(r.max_new_tokens - len(r.output)
                              for r in batch)
                k_eff = min(self.spec.k,
                            self.model.config.max_seq_len - 1 - ctx_max,
                            rem_min - 1)
                if k_eff >= 1:
                    spec_extra = k_eff + 1
                else:
                    k_eff = 0
            for req in batch:
                if req not in sched.running:
                    continue  # preempted earlier in this same step
                preempted_self = False
                while not self.pool.allocate(req.request_id,
                                             req.context_len + spec_extra):
                    # Cache blocks go first: an unreferenced LRU block
                    # is free capacity, a preemption discards progress.
                    if cache is not None and cache.evict(1) > 0:
                        events.append(TraceEvent(
                            "cache/evict", clock, 0.0, "cache-evict",
                            "io"))
                        continue
                    if spec_extra > 1:
                        # Never preempt anyone just to fit the
                        # speculative window: degrade to a plain
                        # single-token step for everyone instead.
                        k_eff = 0
                        spec_extra = 1
                        continue
                    victim = sched.running[-1]
                    # Victim = youngest admission, *including* req itself
                    # (vLLM recompute rule).  The oldest running request
                    # is therefore never evicted, so it always completes
                    # — without this, two requests crossing block
                    # boundaries alternately can evict each other
                    # forever, each eviction discarding all progress.
                    sched.preempt(victim)
                    self._release_cache(victim)
                    self._release_slot(victim)
                    self._spec_detach(victim)
                    trace.append((clock, "preempt", victim.request_id))
                    event(victim.request_id, "preempt", clock)
                    if victim is req:
                        preempted_self = True
                        break
                if preempted_self:
                    continue
            survivors = [r for r in batch if r in sched.running]
            if not survivors:
                continue

            # The whole step is ONE stacked forward over the packed pool
            # — the compute the cost model has credited all along.
            slots = [r.slot for r in survivors]
            if k_eff >= 1:
                # Speculative step: propose k_eff tokens per request,
                # verify all suffixes in one stacked (batch, k_eff + 1)
                # forward, roll rejected tokens back via pool.truncate.
                contexts = [np.concatenate([
                    np.asarray(r.prompt, dtype=np.int64),
                    np.asarray(r.output, dtype=np.int64)])
                    for r in survivors]
                results = spec_decode_step(
                    self.model, self.packed, slots, self.proposer,
                    contexts,
                    [SamplingParams(temperature=r.temperature,
                                    top_k=r.top_k, top_p=r.top_p)
                     for r in survivors],
                    [r.make_rng() if r.sampling else None
                     for r in survivors],
                    k_eff,
                    [r.max_new_tokens - len(r.output) for r in survivors],
                    [r.eos_id for r in survivors],
                    keys=[r.request_id for r in survivors])
                start = clock
                for i, req in enumerate(survivors):
                    emitted, acc = results[i]
                    req.output.extend(emitted)
                    draft_proposed += k_eff
                    draft_accepted += acc
                spec_steps += 1
                total_ctx = sum(r.context_len for r in survivors)
                # One target verify pass (weights streamed ONCE for the
                # whole window — the speedup source) plus, for a model
                # draft, k_eff cheap draft decode steps.
                clock += self.cost.verify_step_time(
                    len(survivors), total_ctx, k_eff + 1)
                if self.draft_cost is not None:
                    clock += k_eff * self.draft_cost.decode_step_time(
                        len(survivors), total_ctx)
                for i, req in enumerate(survivors):
                    _, acc = results[i]
                    stage = "spec-accept" if acc == k_eff \
                        else "spec-reject"
                    event(req.request_id, stage, start, clock - start)
            else:
                last = np.array([r.output[-1] for r in survivors],
                                dtype=np.int64)
                logits = self.model.decode_step_batched(last, self.packed,
                                                        slots)
                for i, req in enumerate(survivors):
                    self._emit(req, logits[i])
                total_ctx = sum(r.context_len for r in survivors)
                # Billed time uses the executed batch shape, not
                # max(1, ...): an empty step executes nothing and bills
                # nothing.
                clock += self.cost.decode_step_time(len(survivors),
                                                    total_ctx)
            for req in survivors:
                if req.done:
                    finish(req)

            timeline.append(TimelineSample(
                time=clock, queue_depth=sched.queue_depth,
                batch_size=len(survivors),
                pool_utilization=self.pool.utilization,
                context_tokens=total_ctx))

        # No silent drop: every submitted request completed, was shed,
        # or timed out — exactly one of the three.
        if len(records) + len(shed_records) + len(timeout_records) \
                != len(requests):
            raise RuntimeError(
                f"request accounting broke: {len(records)} completed + "
                f"{len(shed_records)} shed + {len(timeout_records)} "
                f"timed out != {len(requests)} submitted")
        metrics = ServingMetrics.from_records(
            records, timeline, makespan=clock,
            peak_pool_utilization=self.pool.peak_utilization,
            preemptions=sched.total_preemptions,
            cache=cache.stats if cache is not None else None,
            shed=len(shed_records), timed_out=len(timeout_records),
            deadline_total=sum(1 for r in requests
                               if r.deadline_s is not None),
            spec_steps=spec_steps, draft_proposed=draft_proposed,
            draft_accepted=draft_accepted)
        records.sort(key=lambda r: r.request_id)
        lanes = {"engine": {f"replica (TP={self.cost.tp})": events}}
        return ServeResult(records=records, metrics=metrics, trace=trace,
                           outputs=outputs, lanes=lanes,
                           shed_records=shed_records,
                           timeout_records=timeout_records)


def run_sequential(model, requests: list[Request],
                   config: ServingConfig | None = None, *,
                   cost_model: DecodeCostModel | None = None) -> ServeResult:
    """One-request-at-a-time FCFS baseline under the same cost model.

    This is what ``GPTModel.generate`` gives you operationally: each
    request occupies the device alone, paying the full weight-stream
    price per token.  The continuous-batching engine's speedup is
    measured against this.
    """
    if isinstance(config, DecodeCostModel):
        # Pre-ServingConfig signature: run_sequential(model, reqs, cost).
        warnings.warn(
            "passing a DecodeCostModel positionally to run_sequential is "
            "deprecated; pass cost_model=... or a ServingConfig",
            DeprecationWarning, stacklevel=2)
        cost_model, config = config, None
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
