"""One serving replica: the continuous-batching state machine.

:class:`ReplicaServer` is the only implementation of the serving rules.
Every replica of :class:`~repro.serving.cluster.ClusterSimulator` runs
it, and :class:`~repro.serving.ServingEngine` is a one-replica fleet.
The rules it owns:

- admission, degradation, and prefix-cache admission;
- monolithic and chunked prefill;
- the empty-batch guard;
- the decode batch, its preemption loop, and the speculative window;
- step pricing through the decode cost model;
- deadline cancellation, finish bookkeeping, and the timeline.

What differs between replicas is the token work, which an *executor*
performs: :class:`~repro.serving.engine.NumericExecutor` runs the real
NumPy model, and :class:`~repro.serving.cluster.TimingExecutor` decodes
sentinel tokens.  An executor has these members:

``packed``
    The packed KV pool the prefix cache copies real KV out of, or
    ``None`` when the executor holds no KV (the cache then tracks
    structure only).
``prefill(req, tokens)``
    Encode the next ``tokens`` prompt positions and advance
    ``req.prefill_pos``; once the prompt is complete, append the first
    token.
``decode(batch)``
    Append one token to each request of ``batch``.
``verify(batch, k)``
    One speculative window of ``k`` drafted tokens per request: append
    the accepted tokens plus the bonus token, and return the accepted
    counts.
``adopt_prefix(req, match, cache)``
    Take over a prefix-cache hit whose tokens already count as
    prefilled.
``release(req)``
    Free the request's KV slot.  Only called for a request holding a
    slot (``req.slot``).
``restore(req)``
    Re-import a preempted request's captured KV (``req.saved_kv``).
    Only called for a request carrying a snapshot.

Only an executor that leases slots creates slots or snapshots, so a
timing-level executor needs neither method.

Roles, KV import, slow windows, and the breaker and fault hooks serve
disaggregated and faulted fleets; a colocated, fault-free replica (the
engine's) keeps them at their inert defaults.
"""

from __future__ import annotations

from ..faults.model import CircuitBreaker
from ..models.config import ModelConfig
from ..profiling.tracer import TraceEvent
from .config import ServingConfig
from .kv_pool import PagedKVPool
from .metrics import RequestRecord, TimelineSample
from .results import TimedOutRequest, record_timeout
from .scheduler import (RUNNING, ContinuousBatchScheduler, Request,
                        apply_degradation, next_prefill_target)

__all__ = ["REPLICA_ROLES", "ReplicaServer"]

#: Roles a replica can serve under (``mixed`` = colocated baseline).
REPLICA_ROLES = ("prefill", "decode", "mixed")


class ReplicaServer:
    """One serving replica: scheduler, paged pool, cache, and clock.

    Steps a :class:`ContinuousBatchScheduler` over a
    :class:`PagedKVPool` on its own virtual clock, pricing every step
    through ``cost`` (a :class:`~repro.serving.engine.DecodeCostModel`)
    and leaving the token work to ``executor`` (see the module
    docstring).  The cluster steps its replicas in clock order up to
    each router event, so routing policies observe each replica's
    queue state at any arrival instant.
    """

    def __init__(self, node_index: int, replica_index: int,
                 model_config: ModelConfig, serving: ServingConfig,
                 cost, pool: PagedKVPool, executor,
                 role: str = "mixed"):
        if role not in REPLICA_ROLES:
            raise ValueError(
                f"role must be one of {REPLICA_ROLES}: {role!r}")
        self.node_index = node_index
        self.replica_index = replica_index
        self.role = role
        #: finished prefills awaiting KV shipment, as ``(request,
        #: handoff_time)`` — drained by the cluster after every step
        self.outbox: list[tuple[Request, float]] = []
        #: flat position in the cluster's replica list (set by the owner)
        self.index = 0
        self.model_config = model_config
        self.pool = pool
        self.cost = cost
        self.executor = executor
        self.scheduler = ContinuousBatchScheduler(
            pool, serving.scheduler_config())
        self.max_steps = serving.max_steps
        self.prefill_chunk = serving.prefill_chunk_tokens
        # Radix prefix cache: real KV when the executor holds KV, token
        # structure and refcounts otherwise.  Cached blocks are charged
        # to this replica's pool; admission reclaims them LRU-first.
        self.prefix_cache = serving.build_prefix_cache(
            model_config, pool, store_kv=executor.packed is not None)
        if self.prefix_cache is not None:
            self.scheduler.reclaim = self._cache_reclaim
        # Speculative decoding: a step verifies the executor's drafted
        # window in one stacked pass.
        self.spec = serving.spec_decode
        self.spec_steps = 0
        self.draft_proposed = 0
        self.draft_accepted = 0
        self.clock = 0.0
        self.records: list[RequestRecord] = []
        self.timeline: list[TimelineSample] = []
        self.events: list[TraceEvent] = []
        self._steps = 0
        # -- overload state (inert defaults; `OverloadConfig()` keeps
        #    every branch below cold so the default path stays
        #    bit-identical) ---------------------------------------------
        self.overload = serving.overload
        #: set by the owner when any request carries a deadline
        self.deadline_checks = False
        #: deadline cancellations; the owner gathers them with the records
        self.timeouts: list[TimedOutRequest] = []
        self.breaker = CircuitBreaker(
            self.overload.breaker_cooldown_s,
            self.overload.breaker_probes) if self.overload.breaker else None
        # -- fault state (inert defaults; the fault-free path never
        #    mutates them, keeping that path bit-identical) -------------
        #: whether the replica processes work (False between fail/recover)
        self.alive = True
        #: the router's view; stays True until the health check fires
        self.healthy = True
        #: active (start, end, factor) step-duration stretch windows
        self.slow_windows: list[tuple[float, float, float]] = []
        #: share of a decode step spent in TP allreduces (0 for TP=1) —
        #: what a degraded link can actually slow down.  Taken at a
        #: representative single-request, 512-token context point; the
        #: ratio moves little across batch shapes.
        self.comm_fraction = 0.0
        if cost.tp > 1:
            step_s = cost.decode_step_time(1, 512)
            if step_s > 0:
                self.comm_fraction = min(1.0, cost._tp_comm(1) / step_s)

    @property
    def name(self) -> str:
        return f"node{self.node_index}/replica{self.replica_index}"

    def validate(self, requests: list[Request]) -> None:
        """Reject requests that can never be served by this replica shape.

        A request that would deadlock a replica fails loudly at
        submission instead, in the engine and the cluster alike.
        """
        max_seq_len = self.model_config.max_seq_len
        token_budget = self.scheduler.config.max_batch_tokens
        pool = self.pool
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

    # -- state the load balancer reads ---------------------------------
    @property
    def busy(self) -> bool:
        return not self.scheduler.idle

    @property
    def outstanding(self) -> int:
        """Routed-but-unfinished requests (waiting + running)."""
        return len(self.scheduler.waiting) + len(self.scheduler.running)

    @property
    def kv_demand_tokens(self) -> int:
        """Worst-case KV token demand of everything routed here."""
        return sum(r.budget_tokens for r in self.scheduler.waiting) \
            + sum(r.budget_tokens for r in self.scheduler.running)

    # ------------------------------------------------------------------
    def _event(self, request_id: int, stage: str, start: float,
               duration: float = 0.0) -> None:
        phase = "compute" if stage in ("prefill", "prefill-chunk",
                                       "decode") else "io"
        self.events.append(TraceEvent(f"req{request_id}/{stage}", start,
                                      duration, stage, phase))

    def _note(self, req: Request, stage: str) -> None:
        """Record an instant of ``req``'s lifecycle at the clock."""
        self.events.append(TraceEvent(f"req{req.request_id}/{stage}",
                                      self.clock, 0.0, stage, "io"))

    def _fault_event(self, stage: str, start: float,
                     duration: float = 0.0) -> None:
        self.events.append(TraceEvent(f"fault/{stage}", start, duration,
                                      stage, "fault"))

    # -- held state: prefix-cache leases and executor resources ---------
    def _cache_reclaim(self, blocks: int) -> int:
        """LRU-evict cache blocks for admission; traces the eviction."""
        freed = self.prefix_cache.evict(blocks)
        if freed:
            self.events.append(TraceEvent(f"cache/evict x{freed}",
                                          self.clock, 0.0, "cache-evict",
                                          "io"))
        return freed

    def _release(self, req: Request) -> None:
        """Drop ``req``'s cache lease and executor state (not its blocks)."""
        if req.cache_match is not None:
            self.prefix_cache.release(req.cache_match)
            req.cache_match = None
        if req.slot is not None:
            self.executor.release(req)

    def _cache_allowed(self, req: Request) -> bool:
        """Degraded requests bypass the cache when so configured."""
        return self.prefix_cache is not None and not (
            req.degraded and self.overload.degrade_bypass_cache)

    # -- overload hooks -------------------------------------------------
    def _cancel_timeouts(self) -> None:
        """Cancel expired requests, unwinding every piece of held state.

        Runs at each step boundary (cancellation granularity matches the
        simulation's time granularity): queued requests just leave the
        queue; running ones additionally release their pool allocation,
        cache lease, and executor state.  The outbox is empty here: the
        owner drains it after every step, and the router cancels a
        handoff whose KV cannot arrive in time.
        """
        now = self.clock
        sched = self.scheduler
        expired = [r for r in sched.waiting
                   if r.deadline_s is not None and now > r.deadline_s]
        for req in expired:
            sched.waiting.remove(req)
            self._release(req)
            record_timeout(self.timeouts, self.events, req, now,
                           _stage(req, running=False))
        expired = [r for r in sched.running
                   if r.deadline_s is not None and now > r.deadline_s]
        for req in expired:
            sched.running.remove(req)
            self.pool.free(req.request_id)
            self._release(req)
            record_timeout(self.timeouts, self.events, req, now,
                           _stage(req, running=True))

    def _breaker_event(self, transition: str, start: float) -> None:
        self.events.append(TraceEvent(
            f"breaker/{transition}", start, 0.0,
            f"breaker-{transition}", "fault"))

    def breaker_allows(self, now: float) -> bool:
        """Whether the circuit breaker admits traffic at ``now``."""
        if self.breaker is None:
            return True
        was_open = self.breaker.state == "open"
        ok = self.breaker.available(now)
        if was_open and self.breaker.state == "half-open":
            self._breaker_event("half-open", now)
        return ok

    def breaker_admit(self, now: float) -> None:
        if self.breaker is not None:
            self.breaker.note_admit(now)

    def breaker_trip(self, now: float, hold_s: float) -> None:
        if self.breaker is not None:
            self.breaker.trip(now, hold_s)
            self._breaker_event("open", now)

    # -- fault-injection hooks (driven by the cluster simulator) --------
    def _slowdown(self) -> float:
        """Product of active stretch factors at the current clock.

        Windows that end at or before the clock are dropped: the clock
        never runs backwards, so they can never apply again.
        """
        clock = self.clock
        factor = 1.0
        live = []
        for window in self.slow_windows:
            start, end, f = window
            if end > clock:
                live.append(window)
                if start <= clock:
                    factor *= f
        self.slow_windows = live
        return factor

    def kill(self, now: float) -> None:
        """Fail the replica at ``now`` (a step boundary >= the onset)."""
        self.alive = False
        self.clock = max(self.clock, now)
        self._fault_event("fail", self.clock)

    def take_in_flight(self) -> list[tuple[Request, str]]:
        """Extract every routed-but-unfinished request (detection time).

        Frees the dead replica's pool allocations so a later
        :meth:`revive` starts from an empty pool; the caller owns the
        returned requests (they are failed over or abandoned).  Each
        comes with the stage it was in when the replica died, one of
        :data:`~repro.serving.results.TIMEOUT_STAGES`, for the timeout
        record should its deadline have passed.
        """
        sched = self.scheduler
        doomed = [(req, _stage(req, running=True)) for req in sched.running]
        doomed += [(req, _stage(req, running=False))
                   for req in sched.waiting]
        # Handed-off requests whose transfer has not departed yet die
        # with the replica too (their KV lived in its HBM).
        doomed += [(req, "handoff") for req, _ in self.outbox]
        self.outbox.clear()
        for req in sched.running:
            self.pool.free(req.request_id)
        sched.running.clear()
        sched.waiting.clear()
        for req, _ in doomed:
            self._release(req)
        if self.prefix_cache is not None:
            # A dead replica loses its HBM contents: drop every cached
            # block once the doomed requests' leases are gone.
            self.prefix_cache.clear()
        return doomed

    def revive(self, now: float) -> None:
        """Bring the replica back into the candidate set at ``now``."""
        self.alive = True
        self.healthy = True
        self.clock = max(self.clock, now)
        self._fault_event("recover", self.clock)

    def enqueue(self, request: Request, now: float) -> None:
        """Accept a routed request; the caller has lifted our clock."""
        self._event(request.request_id, "route", now)
        self.scheduler.submit(request)

    def _finish(self, request: Request) -> None:
        self._release(request)
        self.scheduler.finish(request, self.clock)
        self._event(request.request_id, "decode", request.first_token_time,
                    self.clock - request.first_token_time)
        self._event(request.request_id, "finish", self.clock)
        self.records.append(RequestRecord(
            request_id=request.request_id, arrival=request.arrival_time,
            admit=request.admit_time, first_token=request.first_token_time,
            finish=self.clock, prompt_len=request.prompt_len,
            output_len=len(request.output),
            preemptions=request.preemptions, retries=request.retries,
            deadline=request.deadline_s, degraded=request.degraded))
        self._probe_succeeded()

    def _probe_succeeded(self) -> None:
        """A request left this replica served: a half-open breaker closes."""
        if self.breaker is not None \
                and self.breaker.state == "half-open":
            self.breaker.note_success()
            self._breaker_event("close", self.clock)

    def _preempt(self, victim: Request) -> None:
        """Evict a running request back to the queue (recompute)."""
        self.scheduler.preempt(victim)
        self._release(victim)
        self._note(victim, "preempt")

    # -- disaggregation: prefill hand-off and decode import -------------
    def _hand_off(self, req: Request) -> None:
        """Prefill done: free local state, park in the outbox.

        The request leaves this replica's scheduler and pool at the
        handoff instant — the KV is on its way out, and the freed slots
        are what lets a dedicated prefill replica sustain throughput.
        The cluster drains the outbox after every step and turns each
        entry into a priced KV-transfer toward a decode replica.  A
        handoff is all a prefill replica ever completes, so it is what
        closes a half-open breaker there.
        """
        self._release(req)
        self.scheduler.running.remove(req)
        self.pool.free(req.request_id)
        self._event(req.request_id, "handoff", self.clock)
        self.outbox.append((req, self.clock))
        self._probe_succeeded()

    def _admit_imports(self) -> None:
        """Admission for decode-role replicas: import handed-off KV.

        The KV arrives already computed, so there is nothing to
        re-prefill and recompute-preemption is impossible here; instead
        the full worst-case context (``budget_tokens``) is reserved up
        front, so an imported request always runs to completion without
        evicting anyone.  ``admit_time`` / ``first_token_time`` keep the
        values the prefill replica set — TTFT was already served there.
        """
        sched = self.scheduler
        sched._sort_waiting()
        remaining: list[Request] = []
        for req in sched.waiting:
            if (len(sched.running) < sched.config.max_batch_size
                    and sched.batch_budget_tokens() + req.budget_tokens
                    <= sched.config.max_batch_tokens
                    and self.pool.allocate(req.request_id,
                                           req.budget_tokens)):
                req.state = RUNNING
                sched.running.append(req)
                self._event(req.request_id, "kv-import", self.clock)
            else:
                remaining.append(req)
        sched.waiting = remaining

    # -- the serving rules ----------------------------------------------
    def _admit(self, req: Request) -> None:
        """Start an admitted request: degrade, restore or match, prefill."""
        self._note(req, "admit")
        overload = self.overload
        if overload.degrading and len(self.scheduler.waiting) \
                >= overload.degrade_queue_depth:
            apply_degradation(req, overload.degrade_max_new_tokens)
            self._note(req, "degrade")
        if req.saved_kv is not None:
            # State-capture resume (sampled requests): re-import the
            # snapshot instead of re-prefilling — the output and RNG
            # stream survived the preemption, so decoding continues
            # exactly where it stopped.
            start = self.clock
            duration = self.cost.restore_time(req.saved_len)
            self.executor.restore(req)
            self.clock = start + duration
            self._event(req.request_id, "kv-restore", start, duration)
            return
        if self._cache_allowed(req):
            cache = self.prefix_cache
            match = cache.match(req.prompt)
            if match.hit:
                req.prefill_pos = match.tokens
                self.executor.adopt_prefix(req, match, cache)
            self._note(req, "cache-hit" if match.hit else "cache-miss")
        elif self.prefix_cache is not None:
            self.prefix_cache.stats.bypassed += 1
        if self.prefill_chunk is None:
            self._prefill(req, req.prompt_len - req.prefill_pos,
                          "prefill")
        # else: the prompt is encoded chunk by chunk, interleaved with
        # decode steps of the running batch.

    def _prefill(self, req: Request, tokens: int, stage: str) -> None:
        """Encode ``tokens`` more prompt positions; on the last, serve
        the first token.

        Positions already resident (an earlier chunk or a cached
        prefix) are priced as the HBM stream of their KV, not as
        compute.
        """
        prior = req.prefill_pos
        if prior:
            duration = self.cost.chunked_prefill_time(tokens, prior)
        else:
            duration = self.cost.prefill_time(tokens)
        if self.slow_windows:
            stretch = self._slowdown()
            if stretch != 1.0:
                duration *= stretch
        start = self.clock
        self.executor.prefill(req, tokens)
        self.clock = start + duration
        self._event(req.request_id, stage, start, duration)
        if req.prefill_pos < req.prompt_len:
            return
        if self._cache_allowed(req):
            self.prefix_cache.insert(req.prompt, self.executor.packed,
                                     req.slot)
        req.first_token_time = self.clock
        if req.done:
            self._finish(req)
        elif self.role == "prefill":
            self._hand_off(req)

    def step(self) -> None:
        """One scheduling iteration: admit + prefill, or one decode step."""
        if self._steps >= self.max_steps:
            raise RuntimeError(
                f"{self.name} exceeded {self.max_steps} steps")
        self._steps += 1
        sched = self.scheduler
        if self.deadline_checks:
            self._cancel_timeouts()

        # Requests admitted this round may all leave ``running`` again
        # within it (a prefill replica hands them off; any request can
        # finish at its first token) — progress that the deadlock guard
        # below must see, or the round would be declared stuck.
        progress = False
        if self.role == "decode":
            self._admit_imports()
        else:
            for req in sched.admit(self.clock):
                progress = True
                self._admit(req)
            if self.prefill_chunk is not None:
                target = next_prefill_target(sched.running)
                if target is not None:
                    progress = True
                    self._prefill(target, min(
                        self.prefill_chunk,
                        target.prompt_len - target.prefill_pos),
                        "prefill-chunk")

        if not sched.running:
            if sched.waiting and not progress:
                # Queue non-empty yet nothing admitted: the head request
                # fits alone (per validation), so only cached blocks
                # can be in its way — drain them before declaring
                # deadlock.
                if self.prefix_cache is not None \
                        and self._cache_reclaim(self.pool.num_blocks) > 0:
                    return
                raise RuntimeError(
                    f"{self.name} deadlock: empty batch but admission "
                    f"failed")
            return

        # One continuous-batching decode step over the running set
        # (requests still mid-prefill under chunking don't decode yet).
        batch = [r for r in sched.running
                 if r.prefill_pos >= r.prompt_len]
        # Speculative window for this step: k_eff drafted tokens plus
        # one bonus position, clipped by the tightest request's
        # sequence-length and output-budget headroom (a plain step is
        # spec_extra == 1).
        k_eff = 0
        spec_extra = 1
        if self.spec is not None and batch:
            ctx_max = max(r.context_len for r in batch)
            rem_min = min(r.max_new_tokens - len(r.output) for r in batch)
            k_eff = min(self.spec.k,
                        self.model_config.max_seq_len - 1 - ctx_max,
                        rem_min - 1)
            if k_eff >= 1:
                spec_extra = k_eff + 1
            else:
                k_eff = 0
        preempted = False
        for req in batch:
            if preempted and req not in sched.running:
                continue  # preempted earlier in this same step
            while not self.pool.allocate(req.request_id,
                                         req.context_len + spec_extra):
                # Unreferenced cache blocks are reclaimed before anyone
                # is preempted — eviction costs nothing, preemption
                # discards prefill progress.
                if self.prefix_cache is not None \
                        and self._cache_reclaim(1) > 0:
                    continue
                if spec_extra > 1:
                    # Never preempt anyone just to fit the speculative
                    # window: degrade to a plain single-token step for
                    # everyone instead.
                    k_eff = 0
                    spec_extra = 1
                    continue
                # Victim = youngest admission, *including* req itself
                # (vLLM recompute rule).  The oldest running request is
                # therefore never evicted, so it always completes —
                # without this, two requests crossing block boundaries
                # alternately can evict each other forever, each
                # eviction discarding all progress.
                victim = sched.running[-1]
                if victim is req:
                    # Under chunked prefill, first evict the youngest
                    # request still mid-prefill: it holds blocks it
                    # cannot use yet.  Otherwise the youngest decoder
                    # evicts itself, SRPT re-admits it as the shortest
                    # prefill, and the cycle repeats while the older
                    # mid-prefill requests never advance.
                    victim = next((r for r in reversed(sched.running)
                                   if r.prefill_pos < r.prompt_len), req)
                self._preempt(victim)
                preempted = True
                if victim is req:
                    break
        survivors = [r for r in batch if r in sched.running] \
            if preempted else batch
        if not survivors:
            return

        start = self.clock
        if k_eff >= 1:
            accepted = self.executor.verify(survivors, k_eff)
            self.spec_steps += 1
            self.draft_proposed += k_eff * len(survivors)
            self.draft_accepted += sum(accepted)
            total_ctx = sum(r.context_len for r in survivors)
            # One target verify pass: weights streamed ONCE for the
            # whole window — the speedup source.  The n-gram draft
            # runs no forward, so it adds nothing.
            step_s = self.cost.verify_step_time(len(survivors), total_ctx,
                                                k_eff + 1)
        else:
            self.executor.decode(survivors)
            total_ctx = sum(r.context_len for r in survivors)
            # Billed with the executed batch shape (no max(1, ...)
            # floor): a step that decodes nothing charges nothing.
            step_s = self.cost.decode_step_time(len(survivors), total_ctx)
        if self.slow_windows:
            stretch = self._slowdown()
            if stretch != 1.0:
                step_s *= stretch
        self.clock += step_s
        if k_eff >= 1:
            for req, acc in zip(survivors, accepted):
                stage = "spec-accept" if acc == k_eff else "spec-reject"
                self._event(req.request_id, stage, start,
                            self.clock - start)
        for req in survivors:
            if req.done:
                self._finish(req)
        self.timeline.append(TimelineSample(
            time=self.clock, queue_depth=sched.queue_depth,
            batch_size=len(survivors),
            pool_utilization=self.pool.utilization,
            context_tokens=total_ctx))

    def advance_to(self, t: float) -> None:
        """Run until the local clock reaches ``t`` (or the replica idles).

        A dead replica does no work; its clock still moves to ``t`` so
        that the revival time is well-ordered with the router's clock.
        """
        while self.clock < t and self.busy and self.alive:
            self.step()
        if self.clock < t:
            self.clock = t


def _stage(req: Request, running: bool) -> str:
    """Where ``req`` stands on its replica, as a timeout stage.

    A request whose prompt is fully prefilled is decoding, whether it
    runs or waits (a waiting one holds KV imported from a prefill
    replica); otherwise it is prefilling if running, and queued if
    waiting.
    """
    if req.prefill_pos >= req.prompt_len:
        return "decode"
    return "prefill" if running else "queued"
