"""Admission and continuous-batching scheduling.

Requests arrive over (virtual) time, wait in an admission queue, and are
folded into the running decode batch whenever the batch has room and the
KV pool can hold their prompt — *continuous batching* (Orca-style): the
batch re-forms every decode step instead of waiting for a full batch to
drain.

Two admission policies are provided:

``fcfs``
    Strict arrival order.
``spf``
    Shortest-prompt-first — cheap requests jump the queue, trading p99
    fairness for mean TTFT (the classic SJF trade-off, observable in the
    metrics).

When the pool cannot supply the next token's block, the replica core
(:mod:`repro.serving.replica`) preempts the *most recently admitted*
running request (LIFO victim choice, as in vLLM's recompute mode)
through :meth:`ContinuousBatchScheduler.preempt`: its blocks are freed
and it returns to the queue to be re-prefilled later.  Greedy
decoding makes recomputation produce identical tokens, so preemption is
invisible in outputs — only in latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kv_pool import PagedKVPool

__all__ = ["Request", "SchedulerConfig", "ContinuousBatchScheduler",
           "next_prefill_target", "PRIORITY_TIERS", "apply_degradation",
           "estimate_backlog_eta"]

_POLICIES = ("fcfs", "spf")

#: Request lifecycle states.
WAITING, RUNNING, FINISHED = "waiting", "running", "finished"

#: Priority tiers the load shedder distinguishes: ``batch`` requests are
#: shed before ``interactive`` ones under the ``priority`` shed policy.
PRIORITY_TIERS = ("interactive", "batch")


@dataclass(eq=False)
class Request:
    """One generation request moving through the serving stack.

    Requests compare by identity: the serving queues hold the very
    objects that were submitted, and ``list.remove`` or ``in`` on them
    must find that object, not one with equal fields (a field-wise
    comparison would also compare the ``prompt`` arrays).  A run
    rejects two requests with the same ``request_id``.
    """

    request_id: int
    prompt: np.ndarray
    max_new_tokens: int
    arrival_time: float = 0.0
    eos_id: int | None = None
    #: conversation this request belongs to (session workloads only)
    session_id: int | None = None
    #: absolute virtual-clock completion deadline (None = no TTL); a
    #: request not finished by then is cancelled and its state unwound
    deadline_s: float | None = None
    #: priority tier, one of :data:`PRIORITY_TIERS`
    tier: str = "interactive"
    #: True once degraded service mode touched this request (capped
    #: decode budget and/or bypassed prefix-cache admission)
    degraded: bool = False
    #: sampling temperature; 0 decodes greedily (the default, bit-for-bit
    #: the original engine behaviour), > 0 samples from the warped
    #: next-token distribution with optional ``top_k`` / ``top_p``
    temperature: float = 0.0
    top_k: int = 0
    top_p: float = 1.0
    #: seed of this request's private sampling stream (None derives the
    #: stream from ``request_id``), so reruns are reproducible
    sampling_seed: int | None = None

    # Runtime bookkeeping (owned by scheduler/engine).
    state: str = WAITING
    output: list[int] = field(default_factory=list)
    caches: list | None = None
    #: per-request np.random.Generator (lazily built; see make_rng)
    rng: object | None = field(default=None, repr=False)
    #: captured KV snapshot across preemption (sampled requests only):
    #: (k_parts, v_parts) from PackedKVPool.export_span
    saved_kv: tuple | None = field(default=None, repr=False)
    saved_len: int = 0
    #: leased PackedKVPool slot while running (owned by the engine)
    slot: int | None = None
    #: live prefix-cache lease (owned by the engine/replica)
    cache_match: object | None = None
    #: prompt tokens already encoded (chunked prefill progress)
    prefill_pos: int = 0
    admit_time: float | None = None
    first_token_time: float | None = None
    finish_time: float | None = None
    preemptions: int = 0
    retries: int = 0

    def __post_init__(self) -> None:
        self.prompt = np.asarray(self.prompt, dtype=np.int64).ravel()
        if self.prompt.size == 0:
            raise ValueError("prompt must be non-empty")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= self.arrival_time:
            raise ValueError("deadline_s must lie after arrival_time")
        if self.tier not in PRIORITY_TIERS:
            raise ValueError(f"tier must be one of {PRIORITY_TIERS}: "
                             f"{self.tier!r}")
        if self.temperature < 0.0:
            raise ValueError(f"temperature must be >= 0: {self.temperature}")
        if self.top_k < 0:
            raise ValueError(f"top_k must be >= 0: {self.top_k}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0, 1]: {self.top_p}")

    @property
    def prompt_len(self) -> int:
        return len(self.prompt)  # 1-D after __post_init__

    @property
    def context_len(self) -> int:
        """Tokens currently in the KV cache (prompt + generated)."""
        return len(self.prompt) + len(self.output)

    @property
    def budget_tokens(self) -> int:
        """Worst-case context this request can reach."""
        return self.prompt_len + self.max_new_tokens

    @property
    def done(self) -> bool:
        if len(self.output) >= self.max_new_tokens:
            return True
        return self.eos_id is not None and len(self.output) > 0 \
            and self.output[-1] == self.eos_id

    @property
    def sampling(self) -> bool:
        """True when this request samples (temperature > 0)."""
        return self.temperature > 0.0

    def make_rng(self):
        """This request's private sampling stream, created on first use.

        Seeded from ``sampling_seed`` (falling back to ``request_id``)
        through a ``SeedSequence`` — the same construction as
        :func:`repro.models.speculative.request_rng` — so an identical
        request produces identical draws across engine restarts.
        """
        if self.rng is None:
            seed = self.sampling_seed if self.sampling_seed is not None \
                else self.request_id
            self.rng = np.random.default_rng(
                np.random.SeedSequence(int(seed)))
        return self.rng

    def _capture_decode_state(self) -> bool:
        """Snapshot KV + keep output/rng across a preemption, if possible.

        Greedy requests recompute on resume (re-prefill reproduces the
        same tokens bit-for-bit, the original vLLM-recompute behaviour);
        a *sampling* request cannot replay its RNG stream, so it carries
        its decoded state across the preemption instead: the KV span is
        exported from the packed slot, the output list and generator
        survive, and resume re-imports the span without re-prefilling.
        Returns False (caller falls back to recompute) whenever the
        request has no private, fully-prefilled slot to export.
        """
        if not self.sampling or not self.output \
                or self.prefill_pos < self.prompt_len:
            return False
        if self.caches is None or self.slot is None:
            return False
        pool = getattr(self.caches[0], "pool", None)
        if pool is None or pool.refcount(self.slot) != 1:
            return False
        ctx = pool.length(0, self.slot)
        if ctx < 1:
            return False
        self.saved_kv = pool.export_span(self.slot, 0, ctx)
        self.saved_len = ctx
        return True

    def reset_for_requeue(self) -> None:
        """Drop generated state so the request can be re-prefilled.

        Sampled requests that can capture their decode state keep their
        output and RNG (see :meth:`_capture_decode_state`); everyone
        else recomputes from the prompt.
        """
        if self._capture_decode_state():
            self.caches = None
            self.prefill_pos = 0
            self.state = WAITING
            self.preemptions += 1
            return
        self.output.clear()
        self.caches = None
        self.rng = None
        self.saved_kv = None
        self.saved_len = 0
        self.prefill_pos = 0
        self.state = WAITING
        self.first_token_time = None
        self.preemptions += 1

    def reset_for_failover(self) -> None:
        """Drop *all* replica state so the request can re-route.

        Unlike :meth:`reset_for_requeue` (same replica, prompt still
        resident), failover lands on a different replica: admission
        restarts from scratch and the attempt counts toward ``retries``
        (a separate budget from ``preemptions``, which are benign).
        """
        self.output.clear()
        self.caches = None
        self.rng = None
        self.saved_kv = None
        self.saved_len = 0
        self.prefill_pos = 0
        self.state = WAITING
        self.admit_time = None
        self.first_token_time = None
        self.retries += 1


def next_prefill_target(running: list[Request]) -> Request | None:
    """Pick the running request whose prefill should advance next.

    Shortest-remaining-prefill-first (SRPT): among running requests
    still mid-prefill, the one with the fewest prompt tokens left, ties
    broken by admission order.  Plain FCFS chunking would still
    head-of-line block a late-arriving short prompt behind a long
    in-progress prefill; SRPT is what bounds the short's TTFT.
    """
    best: Request | None = None
    best_key: tuple | None = None
    for req in running:
        remaining = req.prompt_len - req.prefill_pos
        if remaining <= 0:
            continue
        key = (remaining, req.admit_time, req.request_id)
        if best_key is None or key < best_key:
            best, best_key = req, key
    return best


def apply_degradation(request: Request, max_new_tokens: int | None) -> None:
    """Put a request into degraded service mode.

    Caps the decode budget (if a cap is configured) and marks the
    request so downstream stages (prefix-cache admission, metrics) can
    see it ran degraded.  Idempotent: re-applying with the same cap is a
    no-op beyond the flag.
    """
    if max_new_tokens is not None and request.max_new_tokens > max_new_tokens:
        request.max_new_tokens = max(1, max_new_tokens)
    request.degraded = True


def estimate_backlog_eta(cost, backlog: list[Request], request: Request,
                         max_batch_size: int, servers: int = 1) -> float:
    """Optimistic seconds until ``request`` could finish behind ``backlog``.

    Prices the queued + in-flight work through the decode cost model:
    remaining prefills run serially, remaining decode tokens amortise
    over a full batch (perfect continuous batching), and the total
    divides across ``servers`` healthy replicas.  The estimate is
    deliberately *optimistic* — if even this lower bound lands past the
    request's deadline, the request provably cannot meet it and the
    ``deadline-estimate`` shed policy drops it at admission instead of
    letting it congest the queue.
    """
    work = list(backlog) + [request]
    prefill_s = 0.0
    decode_tokens = 0
    budgets = []
    for req in work:
        remaining_prompt = req.prompt_len - req.prefill_pos
        if remaining_prompt > 0:
            prefill_s += cost.prefill_time(remaining_prompt)
        decode_tokens += max(0, req.max_new_tokens - len(req.output))
        budgets.append(req.budget_tokens)
    seats = max(1, min(max_batch_size, len(work)))
    mean_ctx = sum(budgets) / len(budgets)
    step_s = cost.decode_step_time(seats, int(seats * mean_ctx))
    decode_s = decode_tokens * step_s / seats
    return (prefill_s + decode_s) / max(1, servers)


@dataclass(frozen=True)
class SchedulerConfig:
    """Batching knobs.

    ``max_batch_tokens`` bounds the *worst-case* token demand of the
    running set (sum of prompt + max_new_tokens), so an admitted batch
    can always finish without exceeding the budget it was admitted under.
    """

    policy: str = "fcfs"
    max_batch_size: int = 8
    max_batch_tokens: int = 4096

    def __post_init__(self) -> None:
        if self.policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}: "
                             f"{self.policy!r}")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_batch_tokens < 1:
            raise ValueError("max_batch_tokens must be >= 1")


class ContinuousBatchScheduler:
    """Admission queue + running batch over a shared paged KV pool."""

    def __init__(self, pool: PagedKVPool,
                 config: SchedulerConfig | None = None):
        self.pool = pool
        self.config = config or SchedulerConfig()
        self.waiting: list[Request] = []
        self.running: list[Request] = []
        self.total_preemptions = 0
        #: optional ``reclaim(blocks) -> freed`` hook: when admission
        #: fails on pool space, the scheduler asks the owner to release
        #: reclaimable blocks (prefix-cache LRU eviction) and retries —
        #: cache pressure resolves by eviction *before* preemption.
        self.reclaim = None

    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        request.state = WAITING
        self.waiting.append(request)

    def _sort_waiting(self) -> None:
        if self.config.policy == "spf":
            key = lambda r: (r.prompt_len, r.arrival_time, r.request_id)
        else:
            key = lambda r: (r.arrival_time, r.request_id)
        self.waiting.sort(key=key)

    def batch_budget_tokens(self) -> int:
        return sum(r.budget_tokens for r in self.running)

    # ------------------------------------------------------------------
    def admit(self, now: float) -> list[Request]:
        """Fold as many waiting requests into the batch as fit.

        A request is admitted when (a) the batch has a free slot, (b) its
        worst-case token demand fits the batch token budget, and (c) the
        pool can hold its prompt plus the first generated token.
        """
        if not self.waiting:
            return []
        self._sort_waiting()
        admitted: list[Request] = []
        remaining: list[Request] = []
        for req in self.waiting:
            if (len(self.running) < self.config.max_batch_size
                    and self.batch_budget_tokens() + req.budget_tokens
                    <= self.config.max_batch_tokens
                    and self._allocate_with_reclaim(req)):
                req.state = RUNNING
                req.admit_time = now
                self.running.append(req)
                admitted.append(req)
            else:
                remaining.append(req)
        self.waiting = remaining
        return admitted

    def _allocate_with_reclaim(self, req: Request) -> bool:
        """Pool-allocate for admission, reclaiming cache space if needed."""
        need = req.prompt_len + 1
        if self.pool.allocate(req.request_id, need):
            return True
        if self.reclaim is None:
            return False
        deficit = self.pool.blocks_needed(need) - self.pool.blocks_free
        if deficit > 0 and self.reclaim(deficit) < 1:
            return False
        return self.pool.allocate(req.request_id, need)

    # ------------------------------------------------------------------
    def preempt(self, request: Request) -> None:
        """Evict a specific running request (self-preemption)."""
        self.running.remove(request)
        self.pool.free(request.request_id)
        request.reset_for_requeue()
        self.waiting.append(request)
        self.total_preemptions += 1

    def finish(self, request: Request, now: float) -> None:
        self.running.remove(request)
        self.pool.free(request.request_id)
        request.state = FINISHED
        request.finish_time = now

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self.waiting)

    @property
    def idle(self) -> bool:
        return not self.waiting and not self.running
