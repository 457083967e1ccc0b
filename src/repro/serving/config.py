"""The one serving configuration object.

PR 1 grew the engine organically: pool geometry lived in
:class:`KVPoolConfig`, batching knobs in :class:`SchedulerConfig`, cost
knobs in ``DecodeCostModel`` arguments, and ``serve-bench`` re-plumbed
each as a CLI flag.  The cluster layer composes *many* engines, so the
knobs are gathered here once: a frozen :class:`ServingConfig` describes
one replica completely, and both :class:`~repro.serving.ServingEngine`
and :class:`~repro.serving.cluster.ClusterSimulator` consume it.  The
old per-piece configs remain as the internal representation —
``ServingConfig`` is the public face that builds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..faults.model import RetryPolicy
from ..frontier.hardware import GCDSpec
from ..models.config import ModelConfig
from .kv_pool import KVPoolConfig, PagedKVPool
from .scheduler import SchedulerConfig

__all__ = ["FailoverConfig", "KVTransferConfig", "OverloadConfig",
           "RoutingConfig", "ServingConfig", "SpecDecodeConfig",
           "LB_POLICIES", "HANDOFF_POLICIES", "SHED_POLICIES",
           "TRANSFER_GRANULARITIES", "DRAFT_SOURCES"]

#: Load-balancing policies the cluster router understands.
#: ``cache-aware`` routes to the replica whose radix prefix cache holds
#: the longest prefix of the prompt (SGLang-style cache-aware load
#: balancing); without prefix caches it degenerates to least-outstanding.
LB_POLICIES = ("round-robin", "least-outstanding", "jskq", "cache-aware")

#: Prefill → decode handoff policies for disaggregated layouts.
HANDOFF_POLICIES = ("least-outstanding", "round-robin", "session-affinity")

#: How a finished prefill's KV cache is shipped to its decode replica.
TRANSFER_GRANULARITIES = ("layer", "cache")

#: Load-shedding policies the admission controller understands.
#: ``none`` admits everything (today's behaviour); ``bounded-queue``
#: sheds arrivals once the admission queue is at ``max_queue_depth``;
#: ``deadline-estimate`` prices the backlog through the decode cost
#: model and sheds requests that provably cannot meet their deadline;
#: ``priority`` is ``bounded-queue`` that sheds ``batch``-tier requests
#: before ``interactive`` ones (evicting queued batch work if needed).
SHED_POLICIES = ("none", "bounded-queue", "deadline-estimate", "priority")

#: Draft proposers for speculative decoding: ``model`` runs a tiny
#: seeded draft model in lockstep with the target; ``ngram`` is
#: prompt-lookup decoding (free, no draft forward).
DRAFT_SOURCES = ("model", "ngram")


@dataclass(frozen=True)
class SpecDecodeConfig:
    """Speculative decoding knobs (see :mod:`repro.models.speculative`).

    ``k``
        Tokens drafted per verify window; each speculative step emits
        between 1 and ``k + 1`` tokens per request.
    ``draft``
        One of :data:`DRAFT_SOURCES`.  ``model`` builds a shrunken
        seeded :class:`~repro.models.transformer.GPTModel` sharing the
        target's vocabulary; ``ngram`` proposes by prompt lookup.
    ``draft_layers`` / ``draft_hidden``
        Geometry of the ``model`` draft: depth, and optional width
        (``None`` keeps the target width).  Ignored for ``ngram``.
    ``draft_seed``
        Initialization seed of the ``model`` draft — part of the
        deterministic run description.
    ``ngram_n``
        Lookup n-gram length for the ``ngram`` draft.
    ``acceptance``
        Assumed per-token acceptance probability for *timing-level*
        simulation (:class:`~repro.serving.cluster.ClusterSimulator`
        replicas decode placeholder tokens and cannot measure real
        acceptance).  Required there; ignored by the live engine, which
        measures acceptance.
    """

    k: int = 4
    draft: str = "model"
    draft_layers: int = 1
    draft_hidden: int | None = None
    draft_seed: int = 0x5EED
    ngram_n: int = 3
    acceptance: float | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1: {self.k}")
        if self.draft not in DRAFT_SOURCES:
            raise ValueError(
                f"draft must be one of {DRAFT_SOURCES}: {self.draft!r}")
        if self.draft_layers < 1:
            raise ValueError(
                f"draft_layers must be >= 1: {self.draft_layers}")
        if self.draft_hidden is not None and self.draft_hidden < 1:
            raise ValueError(
                f"draft_hidden must be >= 1 (or None): {self.draft_hidden}")
        if self.ngram_n < 1:
            raise ValueError(f"ngram_n must be >= 1: {self.ngram_n}")
        if self.acceptance is not None \
                and not 0.0 <= self.acceptance <= 1.0:
            raise ValueError(
                f"acceptance must be in [0, 1] (or None): "
                f"{self.acceptance}")

    def build_proposer(self, model_config: ModelConfig, num_slots: int,
                       block_tokens: int = 16):
        """Instantiate the draft proposer for a live engine."""
        from ..models.speculative import (ModelDraft, NGramDraft,
                                          draft_model_config)
        from ..models.transformer import GPTModel
        if self.draft == "ngram":
            return NGramDraft(self.ngram_n)
        draft_cfg = draft_model_config(model_config,
                                       num_layers=self.draft_layers,
                                       hidden_size=self.draft_hidden)
        draft = GPTModel(draft_cfg, seed=self.draft_seed)
        return ModelDraft(draft, num_slots, block_tokens=block_tokens)

    def draft_config(self, model_config: ModelConfig) -> ModelConfig | None:
        """The draft's :class:`ModelConfig`, or None for ``ngram``."""
        if self.draft == "ngram":
            return None
        from ..models.speculative import draft_model_config
        return draft_model_config(model_config,
                                  num_layers=self.draft_layers,
                                  hidden_size=self.draft_hidden)


@dataclass(frozen=True)
class OverloadConfig:
    """Overload protection and graceful degradation knobs.

    The default instance is a **bit-for-bit no-op**: shedding off, no
    degraded mode, no circuit breaker.  With no request deadlines set,
    an engine or cluster run under ``OverloadConfig()`` reproduces the
    pre-overload behaviour exactly (pinned by parity tests).

    ``shed_policy``
        One of :data:`SHED_POLICIES`; applied at admission time.
    ``max_queue_depth``
        Queue cap for the ``bounded-queue`` and ``priority`` policies
        (required by them, ignored by the others).
    ``estimate_margin``
        Safety factor on the ``deadline-estimate`` backlog estimate;
        values > 1 shed more aggressively.
    ``degrade_queue_depth``
        Entering degraded service mode: requests admitted while the
        queue is at least this deep get their decode budget capped to
        ``degrade_max_new_tokens`` and (if ``degrade_bypass_cache``)
        skip prefix-cache admission.  ``None`` disables degraded mode.
    ``breaker`` / ``breaker_cooldown_s`` / ``breaker_probes``
        Per-replica circuit breaker over fault signals: a health-check
        detection or straggler onset trips the breaker open; after the
        fault window plus ``breaker_cooldown_s`` it half-opens and
        admits up to ``breaker_probes`` probe requests, closing on the
        first probe that completes (on a prefill replica, the first
        that hands its KV off).
    """

    shed_policy: str = "none"
    max_queue_depth: int | None = None
    estimate_margin: float = 1.0
    degrade_queue_depth: int | None = None
    degrade_max_new_tokens: int | None = None
    degrade_bypass_cache: bool = True
    breaker: bool = False
    breaker_cooldown_s: float = 0.25
    breaker_probes: int = 2

    def __post_init__(self) -> None:
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}: "
                f"{self.shed_policy!r}")
        if self.shed_policy in ("bounded-queue", "priority") \
                and self.max_queue_depth is None:
            raise ValueError(
                f"shed_policy {self.shed_policy!r} requires max_queue_depth")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1 (or None): "
                f"{self.max_queue_depth}")
        if not self.estimate_margin > 0:
            raise ValueError(
                f"estimate_margin must be > 0: {self.estimate_margin}")
        if self.degrade_queue_depth is not None \
                and self.degrade_queue_depth < 1:
            raise ValueError(
                f"degrade_queue_depth must be >= 1 (or None): "
                f"{self.degrade_queue_depth}")
        if self.degrade_max_new_tokens is not None \
                and self.degrade_max_new_tokens < 1:
            raise ValueError(
                f"degrade_max_new_tokens must be >= 1 (or None): "
                f"{self.degrade_max_new_tokens}")
        if not self.breaker_cooldown_s > 0:
            raise ValueError(
                f"breaker_cooldown_s must be > 0: {self.breaker_cooldown_s}")
        if self.breaker_probes < 1:
            raise ValueError(
                f"breaker_probes must be >= 1: {self.breaker_probes}")

    @property
    def shedding(self) -> bool:
        return self.shed_policy != "none"

    @property
    def degrading(self) -> bool:
        return self.degrade_queue_depth is not None

    @property
    def active(self) -> bool:
        """True when any overload-protection feature is switched on."""
        return self.shedding or self.degrading or self.breaker


@dataclass(frozen=True)
class ServingConfig:
    """Everything one serving replica needs, in one frozen object.

    Scheduler policy and batch geometry mirror :class:`SchedulerConfig`;
    pool geometry mirrors :class:`KVPoolConfig`; ``step_overhead_s`` and
    ``tensor_parallel`` feed the decode cost model; ``max_steps`` bounds
    the engine loop (a livelock becomes an error, not a hang).
    """

    # Scheduler / batching.
    policy: str = "fcfs"
    max_batch_size: int = 8
    max_batch_tokens: int = 4096
    # KV-pool geometry.
    block_size: int = 16
    num_blocks: int | None = None
    hbm_gb: float | None = None
    dtype_bytes: int = 2
    # Cost-model knobs.
    step_overhead_s: float = 250e-6
    tensor_parallel: int = 1
    # Prefill chunking: encode prompts in chunks of at most this many
    # tokens, interleaved with decode steps of the running batch, so a
    # long prompt no longer stalls everyone else's TTFT.  ``None`` keeps
    # the original monolithic prefill.
    prefill_chunk_tokens: int | None = None
    # Radix prefix cache: reuse KV of previously prefilled prompt
    # prefixes (block granularity).  Cached blocks are charged to the
    # paged pool, so the cache competes with requests for HBM and is
    # LRU-evicted under pressure before any preemption.
    prefix_cache: bool = False
    prefix_cache_blocks: int = 64
    # Overload protection (deadlines, load shedding, degraded mode,
    # circuit breaker).  The default is a bit-for-bit no-op.
    overload: OverloadConfig = OverloadConfig()
    # Speculative decoding (None = plain one-token-per-step decoding).
    spec_decode: SpecDecodeConfig | None = None
    # Engine loop bound.
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        # Delegate validation to the configs this one expands into, so
        # the error messages (and the rules) stay in one place each.
        self.scheduler_config()
        self.pool_config()
        if self.tensor_parallel < 1:
            raise ValueError(
                f"tensor_parallel must be >= 1: {self.tensor_parallel}")
        if self.step_overhead_s < 0:
            raise ValueError(
                f"step_overhead_s must be >= 0: {self.step_overhead_s}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1: {self.max_steps}")
        if self.prefill_chunk_tokens is not None \
                and self.prefill_chunk_tokens < 1:
            raise ValueError(
                f"prefill_chunk_tokens must be >= 1 (or None): "
                f"{self.prefill_chunk_tokens}")
        if self.prefix_cache_blocks < 1:
            raise ValueError(
                f"prefix_cache_blocks must be >= 1: "
                f"{self.prefix_cache_blocks}")

    # ------------------------------------------------------------------
    def scheduler_config(self) -> SchedulerConfig:
        return SchedulerConfig(policy=self.policy,
                               max_batch_size=self.max_batch_size,
                               max_batch_tokens=self.max_batch_tokens)

    def pool_config(self) -> KVPoolConfig:
        return KVPoolConfig(block_size=self.block_size,
                            dtype_bytes=self.dtype_bytes,
                            num_blocks=self.num_blocks,
                            hbm_gb=self.hbm_gb)

    def build_pool(self, model_config: ModelConfig,
                   gcd: GCDSpec | None = None) -> PagedKVPool:
        """Instantiate the paged KV pool this config describes."""
        return PagedKVPool(model_config, self.pool_config(), gcd=gcd)

    def build_prefix_cache(self, model_config: ModelConfig,
                           pool: PagedKVPool, *, store_kv: bool = True):
        """Instantiate the radix prefix cache, or None when disabled.

        ``store_kv=True`` (engine) stores real K/V entries; ``False``
        (timing-level cluster replicas) tracks structure only.  Either
        way cached blocks are charged to ``pool``.
        """
        if not self.prefix_cache:
            return None
        from .prefix_cache import RadixPrefixCache
        return RadixPrefixCache(
            block_tokens=self.block_size,
            capacity_blocks=self.prefix_cache_blocks,
            num_layers=model_config.num_layers,
            num_kv_heads=model_config.kv_heads,
            head_dim=model_config.head_dim,
            store_kv=store_kv, paged_pool=pool)

    def build_cost_model(self, model_config: ModelConfig,
                         gcd: GCDSpec | None = None, collectives=None):
        """Instantiate the decode cost model (TP-aware when tp > 1)."""
        from .engine import DecodeCostModel
        return DecodeCostModel(model_config, gcd=gcd,
                               step_overhead_s=self.step_overhead_s,
                               tp=self.tensor_parallel,
                               collectives=collectives)


@dataclass(frozen=True)
class RoutingConfig:
    """How the cluster router places work on replicas.

    ``policy`` places *arrivals* (and failover retries) on
    prefill-capable replicas; ``handoff`` places finished prefills on
    decode replicas in disaggregated layouts (ignored for colocated
    ones).  ``max_outstanding_per_replica`` is the admission
    backpressure cap: a replica already holding that many unfinished
    requests refuses new ones, and when every replica refuses, arrivals
    wait in the cluster queue — which is exactly what pushes the
    cluster-level TTFT tail out under overload.
    """

    policy: str = "round-robin"
    max_outstanding_per_replica: int = 32
    handoff: str = "least-outstanding"

    def __post_init__(self) -> None:
        if self.policy not in LB_POLICIES:
            raise ValueError(
                f"policy must be one of {LB_POLICIES}: {self.policy!r}")
        if self.max_outstanding_per_replica < 1:
            raise ValueError(
                f"max_outstanding_per_replica must be >= 1: "
                f"{self.max_outstanding_per_replica}")
        if self.handoff not in HANDOFF_POLICIES:
            raise ValueError(
                f"handoff must be one of {HANDOFF_POLICIES}: "
                f"{self.handoff!r}")


@dataclass(frozen=True)
class KVTransferConfig:
    """How prefill→decode KV shipment is priced on the interconnect.

    ``granularity="layer"`` ships each layer's K/V span as its own
    point-to-point message — the natural unit of
    :meth:`~repro.models.packed_kv.PackedKVPool.export_span`, and it
    pays the per-message latency ``num_layers`` times.  ``"cache"``
    ships the whole packed cache as one message (one latency, same
    bytes): the best case for deep models with short prompts.
    ``dtype_bytes`` sizes the wire format (2 = fp16/bf16 KV).
    """

    granularity: str = "layer"
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        if self.granularity not in TRANSFER_GRANULARITIES:
            raise ValueError(
                f"granularity must be one of {TRANSFER_GRANULARITIES}: "
                f"{self.granularity!r}")
        if self.dtype_bytes < 1:
            raise ValueError(
                f"dtype_bytes must be >= 1: {self.dtype_bytes}")


@dataclass(frozen=True)
class FailoverConfig:
    """How the cluster rides out replica failures.

    ``detection_s`` is the health-check latency: between a replica's
    death and its detection the router keeps routing to it (those
    requests join the failover batch when the check fires).
    ``recovery_s`` is how long a failed replica stays down before
    rejoining the candidate set (``math.inf`` = fail-stop, the replica
    never returns).  ``retry`` shapes the capped exponential backoff a
    failed-over request waits before re-routing; a request killed more
    than ``retry.max_retries`` times is abandoned and reported in
    :attr:`~repro.serving.cluster.ClusterResult.failed_records`.
    ``slo_ttft_s`` defines availability: the fraction of submitted
    requests that completed with TTFT within the SLO (``None`` counts
    bare completion).
    """

    detection_s: float = 0.005
    recovery_s: float = 2.0
    retry: RetryPolicy = RetryPolicy()
    slo_ttft_s: float | None = None

    def __post_init__(self) -> None:
        if self.detection_s < 0:
            raise ValueError(
                f"detection_s must be >= 0: {self.detection_s}")
        if not self.recovery_s > 0:
            raise ValueError(
                f"recovery_s must be > 0 (math.inf = fail-stop): "
                f"{self.recovery_s}")
        if self.detection_s > self.recovery_s:
            raise ValueError(
                f"detection_s ({self.detection_s}) must be <= recovery_s "
                f"({self.recovery_s}): a replica cannot rejoin the router "
                f"before its failure was even detected")
        if self.slo_ttft_s is not None and not self.slo_ttft_s > 0:
            raise ValueError(
                f"slo_ttft_s must be > 0 (or None): {self.slo_ttft_s}")

    @property
    def fail_stop(self) -> bool:
        return math.isinf(self.recovery_s)
