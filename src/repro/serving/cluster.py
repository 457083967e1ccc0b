"""Multi-node serving cluster simulator with traced request lifecycles.

PR 1 stopped at one engine on one simulated GCD; this module composes
many of them into a Frontier *cluster*: N nodes, each hosting replicas
laid out by a :class:`ReplicaLayout` (eight TP=1 replicas per node, or
one TP=8 replica spanning it), with a load balancer routing seeded
Poisson traffic across all replicas and per-replica admission
backpressure spilling into a cluster-level queue.

Each replica runs the one
:class:`~repro.serving.replica.ReplicaServer` core — scheduler, paged
KV pool, preemption, and every other serving rule.  By default the
replicas are *timing-level*: a :class:`TimingExecutor` decodes
sentinel tokens instead of running the NumPy model, so a 4-node ×
8-replica sweep over hundreds of requests costs milliseconds.  Given a
model, they run :class:`~repro.serving.engine.NumericExecutor` and
decode real tokens; :class:`~repro.serving.ServingEngine` is such a
fleet with one replica, so the router loop and the admission control
below are the engine's too.  Time comes from the same calibrated
stack — the roofline prices prefill, the HBM stream prices decode, and
TP layouts pay per-layer activation allreduces through
:class:`~repro.parallel.collectives.CollectiveModel`.

Every request emits lifecycle trace events (arrive → route → admit →
prefill → [preempt →] decode → finish) as
:class:`~repro.profiling.tracer.TraceEvent` spans, and
:meth:`ClusterResult.save_trace` exports them in the same Chrome-trace
format as the training profiles: one Perfetto track group per node, one
lane per replica, plus a cluster router lane for arrivals and
backpressure queueing.

Replicas carry a *role*: a colocated layout (``prefill_replicas=0``)
runs every replica as ``mixed`` — prefill and decode on the same pool,
exactly the pre-disaggregation behaviour — while a disaggregated layout
(``"2P6DxTP1"``) dedicates the first replicas of each node to prefill
and the rest to decode.  A prefill replica runs admission + (chunked)
prefill, emits the first token, then hands the request off: the packed
KV blocks ship to a decode replica as a cluster-level transfer event on
the virtual clock, priced per-layer or whole-cache through
:class:`~repro.serving.transfer.KVTransferModel` (Slingshot NIC across
nodes, Infinity Fabric within one), after which the decode replica
imports the span and continues generation.  Decode replicas reserve the
full worst-case context at import — the KV arrived computed, so there
is nothing to recompute and preemption is impossible there.  Transfers
get their own Chrome-trace lane (``cluster/kv-transfer``), and a
transfer in flight toward a replica that dies is re-queued through the
normal failover path, never dropped.

One router event loop runs every cluster, and it replays a seeded
:class:`~repro.faults.FaultModel` built from ``ClusterConfig.faults``:
replicas die on the virtual clock (a failure takes effect at the
victim's first step boundary at or after its onset — steps are
atomic), stay invisible to the router until the health check fires
``detection_s`` later, and rejoin ``recovery_s`` after death.
In-flight requests of a dead replica — including ones routed to it
during the detection window — are failed over: reset,
delayed by the capped-exponential-backoff-with-deterministic-jitter
:class:`~repro.faults.RetryPolicy`, and re-routed to survivors, or
abandoned as :class:`~repro.serving.results.FailedRequest` once their
retry budget is spent.  Stragglers stretch the victim's step durations
over their window; a degraded link stretches only the TP-allreduce
share of the affected node's replicas (TP=1 replicas pay nothing —
decode sends no cross-GCD traffic).  With ``faults`` unset, or every
process disabled (all-``inf`` rates), the fault stream is empty:
nothing dies or slows, and only arrivals and KV deliveries drive the
router.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re

import numpy as np
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..faults.model import FaultConfig, FaultEvent, FaultModel
from ..frontier.hardware import GCDSpec, NodeSpec
from ..models.config import ModelConfig
from ..parallel.collectives import CollectiveModel
from ..profiling.export import save_lanes_chrome_trace
from ..profiling.tracer import TraceEvent
from .config import (HANDOFF_POLICIES, LB_POLICIES, FailoverConfig,
                     KVTransferConfig, RoutingConfig, ServingConfig,
                     SpecDecodeConfig)
from .engine import DecodeCostModel, NumericExecutor
from .kv_pool import PagedKVPool
from .metrics import ServingMetrics
from .replica import REPLICA_ROLES, ReplicaServer
from .results import (FailedRequest, ServingResultBase, ShedRequest,
                      TimedOutRequest, TransferRecord, record_timeout,
                      slo_availability)
from .scheduler import Request, estimate_backlog_eta
from .transfer import KVTransferModel

__all__ = ["ReplicaLayout", "ClusterConfig", "ReplicaServer",
           "TimingExecutor", "ClusterSimulator", "ClusterResult",
           "LB_POLICIES", "HANDOFF_POLICIES", "REPLICA_ROLES",
           "format_cluster"]

#: Timing-level replicas decode this placeholder instead of real tokens;
#: it is outside every vocabulary, so an ``eos_id`` never matches and a
#: cluster request always runs to its ``max_new_tokens``.
_SENTINEL = -1


@dataclass(frozen=True)
class ReplicaLayout:
    """How one node's eight GCDs are carved into serving replicas.

    The two layouts the paper's Observation 2 contrasts for training
    reappear in serving: ``8xTP1`` (eight independent replicas, no
    communication, weights must fit one GCD) versus ``1xTP8`` (one
    replica sharding weights and KV across the node, paying the
    allreduce tax every decode step).

    ``prefill_replicas`` assigns roles: 0 (the default) keeps every
    replica ``mixed`` — the colocated baseline — while ``n > 0``
    dedicates the first ``n`` replicas of each node to prefill and the
    rest to decode (label ``"2P6DxTP1"``), with finished prefills
    shipping their KV to a decode replica.
    """

    replicas_per_node: int = 8
    tp: int = 1
    #: replicas per node dedicated to prefill (0 = colocated ``mixed``)
    prefill_replicas: int = 0

    def __post_init__(self) -> None:
        if self.replicas_per_node < 1:
            raise ValueError(
                f"replicas_per_node must be >= 1: {self.replicas_per_node}")
        if self.tp < 1:
            raise ValueError(f"tp must be >= 1: {self.tp}")
        if self.prefill_replicas < 0:
            raise ValueError(
                f"prefill_replicas must be >= 0: {self.prefill_replicas}")
        if self.prefill_replicas >= self.replicas_per_node \
                and self.prefill_replicas > 0:
            raise ValueError(
                f"prefill_replicas ({self.prefill_replicas}) must leave "
                f"at least one decode replica of the "
                f"{self.replicas_per_node} per node")

    @property
    def gcds_used(self) -> int:
        return self.replicas_per_node * self.tp

    @property
    def disaggregated(self) -> bool:
        return self.prefill_replicas > 0

    @property
    def decode_replicas(self) -> int:
        """Decode-role replicas per node (0 when colocated)."""
        if not self.disaggregated:
            return 0
        return self.replicas_per_node - self.prefill_replicas

    def role_of(self, replica_index: int) -> str:
        """Role of the ``replica_index``-th replica on any node."""
        if not 0 <= replica_index < self.replicas_per_node:
            raise ValueError(
                f"replica_index must be in [0, {self.replicas_per_node}): "
                f"{replica_index}")
        if not self.disaggregated:
            return "mixed"
        return "prefill" if replica_index < self.prefill_replicas \
            else "decode"

    @property
    def label(self) -> str:
        if self.disaggregated:
            return (f"{self.prefill_replicas}P"
                    f"{self.decode_replicas}DxTP{self.tp}")
        return f"{self.replicas_per_node}xTP{self.tp}"

    @classmethod
    def from_label(cls, label: str) -> "ReplicaLayout":
        """Parse ``"8xTP1"`` / ``"1xTP8"`` / ``"2P6DxTP1"`` labels."""
        try:
            replicas, tp_text = label.lower().split("xtp")
            tp = int(tp_text)
            roles = re.fullmatch(r"(\d+)p(\d+)d", replicas)
            if roles is not None:
                prefill, decode = int(roles.group(1)), int(roles.group(2))
                if prefill == 0:
                    raise ValueError
                per_node = prefill + decode
            else:
                prefill, per_node = 0, int(replicas)
        except (ValueError, TypeError):
            raise ValueError(
                f"layout must look like '8xTP1', '1xTP8', or '2P6DxTP1': "
                f"{label!r}"
            ) from None
        # Validation errors (e.g. zero decode replicas) surface as-is.
        return cls(replicas_per_node=per_node, tp=tp,
                   prefill_replicas=prefill)

    def validate(self, model_config: ModelConfig, node: NodeSpec,
                 gcd: GCDSpec) -> None:
        if self.gcds_used > node.num_gcds:
            raise ValueError(
                f"layout {self.label} needs {self.gcds_used} GCDs but a "
                f"node has {node.num_gcds}")
        weights = 2.0 * model_config.num_parameters() / self.tp
        if weights > gcd.hbm_bytes:
            raise ValueError(
                f"layout {self.label}: {weights / 1e9:.1f} GB of weights "
                f"per GCD exceed the {gcd.hbm_gb:.0f} GB HBM — raise tp")


@dataclass(frozen=True)
class ClusterConfig:
    """Topology, routing, transfer pricing, and per-replica knobs.

    ``serving`` configures every replica identically; its
    ``tensor_parallel`` field is superseded by ``layout.tp`` (the layout
    owns the node geometry).  Routing policy, the admission backpressure
    cap, and the prefill→decode handoff policy live in ``routing``;
    KV-shipment pricing for disaggregated layouts lives in ``transfer``.
    """

    num_nodes: int = 4
    layout: ReplicaLayout = ReplicaLayout()
    serving: ServingConfig = ServingConfig()
    routing: RoutingConfig = RoutingConfig()
    #: KV-transfer pricing (disaggregated layouts only)
    transfer: KVTransferConfig = KVTransferConfig()
    #: fault process to replay (None, or all-inf rates: an empty stream)
    faults: FaultConfig | None = None
    #: detection / recovery / retry semantics when ``faults`` is active
    failover: FailoverConfig = FailoverConfig()

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1: {self.num_nodes}")


class TimingExecutor:
    """Sentinel-token work for a timing-level cluster replica.

    No model runs: prefill and decode append :data:`_SENTINEL` tokens,
    and a speculative window keeps each drafted token with probability
    ``SpecDecodeConfig.acceptance`` until the first rejection (a seeded
    truncated-geometric draw), so the replica's queueing follows the
    engine's rules at a fraction of the cost.
    """

    #: no KV is held, so the prefix cache tracks token structure only
    packed = None

    def __init__(self, spec: SpecDecodeConfig | None, seed: tuple):
        self.acceptance = None
        self._rng = None
        if spec is not None:
            if spec.acceptance is None:
                raise ValueError(
                    "cluster replicas decode sentinel tokens, so "
                    "SpecDecodeConfig.acceptance (the assumed per-token "
                    "draft acceptance probability) must be set")
            self.acceptance = spec.acceptance
            self._rng = np.random.default_rng(np.random.SeedSequence(seed))

    def adopt_prefix(self, req: Request, match, cache) -> None:
        """Hold the match lease until the request leaves the replica.

        With no private KV copy, the lease is what keeps the shared
        prefix blocks resident while the request decodes over them.
        """
        req.cache_match = match

    def prefill(self, req: Request, tokens: int) -> None:
        req.prefill_pos += tokens
        if req.prefill_pos >= req.prompt_len:
            req.output.append(_SENTINEL)

    def decode(self, batch: list[Request]) -> None:
        for req in batch:
            req.output.append(_SENTINEL)

    def verify(self, batch: list[Request], k: int) -> list[int]:
        """Draw each request's accepted count; the bonus token always lands."""
        accepted = []
        for req in batch:
            room = min(k, req.max_new_tokens - len(req.output) - 1)
            n = 0
            while n < room and self._rng.random() < self.acceptance:
                n += 1
            req.output.extend([_SENTINEL] * (n + 1))
            accepted.append(n)
        return accepted


@dataclass
class ClusterResult(ServingResultBase):
    """Everything one cluster run produced (shares the serving base)."""

    policy: str = ""
    num_nodes: int = 0
    layout: str = ""
    #: request id -> (node, replica) it was last routed to, completed or not
    assignments: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: arrivals that hit cluster-level backpressure before routing
    queued_requests: int = 0
    #: process -> lane -> lifecycle events (Chrome-trace shaped)
    lanes: dict[str, dict[str, list[TraceEvent]]] = field(
        default_factory=dict)
    #: submitted requests = completed + failed + shed + timed out
    submitted: int = 0
    #: requests abandoned after exhausting their failover retries
    failed_records: list[FailedRequest] = field(default_factory=list)
    #: failover re-routes summed over completed and failed requests
    retries_total: int = 0
    #: fraction of submitted requests that completed within the TTFT SLO
    #: (bare completion when no SLO is configured); 1.0 without faults
    availability: float = 1.0
    #: the replayed fault schedule, as ``FaultEvent.to_dict()`` rows
    fault_events: list[dict] = field(default_factory=list)
    #: prefill→decode KV transfers priced on the interconnect
    transfers: int = 0
    #: total wire seconds across those transfers
    transfer_seconds: float = 0.0
    #: in-flight transfers re-queued because their destination died
    transfer_requeues: int = 0
    #: per-transfer detail (src/dst replica, tokens, bytes, duration)
    transfer_records: list[TransferRecord] = field(default_factory=list)
    #: deepest the cluster-level queue ever got.  A shed policy's
    #: ``max_queue_depth`` bounds what arrivals join; failover retries
    #: bypass it, so under faults this can exceed the cap.
    max_queue_depth: int = 0
    #: ``(time, depth)`` samples of the cluster queue, recorded whenever
    #: the depth changes (also exported as a Chrome-trace counter)
    queue_depth_series: list[tuple[float, int]] = field(
        default_factory=list)
    #: circuit-breaker trips summed over all replicas
    breaker_trips: int = 0

    def save_trace(self, path: str | Path) -> Path:
        """Export the lifecycle trace as Chrome JSON (one track per node)."""
        return save_lanes_chrome_trace(self.lanes, path)

    def to_dict(self) -> dict:
        data = super().to_dict()
        data.update(
            policy=self.policy, num_nodes=self.num_nodes,
            layout=self.layout, queued_requests=self.queued_requests,
            assignments={str(i): list(a)
                         for i, a in sorted(self.assignments.items())},
            submitted=self.submitted,
            failed=[f.to_dict() for f in self.failed_records],
            retries_total=self.retries_total,
            availability=self.availability,
            fault_events=self.fault_events,
            transfers=self.transfers,
            transfer_seconds=self.transfer_seconds,
            transfer_requeues=self.transfer_requeues,
            transfer_records=[t.to_dict()
                              for t in self.transfer_records],
            max_queue_depth=self.max_queue_depth,
            queue_depth_series=[list(s) for s in self.queue_depth_series],
            breaker_trips=self.breaker_trips)
        return data


class ClusterSimulator:
    """Route Poisson traffic across simulated Frontier serving nodes.

    Given a :class:`~repro.models.GPTModel` as ``model``, every replica
    runs it through a :class:`~repro.serving.engine.NumericExecutor`
    and decodes real tokens; without one, replicas run a
    :class:`TimingExecutor`.  A numeric fleet must be colocated: the
    numeric executor ships no KV between replicas.
    """

    def __init__(self, model_config: ModelConfig,
                 config: ClusterConfig | None = None, *,
                 gcd: GCDSpec | None = None, node: NodeSpec | None = None,
                 collectives: CollectiveModel | None = None, model=None):
        self.model_config = model_config
        self.config = config or ClusterConfig()
        self.gcd = gcd or GCDSpec()
        self.node = node or NodeSpec()
        layout = self.config.layout
        layout.validate(model_config, self.node, self.gcd)
        serving = self.config.serving
        if model is not None and layout.disaggregated:
            raise ValueError(
                f"layout {layout.label} is disaggregated, but a model "
                f"fleet ships no KV between replicas; use a colocated "
                f"layout or drop model=")
        cost = DecodeCostModel(
            model_config, gcd=self.gcd,
            step_overhead_s=serving.step_overhead_s, tp=layout.tp,
            collectives=collectives or CollectiveModel(self.node))
        pool_config = serving.pool_config()
        if pool_config.num_blocks is None and pool_config.hbm_gb is None:
            # A TP group aggregates its GCDs' HBM; the pool budget is
            # that aggregate minus the (unsharded-total) weights.
            pool_config = replace(pool_config,
                                  hbm_gb=layout.tp * self.gcd.hbm_gb)
        self.replicas = [
            ReplicaServer(n, r, model_config, serving, cost,
                          PagedKVPool(model_config, pool_config,
                                      gcd=self.gcd),
                          TimingExecutor(serving.spec_decode,
                                         (0x5BEC, n, r))
                          if model is None
                          else NumericExecutor(model, serving),
                          role=layout.role_of(r))
            for n in range(self.config.num_nodes)
            for r in range(layout.replicas_per_node)
        ]
        for i, replica in enumerate(self.replicas):
            replica.index = i
        self._rr_next = 0
        #: live busy replicas as ``(clock, flat index)``, validated
        #: lazily at the top (see :meth:`_laggard`); one entry each
        self._busy_heap: list[tuple[float, int]] = []
        self._in_busy_heap = [False] * len(self.replicas)
        #: the last advance target: every idle or dead replica's clock
        #: is at least this once :meth:`_lift` is applied to it
        self._floor = 0.0
        self._router_events: list[TraceEvent] = []
        self.assignments: dict[int, tuple[int, int]] = {}
        self._pending: list[Request] = []
        self._ran = False                 # run() is single-use
        # -- disaggregation state (all inert for colocated layouts) -----
        self.transfer_model = KVTransferModel(
            model_config, self.config.transfer,
            collectives=cost.collectives, node=self.node)
        #: in-flight KV transfers: (arrive_time, seq, request, src, dst)
        self._transfers: list[tuple[float, int, Request, int, int]] = []
        self._transfer_events: list[TraceEvent] = []
        #: transfers in flight toward each replica (flat index) — makes
        #: the handoff load metric see work the wire has not delivered
        self._inbound: dict[int, int] = {}
        self._handoff_next = 0            # handoff rotation cursor
        self._affinity: dict[int, int] = {}  # session -> decode replica
        self.transfer_records: list[TransferRecord] = []
        self.transfer_requeues = 0
        # -- overload state (inert under the default OverloadConfig) ----
        self._overload = serving.overload
        self._shed: list[ShedRequest] = []
        self._timed_out: list[TimedOutRequest] = []
        #: (time, depth) samples — recorded only once a queue appears,
        #: so queue-free runs carry no series (and no trace lane)
        self._queue_series: list[tuple[float, int]] = []
        #: the router's wall-clock view, advanced with each event; the
        #: breaker and pending-queue expiry need a "now" outside the
        #: arrival branches
        self._router_clock = 0.0
        self._has_deadlines = False
        # -- failover state (inert while the fault stream is empty) -----
        self._seq = itertools.count()     # heap tie-break counter
        self._deferred: list[tuple[float, int, Request]] = []  # retries
        self._detections: list[tuple[float, int, int]] = []
        self._recoveries: list[tuple[float, int, int]] = []
        self._failed: list[FailedRequest] = []
        self._fault_events: list[dict] = []

    # -- load balancing ------------------------------------------------
    def _best_replica(self, request: Request) -> ReplicaServer | None:
        """The replica ``request`` would route to, per policy, or None.

        One pass over the replicas in rotated order from the cursor.  A
        replica is eligible when it is healthy, prefill-capable, under
        the backpressure cap, and let through by its breaker (open ones
        are routed around; half-open ones admit only their probe
        allowance until a success closes them).  Each policy ranks the
        eligible replicas by a key and the first with the strictly
        smallest key wins, so ties go to the first replica at or after
        the cursor — a fixed lowest-index tie-break would funnel all
        ties onto the first replicas and leave the rest idle, which is
        exactly the imbalance a load balancer exists to avoid.

        No key is below 0, so under ``least-outstanding``, ``jskq`` and
        ``round-robin`` the pass stops at the first eligible replica
        whose key is 0 (an idle one; any one under round-robin): nothing
        after it can win.  The pass stays full under ``cache-aware``,
        whose key has no cheap floor, and while a breaker is armed,
        because asking an eligible replica's breaker half-opens an
        expired open one, and every eligible replica is asked.
        """
        routing = self.config.routing
        cap = routing.max_outstanding_per_replica
        policy = routing.policy
        breaker = self._overload.breaker
        early_exit = not breaker and policy != "cache-aware"
        now = self._router_clock
        replicas = self.replicas
        rr = self._rr_next
        best, best_key = None, None
        # Indices rr - R .. rr - 1 read replicas[rr:] (as negative
        # indices) and then replicas[:rr]: the rotated order, uncopied.
        for i in range(rr - len(replicas), rr):
            r = replicas[i]
            if not r.healthy or r.role == "decode":
                continue
            sched = r.scheduler
            outstanding = len(sched.waiting) + len(sched.running)
            if outstanding >= cap:
                continue
            if breaker and not r.breaker_allows(now):
                continue
            if policy == "least-outstanding":
                key = outstanding
            elif policy == "jskq":
                # Join the shortest KV queue — route by worst-case token
                # demand, so one long-context request counts for many
                # short.
                key = r.kv_demand_tokens
            elif policy == "cache-aware":
                # Longest cached prefix of this prompt first (a pure
                # peek — probing must not perturb the caches), then
                # least-outstanding.
                hit = r.prefix_cache.peek(request.prompt) \
                    if r.prefix_cache is not None else 0
                key = (-hit, outstanding)
            else:  # round-robin: the first eligible replica
                key = 0
            if best is None or key < best_key:
                best, best_key = r, key
                if early_exit and key == 0:
                    break
        return best

    def _choose(self, request: Request) -> ReplicaServer | None:
        """Pick a replica under the backpressure cap; moves the cursor."""
        chosen = self._best_replica(request)
        if chosen is not None:
            self._rr_next = (chosen.index + 1) % len(self.replicas)
        return chosen

    def _dispatch(self, request: Request, replica: ReplicaServer,
                  now: float) -> None:
        self.assignments[request.request_id] = (replica.node_index,
                                                replica.replica_index)
        replica.breaker_admit(now)
        self._enqueue(replica, request, now)

    def _dispatch_pending(self) -> None:
        """FIFO-drain the cluster queue into replicas that freed capacity."""
        if self._has_deadlines and self._pending:
            self._expire_pending(self._router_clock)
        while self._pending:
            replica = self._choose(self._pending[0])
            if replica is None:
                break
            request = self._pending.pop(0)
            self._dispatch(request, replica,
                           max(request.arrival_time, self._lift(replica)))
        self._sample_queue(self._router_clock)

    # -- the busy-replica heap and the idle-clock floor -----------------
    def _lift(self, replica: ReplicaServer) -> float:
        """Raise ``replica``'s clock to the floor; returns the clock.

        An idle or dead replica does no work, and its clock owes a lift
        to the last advance target.  The lift is applied here, where
        such a clock is read or the replica turns busy, instead of to
        every replica after every router event.  A live busy replica is
        already at or past the floor (each advance steps it there).
        """
        if replica.clock < self._floor:
            replica.clock = self._floor
        return replica.clock

    def _enqueue(self, replica: ReplicaServer, request: Request,
                 now: float) -> None:
        """Route ``request`` to ``replica``, which joins the busy heap."""
        self._lift(replica)
        replica.enqueue(request, now)
        if not self._in_busy_heap[replica.index]:
            self._in_busy_heap[replica.index] = True
            heapq.heappush(self._busy_heap, (replica.clock, replica.index))

    def _laggard(self) -> ReplicaServer | None:
        """The live busy replica with the smallest ``(clock, index)``.

        Heap entries are checked at the top: one whose replica idled or
        died is dropped, and one whose clock has moved on is pushed back
        at the current clock.  Clocks only grow, so every live busy
        replica keeps an entry at or below its clock, and the first top
        that checks out is exactly the minimum.
        """
        heap = self._busy_heap
        while heap:
            clock, i = heap[0]
            replica = self.replicas[i]
            if not (replica.alive and replica.busy):
                heapq.heappop(heap)
                self._in_busy_heap[i] = False
            elif replica.clock != clock:
                heapq.heapreplace(heap, (replica.clock, i))
            else:
                return replica
        return None

    def _live(self) -> bool:
        """Whether a request is queued, in flight, or on a replica (a dead
        one holds its requests until its pending detection fires)."""
        return bool(self._pending or self._deferred or self._transfers
                    or self._laggard() is not None
                    or any(self.replicas[flat].busy
                           for _, _, flat in self._detections))

    # -- overload: shedding, timeout bookkeeping, queue depth -----------
    def _sample_queue(self, now: float) -> None:
        """Record the cluster queue depth when it changes.

        The series starts at the first nonzero depth — a run that never
        queues carries no series (and therefore no counter lane in the
        trace), keeping queue-free runs' artifacts unchanged.
        """
        depth = len(self._pending)
        if not self._queue_series:
            if depth == 0:
                return
            self._queue_series.append((now, depth))
        elif self._queue_series[-1][1] != depth:
            self._queue_series.append((now, depth))

    def _expire_pending(self, now: float) -> None:
        """Drop cluster-queued requests whose deadline already passed."""
        kept = []
        for req in self._pending:
            if req.deadline_s is not None and now > req.deadline_s:
                record_timeout(self._timed_out, self._router_events, req,
                               now, "queued")
            else:
                kept.append(req)
        self._pending = kept

    def _shed_request(self, req: Request, now: float,
                      reason: str) -> None:
        self._shed.append(ShedRequest(
            request_id=req.request_id, arrival=req.arrival_time,
            shed_at=now, policy=self._overload.shed_policy,
            reason=reason, tier=req.tier, prompt_len=req.prompt_len,
            deadline=req.deadline_s))
        self._router_events.append(TraceEvent(
            f"req{req.request_id}/shed", now, 0.0, "shed", "io"))

    def _shed_reason(self, req: Request, now: float) -> str | None:
        """Admission-control verdict for an arrival; None admits it.

        Every policy judges at the arrival time.  ``deadline-estimate``
        prices the cluster-wide backlog (pending queue plus every
        healthy prefill-capable replica's work) through the shared cost
        model, spreading it across those replicas; arrivals whose
        deadline the optimistic estimate already breaks are provably
        unattainable.  ``bounded-queue`` and ``priority`` judge the
        queue the arrival would join: the cluster queue when requests
        wait there or no replica is under the backpressure cap, and
        otherwise the chosen replica's waiting queue.  ``priority``
        evicts from that same queue.
        """
        overload = self._overload
        policy = overload.shed_policy
        if policy == "deadline-estimate":
            if req.deadline_s is None:
                return None
            servers = [r for r in self.replicas
                       if r.alive and r.healthy and r.role != "decode"]
            if not servers:
                return None
            backlog = list(self._pending)
            for r in servers:
                backlog += r.scheduler.waiting
                backlog += r.scheduler.running
            eta = estimate_backlog_eta(
                servers[0].cost, backlog, req,
                servers[0].scheduler.config.max_batch_size,
                servers=len(servers))
            if now + overload.estimate_margin * eta > req.deadline_s:
                return "deadline-unattainable"
            return None
        chosen = None if self._pending else self._best_replica(req)
        queue = self._pending if chosen is None \
            else chosen.scheduler.waiting
        if len(queue) < overload.max_queue_depth:
            return None
        if policy == "bounded-queue" or req.tier == "batch":
            return "queue-full"
        # priority: an interactive arrival displaces the youngest queued
        # batch-tier request
        for i in range(len(queue) - 1, -1, -1):
            if queue[i].tier == "batch":
                self._shed_request(queue.pop(i), now, "priority-evict")
                return None
        return "queue-full"

    def _breaker_ready(self) -> float:
        """Earliest instant an open breaker half-opens (inf if none).

        An extra router event source: with every prefill-capable replica
        behind an open breaker and the fleet idle, nothing else would
        advance the clock to the point the pending queue can drain.
        """
        holds = [r.breaker.ready_at for r in self.replicas
                 if r.breaker is not None and r.healthy
                 and r.role != "decode" and r.breaker.state == "open"]
        return min(holds, default=math.inf)

    # -- prefill → decode handoff ---------------------------------------
    def _cycle_handoff(self,
                       candidates: list[ReplicaServer]) -> ReplicaServer:
        """Rotating pick among decode replicas: the first at or after
        its own cursor (sharing the arrival cursor would let handoffs
        perturb arrival placement)."""
        chosen = min(candidates,
                     key=lambda r: ((r.index - self._handoff_next)
                                    % len(self.replicas)))
        self._handoff_next = (chosen.index + 1) % len(self.replicas)
        return chosen

    def _choose_decode(self, req: Request) -> ReplicaServer | None:
        """Pick the decode replica a finished prefill ships its KV to.

        ``least-outstanding`` counts in-flight transfers toward a
        replica as load (the wire has committed them); ``session-
        affinity`` pins a session's turns to one decode replica so their
        decode contexts stay co-resident, re-pinning only when the
        sticky target is gone.  No backpressure cap applies: a handoff
        is mid-pipeline, the request already holds cluster resources.
        """
        candidates = [r for r in self.replicas
                      if r.healthy and r.role == "decode"]
        if not candidates:
            return None
        policy = self.config.routing.handoff
        if policy == "session-affinity" and req.session_id is not None:
            sticky = self._affinity.get(req.session_id)
            if sticky is not None:
                replica = self.replicas[sticky]
                if replica.healthy and replica.role == "decode":
                    return replica
        if policy == "round-robin":
            chosen = self._cycle_handoff(candidates)
        else:  # least-outstanding; also session-affinity's initial pin
            load = {r.index: r.outstanding + self._inbound.get(r.index, 0)
                    for r in candidates}
            best = min(load.values())
            chosen = self._cycle_handoff(
                [r for r in candidates if load[r.index] == best])
        if policy == "session-affinity" and req.session_id is not None:
            self._affinity[req.session_id] = chosen.index
        return chosen

    def _collect_outbox(self, src: ReplicaServer) -> None:
        """Turn ``src``'s completed prefills into in-flight KV transfers.

        Called after every replica step with the replica that stepped,
        the only one whose outbox can have grown: each outbox entry picks
        a decode replica, is priced through :class:`KVTransferModel`
        (Slingshot across nodes, Infinity Fabric within one), and joins
        the transfer heap to be delivered at ``handoff + duration``.
        """
        if not src.outbox:
            return
        entries, src.outbox = src.outbox, []
        for req, ready in entries:
            dst = self._choose_decode(req)
            if dst is None:
                # Every decode replica is down: ride the normal
                # failover path (re-prefill elsewhere later).
                self._fail_over(req, ready, "handoff")
                continue
            tokens = req.prefill_pos
            same_node = dst.node_index == src.node_index
            if req.deadline_s is not None \
                    and self.transfer_model.delivery_time(
                        tokens, ready, same_node=same_node) \
                    > req.deadline_s:
                # Dead on arrival: cancel the pending shipment instead
                # of burning wire time on doomed KV.
                record_timeout(self._timed_out, self._router_events, req,
                               ready, "handoff")
                continue
            duration = self.transfer_model.transfer_time(
                tokens, same_node=same_node)
            arrive = ready + duration
            self._inbound[dst.index] = self._inbound.get(dst.index, 0) + 1
            heapq.heappush(self._transfers,
                           (arrive, next(self._seq), req,
                            src.index, dst.index))
            self.transfer_records.append(TransferRecord(
                request_id=req.request_id,
                src=(src.node_index, src.replica_index),
                dst=(dst.node_index, dst.replica_index),
                tokens=tokens, bytes=self.transfer_model.bytes_for(tokens),
                start=ready, duration_s=duration, same_node=same_node))
            self._transfer_events.append(TraceEvent(
                f"req{req.request_id}/kv-transfer", ready, duration,
                "kv-transfer", "comm"))

    def _deliver(self) -> None:
        """Complete the earliest in-flight transfer at its destination."""
        arrive, _, req, _src, dst_flat = heapq.heappop(self._transfers)
        self._inbound[dst_flat] -= 1
        dst = self.replicas[dst_flat]
        if not dst.healthy:  # pragma: no cover — detection re-queues
            # in-flight transfers toward a dead replica before this
            # can fire; kept as a defensive no-silent-drop backstop.
            self.transfer_requeues += 1
            self._transfer_events.append(TraceEvent(
                f"req{req.request_id}/kv-requeue", arrive, 0.0,
                "kv-requeue", "comm"))
            self._fail_over(req, arrive, stage="kv-in-flight")
            return
        # A dead-but-undetected destination accepts the import into its
        # queue — the same stale-router window arrivals see; detection
        # fails the request over with the rest of its in-flight work.
        self.assignments[req.request_id] = (dst.node_index,
                                            dst.replica_index)
        self._enqueue(dst, req, max(arrive, self._lift(dst)))

    def _requeue_transfers(self, dst_flat: int, now: float) -> None:
        """Failover: re-queue in-flight transfers toward a dead replica.

        No silent drop — each affected request rides the normal retry
        path (backoff, re-route, re-prefill), exactly like the dead
        replica's resident requests.  Transfers *from* a dead replica
        are unaffected: their bytes already left its HBM.
        """
        kept = []
        for entry in self._transfers:
            if entry[4] != dst_flat:
                kept.append(entry)
                continue
            req = entry[2]
            self._inbound[dst_flat] -= 1
            self.transfer_requeues += 1
            self._transfer_events.append(TraceEvent(
                f"req{req.request_id}/kv-requeue", now, 0.0,
                "kv-requeue", "comm"))
            self._fail_over(req, now, stage="kv-in-flight")
        if len(kept) != len(self._transfers):
            self._transfers = kept
            heapq.heapify(self._transfers)

    # ------------------------------------------------------------------
    def run(self, requests: list[Request]) -> ClusterResult:
        """Serve the workload to completion across all nodes.

        A simulator serves one run: its replicas keep their records,
        clocks and pools, and the router its queues, so a second call
        raises instead of mixing two runs' accounting.  So does the
        :class:`~repro.serving.ServingEngine` built on it.  Request ids
        must be unique: pool leases, records and assignments are keyed
        by them.
        """
        if self._ran:
            raise RuntimeError(
                "this ClusterSimulator has already served a run; build "
                "a new ClusterSimulator (or ServingEngine) for each run")
        if not requests:
            raise ValueError("no requests to serve")
        seen: set[int] = set()
        for req in requests:
            if req.request_id in seen:
                raise ValueError(
                    f"duplicate request id {req.request_id}: every "
                    f"request of a run needs its own id")
            seen.add(req.request_id)
        self.replicas[0].validate(requests)
        self._ran = True
        arrivals = sorted(requests, key=lambda r: (r.arrival_time,
                                                   r.request_id))
        self._has_deadlines = any(r.deadline_s is not None
                                  for r in arrivals)
        for replica in self.replicas:
            replica.deadline_checks = self._has_deadlines
        return self._assemble(arrivals, self._event_loop(arrivals))

    def _advance_replicas(self, t_target: float) -> float:
        """Advance the fleet to ``t_target``, collecting handoffs.

        Steps the laggard among busy replicas one at a time so a
        prefill completing mid-advance can schedule a KV delivery
        *earlier* than the target — the target then shrinks so the
        delivery is processed in clock order.  Returns the (possibly
        shrunk) target, which becomes the floor that idle and dead
        replicas' clocks are lifted to (see :meth:`_lift`).
        """
        while True:
            laggard = self._laggard()
            if laggard is None or laggard.clock >= t_target:
                break
            laggard.step()
            self._collect_outbox(laggard)
            if self._transfers and self._transfers[0][0] < t_target:
                t_target = self._transfers[0][0]
        self._floor = max(self._floor, t_target)
        return t_target

    def _event_loop(self, arrivals: list[Request]) -> int:
        """Route arrivals through the fault process; returns queued.

        Runs while an arrival is left or a request is live.  The router's
        next event is the earliest of: arrival, health-check detection,
        replica recovery, retry-backoff expiry, KV-transfer delivery, and
        (breaker armed, requests queued) an open breaker half-opening.
        Fault onsets at or before that instant are applied first (each
        takes effect at its victim's next step boundary), so no replica
        computes past an unapplied fault, and onsets up to the router
        event after the last outcome are still recorded.  A fault-free
        cluster replays an empty fault stream: only arrivals and KV
        deliveries remain as events.
        """
        fm = FaultModel(self.config.faults or FaultConfig(),
                        len(self.replicas),
                        gcds_per_component=self.config.layout.tp,
                        num_link_domains=self.config.num_nodes)
        fo = self.config.failover
        queued = 0
        index = 0  # next arrival
        while index < len(arrivals) or self._live():
            t_arrive = arrivals[index].arrival_time \
                if index < len(arrivals) else math.inf
            t_detect = self._detections[0][0] \
                if self._detections else math.inf
            t_recover = self._recoveries[0][0] \
                if self._recoveries else math.inf
            t_retry = self._deferred[0][0] if self._deferred else math.inf
            t_deliver = self._transfers[0][0] if self._transfers \
                else math.inf
            t_breaker = self._breaker_ready() \
                if self._overload.breaker and self._pending else math.inf
            t_router = min(t_arrive, t_detect, t_recover, t_retry,
                           t_deliver, t_breaker)

            if math.isinf(t_router):
                # No router events left: drain survivors, still letting
                # fault onsets they reach interrupt them.
                laggard = self._laggard()
                if laggard is None:
                    break
                if fm.peek_time() <= laggard.clock:
                    self._apply_fault(fm.pop())
                else:
                    laggard.step()
                    self._router_clock = max(self._router_clock,
                                             laggard.clock)
                    self._collect_outbox(laggard)
                    self._dispatch_pending()
                continue

            if fm.peek_time() <= t_router:
                self._apply_fault(fm.pop())
                continue

            t_router = self._advance_replicas(t_router)
            self._router_clock = max(self._router_clock, t_router)
            self._dispatch_pending()
            if index == len(arrivals) and not self._live():
                break  # the advance finished the work

            # Equal-time ties resolve detection -> recovery -> delivery
            # -> retry -> arrival: a router must notice a death before
            # it can route around it, revive, deliver into the slot, or
            # hand it to new work.  A mid-advance handoff can shrink
            # t_router below every queue head — then only the delivery
            # branch can fire.
            t_deliver = self._transfers[0][0] if self._transfers \
                else math.inf
            if t_detect == t_router:
                _, _, flat = heapq.heappop(self._detections)
                replica = self.replicas[flat]
                replica.healthy = False
                replica._fault_event("detect", t_router)
                # Open the breaker across the expected outage: detection
                # fires detection_s after death, recovery recovery_s, so
                # the remaining downtime is their difference (a fail-stop
                # replica never returns — hold the breaker open forever).
                replica.breaker_trip(
                    t_router, math.inf if fo.fail_stop
                    else fo.recovery_s - fo.detection_s)
                for req, stage in replica.take_in_flight():
                    self._fail_over(req, t_router, stage)
                # In-flight transfers toward the dead replica are
                # re-queued with its resident requests — never dropped.
                self._requeue_transfers(flat, t_router)
            elif t_recover == t_router:
                _, _, flat = heapq.heappop(self._recoveries)
                replica = self.replicas[flat]
                self._lift(replica)
                replica.revive(t_router)
                self._dispatch_pending()
            elif t_deliver <= t_router:
                self._deliver()
            elif t_retry == t_router:
                # Retries bypass admission control: the request already
                # holds mid-pipeline investment (a served TTFT, billed
                # prefill) that shedding it would discard.
                _, _, req = heapq.heappop(self._deferred)
                self._route_or_queue(req, t_router)
            elif t_arrive > t_router:
                # Breaker-reopen tick: _dispatch_pending above already
                # routed what the half-open breaker's probes admit.
                continue
            else:
                req = arrivals[index]
                index += 1
                self._router_events.append(TraceEvent(
                    f"req{req.request_id}/arrive", t_router, 0.0,
                    "arrive", "io"))
                if self._overload.shedding:
                    reason = self._shed_reason(req, t_router)
                    if reason is not None:
                        self._shed_request(req, t_router, reason)
                        self._sample_queue(t_router)
                        continue
                if self._route_or_queue(req, t_router):
                    queued += 1

        if self._pending:
            raise ValueError(
                f"cluster has zero surviving replicas: "
                f"{len(self._pending)} requests cannot be served because "
                f"every replica failed and recovery_s="
                f"{fo.recovery_s} never revives one; set a finite "
                f"recovery_s or raise mtbf_hours "
                f"(={fm.config.mtbf_hours})")
        return queued

    def _route_or_queue(self, req: Request, now: float) -> bool:
        """Dispatch ``req`` at ``now``, or queue it; True if it queued.

        Backpressure: a request queues when every replica is at its
        admission cap, or when earlier requests are still queued ahead
        of it (the cluster queue is FIFO).
        """
        replica = self._choose(req) if not self._pending else None
        if replica is None:
            self._router_events.append(TraceEvent(
                f"req{req.request_id}/queue", now, 0.0, "queue", "io"))
            self._pending.append(req)
            self._sample_queue(now)
            return True
        self._dispatch(req, replica, now)
        return False

    # -- faults and failover --------------------------------------------
    def _apply_fault(self, event: FaultEvent) -> None:
        """Take one sampled fault into effect at its victim."""
        self._fault_events.append(event.to_dict())
        if event.kind == "failure":
            fo = self.config.failover
            replica = self.replicas[event.component]
            if not replica.alive:
                return  # struck an already-down replica: absorbed
            # The victim finishes steps it started before the onset
            # (steps are atomic); death lands on the first boundary
            # at or after it.
            self._lift(replica)
            while replica.alive and replica.busy \
                    and replica.clock < event.time_s:
                replica.step()
                self._collect_outbox(replica)
                self._dispatch_pending()
            replica.kill(event.time_s)
            heapq.heappush(self._detections,
                           (replica.clock + fo.detection_s,
                            next(self._seq), replica.index))
            if not fo.fail_stop:
                heapq.heappush(self._recoveries,
                               (replica.clock + fo.recovery_s,
                                next(self._seq), replica.index))
        elif event.kind == "straggler":
            replica = self.replicas[event.component]
            replica.slow_windows.append(
                (event.time_s, event.time_s + event.window_s,
                 event.factor))
            replica._fault_event("straggler", event.time_s,
                                 event.window_s)
            # A straggler is overload's soft failure: open the breaker
            # across the slow window so fresh traffic routes around it.
            replica.breaker_trip(event.time_s, event.window_s)
        else:  # link-degrade: the component is a *node* index
            for replica in self.replicas:
                if replica.node_index != event.component:
                    continue
                if replica.comm_fraction <= 0.0:
                    continue  # TP=1 decode sends no cross-GCD traffic
                # Only the allreduce share slows by 1/factor.
                stretch = 1.0 + replica.comm_fraction \
                    * (1.0 / event.factor - 1.0)
                replica.slow_windows.append(
                    (event.time_s, event.time_s + event.window_s,
                     stretch))
                replica._fault_event("link-degrade", event.time_s,
                                     event.window_s)

    def _fail_over(self, req: Request, now: float, stage: str) -> None:
        """Re-queue a killed request with backoff, or abandon it.

        An expired deadline short-circuits the retry: there is no point
        re-prefilling work whose answer can no longer arrive in time.
        ``stage`` names where the request was when its replica (or its
        KV transfer's destination) died, for the timeout record.
        """
        if req.deadline_s is not None and now > req.deadline_s:
            record_timeout(self._timed_out, self._router_events, req, now,
                           stage)
            return
        retry = self.config.failover.retry
        if req.retries >= retry.max_retries:
            self._failed.append(FailedRequest(
                request_id=req.request_id, arrival=req.arrival_time,
                failed_at=now, retries=req.retries,
                prompt_len=req.prompt_len))
            self._router_events.append(TraceEvent(
                f"req{req.request_id}/failed", now, 0.0, "failed", "io"))
            return
        req.reset_for_failover()
        ready = now + retry.delay(req.request_id, req.retries)
        heapq.heappush(self._deferred,
                       (ready, next(self._seq), req))
        self._router_events.append(TraceEvent(
            f"req{req.request_id}/retry", now, 0.0, "retry", "io"))

    # -- result assembly ------------------------------------------------
    def _assemble(self, arrivals: list[Request],
                  queued: int) -> ClusterResult:
        submitted = len(arrivals)
        records = sorted((rec for r in self.replicas for rec in r.records),
                         key=lambda rec: rec.request_id)
        failed = sorted(self._failed, key=lambda f: f.request_id)
        shed = sorted(self._shed, key=lambda s: s.request_id)
        timed_out = sorted(self._timed_out + [t for r in self.replicas
                                              for t in r.timeouts],
                           key=lambda t: t.request_id)
        if len(records) + len(failed) + len(shed) + len(timed_out) \
                != submitted:
            raise RuntimeError(  # pragma: no cover — simulator invariant
                f"request accounting broken: {len(records)} completed + "
                f"{len(failed)} failed + {len(shed)} shed + "
                f"{len(timed_out)} timed out != {submitted} submitted")
        if not records:
            fo = self.config.failover
            faults = self.config.faults
            raise ValueError(
                f"no requests completed: all {submitted} were shed "
                f"({len(shed)}), timed out ({len(timed_out)}), or "
                f"exhausted max_retries={fo.retry.max_retries} under "
                f"mtbf_hours="
                f"{faults.mtbf_hours if faults else math.inf}; relax "
                f"the overload policy, raise max_retries, shorten "
                f"recovery_s, or raise mtbf_hours")
        timeline = sorted((s for r in self.replicas for s in r.timeline),
                          key=lambda s: s.time)
        cache_stats = None
        caches = [r.prefix_cache for r in self.replicas
                  if r.prefix_cache is not None]
        if caches:
            cache_stats = caches[0].stats
            for extra in caches[1:]:
                cache_stats = cache_stats.merged(extra.stats)
        metrics = ServingMetrics.from_records(
            records, timeline,
            makespan=max(rec.finish for rec in records),
            peak_pool_utilization=max(r.pool.peak_utilization
                                      for r in self.replicas),
            preemptions=sum(r.scheduler.total_preemptions
                            for r in self.replicas),
            cache=cache_stats, shed=len(shed), timed_out=len(timed_out),
            deadline_total=sum(1 for r in arrivals
                               if r.deadline_s is not None),
            spec_steps=sum(r.spec_steps for r in self.replicas),
            draft_proposed=sum(r.draft_proposed for r in self.replicas),
            draft_accepted=sum(r.draft_accepted for r in self.replicas))
        slo = self.config.failover.slo_ttft_s
        lanes: dict[str, dict[str, list[TraceEvent]]] = {
            "cluster": {"router": self._router_events}}
        if self.config.layout.disaggregated:
            # Transfers get their own lane next to the router: wire time
            # is cluster-level, owned by neither endpoint replica.
            lanes["cluster"]["kv-transfer"] = self._transfer_events
        if self._queue_series:
            # Queue depth as a counter lane: each sample's value rides
            # the TraceEvent duration slot (the exporter turns
            # category="counter" into Chrome ``ph: "C"`` events).
            lanes["cluster"]["queue-depth"] = [
                TraceEvent("cluster-queue-depth", t, float(depth),
                           "counter", "io")
                for t, depth in self._queue_series]
        for replica in self.replicas:
            role = f", {replica.role}" if replica.role != "mixed" else ""
            lanes.setdefault(f"node{replica.node_index}", {})[
                f"replica{replica.replica_index} "
                f"(TP={self.config.layout.tp}{role})"] = replica.events
        return ClusterResult(
            records=records, metrics=metrics,
            shed_records=shed, timeout_records=timed_out,
            policy=self.config.routing.policy,
            num_nodes=self.config.num_nodes,
            layout=self.config.layout.label,
            assignments=self.assignments, queued_requests=queued,
            lanes=lanes, submitted=submitted, failed_records=failed,
            retries_total=sum(rec.retries for rec in records)
            + sum(f.retries for f in failed),
            availability=slo_availability(records, submitted, slo),
            fault_events=self._fault_events,
            transfers=len(self.transfer_records),
            transfer_seconds=sum(t.duration_s
                                 for t in self.transfer_records),
            transfer_requeues=self.transfer_requeues,
            transfer_records=self.transfer_records,
            max_queue_depth=max((d for _, d in self._queue_series),
                                default=0),
            queue_depth_series=list(self._queue_series),
            breaker_trips=sum(r.breaker.trips for r in self.replicas
                              if r.breaker is not None))


def format_cluster(results: list[ClusterResult],
                   title: str = "cluster sweep") -> str:
    """Render per-policy/per-size results as an aligned comparison table."""
    if not results:
        raise ValueError("no cluster results to format")
    header = ["policy", "nodes", "layout", "p50 TTFT", "p99 TTFT",
              "p50 TPOT", "p99 TPOT", "tok/s", "preempt", "queued",
              "avail", "retries", "failed", "hit%", "saved"]
    with_transfers = any(res.transfers for res in results)
    if with_transfers:
        header += ["xfers", "xfer ms", "requeued"]
    with_overload = any(res.metrics.shed or res.metrics.timed_out
                        or res.metrics.degraded for res in results)
    if with_overload:
        header += ["shed", "t/o", "degr", "goodput", "attain"]
    rows = []
    for res in results:
        ttft = res.percentiles("ttft", (50.0, 99.0))
        tpot = res.percentiles("tpot", (50.0, 99.0))
        m = res.metrics
        row = [
            res.policy, str(res.num_nodes), res.layout,
            f"{ttft[50.0] * 1e3:.2f} ms", f"{ttft[99.0] * 1e3:.2f} ms",
            f"{tpot[50.0] * 1e3:.2f} ms", f"{tpot[99.0] * 1e3:.2f} ms",
            f"{m.tokens_per_s:.0f}",
            str(m.preemptions), str(res.queued_requests),
            f"{res.availability:.1%}", str(res.retries_total),
            str(len(res.failed_records)),
            f"{m.cache_hit_rate:.0%}" if m.cache_lookups else "-",
            str(m.prefill_tokens_saved) if m.cache_lookups else "-"]
        if with_transfers:
            mean_ms = res.transfer_seconds / res.transfers * 1e3 \
                if res.transfers else 0.0
            row += [str(res.transfers), f"{mean_ms:.3f}",
                    str(res.transfer_requeues)]
        if with_overload:
            row += [str(m.shed), str(m.timed_out), str(m.degraded),
                    f"{m.goodput_tokens_per_s:.0f}",
                    f"{m.deadline_attainment:.1%}"]
        rows.append(row)
    widths = [max(len(header[i]), max(len(row[i]) for row in rows))
              for i in range(len(header))]
    lines = [title, "-" * len(title),
             "  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines += ["  ".join(cell.ljust(widths[i])
                        for i, cell in enumerate(row)) for row in rows]
    return "\n".join(lines)
