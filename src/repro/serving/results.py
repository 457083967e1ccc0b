"""Shared result hierarchy for serving runs.

``ServeResult`` (one engine on one simulated GCD) and ``ClusterResult``
(many replicas across simulated Frontier nodes) share one base so that
any serving run — local benchmark or cluster sweep — answers the same
questions the same way: ``percentiles("ttft")``, ``to_dict()``,
``save_json()``.  Percentiles are computed from the per-request records,
not re-read from the aggregate metrics, so callers can ask for any
quantile, not just the ones :class:`ServingMetrics` pre-bakes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..profiling.export import save_lanes_chrome_trace
from ..profiling.tracer import TraceEvent
from .metrics import RequestRecord, ServingMetrics

__all__ = ["FailedRequest", "ServingResultBase", "ServeResult",
           "ShedRequest", "TimedOutRequest", "TransferRecord",
           "slo_availability"]

#: Per-request quantities ``percentiles`` knows how to extract.
_METRIC_FIELDS = ("ttft", "tpot", "latency")

#: Lifecycle stages a timed-out request can be cancelled in.
TIMEOUT_STAGES = ("queued", "prefill", "decode", "kv-in-flight", "handoff")


def slo_availability(records: list[RequestRecord], submitted: int,
                     slo_ttft_s: float | None = None) -> float:
    """SLO attainment: ``completed_within_slo / submitted``.

    The denominator is **every submitted request** — shed, timed-out,
    and failed requests all count against availability rather than
    silently shrinking the denominator (a shed request is a user who
    got no answer, exactly like a failed one).  The numerator is the
    completed requests whose TTFT met ``slo_ttft_s`` (bare completion
    when the SLO is None)::

        availability = |{r completed : ttft(r) <= slo}| / submitted
    """
    if submitted < 1:
        raise ValueError(f"submitted must be >= 1: {submitted}")
    if slo_ttft_s is None:
        within = len(records)
    else:
        within = sum(1 for r in records if r.ttft <= slo_ttft_s)
    return within / submitted


@dataclass(frozen=True)
class FailedRequest:
    """A request abandoned after exhausting its failover retries.

    The counterpart of :class:`~repro.serving.metrics.RequestRecord` for
    requests that never completed: the no-silent-drop invariant is that
    every submitted request ends in exactly one of the two lists.
    """

    request_id: int
    arrival: float
    failed_at: float
    retries: int
    prompt_len: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ShedRequest:
    """A request refused at admission by the load shedder.

    ``reason`` explains the decision: ``queue-full`` (bounded-queue /
    priority cap), ``deadline-unattainable`` (the cost-model estimate
    proved the deadline impossible), or ``priority-evict`` (a queued
    batch-tier request displaced by an arriving interactive one).
    """

    request_id: int
    arrival: float
    shed_at: float
    policy: str
    reason: str
    tier: str
    prompt_len: int
    deadline: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TimedOutRequest:
    """A request cancelled because its deadline passed.

    ``stage`` (one of :data:`TIMEOUT_STAGES`) names where in the
    lifecycle the cancellation unwound it — the accounting counterpart
    of the state-reclamation paths (pool slots, cache leases, in-flight
    KV) the cancellation released.
    """

    request_id: int
    arrival: float
    deadline: float
    cancelled_at: float
    stage: str
    prompt_len: int
    output_len: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TransferRecord:
    """One prefill→decode KV handoff priced on the interconnect.

    ``src``/``dst`` are ``(node_index, replica_index)`` pairs; ``start``
    is the virtual-clock instant the prefill replica finished (and the
    bytes hit the wire), ``duration_s`` the priced transfer time, after
    which the decode replica imports the span and continues.
    """

    request_id: int
    src: tuple[int, int]
    dst: tuple[int, int]
    tokens: int
    bytes: int
    start: float
    duration_s: float
    same_node: bool

    def to_dict(self) -> dict:
        data = asdict(self)
        data["src"] = list(self.src)
        data["dst"] = list(self.dst)
        return data


@dataclass
class ServingResultBase:
    """Records + aggregate metrics common to engine and cluster runs."""

    records: list[RequestRecord]
    metrics: ServingMetrics
    #: requests refused at admission by the load shedder
    shed_records: list[ShedRequest] = field(default_factory=list)
    #: requests cancelled mid-lifecycle after missing their deadline
    timeout_records: list[TimedOutRequest] = field(default_factory=list)

    def percentiles(self, metric: str = "ttft",
                    qs: tuple[float, ...] = (50.0, 95.0, 99.0)
                    ) -> dict[float, float]:
        """Quantiles of a per-request metric over the completed records.

        ``metric`` is one of ``ttft``, ``tpot`` (requests with more than
        one output token), or ``latency``.
        """
        if metric not in _METRIC_FIELDS:
            raise ValueError(f"metric must be one of {_METRIC_FIELDS}: "
                             f"{metric!r}")
        records = self.records
        if metric == "tpot":
            records = [r for r in records if r.output_len > 1]
        if not records:
            raise ValueError(f"no records with a defined {metric!r}")
        values = np.array([getattr(r, metric) for r in records])
        return {float(q): float(np.percentile(values, q)) for q in qs}

    def to_dict(self) -> dict:
        """JSON-ready view: aggregate metrics plus per-request records."""
        return {
            "metrics": asdict(self.metrics),
            "records": [asdict(r) for r in self.records],
            "shed": [s.to_dict() for s in self.shed_records],
            "timed_out": [t.to_dict() for t in self.timeout_records],
        }

    def save_json(self, path: str | Path) -> Path:
        """Write ``to_dict()`` as JSON; returns the path."""
        path = Path(path)
        if path.suffix != ".json":
            path = path.with_suffix(".json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path


@dataclass
class ServeResult(ServingResultBase):
    """Everything one single-engine serving run produced."""

    outputs: dict[int, np.ndarray] = field(default_factory=dict)
    #: process -> lane -> lifecycle events (Chrome-trace shaped): the
    #: engine's one-replica fleet lanes, ``cluster/router`` and
    #: ``node0/replica0 (TP=n)``, exactly as :attr:`ClusterResult.lanes`
    lanes: dict[str, dict[str, list[TraceEvent]]] = field(
        default_factory=dict)

    def save_trace(self, path: str | Path) -> Path:
        """Export the request-lifecycle trace as Chrome JSON."""
        return save_lanes_chrome_trace(self.lanes, path)

    def output_tokens(self, request_id: int) -> np.ndarray:
        try:
            return self.outputs[request_id]
        except KeyError:
            known = ", ".join(str(i) for i in sorted(self.outputs))
            raise ValueError(
                f"unknown request id {request_id}; known ids: "
                f"[{known}]") from None

    def to_dict(self) -> dict:
        data = super().to_dict()
        data["outputs"] = {str(i): tokens.tolist()
                           for i, tokens in sorted(self.outputs.items())}
        return data
