"""Serving metrics: latency distributions, throughput, occupancy.

The vocabulary is the standard serving one:

TTFT
    Time to first token — arrival until the prefill's first emission.
    What a user perceives as "it started answering".
TPOT
    Time per output token after the first — the streaming rate.
Latency
    Arrival to final token.

All times are virtual-clock seconds from the engine's deterministic cost
model, so every percentile below is reproducible bit-for-bit under a
fixed workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RequestRecord", "TimelineSample", "ServingMetrics",
           "format_metrics"]


@dataclass
class RequestRecord:
    """Completed-request timings (all virtual-clock seconds).

    Built once per finished request on the serving hot path, so a plain
    dataclass rather than a frozen one; treat it as read-only.
    """

    request_id: int
    arrival: float
    admit: float
    first_token: float
    finish: float
    prompt_len: int
    output_len: int
    preemptions: int = 0
    retries: int = 0
    #: absolute completion deadline the request carried (None = no TTL)
    deadline: float | None = None
    #: True when degraded service mode touched this request
    degraded: bool = False

    @property
    def met_deadline(self) -> bool:
        """Completed in time (vacuously true without a deadline)."""
        return self.deadline is None or self.finish <= self.deadline

    @property
    def ttft(self) -> float:
        return self.first_token - self.arrival

    @property
    def latency(self) -> float:
        return self.finish - self.arrival

    @property
    def tpot(self) -> float:
        """Seconds per output token after the first (0 for 1-token outputs)."""
        if self.output_len <= 1:
            return 0.0
        return (self.finish - self.first_token) / (self.output_len - 1)


@dataclass
class TimelineSample:
    """One decode-step snapshot of engine state.

    Built once per decode step, so a plain dataclass rather than a
    frozen one; treat it as read-only.
    """

    time: float
    queue_depth: int
    batch_size: int
    pool_utilization: float
    context_tokens: int = 0  # total in-flight context across the batch


@dataclass(frozen=True)
class ServingMetrics:
    """Aggregate view of one serving run."""

    num_requests: int
    total_output_tokens: int
    makespan: float
    tokens_per_s: float
    ttft_mean: float
    ttft_p50: float
    ttft_p95: float
    tpot_mean: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    mean_batch_size: float
    mean_context_tokens: float
    peak_queue_depth: int
    peak_pool_utilization: float
    preemptions: int
    # Prefix-cache counters (all zero when the cache is disabled).
    cache_lookups: int = 0
    cache_hits: int = 0
    cache_hit_rate: float = 0.0
    prefill_tokens_saved: int = 0
    cache_evicted_blocks: int = 0
    # Overload counters (all zero / identity when protection is off).
    shed: int = 0
    timed_out: int = 0
    degraded: int = 0
    #: fraction of deadline-bearing submissions that finished in time
    deadline_attainment: float = 1.0
    #: output tokens from requests that met their deadline, per second
    #: (equals ``tokens_per_s`` when no request carries a deadline)
    goodput_tokens_per_s: float = 0.0
    # Speculative-decoding counters (all zero when spec decode is off).
    spec_steps: int = 0
    draft_proposed: int = 0
    draft_accepted: int = 0
    #: fraction of drafted tokens the target verified and kept
    acceptance_rate: float = 0.0

    @classmethod
    def from_records(cls, records: list[RequestRecord],
                     timeline: list[TimelineSample], makespan: float,
                     peak_pool_utilization: float = 0.0,
                     preemptions: int = 0,
                     cache=None, shed: int = 0, timed_out: int = 0,
                     deadline_total: int | None = None,
                     spec_steps: int = 0, draft_proposed: int = 0,
                     draft_accepted: int = 0) -> "ServingMetrics":
        if not records:
            raise ValueError("no completed requests to aggregate")
        ttft = np.array([r.ttft for r in records])
        lat = np.array([r.latency for r in records])
        tpot = np.array([r.tpot for r in records if r.output_len > 1])
        tokens = int(sum(r.output_len for r in records))
        batches = np.array([s.batch_size for s in timeline]) if timeline \
            else np.array([1.0])
        ctx = np.array([s.context_tokens for s in timeline]) if timeline \
            else np.array([0.0])
        queue = max((s.queue_depth for s in timeline), default=0)
        # Deadline attainment: met / total deadline-bearing submissions.
        # Callers that shed or cancel requests pass the true denominator
        # via ``deadline_total``; by default only completions count.
        met = sum(1 for r in records
                  if r.deadline is not None and r.met_deadline)
        if deadline_total is None:
            deadline_total = sum(1 for r in records
                                 if r.deadline is not None)
        good_tokens = sum(r.output_len for r in records if r.met_deadline)
        return cls(
            num_requests=len(records),
            total_output_tokens=tokens,
            makespan=float(makespan),
            tokens_per_s=tokens / makespan if makespan > 0 else 0.0,
            ttft_mean=float(ttft.mean()),
            ttft_p50=float(np.percentile(ttft, 50)),
            ttft_p95=float(np.percentile(ttft, 95)),
            tpot_mean=float(tpot.mean()) if tpot.size else 0.0,
            latency_p50=float(np.percentile(lat, 50)),
            latency_p95=float(np.percentile(lat, 95)),
            latency_p99=float(np.percentile(lat, 99)),
            mean_batch_size=float(batches.mean()),
            mean_context_tokens=float(ctx.mean()),
            peak_queue_depth=int(queue),
            peak_pool_utilization=float(peak_pool_utilization),
            preemptions=int(preemptions),
            cache_lookups=cache.lookups if cache else 0,
            cache_hits=cache.hits if cache else 0,
            cache_hit_rate=cache.hit_rate if cache else 0.0,
            prefill_tokens_saved=cache.hit_tokens if cache else 0,
            cache_evicted_blocks=cache.evicted_blocks if cache else 0,
            shed=int(shed),
            timed_out=int(timed_out),
            degraded=sum(1 for r in records if r.degraded),
            deadline_attainment=(met / deadline_total
                                 if deadline_total else 1.0),
            goodput_tokens_per_s=(good_tokens / makespan
                                  if makespan > 0 else 0.0),
            spec_steps=int(spec_steps),
            draft_proposed=int(draft_proposed),
            draft_accepted=int(draft_accepted),
            acceptance_rate=(draft_accepted / draft_proposed
                             if draft_proposed else 0.0),
        )

    def rows(self) -> list[tuple[str, str]]:
        ms = lambda s: f"{s * 1e3:.2f} ms"
        return [
            ("requests completed", str(self.num_requests)),
            ("output tokens", str(self.total_output_tokens)),
            ("makespan", f"{self.makespan:.3f} s"),
            ("throughput", f"{self.tokens_per_s:.1f} tok/s"),
            ("TTFT mean / p50 / p95",
             f"{ms(self.ttft_mean)} / {ms(self.ttft_p50)} / "
             f"{ms(self.ttft_p95)}"),
            ("TPOT mean", ms(self.tpot_mean)),
            ("latency p50 / p95 / p99",
             f"{ms(self.latency_p50)} / {ms(self.latency_p95)} / "
             f"{ms(self.latency_p99)}"),
            ("mean batch size", f"{self.mean_batch_size:.2f}"),
            ("peak queue depth", str(self.peak_queue_depth)),
            ("KV pool peak occupancy",
             f"{self.peak_pool_utilization:.1%}"),
            ("preemptions", str(self.preemptions)),
        ] + ([
            ("prefix cache hit rate",
             f"{self.cache_hit_rate:.1%} "
             f"({self.cache_hits}/{self.cache_lookups})"),
            ("prefill tokens saved", str(self.prefill_tokens_saved)),
            ("cache blocks evicted", str(self.cache_evicted_blocks)),
        ] if self.cache_lookups else []) + ([
            ("shed / timed out / degraded",
             f"{self.shed} / {self.timed_out} / {self.degraded}"),
            ("deadline attainment", f"{self.deadline_attainment:.1%}"),
            ("goodput", f"{self.goodput_tokens_per_s:.1f} tok/s"),
        ] if self.shed or self.timed_out or self.degraded
            or self.deadline_attainment < 1.0 else []) + ([
            ("speculative steps", str(self.spec_steps)),
            ("draft acceptance",
             f"{self.acceptance_rate:.1%} "
             f"({self.draft_accepted}/{self.draft_proposed})"),
        ] if self.spec_steps else [])


def format_metrics(metrics: ServingMetrics,
                   title: str = "serving metrics") -> str:
    """Render the metrics as an aligned two-column text table."""
    rows = metrics.rows()
    width = max(len(k) for k, _ in rows)
    lines = [title, "-" * len(title)]
    lines += [f"{k:<{width}}  {v}" for k, v in rows]
    return "\n".join(lines)
