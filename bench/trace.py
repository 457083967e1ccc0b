"""In-memory span tracer for the traced benchmark run.

The benchmark installs timing wrappers from outside the program: each
entry of :data:`SPANS` replaces a public entry point of a ``repro``
module with a wrapper that records a span (name, start, end, parent)
and the span's *self* time (its duration minus the time of the spans
it encloses).  A name is patched where its caller looks it up — e.g.
``spec_decode_step`` is bound into ``repro.serving.engine`` by a
``from … import`` at module load, so that is the module patched.
Entries of :data:`COUNTS` are called too often for a span to be cheap
(``ReplicaServer.busy`` runs millions of times at 128 replicas) and get
count-only wrappers.

Nothing in ``src/`` changes: :meth:`Tracer.install` patches, and
:meth:`Tracer.uninstall` restores the originals.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = ["COUNTS", "SPANS", "Tracer", "span_metrics"]

#: Spans kept for the Chrome trace; later non-root spans are counted
#: (and timed) but not written, which bounds memory and file size.
MAX_TRACE_SPANS = 100_000

#: Timed entry points: (span name, module, attribute path).
SPANS = [
    ("models.decode_step", "repro.models.transformer",
     "GPTModel.decode_step_batched"),
    ("models.prefill", "repro.models.transformer", "GPTModel._forward_cached"),
    ("models.verify_step", "repro.models.transformer",
     "GPTModel.verify_step_batched"),
    ("models.attention", "repro.models.attention",
     "CausalSelfAttention.forward"),
    ("models.attention", "repro.models.attention",
     "CausalSelfAttention.forward_cached"),
    ("models.attention", "repro.models.attention",
     "CausalSelfAttention.forward_decode_batched"),
    ("models.attention", "repro.models.attention",
     "CausalSelfAttention.forward_verify_batched"),
    ("models.mlp", "repro.models.mlp", "SwiGLUMLP.forward"),
    ("models.mlp", "repro.models.mlp", "GeluMLP.forward"),
    ("models.norm", "repro.models.layers", "RMSNorm.forward"),
    ("models.norm", "repro.models.layers", "LayerNorm.forward"),
    ("packed_kv.gather", "repro.models.packed_kv", "PackedKVPool.gather"),
    ("packed_kv.append", "repro.models.packed_kv", "PackedKVPool.append"),
    ("packed_kv.append", "repro.models.packed_kv",
     "PackedKVPool.append_batched"),
    ("packed_kv.truncate", "repro.models.packed_kv", "PackedKVPool.truncate"),
    ("spec.step", "repro.serving.engine", "spec_decode_step"),
    ("sample", "repro.serving.engine", "sample_token"),
    ("sample", "repro.models.speculative", "sample_token"),
    ("scheduler.admit", "repro.serving.scheduler",
     "ContinuousBatchScheduler.admit"),
    ("kv_pool.init", "repro.serving.kv_pool", "PagedKVPool.__init__"),
    ("kv_pool.allocate", "repro.serving.kv_pool", "PagedKVPool.allocate"),
    ("prefix_cache.match", "repro.serving.prefix_cache",
     "RadixPrefixCache.match"),
    ("prefix_cache.insert", "repro.serving.prefix_cache",
     "RadixPrefixCache.insert"),
    ("prefix_cache.copy_into", "repro.serving.prefix_cache",
     "RadixPrefixCache.copy_into"),
    ("prefix_cache.peek", "repro.serving.prefix_cache",
     "RadixPrefixCache.peek"),
    ("cost", "repro.serving.engine", "DecodeCostModel.prefill_time"),
    ("cost", "repro.serving.engine", "DecodeCostModel.decode_step_time"),
    ("cost", "repro.serving.engine", "DecodeCostModel.verify_step_time"),
    ("cost", "repro.serving.engine", "DecodeCostModel.restore_time"),
    ("cost", "repro.serving.engine", "DecodeCostModel.chunked_prefill_time"),
    ("engine.loop", "repro.serving.engine", "ServingEngine.run"),
    ("cluster.loop", "repro.serving.cluster", "ClusterSimulator.run"),
    ("cluster.replica_step", "repro.serving.cluster", "ReplicaServer.step"),
    ("cluster.route", "repro.serving.cluster", "ClusterSimulator._choose"),
    ("cluster.shed_check", "repro.serving.cluster",
     "ClusterSimulator._shed_reason"),
    ("cluster.backlog_eta", "repro.serving.cluster", "estimate_backlog_eta"),
    ("cluster.backlog_eta", "repro.serving.engine", "estimate_backlog_eta"),
    ("transfer", "repro.serving.transfer", "KVTransferModel.transfer_time"),
]

#: Count-only entry points (properties and very hot or cheap calls).
COUNTS = [
    ("roofline.layer_forward_timing", "repro.frontier.roofline",
     "RooflineModel.layer_forward_timing"),
    ("prefix_cache.evict", "repro.serving.prefix_cache",
     "RadixPrefixCache.evict"),
    ("cluster.advance_to", "repro.serving.cluster", "ReplicaServer.advance_to"),
    ("cluster.busy", "repro.serving.cluster", "ReplicaServer.busy"),
    ("cluster.outstanding", "repro.serving.cluster",
     "ReplicaServer.outstanding"),
    ("spec.accept", "repro.models.speculative", "accept_tokens"),
]

#: Span names whose inclusive durations are kept for percentiles.
_DURATIONS = {"models.decode_step"}


def _observe_accept(tracer: "Tracer", args, result) -> None:
    # accept_tokens(target_logits, draft_tokens, draft_probs, params, ...)
    kind = "greedy" if args[3].greedy else "sampled"
    tracer.totals[f"spec.accepted_{kind}"] += result[1]
    tracer.totals[f"spec.proposed_{kind}"] += len(args[1])


def _observe_admit(tracer: "Tracer", args, result) -> None:
    now = args[1]
    tracer.values["scheduler.queue_wait"].extend(
        now - req.arrival_time for req in result)


def _observe_gather(tracer: "Tracer", args, result) -> None:
    # Bytes moved, computed from the returned array sizes.
    tracer.totals["packed_kv.gather_bytes"] += result[0].nbytes \
        + result[1].nbytes


def _observe_decode(tracer: "Tracer", args, result) -> None:
    tracer.values["models.decode_step.rows"].append(len(args[1]))


def _observe_prefill(tracer: "Tracer", args, result) -> None:
    tracer.totals["models.prefill.tokens"] += int(np.size(args[1]))


def _observe_pool(tracer: "Tracer", args, result) -> None:
    tracer.totals["kv_pool.blocks_total"] += args[0].num_blocks


#: Per-call observations: span or count name -> f(tracer, args, result).
_OBSERVERS = {
    "models.decode_step": _observe_decode,
    "models.prefill": _observe_prefill,
    "packed_kv.gather": _observe_gather,
    "spec.accept": _observe_accept,
    "scheduler.admit": _observe_admit,
    "kv_pool.init": _observe_pool,
}


class Tracer:
    """Spans and counters of one traced workload run, kept in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        #: calls per (name, attribute) target
        self.calls: Counter = Counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.totals: dict[str, float] = defaultdict(float)
        #: (span id, name, start, end, parent id or 0)
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self._stack: list[list] = []      # open spans: [id, child seconds]
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self) -> list:
        frame = [next(self._ids), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float,
               end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[1]
        parent = 0
        if self._stack:
            self._stack[-1][1] += duration
            parent = self._stack[-1][0]
        if name in _DURATIONS:
            self.durations[name].append(duration)
        if len(self.spans) < MAX_TRACE_SPANS or not parent:
            self.spans.append((frame[0], name, start, end, parent))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span (e.g. around set-up)."""
        self.calls[(name, "")] += 1
        frame = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, start, time.perf_counter())

    def _timed(self, name: str, attr: str, fn):
        observe = _OBSERVERS.get(name)
        key = (name, attr)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            frame = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, start, clock())
            if observe is not None:
                observe(self, args, result)
            return result
        return wrapper

    def _counted(self, name: str, attr: str, fn):
        observe = _OBSERVERS.get(name)
        key = (name, attr)

        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result
        return wrapper

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point of :data:`SPANS` and :data:`COUNTS`."""
        for targets, make in ((SPANS, self._timed), (COUNTS, self._counted)):
            for name, module, path in targets:
                owner = importlib.import_module(module)
                *parents, leaf = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = vars(owner)[leaf]
                if isinstance(original, property):
                    patched = property(make(name, path, original.fget))
                else:
                    patched = make(name, path, original)
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, patched)

    def uninstall(self) -> None:
        """Restore every original entry point."""
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    # -- reporting -------------------------------------------------------
    def count(self, name: str) -> int:
        return sum(c for (n, _), c in self.calls.items() if n == name)

    def entry_points(self, name: str) -> int:
        """Distinct patched attributes of ``name`` that were called."""
        return sum(1 for (n, _), c in self.calls.items() if n == name and c)

    def write_chrome_trace(self, path: Path) -> Path:
        """Write the kept spans as Chrome-trace JSON (opens in Perfetto)."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": f"bench {self.workload}"}}]
        for span_id, name, start, end, parent in sorted(
                self.spans, key=lambda s: (s[2], -s[3])):
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "pid": 1, "tid": 1, "args": {"id": span_id,
                                             "parent": parent}})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"workload": self.workload,
                          "spans_not_written": self.dropped}}))
        return path


def _percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer number the tracer itself measured, by name."""
    out: dict[str, float] = {}
    for name in {n for n, _, _ in SPANS}:
        out[f"{name}.calls"] = tracer.count(name)
        out[f"{name}.self_s"] = tracer.self_s[name]
    for name in {n for n, _, _ in COUNTS}:
        out[f"{name}.calls"] = tracer.count(name)
    decode = tracer.durations["models.decode_step"]
    rows = tracer.values["models.decode_step.rows"]
    waits = tracer.values["scheduler.queue_wait"]
    totals = tracer.totals
    out.update({
        "models.decode_step.p50_ms": _percentile_ms(decode, 50),
        "models.decode_step.p99_ms": _percentile_ms(decode, 99),
        "models.decode_step.rows_mean": float(np.mean(rows)) if rows
        else 0.0,
        "models.prefill.tokens": totals["models.prefill.tokens"],
        "models.attention.entry_points": tracer.entry_points(
            "models.attention"),
        "packed_kv.gather_mb": totals["packed_kv.gather_bytes"] / 1e6,
        "spec.acceptance_greedy": _ratio(totals["spec.accepted_greedy"],
                                         totals["spec.proposed_greedy"]),
        "spec.acceptance_sampled": _ratio(totals["spec.accepted_sampled"],
                                          totals["spec.proposed_sampled"]),
        "scheduler.queue_wait_p50_ms": _percentile_ms(waits, 50),
        "scheduler.queue_wait_p99_ms": _percentile_ms(waits, 99),
        "kv_pool.init.s": tracer.self_s["kv_pool.init"],
        "kv_pool.blocks_total": totals["kv_pool.blocks_total"],
    })
    return out
