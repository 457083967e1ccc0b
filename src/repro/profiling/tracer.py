"""OmniTrace-style timeline of one training step (paper Fig 9).

Builds the event timeline of a single step — per-layer forward kernels,
the backward pass with its allreduce tail (the dominant backward feature
in the paper's trace), and the optimizer update — plus a synchronized
power trace from the power model.

Documented deviation: the paper's Fig 9 caption says each forward layer
zoom-in is "dominated by the flash attention operation", but its own
Fig 10 attributes most layer time to the QKV and MLP GEMMs.  Our trace
follows the Fig 10 accounting (the larger GEMMs produce the longest
spans); the fused flash-attention kernel is present as a single span per
layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..frontier.power import PowerModel
from ..frontier.roofline import RooflineModel
from ..models.config import ModelConfig
from ..parallel.simulator import StepProfile

__all__ = ["TraceEvent", "StepTrace", "build_step_trace"]


@dataclass
class TraceEvent:
    """One span on the timeline.

    The serving simulators build one per lifecycle event, so this is a
    plain dataclass: a frozen one's ``__init__`` costs about four times
    as much.  Treat an event as read-only once built.
    """

    name: str
    start_s: float
    duration_s: float
    category: str   # "forward" | "backward" | "comm" | "optimizer" | "io"
    phase: str      # power-model phase: compute/memory/comm/io

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass
class StepTrace:
    """A full single-step timeline with the matching power trace."""

    events: list[TraceEvent] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return max((e.end_s for e in self.events), default=0.0)

    def events_in(self, category: str) -> list[TraceEvent]:
        return [e for e in self.events if e.category == category]

    def dominant_forward_kernel(self) -> str:
        """Longest single kernel within one forward layer."""
        layer0 = [e for e in self.events
                  if e.category == "forward" and e.name.startswith("layer0/")]
        if not layer0:
            raise ValueError("trace has no forward layer events")
        return max(layer0, key=lambda e: e.duration_s).name.split("/", 1)[1]

    def power_trace(self, power: PowerModel | None = None, dt: float = 1e-3
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Synchronized rocm-smi power samples over the step (Fig 9 bottom)."""
        power = power or PowerModel()
        phases = [(e.phase, e.duration_s)
                  for e in sorted(self.events, key=lambda e: e.start_s)]
        return power.trace(phases, dt=dt)


def build_step_trace(model: ModelConfig, profile: StepProfile,
                     roofline: RooflineModel | None = None,
                     seq_len: int = 2048, micro_batch: int = 8,
                     flash: int | None = None) -> StepTrace:
    """Expand a simulated step into an event timeline.

    The forward pass is laid out layer by layer with per-kernel spans from
    the roofline's GEMM timing; the backward pass is 2x forward; exposed
    communication lands after the backward (the allreduce tail visible in
    Fig 9); IO and the optimizer update close the step.
    """
    roofline = roofline or RooflineModel()
    if flash is None:
        flash = model.flash_attention
    timing = roofline.layer_forward_timing(model, seq_len, micro_batch, flash)
    trace = StepTrace()
    t = 0.0

    kernel_names = list(timing.gemm_seconds.items())
    if flash:
        # Score and AOV execute inside one fused flash-attention kernel.
        kernel_names = [("flash_attention" if k in ("score", "aov") else k, v)
                        for k, v in kernel_names]
        merged: dict[str, float] = {}
        for k, v in kernel_names:
            merged[k] = merged.get(k, 0.0) + v
        kernel_names = list(merged.items())
    # The MLP runs as separate GEMM kernels (2 for NeoX, 3 for LLaMA).
    expanded: list[tuple[str, float]] = []
    for k, v in kernel_names:
        if k == "mlp":
            n_mats = model.mlp_matrices
            expanded += [(f"mlp_gemm{i}", v / n_mats) for i in range(n_mats)]
        else:
            expanded.append((k, v))
    kernel_names = expanded
    n_layers = model.num_layers

    # Scale per-layer kernels so the forward sums to compute_s / 3.
    layer_total = timing.total_seconds
    forward_target = profile.compute_s / 3.0
    scale = forward_target / (layer_total * n_layers)

    for layer in range(n_layers):
        for name, dur in kernel_names:
            d = dur * scale
            trace.events.append(TraceEvent(
                f"layer{layer}/{name}", t, d, "forward", "compute"))
            t += d
        d = timing.memop_seconds * scale
        trace.events.append(TraceEvent(
            f"layer{layer}/elementwise", t, d, "forward", "memory"))
        t += d

    backward = 2.0 * forward_target
    trace.events.append(TraceEvent("backward", t, backward, "backward",
                                   "compute"))
    t += backward
    if profile.comm_exposed_s > 0:
        trace.events.append(TraceEvent("rccl_allreduce", t,
                                       profile.comm_exposed_s, "comm", "comm"))
        t += profile.comm_exposed_s
    if profile.io_s > 0:
        trace.events.append(TraceEvent("memcpy_h2d", t, profile.io_s, "io",
                                       "io"))
        t += profile.io_s
    trace.events.append(TraceEvent("optimizer_update", t,
                                   0.02 * profile.compute_s, "optimizer",
                                   "memory"))
    return trace
