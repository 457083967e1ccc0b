"""Frontier-scale extrapolation of a measured serving trace.

The engine measures a workload at laptop scale; this module answers the
ROADMAP question — what would the same serving behaviour deliver on a
Frontier node of four MI250X (eight GCDs)?  It prices decode steps
through the engine's own :class:`~repro.serving.engine.DecodeCostModel`:

* decode is memory-bound, so per-GCD step time streams the (sharded)
  weights plus the active KV blocks at the GCD's HBM bandwidth
  (:class:`~repro.frontier.hardware.GCDSpec`);
* tensor-parallel serving pays two activation allreduces per layer per
  step, priced by the topology-aware α–β model
  (:class:`~repro.parallel.collectives.CollectiveModel`) — the same
  hierarchy that produced the training crossovers (Fig 8).

Two deployments are compared per node: eight independent replicas
(one per GCD, no communication, needs the model to fit in 64 GB) and a
single TP=8 replica (weights sharded, allreduce tax).  The estimate
reports both and flags which are feasible — the serving analogue of the
paper's Observation 2 layout advice.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..frontier.hardware import GCDSpec, NodeSpec
from ..frontier.roofline import RooflineModel
from ..models.config import ModelConfig
from ..parallel.collectives import CollectiveModel
from .engine import DecodeCostModel
from .metrics import ServingMetrics

__all__ = ["DeploymentEstimate", "FrontierServingEstimate",
           "ServingPerfModel", "format_estimate"]


@dataclass(frozen=True)
class DeploymentEstimate:
    """Per-node serving throughput for one deployment choice."""

    name: str
    tp: int
    replicas: int
    fits: bool
    step_time_s: float
    comm_fraction: float
    node_tokens_per_s: float


@dataclass(frozen=True)
class FrontierServingEstimate:
    """Extrapolated node-level serving throughput."""

    config_label: str
    mean_batch_size: float
    mean_context_tokens: float
    deployments: tuple[DeploymentEstimate, ...]

    @property
    def best(self) -> DeploymentEstimate:
        feasible = [d for d in self.deployments if d.fits]
        if not feasible:
            raise ValueError(
                f"{self.config_label} fits no single-node deployment")
        return max(feasible, key=lambda d: d.node_tokens_per_s)


class ServingPerfModel:
    """Map measured batch/context statistics onto MI250X GCDs."""

    def __init__(self, gcd: GCDSpec | None = None,
                 node: NodeSpec | None = None,
                 roofline: RooflineModel | None = None,
                 collectives: CollectiveModel | None = None,
                 step_overhead_s: float = 40e-6,
                 kv_pool_fraction: float = 0.3):
        self.gcd = gcd or GCDSpec()
        self.node = node or NodeSpec()
        self.roofline = roofline or RooflineModel(self.gcd)
        self.collectives = collectives or CollectiveModel(self.node)
        self.step_overhead_s = step_overhead_s
        #: HBM share reserved for the paged KV pool when checking fit.
        self.kv_pool_fraction = kv_pool_fraction

    # ------------------------------------------------------------------
    def fits(self, config: ModelConfig, tp: int = 1) -> bool:
        """Do bf16 weights + KV-pool reserve fit one GCD at this TP?"""
        weights = 2.0 * config.num_parameters() / tp
        return weights <= self.gcd.hbm_bytes * (1.0 - self.kv_pool_fraction)

    def decode_step_time(self, config: ModelConfig, batch_size: float,
                         total_context_tokens: float, tp: int = 1
                         ) -> tuple[float, float]:
        """(total, comm) seconds of one batched decode step per replica."""
        cost = DecodeCostModel(config, gcd=self.gcd, roofline=self.roofline,
                               step_overhead_s=self.step_overhead_s, tp=tp,
                               collectives=self.collectives)
        return (cost.decode_step_time(batch_size, total_context_tokens),
                cost._tp_comm(batch_size))

    # ------------------------------------------------------------------
    def estimate(self, config: ModelConfig, metrics: ServingMetrics,
                 mean_context_tokens: float | None = None
                 ) -> FrontierServingEstimate:
        """Extrapolate a measured trace's steady state to one node.

        The trace contributes its *shape* — mean decode batch size and
        total in-flight context — and the hardware model contributes the
        time axis.  ``mean_context_tokens`` is the mean total context
        across the batch (defaults to a small multiple of the batch).
        """
        batch = max(1.0, metrics.mean_batch_size)
        if mean_context_tokens is None:
            mean_context_tokens = 32.0 * batch
        deployments = []
        for name, tp, replicas in (("8x replicas (TP=1)", 1,
                                    self.node.num_gcds),
                                   ("1x replica (TP=8)", 8, 1)):
            fits = self.fits(config, tp)
            step, comm = self.decode_step_time(
                config, batch, mean_context_tokens, tp)
            node_tput = replicas * batch / step if fits else 0.0
            deployments.append(DeploymentEstimate(
                name=name, tp=tp, replicas=replicas, fits=fits,
                step_time_s=step, comm_fraction=comm / step,
                node_tokens_per_s=node_tput))
        return FrontierServingEstimate(
            config_label=config.label(), mean_batch_size=batch,
            mean_context_tokens=float(mean_context_tokens),
            deployments=tuple(deployments))


def format_estimate(est: FrontierServingEstimate) -> str:
    """Render the per-node extrapolation as text."""
    lines = [f"Frontier-node extrapolation — {est.config_label} "
             f"(batch {est.mean_batch_size:.1f})"]
    for d in est.deployments:
        if d.fits:
            lines.append(
                f"  {d.name:<20} {d.node_tokens_per_s:>12.0f} tok/s/node"
                f"   (step {d.step_time_s * 1e6:.0f} us, "
                f"comm {d.comm_fraction:.0%})")
        else:
            lines.append(f"  {d.name:<20} {'does not fit':>12}")
    best = est.best
    lines.append(f"  recommended: {best.name} — "
                 f"{best.node_tokens_per_s:.0f} tok/s/node")
    return "\n".join(lines)
