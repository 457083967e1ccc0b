"""Cross-platform what-if: Frontier vs an AI-optimized (Selene-like) system.

The paper repeatedly grounds its guidance in Frontier's network balance:
"large GPU capacity ... and network bandwidth (relatively limited
compared to AI-oriented machines such as Selene)".  This module defines a
Selene-like node spec (DGX-A100-style: NVLink-class 300 GB/s intra-node
links and a fat 200 GB/s-per-node fabric with better large-ring behavior)
so the simulator can answer the implied what-if: on an AI-optimized
fabric, the ZeRO falloff softens and the case for topology-aware TP
weakens — i.e. Observation 2 is a *Frontier-balance* conclusion, not a
universal one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models.config import ModelConfig
from .hardware import GCDSpec, MachineSpec, MI250XSpec, NodeSpec

__all__ = ["SELENE_LIKE", "make_simulator", "compare_platforms",
           "PlatformComparison"]

#: A Selene/DGX-A100-like node expressed in this repo's node schema:
#: 8 accelerators with A100-class peak, NVLink-class intra-node bandwidth,
#: and a 200 GB/s per-node InfiniBand fabric.
SELENE_LIKE = MachineSpec(
    name="Selene-like",
    node=NodeSpec(
        package=MI250XSpec(
            gcd=GCDSpec(peak_tflops=156.0,     # A100 bf16 dense-ish
                        hbm_gb=80.0, hbm_bw_gbs=2000.0),
            num_gcds=2,
            intra_package_bw_gbs=300.0,        # NVLink-class
            tdp_watts=400.0),
        num_packages=4,
        intra_node_bw_gbs=300.0,               # NVSwitch: flat in-node
        nic_bw_gbs=200.0),                     # 8x HDR InfiniBand
    num_nodes=560,
)


def make_simulator(machine: MachineSpec,
                   scale_degradation: float | None = None
                   ) -> TrainingSimulator:
    """Build a simulator for a machine spec.

    AI-optimized fabrics (rail-optimized, adaptive-routed) degrade less
    on large rings; by default the Selene-like system gets half of
    Frontier's degradation constant.
    """
    # Local: ``repro.parallel`` builds on this package, so a module-level
    # import would make the two packages import each other.
    from ..parallel.collectives import CollectiveModel
    from ..parallel.simulator import TrainingSimulator
    if scale_degradation is None:
        scale_degradation = 0.6 if machine.name == "Frontier" else 0.3
    collectives = CollectiveModel(machine.node,
                                  scale_degradation=scale_degradation)
    return TrainingSimulator(machine=machine, collectives=collectives)


@dataclass(frozen=True)
class PlatformComparison:
    """ZeRO-vs-TP outcome on one platform at one scale."""

    platform: str
    zero_tflops: float
    tp2_tflops: float

    @property
    def tp_advantage(self) -> float:
        """Relative TP=2 gain over ZeRO-1 (Observation 2's at-scale case)."""
        return self.tp2_tflops / self.zero_tflops - 1.0


def compare_platforms(model: ModelConfig, n_gpus: int = 256,
                      machines: tuple[MachineSpec, ...] | None = None
                      ) -> list[PlatformComparison]:
    """Run the ZeRO-1 vs TP=2 contest on each platform."""
    from ..parallel.strategy import ParallelConfig
    from .hardware import FRONTIER
    machines = machines or (FRONTIER, SELENE_LIKE)
    out = []
    for machine in machines:
        sim = make_simulator(machine)
        zero = sim.per_gcd_tflops(model,
                                  ParallelConfig(dp=n_gpus, zero_stage=1))
        tp2 = sim.per_gcd_tflops(model,
                                 ParallelConfig(dp=n_gpus // 2, tp=2))
        out.append(PlatformComparison(platform=machine.name,
                                      zero_tflops=zero, tp2_tflops=tp2))
    return out
