"""The two MLP variants that distinguish the NeoX and LLaMA layers.

Per Fig 2 of the paper, the multi-head attention blocks of GPT-NeoX and
LLaMA are identical; the architectures differ only in normalization
(LayerNorm vs RMSNorm) and the MLP:

* GPT-NeoX: two linear layers with GELU — ``h -> 4h -> h`` (with biases).
* LLaMA: three linear layers with SiLU gating (SwiGLU) —
  ``h -> f`` (gate), ``h -> f`` (up), ``f -> h`` (down), with
  ``f ≈ 8h/3`` so total parameters match the NeoX 2×(4h·h) budget.
"""

from __future__ import annotations

import numpy as np

from .layers import Linear, Module
from .tensor import Tensor, gelu, silu

__all__ = ["GeluMLP", "SwiGLUMLP", "build_mlp"]


class GeluMLP(Module):
    """GPT-NeoX feed-forward block: Linear → GELU → Linear."""

    def __init__(self, hidden_size: int, ffn_hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.fc_in = Linear(hidden_size, ffn_hidden_size, bias=True, rng=rng)
        self.fc_out = Linear(ffn_hidden_size, hidden_size, bias=True, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc_out(self.fc_in(x).gelu())

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a raw array (inference)."""
        return self.fc_out.infer(gelu(self.fc_in.infer(x))[0])


class SwiGLUMLP(Module):
    """LLaMA feed-forward block: (SiLU(x·W_gate) ⊙ x·W_up) · W_down."""

    def __init__(self, hidden_size: int, ffn_hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.gate_proj = Linear(hidden_size, ffn_hidden_size, bias=False, rng=rng)
        self.up_proj = Linear(hidden_size, ffn_hidden_size, bias=False, rng=rng)
        self.down_proj = Linear(ffn_hidden_size, hidden_size, bias=False, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.down_proj(self.gate_proj(x).silu() * self.up_proj(x))

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a raw array (inference)."""
        return self.down_proj.infer(
            silu(self.gate_proj.infer(x))[0] * self.up_proj.infer(x))


def build_mlp(arch: str, hidden_size: int, ffn_hidden_size: int,
              rng: np.random.Generator | None = None) -> Module:
    """Construct the MLP matching an architecture family."""
    if arch == "neox":
        return GeluMLP(hidden_size, ffn_hidden_size, rng=rng)
    if arch == "llama":
        return SwiGLUMLP(hidden_size, ffn_hidden_size, rng=rng)
    raise ValueError(f"unknown architecture {arch!r}")
