"""Functional (numerically executed) parallelism — the correctness side.

The simulator in :mod:`repro.parallel.simulator` models *performance*;
this module executes the same parallel algorithms *numerically* on
in-process "ranks", establishing that each strategy computes exactly
what serial training computes:

* :class:`SimulatedComm` — an in-process communicator with the RCCL
  collective semantics (allreduce / allgather / reduce-scatter /
  broadcast) over lists of per-rank arrays;
* :class:`DataParallelTrainer` — replicates a model over ranks, splits
  each batch, allreduces gradients, steps each replica; bit-identical to
  single-process training on the full batch;
* :class:`Zero1DataParallel` — DeepSpeed ZeRO stage 1: each rank owns an
  optimizer-state shard, updates only its shard, and broadcasts the
  refreshed parameters; bit-identical to plain DP;
* column/row-parallel linear layers — Megatron tensor parallelism on the
  MLP, with the allreduce in the row-parallel output; matches the serial
  module exactly;
* :class:`PipelineExecutor` — GPipe-style micro-batched stage execution
  over a layer partition, with a recorded schedule whose bubble count
  matches the analytic formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..models.layers import Module, Parameter
from ..models.mlp import GeluMLP, SwiGLUMLP
from ..models.tensor import Tensor, gelu, no_grad, silu
from ..models.transformer import GPTModel, cross_entropy
from .pipeline import bubble_fraction

__all__ = ["SimulatedComm", "DataParallelTrainer", "Zero1DataParallel",
           "split_mlp_tensor_parallel", "tp_mlp_forward",
           "split_attention_tensor_parallel", "tp_attention_forward",
           "PipelineExecutor", "ScheduleSlot", "PipelineRun"]


class SimulatedComm:
    """In-process collective communicator over per-rank array lists."""

    def __init__(self, world_size: int):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.stats = {"allreduce": 0, "allgather": 0, "reducescatter": 0,
                      "broadcast": 0}

    def _check(self, shards: list[np.ndarray]) -> None:
        if len(shards) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} per-rank arrays, got "
                f"{len(shards)}")

    def allreduce(self, shards: list[np.ndarray], op: str = "mean"
                  ) -> list[np.ndarray]:
        """Every rank receives the elementwise sum (or mean)."""
        self._check(shards)
        self.stats["allreduce"] += 1
        total = np.sum(shards, axis=0)
        if op == "mean":
            total = total / self.world_size
        elif op != "sum":
            raise ValueError(f"unknown op {op!r}")
        return [total.copy() for _ in range(self.world_size)]

    def allgather(self, shards: list[np.ndarray], axis: int = 0
                  ) -> list[np.ndarray]:
        """Every rank receives the concatenation of all shards."""
        self._check(shards)
        self.stats["allgather"] += 1
        full = np.concatenate(shards, axis=axis)
        return [full.copy() for _ in range(self.world_size)]

    def reduce_scatter(self, shards: list[np.ndarray], op: str = "mean"
                       ) -> list[np.ndarray]:
        """Sum across ranks, then each rank keeps its 1/p slice (axis 0)."""
        self._check(shards)
        self.stats["reducescatter"] += 1
        total = np.sum(shards, axis=0)
        if op == "mean":
            total = total / self.world_size
        pieces = np.array_split(total, self.world_size, axis=0)
        return [p.copy() for p in pieces]

    def broadcast(self, value: np.ndarray, root: int = 0
                  ) -> list[np.ndarray]:
        self.stats["broadcast"] += 1
        return [value.copy() for _ in range(self.world_size)]


# ---------------------------------------------------------------------------
# Data parallelism (and ZeRO stage 1)
# ---------------------------------------------------------------------------
class DataParallelTrainer:
    """Replicated-model data parallelism with gradient allreduce.

    All replicas start from the same weights; each step splits the global
    batch evenly, runs forward/backward per rank, allreduces (means) the
    gradients, and steps each rank's optimizer.  The result is
    numerically identical to serial training on the full batch.
    """

    def __init__(self, model_factory, world_size: int, lr: float = 1e-3):
        # Local: a module-level import would load the training stack
        # (tokenizers and data included) with every ``repro.parallel``.
        from ..training.optimizers import Adam
        self.comm = SimulatedComm(world_size)
        self.replicas: list[GPTModel] = [model_factory()
                                         for _ in range(world_size)]
        reference = self.replicas[0].state_dict()
        for replica in self.replicas[1:]:
            replica.load_state_dict(reference)
        self.optimizers = [Adam(r.parameters(), lr=lr, weight_decay=0.0)
                           for r in self.replicas]

    @property
    def world_size(self) -> int:
        return self.comm.world_size

    def _split(self, inputs: np.ndarray, targets: np.ndarray):
        if inputs.shape[0] % self.world_size:
            raise ValueError(
                f"global batch {inputs.shape[0]} must divide evenly over "
                f"{self.world_size} ranks")
        return (np.array_split(inputs, self.world_size),
                np.array_split(targets, self.world_size))

    def _local_backward(self, inputs, targets) -> list[float]:
        losses = []
        for replica, x, y in zip(self.replicas, inputs, targets):
            loss = cross_entropy(replica(x), y)
            for p in replica.parameters():
                p.zero_grad()
            loss.backward()
            losses.append(loss.item())
        return losses

    def _allreduce_grads(self) -> None:
        params_per_rank = [r.parameters() for r in self.replicas]
        for tensors in zip(*params_per_rank):
            reduced = self.comm.allreduce([p.grad for p in tensors])
            for p, g in zip(tensors, reduced):
                p.grad = g

    def step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """One synchronous DP step; returns the global mean loss."""
        xs, ys = self._split(inputs, targets)
        losses = self._local_backward(xs, ys)
        self._allreduce_grads()
        for opt in self.optimizers:
            opt.step()
        return float(np.mean(losses))

    def max_replica_divergence(self) -> float:
        """Largest parameter difference across replicas (should be ~0)."""
        states = [r.state_dict() for r in self.replicas]
        worst = 0.0
        for key in states[0]:
            stack = np.stack([s[key] for s in states])
            worst = max(worst, float(np.abs(stack - stack[0]).max()))
        return worst


class Zero1DataParallel(DataParallelTrainer):
    """ZeRO stage 1: optimizer states sharded, one owner rank per tensor.

    Gradients are still allreduced; each parameter tensor is *updated* by
    exactly one owner rank (round-robin assignment stands in for the
    flat-buffer partitioning) and the fresh values are broadcast — the
    collective pattern whose cost the performance model charges as
    reduce-scatter + allgather.
    """

    def __init__(self, model_factory, world_size: int, lr: float = 1e-3):
        super().__init__(model_factory, world_size, lr=lr)
        n_tensors = len(self.replicas[0].parameters())
        self.owner = [i % world_size for i in range(n_tensors)]

    def optimizer_state_bytes_per_rank(self) -> list[int]:
        """Footprint of each rank's owned optimizer shard (8 B/param)."""
        sizes = [0] * self.world_size
        for i, p in enumerate(self.replicas[0].parameters()):
            sizes[self.owner[i]] += 8 * p.size
        return sizes

    def step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        xs, ys = self._split(inputs, targets)
        losses = self._local_backward(xs, ys)
        self._allreduce_grads()
        # Each tensor is stepped only on its owner rank (the optimizer
        # moments for non-owned tensors are never touched — that is the
        # sharding); step counters advance once per training step so the
        # Adam bias correction matches the replicated baseline.
        for rank, opt in enumerate(self.optimizers):
            opt.step_count += 1
            for i, p in enumerate(self.replicas[rank].parameters()):
                if self.owner[i] != rank:
                    continue
                update = opt._adam_update(i, p)
                p.data -= opt.lr * update
        # ...then broadcast the fresh values to every other rank.
        for i, tensors in enumerate(zip(*(r.parameters()
                                          for r in self.replicas))):
            fresh = self.comm.broadcast(tensors[self.owner[i]].data,
                                        root=self.owner[i])
            for p, value in zip(tensors, fresh):
                p.data = value
        return float(np.mean(losses))


# ---------------------------------------------------------------------------
# Tensor parallelism (Megatron MLP split)
# ---------------------------------------------------------------------------
def split_mlp_tensor_parallel(mlp: Module, tp: int) -> list[dict]:
    """Partition an MLP's weights Megatron-style into ``tp`` rank shards.

    The first projection(s) split by *columns* (output features), the
    down/output projection by *rows* (input features), so each rank's
    chain composes without communication until the final partial-sum.
    """
    if tp < 1:
        raise ValueError("tp must be >= 1")
    shards = []
    if isinstance(mlp, GeluMLP):
        w_in = np.array_split(mlp.fc_in.weight.data, tp, axis=1)
        b_in = np.array_split(mlp.fc_in.bias.data, tp, axis=0)
        w_out = np.array_split(mlp.fc_out.weight.data, tp, axis=0)
        for r in range(tp):
            shards.append({"kind": "gelu", "w_in": w_in[r], "b_in": b_in[r],
                           "w_out": w_out[r],
                           "b_out": mlp.fc_out.bias.data / tp})
    elif isinstance(mlp, SwiGLUMLP):
        w_gate = np.array_split(mlp.gate_proj.weight.data, tp, axis=1)
        w_up = np.array_split(mlp.up_proj.weight.data, tp, axis=1)
        w_down = np.array_split(mlp.down_proj.weight.data, tp, axis=0)
        for r in range(tp):
            shards.append({"kind": "swiglu", "w_gate": w_gate[r],
                           "w_up": w_up[r], "w_down": w_down[r]})
    else:
        raise TypeError(f"unsupported MLP type {type(mlp).__name__}")
    return shards


def tp_mlp_forward(shards: list[dict], x: np.ndarray,
                   comm: SimulatedComm | None = None) -> np.ndarray:
    """Execute a tensor-parallel MLP forward over rank shards.

    Each rank computes its partial output; a single allreduce (sum) of
    the row-parallel projection reconstructs the serial result exactly —
    the communication the performance model charges per layer.
    """
    comm = comm or SimulatedComm(len(shards))
    partials = []
    for shard in shards:
        if shard["kind"] == "gelu":
            hidden = gelu(x @ shard["w_in"] + shard["b_in"])[0]
            partials.append(hidden @ shard["w_out"] + shard["b_out"])
        else:
            gate = silu(x @ shard["w_gate"])[0]
            up = x @ shard["w_up"]
            partials.append((gate * up) @ shard["w_down"])
    return comm.allreduce(partials, op="sum")[0]


def split_attention_tensor_parallel(attn, tp: int) -> list[dict]:
    """Partition a :class:`CausalSelfAttention` Megatron-style by heads.

    The fused QKV projection splits by *columns grouped per head* (each
    rank owns ``num_heads / tp`` query heads and their K/V heads), the
    output projection by *rows*; a single partial-sum allreduce restores
    the serial result.  Requires MHA (GQA sharding needs kv-group-aware
    placement) and ``tp | num_heads`` — paper Eq. 4.
    """
    if tp < 1:
        raise ValueError("tp must be >= 1")
    if attn.num_kv_heads != attn.num_heads:
        raise ValueError("tensor-parallel split requires MHA (no GQA)")
    if attn.num_heads % tp:
        raise ValueError(
            f"tp ({tp}) must divide num_heads ({attn.num_heads}) [Eq. 4]")
    h = attn.hidden_size
    d = attn.head_dim
    heads_per_rank = attn.num_heads // tp
    w = attn.qkv.weight.data            # (h, 3h) laid out q|k|v
    b = attn.qkv.bias.data if attn.qkv.bias is not None else None
    w_out = attn.out_proj.weight.data   # (h, h)
    b_out = attn.out_proj.bias.data if attn.out_proj.bias is not None         else None
    shards = []
    for r in range(tp):
        lo, hi = r * heads_per_rank * d, (r + 1) * heads_per_rank * d
        cols = np.r_[lo:hi, h + lo:h + hi, 2 * h + lo:2 * h + hi]
        shards.append({
            "w_qkv": w[:, cols],
            "b_qkv": b[cols] if b is not None else None,
            "w_out": w_out[lo:hi, :],
            "b_out": (b_out / tp) if b_out is not None else None,
            "heads": heads_per_rank,
            "head_dim": d,
            "rotary": attn.rotary,
        })
    return shards


def tp_attention_forward(shards: list[dict], x: np.ndarray,
                         comm: SimulatedComm | None = None) -> np.ndarray:
    """Execute tensor-parallel causal attention over rank shards.

    Each rank runs its own heads end-to-end; the row-parallel output
    projection contributes a partial sum combined by one allreduce —
    exactly the per-layer communication the cost model charges for TP.
    """
    comm = comm or SimulatedComm(len(shards))
    batch, seq, _ = x.shape
    partials = []
    for shard in shards:
        a, d = shard["heads"], shard["head_dim"]
        qkv = x @ shard["w_qkv"]
        if shard["b_qkv"] is not None:
            qkv = qkv + shard["b_qkv"]
        local = a * d
        def heads_of(block):
            return (block.reshape(batch, seq, a, d)
                    .transpose(0, 2, 1, 3))
        q = heads_of(qkv[..., :local])
        k = heads_of(qkv[..., local:2 * local])
        v = heads_of(qkv[..., 2 * local:])
        q = shard["rotary"].apply(Tensor(q), seq).data
        k = shard["rotary"].apply(Tensor(k), seq).data
        scores = (q @ np.swapaxes(k, -1, -2)) / np.sqrt(d)
        mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
        scores = np.where(mask, -1e30, scores)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        ctx = (e / e.sum(axis=-1, keepdims=True)) @ v
        merged = ctx.transpose(0, 2, 1, 3).reshape(batch, seq, local)
        out = merged @ shard["w_out"]
        if shard["b_out"] is not None:
            out = out + shard["b_out"]
        partials.append(out)
    return comm.allreduce(partials, op="sum")[0]


# ---------------------------------------------------------------------------
# Pipeline parallelism (GPipe schedule)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleSlot:
    """One (clock tick, stage, micro-batch) execution record."""

    tick: int
    stage: int
    micro_batch: int


@dataclass
class PipelineRun:
    output: Tensor
    schedule: list[ScheduleSlot] = field(default_factory=list)

    def idle_slots(self, num_stages: int) -> int:
        """Stage-tick slots spent idle (the pipeline bubble)."""
        ticks = max(s.tick for s in self.schedule) + 1
        return ticks * num_stages - len(self.schedule)


class PipelineExecutor:
    """GPipe-style forward execution of a GPT model split into stages."""

    def __init__(self, model: GPTModel, num_stages: int):
        if model.config.num_layers % num_stages:
            raise ValueError(
                f"layers ({model.config.num_layers}) must divide into "
                f"{num_stages} stages  [paper Eq. 3]")
        self.model = model
        self.num_stages = num_stages
        per = model.config.num_layers // num_stages
        self.stages = [model.layers[i * per:(i + 1) * per]
                       for i in range(num_stages)]

    def forward(self, token_ids: np.ndarray, micro_batches: int
                ) -> PipelineRun:
        """Micro-batched pipelined forward; returns logits + schedule."""
        ids = np.atleast_2d(token_ids)
        if ids.shape[0] % micro_batches:
            raise ValueError(
                f"batch {ids.shape[0]} must divide into {micro_batches} "
                f"micro-batches")
        chunks = np.array_split(ids, micro_batches)
        schedule: list[ScheduleSlot] = []
        # activations[m] holds micro-batch m's current tensor.
        with no_grad():
            acts = [self.model.embed(c) for c in chunks]
            done = [0] * micro_batches  # next stage for each micro-batch
            tick = 0
            while any(d < self.num_stages for d in done):
                busy_stages = set()
                progressed = []
                for m in range(micro_batches):
                    stage = done[m]
                    if stage >= self.num_stages or stage in busy_stages:
                        continue
                    # Stage `stage` can only take m if the previous
                    # micro-batch already cleared it (in-order GPipe).
                    if m > 0 and done[m - 1] <= stage:
                        continue
                    busy_stages.add(stage)
                    for layer in self.stages[stage]:
                        acts[m] = layer(acts[m])
                    schedule.append(ScheduleSlot(tick, stage, m))
                    progressed.append(m)
                for m in progressed:
                    done[m] += 1
                tick += 1
            hidden = Tensor.concatenate(acts, axis=0)
            hidden = self.model.final_norm(hidden)
            logits = hidden @ self.model.embed.weight.swapaxes(0, 1)
        return PipelineRun(output=logits, schedule=schedule)

    def analytic_bubble(self, micro_batches: int) -> float:
        return bubble_fraction(self.num_stages, micro_batches)
