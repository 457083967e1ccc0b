"""Block-based (paged) KV-cache pool for the serving engine.

The idea is vLLM's PagedAttention bookkeeping applied to this repo's
GQA-aware caches: HBM left over after the model weights is carved into
fixed-size *blocks* of token slots, and each in-flight request leases
whole blocks as its context grows.  Because a request only ever wastes
the tail of its last block, internal fragmentation is bounded by
``block_size - 1`` tokens per request — the accounting below makes that
visible.

The per-token cache cost comes straight from the model configuration:
``2 * num_layers * kv_heads * head_dim * dtype_bytes`` — so a GQA model
(``num_kv_heads < num_heads``) fits proportionally more concurrent
requests into the same budget, which is exactly LLaMA-2's motivation for
the tweak.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..frontier.hardware import GCDSpec
from ..models.config import ModelConfig

__all__ = ["KVPoolConfig", "PagedKVPool", "kv_bytes_per_token"]


def kv_bytes_per_token(config: ModelConfig, dtype_bytes: int = 2) -> int:
    """HBM bytes one context token costs across all layer caches."""
    return 2 * config.num_layers * config.kv_heads * config.head_dim \
        * dtype_bytes


@dataclass(frozen=True)
class KVPoolConfig:
    """Sizing of the paged pool.

    ``num_blocks`` pins the pool directly (tests, tight-budget demos);
    otherwise the pool takes one GCD's HBM, subtracts the bf16 weights,
    and divides the remainder into blocks.
    """

    block_size: int = 16        # token slots per block
    dtype_bytes: int = 2        # bf16 cache entries
    num_blocks: int | None = None
    hbm_gb: float | None = None  # budget override (defaults to the GCD)

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1: {self.block_size}")
        if self.num_blocks is not None and self.num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1: {self.num_blocks}")


class PagedKVPool:
    """Fixed-size block allocator with utilization/fragmentation stats."""

    def __init__(self, model_config: ModelConfig,
                 config: KVPoolConfig | None = None,
                 gcd: GCDSpec | None = None):
        self.model_config = model_config
        self.config = config or KVPoolConfig()
        self.gcd = gcd or GCDSpec()
        self.bytes_per_token = kv_bytes_per_token(
            model_config, self.config.dtype_bytes)
        if self.config.num_blocks is not None:
            self.num_blocks = self.config.num_blocks
        else:
            hbm = (self.config.hbm_gb if self.config.hbm_gb is not None
                   else self.gcd.hbm_gb) * 1e9
            weights = 2.0 * model_config.num_parameters()
            budget = hbm - weights
            if budget <= 0:
                raise ValueError(
                    f"model weights ({weights / 1e9:.1f} GB) exceed the "
                    f"HBM budget ({hbm / 1e9:.1f} GB)")
            self.num_blocks = int(
                budget // (self.config.block_size * self.bytes_per_token))
        # Lazy free list: ids at or above the high-water mark were never
        # leased, freed ids wait on a LIFO stack that is drained first.
        # Construction is O(1) however large the pool, and ids come out
        # in the order an eager ``[num_blocks-1, ..., 0]`` pop-stack
        # would hand them out.
        self._recycled: list[int] = []
        self._high_water = 0
        self._blocks: dict[int, list[int]] = {}   # request -> block ids
        self._tokens: dict[int, int] = {}         # request -> token count
        self.peak_blocks_used = 0
        self.alloc_failures = 0

    # ------------------------------------------------------------------
    @property
    def block_size(self) -> int:
        return self.config.block_size

    @property
    def blocks_used(self) -> int:
        return self._high_water - len(self._recycled)

    @property
    def blocks_free(self) -> int:
        return self.num_blocks - self._high_water + len(self._recycled)

    @property
    def utilization(self) -> float:
        """Fraction of pool blocks currently leased."""
        return self.blocks_used / self.num_blocks if self.num_blocks else 0.0

    @property
    def peak_utilization(self) -> float:
        return self.peak_blocks_used / self.num_blocks if self.num_blocks \
            else 0.0

    def blocks_needed(self, num_tokens: int) -> int:
        return -(-num_tokens // self.block_size)  # ceil division

    def tokens_of(self, request_id: int) -> int:
        return self._tokens.get(request_id, 0)

    # ------------------------------------------------------------------
    def can_allocate(self, request_id: int, total_tokens: int) -> bool:
        have = len(self._blocks.get(request_id, ()))
        return self.blocks_needed(total_tokens) - have <= self.blocks_free

    def allocate(self, request_id: int, total_tokens: int) -> bool:
        """Grow ``request_id``'s lease to cover ``total_tokens`` slots.

        All-or-nothing: on failure the existing lease is untouched and
        ``False`` is returned (the scheduler then preempts someone).
        """
        if total_tokens < 1:
            raise ValueError(f"total_tokens must be >= 1: {total_tokens}")
        held = self._blocks.setdefault(request_id, [])
        extra = self.blocks_needed(total_tokens) - len(held)
        if extra > self.blocks_free:
            self.alloc_failures += 1
            if not held:
                del self._blocks[request_id]
            return False
        recycled = self._recycled
        for _ in range(extra):
            if recycled:
                held.append(recycled.pop())
            else:
                held.append(self._high_water)
                self._high_water += 1
        self._tokens[request_id] = max(self._tokens.get(request_id, 0),
                                       total_tokens)
        self.peak_blocks_used = max(self.peak_blocks_used, self.blocks_used)
        return True

    def free(self, request_id: int) -> int:
        """Release a request's blocks; returns how many were freed."""
        blocks = self._blocks.pop(request_id, [])
        self._tokens.pop(request_id, None)
        self._recycled.extend(reversed(blocks))
        return len(blocks)

    # ------------------------------------------------------------------
    def fragmentation(self) -> float:
        """Internal fragmentation: leased-but-empty slot fraction."""
        used_slots = self.blocks_used * self.block_size
        if used_slots == 0:
            return 0.0
        filled = sum(self._tokens.values())
        return 1.0 - filled / used_slots

    def memory_bytes(self) -> int:
        """HBM footprint of the leased blocks."""
        return self.blocks_used * self.block_size * self.bytes_per_token

    def capacity_tokens(self) -> int:
        return self.num_blocks * self.block_size
