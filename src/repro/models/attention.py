"""Multi-head causal self-attention with rotary position embeddings.

The attention layer is *identical* between GPT-NeoX and LLaMA (the paper's
Fig 2 stresses this), so a single implementation serves both stacks.  The
uncached :meth:`CausalSelfAttention.forward` has two execution paths:

``standard``
    Materializes the full (seq, seq) score matrix — O(n^2) memory.

``flash``
    A tiled, online-softmax evaluation in the style of FlashAttention
    v1/v2: queries are processed in blocks against key/value tiles with a
    running (max, sum) rescaling, so the full score matrix never exists.
    Numerically this matches the standard path to ~1e-10; its purpose here
    is (a) to be the genuine algorithm, and (b) to drive the memory model
    in :mod:`repro.frontier.memory` (Fig 5).

The flash path is forward-only (inference / evaluation); training falls
back to the standard autodiff path, mirroring early ROCm flash-attention
support maturity described in the paper.

Every *cached* forward — whole or chunked prefill (one row of span n),
batched decode (span 1) and speculative verify (span k + 1) — runs one
exact raw-array kernel, ``CausalSelfAttention._attend_rows``, over row
spans whose KV stores speak the :class:`KVCache` ``length`` / ``append``
protocol.  The only other cached branch is flash decode, which pads the
batch with :meth:`~repro.models.packed_kv.PackedKVPool.gather` and runs
:func:`flash_decode_forward`.
"""

from __future__ import annotations

import numpy as np

from .layers import Linear, Module
from .packed_kv import PackedSlotCache
from .tensor import Tensor

__all__ = ["RotaryEmbedding", "CausalSelfAttention", "KVCache",
           "flash_attention_forward", "flash_decode_forward"]


class RotaryEmbedding:
    """Rotary position embedding (RoPE, Su et al. 2021).

    Precomputes cos/sin tables for a maximum sequence length; both NeoX and
    LLaMA variants in the paper use rotary embeddings instead of GPT-3's
    absolute learned positions.
    """

    def __init__(self, head_dim: int, max_seq_len: int, base: float = 10000.0,
                 rotary_pct: float = 1.0):
        if head_dim % 2 != 0:
            raise ValueError(f"rotary head_dim must be even: {head_dim}")
        self.head_dim = head_dim
        self.rotary_dim = int(head_dim * rotary_pct) // 2 * 2
        inv_freq = 1.0 / (base ** (np.arange(0, self.rotary_dim, 2) / self.rotary_dim))
        t = np.arange(max_seq_len)
        freqs = np.outer(t, inv_freq)  # (seq, rotary_dim/2)
        emb = np.concatenate([freqs, freqs], axis=-1)
        self.cos = np.cos(emb)  # (seq, rotary_dim)
        self.sin = np.sin(emb)

    @staticmethod
    def _rotate_half(x: Tensor) -> Tensor:
        half = x.shape[-1] // 2
        x1 = x[..., :half]
        x2 = x[..., half:]
        return Tensor.concatenate([-x2, x1], axis=-1)

    def apply(self, x: Tensor, seq_len: int, offset: int = 0) -> Tensor:
        """Rotate the leading ``rotary_dim`` channels of ``x``.

        ``x`` has shape (batch, heads, seq, head_dim); ``offset`` shifts
        the absolute positions (used by KV-cached incremental decoding).
        """
        if offset + seq_len > self.cos.shape[0]:
            raise ValueError(
                f"positions up to {offset + seq_len} exceed rotary table "
                f"({self.cos.shape[0]})")
        rd = self.rotary_dim
        cos = Tensor(self.cos[offset:offset + seq_len])
        sin = Tensor(self.sin[offset:offset + seq_len])
        if rd == x.shape[-1]:
            return x * cos + self._rotate_half(x) * sin
        x_rot = x[..., :rd]
        x_pass = x[..., rd:]
        rotated = x_rot * cos + self._rotate_half(x_rot) * sin
        return Tensor.concatenate([rotated, x_pass], axis=-1)

    def apply_rows(self, x: np.ndarray, offsets) -> np.ndarray:
        """Rotate raw-array rows, each at its own absolute offset.

        ``x`` has shape (rows, heads, span, head_dim); row ``i`` covers
        absolute positions ``offsets[i] .. offsets[i] + span - 1``.  This
        is :meth:`apply`'s elementwise op sequence on raw arrays with
        cos/sin rows gathered per row (a plain slice when every row sits
        at one offset), so each row is bit-identical to ``apply`` at its
        own offset — the inference rotary of every cached forward.
        """
        span = x.shape[2]
        low, top = min(offsets), max(offsets) + span
        if top > self.cos.shape[0]:
            raise ValueError(
                f"positions up to {top} exceed rotary table "
                f"({self.cos.shape[0]})")
        if low + span == top:
            # Every row at one offset: the tables are a plain slice.
            cos, sin = self.cos[low:top], self.sin[low:top]
        else:
            positions = np.add.outer(offsets, np.arange(span))
            cos = self.cos[positions][:, None]  # (rows, 1, span, rd)
            sin = self.sin[positions][:, None]
        rd = self.rotary_dim
        half = rd // 2

        def rotate(t: np.ndarray) -> np.ndarray:
            return np.concatenate([-t[..., half:], t[..., :half]], axis=-1)

        if rd == x.shape[-1]:
            return x * cos + rotate(x) * sin
        x_rot, x_pass = x[..., :rd], x[..., rd:]
        return np.concatenate(
            [x_rot * cos + rotate(x_rot) * sin, x_pass], axis=-1)


def flash_attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                            block_size: int = 64, causal: bool = True,
                            ) -> np.ndarray:
    """Tiled online-softmax attention (FlashAttention-style), forward only.

    Parameters
    ----------
    q, k, v:
        Arrays of shape (batch, heads, seq, head_dim).
    block_size:
        Tile edge for both the query and key/value loops.  On real hardware
        this is chosen to fit SRAM/LDS; here it only affects the working-set
        size, never the result.

    Returns
    -------
    np.ndarray with the same shape as ``q``.

    Notes
    -----
    Implements the rescaling recurrence of Dao et al. 2022: per query block
    a running row-max ``m`` and normalizer ``l`` are maintained, and the
    accumulated output is rescaled whenever a new tile raises the max.
    Peak temporary memory is O(block^2) per (batch, head) instead of
    O(seq^2).
    """
    b, h, n, d = q.shape
    scale = 1.0 / np.sqrt(d)
    out = np.zeros_like(q)
    m = np.full((b, h, n, 1), -np.inf)
    l = np.zeros((b, h, n, 1))

    for j0 in range(0, n, block_size):
        j1 = min(j0 + block_size, n)
        k_tile = k[:, :, j0:j1]
        v_tile = v[:, :, j0:j1]
        # Query rows that can see any of this key tile.
        i_start = j0 if causal else 0
        for i0 in range(i_start, n, block_size):
            i1 = min(i0 + block_size, n)
            q_tile = q[:, :, i0:i1]
            scores = (q_tile @ np.swapaxes(k_tile, -1, -2)) * scale
            if causal:
                qi = np.arange(i0, i1)[:, None]
                kj = np.arange(j0, j1)[None, :]
                scores = np.where(kj > qi, -np.inf, scores)
            tile_max = scores.max(axis=-1, keepdims=True)
            m_old = m[:, :, i0:i1]
            m_new = np.maximum(m_old, tile_max)
            # exp(-inf - -inf) would be nan for fully-masked rows; those
            # rows have tile_max == -inf and contribute nothing.
            safe_m = np.where(np.isinf(m_new), 0.0, m_new)
            p = np.exp(np.where(np.isinf(scores) & (scores < 0), -np.inf,
                                scores) - safe_m)
            p = np.where(np.isinf(scores) & (scores < 0), 0.0, p)
            alpha = np.where(np.isinf(m_old), 0.0, np.exp(m_old - safe_m))
            l[:, :, i0:i1] = alpha * l[:, :, i0:i1] + p.sum(axis=-1, keepdims=True)
            out[:, :, i0:i1] = alpha * out[:, :, i0:i1] + p @ v_tile
            m[:, :, i0:i1] = m_new

    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(l > 0, out / l, 0.0)
    return out


def flash_decode_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                         lengths: np.ndarray, block_size: int = 64,
                         ) -> np.ndarray:
    """Tiled online-softmax attention for one decode step over ragged rows.

    Parameters
    ----------
    q:
        Query for the single new position, shape (batch, heads, 1, head_dim).
    k, v:
        Key/value contexts padded to a common length, shape
        (batch, heads, max_len, head_dim); row ``i`` is valid only up to
        ``lengths[i]`` (padding may be anything finite — it is masked).
    lengths:
        Per-row valid context lengths; the new position is included, so the
        query attends to all ``lengths[i]`` entries (no causal mask needed).

    When every row has the same (full) length the mask is skipped entirely
    — the same-length fast path of the batched decode step.
    """
    b, h, _, d = q.shape
    n = k.shape[2]
    lengths = np.asarray(lengths, dtype=np.int64)
    uniform = bool((lengths == n).all())
    valid = None if uniform else (np.arange(n)[None, :] < lengths[:, None])
    scale = 1.0 / np.sqrt(d)
    out = np.zeros_like(q)
    m = np.full((b, h, 1, 1), -np.inf)
    l = np.zeros((b, h, 1, 1))

    for j0 in range(0, n, block_size):
        j1 = min(j0 + block_size, n)
        k_tile = k[:, :, j0:j1]
        v_tile = v[:, :, j0:j1]
        scores = (q @ np.swapaxes(k_tile, -1, -2)) * scale
        if not uniform:
            pad = ~valid[:, j0:j1]
            scores = np.where(pad[:, None, None, :], -np.inf, scores)
        tile_max = scores.max(axis=-1, keepdims=True)
        m_new = np.maximum(m, tile_max)
        # Same -inf bookkeeping as flash_attention_forward: fully-padded
        # tiles have tile_max == -inf and must contribute nothing.
        safe_m = np.where(np.isinf(m_new), 0.0, m_new)
        p = np.exp(np.where(np.isinf(scores) & (scores < 0), -np.inf,
                            scores) - safe_m)
        p = np.where(np.isinf(scores) & (scores < 0), 0.0, p)
        alpha = np.where(np.isinf(m), 0.0, np.exp(m - safe_m))
        l = alpha * l + p.sum(axis=-1, keepdims=True)
        out = alpha * out + p @ v_tile
        m = m_new

    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(l > 0, out / l, 0.0)
    return out


class CausalSelfAttention(Module):
    """Rotary multi-head causal self-attention (shared NeoX/LLaMA layer)."""

    def __init__(self, hidden_size: int, num_heads: int, max_seq_len: int,
                 bias: bool = True, rotary_pct: float = 1.0,
                 flash: int = 0, num_kv_heads: int | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if hidden_size % num_heads != 0:
            raise ValueError("hidden_size must divide evenly into heads")
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.num_heads = num_heads
        self.head_dim = hidden_size // num_heads
        # Grouped-query attention (LLaMA-2): fewer K/V heads, each shared
        # by num_heads / num_kv_heads query heads.
        self.num_kv_heads = num_kv_heads if num_kv_heads is not None \
            else num_heads
        if self.num_kv_heads < 1 or num_heads % self.num_kv_heads:
            raise ValueError(
                f"num_kv_heads ({self.num_kv_heads}) must divide "
                f"num_heads ({num_heads})")
        self.flash = flash
        kv_dim = self.num_kv_heads * self.head_dim
        self.qkv = Linear(hidden_size, hidden_size + 2 * kv_dim, bias=bias,
                          rng=rng)
        self.out_proj = Linear(hidden_size, hidden_size, bias=bias, rng=rng)
        self.rotary = RotaryEmbedding(self.head_dim, max_seq_len,
                                      rotary_pct=rotary_pct)

    def _split_heads(self, x: Tensor, seq: int, batch: int, heads: int
                     ) -> Tensor:
        return (x.reshape(batch, seq, heads, self.head_dim)
                 .transpose(0, 2, 1, 3))

    def _expand_kv(self, x: Tensor) -> Tensor:
        """Repeat K/V heads to match the query head count (GQA)."""
        groups = self.num_heads // self.num_kv_heads
        if groups == 1:
            return x
        return Tensor.concatenate([x] * groups, axis=1)

    def forward(self, x: Tensor) -> Tensor:
        batch, seq, _ = x.shape
        h = self.hidden_size
        kv_dim = self.num_kv_heads * self.head_dim
        qkv = self.qkv(x)
        q = self._split_heads(qkv[..., :h], seq, batch, self.num_heads)
        k = self._split_heads(qkv[..., h:h + kv_dim], seq, batch,
                              self.num_kv_heads)
        v = self._split_heads(qkv[..., h + kv_dim:], seq, batch,
                              self.num_kv_heads)

        q = self.rotary.apply(q, seq)
        k = self.rotary.apply(k, seq)
        k = self._expand_kv(k)
        v = self._expand_kv(v)

        if self.flash and not self.training:
            ctx = Tensor(flash_attention_forward(q.data, k.data, v.data))
        else:
            scale = 1.0 / np.sqrt(self.head_dim)
            scores = (q @ k.swapaxes(-1, -2)) * scale
            mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
            scores = scores.masked_fill(mask, -1e30)
            probs = scores.softmax(axis=-1)
            ctx = probs @ v

        merged = ctx.transpose(0, 2, 1, 3).reshape(batch, seq, self.hidden_size)
        return self.out_proj(merged)

    def forward_cached(self, x: Tensor, cache: "KVCache") -> Tensor:
        """Incremental attention of one row over its KV cache (inference).

        ``x`` has shape (1, seq, hidden) and holds only the *new*
        positions — a whole prompt, a prefill chunk, or one decode
        token; previously seen keys/values come from ``cache`` (a
        :class:`KVCache`, or a
        :class:`~repro.models.packed_kv.PackedSlotCache` for a pool
        slot), which is updated in place.  With GQA the cache stores the
        compact K/V heads (the whole point of LLaMA-2's tweak: an
        ``num_heads / num_kv_heads``-fold smaller inference cache).
        Flash configs run the exact kernel here too.
        """
        if x.shape[0] != 1:
            raise ValueError(
                f"forward_cached takes one row with one cache, got "
                f"{x.shape[0]} rows")
        return self._attend_rows(x, [cache])

    def forward_decode_batched(self, x: Tensor, pool, slots, layer: int
                               ) -> Tensor:
        """One decode position for N ragged-length requests, one forward.

        ``x`` has shape (batch, 1, hidden); row ``i`` is the latest token
        of the request leasing ``slots[i]`` in ``pool`` (a
        :class:`~repro.models.packed_kv.PackedKVPool`), whose context in
        ``layer`` already holds that request's previous positions.  This
        is the exact kernel at span 1; flash configs instead pad the
        rows to the batch max and length-mask them inside
        :func:`flash_decode_forward`, which reassociates the softmax
        (token parity rather than bitwise).
        """
        stores = [PackedSlotCache(pool, layer, int(slot)) for slot in slots]
        if not self.flash:
            return self._attend_rows(x, stores)
        return self._attend_rows(
            x, stores,
            padded=lambda length: pool.gather(layer, slots, length,
                                              reuse=True))

    def forward_verify_batched(self, x: Tensor, pool, slots, layer: int
                               ) -> Tensor:
        """``span`` new positions for N ragged-length requests, one forward.

        The verification kernel of speculative decoding: ``x`` has shape
        (batch, span, hidden) where row ``i`` holds the last accepted
        token followed by the drafted candidates of the request leasing
        ``slots[i]``.  All ``span`` positions are appended to the pool
        (rollback later shrinks the slot via ``pool.truncate``).  Like
        cached prefill this stays on the exact kernel even on flash
        configs, so each row is bit-identical to a cached forward of the
        same positions over its own cache — which is what makes greedy
        speculative decoding bitwise equal to plain greedy decoding.
        """
        return self._attend_rows(
            x, [PackedSlotCache(pool, layer, int(slot)) for slot in slots])

    def _expand_kv_np(self, x: np.ndarray) -> np.ndarray:
        """GQA head expansion on raw arrays (mirrors :meth:`_expand_kv`)."""
        groups = self.num_heads // self.num_kv_heads
        if groups == 1:
            return x
        return np.concatenate([x] * groups, axis=1)

    def _attend_rows(self, x: Tensor, stores, padded=None) -> Tensor:
        """The one cached-attention kernel: ``span`` new positions per row.

        ``x`` has shape (rows, span, hidden); row ``i`` continues the
        context held by ``stores[i]``, a KV store speaking the
        ``length`` / ``append`` protocol of :class:`KVCache`, and each
        row's span is appended to its store.  Rows are rotated at their
        own offsets, then attended in groups of equal offset with the
        exact op sequence: scale, a causal mask when ``span > 1``,
        shift-by-max softmax, ``probs @ v``.  A group of one row attends
        straight over its store's views; a larger group stacks its rows'
        views.  Stacking equal lengths keeps every matmul slice the
        shape it has for the row alone, so each row is bit-identical to
        the same call on its own (padding short rows to a common length
        would *not* be: BLAS results depend on the reduction length).

        ``padded(length)``, given only for flash decode (span 1),
        returns the rows' K/V zero-padded to ``length``; attention then
        runs in :func:`flash_decode_forward`, which masks the padding.
        """
        rows, span, _ = x.shape
        heads, kv_heads = self.num_heads, self.num_kv_heads
        offsets = [store.length for store in stores]
        # (rows, heads + 2 * kv_heads, span, head_dim): Q, K, V heads.
        qkv = (self.qkv(x).data
               .reshape(rows, span, heads + 2 * kv_heads, self.head_dim)
               .transpose(0, 2, 1, 3))
        # Q and K heads rotate together, in one pass over one table.
        qk = self.rotary.apply_rows(qkv[:, :heads + kv_heads], offsets)
        q, k_new = qk[:, :heads], qk[:, heads:]
        v_new = qkv[:, heads + kv_heads:]
        views = [store.append(k_new[row:row + 1], v_new[row:row + 1])
                 for row, store in enumerate(stores)]

        if padded is not None:
            lengths = np.asarray(offsets, dtype=np.int64) + span
            k_pad, v_pad = padded(int(lengths.max()))
            ctx = flash_decode_forward(q, self._expand_kv_np(k_pad),
                                       self._expand_kv_np(v_pad), lengths)
        else:
            groups: dict[int, list[int]] = {}
            for row, offset in enumerate(offsets):
                groups.setdefault(offset, []).append(row)
            # One group covering every row needs no scatter into ctx.
            ctx = np.empty_like(q, order="C") if len(groups) > 1 else None
            scale = 1.0 / np.sqrt(self.head_dim)
            for offset, group in groups.items():
                if len(group) == 1:
                    rows_at = slice(group[0], group[0] + 1)
                    k, v = views[group[0]]
                else:
                    rows_at = group
                    k = np.concatenate([views[row][0] for row in group])
                    v = np.concatenate([views[row][1] for row in group])
                k = self._expand_kv_np(k)
                v = self._expand_kv_np(v)
                scores = (q[rows_at] @ np.swapaxes(k, -1, -2)) * scale
                if span > 1:
                    total = offset + span
                    qi = np.arange(offset, total)[:, None]
                    kj = np.arange(total)[None, :]
                    scores = np.where(kj > qi, -1e30, scores)
                shifted = scores - scores.max(axis=-1, keepdims=True)
                e = np.exp(shifted)
                probs = e / e.sum(axis=-1, keepdims=True)
                if ctx is None:
                    ctx = probs @ v
                else:
                    ctx[rows_at] = probs @ v

        merged = (Tensor(ctx).transpose(0, 2, 1, 3)
                  .reshape(rows, span, self.hidden_size))
        return self.out_proj(merged)


class KVCache:
    """Per-layer key/value cache for incremental decoding.

    Storage grows geometrically (amortized O(1) per appended token) rather
    than reallocating via ``np.concatenate`` every call, which made long
    generations O(n²) in copied bytes.  ``memory_bytes`` reports *logical*
    (used) bytes; the allocated footprint is ``capacity_bytes``.
    """

    def __init__(self) -> None:
        self.k: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._length = 0

    @property
    def length(self) -> int:
        return self._length

    @property
    def capacity(self) -> int:
        return 0 if self.k is None else self.k.shape[2]

    def append(self, k_new: np.ndarray, v_new: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Append new positions; returns views of the full (k, v) prefix."""
        seq = k_new.shape[2]
        need = self._length + seq
        if self.k is None:
            self.k = np.ascontiguousarray(k_new)
            self.v = np.ascontiguousarray(v_new)
        else:
            if need > self.capacity:
                new_cap = max(need, 2 * self.capacity)
                b, heads, _, d = self.k.shape
                k = np.zeros((b, heads, new_cap, d), dtype=self.k.dtype)
                k[:, :, :self._length] = self.k[:, :, :self._length]
                v = np.zeros((b, heads, new_cap, d), dtype=self.v.dtype)
                v[:, :, :self._length] = self.v[:, :, :self._length]
                self.k, self.v = k, v
            self.k[:, :, self._length:need] = k_new
            self.v[:, :, self._length:need] = v_new
        self._length = need
        return self.k[:, :, :need], self.v[:, :, :need]

    def truncate(self, new_len: int) -> None:
        """Shrink the cache to ``new_len`` positions (rollback primitive).

        Replaces ad-hoc ``_length`` writes: the discarded tail is
        re-zeroed so capacity beyond the logical length never exposes
        stale values, matching the pool-side
        :meth:`~repro.models.packed_kv.PackedKVPool.truncate` contract.
        """
        if not 0 <= new_len <= self._length:
            raise ValueError(
                f"new_len {new_len} outside [0, {self._length}]")
        if self.k is not None and new_len < self._length:
            self.k[:, :, new_len:self._length] = 0.0
            self.v[:, :, new_len:self._length] = 0.0
        self._length = new_len

    def memory_bytes(self, dtype_bytes: int = 2) -> int:
        """Logical cache footprint — GQA's inference saving is visible here."""
        if self.k is None:
            return 0
        b, heads, _, d = self.k.shape
        return dtype_bytes * 2 * b * heads * self._length * d

    def capacity_bytes(self, dtype_bytes: int = 2) -> int:
        """Allocated footprint (>= :meth:`memory_bytes` after growth)."""
        if self.k is None:
            return 0
        return dtype_bytes * (self.k.size + self.v.size)
