"""Tests for rotary attention and the flash-attention execution path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import (CausalSelfAttention, KVCache, RotaryEmbedding,
                          Tensor, flash_attention_forward)


def reference_attention(q, k, v, causal=True):
    """Naive O(n^2)-memory softmax attention for comparison."""
    d = q.shape[-1]
    scores = (q @ np.swapaxes(k, -1, -2)) / np.sqrt(d)
    if causal:
        n = q.shape[-2]
        mask = np.triu(np.ones((n, n), dtype=bool), k=1)
        scores = np.where(mask, -np.inf, scores)
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    return (e / e.sum(axis=-1, keepdims=True)) @ v


class TestFlashAttention:
    @pytest.mark.parametrize("seq,block", [(16, 4), (17, 5), (32, 32),
                                           (33, 8), (8, 64)])
    def test_matches_reference_causal(self, seq, block):
        rng = np.random.default_rng(seq)
        q, k, v = (rng.normal(size=(2, 3, seq, 8)) for _ in range(3))
        out = flash_attention_forward(q, k, v, block_size=block, causal=True)
        np.testing.assert_allclose(out, reference_attention(q, k, v), atol=1e-10)

    def test_matches_reference_noncausal(self):
        rng = np.random.default_rng(7)
        q, k, v = (rng.normal(size=(1, 2, 24, 16)) for _ in range(3))
        out = flash_attention_forward(q, k, v, block_size=7, causal=False)
        np.testing.assert_allclose(out, reference_attention(q, k, v, causal=False),
                                   atol=1e-10)

    def test_block_size_never_changes_result(self):
        rng = np.random.default_rng(3)
        q, k, v = (rng.normal(size=(1, 1, 40, 8)) for _ in range(3))
        outs = [flash_attention_forward(q, k, v, block_size=b)
                for b in (1, 3, 8, 40, 100)]
        for o in outs[1:]:
            np.testing.assert_allclose(o, outs[0], atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 30), st.integers(1, 16))
    def test_property_flash_equals_reference(self, seq, block):
        rng = np.random.default_rng(seq * 31 + block)
        q, k, v = (rng.normal(size=(1, 2, seq, 4)) for _ in range(3))
        np.testing.assert_allclose(
            flash_attention_forward(q, k, v, block_size=block),
            reference_attention(q, k, v), atol=1e-9)


class TestRotaryEmbedding:
    def test_preserves_norm(self):
        """Rotation is orthogonal: vector norms are unchanged."""
        rot = RotaryEmbedding(head_dim=8, max_seq_len=32)
        x = np.random.default_rng(0).normal(size=(1, 2, 16, 8))
        y = rot.apply(Tensor(x), 16).data
        np.testing.assert_allclose(np.linalg.norm(y, axis=-1),
                                   np.linalg.norm(x, axis=-1), atol=1e-9)

    def test_relative_position_property(self):
        """<RoPE(q,m), RoPE(k,n)> depends only on m - n."""
        rot = RotaryEmbedding(head_dim=8, max_seq_len=64)
        rng = np.random.default_rng(1)
        q = rng.normal(size=8)
        k = rng.normal(size=8)

        def dot_at(m, n):
            x = np.zeros((1, 1, 64, 8))
            x[0, 0, m] = q
            y = np.zeros((1, 1, 64, 8))
            y[0, 0, n] = k
            qr = rot.apply(Tensor(x), 64).data[0, 0, m]
            kr = rot.apply(Tensor(y), 64).data[0, 0, n]
            return qr @ kr

        np.testing.assert_allclose(dot_at(5, 3), dot_at(10, 8), atol=1e-9)
        np.testing.assert_allclose(dot_at(20, 11), dot_at(30, 21), atol=1e-9)

    def test_position_zero_identity(self):
        rot = RotaryEmbedding(head_dim=8, max_seq_len=4)
        x = np.random.default_rng(2).normal(size=(1, 1, 1, 8))
        np.testing.assert_allclose(rot.apply(Tensor(x), 1).data, x, atol=1e-12)

    def test_partial_rotary(self):
        rot = RotaryEmbedding(head_dim=8, max_seq_len=16, rotary_pct=0.5)
        assert rot.rotary_dim == 4
        x = np.random.default_rng(3).normal(size=(1, 1, 8, 8))
        y = rot.apply(Tensor(x), 8).data
        # Pass-through channels are untouched.
        np.testing.assert_allclose(y[..., 4:], x[..., 4:], atol=1e-12)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            RotaryEmbedding(head_dim=7, max_seq_len=8)

    def test_seq_too_long_rejected(self):
        rot = RotaryEmbedding(head_dim=8, max_seq_len=4)
        with pytest.raises(ValueError):
            rot.apply(Tensor(np.zeros((1, 1, 8, 8))), 8)


class TestCausalSelfAttention:
    def test_output_shape(self):
        attn = CausalSelfAttention(32, 4, max_seq_len=16)
        out = attn(Tensor(np.random.default_rng(0).normal(size=(2, 10, 32))))
        assert out.shape == (2, 10, 32)

    def test_causality(self):
        """Changing a future token must not affect earlier outputs."""
        attn = CausalSelfAttention(16, 2, max_seq_len=8)
        attn.eval()
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 6, 16))
        base = attn(Tensor(x)).data
        x2 = x.copy()
        x2[0, 5] += 10.0
        pert = attn(Tensor(x2)).data
        np.testing.assert_allclose(pert[0, :5], base[0, :5], atol=1e-10)
        assert not np.allclose(pert[0, 5], base[0, 5])

    def test_flash_path_matches_standard_in_eval(self):
        rng = np.random.default_rng(5)
        std = CausalSelfAttention(32, 4, max_seq_len=16, flash=0,
                                  rng=np.random.default_rng(9))
        fla = CausalSelfAttention(32, 4, max_seq_len=16, flash=1,
                                  rng=np.random.default_rng(9))
        fla.load_state_dict(std.state_dict())
        std.eval(); fla.eval()
        x = rng.normal(size=(1, 12, 32))
        np.testing.assert_allclose(fla(Tensor(x)).data, std(Tensor(x)).data,
                                   atol=1e-8)

    def test_flash_training_falls_back_to_standard(self):
        """Flash path is forward-only; in training mode grads must flow."""
        attn = CausalSelfAttention(16, 2, max_seq_len=8, flash=2)
        attn.train()
        x = Tensor(np.random.default_rng(6).normal(size=(1, 4, 16)),
                   requires_grad=True)
        attn(x).sum().backward()
        assert x.grad is not None and np.isfinite(x.grad).all()

    def test_grads_reach_qkv_weights(self):
        attn = CausalSelfAttention(16, 4, max_seq_len=8)
        attn(Tensor(np.random.default_rng(7).normal(size=(2, 8, 16)))).sum().backward()
        assert attn.qkv.weight.grad is not None
        assert np.abs(attn.qkv.weight.grad).max() > 0

    def test_invalid_head_split(self):
        with pytest.raises(ValueError):
            CausalSelfAttention(30, 4, max_seq_len=8)

    def test_forward_cached_rejects_multi_row_input(self):
        """One cache holds one row: a batch of rows must not be served
        by attending only the first row's context."""
        attn = CausalSelfAttention(16, 2, max_seq_len=8)
        cache = KVCache()
        x = Tensor(np.random.default_rng(8).normal(size=(2, 3, 16)))
        with pytest.raises(ValueError, match="one row"):
            attn.forward_cached(x, cache)
        assert cache.length == 0
