"""Tests for the nn-style layer library."""

import numpy as np
import pytest

from repro.models import (Dropout, Embedding, GeluMLP, LayerNorm, Linear,
                          Module, Parameter, RMSNorm, SwiGLUMLP, Tensor)


class TestLinear:
    def test_shapes_and_bias(self):
        lin = Linear(4, 6)
        out = lin(Tensor(np.ones((2, 3, 4))))
        assert out.shape == (2, 3, 6)

    def test_no_bias(self):
        lin = Linear(4, 6, bias=False)
        assert lin.bias is None
        assert len(lin.parameters()) == 1

    def test_gradient_flows_to_weight(self):
        lin = Linear(3, 2)
        lin(Tensor(np.ones((5, 3)))).sum().backward()
        assert lin.weight.grad is not None
        assert lin.bias.grad is not None
        np.testing.assert_allclose(lin.bias.grad, np.full(2, 5.0))


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(10, 4)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)
        np.testing.assert_allclose(out.data[0, 0], emb.weight.data[1])

    def test_out_of_range_raises(self):
        emb = Embedding(10, 4)
        with pytest.raises(IndexError):
            emb(np.array([10]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))


class TestNorms:
    def test_layernorm_normalizes(self):
        ln = LayerNorm(8)
        x = np.random.default_rng(0).normal(3.0, 5.0, size=(4, 8))
        out = ln(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-4)

    def test_rmsnorm_scale_invariant_direction(self):
        """RMSNorm(c*x) == RMSNorm(x) for c > 0 (no recentering)."""
        rn = RMSNorm(8)
        x = np.random.default_rng(1).normal(size=(3, 8))
        a = rn(Tensor(x)).data
        b = rn(Tensor(7.5 * x)).data
        # Invariance is exact only at eps=0; tolerance covers eps=1e-6.
        np.testing.assert_allclose(a, b, atol=1e-4)

    def test_rmsnorm_no_bias_parameter(self):
        assert len(RMSNorm(8).parameters()) == 1
        assert len(LayerNorm(8).parameters()) == 2

    def test_layernorm_shifts_with_nonzero_mean_but_rmsnorm_does_not(self):
        x = np.random.default_rng(2).normal(size=(2, 8))
        shifted = x + 100.0
        ln_out = LayerNorm(8)(Tensor(shifted)).data
        rn_out = RMSNorm(8)(Tensor(shifted)).data
        # LayerNorm removes the offset entirely.
        np.testing.assert_allclose(ln_out, LayerNorm(8)(Tensor(x)).data, atol=1e-6)
        # RMSNorm keeps it (output mean far from zero).
        assert abs(rn_out.mean()) > 0.5

    def test_norm_grads_flow(self):
        for norm in (LayerNorm(4), RMSNorm(4)):
            x = Tensor(np.random.default_rng(3).normal(size=(2, 4)),
                       requires_grad=True)
            norm(x).sum().backward()
            assert x.grad is not None and np.isfinite(x.grad).all()


class TestArrayForward:
    """Each module's array ``infer`` equals its Tensor ``forward`` bitwise.

    Hidden 48 is not a power of two, so a mean taken by dividing the
    sum by ``n`` (``ndarray.mean``) instead of multiplying by ``1 / n``
    (``Tensor.mean``) would differ in the last bit; the input is
    (rows, span, hidden), the shape every cached forward passes.
    """

    @staticmethod
    def randomized(module):
        # Non-trivial norm scales and shifts, so ``* 1`` and ``+ 0``
        # cannot hide a reordered op.
        rng = np.random.default_rng(1)
        for p in module.parameters():
            p.data = rng.normal(size=p.data.shape)
        return module

    @pytest.mark.parametrize("make", [
        lambda: Linear(48, 144, bias=True),
        lambda: Linear(48, 144, bias=False),
        lambda: RMSNorm(48),
        lambda: LayerNorm(48),
        lambda: GeluMLP(48, 192),
        lambda: SwiGLUMLP(48, 128),
    ], ids=["linear-bias", "linear", "rmsnorm", "layernorm", "gelu-mlp",
            "swiglu-mlp"])
    def test_infer_matches_forward(self, make):
        module = self.randomized(make())
        x = np.random.default_rng(2).normal(3.0, 2.0, size=(3, 5, 48))
        got = module.infer(x)
        assert isinstance(got, np.ndarray)
        np.testing.assert_array_equal(got, module(Tensor(x)).data)

    def test_embedding_infer_matches_forward(self):
        emb = Embedding(100, 48)
        ids = np.random.default_rng(3).integers(0, 100, size=(3, 5))
        np.testing.assert_array_equal(emb.infer(ids), emb(ids).data)
        for bad in ([100], [-1]):
            with pytest.raises(IndexError):
                emb.infer(np.array(bad))


class TestDropout:
    def test_eval_mode_identity(self):
        d = Dropout(0.5)
        d.eval()
        x = np.ones((4, 4))
        np.testing.assert_allclose(d(Tensor(x)).data, x)

    def test_train_mode_preserves_expectation(self):
        d = Dropout(0.3, rng=np.random.default_rng(0))
        x = np.ones((200, 200))
        out = d(Tensor(x)).data
        assert out.mean() == pytest.approx(1.0, abs=0.02)
        assert (out == 0).mean() == pytest.approx(0.3, abs=0.02)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)


class TestModule:
    def test_named_parameters_nested(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(2, 3)
                self.blocks = [Linear(3, 3), Linear(3, 3)]

            def forward(self, x):
                return self.blocks[1](self.blocks[0](self.a(x)))

        net = Net()
        names = dict(net.named_parameters())
        assert "a.weight" in names
        assert "blocks.0.weight" in names
        assert "blocks.1.bias" in names
        assert net.num_parameters() == (2 * 3 + 3) + 2 * (3 * 3 + 3)

    def test_state_dict_roundtrip(self):
        a, b = Linear(4, 4), Linear(4, 4, rng=np.random.default_rng(99))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_state_dict_mismatch_raises(self):
        a = Linear(4, 4)
        state = a.state_dict()
        del state["bias"]
        with pytest.raises(KeyError):
            Linear(4, 4).load_state_dict(state)

    def test_state_dict_shape_mismatch_raises(self):
        state = Linear(4, 4).state_dict()
        with pytest.raises((ValueError, KeyError)):
            Linear(4, 5).load_state_dict(state)

    def test_zero_grad(self):
        lin = Linear(2, 2)
        lin(Tensor(np.ones((1, 2)))).sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_train_eval_propagates(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.drop = Dropout(0.5)
                self.inner = [Dropout(0.5)]

            def forward(self, x):
                return self.inner[0](self.drop(x))

        net = Net()
        net.eval()
        assert not net.drop.training and not net.inner[0].training
        net.train()
        assert net.drop.training and net.inner[0].training

    def test_parameter_is_tensor_with_grad(self):
        p = Parameter(np.ones(3))
        assert p.requires_grad
