"""Neural-network building blocks shared by the GPT-NeoX and LLaMA stacks.

The module system mirrors the familiar torch.nn API surface at a much
smaller scale: a :class:`Module` owns named :class:`Parameter` leaves and
child modules, exposes ``parameters()`` / ``named_parameters()``, and
supports train/eval mode toggling (for dropout).

Every module a cached forward reaches (:class:`Linear`,
:class:`Embedding`, :class:`LayerNorm`, :class:`RMSNorm` and the MLPs)
has two forwards.  ``forward`` runs on :class:`Tensor` and records the
autograd graph; training runs it, and it is the reference.  ``infer``
runs on raw arrays and repeats ``forward``'s NumPy ops in the same
order, so its result is bitwise equal to ``forward(Tensor(x)).data``;
prefill, batched decode and speculative verify run it and build no
:class:`Tensor`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "Embedding",
    "LayerNorm",
    "RMSNorm",
    "Dropout",
]


class Parameter(Tensor):
    """A tensor that is registered as trainable state of a module."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class providing parameter registration and mode switching."""

    def __init__(self) -> None:
        self.training = True

    # Parameters / submodules are discovered from instance attributes, so
    # subclasses just assign them in __init__ like torch modules.
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for attr, value in vars(self).items():
            if attr.startswith("_"):
                continue
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{name}.{i}", item

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total trainable parameter count."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for attr, value in vars(self).items():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}")
        for name, p in params.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}")
            p.data = state[name].astype(p.data.dtype, copy=True)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine map ``y = x @ W + b`` with optional bias.

    GPT-NeoX uses biases throughout; LLaMA drops them.  Initialization
    follows the GPT-NeoX "small init" scheme: N(0, 0.02) scaled by
    ``1/sqrt(fan_in)`` relative width.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        scale = 1.0 / np.sqrt(in_features)
        self.weight = Parameter(rng.normal(0.0, scale, size=(in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a raw array (inference)."""
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data
        return out


class Embedding(Module):
    """Token-id → vector lookup table."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, dim)))
        self.num_embeddings = num_embeddings
        self.dim = dim

    def forward(self, token_ids: np.ndarray) -> Tensor:
        return self.weight.embedding_lookup(self._checked(token_ids))

    def infer(self, token_ids: np.ndarray) -> np.ndarray:
        """:meth:`forward` returning the looked-up rows as an array."""
        return self.weight.data[self._checked(token_ids)]

    def _checked(self, token_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(token_ids)
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.num_embeddings:
            raise IndexError(
                f"token id out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}")
        return ids


def _row_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the last axis, rounded exactly as :meth:`Tensor.mean`.

    ``sum * (1 / n)``, never ``ndarray.mean``: that one divides the sum
    by ``n``, which differs in the last bit whenever ``n`` is not a
    power of two (hidden 48, 100, 2304, ...), and the norms' ``infer``
    must stay bitwise equal to their ``forward``.
    """
    return x.sum(axis=-1, keepdims=True) * (1.0 / x.shape[-1])


class LayerNorm(Module):
    """Classic layer normalization with learned scale and shift (GPT-NeoX)."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.weight = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))
        self.eps = eps
        self.dim = dim

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normed = (x - mu) / (var + self.eps).sqrt()
        return normed * self.weight + self.bias

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a raw array (inference)."""
        centred = x - _row_mean(x)
        var = _row_mean(centred ** 2)
        normed = centred / np.sqrt(var + self.eps)
        return normed * self.weight.data + self.bias.data


class RMSNorm(Module):
    """Root-mean-square normalization without re-centering (LLaMA).

    Cheaper than LayerNorm (no mean subtraction, no bias) — one of the two
    MLP/norm differences between the NeoX and LLaMA layers in Fig 2 of the
    paper.
    """

    def __init__(self, dim: int, eps: float = 1e-6):
        super().__init__()
        self.weight = Parameter(np.ones(dim))
        self.eps = eps
        self.dim = dim

    def forward(self, x: Tensor) -> Tensor:
        ms = (x * x).mean(axis=-1, keepdims=True)
        return x * ((ms + self.eps) ** -0.5) * self.weight

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a raw array (inference)."""
        ms = _row_mean(x * x)
        return x * ((ms + self.eps) ** -0.5) * self.weight.data


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.0, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1): {p}")
        self.p = p
        self._rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep) / keep
        return x * Tensor(mask)
