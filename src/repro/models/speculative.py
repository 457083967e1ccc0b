"""Speculative decoding over the batched engine substrate.

A *draft* proposer guesses ``k`` tokens per running request; the target
model verifies every request's proposed suffix in ONE stacked forward
(:meth:`GPTModel.verify_step_batched` over the shared
:class:`~repro.models.packed_kv.PackedKVPool`), and standard rejection
sampling (Leviathan et al.) accepts a prefix of each row.  Rejected
positions are rolled back by shrinking slot lengths
(``PackedKVPool.truncate``), so the pool is the only KV bookkeeping.

The proposer is :class:`NGramDraft`, prompt-lookup decoding: propose
the continuation of the most recent earlier occurrence of the last *n*
context tokens.  It is free to run (no draft forward, no per-request
state) and very effective whenever generation revisits earlier context.

Correctness properties (tested):

* **Greedy** (``temperature == 0``): verification accepts a drafted
  token iff it equals the target argmax at that position and emits the
  target argmax on the first mismatch, so the emitted sequence is
  *bitwise identical* to non-speculative greedy decoding no matter how
  bad the proposer is — draft quality only moves throughput.
* **Sampled**: the target distribution is warped by the request's
  ``temperature``/``top_k``/``top_p`` before the accept test
  ``u <= p(d) / q(d)`` and the residual resample ``norm(max(p - q,
  0))``, so emitted tokens follow the warped target distribution
  exactly.  A deterministic proposer is the point mass ``q = 1{d}``.

Sampling helpers here (:func:`warp_probs` / :func:`sample_token`)
mirror ``GPTModel._pick`` op for op, so engine-side per-request
sampling is bit-compatible with ``GPTModel.generate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .packed_kv import PackedKVPool
from .transformer import GPTModel

__all__ = [
    "SamplingParams", "warp_probs", "sample_token", "request_rng",
    "NGramDraft", "accept_tokens", "spec_decode_step",
]


@dataclass(frozen=True)
class SamplingParams:
    """Per-request decoding parameters (defaults reproduce greedy)."""

    temperature: float = 0.0
    top_k: int = 0
    top_p: float = 1.0

    def __post_init__(self) -> None:
        if self.temperature < 0.0:
            raise ValueError("temperature must be >= 0")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")

    @property
    def greedy(self) -> bool:
        return self.temperature <= 0.0


def warp_probs(logits: np.ndarray, params: SamplingParams) -> np.ndarray:
    """Temperature/top-k/top-p warped probabilities of one logits row.

    Mirrors the op sequence of ``GPTModel._pick`` exactly, so
    ``rng.choice`` over the result is bit-compatible with ``generate``'s
    sampling.  Requires ``params.temperature > 0``.
    """
    scaled = (logits - logits.max()) / params.temperature
    p = np.exp(scaled)
    p /= p.sum()
    if params.top_k > 0:
        cutoff = np.sort(p)[-min(params.top_k, p.size)]
        p = np.where(p >= cutoff, p, 0.0)
    if params.top_p < 1.0:
        order = np.argsort(p)[::-1]
        cum = np.cumsum(p[order])
        keep_n = int(np.searchsorted(cum, params.top_p) + 1)
        mask = np.zeros_like(p)
        mask[order[:keep_n]] = 1.0
        p = p * mask
    p /= p.sum()
    return p


def sample_token(logits: np.ndarray, params: SamplingParams,
                 rng: np.random.Generator | None) -> int:
    """Pick one token — bit-identical to ``GPTModel._pick``."""
    if params.greedy:
        return int(logits.argmax())
    if rng is None:
        raise ValueError("sampling (temperature > 0) requires an rng")
    p = warp_probs(logits, params)
    return int(rng.choice(len(p), p=p))


def request_rng(seed: int) -> np.random.Generator:
    """The per-request sampling stream for ``seed`` (SeedSequence-spawned)."""
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


class NGramDraft:
    """Prompt-lookup proposer: continue the last seen n-gram's context.

    For each request the last ``n`` context tokens are searched for in
    the earlier context (most recent occurrence wins); the ``k`` tokens
    that followed it are proposed.  With no match the last token is
    repeated — a deliberately cheap fallback whose mispredictions cost
    nothing beyond the verify positions.  Stateless: no draft KV, no
    per-request lifecycle, zero proposal cost in the cost model.
    """

    def __init__(self, n: int = 3):
        if n < 1:
            raise ValueError("ngram n must be >= 1")
        self.n = n

    def propose(self, contexts, k: int) -> np.ndarray:
        """The ``(len(contexts), k)`` drafted tokens, one row per context."""
        out = np.empty((len(contexts), k), dtype=np.int64)
        for i, ctx in enumerate(contexts):
            ctx = np.asarray(ctx, dtype=np.int64)
            out[i] = self._lookup(ctx, k)
        return out

    def _lookup(self, ctx: np.ndarray, k: int) -> np.ndarray:
        n = min(self.n, ctx.size)
        tail = ctx[ctx.size - n:]
        proposal = np.full(k, ctx[-1], dtype=np.int64)
        # Most recent earlier occurrence of the trailing n-gram.
        for start in range(ctx.size - n - 1, -1, -1):
            if np.array_equal(ctx[start:start + n], tail):
                follow = ctx[start + n:start + n + k]
                proposal[:follow.size] = follow
                if follow.size and follow.size < k:
                    proposal[follow.size:] = follow[-1]
                break
        return proposal


def accept_tokens(target_logits: np.ndarray, draft_tokens: np.ndarray,
                  draft_probs, params: SamplingParams,
                  rng: np.random.Generator | None, limit: int,
                  eos_id: int | None = None) -> tuple[list[int], int]:
    """Rejection-sample one request's verify window.

    ``target_logits`` has shape (k + 1, vocab): row ``j < k`` judges
    ``draft_tokens[j]``, row ``k`` is the bonus distribution when the
    whole window is accepted.  ``draft_probs`` is either a list of
    warped draft distributions (a stochastic proposer) or ``None`` —
    a deterministic proposer, treated as a point mass at the drafted
    token.  Returns ``(emitted, accepted)`` where ``accepted`` counts
    drafted tokens kept; ``len(emitted)`` is in ``[1, k + 1]``, clipped
    to ``limit`` and cut at ``eos_id``.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    k = len(draft_tokens)
    emitted: list[int] = []
    accepted = 0

    def stopped(token: int) -> bool:
        return (len(emitted) >= limit
                or (eos_id is not None and token == eos_id))

    if params.greedy:
        for j in range(k):
            top = int(target_logits[j].argmax())
            emitted.append(top)
            if top == int(draft_tokens[j]):
                accepted += 1
                if stopped(top):
                    return emitted, accepted
            else:
                return emitted, accepted
        emitted.append(int(target_logits[k].argmax()))
        return emitted, accepted

    if rng is None:
        raise ValueError("sampled acceptance requires an rng")
    for j in range(k):
        p = warp_probs(target_logits[j], params)
        d = int(draft_tokens[j])
        q = draft_probs[j] if draft_probs is not None else None
        q_d = 1.0 if q is None else float(q[d])
        u = float(rng.random())
        if q_d > 0.0 and u * q_d <= float(p[d]):
            emitted.append(d)
            accepted += 1
            if stopped(d):
                return emitted, accepted
            continue
        if q is None:
            residual = p.copy()
            residual[d] = 0.0
        else:
            residual = np.maximum(p - q, 0.0)
        total = residual.sum()
        if total <= 0.0:
            residual = p  # q == p exactly; any residual draw matches p
        else:
            residual = residual / total
        emitted.append(int(rng.choice(len(residual), p=residual)))
        return emitted, accepted
    emitted.append(sample_token(target_logits[k], params, rng))
    return emitted, accepted


def spec_decode_step(model: GPTModel, pool: PackedKVPool, slots, proposer,
                     contexts, params_list, rngs, k: int, limits,
                     eos_ids) -> list[tuple[list[int], int]]:
    """One speculative step for N requests: propose, verify, roll back.

    ``contexts[i]`` is request *i*'s full token sequence (prompt +
    output so far, the last token not yet encoded in ``slots[i]``),
    ``limits[i]`` its remaining token budget.  Returns per-request
    ``(emitted, accepted)``; the pool is left consistent with the
    emitted tokens — slot ``i`` holds ``pre_len + len(emitted)``
    positions, the last emission not yet encoded, exactly the invariant
    plain batched decoding maintains.
    """
    batch = len(slots)
    pre_lens = [pool.length(0, slot) for slot in slots]
    proposals = proposer.propose(contexts, k)
    last = np.array([contexts[i][-1] for i in range(batch)], dtype=np.int64)
    blocks = np.concatenate([last.reshape(-1, 1), proposals], axis=1)
    logits = model.verify_step_batched(blocks, pool, slots)
    results: list[tuple[list[int], int]] = []
    for i in range(batch):
        emitted, acc = accept_tokens(logits[i], proposals[i], None,
                                     params_list[i], rngs[i], limits[i],
                                     eos_ids[i])
        pool.truncate(slots[i], pre_lens[i] + len(emitted))
        results.append((emitted, acc))
    return results
