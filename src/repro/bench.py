"""Wall-clock microbenchmarks for the batched decode path.

Everything else in the repo times work on a *virtual* clock; this module
is the deliberate exception (and lives outside the virtual-clock lint
scopes for that reason): it measures real elapsed seconds to demonstrate
that the packed-pool batched decode step actually amortizes Python and
matmul overhead the way :class:`~repro.serving.DecodeCostModel` credits
it.  ``python -m repro perf-bench`` drives it and writes
``BENCH_decode.json``, which also records the run environment (Python and
NumPy versions, the BLAS thread variables, CPU count): wall times are
only comparable between like environments.

Every row times its two sides in alternating rounds, each side on fresh
state (caches, pool) every round, and reports the median seconds
of each side plus the median of the per-round ratios.  A slow moment of
a shared host lands on one round of both sides instead of on one side's
best case, so the ratios the ratchet compares hold still between runs.

Two comparisons:

decode
    N same-length requests advanced ``new_tokens`` steps, sequentially
    (one ``_forward_cached`` call per request per step — the pre-batching
    engine inner loop) versus batched (one
    :meth:`~repro.models.GPTModel.decode_step_batched` call per step over
    a :class:`~repro.models.PackedKVPool`).  Tokens are asserted equal.

prefill
    One long prompt encoded monolithically versus in fixed-size chunks
    through the same cache (the ``prefill_chunk_tokens`` execution path).
    Tokens are asserted equal; wall times show the overhead chunking
    pays for its TTFT fairness.

speculative (``--spec-decode``)
    The plain batched decode loop versus :func:`spec_decode_step`
    (propose k, verify the whole window in one stacked forward, roll
    rejections back) with the n-gram draft, swept over k × temperature.
    The prompts tile a short pattern so generation revisits earlier context
    — the regime prompt-lookup drafting exists for.  Greedy rows assert
    token equality (speculative greedy is bitwise-identical by
    construction); each row records its measured acceptance rate, giving
    the acceptance-vs-speedup curve.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import time

import numpy as np

from .models import GPTModel, KVCache, PackedKVPool, preset
from .models.speculative import (NGramDraft, SamplingParams, request_rng,
                                 sample_token, spec_decode_step)

__all__ = ["bench_decode", "bench_prefill", "bench_spec_decode",
           "run_spec_bench", "run_perf_bench",
           "format_perf_bench", "compare_perf_baseline",
           "baseline_coverage"]

#: BLAS/OpenMP thread-count variables; wall times are only comparable
#: between runs that pin them alike.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _alternate(rounds: int, *sides):
    """Run each side once per round, in turn, for ``rounds`` rounds.

    A side is a callable that sets up fresh state, times its own work and
    returns ``(seconds, output)``.  Returns each side's per-round seconds
    and each side's last output.
    """
    if rounds < 1:
        raise ValueError(f"repeats must be >= 1: {rounds}")
    times = [[] for _ in sides]
    outputs = [None] * len(sides)
    for _ in range(rounds):
        for i, side in enumerate(sides):
            seconds, outputs[i] = side()
            times[i].append(seconds)
    return times, outputs


def _median_ratio(num: list[float], den: list[float]) -> float:
    """Median over rounds of ``num / den`` (inf for a zero denominator)."""
    return statistics.median(n / d if d > 0 else math.inf
                             for n, d in zip(num, den))


def _make_prompts(model, batch_size: int, prompt_len: int,
                  seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    vocab = model.config.vocab_size
    return [rng.integers(0, vocab, size=prompt_len)
            for _ in range(batch_size)]


def bench_decode(model: GPTModel, batch_size: int, prompt_len: int = 32,
                 new_tokens: int = 16, seed: int = 0,
                 repeats: int = 7) -> dict:
    """Time sequential vs batched greedy decode of one batch.

    Prefill is excluded from both timings — the comparison is the decode
    inner loop, which is where the engine spends its steps.  Returns the
    median wall time of each side over ``repeats`` interleaved rounds,
    the median per-round speedup, and a token-equality check.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    prompts = _make_prompts(model, batch_size, prompt_len, seed)

    def sequential():
        caches_list, last = [], []
        for prompt in prompts:
            caches = [KVCache() for _ in model.layers]
            logits = model._forward_cached(prompt[None], caches)
            caches_list.append(caches)
            last.append(int(logits.data[0, -1].argmax()))
        tokens = [[t] for t in last]
        t0 = time.perf_counter()
        for _ in range(new_tokens - 1):
            for i in range(batch_size):
                step = np.array([tokens[i][-1]], dtype=np.int64)
                logits = model._forward_cached(step[None], caches_list[i])
                tokens[i].append(int(logits.data[0, -1].argmax()))
        return time.perf_counter() - t0, tokens

    def batched():
        pool = PackedKVPool.for_model(model.config, num_slots=batch_size,
                                      block_tokens=max(16, prompt_len))
        slots, last = [], []
        for prompt in prompts:
            slot = pool.acquire()
            logits = model._forward_cached(prompt[None],
                                           pool.slot_caches(slot))
            slots.append(slot)
            last.append(int(logits.data[0, -1].argmax()))
        tokens = [[t] for t in last]
        t0 = time.perf_counter()
        for _ in range(new_tokens - 1):
            logits = model.decode_step_batched(
                np.array([t[-1] for t in tokens], dtype=np.int64),
                pool, slots)
            for i in range(batch_size):
                tokens[i].append(int(logits[i].argmax()))
        return time.perf_counter() - t0, tokens

    (seq_s, bat_s), (seq_tokens, bat_tokens) = _alternate(
        repeats, sequential, batched)
    return {
        "batch_size": batch_size,
        "prompt_len": prompt_len,
        "new_tokens": new_tokens,
        "sequential_s": statistics.median(seq_s),
        "batched_s": statistics.median(bat_s),
        "speedup": _median_ratio(seq_s, bat_s),
        "tokens_match": seq_tokens == bat_tokens,
    }


def bench_prefill(model: GPTModel, prompt_len: int = 48,
                  chunk_tokens: int = 16, seed: int = 0,
                  repeats: int = 7) -> dict:
    """Time monolithic vs chunked prefill of one long prompt.

    Medians over ``repeats`` interleaved rounds, as in
    :func:`bench_decode`; ``overhead_ratio`` is the median per-round
    chunked / monolithic ratio.
    """
    if chunk_tokens < 1:
        raise ValueError("chunk_tokens must be >= 1")
    prompt = _make_prompts(model, 1, prompt_len, seed)[0]

    def monolithic():
        caches = [KVCache() for _ in model.layers]
        t0 = time.perf_counter()
        logits = model._forward_cached(prompt[None], caches)
        return (time.perf_counter() - t0,
                int(logits.data[0, -1].argmax()))

    def chunked():
        caches = [KVCache() for _ in model.layers]
        t0 = time.perf_counter()
        pos, num_chunks = 0, 0
        while pos < prompt_len:
            step = prompt[pos:pos + chunk_tokens]
            logits = model._forward_cached(step[None], caches)
            pos += step.size
            num_chunks += 1
        return (time.perf_counter() - t0,
                (int(logits.data[0, -1].argmax()), num_chunks))

    (mono_s, chunk_s), (mono_token, (chunk_token, num_chunks)) = \
        _alternate(repeats, monolithic, chunked)
    return {
        "prompt_len": prompt_len,
        "chunk_tokens": chunk_tokens,
        "num_chunks": num_chunks,
        "monolithic_s": statistics.median(mono_s),
        "chunked_s": statistics.median(chunk_s),
        "overhead_ratio": _median_ratio(chunk_s, mono_s),
        "tokens_match": mono_token == chunk_token,
    }


def _patterned_prompts(model, batch_size: int, prompt_len: int,
                       seed: int, pattern_len: int = 8) -> list[np.ndarray]:
    """Prompts that tile a rotated seeded pattern.

    Periodic context drives greedy decoding of the test models into
    cycles that revisit the prompt — the structured regime (code,
    templated text) where prompt-lookup drafting earns its keep.  Random
    prompts would benchmark the draft at its uninformative worst.
    """
    rng = np.random.default_rng(seed)
    pattern = rng.integers(0, model.config.vocab_size, size=pattern_len)
    reps = prompt_len // pattern_len + 1
    return [np.tile(np.roll(pattern, i), reps)[:prompt_len].astype(np.int64)
            for i in range(batch_size)]


def bench_spec_decode(model: GPTModel, k: int = 4,
                      temperature: float = 0.0, batch_size: int = 4,
                      prompt_len: int = 24, new_tokens: int = 20,
                      seed: int = 0, repeats: int = 7) -> dict:
    """Time plain batched decode vs speculative decode of one batch.

    Both paths prefill identically (untimed) and then generate at least
    ``new_tokens`` per request; outputs are trimmed to ``new_tokens``
    before the greedy equality check.  Timings are medians over
    ``repeats`` interleaved rounds, as in :func:`bench_decode`.  ``tokens_match`` is ``None`` for
    sampled rows — rejection sampling consumes a different rng stream
    than plain sampling, so per-token equality is not defined there (the
    distributions match instead; see ``tests/test_speculative.py``).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1: {k}")
    cfg = model.config
    if prompt_len + new_tokens + k + 1 > cfg.max_seq_len:
        raise ValueError(
            f"prompt_len + new_tokens + k + 1 = "
            f"{prompt_len + new_tokens + k + 1} exceeds max_seq_len "
            f"{cfg.max_seq_len}")
    prompts = _patterned_prompts(model, batch_size, prompt_len, seed)
    params = [SamplingParams(temperature=temperature)
              for _ in range(batch_size)]

    def prefill(pool):
        slots, last = [], []
        for prompt in prompts:
            slot = pool.acquire()
            logits = model._forward_cached(prompt[None],
                                           pool.slot_caches(slot))
            slots.append(slot)
            last.append(int(logits.data[0, -1].argmax()))
        return slots, last

    def plain():
        pool = PackedKVPool.for_model(cfg, num_slots=batch_size,
                                      block_tokens=max(16, prompt_len))
        slots, last = prefill(pool)
        tokens = [[t] for t in last]
        rngs = [request_rng(seed + i) if temperature > 0 else None
                for i in range(batch_size)]
        t0 = time.perf_counter()
        for _ in range(new_tokens - 1):
            logits = model.decode_step_batched(
                np.array([t[-1] for t in tokens], dtype=np.int64),
                pool, slots)
            for i in range(batch_size):
                tokens[i].append(int(sample_token(logits[i], params[i],
                                                  rngs[i])))
        return time.perf_counter() - t0, [t[:new_tokens] for t in tokens]

    def speculative():
        pool = PackedKVPool.for_model(cfg, num_slots=batch_size,
                                      block_tokens=max(16, prompt_len))
        slots, last = prefill(pool)
        tokens = [[t] for t in last]
        rngs = [request_rng(seed + i) if temperature > 0 else None
                for i in range(batch_size)]
        proposer = NGramDraft()
        accepted = proposed = 0
        t0 = time.perf_counter()
        while min(len(t) for t in tokens) < new_tokens:
            contexts = [np.concatenate([
                prompts[i], np.asarray(tokens[i], dtype=np.int64)])
                for i in range(batch_size)]
            # Finished rows keep emitting one token per step (limit 1)
            # until the slowest row catches up; the trim below removes
            # the overshoot.
            limits = [max(1, new_tokens - len(tokens[i]))
                      for i in range(batch_size)]
            results = spec_decode_step(
                model, pool, slots, proposer, contexts, params, rngs, k,
                limits, [None] * batch_size)
            for i, (emitted, acc) in enumerate(results):
                tokens[i].extend(emitted)
                accepted += acc
                proposed += k
        return (time.perf_counter() - t0,
                ([t[:new_tokens] for t in tokens], accepted, proposed))

    (plain_s, spec_s), (plain_tokens, (spec_tokens, accepted, proposed)) = \
        _alternate(repeats, plain, speculative)
    return {
        "k": k,
        "temperature": temperature,
        "batch_size": batch_size,
        "prompt_len": prompt_len,
        "new_tokens": new_tokens,
        "plain_s": statistics.median(plain_s),
        "spec_s": statistics.median(spec_s),
        "speedup": _median_ratio(plain_s, spec_s),
        "acceptance_rate": accepted / proposed if proposed else 0.0,
        "tokens_match": (plain_tokens == spec_tokens
                         if temperature == 0.0 else None),
    }


def run_spec_bench(model_name: str = "tiny-llama",
                   ks: tuple[int, ...] = (2, 4, 8),
                   temperatures: tuple[float, ...] = (0.0, 0.8),
                   batch_size: int = 4, prompt_len: int = 24,
                   new_tokens: int = 20, seed: int = 0,
                   repeats: int = 7) -> list[dict]:
    """The acceptance-rate vs speedup sweep: k × temperature."""
    model = GPTModel(preset(model_name), seed=seed)
    return [bench_spec_decode(model, k=k, temperature=temp,
                              batch_size=batch_size, prompt_len=prompt_len,
                              new_tokens=new_tokens, seed=seed,
                              repeats=repeats)
            for k in ks for temp in temperatures]


def _run_environment() -> dict:
    """Where a run was measured: Python, NumPy, BLAS threads, CPUs."""
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            **{var: os.environ.get(var) for var in _THREAD_VARS},
            "cpu_count": os.cpu_count()}


def run_perf_bench(model_name: str = "tiny-llama",
                   batch_sizes: tuple[int, ...] = (1, 2, 4, 8),
                   prompt_len: int = 32, new_tokens: int = 16,
                   chunk_tokens: int = 16, prefill_len: int = 48,
                   seed: int = 0, repeats: int = 7,
                   spec_decode: bool = False,
                   spec_ks: tuple[int, ...] = (2, 4, 8),
                   spec_temperatures: tuple[float, ...] = (0.0, 0.8),
                   spec_tokens: int = 20) -> dict:
    """The full perf-bench sweep, as one JSON-ready dict."""
    model = GPTModel(preset(model_name), seed=seed)
    decode = [bench_decode(model, b, prompt_len=prompt_len,
                           new_tokens=new_tokens, seed=seed,
                           repeats=repeats)
              for b in batch_sizes]
    prefill = bench_prefill(model, prompt_len=prefill_len,
                            chunk_tokens=chunk_tokens, seed=seed,
                            repeats=repeats)
    results = {
        "model": model_name,
        "seed": seed,
        "repeats": repeats,
        "environment": _run_environment(),
        "decode": decode,
        "prefill": prefill,
    }
    if spec_decode:
        results["speculative"] = run_spec_bench(
            model_name, ks=spec_ks, temperatures=spec_temperatures,
            new_tokens=spec_tokens, seed=seed, repeats=repeats)
    return results


def _decode_key(row: dict) -> tuple:
    """A decode row's sweep point: speedups differ between shapes."""
    return row["batch_size"], row["prompt_len"], row["new_tokens"]


def _spec_key(row: dict) -> tuple:
    """A speculative row's sweep point."""
    return row["k"], row["temperature"], row["new_tokens"]


def baseline_coverage(results: dict, baseline: dict) -> dict[str, int]:
    """How many rows of each kind :func:`compare_perf_baseline` compares.

    A run whose rows all miss the baseline's sweep points passes the
    ratchet without being checked; callers gate on these counts.
    """
    base_decode = {_decode_key(row) for row in baseline.get("decode", [])}
    base_spec = {_spec_key(row) for row in baseline.get("speculative", [])}
    return {
        "decode": sum(_decode_key(row) in base_decode
                      for row in results.get("decode", [])),
        "prefill": int(bool(results.get("prefill")
                            and baseline.get("prefill"))),
        "speculative": sum(_spec_key(row) in base_spec
                           for row in results.get("speculative", [])),
    }


def compare_perf_baseline(results: dict, baseline: dict,
                          threshold: float = 0.25) -> list[str]:
    """Ratchet check of a perf-bench run against a committed baseline.

    Returns human-readable regression descriptions (empty = pass).  A
    decode row regresses when its speedup falls more than ``threshold``
    below the baseline's row of the same batch size, prompt length and
    token count; the prefill comparison regresses when its chunking
    overhead_ratio grows more than ``threshold`` above the baseline's.
    Only sweep points present in both runs are compared, so the sweep
    can grow without invalidating an old baseline
    (:func:`baseline_coverage` counts them).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1): {threshold}")
    problems: list[str] = []
    base_rows = {_decode_key(row): row
                 for row in baseline.get("decode", [])}
    for row in results.get("decode", []):
        base = base_rows.get(_decode_key(row))
        if base is None:
            continue
        floor = (1.0 - threshold) * base["speedup"]
        if row["speedup"] < floor:
            problems.append(
                f"decode batch {row['batch_size']}: speedup "
                f"{row['speedup']:.2f}x fell below {floor:.2f}x "
                f"(baseline {base['speedup']:.2f}x - {threshold:.0%})")
    base_prefill = baseline.get("prefill")
    prefill = results.get("prefill")
    if base_prefill and prefill:
        ceiling = (1.0 + threshold) * base_prefill["overhead_ratio"]
        if prefill["overhead_ratio"] > ceiling:
            problems.append(
                f"prefill: chunking overhead {prefill['overhead_ratio']:.2f}x "
                f"rose above {ceiling:.2f}x (baseline "
                f"{base_prefill['overhead_ratio']:.2f}x + {threshold:.0%})")
    # Speculative rows ratchet like decode rows, keyed by the sweep
    # point; greedy token equality is a hard invariant, not a ratchet.
    base_spec = {_spec_key(row): row
                 for row in baseline.get("speculative", [])}
    for row in results.get("speculative", []):
        label = f"spec k={row['k']} T={row['temperature']:g}"
        if row["tokens_match"] is False:
            problems.append(
                f"{label}: greedy speculative tokens diverged from "
                f"plain decode")
        base = base_spec.get(_spec_key(row))
        if base is None:
            continue
        floor = (1.0 - threshold) * base["speedup"]
        if row["speedup"] < floor:
            problems.append(
                f"{label}: speedup {row['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base['speedup']:.2f}x - "
                f"{threshold:.0%})")
    return problems


def format_perf_bench(results: dict) -> str:
    """Aligned text rendering of a :func:`run_perf_bench` result."""
    lines = [f"perf-bench — {results['model']} "
             f"(median of {results['repeats']} interleaved rounds)"]
    header = ["batch", "sequential", "batched", "speedup", "tokens"]
    rows = []
    for row in results["decode"]:
        rows.append([str(row["batch_size"]),
                     f"{row['sequential_s'] * 1e3:.1f} ms",
                     f"{row['batched_s'] * 1e3:.1f} ms",
                     f"{row['speedup']:.2f}x",
                     "match" if row["tokens_match"] else "MISMATCH"])
    widths = [max(len(header[i]), max(len(r[i]) for r in rows))
              for i in range(len(header))]
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(header)))
    lines += ["  ".join(c.ljust(widths[i]) for i, c in enumerate(r))
              for r in rows]
    p = results["prefill"]
    lines.append("")
    lines.append(
        f"prefill {p['prompt_len']} tokens: monolithic "
        f"{p['monolithic_s'] * 1e3:.1f} ms vs {p['num_chunks']} chunks of "
        f"{p['chunk_tokens']} at {p['chunked_s'] * 1e3:.1f} ms "
        f"({p['overhead_ratio']:.2f}x) — tokens "
        f"{'match' if p['tokens_match'] else 'MISMATCH'}")
    spec = results.get("speculative")
    if spec:
        lines.append("")
        lines.append("speculative decode (acceptance vs speedup)")
        header = ["k", "temp", "plain", "spec", "speedup", "accept",
                  "tokens"]
        rows = []
        for row in spec:
            match = {True: "match", False: "MISMATCH",
                     None: "sampled"}[row["tokens_match"]]
            rows.append([str(row["k"]), f"{row['temperature']:g}",
                         f"{row['plain_s'] * 1e3:.1f} ms",
                         f"{row['spec_s'] * 1e3:.1f} ms",
                         f"{row['speedup']:.2f}x",
                         f"{row['acceptance_rate']:.0%}", match])
        widths = [max(len(header[i]), max(len(r[i]) for r in rows))
                  for i in range(len(header))]
        lines.append("  ".join(h.ljust(widths[i])
                               for i, h in enumerate(header)))
        lines += ["  ".join(c.ljust(widths[i]) for i, c in enumerate(r))
                  for r in rows]
    return "\n".join(lines)
