"""The five benchmark workloads.

Every workload is open loop on the virtual clock: arrival times come
from the seed, and the system under test receives only the finished
request list.  The counts below (``scale`` = 1) are sized so serving
them takes about ``run_seconds`` of host time on a 2-core x86 VM.

``engine-*`` workloads drive :class:`~repro.serving.ServingEngine`, which
runs the NumPy model for every token; ``cluster-*`` workloads drive
:class:`~repro.serving.ClusterSimulator`, whose timing-level replicas
run no model forward at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.faults import FaultConfig
from repro.models import GPTModel, ModelConfig, preset
from repro.serving import (ClusterConfig, ClusterSimulator, FailoverConfig,
                           OverloadConfig, ReplicaLayout, Request,
                           RoutingConfig, ServingConfig, ServingEngine,
                           SessionWorkloadConfig, SpecDecodeConfig,
                           WorkloadConfig, synthesize_sessions,
                           synthesize_workload)

__all__ = ["WORKLOADS", "Workload", "Built", "build", "make_requests",
           "sub_seed"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the system it builds and its SLO limits."""

    name: str
    model: str                  # repro preset name
    engine: bool                # ServingEngine (NumPy model) or cluster
    ttft_limit_ms: float        # SLO: time to first token
    tpot_limit_ms: float        # SLO: time per output token
    config: Callable[[], ServingConfig | ClusterConfig]
    requests: Callable[[int, ModelConfig, float], list[Request]]
    reps: int = 5               # set-up-and-serve repetitions per run


def _count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def sub_seed(seed: int, stream: int) -> int:
    """An independent integer seed for one derived random stream."""
    return int(np.random.SeedSequence((seed, stream)).generate_state(1)[0])


# -- engine-decode ------------------------------------------------------------
def _decode_requests(seed: int, cfg: ModelConfig, scale: float):
    return synthesize_workload(WorkloadConfig(
        num_requests=_count(800, scale), arrival_rate=250.0,
        prompt_len_range=(8, 32), output_len_range=(8, 16), seed=seed), cfg)


# -- engine-prefix ------------------------------------------------------------
def _prefix_config() -> ServingConfig:
    return ServingConfig(prefix_cache=True, prefix_cache_blocks=12,
                         prefill_chunk_tokens=16)


def _prefix_requests(seed: int, cfg: ModelConfig, scale: float):
    return synthesize_sessions(SessionWorkloadConfig(
        num_sessions=_count(200, scale), arrival_rate=30.0,
        think_time_s=0.05, num_system_prompts=2,
        system_prompt_len_range=(48, 64), user_len_range=(8, 16),
        output_len_range=(8, 16), seed=seed), cfg)


# -- engine-spec --------------------------------------------------------------
def _spec_config() -> ServingConfig:
    return ServingConfig(spec_decode=SpecDecodeConfig(k=4, draft="ngram"))


def _spec_requests(seed: int, cfg: ModelConfig, scale: float):
    """Prompts tiling one seeded 8-token pattern (prompt-lookup regime).

    Even request ids decode greedily, odd ids sample at T=0.8 from their
    own seeded stream, so speculation wins on one half and loses on the
    other.
    """
    base = synthesize_workload(WorkloadConfig(
        num_requests=_count(800, scale), arrival_rate=300.0,
        prompt_len_range=(16, 32), output_len_range=(8, 16), seed=seed),
        cfg)
    pattern = np.random.default_rng(sub_seed(seed, 1)).integers(
        0, cfg.vocab_size, size=8)
    requests = []
    for r in base:
        sampled = r.request_id % 2 == 1
        tiled = np.tile(np.roll(pattern, r.request_id % 8),
                        r.prompt_len // 8 + 1)[:r.prompt_len]
        requests.append(Request(
            request_id=r.request_id, prompt=tiled,
            max_new_tokens=r.max_new_tokens, arrival_time=r.arrival_time,
            temperature=0.8 if sampled else 0.0,
            sampling_seed=sub_seed(seed, 1000 + r.request_id)
            if sampled else None))
    return requests


# -- cluster-fleet ------------------------------------------------------------
def _fleet_config() -> ClusterConfig:
    return ClusterConfig(
        num_nodes=16, layout=ReplicaLayout(replicas_per_node=8, tp=1),
        routing=RoutingConfig(policy="least-outstanding"))


def _fleet_requests(seed: int, cfg: ModelConfig, scale: float):
    return synthesize_workload(WorkloadConfig(
        num_requests=_count(16000, scale), arrival_rate=3000.0,
        prompt_len_range=(64, 256), output_len_range=(4, 16),
        prompt_skew=0.15, heavy_multiplier=8, seed=seed), cfg)


# -- cluster-chaos ------------------------------------------------------------
#: Per-GCD MTBF and per-replica straggler MTBE of 1.08 virtual seconds with
#: 0.25 s windows and recovery: the 8-replica node sees about five faults
#: per virtual second, enough that each run averages over hundreds of
#: them.  The schedule is a fixed scenario (its own seed), so a traffic
#: seed changes the arrivals, not the faults.
CHAOS_MTBF_HOURS = 0.0003
CHAOS_FAULT_SEED = 7


def _chaos_config() -> ClusterConfig:
    # No circuit breaker: a prefill replica hands every request off, so
    # no request ever finishes on it and a half-open breaker there never
    # closes -- both prefill replicas would end up excluded for good.
    return ClusterConfig(
        num_nodes=1, layout=ReplicaLayout.from_label("2P6DxTP1"),
        serving=ServingConfig(
            prefix_cache=True,
            overload=OverloadConfig(shed_policy="deadline-estimate")),
        routing=RoutingConfig(policy="cache-aware",
                              handoff="session-affinity"),
        faults=FaultConfig(mtbf_hours=CHAOS_MTBF_HOURS,
                           straggler_mtbe_hours=CHAOS_MTBF_HOURS,
                           straggler_window_s=0.25,
                           seed=CHAOS_FAULT_SEED),
        failover=FailoverConfig(recovery_s=0.25))


def _chaos_requests(seed: int, cfg: ModelConfig, scale: float):
    return synthesize_sessions(SessionWorkloadConfig(
        num_sessions=_count(8000, scale), arrival_rate=500.0,
        num_system_prompts=4, deadline_s=0.05, seed=seed), cfg)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("engine-decode", "small-llama", True, 3.0, 0.75,
             ServingConfig, _decode_requests),
    Workload("engine-prefix", "small-llama", True, 10.0, 1.3,
             _prefix_config, _prefix_requests),
    Workload("engine-spec", "small-llama", True, 3.5, 0.9,
             _spec_config, _spec_requests),
    Workload("cluster-fleet", "llama-1.7b-hf-52k", False, 100.0, 5.0,
             _fleet_config, _fleet_requests),
    # Three repetitions: each set-up builds eight 7.8 M-block pools.
    Workload("cluster-chaos", "tiny-llama", False, 30.0, 0.8,
             _chaos_config, _chaos_requests, reps=3),
)}


@dataclass
class Built:
    """One set-up system, its requests, and the set-up phase times."""

    workload: Workload
    model_config: ModelConfig
    model: GPTModel | None
    system: ServingEngine | ClusterSimulator
    requests: list[Request]
    phases: dict[str, float]


def make_requests(name: str, seed: int, cfg: ModelConfig,
                  scale: float) -> list[Request]:
    """The seeded request list of workload ``name``."""
    return WORKLOADS[name].requests(seed, cfg, scale)


def build(name: str, seed: int, scale: float, clock) -> Built:
    """Set up workload ``name``: model, requests, system (timed by phase).

    ``clock`` is the benchmark's host timer (``time.perf_counter``).
    The requests are drawn before the system is built, so drawing them
    never pays a garbage-collector pass over a large freshly built pool.
    """
    workload = WORKLOADS[name]
    t0 = clock()
    cfg = preset(workload.model)
    model = GPTModel(cfg, seed=0) if workload.engine else None
    t1 = clock()
    requests = make_requests(name, seed, cfg, scale)
    t2 = clock()
    if workload.engine:
        system = ServingEngine(model, workload.config())
    else:
        system = ClusterSimulator(cfg, workload.config())
    t3 = clock()
    return Built(workload, cfg, model, system, requests,
                 {"model": t1 - t0, "workload": t2 - t1, "build": t3 - t2})
