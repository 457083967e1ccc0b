"""Continuous-batching inference engine and cluster simulator.

The serving vertical of the repo: a request-level stack (pool →
scheduler → engine → metrics) that decodes with the real NumPy models
on a deterministic virtual clock, the analytic extrapolation that maps
a measured trace onto Frontier MI250X GCDs, and a multi-node cluster
simulator that routes Poisson traffic across replica layouts with
traced request lifecycles — optionally under seeded replica failures
with health-check detection and request failover (``repro.faults``).
Entry points: ``python -m repro serve-bench``, ``python -m repro
cluster-bench``, ``python -m repro fault-bench``, and ``python -m
repro overload-bench``.

The curated public surface is ``__all__`` below; one
:class:`ServingConfig` describes a replica for both the engine and the
cluster, and :class:`ServeResult` / :class:`ClusterResult` share
:class:`ServingResultBase` (``percentiles`` / ``to_dict`` /
``save_json``).
"""

from .cluster import (HANDOFF_POLICIES, LB_POLICIES, REPLICA_ROLES,
                      ClusterConfig, ClusterResult, ClusterSimulator,
                      ReplicaLayout, ReplicaServer, format_cluster)
from .config import (SHED_POLICIES, TRANSFER_GRANULARITIES, FailoverConfig,
                     KVTransferConfig, OverloadConfig, RoutingConfig,
                     ServingConfig, SpecDecodeConfig)
from .engine import DecodeCostModel, ServingEngine, run_sequential
from .kv_pool import KVPoolConfig, PagedKVPool, kv_bytes_per_token
from .metrics import (RequestRecord, ServingMetrics, TimelineSample,
                      format_metrics)
from .perf_model import (DeploymentEstimate, FrontierServingEstimate,
                         ServingPerfModel, format_estimate)
from .prefix_cache import CacheStats, PrefixMatch, RadixPrefixCache
from .results import (FailedRequest, ServeResult, ServingResultBase,
                      ShedRequest, TimedOutRequest, TransferRecord,
                      slo_availability)
from .scheduler import (PRIORITY_TIERS, ContinuousBatchScheduler, Request,
                        SchedulerConfig)
from .sessions import SessionWorkloadConfig, synthesize_sessions
from .transfer import KVTransferModel
from .workload import WorkloadConfig, synthesize_workload

__all__ = [
    # Unified configuration and result hierarchy.
    "ServingConfig", "ServingResultBase", "ServeResult", "ClusterResult",
    # Fault injection & failover (see also repro.faults).
    "FailoverConfig", "FailedRequest",
    # Overload protection: deadlines, shedding, graceful degradation.
    "OverloadConfig", "SHED_POLICIES", "PRIORITY_TIERS",
    "ShedRequest", "TimedOutRequest", "slo_availability",
    # Single-replica engine.
    "DecodeCostModel", "ServingEngine", "run_sequential",
    # Speculative decoding.
    "SpecDecodeConfig",
    # Cluster simulator.
    "ClusterConfig", "ClusterSimulator", "ReplicaLayout", "ReplicaServer",
    "RoutingConfig", "LB_POLICIES", "HANDOFF_POLICIES", "REPLICA_ROLES",
    "format_cluster",
    # Disaggregated prefill/decode KV transfer.
    "KVTransferConfig", "KVTransferModel", "TransferRecord",
    "TRANSFER_GRANULARITIES",
    # KV pool.
    "KVPoolConfig", "PagedKVPool", "kv_bytes_per_token",
    # Scheduling.
    "ContinuousBatchScheduler", "Request", "SchedulerConfig",
    # Prefix/KV reuse.
    "CacheStats", "PrefixMatch", "RadixPrefixCache",
    # Workloads and metrics.
    "WorkloadConfig", "synthesize_workload",
    "SessionWorkloadConfig", "synthesize_sessions",
    "RequestRecord", "ServingMetrics", "TimelineSample", "format_metrics",
    # Frontier extrapolation.
    "DeploymentEstimate", "FrontierServingEstimate", "ServingPerfModel",
    "format_estimate",
]
