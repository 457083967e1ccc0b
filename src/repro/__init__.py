"""repro — reproduction of "Comparative Study of Large Language Model
Architectures on Frontier" (Yin et al., IPDPS 2024).

Subpackages
-----------
``repro.core``
    The paper's contribution: comparative-study orchestration,
    architecture search, recipes, observations.
``repro.models``
    NumPy autograd + GPT-NeoX / LLaMA transformer implementations.
``repro.tokenizers``
    From-scratch BPE (HF) and unigram (SPM) tokenizers.
``repro.data``
    Synthetic materials-science corpus pipeline (Table I).
``repro.frontier``
    Frontier hardware model: roofline, memory, power.
``repro.parallel``
    Distributed-training simulator: DP / ZeRO-1 / TP / PP.
``repro.training``
    Adam/LAMB optimizers, schedules, precision, trainer, loss surrogate.
``repro.profiling``
    rocprof / OmniTrace / rocm-smi analogues.
``repro.evalharness``
    Zero/few-shot multiple-choice evaluation harness.
``repro.matsci``
    Band-gap prediction: crystals, GNNs, LLM-embedding fusion.
``repro.serving``
    Continuous-batching inference engine with a paged KV-cache pool.
``repro.faults``
    Seeded fault injection: failures, stragglers, degraded links;
    consumed by training checkpoint-restart and serving failover.
``repro.analysis``
    Domain-specific static analysis enforcing the repo's simulation,
    autograd, and units invariants (``python -m repro lint``).
"""

import importlib

__version__ = "1.0.0"

__all__ = ["__version__"]

#: Imported on first attribute access (PEP 562), so ``import repro``
#: loads no subpackage and each entry point pays only for what it runs.
_SUBPACKAGES = frozenset({
    "analysis", "core", "data", "evalharness", "faults", "frontier",
    "matsci", "models", "parallel", "profiling", "serving", "tokenizers",
    "training"})


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
