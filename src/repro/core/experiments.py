"""Programmatic experiment registry: ``reproduce("fig4")``.

Every paper artifact, ablation and extension is one registry entry: a
regeneration function that returns structured data, and a claims
function that checks that data against what the paper reports.

>>> from repro.core.experiments import reproduce
>>> result = reproduce("table4")
>>> result.data["rows"]
>>> [c.name for c in result.claims if not c.holds]

Shared heavy artifacts (tokenizers, the packed corpus, trained tiny
models) are built lazily once per :class:`ExperimentContext` and reused
across experiments.  Regeneration functions import what they use inside
their bodies, so importing this module loads none of it.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Claim", "ExperimentContext", "ExperimentResult",
           "ExperimentSpec", "EXPERIMENTS", "list_experiments", "reproduce",
           "reproduce_all"]


class ExperimentContext:
    """Lazily-built shared artifacts for the experiment registry."""

    def __init__(self, seed: int = 0, train_steps: int = 100):
        self.seed = seed
        self.train_steps = train_steps
        self._cache: dict[str, object] = {}

    def _get(self, key: str, build: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- cheap singletons -------------------------------------------------
    @property
    def simulator(self):
        from ..parallel.simulator import TrainingSimulator
        return self._get("simulator", TrainingSimulator)

    @property
    def roofline(self):
        from ..frontier.roofline import RooflineModel
        return self._get("roofline", RooflineModel)

    @property
    def memory(self):
        from ..frontier.memory import MemoryModel
        return self._get("memory", MemoryModel)

    @property
    def power(self):
        from ..frontier.power import PowerModel
        return self._get("power", PowerModel)

    # -- trained artifacts ------------------------------------------------
    @property
    def corpus(self) -> list[str]:
        def build():
            from ..data.corpus import AbstractGenerator
            return [d.text for d in AbstractGenerator(self.seed).sample(
                250, materials_fraction=1.0)]
        return self._get("corpus", build)

    @property
    def tokenizer(self):
        """HF-style byte-pair tokenizer of the corpus, vocabulary 512."""
        def build():
            from ..tokenizers import BPETokenizer
            return BPETokenizer().train(self.corpus, 512)
        return self._get("tokenizer", build)

    @property
    def spm_tokenizer(self):
        """SentencePiece-style unigram tokenizer, vocabulary 512."""
        def build():
            from ..tokenizers import UnigramTokenizer
            return UnigramTokenizer().train(self.corpus, 512)
        return self._get("spm-tokenizer", build)

    def dataset(self, tokenizer: str = "hf"):
        """The corpus packed into 48-token sequences ("hf" or "spm")."""
        def build():
            from ..data.dataset import PackedDataset
            tok = self.spm_tokenizer if tokenizer == "spm" \
                else self.tokenizer
            return PackedDataset.from_texts(self.corpus, tok, seq_len=48,
                                            seed=self.seed)
        return self._get(f"dataset-{tokenizer}", build)

    def trained_model(self, arch: str, tokenizer: str = "hf",
                      steps: int | None = None):
        """A tiny ``arch`` model trained with Adam on ``dataset(tokenizer)``.

        ``steps`` defaults to the context's ``train_steps``.
        """
        steps = steps or self.train_steps

        def build():
            from ..models.config import preset
            from ..models.transformer import GPTModel
            from ..training.trainer import Trainer, TrainerConfig
            model = GPTModel(preset(f"tiny-{arch}"), seed=self.seed)
            Trainer(model, self.dataset(tokenizer), TrainerConfig(
                optimizer="adam", lr=5e-3, batch_size=8, max_steps=steps,
                eval_every=10 ** 9, seed=self.seed)).train()
            return model
        return self._get(f"model-{arch}-{tokenizer}-{steps}", build)

    def optimizer_runs(self) -> dict:
        """Tiny-LLaMA histories: Adam at batch 4 vs LAMB at 4x the batch.

        The paper's 1M-token Adam vs 4M-token LAMB recipes (Table III,
        Fig 13) scaled down: 60 steps each on ``dataset()``.
        """
        def build():
            from ..models.config import preset
            from ..models.transformer import GPTModel
            from ..training.trainer import Trainer, TrainerConfig
            runs = {}
            for opt, lr, batch in (("adam", 5e-3, 4), ("lamb", 0.02, 16)):
                model = GPTModel(preset("tiny-llama"), seed=self.seed)
                runs[opt] = Trainer(model, self.dataset(), TrainerConfig(
                    optimizer=opt, lr=lr, batch_size=batch, max_steps=60,
                    eval_every=59, seed=self.seed)).train()
            return runs
        return self._get("optimizer-runs", build)


@dataclass(frozen=True)
class Claim:
    """One checked statement about a reproduced artifact.

    ``holds`` is the verdict of the claim's predicate.  ``ours`` and
    ``paper`` are the reproduced and published values it is about, when
    there are any; they are for display and residuals, and the
    predicate alone decides ``holds``.
    """

    name: str
    holds: bool
    ours: object = None
    paper: object = None

    def __post_init__(self):
        object.__setattr__(self, "holds", bool(self.holds))
        object.__setattr__(self, "ours", _plain(self.ours))
        object.__setattr__(self, "paper", _plain(self.paper))


def _plain(value):
    """NumPy scalars as Python numbers, so claims print and serialize."""
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered artifact: how to regenerate it and what to check."""

    exp_id: str
    title: str
    kind: str              # "table" | "figure" | "ablation" | "extension"
    regenerate: Callable[[ExperimentContext], dict]
    claims: Callable[[dict], list[Claim]]
    heavy: bool = False    # needs real training


@dataclass(frozen=True)
class ExperimentResult:
    exp_id: str
    title: str
    data: dict
    claims: tuple[Claim, ...]


# ---------------------------------------------------------------------------
# Tables.
# ---------------------------------------------------------------------------
#: Table I: (abstracts, full texts, tokens) per source.
_TABLE_I_PAPER = {
    "CORE": (2.5e6, 0.3e6, 8.8e9),
    "MAG": (15e6, 0.0, 3.5e9),
    "Aminer": (3e6, 0.0, 1.2e9),
    "SCOPUS": (6e6, 0.0, 1.5e9),
}


def _table1(ctx: ExperimentContext) -> dict:
    from ..data.corpus import AbstractGenerator
    from ..data.screening import ScreeningClassifier, screen_sources
    from ..data.sources import build_all_sources, corpus_token_table
    sources = build_all_sources(seed=ctx.seed)
    labeled = AbstractGenerator(seed=1000).sample(250, materials_fraction=0.5)
    clf = ScreeningClassifier().fit(
        [d.text for d in labeled],
        np.array([d.is_materials for d in labeled], dtype=float))
    kept, reports = screen_sources(sources, clf)
    return {"rows": corpus_token_table(sources, tokenizer=ctx.tokenizer),
            "screening": [{"source": r.source, "total": r.total,
                           "kept": r.kept, "precision": r.precision,
                           "keep_rate": r.keep_rate} for r in reports],
            "kept": len(kept),
            "kept_non_materials": sum(not d.is_materials for d in kept),
            "kept_materials_or_scopus": all(
                d.is_materials or d.source == "SCOPUS" for d in kept)}


def _table1_claims(d: dict) -> list[Claim]:
    by = {r["source"]: r for r in d["rows"]}
    total, core = by["All"], by["CORE"]["tokens"]
    claims = []
    for name, (n_abs, n_full, _) in _TABLE_I_PAPER.items():
        claims += [
            Claim(f"{name} abstracts = paper x 1e-4",
                  by[name]["abstracts"] == round(n_abs * 1e-4),
                  by[name]["abstracts"], n_abs),
            Claim(f"{name} full texts = paper x 1e-4",
                  by[name]["fulltext"] == round(n_full * 1e-4),
                  by[name]["fulltext"], n_full)]
    screening = {r["source"]: r for r in d["screening"]}
    return claims + [
        Claim("all abstracts = 2650", total["abstracts"] == 2650,
              total["abstracts"], 26.5e6),
        Claim("all full texts = 30", total["fulltext"] == 30,
              total["fulltext"], 0.3e6),
        Claim("CORE tokens > 0.4 x all tokens",
              core > 0.4 * total["tokens"], (core, total["tokens"]),
              (_TABLE_I_PAPER["CORE"][2], 15e9)),
        Claim("CORE is the largest token source",
              core == max(by[s]["tokens"] for s in _TABLE_I_PAPER), core,
              _TABLE_I_PAPER["CORE"][2]),
        Claim("screening precision > 0.9 on every source",
              all(r["precision"] > 0.9 for r in d["screening"]),
              min(r["precision"] for r in d["screening"])),
        Claim("screening keeps every SCOPUS document",
              screening["SCOPUS"]["keep_rate"] == 1.0,
              screening["SCOPUS"]["keep_rate"]),
        Claim("kept documents are materials or SCOPUS, or < 10% are not",
              d["kept_materials_or_scopus"] or
              d["kept_non_materials"] / d["kept"] < 0.1,
              d["kept_non_materials"] / d["kept"]),
    ]


def _table2(ctx: ExperimentContext) -> dict:
    from ..models.config import TABLE_II, preset
    from ..models.transformer import GPTModel
    return {"rows": [{"key": key, "name": c.name,
                      "params": c.num_parameters(),
                      "hidden": c.hidden_size, "layers": c.num_layers,
                      "heads": c.num_heads, "head_dim": c.head_dim,
                      "tokenizer": c.tokenizer, "vocab": c.vocab_size}
                     for key, c in TABLE_II.items()],
            "live_params": {
                name: [GPTModel(preset(name), seed=ctx.seed).num_parameters(),
                       preset(name).num_parameters()]
                for name in ("tiny-neox", "tiny-llama", "small-neox",
                             "small-llama")}}


def _table2_claims(d: dict) -> list[Claim]:
    by = {r["key"]: r for r in d["rows"]}
    claims = []
    for size, nominal, shape in (("1.7b", 1.7e9, (2304, 24, 24, 96)),
                                 ("6.7b", 6.7e9, (4096, 32, 32, 128))):
        for arch in ("llama", "neox"):
            r = by[f"{arch}-{size}-hf-52k"]
            ours = (r["hidden"], r["layers"], r["heads"], r["head_dim"])
            claims += [
                Claim(f"{arch}-{size} (hidden, layers, heads, head dim)",
                      ours == shape, ours, shape),
                Claim(f"{arch}-{size} parameters within 5% of nominal",
                      abs(r["params"] - nominal) / nominal < 0.05,
                      r["params"], nominal)]
    claims += [
        Claim("SPM variant uses the spm tokenizer",
              by["llama-1.7b-spm-32k"]["tokenizer"] == "spm",
              by["llama-1.7b-spm-32k"]["tokenizer"], "spm"),
        Claim("32K variant has a 32000 vocabulary",
              by["llama-1.7b-hf-32k"]["vocab"] == 32000,
              by["llama-1.7b-hf-32k"]["vocab"], 32000)]
    return claims + [
        Claim(f"{name} live parameters = analytic count", live == analytic,
              live)
        for name, (live, analytic) in d["live_params"].items()]


#: Table III: (beta1, beta2, learning rate, batch tokens) per recipe.
_TABLE_III_PAPER = {("1.7B", "adam"): (0.9, 0.95, 2e-4, 1e6),
                    ("1.7B", "lamb"): (0.9, 0.999, 0.01, 4e6),
                    ("6.7B", "lamb"): (0.9, 0.999, 0.006, 4e6)}


def _table3(ctx: ExperimentContext) -> dict:
    from .recipes import TABLE_III
    return {"rows": [{"model": r.model_size, "optimizer": r.optimizer,
                      "beta1": r.beta1, "beta2": r.beta2,
                      "lr": r.learning_rate, "batch_tokens": r.batch_tokens}
                     for r in TABLE_III],
            "tiny_val_loss": {opt: h.final_val_loss
                              for opt, h in ctx.optimizer_runs().items()}}


def _lamb_competitive(d: dict) -> Claim:
    val = d["tiny_val_loss"]
    return Claim("tiny 4x-batch LAMB val loss < 1.10 x small-batch Adam's",
                 val["lamb"] < val["adam"] * 1.10, val["lamb"] / val["adam"])


def _table3_claims(d: dict) -> list[Claim]:
    claims = []
    for r in d["rows"]:
        ours = (r["beta1"], r["beta2"], r["lr"], r["batch_tokens"])
        paper = _TABLE_III_PAPER[(r["model"], r["optimizer"])]
        claims.append(Claim(
            f"{r['model']} {r['optimizer']} (beta1, beta2, LR, batch)",
            ours == paper, ours, paper))
    return claims + [_lamb_competitive(d)]


def _table4(ctx: ExperimentContext) -> dict:
    from ..models.config import preset
    from ..parallel.strategy import ParallelConfig
    rows = []
    for name, pc in (("1.7B", ParallelConfig(dp=256)),
                     ("6.7B", ParallelConfig(dp=256, zero_stage=1))):
        model = preset(f"neox-{name.lower()}-hf-52k").with_flash(1)
        prof = ctx.simulator.step(model, pc)
        tflops = ctx.simulator.per_gcd_tflops(model, pc)
        # ~28B tokens: the volume at which the paper's times and
        # throughputs agree (EXPERIMENTS.md, token-budget note).
        steps = 28e9 / (256 * 8 * 2048)
        duration = steps * prof.total_s
        summary = ctx.power.run_summary(prof.kernel_fractions(),
                                        duration_s=duration, num_gcds=256)
        rows.append({"model": name, "gpus": 256,
                     "hours": duration / 3600,
                     "energy_mwh": summary.energy_mwh,
                     "tflops_per_watt": summary.tflops_per_watt(tflops),
                     "watts": summary.mean_package_watts})
    return {"rows": rows}


def _table4_claims(d: dict) -> list[Claim]:
    s, b = ({k: r[k] for k in ("hours", "energy_mwh", "tflops_per_watt",
                                "watts")} for r in d["rows"])
    return [
        Claim("1.7B hours in (2.5, 6.5)", 2.5 < s["hours"] < 6.5,
              s["hours"], 4.1),
        Claim("6.7B hours in (12, 28)", 12 < b["hours"] < 28,
              b["hours"], 16.5),
        Claim("1.7B MWh in (0.15, 0.40)",
              0.15 < s["energy_mwh"] < 0.40, s["energy_mwh"], 0.23),
        Claim("6.7B MWh in (0.6, 1.6)", 0.6 < b["energy_mwh"] < 1.6,
              b["energy_mwh"], 0.91),
        Claim("6.7B / 1.7B hours in (3, 6)",
              3.0 < b["hours"] / s["hours"] < 6.0,
              b["hours"] / s["hours"], 16.5 / 4.1),
        Claim("6.7B / 1.7B MWh in (3, 6)",
              3.0 < b["energy_mwh"] / s["energy_mwh"] < 6.0,
              b["energy_mwh"] / s["energy_mwh"], 0.91 / 0.23),
        Claim("1.7B more TFLOPS/W than 6.7B",
              s["tflops_per_watt"] > b["tflops_per_watt"],
              (s["tflops_per_watt"], b["tflops_per_watt"]), (0.33, 0.27)),
        Claim("1.7B TFLOPS/W in (0.25, 0.40)",
              0.25 < s["tflops_per_watt"] < 0.40,
              s["tflops_per_watt"], 0.33),
        Claim("6.7B TFLOPS/W in (0.20, 0.33)",
              0.20 < b["tflops_per_watt"] < 0.33,
              b["tflops_per_watt"], 0.27),
        Claim("6.7B mean package power < 1.7B's", b["watts"] < s["watts"],
              (s["watts"], b["watts"])),
    ]


#: Table V: band-gap test MAE (eV) per model.
_TABLE_V_PAPER = {"cgcnn": 0.388, "megnet": 0.33, "alignn": 0.218,
                  "mfcgnn": 0.215, "+scibert": 0.204, "+gpt": 0.197}


def _table5(ctx: ExperimentContext) -> dict:
    from ..matsci.embeddings import GPTFormulaEmbedder, MatSciBERTEmbedder
    from ..matsci.fusion import run_table_v
    from ..matsci.materials import generate_dataset
    dataset = generate_dataset(500, seed=ctx.seed)
    results = run_table_v(
        dataset, GPTFormulaEmbedder(ctx.trained_model("llama"),
                                    ctx.tokenizer),
        MatSciBERTEmbedder(), epochs=250, seed=ctx.seed, n_seeds=3)
    return {"rows": [{"model": r.model, "test_mae": r.test_mae}
                     for r in results]}


def _table5_claims(d: dict) -> list[Claim]:
    m = {r["model"]: r["test_mae"] for r in d["rows"]}
    p = _TABLE_V_PAPER
    basic = (m["cgcnn"] + m["megnet"]) / 2
    angle = (m["alignn"] + m["mfcgnn"]) / 2
    structure_best = min(m["cgcnn"], m["megnet"], m["alignn"], m["mfcgnn"])
    paper_gap = (p["cgcnn"] + p["megnet"] - p["alignn"] - p["mfcgnn"]) / 2
    return [
        Claim("CGCNN has the largest MAE", m["cgcnn"] == max(m.values()),
              m["cgcnn"], p["cgcnn"]),
        Claim("angle-aware mean MAE < edge-model mean - 0.02",
              angle < basic - 0.02, basic - angle, paper_gap),
        Claim("+SciBERT beats every structure-only model",
              m["+scibert"] < structure_best, m["+scibert"], p["+scibert"]),
        Claim("+GPT <= +SciBERT + 0.003", m["+gpt"] <= m["+scibert"] + 0.003,
              m["+gpt"], p["+gpt"]),
        Claim("+GPT beats every structure-only model",
              m["+gpt"] < structure_best, structure_best - m["+gpt"],
              p["mfcgnn"] - p["+gpt"]),
        Claim("a fusion model has the smallest MAE",
              min(m.values()) in (m["+gpt"], m["+scibert"]), min(m.values()),
              p["+gpt"]),
        Claim("ALIGNN and MF-CGNN within 0.04",
              abs(m["alignn"] - m["mfcgnn"]) < 0.04,
              abs(m["alignn"] - m["mfcgnn"]), p["alignn"] - p["mfcgnn"]),
    ]


# ---------------------------------------------------------------------------
# Figures.
# ---------------------------------------------------------------------------
def _fig1(ctx: ExperimentContext) -> dict:
    from .evolution import dominant_branch, releases_per_year
    per_year = releases_per_year()
    return {"per_year": per_year,
            "dominant": {y: dominant_branch(y) for y in per_year}}


def _fig1_claims(d: dict) -> list[Claim]:
    table, years = d["per_year"], sorted(d["per_year"])
    ed = [table[y]["encoder-decoder"] for y in years]
    return [
        Claim("release years 2018-2023",
              years == [2018, 2019, 2020, 2021, 2022, 2023], years),
        Claim("encoder-only dominates 2019",
              d["dominant"][2019] == "encoder-only", d["dominant"][2019],
              "encoder-only"),
    ] + [Claim(f"decoder-only dominates {y}",
               d["dominant"][y] == "decoder-only", d["dominant"][y],
               "decoder-only") for y in (2021, 2022, 2023)] + [
        Claim("2023 decoder-only releases > 2 x 2019's",
              table[2023]["decoder-only"] > 2 * table[2019]["decoder-only"],
              (table[2023]["decoder-only"], table[2019]["decoder-only"])),
        Claim("encoder-decoder count varies by <= 2",
              max(ed) - min(ed) <= 2, max(ed) - min(ed)),
    ]


def _fig2(ctx: ExperimentContext) -> dict:
    from ..models.config import preset
    from ..models.flops import layer_accounting
    out = {}
    for arch in ("neox", "llama"):
        acc = layer_accounting(preset(f"{arch}-1.7b-hf-52k"),
                               seq_len=2048, batch_size=16)
        out[arch] = {"params": acc.total_params,
                     "forward_flops": acc.total_forward_flops,
                     "components": acc.flops_by_component(),
                     "param_groups": dict(acc.params),
                     "attention_flops": acc.attention_flops(),
                     "mlp_gemms": sum(g.name == "mlp" for g in acc.gemms),
                     "training_flops": acc.total_training_flops}
    return out


def _fig2_claims(d: dict) -> list[Claim]:
    neox, llama = d["neox"], d["llama"]
    param_gap = abs(neox["params"] - llama["params"]) / neox["params"]
    flop_gap = abs(neox["forward_flops"] - llama["forward_flops"]) \
        / neox["forward_flops"]
    attn_bias = neox["param_groups"]["attention"] \
        - llama["param_groups"]["attention"]
    return [
        Claim("layer parameters within 1%", param_gap < 0.01, param_gap),
        Claim("layer forward FLOPs within 1%", flop_gap < 0.01, flop_gap),
        Claim("attention FLOPs identical",
              neox["attention_flops"] == llama["attention_flops"],
              neox["attention_flops"]),
        Claim("attention parameters differ only by NeoX's 4 x 2304 biases",
              attn_bias == 4 * 2304, attn_bias, 4 * 2304),
        Claim("LayerNorm has 2x RMSNorm's parameters",
              neox["param_groups"]["norms"] ==
              2 * llama["param_groups"]["norms"],
              (neox["param_groups"]["norms"], llama["param_groups"]["norms"])),
        Claim("NeoX MLP has 2 GEMMs", neox["mlp_gemms"] == 2,
              neox["mlp_gemms"], 2),
        Claim("LLaMA MLP has 3 GEMMs", llama["mlp_gemms"] == 3,
              llama["mlp_gemms"], 3),
        Claim("training FLOPs = 3 x forward",
              neox["training_flops"] == 3 * neox["forward_flops"],
              neox["training_flops"] / neox["forward_flops"], 3),
    ]


def _fig4(ctx: ExperimentContext) -> dict:
    from .architecture_search import flash_boost_table, run_grid_search
    heatmap = run_grid_search("neox", roofline=ctx.roofline)
    layers, hiddens, matrix = heatmap.as_matrix()
    return {"layers": layers, "hiddens": hiddens,
            "matrix": matrix.tolist(),
            "best": {"layers": heatmap.best_cell.num_layers,
                     "hidden": heatmap.best_cell.hidden_size,
                     "head_dim": heatmap.best_cell.head_dim,
                     "tflops": heatmap.best_tflops},
            "worst_tflops": heatmap.worst_tflops,
            "eligible_outperform_rate": heatmap.eligible_outperform_rate(),
            "flash": flash_boost_table("neox", roofline=ctx.roofline)}


def _fig4_claims(d: dict) -> list[Claim]:
    best, boosts = d["best"], d["flash"]
    v1 = float(np.mean([r["boost_v1"] for r in boosts]))
    v2 = float(np.mean([r["boost_v2"] for r in boosts]))
    best_v1 = max(r["flash_v1"] for r in boosts)
    best_v2 = max(r["flash_v2"] for r in boosts)
    return [
        Claim("worst cell TFLOPS/GCD in (50, 62)",
              50 < d["worst_tflops"] < 62, d["worst_tflops"], 58),
        Claim("best cell TFLOPS/GCD in (72, 80)",
              72 < best["tflops"] < 80, best["tflops"], 76),
        Claim("best cell (layers, hidden)",
              (best["layers"], best["hidden"]) == (24, 2304),
              (best["layers"], best["hidden"]), (24, 2304)),
        Claim("best cell head dim = 96", best["head_dim"] == 96,
              best["head_dim"], 96),
        Claim("head_dim % 8 cells win >= 60% of layer rows",
              d["eligible_outperform_rate"] >= 0.6,
              d["eligible_outperform_rate"]),
        Claim("mean flash v1 boost in (0.10, 0.18)", 0.10 < v1 < 0.18,
              v1, 0.14),
        Claim("mean flash v2 boost in (0.15, 0.23)", 0.15 < v2 < 0.23,
              v2, 0.19),
        Claim("best flash v1 TFLOPS/GCD in (78, 88)",
              78 < best_v1 < 88, best_v1, 82),
        Claim("best flash v2 TFLOPS/GCD in (80, 92)",
              80 < best_v2 < 92, best_v2, 84),
        Claim("best flash v2 > 43% of the 191.5 TFLOPS peak",
              best_v2 / 191.5 > 0.43, best_v2 / 191.5, 0.43),
    ]


def _fig5(ctx: ExperimentContext) -> dict:
    from ..models.config import preset
    cfg = preset("neox-1.7b-hf-52k")
    rows = []
    for s in (2048, 4096, 8192, 16384, 32768, 65536):
        no_flash = ctx.memory.breakdown(cfg, seq_len=s, flash=0)
        flash = ctx.memory.breakdown(cfg, seq_len=s, flash=1)
        rows.append({"seq": s,
                     "no_flash": no_flash.utilization,
                     "flash": flash.utilization,
                     "no_flash_fits": no_flash.fits,
                     "flash_fits": flash.fits})
    return {"rows": rows,
            "max_seq_no_flash": ctx.memory.max_seq_len(cfg, flash=0),
            "max_seq_flash": ctx.memory.max_seq_len(cfg, flash=1),
            "model_states": ctx.memory.breakdown(
                cfg, seq_len=2048, flash=1).model_states,
            "params": cfg.num_parameters()}


def _fig5_claims(d: dict) -> list[Claim]:
    by = {r["seq"]: r for r in d["rows"]}
    maxima = (d["max_seq_no_flash"], d["max_seq_flash"])
    flash_ratio = by[32768]["flash"] / by[16384]["flash"]
    noflash_ratio = by[32768]["no_flash"] / by[16384]["no_flash"]
    return [
        Claim("8192 fits without flash (HBM fraction)",
              by[8192]["no_flash_fits"] is True, by[8192]["no_flash"]),
        Claim("16384 OOMs without flash (HBM fraction)",
              by[16384]["no_flash_fits"] is False, by[16384]["no_flash"]),
        Claim("32768 fits with flash (HBM fraction)",
              by[32768]["flash_fits"] is True, by[32768]["flash"]),
        Claim("65536 OOMs with flash (HBM fraction)",
              by[65536]["flash_fits"] is False, by[65536]["flash"]),
        Claim("max context with flash = 4 x without (no flash / flash)",
              d["max_seq_flash"] == 4 * d["max_seq_no_flash"], maxima,
              (8192, 32768)),
        Claim("flash memory 16k -> 32k grows < 2.2x", flash_ratio < 2.2,
              flash_ratio),
        Claim("no-flash memory 16k -> 32k grows > 2.5x", noflash_ratio > 2.5,
              noflash_ratio),
        # Exact: the 12 bytes/param rule is the model's definition of the
        # model-state term, not a measured quantity.
        Claim("model states = 12 bytes x parameters",
              d["model_states"] == 12.0 * d["params"],  # repro: ignore[RPR005]
              d["model_states"] / d["params"], 12),
    ]


def _fig6(ctx: ExperimentContext) -> dict:
    from .architecture_search import FIG4_GRID
    rows = []
    for cell in (c for c in FIG4_GRID if c.eligible):
        rows.append({"arch": f"{cell.num_layers}x{cell.hidden_size}",
                     "neox": ctx.roofline.achieved_tflops(
                         cell.to_config("neox"), flash=1),
                     "llama": ctx.roofline.achieved_tflops(
                         cell.to_config("llama"), flash=1)})
    return {"rows": rows}


def _fig6_claims(d: dict) -> list[Claim]:
    rows = d["rows"]
    wins = sum(r["neox"] > r["llama"] for r in rows)
    gap = max(abs(r["neox"] - r["llama"]) / r["neox"] for r in rows)
    return [
        Claim("eight flash-eligible cells", len(rows) == 8, len(rows), 8),
        Claim("NeoX faster in >= 6 of 8 cells", wins >= 6, wins, 7),
        Claim("NeoX and LLaMA within 15% in every cell",
              all(abs(r["neox"] - r["llama"]) / r["neox"] < 0.15
                  for r in rows), gap),
    ]


def _fig7(ctx: ExperimentContext) -> dict:
    from ..models.config import preset
    from ..parallel.strategy import ParallelConfig
    rows = []
    for size in ("1.7b", "6.7b"):
        model = preset(f"neox-{size}-hf-52k").with_flash(1)
        for pc in (ParallelConfig(dp=8), ParallelConfig(dp=8, zero_stage=1),
                   ParallelConfig(dp=4, tp=2), ParallelConfig(dp=4, pp=2)):
            prof = ctx.simulator.step(model, pc, check_memory=True)
            rows.append({
                "model": size, "strategy": pc.label,
                "fits": prof.memory.fits,
                "hbm": prof.memory.utilization,
                "tflops": (ctx.simulator.per_gcd_tflops(model, pc)
                           if prof.memory.fits else None)})
    return {"rows": rows}


def _fig7_claims(d: dict) -> list[Claim]:
    v = {(r["model"], r["strategy"]): r["tflops"] for r in d["rows"]
         if r["fits"]}
    dp67 = next(r for r in d["rows"]
                if (r["model"], r["strategy"]) == ("6.7b", "DP"))
    zero, tp, pp = (v[("6.7b", s)] for s in ("ZeRO=1", "TP=2", "PP=2"))
    dp17 = v[("1.7b", "DP")]
    return [
        Claim("6.7B plain DP OOMs on one node (HBM fraction)",
              ("6.7b", "DP") not in v, dp67["hbm"]),
        Claim("6.7B: ZeRO-1 > TP=2 > PP=2", zero > tp > pp, (zero, tp, pp)),
        Claim("6.7B ZeRO-1 TFLOPS/GCD in (75, 92)", 75 < zero < 92,
              zero, 81),
        Claim("6.7B PP=2 < 0.8 x ZeRO-1", pp < 0.8 * zero, pp / zero),
        Claim("1.7B PP=2 < 0.8 x DP", v[("1.7b", "PP=2")] < 0.8 * dp17,
              v[("1.7b", "PP=2")] / dp17),
        Claim("1.7B DP >= ZeRO-1", dp17 >= v[("1.7b", "ZeRO=1")],
              (dp17, v[("1.7b", "ZeRO=1")])),
        Claim("1.7B DP >= TP=2", dp17 >= v[("1.7b", "TP=2")],
              (dp17, v[("1.7b", "TP=2")])),
    ]


def _fig8(ctx: ExperimentContext) -> dict:
    from ..models.config import preset
    from ..parallel.strategy import ParallelConfig
    from ..profiling.rocprof import aggregate_step
    gpus = [8, 16, 32, 64, 128, 256]
    sweeps, fractions = {}, {}
    for strategy, size, pc in (
            ("dp", "1.7b", ParallelConfig(dp=256)),
            ("zero1", "6.7b", ParallelConfig(dp=256, zero_stage=1)),
            ("tp2", "6.7b", ParallelConfig(dp=128, tp=2))):
        model = preset(f"neox-{size}-hf-52k").with_flash(1)
        pts = ctx.simulator.scaling_sweep(model, strategy, gpus)
        sweeps[f"{size}-{strategy}"] = [
            {"gpus": p.n_gpus, "tflops": p.per_gcd_tflops,
             "efficiency": p.efficiency, "pflops": p.aggregate_pflops}
            for p in pts]
        fractions[f"{size}-{strategy}"] = aggregate_step(
            ctx.simulator.step(model, pc)).fractions()
    return {"gpus": gpus, "sweeps": sweeps, "fractions": fractions}


def _fig8_claims(d: dict) -> list[Claim]:
    dp, zero, tp = ({p["gpus"]: p for p in d["sweeps"][k]}
                    for k in ("1.7b-dp", "6.7b-zero1", "6.7b-tp2"))
    z, f = d["fractions"]["6.7b-zero1"], d["fractions"]["1.7b-dp"]
    return [
        Claim("1.7B DP at 256 GPUs > 17 PFLOPS", dp[256]["pflops"] > 17.0,
              dp[256]["pflops"], 18),
        Claim("1.7B DP efficiency at 256 GPUs > 0.80",
              dp[256]["efficiency"] > 0.80, dp[256]["efficiency"], 0.88),
        Claim("ZeRO-1 flat 16 -> 64 GPUs (> 0.97x)",
              zero[64]["tflops"] > 0.97 * zero[16]["tflops"],
              zero[64]["tflops"] / zero[16]["tflops"]),
        Claim("ZeRO-1 drops 64 -> 256 GPUs (< 0.90x)",
              zero[256]["tflops"] < 0.90 * zero[64]["tflops"],
              zero[256]["tflops"] / zero[64]["tflops"]),
        Claim("TP=2 > ZeRO-1 at 256 GPUs",
              tp[256]["tflops"] > zero[256]["tflops"],
              (tp[256]["tflops"], zero[256]["tflops"])),
        Claim("TP=2 efficiency at 256 GPUs > 0.71",
              tp[256]["efficiency"] > 0.71, tp[256]["efficiency"], 0.71),
        Claim("ZeRO-1 >= TP=2 - 3 at 64 GPUs",
              zero[64]["tflops"] >= tp[64]["tflops"] - 3.0,
              (zero[64]["tflops"], tp[64]["tflops"])),
        Claim("ZeRO-1 comm share in (0.25, 0.50)",
              0.25 < z["comm"] < 0.50, z["comm"], 0.40),
        Claim("ZeRO-1 IO share in (0.02, 0.08)",
              0.02 < z["io"] < 0.08, z["io"], 0.05),
        Claim("DP comm share < ZeRO-1's", f["comm"] < z["comm"],
              (f["comm"], z["comm"])),
        Claim("DP compute share > 0.75", f["compute"] > 0.75, f["compute"]),
    ]


def _fig9(ctx: ExperimentContext) -> dict:
    from ..models.config import preset
    from ..parallel.strategy import ParallelConfig
    from ..profiling.tracer import build_step_trace
    model = preset("neox-6.7b-hf-52k").with_flash(2)
    profile = ctx.simulator.step(model, ParallelConfig(dp=256, zero_stage=1))
    trace = build_step_trace(model, profile, flash=2)
    times, watts = trace.power_trace(ctx.power, dt=5e-3)
    fwd = trace.events_in("forward")
    events = sorted(trace.events, key=lambda e: e.start_s)
    return {"duration_s": trace.duration_s,
            "forward_layers": len({e.name.split("/")[0] for e in fwd
                                   if "/" in e.name}),
            "layer0_flash_span": any(e.name == "layer0/flash_attention"
                                     for e in fwd),
            "forward_compute_s": sum(e.duration_s for e in fwd
                                     if e.phase == "compute"),
            "backward_s": sum(e.duration_s
                              for e in trace.events_in("backward")),
            "comm_s": sum(e.duration_s for e in trace.events_in("comm")),
            "min_gap_s": min(b.start_s - a.end_s
                             for a, b in zip(events, events[1:])),
            "power_w": {"min": float(watts.min()), "max": float(watts.max())},
            "trace_end_s": float(times[-1])}


def _fig9_claims(d: dict) -> list[Claim]:
    bwd_ratio = d["backward_s"] / d["forward_compute_s"]
    return [
        Claim("32 forward layer groups", d["forward_layers"] == 32,
              d["forward_layers"], 32),
        Claim("layer 0 has a fused flash-attention span",
              d["layer0_flash_span"]),
        Claim("backward / forward compute in (1.7, 2.3)",
              1.7 < bwd_ratio < 2.3, bwd_ratio, 2.0),
        Claim("allreduce tail > 10% of the step",
              d["comm_s"] > 0.1 * d["duration_s"],
              d["comm_s"] / d["duration_s"]),
        Claim("peak power > 470 W", d["power_w"]["max"] > 470,
              d["power_w"]["max"]),
        Claim("minimum power < 400 W", d["power_w"]["min"] < 400,
              d["power_w"]["min"]),
        Claim("trace events do not overlap (min gap >= -1e-9 s)",
              d["min_gap_s"] >= -1e-9, d["min_gap_s"]),
        Claim("power trace covers the step (within 2%)",
              math.isclose(d["trace_end_s"], d["duration_s"], rel_tol=0.02),
              (d["trace_end_s"], d["duration_s"])),
    ]


def _fig10(ctx: ExperimentContext) -> dict:
    from ..models.config import preset
    from ..profiling.breakdown import layer_breakdown
    out = {}
    for label, name in (("medium", "neox-1.7b-hf-52k"),
                        ("large", "neox-6.7b-hf-52k")):
        bd = layer_breakdown(preset(name), flash=2, roofline=ctx.roofline)
        out[label] = {"gemm_fraction": bd.gemm_fraction,
                      "gemm_shares": bd.gemm_shares(),
                      "component_shares": bd.component_shares(),
                      "no_flash_gemm_shares": layer_breakdown(
                          preset(name), flash=0,
                          roofline=ctx.roofline).gemm_shares()}
    return out


def _fig10_claims(d: dict) -> list[Claim]:
    med, big = d["medium"], d["large"]
    shares = big["gemm_shares"]
    top2 = sorted(shares, key=shares.get, reverse=True)[:2]
    component_sum = sum(big["component_shares"].values())
    gemm_sum = sum(shares.values())
    return [
        Claim("GEMM share grows with scale, medium > 0.60",
              big["gemm_fraction"] > med["gemm_fraction"] > 0.60,
              (med["gemm_fraction"], big["gemm_fraction"]), (0.659, 0.912)),
        Claim("QKV and MLP are the two largest GEMMs (large)",
              set(top2) == {"qkv", "mlp"}, tuple(top2)),
        Claim("QKV + MLP > 60% of GEMM time (large)",
              shares["qkv"] + shares["mlp"] > 0.6,
              shares["qkv"] + shares["mlp"]),
        Claim("flash fuses score and AOV",
              "flash" in shares and "score" not in shares),
        Claim("no-flash layer has score and AOV GEMMs",
              {"score", "aov"} <= set(big["no_flash_gemm_shares"])),
        Claim("component shares sum to 1",
              abs(component_sum - 1.0) < 1e-9, component_sum),
        Claim("GEMM shares sum to 1", abs(gemm_sum - 1.0) < 1e-9, gemm_sum),
    ]


def _fig11(ctx: ExperimentContext) -> dict:
    from ..models.config import preset
    from ..parallel.strategy import ParallelConfig
    rows = []
    for label, size, pc in (
            ("dp", "1.7b", ParallelConfig(dp=256)),
            ("zero1", "6.7b", ParallelConfig(dp=256, zero_stage=1)),
            ("tp2", "6.7b", ParallelConfig(dp=128, tp=2))):
        model = preset(f"neox-{size}-hf-52k").with_flash(1)
        log = ctx.simulator.step(model, pc).schedule.log
        counts, _ = log.histogram()
        rows.append({"run": label, "calls": log.num_calls,
                     "bytes": log.total_bytes,
                     "vs_model_size": log.volume_vs_model_size(model),
                     "ops": sorted(log.by_op()),
                     "histogram_calls": int(counts.sum())})
    return {"rows": rows}


def _fig11_claims(d: dict) -> list[Claim]:
    dp, zero, tp = ({r["run"]: r for r in d["rows"]}[k]
                    for k in ("dp", "zero1", "tp2"))
    return [
        Claim("ZeRO-1 calls >= 5 x DP's", zero["calls"] >= 5 * dp["calls"],
              zero["calls"] / dp["calls"]),
        Claim("TP=2 calls >= 5 x DP's", tp["calls"] >= 5 * dp["calls"],
              tp["calls"] / dp["calls"]),
        Claim("DP volume = 2 x model size (+-0.1)",
              abs(dp["vs_model_size"] - 2.0) < 0.1, dp["vs_model_size"], 2),
        Claim("ZeRO-1 volume = 2 x model size (+-0.1)",
              abs(zero["vs_model_size"] - 2.0) < 0.1, zero["vs_model_size"],
              2),
        Claim("TP=2 volume = 3 x model size (+-0.3)",
              abs(tp["vs_model_size"] - 3.0) < 0.3, tp["vs_model_size"], 3),
        Claim("DP issues only allreduce", set(dp["ops"]) == {"allreduce"},
              " ".join(dp["ops"])),
        Claim("ZeRO-1 issues reduce-scatter and all-gather",
              set(zero["ops"]) == {"reducescatter", "allgather"},
              " ".join(zero["ops"])),
        Claim("TP=2 issues only allreduce", set(tp["ops"]) == {"allreduce"},
              " ".join(tp["ops"])),
    ] + [Claim(f"{r['run']} histogram counts every call",
               r["histogram_calls"] == r["calls"], r["histogram_calls"])
         for r in d["rows"]]


def _fig12(ctx: ExperimentContext) -> dict:
    from ..models.config import preset
    from ..parallel.strategy import ParallelConfig
    from ..profiling.smi import sample_run
    out = {}
    for label, pc in (("1.7B", ParallelConfig(dp=256)),
                      ("6.7B", ParallelConfig(dp=256, zero_stage=1))):
        model = preset(f"neox-{label.lower()}-hf-52k").with_flash(1)
        mem = ctx.memory.breakdown(model, micro_batch=8, dp=pc.dp,
                                   zero_stage=pc.zero_stage).total / 1e9
        trace = sample_run(ctx.simulator.step(model, pc), memory_gb=mem,
                           num_steps=4)
        _, _, memory, _ = trace.arrays()
        out[label] = {"mean_power_w": trace.mean_power,
                      "power_std_w": trace.power_oscillation,
                      "utilization": trace.mean_utilization,
                      "memory_cv": memory.std() / memory.mean()}
    return out


def _fig12_claims(d: dict) -> list[Claim]:
    s, b = d["1.7B"], d["6.7B"]
    return [
        Claim("1.7B mean power in (450, 510) W",
              450 < s["mean_power_w"] < 510, s["mean_power_w"], 476),
        Claim("6.7B mean power in (410, 470) W",
              410 < b["mean_power_w"] < 470, b["mean_power_w"], 434),
        Claim("6.7B mean power < 1.7B's",
              b["mean_power_w"] < s["mean_power_w"],
              (s["mean_power_w"], b["mean_power_w"]), (476, 434)),
        Claim("6.7B power oscillates more",
              b["power_std_w"] > s["power_std_w"],
              (s["power_std_w"], b["power_std_w"])),
        Claim("1.7B utilization > 0.95", s["utilization"] > 0.95,
              s["utilization"]),
        Claim("6.7B utilization > 0.95", b["utilization"] > 0.95,
              b["utilization"]),
    ] + [Claim(f"{label} memory flat (CV < 0.01)", t["memory_cv"] < 0.01,
               t["memory_cv"]) for label, t in d.items()]


def _fig13(ctx: ExperimentContext) -> dict:
    from ..training.loss_model import LossCurveModel
    lm = LossCurveModel()
    curves = {r.label: lm.curve(r) for r in lm.fig13_recipes()}
    return {"finals": {label: c.final_train for label, c in curves.items()},
            "min_val_margin": min(float(np.min(c.val - c.train * 0.999))
                                  for c in curves.values()),
            "tiny_val_loss": {opt: h.final_val_loss
                              for opt, h in ctx.optimizer_runs().items()}}


def _fig13_claims(d: dict) -> list[Claim]:
    f = d["finals"]
    base = f["1.7B-llama-HF-52K-Lamb-4M"]
    adam = f["1.7B-llama-HF-52K-Adam-1M"]
    spm = f["1.7B-llama-SPM-52K-Lamb-4M"]
    v32 = f["1.7B-llama-HF-32K-Lamb-4M"]
    big = f["6.7B-llama-HF-52K-Lamb-4M"]
    neox = f["1.7B-neox-HF-52K-Lamb-4M"]
    neox_adam = f["1.7B-neox-HF-52K-Adam-1M"]
    return [
        Claim("LAMB-4M loss 1-5% below Adam-1M",
              0.01 < 1 - base / adam < 0.05, 1 - base / adam, 0.02),
        Claim("SPM loss > 1.05 x HF", spm > 1.05 * base, spm / base),
        Claim("32K-vocabulary loss < 0.97 x 52K", v32 < 0.97 * base,
              v32 / base),
        Claim("6.7B loss < 1.7B", big < base, (big, base)),
        Claim("LLaMA loss < NeoX under LAMB", base < neox, (base, neox)),
        Claim("LLaMA and NeoX within 1% under Adam",
              abs(adam - neox_adam) / adam < 0.01,
              abs(adam - neox_adam) / adam),
        Claim("validation >= 0.999 x training on every curve",
              d["min_val_margin"] >= 0, d["min_val_margin"]),
        _lamb_competitive(d),
    ]


def _fig14(ctx: ExperimentContext) -> dict:
    from ..evalharness.benchmarks import build_benchmark_suite
    from ..evalharness.runner import EvalRunner
    runner = EvalRunner(build_benchmark_suite(n_questions=25,
                                              seed=ctx.seed))
    out = {"above_chance": {}}
    for name, arch, tok in (("neox", "neox", "hf"), ("llama", "llama", "hf"),
                            ("llama-spm", "llama", "spm")):
        tokenizer = ctx.spm_tokenizer if tok == "spm" else ctx.tokenizer
        report = runner.run(ctx.trained_model(arch, tok), tokenizer, name)
        out[name] = report.accuracies(0)
        out["above_chance"][name] = sorted(
            t for (t, _), r in report.results.items() if r.above_chance)
    out["random_baseline"] = {t: r.random_baseline
                              for (t, _), r in report.results.items()}
    return out


def _fig14_claims(d: dict) -> list[Claim]:
    def mean(name):
        return sum(d[name].values()) / len(d[name])

    claims = [Claim(f"{name} above chance on {task}",
                    task in d["above_chance"][name], d[name][task])
              for name in ("llama", "neox") for task in ("sciq", "arc_e")]
    claims += [Claim(f"{task} within 0.35 of chance",
                     abs(d["llama"][task] - d["random_baseline"][task]) < 0.35,
                     d["llama"][task], d["random_baseline"][task])
               for task in ("ht_cm", "ht_ccs")]
    return claims + [
        Claim("HF and SPM mean accuracy within 0.15",
              abs(mean("llama") - mean("llama-spm")) < 0.15,
              abs(mean("llama") - mean("llama-spm"))),
        Claim("LLaMA and NeoX mean accuracy within 0.12",
              abs(mean("llama") - mean("neox")) < 0.12,
              abs(mean("llama") - mean("neox"))),
    ]


_SHOTS = (0, 3, 5)


def _fig15(ctx: ExperimentContext) -> dict:
    from ..evalharness.benchmarks import TASK_NAMES, build_benchmark_suite
    from ..evalharness.runner import EvalRunner
    runner = EvalRunner(build_benchmark_suite(n_questions=25,
                                              seed=ctx.seed))
    out = {"tasks": list(TASK_NAMES)}
    for arch in ("neox", "llama"):
        report = runner.run(ctx.trained_model(arch), ctx.tokenizer, arch,
                            shots=_SHOTS)
        out[arch] = {k: report.accuracies(k) for k in _SHOTS}
    return out


def _fig15_claims(d: dict) -> list[Claim]:
    def mean(arch, k):
        return sum(d[arch][k].values()) / len(d[arch][k])

    claims = []
    for arch in ("neox", "llama"):
        evaluated = {(t, k) for k in d[arch] for t in d[arch][k]}
        shift = abs(mean(arch, 5) - mean(arch, 0))
        claims += [
            Claim(f"{arch} evaluated on every task at 0/3/5 shots",
                  evaluated == {(t, k) for t in d["tasks"] for k in _SHOTS},
                  len(evaluated)),
            Claim(f"{arch} 5-shot mean within 0.25 of 0-shot", shift < 0.25,
                  shift)]
    gains = [d[a][5][t] - d[a][0][t] for a in ("neox", "llama")
             for t in d["tasks"]]
    gap = abs(mean("neox", 5) - mean("llama", 5))
    return claims + [
        Claim("5-shot prompting helps some task", max(gains) > 0.0,
              max(gains), 0.05),
        Claim("NeoX and LLaMA 5-shot means within 0.15", gap < 0.15, gap),
    ]


def _fig16(ctx: ExperimentContext) -> dict:
    from ..data.formulas import FormulaGenerator
    from ..matsci.analysis import (cosine_similarities, diagnose_embeddings,
                                   pairwise_distances)
    from ..matsci.embeddings import GPTFormulaEmbedder, MatSciBERTEmbedder
    formulas = [str(f) for f in
                FormulaGenerator(seed=ctx.seed).sample_many(200)]
    out = {}
    for name, embedder in (
            ("gpt", GPTFormulaEmbedder(ctx.trained_model("llama"),
                                       ctx.tokenizer)),
            ("bert", MatSciBERTEmbedder())):
        X = embedder.embed_many(formulas)
        diag = diagnose_embeddings(name, X)
        dists = pairwise_distances(X / np.linalg.norm(X, axis=1,
                                                      keepdims=True))
        out[name] = {"mean_distance": diag.mean_distance,
                     "mean_cosine": diag.mean_cosine,
                     "cosine_std": diag.cosine_std,
                     "anisotropic": diag.is_anisotropic,
                     "p50_distance": float(np.percentile(dists, 50)),
                     "p90_distance": float(np.percentile(dists, 90)),
                     "min_distance": float(dists.min()),
                     "max_cosine": float(cosine_similarities(X).max())}
    return out


def _fig16_claims(d: dict) -> list[Claim]:
    gpt, bert = d["gpt"], d["bert"]
    return [
        Claim("GPT mean distance < BERT's",
              gpt["mean_distance"] < bert["mean_distance"],
              (gpt["mean_distance"], bert["mean_distance"])),
        Claim("GPT p90 distance < BERT median distance",
              gpt["p90_distance"] < bert["p50_distance"],
              (gpt["p90_distance"], bert["p50_distance"])),
        Claim("GPT mean cosine > 0.7", gpt["mean_cosine"] > 0.7,
              gpt["mean_cosine"]),
        Claim("GPT cosine std < 0.2", gpt["cosine_std"] < 0.2,
              gpt["cosine_std"]),
        Claim("BERT mean cosine < 0.3", bert["mean_cosine"] < 0.3,
              bert["mean_cosine"]),
        Claim("GPT embeddings anisotropic", gpt["anisotropic"]),
        Claim("BERT embeddings not anisotropic", not bert["anisotropic"]),
        Claim("GPT cosines <= 1 + 1e-9", gpt["max_cosine"] <= 1 + 1e-9,
              gpt["max_cosine"]),
        Claim("BERT distances >= 0", bert["min_distance"] >= 0,
              bert["min_distance"]),
    ]


def _fig17(ctx: ExperimentContext) -> dict:
    from ..matsci.analysis import kmeans, silhouette_score, tsne
    from ..matsci.embeddings import GPTFormulaEmbedder, MatSciBERTEmbedder
    from ..matsci.materials import band_gap_class, generate_dataset
    dataset = generate_dataset(200, seed=ctx.seed)
    out = {"gap_classes": sorted({band_gap_class(g)
                                  for g in dataset.band_gaps()})}
    for name, embedder in (
            ("gpt", GPTFormulaEmbedder(ctx.trained_model("llama"),
                                       ctx.tokenizer)),
            ("bert", MatSciBERTEmbedder())):
        Y = tsne(embedder.embed_many(dataset.formulas()), n_iter=200,
                 perplexity=25, seed=ctx.seed)
        labels, _ = kmeans(Y, 3, seed=ctx.seed)
        out[name] = {"map_shape": Y.shape,
                     "silhouette": silhouette_score(Y, labels),
                     "cluster_sizes": sorted(np.bincount(labels).tolist(),
                                             reverse=True)}
    return out


def _fig17_claims(d: dict) -> list[Claim]:
    gpt, bert = d["gpt"], d["bert"]
    return [
        Claim("GPT map has one 2-D point per formula",
              gpt["map_shape"] == (200, 2), gpt["map_shape"], (200, 2)),
        Claim("BERT silhouette in [-1, 1]", -1.0 <= bert["silhouette"] <= 1.0,
              bert["silhouette"]),
        Claim("GPT silhouette in [-1, 1]", -1.0 <= gpt["silhouette"] <= 1.0,
              gpt["silhouette"]),
        Claim("GPT silhouette >= BERT's - 0.05",
              gpt["silhouette"] >= bert["silhouette"] - 0.05,
              (gpt["silhouette"], bert["silhouette"])),
        Claim("no empty GPT cluster", min(gpt["cluster_sizes"]) > 0,
              min(gpt["cluster_sizes"])),
        Claim("no empty BERT cluster", min(bert["cluster_sizes"]) > 0,
              min(bert["cluster_sizes"])),
        Claim(">= 2 band-gap classes in the data",
              len(d["gap_classes"]) >= 2, len(d["gap_classes"])),
    ]


# ---------------------------------------------------------------------------
# Ablations: which mechanism carries a paper result.
# ---------------------------------------------------------------------------
def _ablation_comm(ctx: ExperimentContext) -> dict:
    from ..frontier.hardware import FRONTIER
    from ..models.config import preset
    from ..parallel.collectives import CollectiveModel
    from ..parallel.simulator import TrainingSimulator
    from ..parallel.strategy import ParallelConfig
    model = preset("neox-6.7b-hf-52k").with_flash(1)
    out = {}
    for label, sim in (
            ("with", ctx.simulator),
            ("without", TrainingSimulator(collectives=CollectiveModel(
                FRONTIER.node, scale_degradation=0.0)))):
        zero64 = sim.per_gcd_tflops(model, ParallelConfig(dp=64,
                                                          zero_stage=1))
        zero256 = sim.per_gcd_tflops(model, ParallelConfig(dp=256,
                                                           zero_stage=1))
        tp256 = sim.per_gcd_tflops(model, ParallelConfig(dp=128, tp=2))
        out[label] = {"zero_64": zero64, "zero_256": zero256,
                      "tp2_256": tp256, "retention": zero256 / zero64,
                      "tp2_lead": tp256 - zero256}
    return out


def _ablation_comm_claims(d: dict) -> list[Claim]:
    on, off = d["with"], d["without"]
    return [
        Claim("with degradation: ZeRO-1 keeps < 90% from 64 to 256 GPUs",
              on["retention"] < 0.90, on["retention"]),
        Claim("with degradation: TP=2 leads by > 5 TFLOPS",
              on["tp2_lead"] > 5.0, on["tp2_lead"]),
        Claim("without: ZeRO-1 keeps > 95%", off["retention"] > 0.95,
              off["retention"]),
        Claim("without: TP=2 lead < half of the degraded lead",
              off["tp2_lead"] < 0.5 * on["tp2_lead"],
              (off["tp2_lead"], on["tp2_lead"])),
    ]


def _ablation_flash(ctx: ExperimentContext) -> dict:
    from ..models.attention import flash_attention_forward
    rng = np.random.default_rng(ctx.seed)
    q, k, v = (rng.normal(size=(2, 4, 96, 16)) for _ in range(3))
    # Naive causal softmax attention, the reference the tiles must match.
    scores = (q @ np.swapaxes(k, -1, -2)) / np.sqrt(q.shape[-1])
    mask = np.triu(np.ones((96, 96), dtype=bool), k=1)
    scores = np.where(mask, -np.inf, scores)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    ref = (e / e.sum(axis=-1, keepdims=True)) @ v
    return {"max_abs_err": {
        block: float(np.abs(flash_attention_forward(
            q, k, v, block_size=block) - ref).max())
        for block in (1, 4, 16, 64, 96, 256)}}


def _ablation_flash_claims(d: dict) -> list[Claim]:
    # No ``ours``: rounding-level errors differ between BLAS builds, and
    # the rendered report must read the same on every machine.
    errs = d["max_abs_err"]
    return [Claim(f"block {block} matches naive attention (< 1e-10)",
                  err < 1e-10) for block, err in errs.items()] + [
        Claim("every block size < 1e-10", max(errs.values()) < 1e-10)]


def _ablation_fusion(ctx: ExperimentContext) -> dict:
    from ..matsci.embeddings import (FormulaEmbedder, GPTFormulaEmbedder,
                                     MatSciBERTEmbedder)
    from ..matsci.fusion import evaluate_model
    from ..matsci.graphs import GraphEncoder
    from ..matsci.materials import GapWeights, generate_dataset

    class RandomEmbedder(FormulaEmbedder):
        """Deterministic per-formula random vectors: identity only."""

        name = "random"
        dim = 64

        def embed(self, formula: str) -> np.ndarray:
            rng = np.random.default_rng(zlib.crc32(formula.encode()))
            return rng.standard_normal(self.dim)

    encoder = GraphEncoder()
    gpt = GPTFormulaEmbedder(ctx.trained_model("llama"), ctx.tokenizer)
    fit = dict(encoder=encoder, epochs=200, seed=ctx.seed, n_seeds=2)
    out = {}
    train, test = generate_dataset(400, seed=ctx.seed).split(
        test_fraction=0.2, seed=ctx.seed)
    out["structure-only"] = evaluate_model("mfcgnn", train, test,
                                           **fit).test_mae
    for label, embedder in (
            ("+gpt", gpt), ("+random", RandomEmbedder()),
            ("+bert-noisy", MatSciBERTEmbedder()),
            ("+bert-no-noise", MatSciBERTEmbedder(identity_noise=0.0))):
        out[label] = evaluate_model(label, train, test, embedder=embedder,
                                    gnn_name="mfcgnn", **fit).test_mae
    # Zero the tier-3 chemistry term: fusion has nothing left to add.
    train0, test0 = generate_dataset(
        400, seed=ctx.seed, weights=GapWeights(chemistry=0.0)).split(
        test_fraction=0.2, seed=ctx.seed)
    out["structure-only (no chem)"] = evaluate_model(
        "mfcgnn", train0, test0, **fit).test_mae
    out["+gpt (no chem)"] = evaluate_model(
        "+gpt", train0, test0, embedder=gpt, gnn_name="mfcgnn",
        **fit).test_mae
    return out


def _ablation_fusion_claims(d: dict) -> list[Claim]:
    gain_with = d["structure-only"] - d["+gpt"]
    gain_without = d["structure-only (no chem)"] - d["+gpt (no chem)"]
    bert_gap = abs(d["+bert-no-noise"] - d["+bert-noisy"])
    return [
        Claim("trained-GPT fusion beats random vectors by > 0.03",
              d["+gpt"] < d["+random"] - 0.03, d["+random"] - d["+gpt"]),
        Claim("random-vector fusion hurts",
              d["+random"] > d["structure-only"],
              (d["+random"], d["structure-only"])),
        Claim("BERT with and without identity noise within 0.06",
              bert_gap < 0.06, bert_gap),
        Claim("no chemistry term: fusion gain < gain with it + 0.02",
              gain_without < gain_with + 0.02, (gain_without, gain_with)),
        Claim("no chemistry term: fusion no better than structure - 0.03",
              d["+gpt (no chem)"] > d["structure-only (no chem)"] - 0.03,
              (d["+gpt (no chem)"], d["structure-only (no chem)"])),
    ]


def _ablation_lamb(ctx: ExperimentContext) -> dict:
    from ..models.config import preset
    from ..models.transformer import GPTModel
    from ..training.optimizers import LAMB
    from ..training.trainer import Trainer, TrainerConfig

    def train(opt, trust=None):
        model = GPTModel(preset("tiny-llama"), seed=ctx.seed)
        trainer = Trainer(model, ctx.dataset(), TrainerConfig(
            optimizer=opt, lr=0.02, batch_size=16, max_steps=40,
            eval_every=39, seed=ctx.seed))
        if trust is not None:
            if not isinstance(trainer.optimizer, LAMB):
                raise TypeError(f"trust clip needs LAMB, got {opt!r}")
            trainer.optimizer.trust_clip = trust
        return trainer, trainer.train()

    trainer, lamb = train("lamb")
    return {"trust_ratios": list(trainer.optimizer.last_trust_ratios),
            "train_loss": {"lamb": lamb.train_loss,
                           "lamb-trust-clipped-to-1": train(
                               "lamb", trust=(1.0, 1.0))[1].train_loss,
                           "adam-same-lr": train("adam")[1].train_loss}}


def _ablation_lamb_claims(d: dict) -> list[Claim]:
    ratios = np.array(d["trust_ratios"])
    lamb, clipped, adam = (np.array(d["train_loss"][k]) for k in (
        "lamb", "lamb-trust-clipped-to-1", "adam-same-lr"))
    return [
        Claim("trust ratios engage (some > 1e-3 away from 1)",
              (np.abs(ratios - 1.0) > 1e-3).any(),
              float(np.abs(ratios - 1.0).max())),
        Claim("trust ratios differ across tensors (std > 1e-3)",
              ratios.std() > 1e-3, ratios.std()),
        Claim("median trust ratio < 1 at fresh init",
              np.median(ratios) < 1.0, np.median(ratios)),
        Claim("LAMB final train loss > Adam's at the same LR",
              lamb[-1] > adam[-1], (lamb[-1], adam[-1])),
        Claim("ratio clipped to 1 tracks Adam (mean gap < 0.3)",
              np.abs(clipped - adam).mean() < 0.3,
              np.abs(clipped - adam).mean()),
        Claim("full LAMB is further from Adam than clipped LAMB",
              np.abs(lamb - adam).mean() > np.abs(clipped - adam).mean(),
              (np.abs(lamb - adam).mean(), np.abs(clipped - adam).mean())),
    ] + [Claim(f"{run} losses finite",
               np.isfinite(d["train_loss"][run]).all())
         for run in d["train_loss"]]


def _ablation_memory(ctx: ExperimentContext) -> dict:
    from ..frontier.memory import MemoryConstants, MemoryModel
    from ..models.config import preset
    cfg = preset("neox-1.7b-hf-52k")
    # "No checkpointing": every layer's transient activations live at once.
    no_ckpt = MemoryModel(constants=MemoryConstants(
        activation_bytes=34.0 * cfg.num_layers,
        softmax_peak_bytes=10.0 * cfg.num_layers))
    rows = []
    for s in (2048, 4096, 8192, 16384):
        b = ctx.memory.breakdown(cfg, seq_len=s, flash=0)
        rows.append({"seq": s, **b.as_gb(), "fits": b.fits,
                     "fits_no_ckpt": no_ckpt.breakdown(cfg, seq_len=s,
                                                       flash=0).fits})
    return {"rows": rows,
            "max_seq": {"default": ctx.memory.max_seq_len(cfg, flash=0),
                        "no_ckpt": no_ckpt.max_seq_len(cfg, flash=0),
                        "flash_no_ckpt": no_ckpt.max_seq_len(cfg, flash=1)}}


def _ablation_memory_claims(d: dict) -> list[Claim]:
    states = [r["model_states"] for r in d["rows"]]
    transients = [r["transient"] for r in d["rows"]]
    m = d["max_seq"]
    return [
        Claim("model states constant over context",
              max(states) - min(states) < 1e-9, max(states) - min(states)),
        Claim("transients grow > 10x from 2k to 16k",
              transients[-1] > 10 * transients[0],
              transients[-1] / transients[0]),
        Claim("checkpointed no-flash ceiling = 8192", m["default"] == 8192,
              m["default"], 8192),
        Claim("no checkpointing lowers the ceiling",
              m["no_ckpt"] < m["default"], (m["no_ckpt"], m["default"])),
        Claim("flash still extends the non-checkpointed ceiling",
              m["flash_no_ckpt"] > m["no_ckpt"],
              (m["flash_no_ckpt"], m["no_ckpt"])),
    ]


def _ablation_tokenizer(ctx: ExperimentContext) -> dict:
    from ..data.corpus import AbstractGenerator
    from ..data.stats import tokenizer_stats
    from ..evalharness.perplexity import bits_per_character, perplexity
    from ..tokenizers import BPETokenizer
    tokenizers = {"hf-512": ctx.tokenizer,
                  "hf-320": BPETokenizer().train(ctx.corpus, 320),
                  "spm-512": ctx.spm_tokenizer}
    sample = ctx.corpus[:60]
    held = [d.text for d in AbstractGenerator(seed=77).sample(8)]
    out = {"fertility": {name: tokenizer_stats(tok, sample).fertility
                         for name, tok in tokenizers.items()},
           "ppl": {}, "bpc": {}}
    for name, kind in (("hf-512", "hf"), ("spm-512", "spm")):
        model = ctx.trained_model("llama", kind, steps=80)
        out["ppl"][name] = perplexity(model, tokenizers[name], held)
        out["bpc"][name] = bits_per_character(model, tokenizers[name], held)
    return out


def _ablation_tokenizer_claims(d: dict) -> list[Claim]:
    fert, ppl, bpc = d["fertility"], d["ppl"], d["bpc"]
    split = abs(fert["hf-512"] - fert["spm-512"]) / fert["hf-512"]
    ppl_gap = abs(np.log(ppl["hf-512"]) - np.log(ppl["spm-512"]))
    bpc_gap = abs(np.log(bpc["hf-512"]) - np.log(bpc["spm-512"]))
    return [
        Claim("512-vocabulary BPE fertility < 320's",
              fert["hf-512"] < fert["hf-320"],
              (fert["hf-512"], fert["hf-320"])),
        Claim("BPE and unigram fertility differ by > 5%", split > 0.05,
              split),
        Claim("log-BPC gap < log-perplexity gap across tokenizers",
              bpc_gap < ppl_gap, (bpc_gap, ppl_gap)),
    ] + [Claim(f"{name} perplexity < 200", p < 200, p)
         for name, p in ppl.items()]


# ---------------------------------------------------------------------------
# Extensions: the paper's mechanisms pushed past its measurements.
# ---------------------------------------------------------------------------
def _extension_batch_scaling(ctx: ExperimentContext) -> dict:
    from ..models.config import preset
    from ..training.batch_scaling import batch_scaling_study
    curves = batch_scaling_study(ctx.dataset(), preset("tiny-llama"),
                                 batch_sizes=(4, 8, 16),
                                 optimizers=("adam", "lamb"),
                                 base_lr=5e-3, seed=ctx.seed)
    return {opt: {"losses": curve.losses().tolist(),
                  "degradation": curve.degradation()}
            for opt, curve in curves.items()}


def _extension_batch_scaling_claims(d: dict) -> list[Claim]:
    adam = np.array(d["adam"]["losses"])
    a, b = d["adam"]["degradation"], d["lamb"]["degradation"]
    return [
        Claim("Adam loss rises with every batch doubling",
              (adam[1:] > adam[:-1]).all(), tuple(adam)),
        Claim("Adam degrades > 30% from batch 4 to 16", a > 0.30, a),
        Claim("LAMB within 10% across batch sizes", abs(b) < 0.10, b),
        Claim("Adam degrades > 4x LAMB's", a > 4 * abs(b), (a, b)),
    ]


def _extension_platforms(ctx: ExperimentContext) -> dict:
    from ..frontier.comparison import (SELENE_LIKE, compare_platforms,
                                       make_simulator)
    from ..frontier.hardware import FRONTIER
    from ..models.config import preset
    from ..parallel.strategy import ParallelConfig
    model = preset("neox-6.7b-hf-52k").with_flash(1)
    out = {c.platform: {"zero_tflops": c.zero_tflops,
                        "tp2_tflops": c.tp2_tflops,
                        "tp_advantage": c.tp_advantage}
           for c in compare_platforms(model, 256)}
    for machine in (FRONTIER, SELENE_LIKE):
        sim = make_simulator(machine)
        out[machine.name]["retention"] = sim.per_gcd_tflops(
            model, ParallelConfig(dp=256, zero_stage=1)) / sim.per_gcd_tflops(
            model, ParallelConfig(dp=64, zero_stage=1))
    return out


def _extension_platforms_claims(d: dict) -> list[Claim]:
    f, s = d["Frontier"], d["Selene-like"]
    return [
        Claim("Frontier: TP=2 beats ZeRO-1 by > 8%",
              f["tp_advantage"] > 0.08, f["tp_advantage"]),
        Claim("Selene-like: TP=2 advantage < 0.6 x Frontier's",
              s["tp_advantage"] < 0.6 * f["tp_advantage"],
              s["tp_advantage"]),
        Claim("Selene-like keeps more ZeRO-1 throughput 64 -> 256 (+0.05)",
              s["retention"] > f["retention"] + 0.05,
              (s["retention"], f["retention"])),
        Claim("Selene-like ZeRO-1 faster per GCD",
              s["zero_tflops"] > f["zero_tflops"],
              (s["zero_tflops"], f["zero_tflops"])),
    ]


def _extension_seqlen(ctx: ExperimentContext) -> dict:
    from ..models.config import preset
    cfg = preset("neox-1.7b-hf-52k")
    rows = []
    for seq in (1024, 2048, 4096, 8192, 16384, 32768):
        micro = max(1, 16384 // seq)  # keep tokens/step roughly fixed
        base = ctx.roofline.achieved_tflops(cfg, seq_len=seq,
                                            micro_batch=micro, flash=0)
        flash = ctx.roofline.achieved_tflops(cfg, seq_len=seq,
                                             micro_batch=micro, flash=2)
        rows.append({"seq": seq, "base": base, "flash": flash,
                     "gain": flash / base - 1,
                     "fits_flash": ctx.memory.breakdown(
                         cfg, seq_len=seq, micro_batch=1, flash=2).fits})
    return {"rows": rows}


def _extension_seqlen_claims(d: dict) -> list[Claim]:
    gains = [r["gain"] for r in d["rows"]]
    base = {r["seq"]: r["base"] for r in d["rows"]}
    return [
        Claim("flash gain never falls with context length",
              all(b >= a - 1e-9 for a, b in zip(gains, gains[1:]))),
        Claim("flash gain at 1k < 0.25", gains[0] < 0.25, gains[0]),
        Claim("flash gain at 32k > 0.6", gains[-1] > 0.6, gains[-1]),
        Claim("every flash context fits in memory",
              all(r["fits_flash"] for r in d["rows"])),
        Claim("no-flash TFLOPS at 32k < half of 2k's",
              base[32768] < 0.5 * base[2048], base[32768] / base[2048]),
    ]


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.exp_id: spec for spec in (
        ExperimentSpec("table1", "Data sources", "table", _table1,
                       _table1_claims),
        ExperimentSpec("table2", "Model architectures", "table", _table2,
                       _table2_claims),
        ExperimentSpec("table3", "Training hyper-parameters", "table",
                       _table3, _table3_claims, heavy=True),
        ExperimentSpec("table4", "Time and energy", "table", _table4,
                       _table4_claims),
        ExperimentSpec("table5", "Band-gap MAE", "table", _table5,
                       _table5_claims, heavy=True),
        ExperimentSpec("fig1", "LLM evolution", "figure", _fig1,
                       _fig1_claims),
        ExperimentSpec("fig2", "Layer accounting", "figure", _fig2,
                       _fig2_claims),
        ExperimentSpec("fig4", "Throughput heatmap + flash", "figure",
                       _fig4, _fig4_claims),
        ExperimentSpec("fig5", "Memory vs context", "figure", _fig5,
                       _fig5_claims),
        ExperimentSpec("fig6", "NeoX vs LLaMA throughput", "figure", _fig6,
                       _fig6_claims),
        ExperimentSpec("fig7", "Single-node parallelism", "figure", _fig7,
                       _fig7_claims),
        ExperimentSpec("fig8", "Scaling to 256 GPUs", "figure", _fig8,
                       _fig8_claims),
        ExperimentSpec("fig9", "Step runtime and power trace", "figure",
                       _fig9, _fig9_claims),
        ExperimentSpec("fig10", "Layer latency breakdown", "figure",
                       _fig10, _fig10_claims),
        ExperimentSpec("fig11", "RCCL message statistics", "figure",
                       _fig11, _fig11_claims),
        ExperimentSpec("fig12", "Power, memory and utilization traces",
                       "figure", _fig12, _fig12_claims),
        ExperimentSpec("fig13", "Loss curves", "figure", _fig13,
                       _fig13_claims, heavy=True),
        ExperimentSpec("fig14", "Zero-shot accuracy", "figure", _fig14,
                       _fig14_claims, heavy=True),
        ExperimentSpec("fig15", "Few-shot accuracy", "figure", _fig15,
                       _fig15_claims, heavy=True),
        ExperimentSpec("fig16", "Embedding geometry", "figure", _fig16,
                       _fig16_claims, heavy=True),
        ExperimentSpec("fig17", "t-SNE clustering of embeddings", "figure",
                       _fig17, _fig17_claims, heavy=True),
        ExperimentSpec("ablation-comm", "Ring-bandwidth scale degradation",
                       "ablation", _ablation_comm, _ablation_comm_claims),
        ExperimentSpec("ablation-flash", "Flash tiling invariance",
                       "ablation", _ablation_flash, _ablation_flash_claims),
        ExperimentSpec("ablation-fusion", "Fusion sensitivity", "ablation",
                       _ablation_fusion, _ablation_fusion_claims,
                       heavy=True),
        ExperimentSpec("ablation-lamb", "LAMB trust ratio", "ablation",
                       _ablation_lamb, _ablation_lamb_claims, heavy=True),
        ExperimentSpec("ablation-memory", "Memory components", "ablation",
                       _ablation_memory, _ablation_memory_claims),
        ExperimentSpec("ablation-tokenizer", "Tokenizer fertility",
                       "ablation", _ablation_tokenizer,
                       _ablation_tokenizer_claims, heavy=True),
        ExperimentSpec("extension-batch-scaling",
                       "Batch scaling at fixed tokens", "extension",
                       _extension_batch_scaling,
                       _extension_batch_scaling_claims, heavy=True),
        ExperimentSpec("extension-platforms",
                       "Frontier vs Selene-like fabric", "extension",
                       _extension_platforms, _extension_platforms_claims),
        ExperimentSpec("extension-seqlen", "Flash gain vs context length",
                       "extension", _extension_seqlen,
                       _extension_seqlen_claims),
    )
}


def list_experiments() -> list[dict]:
    """Registry contents as rows."""
    return [{"id": s.exp_id, "title": s.title, "kind": s.kind,
             "heavy": s.heavy} for s in EXPERIMENTS.values()]


def reproduce(exp_id: str, context: ExperimentContext | None = None
              ) -> ExperimentResult:
    """Regenerate one artifact and evaluate its claims."""
    try:
        spec = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: "
            f"{sorted(EXPERIMENTS)}") from None
    data = spec.regenerate(context or ExperimentContext())
    return ExperimentResult(exp_id=spec.exp_id, title=spec.title, data=data,
                            claims=tuple(spec.claims(data)))


def reproduce_all(context: ExperimentContext | None = None,
                  include_heavy: bool = False) -> dict[str, ExperimentResult]:
    """Regenerate every (optionally including training-backed) artifact."""
    ctx = context or ExperimentContext()
    return {exp_id: reproduce(exp_id, ctx)
            for exp_id, spec in EXPERIMENTS.items()
            if include_heavy or not spec.heavy}
