"""Tests for the programmatic experiment registry."""

import numpy as np
import pytest

from repro.core import (EXPERIMENTS, ExperimentContext, list_experiments,
                        reproduce, reproduce_all)


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(train_steps=40)


@pytest.fixture(scope="module")
def light_results(ctx):
    return reproduce_all(ctx)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = set(EXPERIMENTS)
        assert {"table1", "table2", "table3", "table4", "table5"} <= ids
        assert {"fig4", "fig5", "fig8", "fig11", "fig13"} <= ids
        assert len(ids) >= 17

    def test_list_experiments_rows(self):
        rows = list_experiments()
        assert len(rows) == len(EXPERIMENTS)
        assert all({"id", "title", "kind", "heavy"} <= set(r) for r in rows)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            reproduce("fig99")

    def test_light_set_excludes_heavy(self, light_results):
        assert "table5" not in light_results
        assert "fig4" in light_results
        assert len(light_results) == sum(not s.heavy
                                         for s in EXPERIMENTS.values())


class TestLightExperiments:
    @pytest.mark.parametrize(
        "exp_id", [i for i, s in EXPERIMENTS.items() if not s.heavy])
    def test_claims_hold(self, light_results, exp_id):
        result = light_results[exp_id]
        assert result.claims
        failed = [c.name for c in result.claims if not c.holds]
        assert not failed, f"{exp_id} claims failed: {failed}"

    def test_fig8_sweeps_complete(self, ctx):
        data = reproduce("fig8", ctx).data
        assert set(data["sweeps"]) == {"1.7b-dp", "6.7b-zero1", "6.7b-tp2"}
        for sweep in data["sweeps"].values():
            assert [p["gpus"] for p in sweep] == data["gpus"]

    def test_fig11_volumes(self, ctx):
        rows = {r["run"]: r for r in reproduce("fig11", ctx).data["rows"]}
        assert rows["dp"]["vs_model_size"] == pytest.approx(2.0, abs=0.05)
        assert rows["tp2"]["vs_model_size"] == pytest.approx(3.0, abs=0.3)

    def test_results_json_serializable(self, ctx):
        import json
        for exp_id in ("table2", "fig2", "fig6", "fig10"):
            json.dumps(reproduce(exp_id, ctx).data, default=str)


class TestHeavyExperiments:
    def test_fig14_uses_shared_trained_models(self, ctx):
        """Context caches one trained model per arch across experiments."""
        data = reproduce("fig14", ctx).data
        assert {"neox", "llama", "llama-spm"} <= set(data)
        for name in ("neox", "llama", "llama-spm"):
            assert all(0 <= a <= 1 for a in data[name].values())
        # Cached: a second call reuses the trained model (fast).
        model_a = ctx.trained_model("llama")
        model_b = ctx.trained_model("llama")
        assert model_a is model_b

    def test_fig16_anisotropy(self, ctx):
        data = reproduce("fig16", ctx).data
        assert data["gpt"]["mean_cosine"] > data["bert"]["mean_cosine"]
        assert data["gpt"]["anisotropic"]
        assert not data["bert"]["anisotropic"]
