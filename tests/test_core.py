"""Tests for the study orchestration layer: grid search, recipes,
evolution data, observations, reporting."""

import numpy as np
import pytest

from repro.core import (BRANCHES, ComparativeStudy, FIG4_GRID, MAJOR_RELEASES,
                        ObservationCheck, StudyConfig, TABLE_III, check_all,
                        dominant_branch, flash_boost_table, format_bars,
                        format_heatmap, format_series, format_table,
                        observation_1, observation_2, observation_3,
                        observation_4, recipe_for, releases_per_year,
                        run_grid_search)
from repro.core.evolution import ModelRelease


class TestArchitectureSearch:
    @pytest.fixture(scope="class")
    def heatmap(self):
        return run_grid_search("neox")

    def test_grid_has_20_cells_8_eligible(self):
        assert len(FIG4_GRID) == 20
        assert sum(c.eligible for c in FIG4_GRID) == 8

    def test_fig4_best_cell_is_24x2304(self, heatmap):
        best = heatmap.best_cell
        assert (best.num_layers, best.hidden_size) == (24, 2304)
        assert best.eligible

    def test_fig4_range_58_to_76(self, heatmap):
        """Paper: performance varies from 58 to 76 TFLOPS."""
        assert 50 < heatmap.worst_tflops < 62
        assert 72 < heatmap.best_tflops < 80

    def test_eligible_labeled_a_to_h(self, heatmap):
        labels = [label for label, _, _ in heatmap.eligible_cells()]
        assert labels == list("ABCDEFGH")

    def test_eligible_among_top_performers(self, heatmap):
        assert heatmap.eligible_outperform_rate() >= 0.6

    def test_as_matrix_round_trip(self, heatmap):
        layers, hiddens, matrix = heatmap.as_matrix()
        assert len(layers) == 5
        assert np.isfinite(matrix).sum() == 20

    def test_flash_boost_table(self):
        rows = flash_boost_table("neox")
        assert len(rows) == 8
        v1 = np.mean([r["boost_v1"] for r in rows])
        v2 = np.mean([r["boost_v2"] for r in rows])
        assert 0.10 < v1 < 0.18   # paper: ~14%
        assert 0.15 < v2 < 0.23   # paper: ~19%
        assert v2 > v1

    def test_flash_on_ineligible_cell_rejected(self):
        bad = [c for c in FIG4_GRID if not c.eligible][:1]
        with pytest.raises(ValueError):
            run_grid_search("neox", flash=1, grid=tuple(bad))


class TestRecipes:
    def test_table_iii_rows(self):
        assert len(TABLE_III) == 3
        adam = recipe_for("1.7B", "adam")
        assert adam.beta2 == 0.95
        assert adam.learning_rate == 2e-4
        assert adam.batch_tokens == 1e6
        lamb67 = recipe_for("6.7B", "lamb")
        assert lamb67.learning_rate == 0.006
        assert lamb67.beta2 == 0.999

    def test_unknown_recipe(self):
        with pytest.raises(KeyError):
            recipe_for("13B", "adam")

    def test_schedule_properties(self):
        r = recipe_for("1.7B", "lamb")
        sched = r.schedule()
        assert r.total_steps == 3750  # 15e9 / 4e6
        assert sched(r.total_steps - 1) == pytest.approx(0.001, abs=1e-4)

    def test_shared_constants(self):
        for r in TABLE_III:
            assert r.weight_decay == 0.1
            assert r.precision == "bf16"
            assert r.warmup_fraction == 0.01


class TestEvolution:
    def test_fig1_decoder_dominates_since_2021(self):
        for year in (2021, 2022, 2023):
            assert dominant_branch(year) == "decoder-only"

    def test_fig1_encoder_era_2018_2019(self):
        assert dominant_branch(2019) == "encoder-only"

    def test_fig1_encoder_decoder_flat(self):
        table = releases_per_year()
        counts = [table[y]["encoder-decoder"] for y in sorted(table)]
        assert max(counts) - min(counts) <= 2  # "stayed about the same"

    def test_releases_cover_all_years(self):
        assert set(releases_per_year()) == {2018, 2019, 2020, 2021, 2022,
                                            2023}

    def test_bad_branch_rejected(self):
        with pytest.raises(ValueError):
            ModelRelease("X", 2020, "diffusion")

    def test_unknown_year(self):
        with pytest.raises(KeyError):
            dominant_branch(2017)

    def test_paper_models_present(self):
        names = {r.name for r in MAJOR_RELEASES}
        assert {"GPT-NeoX", "LLaMA", "BERT", "GPT-3", "T5"} <= names


class TestObservations:
    def test_observations_1_to_3_hold(self):
        checks = check_all()
        assert [c.number for c in checks] == [1, 2, 3]
        for c in checks:
            assert c.holds, f"Observation {c.number}: {c.evidence}"

    def test_observation_evidence_populated(self):
        c = observation_1()
        assert c.evidence["fraction_of_peak"] > 0.43

    def test_observation_4_interface(self):
        accs = {"neox": {"sciq": 0.6, "piqa": 0.55},
                "llama": {"sciq": 0.58, "piqa": 0.57}}
        losses = {"neox": 2.5, "llama": 2.4}
        c = observation_4(accs, losses)
        assert c.holds
        assert c.number == 4

    def test_observation_4_validates_inputs(self):
        with pytest.raises(ValueError):
            observation_4({"a": {"t": 0.5}}, {"b": 1.0})
        with pytest.raises(ValueError):
            observation_4({"a": {"t": 0.5}}, {"a": 1.0})


class TestReporting:
    def test_format_table(self):
        out = format_table(["model", "mae"], [["cgcnn", 0.388],
                                              ["megnet", 0.33]], title="T5")
        assert "cgcnn" in out and "0.388" in out and "T5" in out

    def test_format_heatmap(self):
        m = np.array([[1.0, np.nan], [2.0, 3.0]])
        out = format_heatmap([16, 24], [[2048, 2304], [2048, 2304]], m)
        assert "n/a" in out and "L=16" in out

    def test_format_series(self):
        out = format_series(np.array([8, 64]),
                            {"dp": np.array([80.0, 75.0])}, x_label="gpus")
        assert "gpus" in out and "dp" in out

    def test_format_bars(self):
        out = format_bars({"sciq": 0.8, "piqa": 0.4})
        assert out.count("#") > 10
        with pytest.raises(ValueError):
            format_bars({})


class TestStudyPipelineStages:
    """Cheap per-stage checks of `ComparativeStudy` at a reduced scale.

    `run()` chains these stages; `repro study` drives it end to end.
    """

    @pytest.fixture(scope="class")
    def study(self):
        return ComparativeStudy(StudyConfig(
            train_steps=8, eval_questions=6, n_materials=60, gnn_epochs=10,
            corpus_scale=1e-5))

    @pytest.fixture(scope="class")
    def corpus_stage(self, study):
        return study.build_corpus()

    @pytest.fixture(scope="class")
    def toks(self, study, corpus_stage):
        return study.train_tokenizers(corpus_stage[0])

    def test_corpus_stage(self, corpus_stage):
        corpus, reports = corpus_stage
        assert corpus
        assert {r.source for r in reports} == {"CORE", "MAG", "Aminer",
                                               "SCOPUS"}
        assert all(r.precision > 0.8 for r in reports)

    def test_tokenizer_stage(self, corpus_stage, toks):
        corpus, _ = corpus_stage
        assert set(toks) == {"hf", "spm"}
        text = corpus[0].text[:40]
        assert toks["hf"].decode(toks["hf"].encode(text)) == text

    def test_pretrain_and_eval_stages(self, study, corpus_stage, toks):
        corpus, _ = corpus_stage
        models, histories = study.pretrain(corpus, toks)
        assert set(models) == {"neox", "llama"}
        for h in histories.values():
            assert len(h.train_loss) == 8
        reports = study.evaluate(models, toks)
        for rep in reports.values():
            assert 0.0 <= rep.mean_accuracy(0) <= 1.0


class TestObservation5:
    def test_holds_with_paper_shaped_inputs(self):
        from repro.core import observation_5
        from repro.matsci import EmbeddingDiagnostics
        gpt = EmbeddingDiagnostics("gpt", mean_distance=0.6,
                                   mean_cosine=0.8, cosine_std=0.1,
                                   silhouette=0.4)
        bert = EmbeddingDiagnostics("bert", mean_distance=1.4,
                                    mean_cosine=0.0, cosine_std=0.05,
                                    silhouette=0.3)
        check = observation_5(gpt, bert, mae_structure_only=0.358,
                              mae_fused=0.347)
        assert check.number == 5
        assert check.holds
        assert check.evidence["mae_fused"] < \
            check.evidence["mae_structure_only"]

    def test_violated_when_fusion_hurts(self):
        from repro.core import observation_5
        from repro.matsci import EmbeddingDiagnostics
        gpt = EmbeddingDiagnostics("gpt", 0.6, 0.8, 0.1, 0.4)
        bert = EmbeddingDiagnostics("bert", 1.4, 0.0, 0.05, 0.3)
        check = observation_5(gpt, bert, mae_structure_only=0.30,
                              mae_fused=0.35)
        assert not check.holds
