"""Tests for the report generator, corpus persistence and bootstrap CI."""

import numpy as np
import pytest

from repro.core import EXPERIMENTS, write_report
from repro.data import AbstractGenerator, load_corpus, save_corpus
from repro.data.persistence import iter_corpus
from repro.matsci import bootstrap_mae_ci


@pytest.fixture(scope="module")
def report_path(tmp_path_factory):
    return write_report(tmp_path_factory.mktemp("report") / "R.md")


@pytest.fixture(scope="module")
def report_text(report_path):
    return report_path.read_text()


class TestReport:
    def test_contains_all_sections(self, report_text):
        assert "## Observations" in report_text
        for exp_id, spec in EXPERIMENTS.items():
            assert (f"## `{exp_id}`" in report_text) != spec.heavy, exp_id

    def test_observations_hold_in_report(self, report_text):
        observations = report_text.split("## Observations")[1] \
            .split("\n## ")[0]
        rows = [line for line in observations.splitlines()
                if line.startswith("| ") and not line.startswith("| #")]
        assert len(rows) >= 3
        assert all(row.endswith("| HOLDS |") for row in rows)
        assert "VIOLATED" not in report_text

    def test_anchor_values_present(self, report_text):
        # Fig 4's best cell and Fig 5's 4x context, as the paper has them.
        assert "| best cell (layers, hidden) | 24 / 2304 | 24 / 2304 |" \
            in report_text
        assert "| 8192 / 32,768 | 8192 / 32,768 | HOLDS |" in report_text

    def test_valid_markdown_tables(self, report_text):
        for line in report_text.splitlines():
            if line.startswith("|"):
                assert line.endswith("|")

    def test_write_report(self, report_path):
        assert report_path.exists()
        assert report_path.read_text().startswith("# Reproduction report")


class TestCorpusPersistence:
    def test_roundtrip(self, tmp_path):
        docs = AbstractGenerator(seed=0).sample(15, materials_fraction=0.6)
        path = save_corpus(docs, tmp_path / "corpus")
        assert path.suffix == ".jsonl"
        assert load_corpus(path) == docs

    def test_streaming_iter(self, tmp_path):
        docs = AbstractGenerator(seed=1).sample(5)
        path = save_corpus(docs, tmp_path / "c")
        streamed = list(iter_corpus(path))
        assert streamed == docs

    def test_blank_lines_skipped(self, tmp_path):
        docs = AbstractGenerator(seed=2).sample(3)
        path = save_corpus(docs, tmp_path / "c")
        path.write_text(path.read_text() + "\n\n")
        assert len(load_corpus(path)) == 3

    def test_invalid_json_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "ok", "domain": "other"}\nnot json\n')
        with pytest.raises(ValueError, match="2"):
            load_corpus(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "no domain"}\n')
        with pytest.raises(ValueError, match="domain"):
            load_corpus(path)


class TestBootstrapCI:
    def test_interval_brackets_mae(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=200)
        pred = t + rng.normal(0, 0.5, 200)
        mae, lo, hi = bootstrap_mae_ci(pred, t)
        assert lo < mae < hi
        assert mae == pytest.approx(np.abs(pred - t).mean())

    def test_interval_narrows_with_n(self):
        rng = np.random.default_rng(1)
        def width(n):
            t = rng.normal(size=n)
            pred = t + rng.normal(0, 0.5, n)
            _, lo, hi = bootstrap_mae_ci(pred, t, seed=2)
            return hi - lo
        assert width(800) < width(50)

    def test_perfect_predictions(self):
        t = np.arange(10.0)
        mae, lo, hi = bootstrap_mae_ci(t, t)
        assert mae == lo == hi == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=50)
        pred = t + 0.1
        a = bootstrap_mae_ci(pred, t, seed=4)
        b = bootstrap_mae_ci(pred, t, seed=4)
        assert a == b

    def test_validations(self):
        with pytest.raises(ValueError):
            bootstrap_mae_ci(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            bootstrap_mae_ci(np.ones(3), np.ones(3), confidence=1.5)
