"""Documentation-consistency tests.

The docs promise specific artifacts; these tests keep them honest: every
paper artifact has an experiment-registry entry and an EXPERIMENTS.md
section, DESIGN.md names registry ids (and every one of them), and the
README's command lines reference real files.
"""

import re
from pathlib import Path

import pytest

from repro.core import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
DESIGN = (ROOT / "DESIGN.md").read_text()
EXPERIMENTS_MD = (ROOT / "EXPERIMENTS.md").read_text()
README = (ROOT / "README.md").read_text()


class TestDesignDoc:
    def test_every_bench_referenced_in_design_exists(self):
        """DESIGN.md points at registry ids, not benchmark files."""
        assert "benchmarks/test_" not in DESIGN
        referenced = set(re.findall(
            r"`((?:table|fig)\d+|(?:ablation|extension)-[a-z-]+)`", DESIGN))
        assert referenced == set(EXPERIMENTS)

    def test_every_paper_artifact_has_a_bench(self):
        """Each table and figure is a registry entry that EXPERIMENTS.md
        names in its section title.

        That every entry yields at least one claim, and that all hold, is
        asserted where the claims run: ``tests/test_experiments_registry.py``
        for the light entries, ``benchmarks/`` for all of them.
        """
        artifacts = [f"table{i}" for i in range(1, 6)] + \
            [f"fig{i}" for i in (1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                 14, 15, 16, 17)]
        for art in artifacts:
            assert EXPERIMENTS[art].kind in ("table", "figure"), art
            assert f"(`{art}`)" in EXPERIMENTS_MD, art

    def test_identity_check_recorded(self):
        assert "Paper identity check" in DESIGN


class TestExperimentsDoc:
    def test_every_artifact_has_a_section(self):
        for section in ("Table I ", "Table II ", "Table III ", "Table IV ",
                        "Table V ", "Fig 1 ", "Fig 2 ", "Fig 4 ", "Fig 5 ",
                        "Fig 6 ", "Fig 7 ", "Fig 8 ", "Fig 9 ", "Fig 10 ",
                        "Fig 11 ", "Fig 12 ", "Fig 13 ", "Fig 14 ",
                        "Fig 15 ", "Fig 16 ", "Fig 17 "):
            assert f"## {section}" in EXPERIMENTS_MD, section

    def test_deviations_documented(self):
        assert "Token-budget note" in EXPERIMENTS_MD
        assert "Documented deviation" in EXPERIMENTS_MD

    def test_observations_table_present(self):
        assert "## Observations" in EXPERIMENTS_MD
        assert EXPERIMENTS_MD.count("holds") >= 5


class TestReadme:
    def test_example_commands_point_at_real_files(self):
        for name in re.findall(r"python (examples/\w+\.py)", README):
            assert (ROOT / name).exists(), name

    def test_cli_commands_exist(self):
        from repro.cli import _COMMANDS
        for cmd in re.findall(r"python -m repro (\w+)", README):
            assert cmd in _COMMANDS, cmd

    def test_architecture_listing_matches_package(self):
        import repro
        for sub in ("core", "models", "tokenizers", "data", "frontier",
                    "parallel", "training", "profiling", "evalharness",
                    "matsci"):
            assert f"  {sub}/" in README
            assert hasattr(repro, sub)

    def test_docs_directory_files_exist(self):
        assert (ROOT / "docs" / "ARCHITECTURE.md").exists()
        assert (ROOT / "docs" / "API.md").exists()
