"""Import-graph tests: each entry point loads only the code it runs.

``import repro`` loads no subpackage; the serving stack, the CLI's
parser and ``repro.core`` each stop short of the packages they do not
use.  Every check runs in a fresh interpreter, because the test
session has already imported most of the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Packages above the serving stack: training and its data pipeline,
#: the study, the band-gap models, the eval harness and the linter.
HIGHER_LAYERS = ("core", "training", "data", "tokenizers", "matsci",
                 "evalharness", "analysis")

SUBPACKAGES = ("analysis", "core", "data", "evalharness", "faults",
               "frontier", "matsci", "models", "parallel", "profiling",
               "serving", "tokenizers", "training")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_fresh(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python *argv`` in a fresh interpreter; it must exit 0."""
    out = subprocess.run([sys.executable, *argv], env=_env(),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out


def loaded_after(code: str) -> set[str]:
    """Names in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    out = run_fresh("-c", f"{code}\nimport json, sys\n"
                          "print(json.dumps(sorted(sys.modules)))")
    return set(json.loads(out.stdout.splitlines()[-1]))


def under(modules: set[str], package: str) -> list[str]:
    return sorted(m for m in modules
                  if m == package or m.startswith(package + "."))


class TestClosures:
    def test_serving_stack_loads_no_higher_layer(self):
        modules = loaded_after(
            "import repro.serving, repro.models, repro.faults")
        for sub in HIGHER_LAYERS:
            assert under(modules, f"repro.{sub}") == [], sub
        assert under(modules, "scipy") == []

    def test_cli_help_loads_no_command(self):
        out = run_fresh("-X", "importtime", "-m", "repro", "--help")
        assert "serve-bench" in out.stdout
        modules = {line.rsplit("|", 1)[-1].strip()
                   for line in out.stderr.splitlines()
                   if line.startswith("import time:")}
        assert "repro.cli" in modules
        for package in ("repro.serving", "repro.core", "scipy"):
            assert under(modules, package) == [], package

    def test_core_loads_no_scipy(self):
        modules = loaded_after("import repro.core")
        assert "repro.matsci.analysis" in modules
        assert under(modules, "scipy") == []


class TestFirstImport:
    """No package-level cycle: any module can be the first one loaded."""

    @pytest.mark.parametrize("module", [f"repro.{sub}" for sub in
                                        SUBPACKAGES + ("cli", "bench")])
    def test_imports_first(self, module):
        modules = loaded_after(f"import {module}")
        assert module in modules

    def test_root_loads_subpackages_on_use(self):
        modules = loaded_after(
            "import sys, repro\n"
            "assert not [m for m in sys.modules if m.startswith('repro.')]\n"
            "engine = repro.serving.ServingEngine\n"
            "from repro.serving.engine import ServingEngine\n"
            "assert engine is ServingEngine\n"
            "assert not hasattr(repro, 'nope')")
        assert "repro.serving" in modules
        assert under(modules, "repro.core") == []
