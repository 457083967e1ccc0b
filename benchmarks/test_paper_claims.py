"""Every registered paper artifact regenerates and every claim holds.

Runs the whole experiment registry, training-backed entries included,
on one shared context:

    PYTHONPATH=src python -m pytest benchmarks -q -p no:benchmark

Tier-1's ``tests/test_experiments_registry.py`` runs the light entries.
"""

import pytest

from repro.core import EXPERIMENTS, ExperimentContext, reproduce


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext()


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_claims_hold(ctx, exp_id):
    result = reproduce(exp_id, ctx)
    assert result.claims
    failed = [c.name for c in result.claims if not c.holds]
    assert not failed, f"{exp_id} claims failed: {failed}"
