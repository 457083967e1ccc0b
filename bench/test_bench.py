"""Tests of the benchmark itself: ``pytest bench``.

Every workload runs through the same code as ``bench/run.py`` (the
worker's :func:`~bench.worker.run_workload`, traced and untraced), with
each generated request list cut to its first :data:`CUT` requests.
"""

import json
import re
import time

import pytest

from bench import worker, workloads
from repro.models import preset

CATALOG = worker.load_catalog()
NAMES = [w["name"] for w in CATALOG["workloads"]]
CUT = 24


@pytest.fixture(scope="module")
def first_requests():
    full = workloads.make_requests
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "make_requests", lambda *a: full(*a)[:CUT])
        yield


@pytest.fixture(scope="module")
def traced(first_requests, tmp_path_factory):
    """One traced run per workload (seed 0), shared by the tests."""
    runs = {}

    def get(name: str) -> dict:
        if name not in runs:
            runs[name] = worker.run_workload(
                name, 0, CATALOG["run_seconds"], True, time.perf_counter(),
                tmp_path_factory.mktemp(name))
        return runs[name]
    return get


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CATALOG[kind]}


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_reported_with_its_unit(traced, name):
    out = traced(name)
    layer = worker.result_line(out, units("per_layer"))
    e2e = worker.result_line({**out, "metrics": out["e2e"]},
                             units("end_to_end"))
    for line, kind in ((layer, "per_layer"), (e2e, "end_to_end")):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} \
            == units(kind)
    assert e2e["attempted"] == CUT  # the traced run serves one repetition
    assert all(e2e["metrics"][m]["value"] > 0 for m in units("end_to_end"))


@pytest.mark.parametrize("name", NAMES)
def test_checks_pass(traced, name):
    out = traced(name)
    assert out["failed"] == 0
    failing = [(check, detail) for check, ok, detail in out["checks"]
               if not ok]
    assert not failing
    names = {check for check, _, _ in out["checks"]}
    assert {"accounting", "outputs", "traced-modelled"} <= names
    if workloads.WORKLOADS[name].engine:
        assert "reference" in names


@pytest.mark.parametrize("name", NAMES)
def test_chrome_trace_has_nested_spans(traced, name):
    trace = json.loads(open(traced(name)["trace_file"]).read())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    roots = {e["name"] for e in spans if e["args"]["parent"] == 0}
    assert {"setup"} < roots
    assert roots & {"engine.loop", "cluster.loop"}
    assert all(e["dur"] >= 0 for e in spans)


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_arrivals(name):
    cfg = preset(workloads.WORKLOADS[name].model)
    arrivals = [[r.arrival_time for r in
                 workloads.make_requests(name, seed, cfg, 0.05)[:CUT]]
                for seed in (0, 1)]
    assert arrivals[0] != arrivals[1]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_reproduces_modelled_metrics(first_requests, tmp_path,
                                               name):
    first, again = (worker.run_workload(name, 0, CATALOG["run_seconds"],
                                        False, time.perf_counter(), tmp_path)
                    for _ in range(2))
    assert all(ok for _, ok, _ in first["checks"])
    modelled = [k for k in first["e2e"]
                if k in ("slo_frac", "completed_frac")
                or k.startswith("modelled.")]
    assert [again["e2e"][k] for k in modelled] \
        == [first["e2e"][k] for k in modelled]
    assert again["counts"] == first["counts"]
    assert first["counts"]["submitted"] \
        == CUT * workloads.WORKLOADS[name].reps


def test_catalog_is_well_formed():
    assert set(CATALOG) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}
    assert CATALOG["paths"] == ["bench"]
    assert CATALOG["command"] == ["python3", "bench/run.py"]
    assert 1 <= CATALOG["run_seconds"] <= 60
    assert NAMES == list(workloads.WORKLOADS)
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    every = CATALOG["workloads"] + CATALOG["end_to_end"] \
        + CATALOG["per_layer"]
    assert len({m["name"] for m in every}) == len(every)
    for w in CATALOG["workloads"]:
        assert set(w) == {"name", "why"} and name.fullmatch(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in CATALOG["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in CATALOG["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in CATALOG["end_to_end"] + CATALOG["per_layer"]:
        assert name.fullmatch(m["name"]) and unit.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in CATALOG["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
