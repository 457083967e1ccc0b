"""Tests for the domain-specific static-analysis pass (repro.analysis)."""

import ast
import json
import subprocess
from pathlib import Path

import pytest

from repro.analysis import (ApiHygieneChecker, ASTCache,
                            AutogradContractChecker, DeadExportChecker,
                            DeprecatedReachChecker,
                            DeterminismTaintChecker,
                            ExceptionHygieneChecker, Finding,
                            FloatEqualityChecker, Liveness, ProjectIndex,
                            ReachingDefinitions, ResourceLeakChecker,
                            UnitsHygieneChecker, VirtualClockChecker,
                            all_checkers, build_call_graph, build_cfg,
                            collect_suppressions, format_json, format_text,
                            function_defs, lint_paths, lint_source,
                            load_baseline, may_raise, module_name_for,
                            resolve_rules, solve, split_baselined,
                            write_baseline)
from repro.analysis.callgraph import resolve_call
from repro.cli import main

ALL_RULES = resolve_rules(None)


def findings_for(source, path="src/repro/serving/mod.py", rules=None):
    return lint_source(source, path, rules or ALL_RULES)


def rules_of(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# One positive + one negative snippet per rule.
# ----------------------------------------------------------------------

RULE_SNIPPETS = [
    # (rule, path, bad snippet, good snippet)
    ("RPR001", "src/repro/serving/engine.py",
     "import time\n\ndef step():\n    return time.perf_counter()\n",
     "def step(clock):\n    return clock + 0.25\n"),
    ("RPR001", "src/repro/parallel/sim.py",
     "import numpy as np\n\ndef jitter():\n    return np.random.rand()\n",
     "import numpy as np\n\ndef jitter(seed):\n"
     "    return np.random.default_rng(seed).random()\n"),
    ("RPR001", "src/repro/frontier/power.py",
     "import random\n\ndef noise():\n    return random.random()\n",
     "import random\n\ndef noise(seed):\n"
     "    return random.Random(seed).random()\n"),
    ("RPR002", "src/repro/models/layers.py",
     "def fuse(p, q):\n    p.data += q.data\n",
     "def fuse(p, q):\n    return p + q\n"),
    ("RPR002", "src/repro/training/trainer.py",
     "def clip(p):\n    p.grad[:] = 0.0\n",
     "class Opt:\n    def __init__(self, p):\n"
     "        p.data = p.data * 1.0\n"),
    ("RPR002", "src/repro/models/ops.py",
     "def build(tensors):\n"
     "    for t in tensors:\n"
     "        def backward(out):\n"
     "            return t * out\n",
     "def build(tensors):\n"
     "    for t in tensors:\n"
     "        def backward(out, t=t):\n"
     "            return t * out\n"),
    ("RPR003", "src/repro/frontier/roofline.py",
     "def traffic(weight_bytes, kv_gb):\n"
     "    return weight_bytes + kv_gb\n",
     "GB = 1 << 30\n\ndef traffic(weight_bytes, kv_gb):\n"
     "    return weight_bytes + kv_gb * GB\n"),
    ("RPR003", "src/repro/serving/metrics.py",
     "def slow(step_us, budget_ms):\n    return step_us > budget_ms\n",
     "def slow(step_us, budget_us):\n    return step_us > budget_us\n"),
    ("RPR004", "src/repro/core/api.py",
     '__all__ = ["missing_name"]\n',
     '__all__ = ["thing"]\n\ndef thing():\n    return 1\n'),
    ("RPR004", "src/repro/core/missing.py",
     "def thing():\n    return 1\n",
     "def _thing():\n    return 1\n"),
    ("RPR004", "src/repro/core/util.py",
     '__all__ = []\n\ndef merge(a, seen=[]):\n'
     "    seen.append(a)\n    return seen\n",
     "def _merge(a, seen=None):\n    return (seen or []) + [a]\n"),
    ("RPR005", "src/repro/frontier/memory.py",
     "def check(a, b):\n    return a / b == 0.5\n",
     "def check(a, b):\n    return abs(a / b - 0.5) < 1e-9\n"),
    ("RPR006", "src/repro/models/ckpt.py",
     "def load(path):\n"
     "    try:\n        return open(path)\n"
     "    except:\n        pass\n",
     "def load(path):\n"
     "    try:\n        return open(path)\n"
     "    except OSError as exc:\n"
     "        raise ValueError(f'bad path: {exc}') from exc\n"),
    ("RPR006", "src/repro/serving/router.py",
     "def poll(replicas):\n"
     "    for r in replicas:\n"
     "        try:\n            r.ping()\n"
     "        except (OSError, Exception):\n            continue\n",
     "def poll(replicas):\n"
     "    for r in replicas:\n"
     "        try:\n            r.ping()\n"
     "        except Exception as exc:\n"
     "            r.mark_unhealthy(exc)\n"),
    ("RPR007", "src/repro/serving/pool.py",
     "def copy_in(pool, blocks):\n"
     "    slot = pool.acquire()\n"
     "    validate(blocks)\n"
     "    pool.release(slot)\n",
     "def copy_in(pool, blocks):\n"
     "    slot = pool.acquire()\n"
     "    try:\n"
     "        validate(blocks)\n"
     "    finally:\n"
     "        pool.release(slot)\n"),
    ("RPR007", "src/repro/serving/admit.py",
     "def admit(cache, req):\n"
     "    lease = cache.match(req.prompt)\n"
     "    if req.urgent:\n"
     "        return 0\n"
     "    cache.release(lease)\n"
     "    return 1\n",
     "def admit(cache, req):\n"
     "    lease = cache.match(req.prompt)\n"
     "    if not lease.hit:\n"
     "        return 0\n"
     "    cache.release(lease)\n"
     "    return 1\n"),
    ("RPR008", "src/repro/serving/sched.py",
     "import time\n\n"
     "def _wall_now():\n    return time.time()\n\n"
     "def step(sim):\n"
     "    t = _wall_now()\n"
     "    sim.advance(t)\n",
     "def step(sim, clock):\n    sim.advance(clock + 0.5)\n"),
    ("RPR009", "src/repro/core/exports.py",
     '__all__ = ["dead_helper"]\n\ndef dead_helper():\n    return 1\n',
     '__all__ = ["alive_helper"]\n\ndef alive_helper():\n    return 1\n'
     "\n_PROBE = alive_helper()\n"),
]


class TestRuleCatalog:
    @pytest.mark.parametrize("rule,path,bad,good", RULE_SNIPPETS,
                             ids=[f"{r}-{p.rsplit('/', 1)[1]}"
                                  for r, p, _, _ in RULE_SNIPPETS])
    def test_rule_fires_on_bad_and_not_on_good(self, rule, path, bad,
                                               good):
        assert rule in rules_of(findings_for(bad, path))
        assert rule not in rules_of(findings_for(good, path))

    def test_no_rule_is_dead(self):
        covered = {r for r, _, _, _ in RULE_SNIPPETS}
        # RPR010 needs a call site in a *different* module than the
        # shim, which a single-file snippet cannot express; it is
        # covered by TestDeprecatedReach below.
        covered |= {"RPR010"}
        assert covered == set(all_checkers())

    def test_catalog_maps_rules_to_exported_classes(self):
        assert all_checkers() == {
            "RPR001": VirtualClockChecker,
            "RPR002": AutogradContractChecker,
            "RPR003": UnitsHygieneChecker,
            "RPR004": ApiHygieneChecker,
            "RPR005": FloatEqualityChecker,
            "RPR006": ExceptionHygieneChecker,
            "RPR007": ResourceLeakChecker,
            "RPR008": DeterminismTaintChecker,
            "RPR009": DeadExportChecker,
            "RPR010": DeprecatedReachChecker,
        }

    def test_findings_carry_location_and_severity(self):
        found = findings_for(
            "import time\n\ndef f():\n    return time.time()\n")
        (finding,) = [f for f in found if f.rule == "RPR001"]
        assert finding.line == 4
        assert finding.col > 0
        assert finding.severity == "error"
        assert "time.time" in finding.message

    def test_scoping_keeps_simulation_rules_out_of_other_dirs(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert "RPR001" in rules_of(
            findings_for(source, "src/repro/serving/x.py"))
        assert "RPR001" not in rules_of(
            findings_for(source, "src/repro/tokenizers/x.py"))

    def test_float_equality_skips_test_files(self):
        source = "def f(a, b):\n    return a / b == 0.5\n"
        assert "RPR005" not in rules_of(
            findings_for(source, "tests/test_memory.py"))

    def test_parse_error_is_reported_not_raised(self):
        found = findings_for("def broken(:\n")
        assert rules_of(found) == {"RPR000"}

    def test_resolve_rules_subset_and_unknown(self):
        subset = resolve_rules("RPR001,RPR003")
        assert [c.rule for c in subset] == ["RPR001", "RPR003"]
        with pytest.raises(ValueError, match="unknown rule"):
            resolve_rules("RPR999")


class TestSuppressions:
    BAD = ("import time\n\ndef f():\n"
           "    return time.time()  # repro: ignore[RPR001] virtual\n")

    def test_ignore_comment_suppresses_the_rule(self):
        assert "RPR001" not in rules_of(findings_for(self.BAD))

    def test_wildcard_suppresses_everything(self):
        source = self.BAD.replace("RPR001", "*")
        assert "RPR001" not in rules_of(findings_for(source))

    def test_other_rule_id_does_not_suppress(self):
        source = self.BAD.replace("RPR001", "RPR004")
        found = rules_of(findings_for(source))
        assert "RPR001" in found

    def test_unused_suppression_is_reported(self):
        source = "def _f():\n    return 1  # repro: ignore[RPR001]\n"
        found = findings_for(source)
        assert rules_of(found) == {"RPR000"}
        assert "unused suppression" in found[0].message

    def test_string_literals_are_not_suppressions(self):
        sheet = collect_suppressions(
            's = "# repro: ignore[RPR001]"\n')
        assert not sheet.suppresses(1, "RPR001")


class TestBaseline:
    def test_round_trip(self, tmp_path):
        findings = [Finding(path="src/x.py", line=3, col=1,
                            rule="RPR001", severity="error",
                            message="wall-clock call time.time()")]
        path = write_baseline(findings, tmp_path / "base.json")
        fingerprints = load_baseline(path)
        fresh, known = split_baselined(findings, fingerprints)
        assert fresh == [] and known == findings

    def test_baseline_matching_ignores_line_moves(self, tmp_path):
        original = Finding(path="src/x.py", line=3, col=1, rule="RPR001",
                           severity="error", message="m")
        moved = Finding(path="src/x.py", line=30, col=5, rule="RPR001",
                        severity="error", message="m")
        fingerprints = load_baseline(
            write_baseline([original], tmp_path / "b.json"))
        fresh, known = split_baselined([moved], fingerprints)
        assert fresh == [] and known == [moved]

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError, match="baseline version"):
            load_baseline(path)


def write_tree(tmp_path, bad=True):
    pkg = tmp_path / "src" / "repro" / "serving"
    pkg.mkdir(parents=True)
    body = "import time\n\ndef _f():\n    return time.time()\n" if bad \
        else "def _f(clock):\n    return clock\n"
    (pkg / "mod.py").write_text(body)
    return tmp_path / "src"


class TestRunnerAndOutput:
    def test_lint_paths_walks_directories(self, tmp_path):
        root = write_tree(tmp_path)
        report = lint_paths([root], ALL_RULES)
        assert report.checked_files == 1
        assert report.exit_code == 1
        assert rules_of(report.findings) == {"RPR001"}

    def test_json_schema(self, tmp_path):
        report = lint_paths([write_tree(tmp_path)], ALL_RULES)
        doc = json.loads(format_json(report))
        assert doc["version"] == 1
        assert doc["checked_files"] == 1
        assert doc["exit_code"] == 1
        assert doc["elapsed_s"] >= 0.0
        assert set(doc["rules"]) == set(all_checkers())
        (entry,) = doc["findings"]
        assert set(entry) == {"path", "line", "col", "rule", "severity",
                              "message"}
        assert entry["rule"] == "RPR001"

    def test_text_format_lists_findings_and_summary(self, tmp_path):
        report = lint_paths([write_tree(tmp_path)], ALL_RULES)
        text = format_text(report)
        assert "RPR001" in text and "1 finding(s)" in text
        clean = lint_paths([write_tree(tmp_path / "ok", bad=False)],
                           ALL_RULES)
        assert format_text(clean).startswith("clean:")

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["/no/such/dir"], ALL_RULES)


class TestLintCLI:
    def test_exit_codes_clean_dirty_usage(self, tmp_path, capsys):
        dirty = write_tree(tmp_path)
        assert main(["lint", str(dirty)]) == 1
        clean = write_tree(tmp_path / "ok", bad=False)
        assert main(["lint", str(clean)]) == 0
        assert main(["lint", str(tmp_path / "absent")]) == 2
        assert main(["lint", str(clean), "--rules", "RPR999"]) == 2
        capsys.readouterr()

    def test_json_output_and_report_file(self, tmp_path, capsys):
        root = write_tree(tmp_path)
        out_file = tmp_path / "report.json"
        code = main(["lint", str(root), "--format", "json",
                     "--output", str(out_file)])
        assert code == 1
        stdout = capsys.readouterr().out
        assert json.loads(stdout)["findings"]
        assert json.loads(out_file.read_text())["exit_code"] == 1

    def test_baseline_workflow_end_to_end(self, tmp_path, capsys):
        root = write_tree(tmp_path)
        base = tmp_path / "baseline.json"
        assert main(["lint", str(root), "--write-baseline",
                     str(base)]) == 0
        # Accepted findings no longer fail...
        assert main(["lint", str(root), "--baseline", str(base)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out
        # ...but a new finding alongside them still does.
        extra = root / "repro" / "serving" / "new.py"
        extra.write_text("import time\nT0 = time.time()\n")
        assert main(["lint", str(root), "--baseline", str(base)]) == 1

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_checkers():
            assert rule in out

    def test_repo_tree_is_clean_against_shipped_baseline(self):
        # The dogfooding guarantee: `repro lint src/` exits 0 as shipped.
        assert main(["lint", "src", "--baseline",
                     "lint-baseline.json"]) == 0


class TestDogfood:
    def test_shipped_baseline_is_empty(self):
        assert load_baseline("lint-baseline.json") == set()


# ----------------------------------------------------------------------
# Flow machinery: CFG construction and dataflow fixpoints.
# ----------------------------------------------------------------------

def cfg_for(source):
    return build_cfg(function_defs(ast.parse(source))[0])


def node_at(cfg, label):
    return next(n for n in cfg.nodes if n.label == label)


class TestCFG:
    def test_if_elif_else_branches_converge(self):
        cfg = cfg_for(
            "def f(x):\n"
            "    if x > 0:\n"
            "        a = 1\n"
            "    elif x < 0:\n"
            "        a = 2\n"
            "    else:\n"
            "        a = 3\n"
            "    return a\n")
        tests = [n for n in cfg.nodes if n.label == "if"]
        assert len(tests) == 2  # the elif lowers to a nested if
        assert {k for _, k in tests[0].succs} == {"true", "false"}
        ret = node_at(cfg, "return")
        assert len(ret.preds) == 3  # all three branches meet here
        assert cfg.reachable() >= set(cfg.nodes)

    def test_while_loop_back_edge_and_exception_edge(self):
        cfg = cfg_for(
            "def f(n):\n"
            "    while n:\n"
            "        n = step(n)\n"
            "    return n\n")
        header = node_at(cfg, "while")
        body = node_at(cfg, "Assign")
        assert (header, "normal") in body.succs          # back edge
        assert (cfg.exit, "exception") in body.succs     # step() may raise
        assert "false" in {k for _, k in header.succs}

    def test_while_true_exits_only_through_break(self):
        cfg = cfg_for(
            "def f(q):\n"
            "    while True:\n"
            "        item = q.get()\n"
            "        if item is None:\n"
            "            break\n"
            "    return 1\n")
        header = node_at(cfg, "while")
        assert "false" not in {k for _, k in header.succs}
        ret = node_at(cfg, "return")
        assert {k for _, k in ret.preds} == {"break"}

    def test_for_loop_iter_and_exhausted_edges(self):
        cfg = cfg_for(
            "def f(xs):\n"
            "    total = 0\n"
            "    for x in xs:\n"
            "        total += x\n"
            "    return total\n")
        header = node_at(cfg, "for")
        kinds = {k for _, k in header.succs}
        assert {"iter", "exhausted", "exception"} <= kinds
        body = node_at(cfg, "AugAssign")
        assert (header, "normal") in body.succs          # back edge

    def test_try_finally_subgraph_is_shared(self):
        cfg = cfg_for(
            "def f(pool):\n"
            "    slot = pool.acquire()\n"
            "    try:\n"
            "        fill(slot)\n"
            "    finally:\n"
            "        pool.release(slot)\n")
        fin = node_at(cfg, "finally")
        fill = next(n for n in cfg.nodes if n.line == 4)
        release = next(n for n in cfg.nodes if n.line == 6)
        # Both the normal and the exceptional body exits funnel into
        # the one finally block...
        assert {t for t, _ in fill.succs} == {fin}
        assert {"normal", "exception"} == {k for _, k in fill.succs}
        # ...and the finally's exit propagates the pending exception.
        assert (cfg.exit, "exception") in release.succs
        assert (cfg.exit, "normal") in release.succs

    def test_catch_all_handler_stops_propagation(self):
        caught = cfg_for(
            "def f(x):\n"
            "    try:\n"
            "        risky(x)\n"
            "    except Exception:\n"
            "        cleanup()\n"
            "    return x\n")
        risky = next(n for n in caught.nodes if n.line == 3)
        handler = next(n for n in caught.nodes
                       if n.label.startswith("except"))
        assert risky.successors("exception") == [handler]
        # A typed handler may not match, so the exception can escape.
        typed = cfg_for(
            "def f(x):\n"
            "    try:\n"
            "        risky(x)\n"
            "    except ValueError:\n"
            "        cleanup()\n"
            "    return x\n")
        risky = next(n for n in typed.nodes if n.line == 3)
        assert set(risky.successors("exception")) == {
            next(n for n in typed.nodes if n.label.startswith("except")),
            typed.exit}

    def test_with_header_and_body_may_raise(self):
        cfg = cfg_for(
            "def f(path):\n"
            "    with open(path) as fh:\n"
            "        data = fh.read()\n"
            "    return data\n")
        header = node_at(cfg, "with")
        assert (cfg.exit, "exception") in header.succs   # __enter__
        body = node_at(cfg, "Assign")
        assert (cfg.exit, "exception") in body.succs     # fh.read()

    def test_nested_function_body_is_opaque(self):
        cfg = cfg_for(
            "def f(xs):\n"
            "    def helper(x):\n"
            "        if x:\n"
            "            return 1\n"
            "        return 2\n"
            "    return helper\n")
        labels = [n.label for n in cfg.statement_nodes()]
        assert labels == ["def helper", "return"]

    def test_may_raise_approximation(self):
        assert may_raise(ast.parse("f()").body[0])
        assert may_raise(ast.parse("x[0]").body[0])
        assert may_raise(ast.parse("raise ValueError").body[0])
        assert not may_raise(ast.parse("y = a.b + c").body[0])
        # Defining a lambda does not run its body.
        assert not may_raise(ast.parse("g = lambda: f()").body[0])

    def test_function_defs_finds_nested_and_methods(self):
        tree = ast.parse(
            "def a():\n"
            "    def b():\n"
            "        pass\n"
            "\n"
            "class C:\n"
            "    def m(self):\n"
            "        pass\n")
        assert {f.name for f in function_defs(tree)} == {"a", "b", "m"}


class TestDataflow:
    def test_reaching_definitions_converge_through_a_loop(self):
        cfg = cfg_for(
            "def f(n):\n"
            "    x = 0\n"
            "    while n:\n"
            "        x = x + 1\n"
            "    return x\n")
        solution = solve(cfg, ReachingDefinitions())
        ret = node_at(cfg, "return")
        assert len({d for d in solution[ret][0] if d[0] == "x"}) == 2

    def test_solution_is_a_fixpoint(self):
        cfg = cfg_for(
            "def f(grid):\n"
            "    hits = 0\n"
            "    for row in grid:\n"
            "        for cell in row:\n"
            "            if cell:\n"
            "                hits = hits + 1\n"
            "            else:\n"
            "                hits = 0\n"
            "    return hits\n")
        first = solve(cfg, ReachingDefinitions())
        second = solve(cfg, ReachingDefinitions())
        assert first == second
        assert set(first) == set(cfg.nodes)

    def test_liveness_before_and_after_uses(self):
        cfg = cfg_for(
            "def f(a, b):\n"
            "    t = a + b\n"
            "    u = t * 2\n"
            "    return u\n")
        solution = solve(cfg, Liveness())
        assigns = sorted((n for n in cfg.nodes if n.label == "Assign"),
                         key=lambda n: n.line)
        # For backward problems "out" is the fact set *before* the node.
        assert solution[assigns[0]][1] == frozenset({"a", "b"})
        assert solution[assigns[1]][1] == frozenset({"t"})

    def test_exception_edge_excludes_the_failing_definition(self):
        cfg = cfg_for(
            "def f(pool):\n"
            "    try:\n"
            "        slot = pool.acquire()\n"
            "    except Exception:\n"
            "        slot = None\n"
            "    return slot\n")
        solution = solve(cfg, ReachingDefinitions())
        handler = next(n for n in cfg.nodes
                       if n.label.startswith("except"))
        # pool.acquire() raising means the assignment never landed.
        assert not {d for d in solution[handler][0] if d[0] == "slot"}
        ret = node_at(cfg, "return")
        assert len({d for d in solution[ret][0] if d[0] == "slot"}) == 2


# ----------------------------------------------------------------------
# Whole-program machinery: module index and call graph.
# ----------------------------------------------------------------------

class TestProjectMachinery:
    def test_module_name_for_layouts(self):
        assert module_name_for("src/repro/serving/engine.py") \
            == "repro.serving.engine"
        assert module_name_for("src/repro/analysis/__init__.py") \
            == "repro.analysis"
        assert module_name_for("tests/test_thing.py") == "tests.test_thing"

    def test_resolve_symbol_follows_reexport_chain(self):
        index = ProjectIndex.build([
            ("src/repro/core/impl.py", "def thing():\n    return 1\n"),
            ("src/repro/core/__init__.py", "from .impl import thing\n"),
            ("src/repro/api.py", "from repro.core import thing\n"),
        ], use_cache=False)
        assert index.resolve_symbol("repro.api", "thing") \
            == "repro.core.impl.thing"

    def test_call_graph_resolves_imports_and_self_methods(self):
        index = ProjectIndex.build([
            ("src/repro/core/worker.py",
             "from repro.core.jobs import run_job\n\n"
             "class Worker:\n"
             "    def step(self):\n"
             "        return self.poll()\n\n"
             "    def poll(self):\n"
             "        return run_job()\n"),
            ("src/repro/core/jobs.py", "def run_job():\n    return 1\n"),
        ], use_cache=False)
        graph = build_call_graph(index)
        assert "repro.core.worker.Worker.poll" \
            in graph.callees("repro.core.worker.Worker.step")
        assert "repro.core.jobs.run_job" \
            in graph.callees("repro.core.worker.Worker.poll")

    def test_calls_through_local_variables_do_not_resolve(self):
        index = ProjectIndex.build(
            [("src/repro/m.py", "def f(obj):\n    return obj.go()\n")],
            use_cache=False)
        info = index.modules["repro.m"]
        call = next(n for n in ast.walk(info.tree)
                    if isinstance(n, ast.Call))
        assert resolve_call(index, info, call) is None


# ----------------------------------------------------------------------
# Project rules, single-file corner cases.
# ----------------------------------------------------------------------

class TestResourceLeakRule:
    @staticmethod
    def leaks(source, path="src/repro/serving/pool.py"):
        return [f.message for f in findings_for(source, path)
                if f.rule == "RPR007"]

    def test_exception_path_leak_names_the_path_kind(self):
        (msg,) = self.leaks(
            "def grab(pool, blocks):\n"
            "    slot = pool.acquire()\n"
            "    validate(blocks)\n"
            "    pool.release(slot)\n")
        assert "never released on an exception path" in msg

    def test_early_return_leak_is_some_path(self):
        (msg,) = self.leaks(
            "def grab(pool, flag):\n"
            "    slot = pool.acquire()\n"
            "    if flag:\n"
            "        return None\n"
            "    pool.release(slot)\n")
        assert "never released on some path" in msg

    def test_passing_the_handle_on_transfers_ownership(self):
        assert not self.leaks(
            "def hand_off(pool, queue):\n"
            "    slot = pool.acquire()\n"
            "    queue.put(slot)\n")

    def test_returning_the_handle_transfers_ownership(self):
        assert not self.leaks(
            "def grab(pool):\n"
            "    slot = pool.acquire()\n"
            "    return slot\n")

    def test_overwrite_while_held_is_reported(self):
        msgs = self.leaks(
            "def churn(pool):\n"
            "    slot = pool.acquire()\n"
            "    slot = pool.acquire()\n"
            "    pool.release(slot)\n")
        assert any("overwritten while still held" in m for m in msgs)

    def test_retain_opens_a_lease(self):
        assert self.leaks(
            "def pin(store, name):\n"
            "    store.retain(name)\n"
            "    work()\n")
        assert not self.leaks(
            "def pin(store, name):\n"
            "    store.retain(name)\n"
            "    try:\n"
            "        work()\n"
            "    finally:\n"
            "        store.release(name)\n")

    def test_is_none_guard_clears_the_miss_path(self):
        assert not self.leaks(
            "def fetch(cache, key):\n"
            "    entry = cache.acquire()\n"
            "    if entry is None:\n"
            "        return None\n"
            "    cache.release(entry)\n"
            "    return entry\n")

    def test_re_match_is_not_a_lease(self):
        assert not self.leaks(
            "import re\n\n"
            "def scan(pat, text):\n"
            "    m = re.match(pat, text)\n"
            "    return m\n")


class TestDeterminismTaintRule:
    @staticmethod
    def taints(source, path="src/repro/serving/sched.py"):
        return [f for f in findings_for(source, path)
                if f.rule == "RPR008"]

    def test_taint_propagates_through_a_helper_chain(self):
        found = self.taints(
            "import time\n\n"
            "def _wall():\n"
            "    return time.time()\n\n"
            "def _jitter():\n"
            "    return _wall() * 0.5\n\n"
            "def step(sim):\n"
            "    delay = _jitter()\n"
            "    sim.wait(delay)\n")
        assert {f.line for f in found} == {7, 10}
        assert any("_jitter" in f.message for f in found)

    def test_discarded_result_is_not_flagged(self):
        assert not self.taints(
            "import time\n\n"
            "def _wall():\n"
            "    return time.time()\n\n"
            "def step(sim):\n"
            "    _wall()\n"
            "    sim.tick()\n")

    def test_out_of_scope_dirs_are_exempt(self):
        source = ("import time\n\n"
                  "def _wall():\n"
                  "    return time.time()\n\n"
                  "def encode(text):\n"
                  "    return text, _wall()\n")
        assert not self.taints(source, "src/repro/tokenizers/bpe.py")
        assert self.taints(source, "src/repro/parallel/sim.py")


# ----------------------------------------------------------------------
# Project rules across module boundaries (the real two-phase runner).
# ----------------------------------------------------------------------

def write_project(tmp_path, files):
    root = tmp_path / "src"
    for rel, body in files.items():
        path = root / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
    return root


class TestCrossModuleRules:
    def test_taint_crosses_module_boundaries(self, tmp_path):
        root = write_project(tmp_path, {
            "core/timeutil.py": "import time\n\n"
                                "def _wall_now():\n"
                                "    return time.time()\n",
            "serving/sched.py": "from repro.core.timeutil import "
                                "_wall_now\n\n"
                                "def _step(sim):\n"
                                "    t = _wall_now()\n"
                                "    sim.advance(t)\n",
        })
        report = lint_paths([root], ALL_RULES)
        taints = [f for f in report.findings if f.rule == "RPR008"]
        assert [(Path(f.path).name, f.line) for f in taints] \
            == [("sched.py", 4)]

    def test_dead_export_sees_usage_everywhere(self, tmp_path):
        root = write_project(tmp_path, {
            "core/api.py": '__all__ = ["dead", "used"]\n\n'
                           "def used():\n    return 1\n\n"
                           "def dead():\n    return 2\n",
            "serving/consume.py": "from repro.core.api import used\n\n"
                                  "_VALUE = used()\n",
        })
        dead = [f for f in lint_paths([root], ALL_RULES).findings
                if f.rule == "RPR009"]
        assert len(dead) == 1 and "'dead'" in dead[0].message
        # A test importing the name counts as usage (usage_roots are
        # indexed but never linted).
        probe = tmp_path / "tests"
        probe.mkdir()
        (probe / "test_api.py").write_text(
            "from repro.core.api import dead\n\n_SMOKE = dead()\n")
        report = lint_paths([root], ALL_RULES, usage_roots=[probe])
        assert not [f for f in report.findings if f.rule == "RPR009"]

    DEPRECATED_TREE = {
        "core/old.py": "import warnings\n\n"
                       '__all__ = ["Engine", "fresh", "legacy"]\n\n\n'
                       "def fresh():\n"
                       "    return 1\n\n\n"
                       "def legacy():\n"
                       '    warnings.warn("use fresh()", '
                       "DeprecationWarning)\n"
                       "    return fresh()\n\n\n"
                       "class Engine:\n"
                       "    def __init__(self, cfg, legacy_mode=None):\n"
                       "        self.cfg = cfg\n"
                       "        if legacy_mode is not None:\n"
                       '            warnings.warn("legacy_mode", '
                       "DeprecationWarning)\n\n\n"
                       "_SMOKE = legacy()\n",
        "serving/newcode.py": "from repro.core.old import Engine, "
                              "legacy\n\n\n"
                              "def _boot(cfg):\n"
                              "    engine = Engine(cfg, "
                              "legacy_mode=True)\n"
                              "    return legacy(), engine\n",
    }

    def test_deprecated_shim_and_kwarg_reachability(self, tmp_path):
        root = write_project(tmp_path, self.DEPRECATED_TREE)
        found = [f for f in lint_paths([root], ALL_RULES).findings
                 if f.rule == "RPR010"]
        # The defining module's own call does not count; the two call
        # sites in serving/newcode.py do.
        assert all(Path(f.path).name == "newcode.py" for f in found)
        messages = sorted(f.message for f in found)
        assert len(messages) == 2
        assert "call reaches deprecated shim legacy()" in messages[0]
        assert "deprecated keyword 'legacy_mode'" in messages[1]


LEAKY_TREE = {
    "serving/leak.py": "def _grab(pool, blocks):\n"
                       "    slot = pool.acquire()\n"
                       "    validate(blocks)\n"
                       "    pool.release(slot)\n",
    "core/api.py": '__all__ = ["dead"]\n\ndef dead():\n    return 1\n',
}


class TestProjectPhasePipeline:
    """Suppressions and the baseline apply to phase-two findings too."""

    def test_findings_round_trip_through_the_baseline(self, tmp_path):
        root = write_project(tmp_path, LEAKY_TREE)
        report = lint_paths([root], ALL_RULES)
        assert {"RPR007", "RPR009"} <= rules_of(report.findings)
        base = load_baseline(
            write_baseline(report.findings, tmp_path / "b.json"))
        again = lint_paths([root], ALL_RULES, baseline=base)
        assert again.exit_code == 0 and not again.findings
        assert sorted(f.format() for f in again.baselined) \
            == sorted(f.format() for f in report.findings)

    def test_every_project_finding_is_suppressible_at_its_line(
            self, tmp_path):
        root = write_project(tmp_path, LEAKY_TREE)
        report = lint_paths([root], ALL_RULES)
        assert report.findings
        by_file = {}
        for finding in report.findings:
            by_file.setdefault(finding.path, set()).add(
                (finding.line, finding.rule))
        for path, pairs in by_file.items():
            lines = Path(path).read_text().splitlines()
            for line, rule in pairs:
                lines[line - 1] += f"  # repro: ignore[{rule}]"
            Path(path).write_text("\n".join(lines) + "\n")
        clean = lint_paths([root], ALL_RULES)
        assert clean.exit_code == 0 and not clean.findings


# ----------------------------------------------------------------------
# AST/result caching and the --changed mode.
# ----------------------------------------------------------------------

class TestASTCaching:
    def test_two_phase_run_parses_each_file_once(self, tmp_path):
        root = write_tree(tmp_path)
        cache = ASTCache()
        first = lint_paths([root], ALL_RULES, cache=cache)
        assert cache.parse_count == 1   # phase two reused the tree
        assert cache.hits >= 1
        second = lint_paths([root], ALL_RULES, cache=cache)
        assert cache.parse_count == 1   # results and trees both cached
        assert [f.format() for f in second.findings] \
            == [f.format() for f in first.findings]

    def test_edited_content_invalidates_the_cache(self, tmp_path):
        root = write_tree(tmp_path)
        cache = ASTCache()
        lint_paths([root], ALL_RULES, cache=cache)
        target = root / "repro" / "serving" / "mod.py"
        target.write_text("def _f(clock):\n    return clock\n")
        report = lint_paths([root], ALL_RULES, cache=cache)
        assert cache.parse_count == 2
        assert not report.findings

    def test_use_cache_false_bypasses_the_store(self, tmp_path):
        root = write_tree(tmp_path)
        cache = ASTCache()
        lint_paths([root], ALL_RULES, cache=cache, use_cache=False)
        before = cache.parse_count
        lint_paths([root], ALL_RULES, cache=cache, use_cache=False)
        assert cache.parse_count > before

    def test_no_cache_cli_flag(self, tmp_path, capsys):
        root = write_tree(tmp_path)
        assert main(["lint", str(root), "--no-cache"]) == 1
        capsys.readouterr()


class TestChangedMode:
    @staticmethod
    def git(*argv, **kwargs):
        subprocess.run(["git", *argv], check=True, **kwargs)

    def seed_repo(self, tmp_path, monkeypatch):
        write_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        self.git("init", "-q")
        self.git("add", "-A")
        self.git("-c", "user.email=t@example.com", "-c",
                 "user.name=tester", "commit", "-qm", "seed")

    def test_changed_limits_findings_to_modified_files(
            self, tmp_path, monkeypatch, capsys):
        self.seed_repo(tmp_path, monkeypatch)
        # Everything committed: --changed lints nothing, a full run
        # still sees the old finding.
        assert main(["lint", "src", "--changed"]) == 0
        assert main(["lint", "src"]) == 1
        capsys.readouterr()
        # An untracked file counts as changed; the committed one stays
        # out of the report.
        fresh = Path("src/repro/serving/fresh.py")
        fresh.write_text("import time\nT0 = time.time()\n")
        assert main(["lint", "src", "--changed"]) == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out and "mod.py" not in out

    def test_changed_accepts_an_explicit_ref(
            self, tmp_path, monkeypatch, capsys):
        self.seed_repo(tmp_path, monkeypatch)
        target = Path("src/repro/serving/mod.py")
        target.write_text("def _f(clock):\n    return clock\n")
        self.git("add", "-A")
        self.git("-c", "user.email=t@example.com", "-c",
                 "user.name=tester", "commit", "-qm", "fix")
        # Against HEAD the tree is clean; against the seed commit the
        # fixed file is in scope (and passes).
        assert main(["lint", "src", "--changed"]) == 0
        assert main(["lint", "src", "--changed", "HEAD~1"]) == 0
        out = capsys.readouterr().out
        assert "1 file(s)" in out.splitlines()[-1]

    def test_changed_outside_a_git_repo_is_a_usage_error(
            self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "src", "--changed"]) == 2
        capsys.readouterr()
