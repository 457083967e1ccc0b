"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("observations", "heatmap", "scaling", "recommend",
                    "study", "serve-bench", "lint"):
            args = parser.parse_args([cmd] if cmd != "recommend"
                                     else [cmd, "--gpus", "8"])
            assert args.command == cmd

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_recommend_defaults(self):
        args = build_parser().parse_args(["recommend"])
        assert args.model == "neox-6.7b-hf-52k"
        assert args.gpus == 256
        assert args.flash == 1

    def test_heatmap_arch_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["heatmap", "--arch", "bert"])

    def test_serve_bench_defaults_and_alias(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.model == "tiny-llama"
        assert args.requests == 64
        assert args.policy == "fcfs"
        alias = build_parser().parse_args(["serve"])
        assert alias.requests == args.requests

    def test_serve_bench_policy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--policy", "edf"])

    def test_cluster_bench_defaults_and_alias(self):
        args = build_parser().parse_args(["cluster-bench"])
        assert args.model == "llama-1.7b-hf-52k"
        assert args.nodes == "4"
        assert args.policy == "all"
        assert args.layout == "8xTP1"
        assert args.requests == 200
        assert args.rate == 800.0
        assert args.prompt_skew == 0.15
        alias = build_parser().parse_args(["cluster"])
        assert alias.requests == args.requests

    def test_cluster_bench_policy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster-bench", "--policy",
                                       "random"])

    def test_fault_bench_defaults_and_alias(self):
        args = build_parser().parse_args(["fault-bench"])
        assert args.mode == "both"
        assert args.train_mtbf == "inf,4,1"
        assert args.serve_mtbf == "inf,0.001,0.0002"
        assert args.max_retries == 3
        alias = build_parser().parse_args(["faults"])
        assert alias.mode == args.mode

    def test_fault_bench_mode_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fault-bench", "--mode", "chaos"])


class TestCommands:
    def test_observations_exit_zero(self, capsys):
        assert main(["observations"]) == 0
        out = capsys.readouterr().out
        assert "Observation 1: HOLDS" in out
        assert "Observation 3: HOLDS" in out

    def test_reproduce_prints_claim_verdicts(self, capsys):
        assert main(["reproduce", "--id", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "| claim | ours | paper | verdict |" in out
        assert "| HOLDS |" in out and "VIOLATED" not in out

    def test_reproduce_violated_claim_exits_1(self, capsys, monkeypatch):
        import dataclasses
        from repro.core.experiments import EXPERIMENTS, Claim
        monkeypatch.setitem(EXPERIMENTS, "fig4", dataclasses.replace(
            EXPERIMENTS["fig4"],
            claims=lambda data: [Claim("fails on purpose", False, 1, 2)]))
        assert main(["reproduce", "--id", "fig4"]) == 1
        assert "| fails on purpose | 1 | 2 | VIOLATED |" \
            in capsys.readouterr().out

    def test_heatmap_output(self, capsys):
        assert main(["heatmap"]) == 0
        out = capsys.readouterr().out
        assert "24L x 2304h" in out
        assert "flash-attention boost" in out

    def test_scaling_output(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "6.7B ZeRO-1" in out and "256" in out

    def test_recommend_output(self, capsys):
        assert main(["recommend", "--model", "neox-6.7b-hf-52k",
                     "--gpus", "256"]) == 0
        out = capsys.readouterr().out
        assert "recommended: TP=2" in out
        assert "OOM" in out  # plain DP is listed as infeasible

    def test_recommend_17b_prefers_dp(self, capsys):
        assert main(["recommend", "--model", "neox-1.7b-hf-52k",
                     "--gpus", "256"]) == 0
        assert "recommended: DP" in capsys.readouterr().out

    def test_serve_bench_smoke(self, capsys):
        assert main(["serve-bench", "--requests", "12",
                     "--compare-sequential"]) == 0
        out = capsys.readouterr().out
        assert "requests completed" in out
        assert "TTFT" in out
        assert "speedup" in out
        assert "Frontier-node extrapolation" in out

    def test_serve_bench_trace_export(self, capsys, tmp_path):
        trace = tmp_path / "serve-trace.json"
        assert main(["serve-bench", "--requests", "8", "--trace",
                     str(trace)]) == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        assert trace.exists()

    def test_serve_bench_unknown_preset_exits_2(self, capsys):
        assert main(["serve-bench", "--model", "gpt-5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_serve_bench_invalid_workload_exits_2(self, capsys):
        assert main(["serve-bench", "--requests", "0"]) == 2
        assert "num_requests" in capsys.readouterr().err

    def test_serve_bench_impossible_pool_exits_2(self, capsys):
        assert main(["serve-bench", "--pool-blocks", "1"]) == 2
        assert "never fit" in capsys.readouterr().err

    def test_cluster_bench_smoke(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(["cluster-bench", "--smoke", "--trace",
                     str(trace)]) == 0
        out = capsys.readouterr().out
        assert "cluster sweep" in out
        for policy in ("round-robin", "least-outstanding", "jskq"):
            assert policy in out
        assert "p99 TTFT" in out
        assert "wrote Chrome trace" in out
        assert trace.exists()

    def test_cluster_bench_unknown_preset_exits_2(self, capsys):
        assert main(["cluster-bench", "--model", "gpt-5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_fault_bench_smoke(self, capsys, tmp_path):
        results = tmp_path / "faults.json"
        assert main(["fault-bench", "--smoke", "--json",
                     str(results)]) == 0
        out = capsys.readouterr().out
        assert "fault-free baseline" in out
        assert "Young-Daly" in out
        assert "goodput" in out
        assert "avail" in out
        assert results.exists()
        import json
        data = json.loads(results.read_text())
        assert data["training"] and data["serving"]
        assert data["training"][0]["mtbf_hours"] == "inf"

    def test_fault_bench_serving_only(self, capsys):
        assert main(["fault-bench", "--smoke", "--mode", "serving",
                     "--serve-mtbf", "inf"]) == 0
        out = capsys.readouterr().out
        assert "Young-Daly" not in out
        assert "100.0%" in out

    def test_fault_bench_bad_mtbf_exits_2(self, capsys):
        assert main(["fault-bench", "--smoke", "--mode", "serving",
                     "--serve-mtbf", "soon"]) == 2
        assert "--serve-mtbf" in capsys.readouterr().err

    def test_fault_bench_unknown_preset_exits_2(self, capsys):
        assert main(["fault-bench", "--smoke", "--mode", "serving",
                     "--model", "gpt-5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_cluster_bench_bad_layout_exits_2(self, capsys):
        assert main(["cluster-bench", "--smoke", "--layout", "8x1"]) == 2
        assert "layout" in capsys.readouterr().err

    def test_cluster_bench_oversized_layout_exits_2(self, capsys):
        assert main(["cluster-bench", "--smoke", "--layout",
                     "8xTP8"]) == 2
        assert "GCDs" in capsys.readouterr().err
