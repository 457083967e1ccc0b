"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``observations``
    Re-derive the paper's self-contained Observations (1-3) and print
    the verdicts with their evidence.
``heatmap``
    Print the Fig 4 throughput heatmap and flash-boost table.
``scaling``
    Print the Fig 8 weak-scaling sweeps and kernel breakdowns.
``recommend --model <preset> --gpus N``
    Rank feasible 3D-parallel layouts for a model (Observation 2 as a
    tool).
``study``
    Run the end-to-end comparative study at laptop scale.
``serve-bench`` (alias ``serve``)
    Run a seeded Poisson workload through the continuous-batching
    serving engine and print metrics plus the Frontier-node
    extrapolation.
``cluster-bench`` (alias ``cluster``)
    Sweep node counts and load-balancing policies over the multi-node
    cluster simulator and print per-policy TTFT/TPOT percentiles;
    ``--trace`` exports the request-lifecycle Chrome trace.  With
    ``--disagg`` the sweep pivots to disaggregated prefill/decode
    layouts (prefill:decode ratios vs the colocated baseline) and
    reports the crossover where priced KV-transfer cost eats the
    prefill/decode interference win.
``perf-bench`` (alias ``perf``)
    Wall-clock microbenchmark of the batched decode path: sequential
    per-request decode vs one ``decode_step_batched`` call per step over
    a packed KV pool, plus chunked vs monolithic prefill.  Writes
    ``BENCH_decode.json``.
``fault-bench`` (alias ``faults``)
    Sweep seeded fault injection: MTBF x checkpoint-interval for
    training (Young-Daly goodput) and MTBF x balancing-policy for the
    serving cluster (availability, retries, failover).  With
    ``--mtbf inf`` both sweeps reproduce the fault-free baselines
    exactly.  See docs/RESILIENCE.md.
``overload-bench`` (alias ``overload``)
    Sweep offered load (as multiples of the estimated saturation rate)
    x shed policy over the cluster simulator with per-request
    deadlines: goodput, deadline attainment, shed/timeout counts, and
    router-queue growth.  Writes ``BENCH_overload.json``.  The shared
    ``--deadline``/``--shed-policy``/``--offered-load`` flags put the
    same overload knobs on ``serve-bench``, ``cluster-bench``, and
    ``fault-bench``.  See docs/RESILIENCE.md.
``lint``
    Run the domain-specific static-analysis pass (``repro.analysis``)
    over source trees: virtual-clock purity, autograd contract, units
    hygiene, API hygiene, float equality.  See docs/ANALYSIS.md.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["build_parser", "main"]

#: Mirrors ``repro.serving.LB_POLICIES`` / ``HANDOFF_POLICIES`` without
#: importing the serving stack at parser-build time (imports stay lazy
#: inside the command handlers); ``config.py`` validates against the
#: canonical tuples, so a drift here fails loudly at run time.
_LB_CHOICES = ("round-robin", "least-outstanding", "jskq", "cache-aware")
_HANDOFF_CHOICES = ("least-outstanding", "round-robin", "session-affinity")
#: Mirrors ``repro.serving.SHED_POLICIES`` (same lazy-import rationale).
_SHED_CHOICES = ("none", "bounded-queue", "deadline-estimate", "priority")


def _model_parent(default: str, help_text: str) -> argparse.ArgumentParser:
    """Shared ``--model``/``--seed`` flags, defined once for every bench."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--model", default=default, help=help_text)
    parent.add_argument("--seed", type=int, default=0,
                        help="seed fixing the whole run (workload, model, "
                             "fault schedule)")
    return parent


def _workload_parent(requests: int, rate: float,
                     prompt_skew: float | None = None
                     ) -> argparse.ArgumentParser:
    """Shared Poisson-workload flags; defaults differ per command."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--requests", type=int, default=requests,
                        help=f"number of Poisson-arrival requests "
                             f"(default: {requests})")
    parent.add_argument("--rate", type=float, default=rate,
                        help="mean arrival rate, requests per virtual "
                             "second")
    if prompt_skew is not None:
        parent.add_argument("--prompt-skew", type=float,
                            default=prompt_skew,
                            help="fraction of heavy-tail (8x longer) "
                                 "prompts")
    return parent


def _sessions_parent(turn_knobs: bool = False) -> argparse.ArgumentParser:
    """Shared session-workload flags (``--sessions`` + turn knobs)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--sessions", type=int, default=0,
                        help="session-aware workload: N multi-turn "
                             "sessions over shared system prompts "
                             "(0 = plain Poisson)")
    if turn_knobs:
        parent.add_argument("--system-prompts", type=int, default=2,
                            help="distinct shared system prompts for "
                                 "--sessions")
        parent.add_argument("--think-time", type=float, default=1.0,
                            help="mean think time between session turns, "
                                 "seconds")
    return parent


def _cache_parent(help_text: str) -> argparse.ArgumentParser:
    """Shared radix-prefix-cache flags."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--prefix-cache", action="store_true",
                        help=help_text)
    parent.add_argument("--cache-blocks", type=int, default=64,
                        help="prefix-cache capacity in KV blocks "
                             "(default: 64)")
    return parent


def _artifact_parent(trace: str | None = None, smoke: str | None = None,
                     json_flag: str | None = None
                     ) -> argparse.ArgumentParser:
    """Shared artifact flags (``--trace``/``--smoke``/``--json``).

    Each keyword is the per-command help string, or ``None`` to omit the
    flag for commands where it has no meaning.
    """
    parent = argparse.ArgumentParser(add_help=False)
    if trace is not None:
        parent.add_argument("--trace", default="", help=trace)
    if smoke is not None:
        parent.add_argument("--smoke", action="store_true", help=smoke)
    if json_flag is not None:
        parent.add_argument("--json", default="", metavar="PATH",
                            help=json_flag)
    return parent


def _overload_parent() -> argparse.ArgumentParser:
    """Shared overload-protection flags (deadlines / shedding / load).

    Every serving-facing bench accepts the same knobs so an overload
    scenario reproduces identically whether it is driven through
    ``serve-bench``, ``cluster-bench``, ``fault-bench``, or the
    dedicated ``overload-bench`` sweep.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--deadline", type=float, default=0.0,
                        help="per-request deadline in seconds after "
                             "arrival; expired requests are cancelled "
                             "at every lifecycle stage (0 = none)")
    parent.add_argument("--shed-policy", default="none",
                        choices=list(_SHED_CHOICES),
                        help="admission-control policy (default: none)")
    parent.add_argument("--max-queue-depth", type=int, default=64,
                        help="queue cap for bounded-queue / priority "
                             "shedding (default: 64)")
    parent.add_argument("--offered-load", type=float, default=0.0,
                        help="offered load as a multiple of the "
                             "estimated saturation rate; overrides "
                             "--rate when > 0")
    parent.add_argument("--breaker", action="store_true",
                        help="enable the per-replica circuit breaker "
                             "(trips on detections and stragglers)")
    return parent


def _overload_config(args: argparse.Namespace):
    """Build the :class:`OverloadConfig` the shared flags describe."""
    from .serving import OverloadConfig
    kwargs = {}
    if args.shed_policy in ("bounded-queue", "priority"):
        kwargs["max_queue_depth"] = args.max_queue_depth
    return OverloadConfig(shed_policy=args.shed_policy,
                          breaker=args.breaker, **kwargs)


def _saturation_rate(model_config, *, servers: int = 1,
                     prompt_range: tuple[int, int] = (64, 256),
                     output_range: tuple[int, int] = (16, 64),
                     batch: int = 8) -> float:
    """Requests/s the fleet sustains at the mean workload shape.

    The same optimistic arithmetic as the deadline-estimate shedder
    (serial prefills, decode amortized over a full batch), inverted:
    one request's mean service time is ``prefill(mean_prompt) +
    mean_out x step/batch``, and the fleet clears ``servers`` of those
    concurrently.  Offered load is expressed against this rate, so
    ``--offered-load 1.5`` means 1.5x saturation by construction.
    """
    from .serving import DecodeCostModel
    cost = DecodeCostModel(model_config)
    mean_prompt = sum(prompt_range) / 2
    mean_out = sum(output_range) / 2
    mean_ctx = mean_prompt + mean_out / 2
    step_s = cost.decode_step_time(batch, int(batch * mean_ctx))
    service_s = cost.prefill_time(int(mean_prompt)) \
        + mean_out * step_s / batch
    return servers / service_s


def _cmd_observations(args: argparse.Namespace) -> int:
    from .core import check_all
    failures = 0
    for check in check_all():
        verdict = "HOLDS" if check.holds else "VIOLATED"
        print(f"Observation {check.number}: {verdict}")
        print(f"  {check.statement}")
        for key, value in check.evidence.items():
            print(f"    {key}: {value:.3f}")
        failures += not check.holds
    return failures


def _cmd_heatmap(args: argparse.Namespace) -> int:
    from .core import (flash_boost_table, format_heatmap, format_table,
                       run_grid_search)
    heatmap = run_grid_search(args.arch)
    layers, hiddens, matrix = heatmap.as_matrix()
    print(format_heatmap(layers, hiddens, matrix,
                         title=f"TFLOPS/GCD heatmap ({args.arch}, no flash)"))
    best = heatmap.best_cell
    print(f"\nbest: {best.num_layers}L x {best.hidden_size}h "
          f"(head_dim {best.head_dim}) at {heatmap.best_tflops:.1f}")
    rows = flash_boost_table(args.arch)
    print()
    print(format_table(
        ["arch", "layers", "hidden", "base", "v1", "v2"],
        [[r["label"], r["layers"], r["hidden"], r["base"], r["flash_v1"],
          r["flash_v2"]] for r in rows],
        title="flash-attention boost (A-H)", float_fmt="{:.1f}"))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from .core import format_series
    from .models import preset
    from .parallel import TrainingSimulator
    sim = TrainingSimulator()
    gpus = [8, 16, 32, 64, 128, 256]
    series = {}
    for strategy, name, label in (("dp", "neox-1.7b-hf-52k", "1.7B DP"),
                                  ("zero1", "neox-6.7b-hf-52k",
                                   "6.7B ZeRO-1"),
                                  ("tp2", "neox-6.7b-hf-52k", "6.7B TP=2")):
        model = preset(name).with_flash(1)
        pts = sim.scaling_sweep(model, strategy, gpus)
        series[label] = np.array([p.per_gcd_tflops for p in pts])
    print(format_series(np.array(gpus), series, x_label="GPUs",
                        title="weak scaling (TFLOPS/GCD)"))
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    from .core import format_table, recommend_layouts
    from .models import preset
    model = preset(args.model).with_flash(args.flash)
    recs = recommend_layouts(model, args.gpus, max_tp=4, max_pp=4,
                             include_infeasible=True)
    print(format_table(
        ["layout", "TFLOPS/GCD", "HBM", "status"],
        [[r.label, f"{r.per_gcd_tflops:.1f}" if r.fits else "—",
          f"{r.hbm_utilization:.0%}", "ok" if r.fits else "OOM"]
         for r in recs],
        title=f"{model.label()} on {args.gpus} GPUs"))
    best = recs[0]
    print(f"\nrecommended: {best.label} — {best.rationale}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .core import ExperimentContext, list_experiments, reproduce
    from .core.report import claims_table
    if args.list:
        for row in list_experiments():
            heavy = " (heavy)" if row["heavy"] else ""
            print(f"{row['id']:8} {row['kind']:6} {row['title']}{heavy}")
        return 0
    if not args.id:
        print("error: pass --id <experiment> or --list", file=sys.stderr)
        return 2
    ctx = ExperimentContext()
    result = reproduce(args.id, ctx)
    print(f"{result.exp_id}: {result.title}")
    import json
    print(json.dumps(result.data, indent=2, default=str))
    print()
    print(claims_table(result.claims))
    return 0 if all(c.holds for c in result.claims) else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .core import write_report
    path = write_report(args.output, include_heavy=args.heavy)
    print(f"wrote {path}")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from .core import ComparativeStudy, StudyConfig, format_table
    study = ComparativeStudy(StudyConfig(train_steps=args.steps))
    results = study.run()
    print(f"corpus: {results.corpus_size} documents")
    for arch, hist in results.histories.items():
        print(f"{arch}: val loss {hist.final_val_loss:.3f}")
    for arch, rep in results.eval_reports.items():
        print(f"{arch}: mean zero-shot accuracy {rep.mean_accuracy(0):.3f}")
    print(format_table(["model", "test MAE"],
                       [[r.model, r.test_mae] for r in results.table_v],
                       title="Table V"))
    obs = results.observation_4
    print(f"Observation 4 holds: {obs.holds}")
    return 0 if obs.holds else 1


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from .models import GPTModel, preset
    from .serving import (DecodeCostModel, ServingConfig, ServingEngine,
                          ServingPerfModel, SessionWorkloadConfig,
                          SpecDecodeConfig, WorkloadConfig,
                          format_estimate, format_metrics,
                          run_sequential, synthesize_sessions,
                          synthesize_workload)
    try:
        config = preset(args.model)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    num_requests, num_sessions = args.requests, args.sessions
    if args.smoke:
        num_requests, num_sessions = min(num_requests, 24), \
            min(num_sessions, 4)
    try:
        if args.prefill_chunk < 0:
            raise ValueError(f"--prefill-chunk must be >= 0 (0 disables "
                             f"chunking): {args.prefill_chunk}")
        model = GPTModel(config, seed=args.seed)
        deadline = args.deadline if args.deadline > 0 else None
        rate = args.rate
        if args.offered_load > 0:
            rate = args.offered_load * _saturation_rate(
                config, prompt_range=(4, 24), output_range=(4, 16),
                batch=args.batch_size)
        if num_sessions > 0:
            session_workload = SessionWorkloadConfig(
                num_sessions=num_sessions, arrival_rate=rate,
                num_system_prompts=args.system_prompts,
                think_time_s=args.think_time, deadline_s=deadline,
                seed=args.seed)

            def make_requests():
                # Fresh Request objects per run: the scheduler mutates
                # them, and the seed reproduces the identical workload.
                return synthesize_sessions(session_workload, config)
        else:
            workload = WorkloadConfig(num_requests=num_requests,
                                      arrival_rate=rate,
                                      deadline_s=deadline,
                                      temperature=args.temperature,
                                      seed=args.seed)

            def make_requests():
                return synthesize_workload(workload, config)

        spec = None
        if args.spec_decode != "none":
            spec = SpecDecodeConfig(k=args.spec_k, draft=args.spec_decode)
        cache_on = args.prefix_cache or args.compare_cache
        serving = ServingConfig(
            policy=args.policy, max_batch_size=args.batch_size,
            block_size=args.block_size,
            num_blocks=args.pool_blocks if args.pool_blocks > 0 else None,
            prefill_chunk_tokens=args.prefill_chunk
            if args.prefill_chunk > 0 else None,
            prefix_cache=cache_on, prefix_cache_blocks=args.cache_blocks,
            spec_decode=spec, overload=_overload_config(args))
        requests = make_requests()
        engine = ServingEngine(model, serving)
        result = engine.run(requests)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pool = engine.pool
    load_note = f" ({args.offered_load:g}x saturation)" \
        if args.offered_load > 0 else ""
    overload_note = ""
    if deadline is not None or args.shed_policy != "none":
        parts = []
        if deadline is not None:
            parts.append(f"deadline {deadline * 1e3:.0f} ms")
        if args.shed_policy != "none":
            parts.append(f"shed {args.shed_policy}")
        overload_note = ", " + ", ".join(parts)
    if num_sessions > 0:
        print(f"workload: {len(requests)} requests across {num_sessions} "
              f"sessions ({args.system_prompts} shared system prompts), "
              f"rate {rate:.0f}/s{load_note}, seed {args.seed}, "
              f"policy {args.policy}{overload_note}")
    else:
        print(f"workload: {len(requests)} requests, Poisson rate "
              f"{rate:.0f}/s{load_note}, seed {args.seed}, "
              f"policy {args.policy}{overload_note}")
    print(f"pool: {pool.num_blocks} blocks x {pool.block_size} tokens "
          f"({pool.bytes_per_token} B/token)"
          + (f", prefix cache {args.cache_blocks} blocks" if cache_on
             else ""))
    print()
    print(format_metrics(result.metrics,
                         title=f"serving metrics — {config.label()}"))
    if args.compare_cache:
        # Same seed, cache disabled: outputs must be bitwise identical
        # (the cache only skips recomputing KV it already holds), and
        # TTFT should improve whenever prefixes actually repeat.
        try:
            baseline = ServingEngine(model, ServingConfig(
                policy=args.policy, max_batch_size=args.batch_size,
                block_size=args.block_size,
                num_blocks=args.pool_blocks
                if args.pool_blocks > 0 else None,
                prefill_chunk_tokens=args.prefill_chunk
                if args.prefill_chunk > 0 else None,
                prefix_cache=False,
                overload=_overload_config(args))).run(make_requests())
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        same = (sorted(result.outputs) == sorted(baseline.outputs)
                and all(np.array_equal(result.outputs[i],
                                       baseline.outputs[i])
                        for i in result.outputs))
        on, off = result.metrics, baseline.metrics
        print(f"\ncache-off baseline: mean TTFT "
              f"{off.ttft_mean * 1e3:.3f} ms vs {on.ttft_mean * 1e3:.3f} "
              f"ms cached ({off.ttft_mean - on.ttft_mean:+.2e} s saved), "
              f"{on.prefill_tokens_saved} prefill tokens saved, "
              f"outputs {'match' if same else 'MISMATCH'}")
        if not same:
            return 1
    if args.compare_sequential:
        base = run_sequential(
            model, requests,
            cost_model=DecodeCostModel(config, gcd=engine.cost.gcd))
        speedup = result.metrics.tokens_per_s / base.metrics.tokens_per_s
        print(f"\nsequential baseline: "
              f"{base.metrics.tokens_per_s:.1f} tok/s — continuous "
              f"batching speedup {speedup:.2f}x")
    print()
    est = ServingPerfModel().estimate(
        config, result.metrics,
        mean_context_tokens=result.metrics.mean_context_tokens)
    print(format_estimate(est))
    if args.trace:
        path = result.save_trace(args.trace)
        print(f"\nwrote Chrome trace ({len(requests)} request "
              f"lifecycles): {path}")
    if args.json:
        path = result.save_json(args.json)
        print(f"wrote results JSON: {path}")
    # No silent drop: every request completed, was shed, or timed out.
    accounted = result.metrics.num_requests + result.metrics.shed \
        + result.metrics.timed_out
    return 0 if accounted == len(requests) else 1


def _lint_usage_roots(paths: list[str]) -> list[str]:
    """Auto-detect usage-only roots (tests/examples) next to lint roots.

    Whole-program rules need to see *usage* beyond the linted tree —
    an ``__all__`` name is not dead if a test imports it — so for each
    directory root we index conventional sibling directories without
    linting them.  Only directories that actually exist are returned.
    """
    from pathlib import Path
    roots: list[str] = []
    seen: set[str] = set()
    for raw in paths:
        base = Path(raw)
        if not base.is_dir():
            continue
        for parent in (base.parent, base):
            for name in ("tests", "examples", "benchmarks"):
                candidate = parent / name
                key = str(candidate)
                if candidate.is_dir() and key not in seen \
                        and key not in {str(Path(p)) for p in paths}:
                    seen.add(key)
                    roots.append(key)
    return roots


def _changed_files(ref: str, paths: list[str]) -> set[str]:
    """Paths under ``paths`` whose content differs from git ``ref``."""
    import subprocess
    from pathlib import Path
    top = Path(subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        capture_output=True, text=True, check=True).stdout.strip())
    proc = subprocess.run(
        ["git", "diff", "--name-only", "-z", ref, "--"],
        capture_output=True, text=True, check=True)
    changed = {name for name in proc.stdout.split("\0") if name}
    # Untracked files count as changed too — they are new code.
    proc = subprocess.run(
        ["git", "ls-files", "--others", "--exclude-standard", "-z"],
        capture_output=True, text=True, check=True)
    changed |= {name for name in proc.stdout.split("\0") if name}
    roots = [Path(p).resolve() for p in paths]
    out: set[str] = set()
    for name in changed:
        if not name.endswith(".py"):
            continue
        absolute = (top / name).resolve()
        for root in roots:
            if absolute == root or root in absolute.parents:
                # Spell the path the way iter_python_files will.
                try:
                    spelled = absolute.relative_to(Path.cwd())
                except ValueError:
                    spelled = absolute
                out.add(str(spelled))
                break
    return out


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (all_checkers, format_json, format_text,
                           lint_paths, load_baseline, resolve_rules,
                           write_baseline)
    if args.list_rules:
        for rule, cls in sorted(all_checkers().items()):
            scope = ", ".join(cls.scopes) if cls.scopes else "all files"
            kind = "project" if cls.project else "file"
            print(f"{rule} [{cls.severity:>7}] [{kind:>7}] "
                  f"{cls.title} — {scope}")
        return 0
    import subprocess
    try:
        checkers = resolve_rules(args.rules)
        baseline = load_baseline(args.baseline) if args.baseline else None
        restrict = None
        if args.changed is not None:
            ref = args.changed or "HEAD"
            restrict = _changed_files(ref, args.paths)
        report = lint_paths(
            args.paths, checkers, baseline=baseline,
            usage_roots=_lint_usage_roots(args.paths),
            restrict_to=restrict, use_cache=not args.no_cache)
    except subprocess.CalledProcessError as exc:
        print(f"error: git diff against {args.changed or 'HEAD'} "
              f"failed: {exc.stderr or exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        # Capture everything currently firing (fresh + already
        # baselined) so a regenerated baseline stays complete.
        path = write_baseline(report.findings + report.baselined,
                              args.write_baseline)
        print(f"wrote baseline with "
              f"{len(report.findings) + len(report.baselined)} "
              f"finding(s): {path}")
        return 0
    rendered = format_json(report) if args.format == "json" \
        else format_text(report)
    print(rendered)
    if args.output:
        from pathlib import Path
        Path(args.output).write_text(rendered + "\n")
        print(f"wrote report: {args.output}", file=sys.stderr)
    return report.exit_code


def _parse_ratio_list(spec: str) -> list[tuple[int, int]]:
    """Parse ``'1:3,1:1,3:1'`` into (prefill, decode) weight pairs."""
    ratios = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        try:
            if len(parts) != 2:
                raise ValueError
            p_weight, d_weight = int(parts[0]), int(parts[1])
            if p_weight <= 0 or d_weight <= 0:
                raise ValueError
        except ValueError:
            raise ValueError(f"--disagg-ratios entries must be 'P:D' "
                             f"positive integers: {token!r}") from None
        ratios.append((p_weight, d_weight))
    if not ratios:
        raise ValueError(f"--disagg-ratios must name at least one "
                         f"prefill:decode ratio: {spec!r}")
    return ratios


def _print_disagg_crossover(results, ratios) -> None:
    """Compare disagg rows against the colocated baseline (row 0).

    The headline of the sweep: at which prefill:decode ratio does the
    priced KV-transfer cost eat the prefill/decode interference win?
    Scored on p99 TPOT — interference from co-scheduled prefills is
    exactly what stretches decode inter-token gaps in the colocated
    baseline, and the transfer sits on the decode critical path.
    """
    base, disagg = results[0], results[1:]
    base_tpot = base.percentiles("tpot", (99.0,))[99.0]
    base_ttft = base.percentiles("ttft", (99.0,))[99.0]
    print()
    print(f"colocated baseline ({base.layout}): p99 TTFT "
          f"{base_ttft * 1e3:.2f} ms, p99 TPOT {base_tpot * 1e3:.2f} ms")
    gains = []
    for (p_weight, d_weight), res in zip(ratios, disagg):
        label = f"{p_weight}:{d_weight}"
        tpot = res.percentiles("tpot", (99.0,))[99.0]
        ttft = res.percentiles("ttft", (99.0,))[99.0]
        gain = (base_tpot - tpot) / base_tpot
        mean_ms = res.transfer_seconds / res.transfers * 1e3 \
            if res.transfers else 0.0
        gains.append((label, res.layout, gain))
        print(f"  {label} ({res.layout}): p99 TPOT {tpot * 1e3:.2f} ms "
              f"({gain:+.1%} vs colocated), p99 TTFT {ttft * 1e3:.2f} ms, "
              f"mean transfer {mean_ms:.3f} ms")
    winners = [g for g in gains if g[2] > 0]
    if not winners:
        print("crossover: transfer cost eats the interference win at "
              "every swept ratio — colocated wins")
    elif len(winners) == len(gains):
        best = max(gains, key=lambda g: g[2])
        print(f"crossover: none in the swept ratios — every "
              f"disaggregated layout beats colocated (best {best[0]} = "
              f"{best[1]} at {best[2]:+.1%} p99 TPOT)")
    else:
        losers = [g for g in gains if g[2] <= 0]
        best = max(winners, key=lambda g: g[2])
        print(f"crossover: {', '.join(g[0] for g in winners)} beat(s) "
              f"colocated (best {best[0]} = {best[1]} at {best[2]:+.1%} "
              f"p99 TPOT); transfer cost eats the win at "
              f"{', '.join(g[0] for g in losers)}")


def _cmd_cluster_bench(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .models import preset
    from .serving import (LB_POLICIES, ClusterConfig, ClusterSimulator,
                          KVTransferConfig, ReplicaLayout, RoutingConfig,
                          ServingConfig, SessionWorkloadConfig,
                          WorkloadConfig, format_cluster,
                          synthesize_sessions, synthesize_workload)
    try:
        config = preset(args.model)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    num_requests, node_list = args.requests, args.nodes
    if args.smoke:
        num_requests, node_list = min(num_requests, 48), "2"
    try:
        layout = ReplicaLayout.from_label(args.layout)
        node_counts = [int(n) for n in node_list.split(",") if n]
        if not node_counts:
            raise ValueError(f"--nodes must name at least one node count: "
                             f"{args.nodes!r}")
        policies = list(LB_POLICIES) if args.policy == "all" \
            else [args.policy]
        ratios: list[tuple[int, int]] = []
        if args.disagg:
            if layout.disaggregated:
                raise ValueError(f"--disagg sweeps ratios itself; pass a "
                                 f"colocated --layout: {args.layout!r}")
            if layout.replicas_per_node < 2:
                raise ValueError(f"--disagg needs at least 2 replicas "
                                 f"per node to split roles: "
                                 f"{args.layout!r}")
            ratios = _parse_ratio_list(args.disagg_ratios)
            # A policies x ratios x nodes product would swamp the table;
            # the disagg sweep pins one policy and one node count so the
            # layout axis is the only thing moving.
            node_counts = node_counts[:1]
            policies = ["round-robin"] if args.policy == "all" \
                else [args.policy]
        deadline = args.deadline if args.deadline > 0 else None
        rate = args.rate
        if args.offered_load > 0:
            rate = args.offered_load * _saturation_rate(
                config, servers=node_counts[0]
                * (layout.replicas_per_node - layout.decode_replicas))
        if args.sessions > 0:
            # Paper-sized contexts get fleet-realistic prompt lengths;
            # tiny test models fall back to the config defaults, which
            # are sized for max_seq_len = 64.
            lengths = {"system_prompt_len_range": (64, 128),
                       "user_len_range": (16, 64),
                       "output_len_range": (16, 64)} \
                if config.max_seq_len >= 512 else {}
            session_workload = SessionWorkloadConfig(
                num_sessions=args.sessions, arrival_rate=rate,
                deadline_s=deadline, seed=args.seed, **lengths)

            def make_requests():
                # Fresh Request objects per run: the scheduler mutates
                # them, and the seed reproduces the identical workload.
                return synthesize_sessions(session_workload, config)
        else:
            workload = WorkloadConfig(
                num_requests=num_requests, arrival_rate=rate,
                prompt_len_range=(64, 256), output_len_range=(16, 64),
                prompt_skew=args.prompt_skew, heavy_multiplier=8,
                deadline_s=deadline, seed=args.seed)

            def make_requests():
                return synthesize_workload(workload, config)

        serving = ServingConfig(prefix_cache=args.prefix_cache,
                                prefix_cache_blocks=args.cache_blocks,
                                overload=_overload_config(args))
        transfer = KVTransferConfig(granularity=args.granularity)

        def routing_for(policy):
            return RoutingConfig(
                policy=policy,
                max_outstanding_per_replica=args.max_outstanding,
                handoff=args.handoff)

        layouts = [layout]
        if args.disagg:
            rpn = layout.replicas_per_node
            layouts += [
                replace(layout, prefill_replicas=max(
                    1, min(rpn - 1,
                           round(rpn * p_weight / (p_weight + d_weight)))))
                for p_weight, d_weight in ratios]
        results = []
        for nodes in node_counts:
            for policy in policies:
                for lay in layouts:
                    sim = ClusterSimulator(config, ClusterConfig(
                        num_nodes=nodes, layout=lay,
                        routing=routing_for(policy), transfer=transfer,
                        serving=serving))
                    results.append(sim.run(make_requests()))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    num_requests = len(make_requests())
    skew_note = f", {args.prompt_skew:.0%} heavy prompts" \
        if args.prompt_skew else ""
    cache_note = f", prefix cache {args.cache_blocks} blocks" \
        if args.prefix_cache else ""
    load_note = f" ({args.offered_load:g}x saturation)" \
        if args.offered_load > 0 else ""
    overload_note = ""
    if deadline is not None or args.shed_policy != "none":
        parts = []
        if deadline is not None:
            parts.append(f"deadline {deadline * 1e3:.0f} ms")
        if args.shed_policy != "none":
            parts.append(f"shed {args.shed_policy}")
        overload_note = ", " + ", ".join(parts)
    if args.sessions > 0:
        print(f"workload: {num_requests} requests across {args.sessions} "
              f"sessions, rate {rate:.0f}/s{load_note}, seed "
              f"{args.seed}{cache_note}{overload_note}")
    else:
        print(f"workload: {num_requests} requests, Poisson rate "
              f"{rate:.0f}/s{load_note}, prompts 64-256 "
              f"tokens{skew_note}, seed "
              f"{args.seed}{cache_note}{overload_note}")
    if args.disagg:
        print(f"cluster: {config.label()}, {node_counts[0]} node(s), base "
              f"layout {layout.label}, policy {policies[0]}, handoff "
              f"{args.handoff}, transfer granularity {args.granularity}")
        print()
        print(format_cluster(results,
                             title=f"disaggregation sweep — "
                                   f"{config.label()}"))
        _print_disagg_crossover(results, ratios)
    else:
        print(f"cluster: {config.label()}, layout {layout.label} "
              f"({layout.replicas_per_node} replica(s)/node, "
              f"TP={layout.tp})")
        print()
        print(format_cluster(results,
                             title=f"cluster sweep — {config.label()}"))
    if args.trace:
        # Trace the last run (largest node count, last policy/layout
        # swept — under --disagg that is the most prefill-heavy ratio,
        # the one with a populated kv-transfer lane).
        path = results[-1].save_trace(args.trace)
        print(f"\nwrote Chrome trace ({results[-1].policy}, "
              f"{results[-1].num_nodes} nodes, {results[-1].layout}): "
              f"{path}")
    if args.json:
        import json
        from pathlib import Path
        path = Path(args.json)
        if path.suffix != ".json":
            path = path.with_suffix(".json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            _json_safe([res.to_dict() for res in results]), indent=2))
        print(f"\nwrote results JSON: {path}")
    # No silent drop: completed + shed + timed out covers every request.
    accounted = all(r.metrics.num_requests + r.metrics.shed
                    + r.metrics.timed_out == num_requests
                    for r in results)
    return 0 if accounted else 1


def _parse_mtbf_list(spec: str, flag: str) -> list[float]:
    """Parse a comma-separated MTBF list in hours; ``inf`` disables."""
    values = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(float(token))
        except ValueError:
            raise ValueError(f"{flag} entries must be numbers or 'inf': "
                             f"{token!r}") from None
    if not values:
        raise ValueError(f"{flag} must name at least one MTBF: {spec!r}")
    return values


def _json_safe(obj):
    """Replace non-finite floats with strings so the JSON stays valid."""
    import math
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_safe(v) for v in obj]
    return obj


def _fault_bench_training(args) -> tuple[list[dict], int]:
    """MTBF x checkpoint-interval sweep; returns (JSON rows, exit code)."""
    import math

    from .faults import FaultConfig
    from .models import preset
    from .parallel import ParallelConfig, TrainingSimulator
    from .training import (CheckpointCostModel, CheckpointRestartSimulator,
                           checkpoint_state_bytes, format_goodput_sweep)

    model = preset(args.train_model).with_flash(1)
    steps = min(args.steps, 300) if args.smoke else args.steps
    gpus = args.gpus
    profile = TrainingSimulator().step(
        model, ParallelConfig(dp=gpus, zero_stage=1))
    step_time = profile.total_s
    params = model.num_parameters()
    cost = CheckpointCostModel(
        state_bytes=checkpoint_state_bytes(params, args.optimizer),
        num_nodes=max(1, gpus // 8))
    print(f"training: {model.label()} ({params / 1e6:.0f}M params) on "
          f"{gpus} GCDs, step {step_time * 1e3:.1f} ms, "
          f"checkpoint write {cost.write_s:.2f} s "
          f"(restart +{cost.restart_s:.1f} s), {steps} steps")
    rows = []
    for mtbf in _parse_mtbf_list(args.train_mtbf, "--train-mtbf"):
        faults = FaultConfig(mtbf_hours=mtbf, seed=args.seed)
        sim = CheckpointRestartSimulator(step_time, steps, cost, faults,
                                         num_gcds=gpus)
        tau = sim.young_daly_interval()
        if math.isinf(tau):
            # Fault-free: no checkpoints needed, the replay is the
            # baseline trainer wall time bit-for-bit.
            intervals = [math.inf]
            title = "mtbf=inf (fault-free baseline)"
        else:
            intervals = [tau * 0.25, tau, tau * 4.0]
            title = (f"mtbf={mtbf:g} h/GCD (system MTBF "
                     f"{sim.system_mtbf_s:.0f} s, Young-Daly "
                     f"{tau:.0f} s)")
        reports = sim.interval_sweep(intervals)
        print()
        print(format_goodput_sweep(reports, title=title))
        rows.append({
            "mtbf_hours": mtbf,
            "system_mtbf_s": sim.system_mtbf_s,
            "young_daly_s": tau,
            "reports": [rep.to_dict() for rep in reports],
        })
    return rows, 0


def _fault_bench_serving(args) -> tuple[list[dict], int]:
    """MTBF x balancing-policy sweep; returns (JSON rows, exit code)."""
    from .faults import FaultConfig, RetryPolicy
    from .models import preset
    from .serving import (LB_POLICIES, ClusterConfig, ClusterSimulator,
                          FailoverConfig, ReplicaLayout, RoutingConfig,
                          ServingConfig, WorkloadConfig, format_cluster,
                          synthesize_workload)

    config = preset(args.model)
    num_requests = min(args.requests, 48) if args.smoke else args.requests
    layout = ReplicaLayout.from_label(args.layout)
    policies = list(LB_POLICIES) if args.policy == "all" else [args.policy]
    failover = FailoverConfig(
        detection_s=args.detection, recovery_s=args.recovery,
        retry=RetryPolicy(max_retries=args.max_retries, seed=args.seed),
        slo_ttft_s=args.slo if args.slo > 0 else None)
    deadline = args.deadline if args.deadline > 0 else None
    rate = args.rate
    if args.offered_load > 0:
        rate = args.offered_load * _saturation_rate(
            config, servers=args.nodes
            * (layout.replicas_per_node - layout.decode_replicas))
    serving = ServingConfig(overload=_overload_config(args))
    workload = WorkloadConfig(
        num_requests=num_requests, arrival_rate=rate,
        prompt_len_range=(64, 256), output_len_range=(16, 64),
        prompt_skew=args.prompt_skew, heavy_multiplier=8,
        deadline_s=deadline, seed=args.seed)
    slo_note = f", SLO TTFT {args.slo * 1e3:.0f} ms" if args.slo > 0 \
        else ""
    overload_note = ""
    if deadline is not None or args.shed_policy != "none" or args.breaker:
        parts = []
        if deadline is not None:
            parts.append(f"deadline {deadline * 1e3:.0f} ms")
        if args.shed_policy != "none":
            parts.append(f"shed {args.shed_policy}")
        if args.breaker:
            parts.append("breaker on")
        overload_note = ", " + ", ".join(parts)
    print(f"serving: {config.label()}, {args.nodes} node(s) of "
          f"{layout.label}, {num_requests} requests at {rate:.0f}/s, "
          f"detection {args.detection * 1e3:.0f} ms, recovery "
          f"{args.recovery:.2f} s, max {args.max_retries} "
          f"retries{slo_note}{overload_note}")
    rows, last_faulted = [], None
    for mtbf in _parse_mtbf_list(args.serve_mtbf, "--serve-mtbf"):
        faults = FaultConfig(mtbf_hours=mtbf, seed=args.seed + 1)
        results = []
        for policy in policies:
            sim = ClusterSimulator(config, ClusterConfig(
                num_nodes=args.nodes, layout=layout,
                routing=RoutingConfig(
                    policy=policy,
                    max_outstanding_per_replica=args.max_outstanding),
                serving=serving, faults=faults, failover=failover))
            # Fresh Request objects per run: the scheduler mutates them,
            # and the seed reproduces the identical workload.
            result = sim.run(synthesize_workload(workload, config))
            results.append(result)
            rows.append({
                "mtbf_hours": mtbf, "policy": policy,
                "nodes": args.nodes, "layout": layout.label,
                "availability": result.availability,
                "retries_total": result.retries_total,
                "failed": len(result.failed_records),
                "fault_events": len(result.fault_events),
                "tokens_per_s": result.metrics.tokens_per_s,
                "ttft_p95_s": result.metrics.ttft_p95,
                "latency_p99_s": result.metrics.latency_p99,
                "shed": result.metrics.shed,
                "timed_out": result.metrics.timed_out,
                "goodput_tokens_per_s":
                    result.metrics.goodput_tokens_per_s,
                "breaker_trips": result.breaker_trips,
            })
            if result.fault_events:
                last_faulted = result
        title = "mtbf=inf (fault-free baseline)" if mtbf == float("inf") \
            else f"mtbf={mtbf:g} h/GCD"
        print()
        print(format_cluster(results, title=title))
    if args.trace:
        traced = last_faulted or results[-1]
        path = traced.save_trace(args.trace)
        print(f"\nwrote Chrome trace ({traced.policy}, "
              f"{len(traced.fault_events)} fault event(s)): {path}")
    return rows, 0


#: Interleaved timing rounds under ``perf-bench --smoke``: fewer than the
#: default, still enough for a stable median.
_SMOKE_ROUNDS = 5


def _cmd_perf_bench(args: argparse.Namespace) -> int:
    from .bench import (baseline_coverage, compare_perf_baseline,
                        format_perf_bench, run_perf_bench)
    try:
        batch_sizes = tuple(int(b) for b in args.batch_sizes.split(",")
                            if b.strip())
        if not batch_sizes:
            raise ValueError(f"--batch-sizes must name at least one "
                             f"batch size: {args.batch_sizes!r}")
        spec_ks = tuple(int(k) for k in args.spec_k.split(",")
                        if k.strip())
        spec_temps = tuple(float(t) for t in args.spec_temps.split(",")
                           if t.strip())
        repeats = args.repeats
        if args.smoke:
            # Trim sweep points and rounds only: a row's token counts are
            # part of its key, and the baseline holds full-size rows.
            batch_sizes = tuple(b for b in batch_sizes if b <= 8) or (1, 8)
            spec_ks = tuple(k for k in spec_ks if k <= 4) or (4,)
            repeats = _SMOKE_ROUNDS
        results = run_perf_bench(
            args.model, batch_sizes=batch_sizes, prompt_len=args.prompt,
            new_tokens=args.tokens, chunk_tokens=args.chunk,
            prefill_len=args.prefill_len, seed=args.seed, repeats=repeats,
            spec_decode=args.spec_decode, spec_ks=spec_ks,
            spec_temperatures=spec_temps, spec_tokens=args.spec_tokens)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_perf_bench(results))
    if args.output:
        import json
        from pathlib import Path
        path = Path(args.output)
        if path.suffix != ".json":
            path = path.with_suffix(".json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(_json_safe(results), indent=2) + "\n")
        print(f"\nwrote results JSON: {path}")
    ok = all(r["tokens_match"] for r in results["decode"]) \
        and results["prefill"]["tokens_match"] \
        and all(r["tokens_match"] is not False
                for r in results.get("speculative", []))
    if args.baseline:
        import json
        from pathlib import Path
        try:
            baseline = json.loads(Path(args.baseline).read_text())
            problems = compare_perf_baseline(
                results, baseline, threshold=args.regression_threshold)
            compared = baseline_coverage(results, baseline)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot use baseline {args.baseline}: {exc!r}",
                  file=sys.stderr)
            return 2
        print(f"\ncompared with baseline {args.baseline}: "
              + ", ".join(f"{n} {kind} row(s)"
                          for kind, n in compared.items()))
        # A run none of whose rows of a kind match the baseline's sweep
        # points would pass without being checked at all.
        problems += [f"{kind}: no row matches a baseline sweep point, "
                     f"so none was checked"
                     for kind in ("decode", "speculative")
                     if results.get(kind) and not compared[kind]]
        if problems:
            print(f"\nperf regression vs baseline {args.baseline}:")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(f"\nno perf regression vs baseline {args.baseline} "
              f"(threshold {args.regression_threshold:.0%})")
    return 0 if ok else 1


def _cmd_fault_bench(args: argparse.Namespace) -> int:
    training_rows: list[dict] = []
    serving_rows: list[dict] = []
    try:
        if args.mode in ("training", "both"):
            training_rows, code = _fault_bench_training(args)
            if code:
                return code
        if args.mode in ("serving", "both"):
            if args.mode == "both":
                print()
            serving_rows, code = _fault_bench_serving(args)
            if code:
                return code
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json
        from pathlib import Path
        path = Path(args.json)
        if path.suffix != ".json":
            path = path.with_suffix(".json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(_json_safe(
            {"training": training_rows, "serving": serving_rows}),
            indent=2))
        print(f"\nwrote results JSON: {path}")
    return 0


def _cmd_overload_bench(args: argparse.Namespace) -> int:
    from .models import preset
    from .serving import (ClusterConfig, ClusterSimulator, OverloadConfig,
                          ReplicaLayout, RoutingConfig, ServingConfig,
                          WorkloadConfig, synthesize_workload)
    try:
        config = preset(args.model)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    num_requests = min(args.requests, 48) if args.smoke else args.requests
    try:
        layout = ReplicaLayout.from_label(args.layout)
        loads = sorted(float(t) for t in args.loads.split(",") if t.strip())
        if not loads or any(load <= 0 for load in loads):
            raise ValueError(f"--loads must name positive saturation "
                             f"multiples: {args.loads!r}")
        policies = [t.strip() for t in args.policies.split(",") if t.strip()]
        if not policies:
            raise ValueError(f"--policies must name at least one policy: "
                             f"{args.policies!r}")
        for policy in policies:
            if policy not in _SHED_CHOICES:
                raise ValueError(f"--policies entries must be one of "
                                 f"{_SHED_CHOICES}: {policy!r}")
        servers = args.nodes * (layout.replicas_per_node
                                - layout.decode_replicas)
        saturation = _saturation_rate(config, servers=servers)
        # Default deadline: 10x the mean per-request service time, so an
        # unloaded fleet attains ~everything while a saturated queue
        # pushes the tail past it — the regime where shedding can win.
        deadline = args.deadline if args.deadline > 0 \
            else 10 * servers / saturation
        overloads = {
            policy: OverloadConfig(
                shed_policy=policy, breaker=args.breaker,
                **({"max_queue_depth": args.max_queue_depth}
                   if policy in ("bounded-queue", "priority") else {}))
            for policy in policies}
        results: dict[tuple[float, str], object] = {}
        for load in loads:
            workload = WorkloadConfig(
                num_requests=num_requests,
                arrival_rate=load * saturation,
                prompt_len_range=(64, 256), output_len_range=(16, 64),
                deadline_s=deadline, seed=args.seed)
            for policy in policies:
                sim = ClusterSimulator(config, ClusterConfig(
                    num_nodes=args.nodes, layout=layout,
                    routing=RoutingConfig(
                        max_outstanding_per_replica=args.max_outstanding),
                    serving=ServingConfig(overload=overloads[policy])))
                # Fresh Request objects per run: the scheduler mutates
                # them, and the seed reproduces the identical workload.
                results[(load, policy)] = sim.run(
                    synthesize_workload(workload, config))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"overload sweep: {config.label()}, {args.nodes} node(s) of "
          f"{layout.label}, {num_requests} requests/run, deadline "
          f"{deadline * 1e3:.1f} ms, saturation {saturation:.0f} req/s, "
          f"seed {args.seed}")
    header = ["load", "policy", "done", "shed", "t/o", "goodput",
              "attain", "max-queue"]
    rows = []
    for (load, policy), res in results.items():
        m = res.metrics
        rows.append([f"{load:g}x", policy, str(m.num_requests),
                     str(m.shed), str(m.timed_out),
                     f"{m.goodput_tokens_per_s:.0f}",
                     f"{m.deadline_attainment:.1%}",
                     str(res.max_queue_depth)])
    widths = [max(len(r[i]) for r in [header, *rows])
              for i in range(len(header))]
    print()
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    # Acceptance verdicts.  (1) deadline-estimate shedding preserves
    # goodput past saturation: doomed requests are refused at arrival
    # instead of poisoning the queue for attainable ones.  Both
    # policies see the identical offered workload, so goodput is
    # compared over a common horizon (the slower policy's makespan) —
    # dividing each by its own makespan would penalize the policy that
    # salvages tail requests the other lets expire.  (2) without
    # shedding the router queue grows with offered load; with a queue
    # policy it stays bounded by the cap.
    failures = 0
    heavy = [load for load in loads if load >= 1.5]
    if heavy and "none" in policies and "deadline-estimate" in policies:
        print()
        for load in heavy:
            pair = [results[(load, "none")],
                    results[(load, "deadline-estimate")]]
            horizon = max(res.metrics.makespan for res in pair)
            base, shed = (sum(r.output_len for r in res.records
                              if r.met_deadline) / horizon
                          for res in pair)
            ok = shed >= base
            failures += not ok
            print(f"verdict: deadline-estimate goodput {shed:.0f} "
                  f"{'>=' if ok else '<'} none {base:.0f} tok/s at "
                  f"{load:g}x saturation (common horizon "
                  f"{horizon * 1e3:.0f} ms) "
                  f"[{'pass' if ok else 'FAIL'}]")
    if len(loads) >= 2 and "none" in policies:
        depths = [results[(load, "none")].max_queue_depth
                  for load in loads]
        ok = depths[-1] > depths[0]
        failures += not ok
        print(f"verdict: no-shed max queue depth grows with load "
              f"({' -> '.join(str(d) for d in depths)}) "
              f"[{'pass' if ok else 'FAIL'}]")
        for policy in ("bounded-queue", "priority"):
            if policy not in policies:
                continue
            cap = args.max_queue_depth
            worst = max(results[(load, policy)].max_queue_depth
                        for load in loads)
            ok = worst <= cap
            failures += not ok
            print(f"verdict: {policy} max queue depth {worst} "
                  f"{'<=' if ok else '>'} cap {cap} "
                  f"[{'pass' if ok else 'FAIL'}]")
    if args.trace:
        last = results[(loads[-1], policies[-1])]
        path = last.save_trace(args.trace)
        print(f"\nwrote Chrome trace ({loads[-1]:g}x, {policies[-1]}): "
              f"{path}")
    if args.output:
        import json
        from pathlib import Path
        path = Path(args.output)
        if path.suffix != ".json":
            path = path.with_suffix(".json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(_json_safe({
            "model": config.label(), "nodes": args.nodes,
            "layout": layout.label, "requests": num_requests,
            "deadline_s": deadline,
            "saturation_rate_per_s": saturation,
            "seed": args.seed,
            "sweep": [{
                "offered_load": load, "shed_policy": policy,
                "completed": res.metrics.num_requests,
                "shed": res.metrics.shed,
                "timed_out": res.metrics.timed_out,
                "degraded": res.metrics.degraded,
                "goodput_tokens_per_s":
                    res.metrics.goodput_tokens_per_s,
                "tokens_per_s": res.metrics.tokens_per_s,
                "deadline_attainment": res.metrics.deadline_attainment,
                "availability": res.availability,
                "max_queue_depth": res.max_queue_depth,
                "breaker_trips": res.breaker_trips,
            } for (load, policy), res in results.items()],
        }), indent=2))
        print(f"\nwrote results JSON: {path}")
    # No silent drop anywhere in the sweep.
    accounted = all(res.metrics.num_requests + res.metrics.shed
                    + res.metrics.timed_out == num_requests
                    for res in results.values())
    return 0 if accounted and not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Comparative Study of LLM "
                    "Architectures on Frontier' (IPDPS 2024)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("observations", help="re-derive Observations 1-3")

    p = sub.add_parser("heatmap", help="Fig 4 throughput heatmap")
    p.add_argument("--arch", default="neox", choices=["neox", "llama"])

    sub.add_parser("scaling", help="Fig 8 weak-scaling sweeps")

    p = sub.add_parser("recommend", help="rank 3D-parallel layouts")
    p.add_argument("--model", default="neox-6.7b-hf-52k")
    p.add_argument("--gpus", type=int, default=256)
    p.add_argument("--flash", type=int, default=1, choices=[0, 1, 2])

    p = sub.add_parser("reproduce",
                       help="regenerate one paper artifact and check its "
                            "claims (exit 1 when one is violated)")
    p.add_argument("--id", default="")
    p.add_argument("--list", action="store_true")

    p = sub.add_parser("report", help="write the reproduction report")
    p.add_argument("--output", "-o", default="REPORT.md")
    p.add_argument("--heavy", action="store_true",
                   help="include training-backed experiments")

    p = sub.add_parser("study", help="end-to-end comparative study")
    p.add_argument("--steps", type=int, default=100,
                   help="pre-training steps per architecture")

    p = sub.add_parser(
        "serve-bench", aliases=["serve"],
        parents=[
            _model_parent("tiny-llama",
                          "model preset to serve (default: tiny-llama)"),
            _workload_parent(64, 1000.0),
            _sessions_parent(turn_knobs=True),
            _cache_parent("enable the radix prefix cache (KV reuse "
                          "across requests sharing a prompt prefix)"),
            _artifact_parent(
                trace="export the request-lifecycle Chrome trace here",
                smoke="tiny run for CI (<= 24 requests, <= 4 sessions)",
                json_flag="write the serving result as a JSON artifact"),
            _overload_parent(),
        ],
        help="continuous-batching serving benchmark + Frontier "
             "extrapolation")
    p.add_argument("--policy", default="fcfs", choices=["fcfs", "spf"],
                   help="admission policy (default: fcfs)")
    p.add_argument("--temperature", type=float, default=0.0,
                   help="per-request sampling temperature (0 = greedy; "
                        "each request gets its own seeded rng)")
    p.add_argument("--spec-decode", default="none",
                   choices=["none", "ngram"],
                   help="speculative decoding draft source "
                        "(default: none)")
    p.add_argument("--spec-k", type=int, default=4,
                   help="tokens drafted per speculative step "
                        "(default: 4)")
    p.add_argument("--batch-size", type=int, default=8,
                   help="max concurrent requests in the decode batch")
    p.add_argument("--block-size", type=int, default=16,
                   help="KV-pool tokens per block (default: 16)")
    p.add_argument("--pool-blocks", type=int, default=64,
                   help="KV-pool size in blocks; 0 = size from GCD HBM")
    p.add_argument("--prefill-chunk", type=int, default=0,
                   help="chunked-prefill chunk size in tokens "
                        "(0 = monolithic prefill)")
    p.add_argument("--compare-cache", action="store_true",
                   help="also run with the cache disabled on the same "
                        "seed; asserts identical output tokens and "
                        "reports the TTFT delta")
    p.add_argument("--compare-sequential", action="store_true",
                   help="also run the one-request-at-a-time baseline")

    p = sub.add_parser(
        "perf-bench", aliases=["perf"],
        parents=[
            _model_parent("tiny-llama",
                          "model preset to run (default: tiny-llama)"),
            _artifact_parent(smoke="tiny sweep for CI (batch <= 8, "
                                   "k <= 4, 5 rounds)"),
        ],
        help="wall-clock benchmark: sequential vs batched decode, "
             "chunked vs monolithic prefill")
    p.add_argument("--batch-sizes", default="1,2,4,8",
                   help="comma-separated decode batch sizes to sweep")
    p.add_argument("--prompt", type=int, default=32,
                   help="prompt length per request in the decode sweep")
    p.add_argument("--tokens", type=int, default=16,
                   help="new tokens decoded per request (default: 16)")
    p.add_argument("--prefill-len", type=int, default=48,
                   help="prompt length for the prefill comparison")
    p.add_argument("--chunk", type=int, default=16,
                   help="chunk size for the chunked-prefill comparison")
    p.add_argument("--repeats", type=int, default=7,
                   help="timing rounds; each row alternates its two sides "
                        "once per round and reports medians (default: 7)")
    p.add_argument("--spec-decode", action="store_true",
                   help="also sweep n-gram speculative decoding (k x "
                        "temperature acceptance/speedup curves)")
    p.add_argument("--spec-k", default="2,4,8",
                   help="comma-separated speculation depths to sweep "
                        "(default: 2,4,8)")
    p.add_argument("--spec-temps", default="0,0.8",
                   help="comma-separated sampling temperatures for the "
                        "speculative sweep (default: 0,0.8)")
    p.add_argument("--spec-tokens", type=int, default=20,
                   help="new tokens per request in the speculative "
                        "sweep (default: 20)")
    p.add_argument("--output", "-o", default="BENCH_decode.json",
                   help="write results JSON here ('' disables)")
    p.add_argument("--baseline", default="", metavar="PATH",
                   help="committed results JSON to ratchet against; "
                        "exits 1 on regression past the threshold")
    p.add_argument("--regression-threshold", type=float, default=0.25,
                   help="allowed fractional slip vs the baseline "
                        "(default: 0.25)")

    p = sub.add_parser(
        "cluster-bench", aliases=["cluster"],
        parents=[
            _model_parent("llama-1.7b-hf-52k",
                          "model preset to simulate (timing-level, no "
                          "weights are instantiated)"),
            _workload_parent(200, 800.0, prompt_skew=0.15),
            _sessions_parent(),
            _cache_parent("enable the per-replica radix prefix cache "
                          "(timing-level KV reuse)"),
            _artifact_parent(
                trace="export the request-lifecycle Chrome trace here",
                smoke="tiny 2-node sweep for CI (<= 48 requests)",
                json_flag="write the sweep results as a JSON artifact"),
            _overload_parent(),
        ],
        help="multi-node serving cluster sweep with traced request "
             "lifecycles")
    p.add_argument("--nodes", default="4",
                   help="comma-separated node counts to sweep "
                        "(default: 4)")
    p.add_argument("--policy", default="all",
                   choices=["all", *_LB_CHOICES],
                   help="load-balancing policy, or 'all' to sweep")
    p.add_argument("--layout", default="8xTP1",
                   help="replica layout per node, e.g. 8xTP1, 1xTP8, or "
                        "2p6dxTP1 (disaggregated: 2 prefill + 6 decode)")
    p.add_argument("--max-outstanding", type=int, default=32,
                   help="per-replica admission backpressure cap")
    p.add_argument("--disagg", action="store_true",
                   help="sweep disaggregated prefill/decode ratios "
                        "against the colocated baseline and report the "
                        "transfer-cost crossover")
    p.add_argument("--disagg-ratios", default="1:3,1:1,3:1",
                   help="comma-separated prefill:decode ratios for "
                        "--disagg (default: 1:3,1:1,3:1)")
    p.add_argument("--granularity", default="layer",
                   choices=["layer", "cache"],
                   help="KV-transfer granularity: per-layer messages or "
                        "one whole-cache message (default: layer)")
    p.add_argument("--handoff", default="least-outstanding",
                   choices=list(_HANDOFF_CHOICES),
                   help="prefill->decode handoff policy for "
                        "disaggregated layouts")

    p = sub.add_parser(
        "fault-bench", aliases=["faults", "fault"],
        parents=[
            _model_parent("llama-1.7b-hf-52k",
                          "model preset to serve (timing-level)"),
            _workload_parent(200, 800.0, prompt_skew=0.15),
            _artifact_parent(
                trace="export the last faulted run's Chrome trace here",
                smoke="tiny sweeps for CI (<= 48 requests, <= 300 "
                      "steps)",
                json_flag="write sweep results as a JSON artifact"),
            _overload_parent(),
        ],
        help="seeded fault-injection sweeps: checkpoint-restart goodput "
             "(training) and failover availability (serving)")
    p.add_argument("--mode", default="both",
                   choices=["training", "serving", "both"],
                   help="which resilience sweep(s) to run (default: both)")
    # Training sweep: MTBF x checkpoint interval (Young-Daly).
    p.add_argument("--train-model", default="llama-1.7b-hf-52k",
                   help="model preset whose step time and checkpoint "
                        "size the training sweep prices")
    p.add_argument("--gpus", type=int, default=64,
                   help="GCDs the training job spans (scales the "
                        "aggregate failure rate)")
    p.add_argument("--steps", type=int, default=2000,
                   help="optimizer steps in the replayed run")
    p.add_argument("--optimizer", default="adam",
                   choices=["sgd", "adam", "lamb"],
                   help="optimizer whose state the checkpoint persists")
    p.add_argument("--train-mtbf", default="inf,4,1",
                   help="comma-separated per-GCD MTBF values in hours "
                        "('inf' disables faults)")
    # Serving sweep: MTBF x load-balancing policy under failover.  The
    # virtual horizon is seconds, so meaningful MTBFs are tiny in hours.
    p.add_argument("--nodes", type=int, default=2,
                   help="Frontier nodes in the serving cluster")
    p.add_argument("--layout", default="8xTP1",
                   help="replica layout per node, e.g. 8xTP1 or 1xTP8")
    p.add_argument("--policy", default="all",
                   choices=["all", *_LB_CHOICES],
                   help="load-balancing policy, or 'all' to sweep")
    p.add_argument("--max-outstanding", type=int, default=32,
                   help="per-replica admission backpressure cap")
    p.add_argument("--serve-mtbf", default="inf,0.001,0.0002",
                   help="comma-separated per-GCD MTBF values in hours; "
                        "the simulated horizon is seconds, so ~1e-4 to "
                        "1e-2 engages failover")
    p.add_argument("--detection", type=float, default=0.01,
                   help="health-check detection latency, seconds")
    p.add_argument("--recovery", type=float, default=0.5,
                   help="replica recovery time, seconds ('inf' via a "
                        "large value = fail-stop)")
    p.add_argument("--max-retries", type=int, default=3,
                   help="failover retries before a request is abandoned")
    p.add_argument("--slo", type=float, default=0.0,
                   help="TTFT SLO in seconds for availability "
                        "(0 = count bare completion)")

    p = sub.add_parser(
        "overload-bench", aliases=["overload"],
        parents=[
            _model_parent("llama-1.7b-hf-52k",
                          "model preset to serve (timing-level)"),
            _artifact_parent(
                trace="export the heaviest run's Chrome trace here "
                      "(shed/timeout/queue-depth lanes)",
                smoke="tiny sweep for CI (<= 48 requests per run)"),
        ],
        help="offered-load x shed-policy sweep: goodput, deadline "
             "attainment, and queue growth under overload")
    p.add_argument("--requests", type=int, default=200,
                   help="Poisson-arrival requests per run (default: 200)")
    p.add_argument("--nodes", type=int, default=1,
                   help="Frontier nodes in the serving cluster")
    p.add_argument("--layout", default="2xTP1",
                   help="replica layout per node, e.g. 2xTP1 or 8xTP1; "
                        "the small default keeps the fleet saturable so "
                        "the policy differences are visible")
    p.add_argument("--loads", default="0.5,1.0,1.5,2.0",
                   help="comma-separated offered loads as multiples of "
                        "the estimated saturation rate")
    p.add_argument("--policies",
                   default="none,bounded-queue,deadline-estimate,priority",
                   help="comma-separated shed policies to sweep")
    p.add_argument("--deadline", type=float, default=0.0,
                   help="per-request deadline in seconds (0 = 10x the "
                        "mean service time)")
    p.add_argument("--max-queue-depth", type=int, default=16,
                   help="queue cap for bounded-queue / priority "
                        "(default: 16)")
    p.add_argument("--max-outstanding", type=int, default=4,
                   help="per-replica admission backpressure cap; kept "
                        "low so overload queues at the router "
                        "(default: 4)")
    p.add_argument("--breaker", action="store_true",
                   help="enable the per-replica circuit breaker")
    p.add_argument("--output", "-o", default="BENCH_overload.json",
                   help="write the sweep JSON here ('' disables)")

    p = sub.add_parser(
        "lint",
        help="domain-specific static analysis (rule catalog: "
             "docs/ANALYSIS.md)")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--format", default="text", choices=["text", "json"],
                   help="report format (default: text)")
    p.add_argument("--rules", default="",
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--baseline", default="",
                   help="baseline JSON; matching findings don't fail")
    p.add_argument("--write-baseline", default="", metavar="PATH",
                   help="write current findings as the baseline and exit")
    p.add_argument("--output", default="",
                   help="also write the report to this file (CI artifact)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--changed", nargs="?", const="HEAD", default=None,
                   metavar="REF",
                   help="lint only files modified vs a git ref (default "
                        "HEAD); the whole tree is still indexed so "
                        "project rules keep their evidence")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the content-hash AST/result cache")
    return parser


_COMMANDS = {
    "observations": _cmd_observations,
    "reproduce": _cmd_reproduce,
    "report": _cmd_report,
    "heatmap": _cmd_heatmap,
    "scaling": _cmd_scaling,
    "recommend": _cmd_recommend,
    "study": _cmd_study,
    "serve-bench": _cmd_serve_bench,
    "serve": _cmd_serve_bench,  # alias, kept so README shorthand works
    "perf-bench": _cmd_perf_bench,
    "perf": _cmd_perf_bench,  # alias, same convention as serve
    "cluster-bench": _cmd_cluster_bench,
    "cluster": _cmd_cluster_bench,  # alias, same convention as serve
    "fault-bench": _cmd_fault_bench,
    "faults": _cmd_fault_bench,  # alias, same convention as serve
    "fault": _cmd_fault_bench,  # bare-prefix alias, like serve/cluster
    "overload-bench": _cmd_overload_bench,
    "overload": _cmd_overload_bench,  # alias, same convention as serve
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
