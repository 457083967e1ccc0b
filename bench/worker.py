"""Run one benchmark workload in this process and print its result.

``bench/run.py`` starts this module in a fresh interpreter per workload
(``python -m bench.worker``), with one BLAS thread, so a run measures
one busy process.  An untraced run sets up and serves the workload
``Workload.reps`` times, each time on its own sub-seed with that share
of the requests: ``setup_s`` is the import time plus the median set-up,
the host rates are the median over the timed ``run()`` calls, and the
modelled (virtual-clock) metrics pool the requests of all of them.
Outputs are checked untimed after each ``run()``.  With ``--trace 1``
the first repetition is served again under the :mod:`bench.trace`
wrappers, and the per-layer metrics are reported instead of the
end-to-end ones.

Each timed ``run()`` starts from a collected heap with the set-up
objects frozen (``gc.freeze``), so a cyclic-GC pass during the run does
not rescan what set-up built; otherwise whether one more full
collection lands inside the run swings its time by a large step.

The last line printed is the JSON result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Completed greedy requests re-generated with ``GPTModel.generate``,
#: spread over the repetitions of a run.
REFERENCE_CHECKS = 16


def load_catalog() -> dict:
    """``BENCHMARK.json``: workloads, metric units, run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- what the served runs show --------------------------------------------------
def rep_stats(result, workload, submitted: int, wall_s: float) -> dict:
    """What one served ``run()`` contributes to the run's metrics."""
    records = result.records
    return {
        "ttft": [r.ttft * 1e3 for r in records],
        "tpot": [r.tpot * 1e3 for r in records if r.output_len > 1],
        "within": sum(1 for r in records
                      if r.ttft * 1e3 <= workload.ttft_limit_ms
                      and r.tpot * 1e3 <= workload.tpot_limit_ms),
        "tokens": sum(r.output_len for r in records),
        "wall_s": wall_s,
        "counts": {
            "submitted": submitted,
            "completed": len(records),
            "shed": len(result.shed_records),
            "timed_out": len(result.timeout_records),
            "abandoned": len(getattr(result, "failed_records", ())),
        },
    }


def pool(served: list[dict]) -> dict:
    """Counts, host rates and modelled metrics over repetitions.

    Host rates (wall clock) are medians over the ``run()`` calls; the
    modelled numbers (virtual clock, deterministic per seed) pool every
    request of every repetition.
    """
    counts = {k: sum(r["counts"][k] for r in served)
              for k in served[0]["counts"]}
    ttft = np.concatenate([r["ttft"] for r in served])
    tpot = np.concatenate([r["tpot"] for r in served])
    submitted = counts["submitted"]
    modelled = {
        "slo_frac": sum(r["within"] for r in served) / submitted,
        "completed_frac": counts["completed"] / submitted,
        "modelled.ttft_p50_ms": float(np.percentile(ttft, 50)),
        "modelled.ttft_p99_ms": float(np.percentile(ttft, 99)),
        "modelled.tpot_p50_ms": float(np.percentile(tpot, 50)),
        "modelled.tpot_p99_ms": float(np.percentile(tpot, 99)),
    }
    host = {
        "host_req_per_s": statistics.median(
            r["counts"]["submitted"] / r["wall_s"] for r in served),
        "host_tok_per_s": statistics.median(
            r["tokens"] / r["wall_s"] for r in served),
    }
    return {"counts": counts, "modelled": modelled, "host": host,
            "samples": {"ttft": int(ttft.size), "tpot": int(tpot.size)}}


# -- correctness checks (untimed) -----------------------------------------------
def check_run(built, result, budgets: dict[int, int], seed: int,
              references: int) -> tuple[list[tuple[str, bool, str]], int]:
    """Accounting, output and reference checks; returns (checks, failed).

    ``references`` completed greedy requests (seeded choice) are decoded
    again with ``GPTModel.generate`` and must match bit for bit.

    ``failed`` counts requests the checks found wrong: unaccounted for,
    a wrong output, or a mismatch against the reference decode.
    """
    checks = []
    ids = [r.request_id for r in result.records] \
        + [r.request_id for r in result.shed_records] \
        + [r.request_id for r in result.timeout_records] \
        + [r.request_id for r in getattr(result, "failed_records", ())]
    unaccounted = len(set(budgets) ^ set(ids)) + len(ids) - len(set(ids))
    checks.append(("accounting", unaccounted == 0,
                   f"completed+shed+timed_out+abandoned={len(ids)} "
                   f"submitted={len(budgets)}"))

    engine = built.workload.engine
    if engine:
        vocab = built.model_config.vocab_size
        bad = [rid for rid, out in result.outputs.items()
               if len(out) != budgets[rid] or out.min() < 0
               or out.max() >= vocab]
    else:
        bad = [r.request_id for r in result.records
               if r.output_len != budgets[r.request_id]]
    checks.append(("outputs", not bad,
                   f"{len(result.records) - len(bad)}/{len(result.records)} "
                   f"completed outputs have max_new_tokens tokens"
                   + (" in the vocabulary" if engine else "")))
    if not engine:
        return checks, unaccounted + len(bad)

    by_id = {r.request_id: r for r in built.requests}
    greedy = sorted(rid for rid in result.outputs
                    if by_id[rid].temperature == 0.0)
    picked = np.random.default_rng((seed, 3)).choice(
        greedy, size=min(references, len(greedy)), replace=False)
    mismatched = 0
    for rid in map(int, picked):
        req = by_id[rid]
        ref = built.model.generate(req.prompt, req.max_new_tokens,
                                   use_cache=True)[req.prompt_len:]
        mismatched += not np.array_equal(ref, result.outputs[rid])
    checks.append(("reference", mismatched == 0,
                   f"{len(picked) - mismatched}/{len(picked)} greedy outputs "
                   f"equal GPTModel.generate(use_cache=True)"))
    return checks, unaccounted + len(bad) + mismatched


def bypass_checks(name: str, layer: dict) -> list[tuple[str, bool, str]]:
    """Each workload loads the layers it claims and skips the others."""
    def calls(prefix: str) -> float:
        return sum(v for k, v in layer.items()
                   if k.startswith(prefix) and k.endswith(".calls"))
    if name == "engine-decode":
        n = calls("prefix_cache.") + calls("spec.") + calls("transfer")
        return [("bypass", n == 0,
                 f"prefix_cache/spec/transfer calls = {n:.0f}")]
    if name == "cluster-fleet":
        n = calls("models.")
        faults = layer["faults.failures"] + layer["faults.stragglers"]
        xfers = layer["transfer.count"]
        return [("bypass", n == 0 and faults == 0 and xfers == 0,
                 f"models calls = {n:.0f}, fault events = {faults:.0f}, "
                 f"transfers = {xfers:.0f}")]
    if name == "engine-prefix":
        evicted = layer["prefix_cache.evicted_blocks"]
        return [("bypass", evicted > 0,
                 f"prefix_cache.evicted_blocks = {evicted:.0f}")]
    return []


def result_metrics(built, result) -> dict[str, float]:
    """Per-layer numbers the served result already carries."""
    m = result.metrics
    system = built.system
    if built.workload.engine:
        caches = [system.prefix_cache] \
            if system.prefix_cache is not None else []
    else:
        caches = [r.prefix_cache for r in system.replicas
                  if r.prefix_cache is not None]
    lookup = sum(c.stats.lookup_tokens for c in caches)
    hit = sum(c.stats.hit_tokens for c in caches)
    kinds = [e["kind"] for e in getattr(result, "fault_events", ())]
    return {
        "scheduler.batch_mean": m.mean_batch_size,
        "scheduler.preemptions": m.preemptions,
        "kv_pool.peak_util": m.peak_pool_utilization,
        "prefix_cache.token_hit_rate": hit / lookup if lookup else 0.0,
        "prefix_cache.evicted_blocks": m.cache_evicted_blocks,
        "cluster.max_queue_depth": getattr(result, "max_queue_depth", 0),
        "transfer.count": getattr(result, "transfers", 0),
        "transfer.requeues": getattr(result, "transfer_requeues", 0),
        "faults.failures": kinds.count("failure"),
        "faults.stragglers": kinds.count("straggler"),
        "faults.retries": getattr(result, "retries_total", 0),
        "faults.breaker_trips": getattr(result, "breaker_trips", 0),
        "faults.abandoned": len(getattr(result, "failed_records", ())),
    }


# -- one workload ----------------------------------------------------------------
def _serve(built):
    """One timed ``run()`` call; returns (result, budgets, wall seconds)."""
    budgets = {r.request_id: r.max_new_tokens for r in built.requests}
    gc.freeze()
    try:
        start = time.perf_counter()
        result = built.system.run(built.requests)
        wall = time.perf_counter() - start
    finally:
        gc.unfreeze()
    return result, budgets, wall


def _rep(workloads, name: str, seed: int, scale: float, references: int):
    """Set up, serve and check one repetition; returns its stats."""
    gc.collect()  # frees the previous repetition's system
    built = workloads.build(name, seed, scale, time.perf_counter)
    result, budgets, wall = _serve(built)
    stats = rep_stats(result, built.workload, len(budgets), wall)
    stats["phases"] = built.phases
    stats["checks"], stats["failed"] = check_run(
        built, result, budgets, seed, references)
    return stats


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 started: float, out_dir: Path) -> dict:
    """Run one workload; returns its metrics, counts and checks.

    ``started`` is the ``perf_counter()`` instant the process was
    spawned, so ``setup_s`` includes interpreter start and imports.
    """
    from bench import workloads  # imports repro: part of set-up time
    import_s = time.perf_counter() - started
    catalog = load_catalog()
    reps = workloads.WORKLOADS[name].reps
    scale = seconds / catalog["run_seconds"] / reps
    seeds = [workloads.sub_seed(seed, 100 + rep) for rep in range(reps)]
    if trace:
        seeds = seeds[:1]
    references = -(-REFERENCE_CHECKS // len(seeds))
    served = [_rep(workloads, name, rep_seed, scale, references)
              for rep_seed in seeds]
    summary = pool(served)
    e2e = {
        "setup_s": import_s + statistics.median(
            sum(r["phases"].values()) for r in served),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **summary["host"], **summary["modelled"]}
    out = {"workload": name, "seed": seed, "trace": trace,
           "counts": summary["counts"], "samples": summary["samples"],
           "e2e": e2e, "checks": [c for r in served for c in r["checks"]],
           "failed": sum(r["failed"] for r in served), "metrics": e2e}
    if not trace:
        return out

    from bench.trace import Tracer, span_metrics
    gc.collect()
    tracer = Tracer(name)
    tracer.install()
    try:
        with tracer.span("setup"):
            built = workloads.build(name, seeds[0], scale,
                                    time.perf_counter)
        result, budgets, traced_wall = _serve(built)
    finally:
        tracer.uninstall()
    traced = pool([rep_stats(result, built.workload, len(budgets),
                             traced_wall)])
    out["checks"].append((
        "traced-modelled", traced["modelled"] == summary["modelled"]
        and traced["counts"] == summary["counts"],
        "modelled metrics identical traced vs untraced"))
    layer = span_metrics(tracer)
    layer.update(result_metrics(built, result))
    layer.update({k: v for k, v in summary["modelled"].items()
                  if k.startswith("modelled.")})
    layer.update({
        "setup.import_s": import_s,
        "setup.model_s": built.phases["model"],
        "setup.build_s": built.phases["build"],
        "setup.workload_s": built.phases["workload"],
        "trace.overhead_frac": traced_wall / served[0]["wall_s"] - 1.0,
    })
    out["checks"].extend(bypass_checks(name, layer))
    out["metrics"] = layer
    out["trace_file"] = str(tracer.write_chrome_trace(
        out_dir / f"{name}-seed{seed}.trace.json"))
    return out


def result_line(out: dict, units: dict[str, str]) -> dict:
    """The result line: exactly correct / attempted / failed / metrics."""
    missing = sorted(set(units) - set(out["metrics"]))
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    return {
        "correct": all(ok for _, ok, _ in out["checks"]),
        "attempted": out["counts"]["submitted"],
        "failed": out["failed"],
        "metrics": {k: {"value": float(out["metrics"][k]), "unit": unit}
                    for k, unit in units.items()},
    }


def print_report(out: dict, catalog: dict) -> None:
    c = out["counts"]
    print(f"== {out['workload']} seed={out['seed']} "
          f"trace={int(out['trace'])}")
    print(f"requests: submitted {c['submitted']}  completed {c['completed']}"
          f"  shed {c['shed']}  timed out {c['timed_out']}  abandoned "
          f"{c['abandoned']}")
    rows = [(m["name"], m["unit"], "") for m in catalog["end_to_end"]]
    rows += [(f"modelled.{k}_{q}_ms", "ms", f"  (n={out['samples'][k]})")
             for k in ("ttft", "tpot") for q in ("p50", "p99")]
    for name, unit, note in rows:
        print(f"  {name:<22} {out['e2e'][name]:>14.6g} {unit}{note}")
    if out["trace"]:
        print("per-layer (traced run):")
        for m in catalog["per_layer"]:
            print(f"  {m['name']:<36} {out['metrics'][m['name']]:>14.6g} "
                  f"{m['unit']}")
        print(f"chrome trace: {out['trace_file']}")
    for check, ok, detail in out["checks"]:
        print(f"check {check:<16} {'ok' if ok else 'FAILED'}  {detail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=_START,
                        help="perf_counter() of the parent at spawn")
    args = parser.parse_args(argv)
    catalog = load_catalog()
    out = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.spawned_at,
                       ROOT / "bench" / "out")
    kind = "per_layer" if args.trace else "end_to_end"
    line = result_line(out, {m["name"]: m["unit"] for m in catalog[kind]})
    print_report(out, catalog)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
