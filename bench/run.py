"""Run the repository benchmark, one fresh worker process per workload.

One workload (the form ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload engine-decode --seed 0 --seconds 8 \\
        --trace 0

Every workload, one after another, results saved for ``bench/compare.py``::

    python3 bench/run.py --seed 0 --out R.json [--trace 1]

Each worker runs with ``OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=
MKL_NUM_THREADS=1`` and the repository's ``src`` on ``PYTHONPATH``, so
only one busy process runs at a time.  The last line printed is the JSON
result; the exit code is non-zero when a check fails or a worker does
not finish.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: A worker that has not finished by then is killed (the run fails).
WORKER_TIMEOUT_S = 170.0

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in _THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return env


def run_worker(workload: str, seed: int, seconds: float,
               trace: int) -> dict | None:
    """Run one workload in a fresh interpreter; returns its result line.

    The worker's report is echoed; ``None`` means it crashed or timed
    out without a result.
    """
    cmd = [sys.executable, "-m", "bench.worker", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--spawned-at", repr(time.perf_counter())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"bench: {workload} did not finish in {WORKER_TIMEOUT_S:.0f} s",
              file=sys.stderr)
        return None
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        print(f"bench: {workload} exited with code {proc.returncode} "
              f"and no result", file=sys.stderr)
        return None
    sys.stdout.write("".join(f"{line}\n" for line in lines[:-1]))
    return result


def main(argv=None) -> int:
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in catalog["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=catalog["run_seconds"],
                        help="measured run length the workload sizes are "
                             "scaled to (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        nargs="?", const=1,
                        help="1 = also run traced and report per-layer "
                             "metrics")
    parser.add_argument("--out", type=Path,
                        help="write the results as JSON for compare.py")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    results = {}
    for name in [args.workload] if args.workload else names:
        result = run_worker(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "results": results}, indent=1))
    if args.workload:
        line = results[args.workload]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()}}
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
