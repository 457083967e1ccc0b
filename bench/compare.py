"""Compare two sets of benchmark results against the ``BENCHMARK.json`` bounds.

    python3 bench/compare.py --base A1.json A2.json A3.json \\
        --new B1.json B2.json B3.json

Each file is a ``bench/run.py --out`` result.  For every (workload,
metric) pair the table shows each side's median and quartiles, the
change of the medians, and a verdict:

``same``        both sides read exactly the same values (the modelled,
                virtual-clock metrics of unchanged code on the same seeds);
``ok``          the new median is within the metric's bound of the base;
``better`` /    the new median moved beyond the bound, in the metric's
``worse``       good / bad direction;
``unresolved``  either side's run-to-run spread (quartile distance over
                median) is wider than the bound, and not every new run
                reads better than every base run.

Per-layer metrics have no bound; they get ``same`` or ``-``.  The exit
code is 1 when any pair is ``worse`` or ``unresolved``.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[Path]) -> dict[tuple[str, str], list[float]]:
    """Values per (workload, metric) across result files."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        for workload, result in json.loads(path.read_text())[
                "results"].items():
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(
                    entry["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base: list[float], new: list[float], better: str,
            bound: float | None) -> tuple[str, float]:
    """(verdict, signed relative change of the medians)."""
    b_med, n_med = statistics.median(base), statistics.median(new)
    change = (n_med - b_med) / abs(b_med) if b_med else 0.0
    if sorted(base) == sorted(new):
        return "same", change
    if bound is None:
        return "-", change
    sign = 1.0 if better == "higher" else -1.0
    if max(spread(base), spread(new)) > bound:
        all_better = min(sign * v for v in new) > max(sign * v for v in base)
        return ("better" if all_better else "unresolved"), change
    if sign * change < -bound:
        return "worse", change
    if sign * change > bound:
        return "better", change
    return "ok", change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--new", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in
               catalog["end_to_end"] + catalog["per_layer"]}
    base, new = load(args.base), load(args.new)
    verdicts = []
    print(f"{'workload':<14} {'metric':<36} {'base q1/med/q3':>32} "
          f"{'new q1/med/q3':>32} {'change':>8}  verdict")
    for workload in [w["name"] for w in catalog["workloads"]]:
        for name, meta in metrics.items():
            key = (workload, name)
            if key not in base or key not in new:
                continue
            v, change = verdict(base[key], new[key], meta["better"],
                                meta.get("bound"))
            verdicts.append(v)
            cols = ["/".join(f"{x:.4g}" for x in quartiles(side[key]))
                    for side in (base, new)]
            print(f"{workload:<14} {name:<36} {cols[0]:>32} {cols[1]:>32} "
                  f"{change:>+8.2%}  {v}")
    bad = sum(v in ("worse", "unresolved") for v in verdicts)
    print(f"{len(verdicts)} pairs: {bad} worse or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
