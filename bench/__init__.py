"""Repository benchmark: five serving workloads, end to end and per layer.

See ``bench/README.md`` for the metric and workload catalog and
``BENCHMARK.json`` at the repository root for units, directions and
regression bounds.
"""
