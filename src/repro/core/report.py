"""Reproduction-report generation.

``build_report`` renders the paper's Observations, then one table per
registered artifact listing each claim with its reproduced value, the
paper's value and the verdict.  It covers the light entries, and
``include_heavy`` adds the training-backed ones.  Exposed on the CLI as
``python -m repro report``; ``python -m repro reproduce`` prints one
artifact's table through the same :func:`claims_table`.
"""

from __future__ import annotations

from pathlib import Path

from .experiments import ExperimentContext, reproduce_all
from .observations import check_all

__all__ = ["build_report", "claims_table", "write_report"]


def _fmt(value) -> str:
    if value is None:
        return "—"
    if isinstance(value, tuple):
        return " / ".join(_fmt(v) for v in value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}" if abs(value) >= 10_000 else str(value)
    return f"{value:.4g}"


def _md_table(headers: list[str], rows: list[list[str]]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    out += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(out)


def _verdict(holds: bool) -> str:
    return "HOLDS" if holds else "VIOLATED"


def claims_table(claims) -> str:
    """One artifact's claims as a claim/ours/paper/verdict table."""
    return _md_table(["claim", "ours", "paper", "verdict"],
                     [[c.name, _fmt(c.ours), _fmt(c.paper),
                       _verdict(c.holds)] for c in claims])


def build_report(context: ExperimentContext | None = None,
                 include_heavy: bool = False) -> str:
    """Render the reproduction report as markdown text."""
    lines: list[str] = [
        "# Reproduction report",
        "",
        "Auto-generated by `python -m repro report` from the experiment",
        "registry; every number below is deterministic in the seed.",
        "Training-backed entries appear with `--heavy`.",
        "",
        "## Observations",
        "",
        _md_table(["#", "statement", "verdict"],
                  [[str(c.number), c.statement, _verdict(c.holds)]
                   for c in check_all()]),
    ]
    results = reproduce_all(context, include_heavy=include_heavy)
    for exp_id, result in results.items():
        lines += ["", f"## `{exp_id}` — {result.title}", "",
                  claims_table(result.claims)]
    lines.append("")
    return "\n".join(lines)


def write_report(path: str | Path = "REPORT.md",
                 context: ExperimentContext | None = None,
                 include_heavy: bool = False) -> Path:
    """Write the markdown report to disk; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(build_report(context, include_heavy=include_heavy))
    return path
