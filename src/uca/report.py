"""Decision-support report built from store contents.

Every number in the bundle is recomputed from raw store rows at build time;
nothing is cached between invocations, so re-running a report over the same
store is byte-identical. Rounding to two decimals happens here, at the
output boundary.

It is built from the plain tuples of the store's row queries, with no per-run
record objects; ``ReportBundle.runs`` holds one ``(node, tool, iteration,
normalized_score)`` tuple per audit run, in the store's run order, and
``ReportBundle.runtime`` one ``(tool, average, total, count)`` per tool.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from pathlib import Path

from . import stats
from .errors import DegenerateSampleError, EmptyStoreError
from .repository import Store, csv_score, write_csv
from .scoring import Tool

__all__ = [
    "ReportBundle",
    "build_report",
    "render_text",
    "render_json",
    "bundle_to_dict",
    "write_csv_tables",
    "write_plot_data",
]

SCORE_METRICS = ("lynis", "openscap", "aide", "custom", "standard_uca", "extended_uca")
RULE_COLUMNS = ("node", "passed", "failed", "score_pct")


@dataclass
class ReportBundle:
    nodes: list[str]
    # metric -> node -> mean (None when no data)
    score_table: dict[str, dict[str, float | None]]
    rule_table: list[dict]
    # (tool, average, total, count) of runtime seconds per tool, and their total
    runtime: list[tuple[str, float, float, int]]
    runtime_total: float
    node_low: str | None
    node_high: str | None
    # (node, tool, iteration, normalized_score) per audit run, in store order,
    # for the score progression plot
    runs: list[tuple[str, str, int, float]]
    # (tool, node_high - node_low test) per tool with a defined t statistic
    significance: list[tuple[str, stats.TestResult]] = field(default_factory=list)


def build_report(store: Store) -> ReportBundle:
    """Recompute the four report tables from one read of each store table."""
    runs = store.score_rows()
    if not runs:
        raise EmptyStoreError("no audit runs recorded; ingest or generate a corpus first")

    # (metric, node) -> values in store order: tool scores by iteration, then
    # the aggregate columns by iteration
    samples = {(tool, node): [row[3] for row in group]
               for (node, tool), group in groupby(runs, itemgetter(0, 1))}
    for node, *values in store.aggregate_rows():
        for metric, value in zip(("custom", "standard_uca", "extended_uca"), values):
            if value is not None:
                samples.setdefault((metric, node), []).append(value)

    def mean(metric: str, node: str) -> float | None:
        # stats.describe's mean: fsum rounds once, so input order cannot matter
        values = samples.get((metric, node))
        return math.fsum(values) / len(values) if values else None

    # Column order: weakest to strongest by mean standard score, so the
    # significance comparison (first vs last column) reads naturally.
    standard = {n: mean("standard_uca", n) for n in {row[0] for row in runs}}
    nodes = sorted(standard, key=lambda n: (standard[n] is None, standard[n] or 0.0, n))
    score_table = {m: {n: mean(m, n) for n in nodes} for m in SCORE_METRICS}

    tallies = {row[0]: row for row in store.rule_tallies()}
    rule_table = [dict(zip(RULE_COLUMNS, tallies[n])) for n in nodes if n in tallies]

    node_low = node_high = None
    significance: list[tuple[str, stats.TestResult]] = []
    ranked = [n for n in nodes if standard[n] is not None]
    if len(ranked) >= 2:
        node_low, node_high = ranked[0], ranked[-1]
        for tool in Tool:
            low_scores = samples.get((tool.value, node_low), [])
            high_scores = samples.get((tool.value, node_high), [])
            if len(low_scores) < 2 or len(high_scores) < 2:
                continue
            try:
                significance.append((tool.value, stats.pooled_t_test(low_scores, high_scores)))
            except DegenerateSampleError:
                continue

    runtime = store.summarize_runtime()
    return ReportBundle(
        nodes=nodes,
        score_table=score_table,
        rule_table=rule_table,
        runtime=runtime,
        runtime_total=sum(row[2] for row in runtime),
        node_low=node_low,
        node_high=node_high,
        runs=runs,
        significance=significance,
    )


def _fmt(value: float | None, width: int = 10) -> str:
    if value is None:
        return "-".rjust(width)
    return f"{value:.2f}".rjust(width)


def _fmt_p(p: float) -> str:
    return "<0.001" if p < 0.001 else f"{p:.3f}"


def render_text(bundle: ReportBundle) -> str:
    lines: list[str] = []
    lines.append("Average security scores by node")
    header = "  " + "metric".ljust(14) + "".join(n.rjust(12) for n in bundle.nodes)
    lines.append(header)
    for metric in SCORE_METRICS:
        row = "  " + metric.ljust(14)
        row += "".join(_fmt(bundle.score_table[metric].get(n), 12) for n in bundle.nodes)
        lines.append(row)
    lines.append("")

    lines.append("Custom rule results by node")
    lines.append("  " + "node".ljust(14) + "passed".rjust(8) + "failed".rjust(8) + "score%".rjust(10))
    if bundle.rule_table:
        for row in bundle.rule_table:
            lines.append(
                "  " + str(row["node"]).ljust(14)
                + str(row["passed"]).rjust(8) + str(row["failed"]).rjust(8)
                + _fmt(row["score_pct"])
            )
    else:
        lines.append("  (no rule results recorded)")
    lines.append("")

    lines.append("Tool runtime overhead")
    lines.append("  " + "tool".ljust(14) + "avg_s".rjust(10) + "total_s".rjust(12) + "runs".rjust(6))
    for tool, average, total, count in bundle.runtime:
        lines.append(
            "  " + tool.ljust(14) + _fmt(average)
            + _fmt(total, 12) + str(count).rjust(6)
        )
    lines.append("  " + "total".ljust(14) + "".rjust(10) + _fmt(bundle.runtime_total, 12))
    lines.append("")

    if bundle.significance:
        lines.append(f"Statistical significance ({bundle.node_low} vs {bundle.node_high})")
        lines.append(
            "  " + "tool".ljust(14) + "diff".rjust(8) + "t".rjust(8)
            + "df".rjust(6) + "p".rjust(8) + "d".rjust(8)
        )
        for tool, row in bundle.significance:
            lines.append(
                "  " + tool.ljust(14)
                + f"{row.mean_diff:+.2f}".rjust(8)
                + f"{row.t:.2f}".rjust(8)
                + f"{row.df:.0f}".rjust(6)
                + _fmt_p(row.p_two_tailed).rjust(8)
                + f"{row.d:.2f}".rjust(8)
            )
    else:
        lines.append("Statistical significance: needs two nodes with repeated runs")
    lines.append("")
    return "\n".join(lines)


def _round(value: float | None, digits: int = 2) -> float | None:
    return None if value is None else round(value, digits)


def bundle_to_dict(bundle: ReportBundle) -> dict:
    return {
        "nodes": list(bundle.nodes),
        "scores": {
            metric: {node: _round(v) for node, v in per_node.items()}
            for metric, per_node in bundle.score_table.items()
        },
        "custom_rules": [
            {
                "node": row["node"],
                "passed": row["passed"],
                "failed": row["failed"],
                "score_pct": _round(row["score_pct"]),
            }
            for row in bundle.rule_table
        ],
        "runtime": {
            "per_tool": {
                tool: {
                    "average_seconds": _round(average),
                    "total_seconds": _round(total),
                    "runs": count,
                }
                for tool, average, total, count in bundle.runtime
            },
            "grand_total_seconds": _round(bundle.runtime_total),
        },
        "significance": {
            "node_low": bundle.node_low,
            "node_high": bundle.node_high,
            "rows": [
                {
                    "tool": tool,
                    "mean_diff": _round(row.mean_diff),
                    "t": _round(row.t, 4),
                    "df": row.df,
                    "p_two_tailed": _round(row.p_two_tailed, 6),
                    "cohens_d": _round(row.d, 4),
                }
                for tool, row in bundle.significance
            ],
        },
    }


def render_json(bundle: ReportBundle) -> str:
    return json.dumps(bundle_to_dict(bundle), indent=2) + "\n"


def _csv_files(bundle: ReportBundle) -> dict[str, tuple[list[str], Iterable]]:
    """All nine report CSV files: file name -> (header, formatted rows).

    The ``table_`` files are the four report tables; each ``plot_`` file
    repeats or slices them, except the per-run score progression, whose rows
    are a generator so that a call writing only the tables does not format them.
    """
    cells = {m: [csv_score(bundle.score_table[m].get(n)) for n in bundle.nodes]
             for m in SCORE_METRICS}

    def by_node(*metrics: str) -> list:
        return list(zip(bundle.nodes, *(cells[m] for m in metrics)))

    rules_header = list(RULE_COLUMNS)
    rules = [[r["node"], r["passed"], r["failed"], csv_score(r["score_pct"])]
             for r in bundle.rule_table]
    runtime_header = ["tool", "avg_runtime_seconds", "total_runtime_seconds", "runs"]
    runtime = [[tool, f"{average:.2f}", f"{total:.2f}", count]
               for tool, average, total, count in bundle.runtime]
    return {
        "table_scores.csv": (["metric", *bundle.nodes],
                             [[m, *cells[m]] for m in SCORE_METRICS]),
        "table_custom_rules.csv": (rules_header, rules),
        "table_runtime.csv": (runtime_header, runtime + [
            ["total", "", f"{bundle.runtime_total:.2f}", ""]]),
        "table_significance.csv": (
            ["tool", "node_low", "node_high", "mean_diff", "t", "df", "p_two_tailed",
             "cohens_d"],
            [[tool, bundle.node_low, bundle.node_high, f"{row.mean_diff:.2f}",
              f"{row.t:.4f}", f"{row.df:g}", f"{row.p_two_tailed:.6f}", f"{row.d:.4f}"]
             for tool, row in bundle.significance],
        ),
        "plot_scores_by_node.csv": (["node", "lynis", "openscap", "aide"],
                                    by_node("lynis", "openscap", "aide")),
        "plot_score_progression.csv": (
            ["node", "tool", "iteration", "normalized_score"],
            ([node, tool, iteration, f"{score:.2f}"]
             for node, tool, iteration, score in bundle.runs),
        ),
        "plot_uca_comparison.csv": (["node", "standard_uca", "extended_uca"],
                                    by_node("standard_uca", "extended_uca")),
        "plot_custom_rules.csv": (rules_header, rules),
        "plot_runtime.csv": (runtime_header, runtime),
    }


def _write_csv_files(bundle: ReportBundle, out_dir: Path, prefix: str) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, (header, rows) in _csv_files(bundle).items():
        if name.startswith(prefix):
            write_csv(out_dir / name, header, rows)
            written.append(out_dir / name)
    return written


def write_csv_tables(bundle: ReportBundle, out_dir: Path) -> list[Path]:
    """The four report tables as CSV files."""
    return _write_csv_files(bundle, out_dir, "table_")


def write_plot_data(bundle: ReportBundle, out_dir: Path) -> list[Path]:
    """Plot-data CSVs, one per report figure."""
    return _write_csv_files(bundle, out_dir, "plot_")
