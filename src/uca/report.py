"""Decision-support report built from store contents.

The per-node numbers (the six means and the rule tally) are read from the
store's ``node_summary`` table, one row per node, which the store keeps equal
to their derivation from the rows: a change to a node's rows deletes its
summary, the writing transaction derives it again before it commits, and a
summary still missing at the read is derived then (see ``uca.repository``).
So a report equals one recomputed from the rows, and re-running it over the
same store is byte-identical; only its cost no longer follows the run count.
The runtimes and the two t-test nodes' scores are read from the rows at build
time. Rounding happens at the output boundary: each rounded JSON number goes
through ``round_score``, each two-decimal CSV cell through ``csv_score``, and
the four text tables share one layout. The JSON text is ``jsondoc.dumps`` of
``bundle_to_dict``: the bytes of ``json.dumps(indent=2)``, from the C encoder.

It is built from the plain tuples of the store's queries, with no per-run
record objects, and holds no per-run rows: the two t-test nodes' scores come
from one query once the nodes are ranked, so its memory follows the node
count, not the run count.
``ReportBundle.runtime`` holds one ``(tool, average, total, count)`` per tool.
The per-run score progression plot is written from rows its caller passes,
read from the store as the file is written.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from pathlib import Path

from . import stats
from .errors import DegenerateSampleError, EmptySampleError, EmptyStoreError
from .jsondoc import dumps
from .repository import SUMMARY_COLUMNS, Store, replace_together, write_csv
from .scoring import Tool

__all__ = [
    "ReportBundle",
    "build_report",
    "render_text",
    "render_json",
    "bundle_to_dict",
    "format_p",
    "node_summaries",
    "round_score",
    "round_t_test",
    "tool_samples",
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
    # (tool, node_high - node_low test) per tool with a defined t statistic
    significance: list[tuple[str, stats.TestResult]] = field(default_factory=list)

    @cached_property
    def csv_files(self) -> dict[str, tuple[list[str], list]]:
        """The report CSV files built from the bundle, once for both of their
        writers: file name -> (header, formatted rows).

        The ``table_`` files are the four report tables; each ``plot_`` file
        repeats or slices them. The per-run score progression is not among them:
        ``write_plot_data`` writes it from the rows it is passed.
        """
        cells = {m: [csv_score(self.score_table[m].get(n)) for n in self.nodes]
                 for m in SCORE_METRICS}

        def by_node(*metrics: str) -> list:
            return list(zip(self.nodes, *(cells[m] for m in metrics)))

        rules_header = list(RULE_COLUMNS)
        rules = [[r["node"], r["passed"], r["failed"], csv_score(r["score_pct"])]
                 for r in self.rule_table]
        runtime_header = ["tool", "avg_runtime_seconds", "total_runtime_seconds", "runs"]
        runtime = [[tool, csv_score(average), csv_score(total), count]
                   for tool, average, total, count in self.runtime]
        return {
            "table_scores.csv": (["metric", *self.nodes],
                                 [[m, *cells[m]] for m in SCORE_METRICS]),
            "table_custom_rules.csv": (rules_header, rules),
            "table_runtime.csv": (runtime_header, runtime + [
                ["total", "", csv_score(self.runtime_total), ""]]),
            "table_significance.csv": (
                ["tool", "node_low", "node_high", "mean_diff", "t", "df", "p_two_tailed",
                 "cohens_d"],
                [[tool, self.node_low, self.node_high, f"{row.mean_diff:.2f}",
                  f"{row.t:.4f}", f"{row.df:g}", f"{row.p_two_tailed:.6f}", f"{row.d:.4f}"]
                 for tool, row in self.significance],
            ),
            "plot_scores_by_node.csv": (["node", "lynis", "openscap", "aide"],
                                        by_node("lynis", "openscap", "aide")),
            "plot_uca_comparison.csv": (["node", "standard_uca", "extended_uca"],
                                        by_node("standard_uca", "extended_uca")),
            "plot_custom_rules.csv": (rules_header, rules),
            "plot_runtime.csv": (runtime_header, runtime),
        }


def tool_samples(store: Store, *nodes: str) -> dict[tuple[str, str], list[float]]:
    """(node, tool) -> the normalized scores of its runs by iteration, for
    ``nodes``, from one query: the samples of a t-test."""
    return {key: [row[3] for row in group]
            for key, group in groupby(store.score_rows(*nodes), itemgetter(0, 1))}


def node_summaries(store: Store) -> dict[str, dict]:
    """node -> its SUMMARY_COLUMNS by name, for every node with runs, by node."""
    return {row[0]: dict(zip(SUMMARY_COLUMNS, row)) for row in store.summary_rows()}


def build_report(store: Store) -> ReportBundle:
    """Build the four report tables from each node's stored summary, and the
    t-tests from one read of the two nodes they compare."""
    summaries = node_summaries(store)
    if not summaries:
        raise EmptyStoreError("no audit runs recorded; ingest or generate a corpus first")

    # Column order: weakest to strongest by mean standard score, so the
    # significance comparison (first vs last column) reads naturally.
    standard = {n: summary["standard_uca"] for n, summary in summaries.items()}
    nodes = sorted(standard, key=lambda n: (standard[n] is None, standard[n] or 0.0, n))
    score_table = {m: {n: summaries[n][m] for n in nodes} for m in SCORE_METRICS}
    rule_table = [{column: summaries[n][column] for column in RULE_COLUMNS}
                  for n in nodes if summaries[n]["passed"] is not None]

    node_low = node_high = None
    significance: list[tuple[str, stats.TestResult]] = []
    ranked = [n for n in nodes if standard[n] is not None]
    if len(ranked) >= 2:
        node_low, node_high = ranked[0], ranked[-1]
        samples = tool_samples(store, node_low, node_high)
        for tool in Tool:
            low_scores = samples.get((node_low, tool.value), [])
            high_scores = samples.get((node_high, tool.value), [])
            try:
                significance.append((tool.value, stats.pooled_t_test(low_scores, high_scores)))
            except (DegenerateSampleError, EmptySampleError):  # a group of under two values
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
        significance=significance,
    )


def _cell(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}"


def csv_score(value: float | None) -> str:
    """A number as a report CSV cell: two decimals, or blank for none."""
    return "" if value is None else f"{value:.2f}"


def format_p(p: float) -> str:
    """A p-value as printed: ``<0.001``, or three decimals."""
    return "<0.001" if p < 0.001 else f"{p:.3f}"


def round_score(value: float | None, digits: int = 2) -> float | None:
    """A number as JSON output carries it: None, or rounded to ``digits`` decimals."""
    return None if value is None else round(value, digits)


def round_t_test(result: stats.TestResult) -> dict:
    """A t-test's numbers as JSON output carries them."""
    return {"mean_diff": round_score(result.mean_diff),
            "t": round_score(result.t, 4), "df": result.df,
            "p_two_tailed": round_score(result.p_two_tailed, 6),
            "cohens_d": round_score(result.d, 4)}


def _table(widths: tuple[int, ...], *rows: tuple) -> list[str]:
    """A text table's lines: a row's first cell left-aligned to the first width
    (``%-Ns``), each other right-aligned to its own (``%Ns``); a short row stops early."""
    fields = ["  %%-%ds" % widths[0], *["%%%ds" % width for width in widths[1:]]]
    return ["".join(fields[:len(row)]) % row for row in rows]


def render_text(bundle: ReportBundle) -> str:
    nodes, scores = bundle.nodes, bundle.score_table
    lines = [
        "Average security scores by node",
        *_table((14, *[12] * len(nodes)), ("metric", *nodes),
                *((m, *map(_cell, map(scores[m].get, nodes))) for m in SCORE_METRICS)),
        "",
        "Custom rule results by node",
        *_table((14, 8, 8, 10), ("node", "passed", "failed", "score%"),
                *((r["node"], r["passed"], r["failed"], _cell(r["score_pct"]))
                  for r in bundle.rule_table)),
        *([] if bundle.rule_table else ["  (no rule results recorded)"]),
        "",
        "Tool runtime overhead",
        *_table((14, 10, 12, 6), ("tool", "avg_s", "total_s", "runs"),
                *((tool, _cell(average), _cell(total), count)
                  for tool, average, total, count in bundle.runtime),
                ("total", "", _cell(bundle.runtime_total))),
        "",
    ]
    if bundle.significance:
        lines.append(f"Statistical significance ({bundle.node_low} vs {bundle.node_high})")
        lines += _table((14, 8, 8, 6, 8, 8), ("tool", "diff", "t", "df", "p", "d"),
                        *((tool, f"{r.mean_diff:+.2f}", f"{r.t:.2f}", f"{r.df:.0f}",
                           format_p(r.p_two_tailed), f"{r.d:.2f}")
                          for tool, r in bundle.significance))
    else:
        lines.append("Statistical significance: needs two nodes with repeated runs")
    lines.append("")
    return "\n".join(lines)


def bundle_to_dict(bundle: ReportBundle) -> dict:
    return {
        "nodes": list(bundle.nodes),
        "scores": {
            metric: {node: round_score(v) for node, v in per_node.items()}
            for metric, per_node in bundle.score_table.items()
        },
        # rule-table rows hold RULE_COLUMNS, in order
        "custom_rules": [{**row, "score_pct": round_score(row["score_pct"])}
                         for row in bundle.rule_table],
        "runtime": {
            "per_tool": {
                tool: {
                    "average_seconds": round_score(average),
                    "total_seconds": round_score(total),
                    "runs": count,
                }
                for tool, average, total, count in bundle.runtime
            },
            "grand_total_seconds": round_score(bundle.runtime_total),
        },
        "significance": {
            "node_low": bundle.node_low,
            "node_high": bundle.node_high,
            "rows": [{"tool": tool, **round_t_test(row)} for tool, row in bundle.significance],
        },
    }


def render_json(bundle: ReportBundle) -> str:
    return dumps(bundle_to_dict(bundle)) + "\n"


def _write_csv_files(bundle: ReportBundle, out_dir: Path, prefix: str) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [name for name in bundle.csv_files if name.startswith(prefix)]
    for name in names:
        write_csv(out_dir / name, *bundle.csv_files[name])
    return [out_dir / name for name in names]


def write_csv_tables(bundle: ReportBundle, out_dir: Path) -> list[Path]:
    """The four report tables as CSV files."""
    return _write_csv_files(bundle, out_dir, "table_")


def write_plot_data(bundle: ReportBundle, out_dir: Path,
                    runs: Iterable[tuple[str, str, int, float]]) -> list[Path]:
    """Plot-data CSVs, one per report figure; the score progression's rows are
    ``runs``, (node, tool, iteration, normalized_score) per audit run in store
    order, as ``Store.score_rows`` yields them.

    As a read of ``runs`` can fail halfway, the progression is written first,
    under a temporary name that replaces its path only once it is complete, so
    a failed read leaves every file under ``out_dir`` as it was.
    """
    progression = Path(out_dir) / "plot_score_progression.csv"
    progression.parent.mkdir(parents=True, exist_ok=True)
    with replace_together() as stage:
        write_csv(stage(progression), ["node", "tool", "iteration", "normalized_score"],
                  ([node, tool, iteration, csv_score(score)]
                   for node, tool, iteration, score in runs))
    return [progression, *_write_csv_files(bundle, out_dir, "plot_")]
