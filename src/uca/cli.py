"""Command-line interface.

Commands: ingest, score, rules, stats, report, export, fixtures.
Exit codes: 0 success, 1 on IO/store/domain failures (a missing input file
among them), 2 on parse failures and usage errors; failures print one
"Error: ..." line to stderr.
Weights come from defaults, overridden by --config (JSON), overridden by
the individual weight flags.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import click

from . import fixtures as fixtures_mod
from . import pipeline, stats
from . import report as report_mod
from .errors import (
    InvalidWeightsError,
    ParseError,
    UcaError,
    UnknownNodeError,
    UnknownToolError,
)
from .jsondoc import dumps, load
from .parsers import FileChunks
from .repository import Phase, Store, open_store, replace_together
from .rules import RuleSet, default_rules, evaluate_rules, load_rules, load_snapshot, score_rules
from .scoring import Tool, WeightConfig

TOOL_CHOICES = [tool.value for tool in Tool]


@dataclass
class AppContext:
    store_path: Path
    weights: WeightConfig
    fmt: str

    def open(self) -> Store:
        return open_store(self.store_path)

    def read(self) -> Store:
        """The store of a command that needs recorded runs: a missing one is an
        error, not created."""
        return open_store(self.store_path, create=False)


def _load_weights(config_path: Path | None, overrides: dict[str, float]) -> WeightConfig:
    mapping = {} if config_path is None else load(
        Path(config_path).read_bytes(), dict, InvalidWeightsError, f"config {config_path}")
    return WeightConfig.from_mapping({**mapping, **overrides})


def _now_iso() -> str:
    return datetime.now(timezone.utc).replace(microsecond=0).isoformat()


def _emit(ctx: AppContext, payload: dict, text: str) -> None:
    if ctx.fmt == "json":
        click.echo(dumps(payload))
    else:
        click.echo(text)


def _ruleset(rules_path: Path | None) -> RuleSet:
    """The rules a command evaluates: the rules document, or the built-in set."""
    return load_rules(Path(rules_path).read_bytes()) if rules_path else default_rules()


class _Main(click.Group):
    """The one error -> exit-code rule: a ParseError exits 2, any other
    UcaError or an OSError exits 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (UcaError, OSError) as exc:
            error = click.ClickException(str(exc))
            error.exit_code = 2 if isinstance(exc, ParseError) else 1
            raise error from exc


@click.group(cls=_Main)
@click.option("--store", "store_path", type=click.Path(path_type=Path),
              default=Path("uca.db"), show_default=True,
              help="Path to the SQLite store.")
@click.option("--config", "config_path", type=click.Path(path_type=Path),
              default=None, help="JSON file overriding score weights.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv-dir"]),
              default="text", show_default=True, help="Output format.")
@click.option("--w-lynis", type=float, default=None, help="Override Lynis weight.")
@click.option("--w-openscap", type=float, default=None, help="Override OpenSCAP weight.")
@click.option("--w-aide", type=float, default=None, help="Override AIDE weight.")
@click.option("--w-custom", type=float, default=None, help="Override custom blend weight.")
@click.option("--aide-penalty", "aide_penalty_per_change", type=float, default=None,
              help="Override integrity points lost per changed entry.")
@click.pass_context
def main(ctx, store_path, config_path, fmt, **weights):
    """Aggregate Linux security-audit outputs into unified compliance scores."""
    # each weight flag's parameter name is its WeightConfig field
    overrides = {key: value for key, value in weights.items() if value is not None}
    ctx.obj = AppContext(
        store_path=store_path,
        weights=_load_weights(config_path, overrides),
        fmt=fmt,
    )


@main.command()
@click.argument("node")
@click.argument("tool", type=click.Choice(TOOL_CHOICES))
@click.argument("input_path", type=click.Path(path_type=Path))
@click.option("--iteration", type=int, default=0, show_default=True)
@click.option("--phase", type=click.Choice([p.value for p in Phase]),
              default=Phase.ITERATION.value, show_default=True)
@click.option("--runtime", "runtime_seconds", type=float, default=0.0,
              show_default=True, help="Tool runtime in seconds.")
@click.option("--timestamp", default=None, help="ISO-8601 timestamp; default now.")
@click.pass_obj
def ingest(app: AppContext, node, tool, input_path, iteration, phase,
           runtime_seconds, timestamp):
    """Parse one tool output file and record the run."""
    try:
        run = pipeline.parse_run(
            node, tool, FileChunks(input_path), iteration=iteration, phase=phase,
            runtime_seconds=runtime_seconds, timestamp=timestamp or _now_iso(),
            weights=app.weights,
        )
    except ParseError as exc:
        raise type(exc)(f"{input_path}: {exc}") from exc
    with app.open() as store:
        run_id = store.record_audit_run(run)
    _emit(app, {"id": run_id, "node": node, "tool": tool,
                "raw_score": report_mod.round_score(run.raw_score),
                "normalized_score": report_mod.round_score(run.normalized_score)},
          f"recorded run {run_id}: {node}/{tool} "
          f"raw={run.raw_score:.2f} normalized={run.normalized_score:.2f}")


@main.command()
@click.argument("node")
@click.option("--iteration", type=int, required=True)
@click.option("--rules", "rules_path", type=click.Path(path_type=Path),
              default=None, help="Rules JSON; default built-in set when --snapshot given.")
@click.option("--snapshot", "snapshot_path", type=click.Path(path_type=Path),
              default=None, help="Snapshot directory for custom-rule evaluation.")
@click.pass_obj
def score(app: AppContext, node, iteration, rules_path, snapshot_path):
    """Combine the three recorded tool runs into unified scores."""
    if rules_path is not None and snapshot_path is None:
        raise click.UsageError("--rules needs --snapshot to evaluate against")
    results = (evaluate_rules(_ruleset(rules_path), load_snapshot(snapshot_path))
               if snapshot_path is not None else None)
    with app.read() as store:
        agg = pipeline.score_iteration(store, node, iteration, weights=app.weights,
                                       timestamp=_now_iso(), results=results)
    payload = {"id": agg.id, "node": node, "iteration": iteration,
               **{key: report_mod.round_score(getattr(agg, key)) for key in
                  ("lynis", "openscap", "aide", "standard_uca", "custom", "extended_uca")}}
    text = (f"{node} iteration {iteration}: standard_uca={agg.standard_uca:.2f}"
            + (f" custom={agg.custom:.2f} extended_uca={agg.extended_uca:.2f}"
               if agg.custom is not None else ""))
    _emit(app, payload, text)


@main.command("rules")
@click.option("--rules", "rules_path", type=click.Path(path_type=Path),
              default=None, help="Rules JSON document; default built-in set.")
@click.option("--snapshot", "snapshot_path", type=click.Path(path_type=Path),
              default=None, help="Snapshot directory to evaluate against.")
@click.option("--node", default=None, help="Node name; default from snapshot manifest.")
@click.option("--iteration", type=int, default=0, show_default=True)
@click.option("--record", is_flag=True, help="Record results into the store.")
@click.pass_obj
def rules_cmd(app: AppContext, rules_path, snapshot_path, node, iteration, record):
    """Show the rule set, or evaluate it against a snapshot."""
    ruleset = _ruleset(rules_path)
    if snapshot_path is None:
        rows = [
            {"id": r.id, "name": r.name, "check_type": r.check_type.value,
             "weight": r.weight}
            for r in ruleset.rules
        ]
        text = "\n".join(
            f"{r.id:<26} weight={r.weight:<3} {r.check_type.value:<17} {r.name}"
            for r in ruleset.rules
        ) + f"\ntotal weight: {ruleset.total_weight}"
        _emit(app, {"rules": rows, "total_weight": ruleset.total_weight}, text)
        return
    snapshot = load_snapshot(snapshot_path)
    node = snapshot.node if node is None else node
    results = evaluate_rules(ruleset, snapshot)
    pct = score_rules(results)
    if record:
        with app.open() as store:
            store.record_evaluation(results, node, iteration)
    passed = sum(1 for r in results if r.passed)
    payload = {
        "node": node,
        "iteration": iteration,
        "passed": passed,
        "failed": len(results) - passed,
        "score_pct": report_mod.round_score(pct),
        "results": [
            {"rule_id": r.rule_id, "passed": r.passed, "evidence": r.evidence}
            for r in results
        ],
    }
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.rule_id:<26} {r.evidence}"
        for r in results
    ]
    lines.append(f"{node}: {passed} passed, {len(results) - passed} failed,"
                 f" score {pct:.2f}%")
    _emit(app, payload, "\n".join(lines))


@main.command("stats")
@click.argument("tool", type=click.Choice(TOOL_CHOICES))
@click.argument("node_a")
@click.argument("node_b")
@click.option("--welch", is_flag=True, help="Welch (unequal variance) variant.")
@click.pass_obj
def stats_cmd(app: AppContext, tool, node_a, node_b, welch):
    """Two-sample t-test of a tool's scores between two nodes (b - a)."""
    with app.read() as store, store.read_transaction():
        # a node has runs if it has a summary, and runs of a tool if its mean is not None
        summaries = report_mod.node_summaries(store)
        for name in (node_a, node_b):
            if name not in summaries:
                raise UnknownNodeError(f"no runs recorded for node {name!r}")
        if all(summary[tool] is None for summary in summaries.values()):
            raise UnknownToolError(f"no runs recorded for tool {tool!r}")
        for name in (node_a, node_b):
            if summaries[name][tool] is None:
                raise UnknownToolError(f"no {tool} runs recorded for node {name!r}")
        samples = report_mod.tool_samples(store, node_a, node_b)
    group_a, group_b = samples[node_a, tool], samples[node_b, tool]
    result = stats.pooled_t_test(group_a, group_b, welch=welch)
    payload = {
        "tool": tool, "node_a": node_a, "node_b": node_b,
        "n_a": len(group_a), "n_b": len(group_b),
        **report_mod.round_t_test(result),
        "welch": welch,
    }
    text = (f"{tool}: {node_b} - {node_a}  diff={result.mean_diff:+.2f}  t={result.t:.2f}"
            f"  df={result.df:g}  p={report_mod.format_p(result.p_two_tailed)}  d={result.d:.2f}")
    _emit(app, payload, text)


@main.command()
@click.option("--out-dir", type=click.Path(path_type=Path), default=None,
              help="Directory for plot-data CSVs (and tables with csv-dir format).")
@click.pass_obj
def report(app: AppContext, out_dir):
    """Emit the four summary tables plus plot-data CSVs."""
    if app.fmt == "csv-dir" and out_dir is None:
        raise click.UsageError("--out-dir is required with --format csv-dir")
    written: list[Path] = []
    # in the build's read transaction, as the progression plot reads its rows
    # from the store, so every file shows one state
    with app.read() as store, store.read_transaction():
        bundle = report_mod.build_report(store)
        if out_dir is not None:
            written += report_mod.write_plot_data(bundle, out_dir, store.score_rows())
            if app.fmt == "csv-dir":
                written += report_mod.write_csv_tables(bundle, out_dir)
    if app.fmt == "json":
        click.echo(report_mod.render_json(bundle), nl=False)
    elif app.fmt == "csv-dir":
        for path in sorted(written):
            click.echo(str(path))
    else:
        click.echo(report_mod.render_text(bundle))
        for path in sorted(written):
            click.echo(f"wrote {path}")


@main.command()
@click.option("--out-dir", type=click.Path(path_type=Path), required=True)
@click.pass_obj
def export(app: AppContext, out_dir):
    """Write audit_runs.csv and aggregate_scores.csv."""
    audit_path = out_dir / "audit_runs.csv"
    agg_path = out_dir / "aggregate_scores.csv"
    with app.read() as store, store.read_transaction(), replace_together() as stage:
        out_dir.mkdir(parents=True, exist_ok=True)
        audit_rows = store.export_audit_csv(stage(audit_path))
        agg_rows = store.export_aggregate_csv(stage(agg_path))
    _emit(app, {"files": [
        {"path": str(audit_path), "rows": audit_rows},
        {"path": str(agg_path), "rows": agg_rows},
    ]}, f"{audit_path} ({audit_rows} rows)\n{agg_path} ({agg_rows} rows)")


@main.command()
@click.option("--out-dir", type=click.Path(path_type=Path), required=True)
@click.option("--seed", type=int, default=None, help="Override the spec seed.")
@click.option("--spec", "spec_path", type=click.Path(path_type=Path),
              default=None, help="Corpus spec JSON; default reproduces the 108-run corpus.")
@click.pass_obj
def fixtures(app: AppContext, out_dir, seed, spec_path):
    """Generate a synthetic audit corpus and record it into the store."""
    spec = (fixtures_mod.CorpusSpec.from_json(Path(spec_path).read_bytes())
            if spec_path is not None else fixtures_mod.CorpusSpec())
    if seed is not None:
        spec = replace(spec, seed=seed)
    result = fixtures_mod.make_corpus(
        spec, out_dir, store_path=app.store_path, weights=app.weights
    )
    _emit(app, {
        "corpus_dir": str(result.corpus_dir),
        "store": str(result.store_path),
        "runs": result.runs_recorded,
        "aggregates": result.aggregates_recorded,
        "rule_results": result.rule_results_recorded,
        "seed": spec.seed,
    }, (f"corpus at {result.corpus_dir} (seed {spec.seed}): "
        f"{result.runs_recorded} runs, {result.aggregates_recorded} aggregates, "
        f"{result.rule_results_recorded} rule results -> {result.store_path}"))


if __name__ == "__main__":
    main()
