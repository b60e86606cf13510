import csv
import io
import json
import sqlite3
import tempfile
import tracemalloc
from dataclasses import replace
from operator import itemgetter
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from uca import report as report_mod
from uca import stats
from uca.cli import main
from uca.errors import ConstraintViolationError, DegenerateSampleError, EmptyStoreError
from uca.fixtures import CorpusSpec, NodeSpec, Profile, make_corpus, make_snapshot
from uca.report import (
    RULE_COLUMNS,
    SCORE_METRICS,
    ReportBundle,
    build_report,
    bundle_to_dict,
    render_json,
    render_text,
    tool_samples,
    write_csv_tables,
    write_plot_data,
)
from uca.repository import (
    _READ_SUMMARIES,
    AGGREGATE_CSV_HEADER,
    AUDIT_CSV_HEADER,
    AuditRun,
    Phase,
    open_store,
    write_csv,
)
from uca.rules import RuleResult, RuleSet, default_rules, evaluate_rules, score_rules
from uca.scoring import AggregateScore, Tool
from uca.stats import describe


def _run(node, tool, iteration, score, runtime=10.0):
    return AuditRun(
        node=node, tool=Tool(tool), timestamp=f"2025-03-03T{iteration:02d}:00:00+00:00",
        iteration=iteration, phase=Phase.ITERATION, raw_score=score,
        normalized_score=score, runtime_seconds=runtime,
    )


class TestBuildReport:
    def test_empty_store(self, tmp_path):
        with open_store(tmp_path / "s.db") as store:
            with pytest.raises(EmptyStoreError):
                build_report(store)

    def test_nodes_ordered_weakest_to_strongest(self, corpus_store):
        bundle = build_report(corpus_store)
        assert bundle.nodes == ["baseline", "partial", "full"]
        assert bundle.node_low == "baseline"
        assert bundle.node_high == "full"

    def test_score_table_rederives_from_runs(self, corpus_store):
        bundle = build_report(corpus_store)
        for tool in Tool:
            for node in bundle.nodes:
                expected = describe(tool_samples(corpus_store, node)[node, tool.value]).mean
                assert bundle.score_table[tool.value][node] == expected

    def test_rule_table_matches_reference(self, corpus_store):
        bundle = build_report(corpus_store)
        by_node = {row["node"]: row for row in bundle.rule_table}
        assert by_node["baseline"]["passed"] == 3
        assert by_node["partial"]["passed"] == 6
        assert by_node["full"]["passed"] == 7
        assert by_node["full"]["score_pct"] == pytest.approx(83.61, abs=0.01)

    def test_significance_skips_degenerate_groups(self, tmp_path):
        from uca.scoring import AggregateScore

        with open_store(tmp_path / "s.db") as store:
            for node, value in (("low", 10.0), ("high", 70.0)):
                for iteration in range(3):
                    for tool in Tool:
                        store.record_audit_run(_run(node, tool, iteration, value))
                    store.record_aggregate(AggregateScore(
                        node=node, iteration=iteration, lynis=value, openscap=value,
                        aide=value, standard_uca=value,
                        timestamp="2025-03-03T00:00:00+00:00",
                    ))
            bundle = build_report(store)
            # both nodes rank, but constant groups with differing means have
            # no defined t statistic, so every row is skipped
            assert (bundle.node_low, bundle.node_high) == ("low", "high")
            assert bundle.significance == []

    @pytest.mark.parametrize("low, tools", [
        ((10.0, 14.0), ["lynis", "openscap", "aide"]), ((10.0,), [])],
        ids=["two-iterations", "one-iteration"])
    def test_significance_needs_two_values_per_group(self, tmp_path, low, tools):
        # two values a group are the fewest a pooled t-test takes; one is skipped
        high = (70.0, 72.0)
        with open_store(tmp_path / "s.db") as store:
            for node, values in (("low", low), ("high", high)):
                for iteration, value in enumerate(values):
                    for tool in Tool:
                        store.record_audit_run(_run(node, tool, iteration, value))
                    store.record_aggregate(AggregateScore(
                        node=node, iteration=iteration, lynis=value, openscap=value,
                        aide=value, standard_uca=value,
                        timestamp="2025-03-03T00:00:00+00:00",
                    ))
            bundle = build_report(store)
        assert (bundle.node_low, bundle.node_high) == ("low", "high")
        assert bundle.significance == [(tool, stats.pooled_t_test(low, high))
                                       for tool in tools]

    def test_rejected_reevaluation_keeps_earlier_results(self, tmp_path):
        results = evaluate_rules(default_rules(), make_snapshot(Profile.FULL))
        rejected = [*results[:-1], replace(results[-1], rule_id="\udcff")]
        with open_store(tmp_path / "s.db") as store:
            store.record_audit_run(_run("solo", "lynis", 0, 50.0))
            store.record_evaluation(results, "solo", 0)
            # a rule id that is no UTF-8 text fails its INSERT after the key's
            # DELETE, and the DELETE rolls back
            with pytest.raises(ConstraintViolationError, match="not UTF-8 text"):
                store.record_evaluation(rejected, "solo", 0)
            assert store._conn.execute(
                "SELECT rule_id, passed, evidence, weight FROM custom_rule_results"
                " ORDER BY id").fetchall() == [
                (r.rule_id, r.passed, r.evidence, r.weight) for r in results]
            assert build_report(store).rule_table == [
                {"node": "solo", "passed": 7, "failed": 1, "score_pct": score_rules(results)}]

    def test_renderings_are_deterministic(self, corpus_store):
        first = build_report(corpus_store)
        second = build_report(corpus_store)
        assert render_text(first) == render_text(second)
        assert bundle_to_dict(first) == bundle_to_dict(second)

    def test_fixed_statement_count_at_any_node_count(self, tmp_path):
        """With every node's summary stored, a build issues as many statements at
        3 nodes as at 24, and none but the summary read, which derives the nodes
        that have no summary, names an aggregate or a rule result."""
        counts = []
        for count in (3, 24):
            nodes = tuple(NodeSpec(f"n{i:02d}", list(Profile)[i % 3]) for i in range(count))
            corpus = make_corpus(CorpusSpec(nodes=nodes, iterations=2), tmp_path / str(count))
            with open_store(corpus.store_path) as store:
                statements = []
                store._conn.set_trace_callback(statements.append)
                bundle = build_report(store)
            assert len(statements) <= 6, statements
            assert _READ_SUMMARIES in statements
            assert not [sql for sql in statements if sql != _READ_SUMMARIES
                        and ("aggregate_scores" in sql or "custom_rule_results" in sql)]
            assert len(bundle.nodes) == len(bundle.rule_table) == count
            counts.append(len(statements))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("count", [3, 24])
    def test_stored_summaries_read_no_aggregate_and_no_rule_result(self, tmp_path, count):
        """With every node's summary stored, a build reads no aggregate and no
        rule result, the summary read included: 38 more aggregates and evaluations
        per node add fewer SQLite VM steps to the build than they add rows, where
        reading each row would take at least one step."""
        nodes = tuple(NodeSpec(f"n{i:02d}", list(Profile)[i % 3]) for i in range(count))
        corpus = make_corpus(CorpusSpec(nodes=nodes, iterations=2), tmp_path / "c")
        results = evaluate_rules(default_rules(), make_snapshot(Profile.FULL))

        def build_steps(store) -> int:
            steps = []
            store._conn.set_progress_handler(lambda: steps.append(1), 1)
            build_report(store)
            store._conn.set_progress_handler(None, 1)
            return len(steps)

        with open_store(corpus.store_path) as store:
            before = build_steps(store)
            with store.transaction():  # refills every summary before it commits
                for node in nodes:
                    for iteration in range(2, 40):
                        store.record_evaluation(results, node.name, iteration)
                        store.record_aggregate(AggregateScore(
                            node.name, iteration, 50.0, 50.0, 50.0, 50.0, 83.0, 56.6,
                            "2025-03-04T00:00:00+00:00"))
            assert store._conn.execute("SELECT COUNT(*) FROM node_summary").fetchone() == (count,)
            added = count * 38 * (1 + len(results))
            assert build_steps(store) - before < added


def _corpus_24(out: Path, iterations: int = 2):
    nodes = tuple(NodeSpec(f"n{i:02d}", list(Profile)[i % 3]) for i in range(24))
    return make_corpus(CorpusSpec(nodes=nodes, iterations=iterations), out)


def test_read_memory_does_not_grow_with_runs(tmp_path):
    """The report and the export stream the runs: the traced peak of a build,
    its plot files and the runs' export on 24 nodes at 40 iterations (2,880
    runs) is within 64 KiB of that at 2 (144 runs). A build and an export that
    hold every run row peak about 1.2 MB higher at 40."""
    peaks = []
    for iterations in (2, 40):
        out = tmp_path / str(iterations)
        with open_store(_corpus_24(out / "corpus", iterations).store_path) as store:
            tracemalloc.start()
            try:
                write_plot_data(build_report(store), out / "plots", store.score_rows())
                store.export_audit_csv(out / "audit_runs.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 * 1024, peaks


def test_report_and_export_build_no_records(tmp_path, monkeypatch):
    store_path = str(_corpus_24(tmp_path / "corpus").store_path)

    def refuse(*args, **kwargs):
        raise AssertionError("per-run record built")

    for record in (AuditRun, AggregateScore, RuleResult, RuleSet):
        monkeypatch.setattr(record, "__init__", refuse)
    monkeypatch.setattr(stats, "describe", refuse)
    with pytest.raises(AssertionError):
        _run("n00", "lynis", 0, 50.0)  # the patch bites
    runner = CliRunner()
    for argv in (["report"], ["--format", "json", "report"],
                 ["--format", "csv-dir", "report", "--out-dir", str(tmp_path / "csv")],
                 ["report", "--out-dir", str(tmp_path / "plots")],
                 ["export", "--out-dir", str(tmp_path / "export")]):
        result = runner.invoke(main, ["--store", store_path, *argv])
        assert result.exit_code == 0, (argv, result.output, result.exception)


def test_csv_dir_report_formats_each_cell_once(tmp_path, monkeypatch):
    """``write_plot_data`` and ``write_csv_tables`` share one build of the CSV
    cells: a csv-dir report formats each score cell, rule row and runtime figure
    once, and each run's score once in the progression."""
    store_path = _corpus_24(tmp_path / "corpus").store_path
    with open_store(store_path) as store:
        bundle = build_report(store)
        runs = len(list(store.score_rows()))
    calls = []
    monkeypatch.setattr(report_mod, "csv_score", lambda value: calls.append(value) or "")
    result = CliRunner().invoke(main, ["--store", str(store_path), "--format", "csv-dir",
                                       "report", "--out-dir", str(tmp_path / "csv")])
    assert result.exit_code == 0, result.output
    # average and total per tool, and the grand total
    runtime = 2 * len(bundle.runtime) + 1
    assert len(calls) == (len(SCORE_METRICS) * len(bundle.nodes) + len(bundle.rule_table)
                          + runtime + runs)


# --- the report as computed before it read plain rows ------------------------

def _reference_bundle(store) -> tuple[ReportBundle, list]:
    """build_report from raw SQL rows of each table and RuleResult records, with stats.describe means, rules.score_rules scores and a runtime
    query of its own; and the runs, which the score progression plot shows."""
    runs = store._conn.execute(
        "SELECT node, tool, iteration, normalized_score FROM audit_runs"
        " ORDER BY node, tool, iteration").fetchall()
    if not runs:
        raise EmptyStoreError("no audit runs recorded")
    samples: dict = {}
    for node, tool, _, score in runs:
        samples.setdefault((tool, node), []).append(score)
    for node, *values in store._conn.execute(
            "SELECT node, custom, standard_uca, extended_uca FROM aggregate_scores"
            " ORDER BY node, iteration"):
        for metric, value in zip(("custom", "standard_uca", "extended_uca"), values):
            if value is not None:
                samples.setdefault((metric, node), []).append(value)

    def mean(metric, node):
        values = samples.get((metric, node), [])
        return describe(values).mean if values else None

    standard = {n: mean("standard_uca", n) for n in {run[0] for run in runs}}
    nodes = sorted(standard, key=lambda n: (standard[n] is None, standard[n] or 0.0, n))
    evaluations: dict = {}
    for node, iteration, rule_id, passed, weight in store._conn.execute(
            "SELECT node, iteration, rule_id, passed, weight FROM custom_rule_results"):
        evaluations.setdefault((node, iteration), []).append(
            RuleResult(rule_id, bool(passed), "", weight))
    rule_table = []
    for node in nodes:
        iterations = [i for n, i in evaluations if n == node]
        if not iterations:
            continue
        results = evaluations[node, max(iterations)]
        passed = sum(1 for r in results if r.passed)
        score_pct = score_rules(results)
        rule_table.append({"node": node, "passed": passed, "failed": len(results) - passed,
                           "score_pct": score_pct})
    node_low = node_high = None
    significance = []
    ranked = [n for n in nodes if standard[n] is not None]
    if len(ranked) >= 2:
        node_low, node_high = ranked[0], ranked[-1]
        for tool in Tool:
            low = samples.get((tool.value, node_low), [])
            high = samples.get((tool.value, node_high), [])
            if len(low) < 2 or len(high) < 2:
                continue
            try:
                r = stats.pooled_t_test(low, high)
            except DegenerateSampleError:
                continue
            significance.append((tool.value, r))
    runtime = store._conn.execute(
        "SELECT tool, AVG(runtime_seconds), SUM(runtime_seconds), COUNT(*)"
        " FROM audit_runs GROUP BY tool ORDER BY tool").fetchall()
    return ReportBundle(
        nodes=nodes,
        score_table={m: {n: mean(m, n) for n in nodes} for m in SCORE_METRICS},
        rule_table=rule_table,
        runtime=runtime,
        runtime_total=sum(total for _, _, total, _ in runtime),
        node_low=node_low,
        node_high=node_high,
        significance=significance,
    ), runs


def _reference_exports(store) -> dict[str, bytes]:
    """audit_runs.csv and aggregate_scores.csv written from raw SQL rows: each
    float by ``repr``, each NULL as an empty cell."""
    tables = {
        "audit_runs.csv": (AUDIT_CSV_HEADER, [
            [node, tool, timestamp, iteration, phase,
             repr(raw_score), repr(normalized_score), repr(runtime_seconds)]
            for node, tool, timestamp, iteration, phase, raw_score, normalized_score,
            runtime_seconds in store._conn.execute(
                "SELECT node, tool, timestamp, iteration, phase, raw_score, normalized_score,"
                " runtime_seconds FROM audit_runs ORDER BY node, tool, iteration")]),
        "aggregate_scores.csv": (AGGREGATE_CSV_HEADER, [
            [node, iteration, *("" if value is None else repr(value) for value in scores),
             timestamp]
            for node, iteration, *scores, timestamp in store._conn.execute(
                "SELECT node, iteration, lynis, openscap, aide, custom, standard_uca,"
                " extended_uca, timestamp FROM aggregate_scores ORDER BY node, iteration")]),
    }
    files = {}
    for name, (header, rows) in tables.items():
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        files[name] = text.getvalue().encode()
    return files


def _csv_bytes(bundle, out: Path, runs) -> dict[str, bytes]:
    paths = write_csv_tables(bundle, out) + write_plot_data(bundle, out, runs)
    return {path.name: path.read_bytes() for path in paths}


# Scores from the whole range, plus values whose two-decimal rounding is close.
_SCORES = st.one_of(st.floats(0, 100), st.sampled_from([0.0, 0.005, 33.335, 66.665, 100.0]))
# "e" has rule results but never runs; "ghost" is a rule of no rule set, and
# results of one rule may carry different weights.
_NODES = ("a", "b", "c", "d")
_RULE_IDS = ("r1", "r2", "r3")
_INSERT_RUN = (
    "INSERT INTO audit_runs (node, tool, timestamp, iteration, phase, raw_score,"
    " normalized_score, runtime_seconds) VALUES (?, ?, 'ts', ?, 'iteration', ?, ?, ?)")
_INSERT_AGGREGATE = (
    "INSERT INTO aggregate_scores (node, iteration, lynis, openscap, aide,"
    " standard_uca, custom, extended_uca, timestamp) VALUES (?, ?, ?, ?, ?, ?, ?, ?, 'ts')")
_INSERT_RESULT = (
    "INSERT INTO custom_rule_results (rule_id, node, iteration, passed, weight, evidence)"
    " VALUES (?, ?, ?, ?, ?, '')")


@settings(max_examples=150, deadline=None)
@given(
    runs=st.lists(st.tuples(st.sampled_from(_NODES), st.sampled_from([t.value for t in Tool]),
                            st.integers(0, 3), _SCORES, st.floats(0, 1e4)),
                  unique_by=lambda run: run[:3], max_size=24),
    aggregates=st.lists(st.tuples(
        st.sampled_from(_NODES), st.integers(0, 3), st.tuples(_SCORES, _SCORES, _SCORES),
        st.one_of(st.none(), st.tuples(_SCORES, _SCORES))),
        unique_by=lambda agg: agg[:2], max_size=12),
    results=st.lists(st.tuples(st.sampled_from(_RULE_IDS + ("ghost",)),
                               st.sampled_from(_NODES + ("e",)), st.integers(0, 3),
                               st.booleans(), st.integers(1, 9)),
                     unique_by=lambda result: result[:3], max_size=16),
)
def test_plain_row_report_matches_record_reference(runs, aggregates, results):
    """Random stores written with raw SQL give the same bundle, bit for bit,
    and the same bytes in every rendering and export; a second row of a key
    is rejected."""
    run_rows = [(node, tool, it, score, score, runtime) for node, tool, it, score, runtime in runs]
    # the median component as the standard score, which must lie between them
    aggregate_rows = [(node, it, *components, sorted(components)[1], *(custom or (None, None)))
                      for node, it, components, custom in aggregates]
    with open_store(":memory:") as store:
        conn = store._conn
        for insert, rows in ((_INSERT_RUN, run_rows), (_INSERT_AGGREGATE, aggregate_rows),
                             (_INSERT_RESULT, results)):
            conn.executemany(insert, rows)
            if rows:
                with pytest.raises(sqlite3.IntegrityError, match="UNIQUE"):
                    conn.execute(insert, rows[0])
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            store.export_audit_csv(out / "audit_runs.csv")
            store.export_aggregate_csv(out / "aggregate_scores.csv")
            reference = _reference_exports(store)
            assert {name: (out / name).read_bytes() for name in reference} == reference
            if not runs:
                with pytest.raises(EmptyStoreError):
                    build_report(store)
                return
            bundle, (expected, expected_runs) = build_report(store), _reference_bundle(store)
            assert bundle == expected
            assert render_text(bundle) == render_text(expected)
            assert render_json(bundle) == render_json(expected)
            assert (_csv_bytes(bundle, out / "new", store.score_rows())
                    == _csv_bytes(expected, out / "reference", expected_runs))


# --- the stored node summaries under any sequence of writes ------------------

_WRITE_NODES = st.sampled_from(_NODES[:3])
_ITERATIONS = st.integers(0, 2)
_RUN_WRITES = st.tuples(_WRITE_NODES, st.sampled_from([t.value for t in Tool]), _ITERATIONS,
                        _SCORES, st.floats(0, 1e4))
_AGGREGATE_WRITES = st.tuples(_WRITE_NODES, _ITERATIONS, st.tuples(_SCORES, _SCORES, _SCORES),
                              st.one_of(st.none(), st.tuples(_SCORES, _SCORES)))
_WRITES = st.one_of(
    st.tuples(st.just("run"), _RUN_WRITES),
    st.tuples(st.just("aggregate"), _AGGREGATE_WRITES),
    # "e" has results and never runs, so it never has a summary
    st.tuples(st.just("evaluation"), st.tuples(
        st.sampled_from(_NODES[:3] + ("e",)), _ITERATIONS,
        st.lists(st.tuples(st.sampled_from(_RULE_IDS), st.booleans(), st.integers(1, 9)),
                 min_size=1, max_size=3, unique_by=itemgetter(0)))),
    st.tuples(st.just("rejected evaluation"), st.tuples(_WRITE_NODES, _ITERATIONS)),
    st.tuples(st.just("import"), st.tuples(
        st.lists(_RUN_WRITES, unique_by=lambda run: run[:3], max_size=4),
        st.lists(_AGGREGATE_WRITES, unique_by=lambda agg: agg[:2], max_size=3))),
)


def _aggregate(node, iteration, components, custom) -> AggregateScore:
    # the median component as the standard score, which must lie between them
    return AggregateScore(node=node, iteration=iteration, lynis=components[0],
                          openscap=components[1], aide=components[2],
                          standard_uca=sorted(components)[1],
                          custom=custom and custom[0], extended_uca=custom and custom[1],
                          timestamp="2025-03-03T00:00:00+00:00")


def _export_row(record, header: list[str]) -> list:
    """A record's CSV row as the export writes it: a float by ``repr``, an enum
    by its value and None as an empty cell."""
    values = (getattr(record, name) for name in header)
    return ["" if value is None else repr(value) if isinstance(value, float)
            else getattr(value, "value", value) for value in values]


def _write(store, out: Path, kind: str, args) -> None:
    """One write of ``_WRITES`` through the store's own methods."""
    if kind == "run":
        store.record_audit_run(_run(*args))
    elif kind == "aggregate":
        store.record_aggregate(_aggregate(*args))
    elif kind == "evaluation":
        node, iteration, results = args
        store.record_evaluation([RuleResult(rule_id, passed, "", weight)
                                 for rule_id, passed, weight in results], node, iteration)
    elif kind == "rejected evaluation":
        # the second result's id is no UTF-8 text: the whole write rolls back
        with pytest.raises(ConstraintViolationError):
            store.record_evaluation([RuleResult("r1", True, "", 1),
                                     RuleResult("\udcff", False, "", 1)], *args)
    else:
        runs, aggregates = args
        write_csv(out / "runs.csv", AUDIT_CSV_HEADER,
                  [_export_row(_run(*run), AUDIT_CSV_HEADER) for run in runs])
        write_csv(out / "aggregates.csv", AGGREGATE_CSV_HEADER,
                  [_export_row(_aggregate(*agg), AGGREGATE_CSV_HEADER) for agg in aggregates])
        store.import_audit_csv(out / "runs.csv")
        store.import_aggregate_csv(out / "aggregates.csv")


@settings(max_examples=100, deadline=None)
@given(writes=st.lists(_WRITES, min_size=1, max_size=10))
def test_stored_summaries_equal_their_derivation_after_every_write(writes):
    """After each write, rejected ones too, every node with runs has a stored
    summary equal to its derivation from the rows, and the report equals the
    reference built from the rows."""
    with open_store(":memory:") as store, tempfile.TemporaryDirectory() as tmp:
        for kind, args in writes:
            _write(store, Path(tmp), kind, args)
            stored = store._conn.execute("SELECT * FROM node_summary ORDER BY node").fetchall()
            assert stored == store.derive_summaries(), (kind, args)
            if stored:
                assert build_report(store) == _reference_bundle(store)[0]


_EVALUATION_WRITES = st.tuples(
    st.sampled_from(_NODES[:3] + ("e",)), _ITERATIONS,
    st.lists(st.tuples(st.sampled_from(_RULE_IDS), st.booleans(), st.integers(1, 9)),
             min_size=1, max_size=3, unique_by=itemgetter(0)))


@settings(max_examples=80, deadline=None)
@given(runs=st.lists(_RUN_WRITES, unique_by=lambda run: run[:3], max_size=18),
       aggregates=st.lists(_AGGREGATE_WRITES, unique_by=lambda agg: agg[:2], max_size=9),
       evaluations=st.lists(_EVALUATION_WRITES, unique_by=lambda ev: ev[:2], max_size=6),
       data=st.data())
def test_insertion_order_changes_no_summary_export_or_report(runs, aggregates, evaluations,
                                                             data):
    """The same runs, aggregates and results, written in two drawn orders (the
    results of each evaluation too), give the same stored summaries, the same
    derivation, byte-equal exports and an equal report. The report's
    ``runtime`` and ``runtime_total`` are left out: ``summarize_runtime``
    still takes SQLite's SUM and AVG, whose last digit can depend on the
    order of the rows, until the runtime totals are summed exactly too."""
    writes = ([("run", run) for run in runs] + [("aggregate", agg) for agg in aggregates]
              + [("evaluation", evaluation) for evaluation in evaluations])
    outputs = []
    for _ in range(2):
        with open_store(":memory:") as store, tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            for kind, args in data.draw(st.permutations(writes)):
                if kind == "evaluation":
                    args = (*args[:2], data.draw(st.permutations(args[2])))
                _write(store, out, kind, args)
            store.export_audit_csv(out / "audit_runs.csv")
            store.export_aggregate_csv(out / "aggregate_scores.csv")
            exports = [(out / name).read_bytes()
                       for name in ("audit_runs.csv", "aggregate_scores.csv")]
            stored = store._conn.execute("SELECT * FROM node_summary ORDER BY node").fetchall()
            bundle = replace(build_report(store), runtime=None, runtime_total=None) if runs else None
            outputs.append((stored, store.derive_summaries(), exports, bundle))
    assert outputs[0] == outputs[1]


# --- the text and JSON renderers as written before they shared one layout ----

def _reference_fmt(value, width=10):
    if value is None:
        return "-".rjust(width)
    return f"{value:.2f}".rjust(width)


def _reference_fmt_p(p):
    return "<0.001" if p < 0.001 else f"{p:.3f}"


def _reference_round(value, digits=2):
    return None if value is None else round(value, digits)


def _reference_render_text(bundle):
    lines = []
    lines.append("Average security scores by node")
    header = "  " + "metric".ljust(14) + "".join(n.rjust(12) for n in bundle.nodes)
    lines.append(header)
    for metric in SCORE_METRICS:
        row = "  " + metric.ljust(14)
        row += "".join(_reference_fmt(bundle.score_table[metric].get(n), 12)
                       for n in bundle.nodes)
        lines.append(row)
    lines.append("")

    lines.append("Custom rule results by node")
    lines.append("  " + "node".ljust(14) + "passed".rjust(8) + "failed".rjust(8)
                 + "score%".rjust(10))
    if bundle.rule_table:
        for row in bundle.rule_table:
            lines.append(
                "  " + str(row["node"]).ljust(14)
                + str(row["passed"]).rjust(8) + str(row["failed"]).rjust(8)
                + _reference_fmt(row["score_pct"])
            )
    else:
        lines.append("  (no rule results recorded)")
    lines.append("")

    lines.append("Tool runtime overhead")
    lines.append("  " + "tool".ljust(14) + "avg_s".rjust(10) + "total_s".rjust(12)
                 + "runs".rjust(6))
    for tool, average, total, count in bundle.runtime:
        lines.append(
            "  " + tool.ljust(14) + _reference_fmt(average)
            + _reference_fmt(total, 12) + str(count).rjust(6)
        )
    lines.append("  " + "total".ljust(14) + "".rjust(10)
                 + _reference_fmt(bundle.runtime_total, 12))
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
                + _reference_fmt_p(row.p_two_tailed).rjust(8)
                + f"{row.d:.2f}".rjust(8)
            )
    else:
        lines.append("Statistical significance: needs two nodes with repeated runs")
    lines.append("")
    return "\n".join(lines)


def _reference_bundle_to_dict(bundle):
    return {
        "nodes": list(bundle.nodes),
        "scores": {
            metric: {node: _reference_round(v) for node, v in per_node.items()}
            for metric, per_node in bundle.score_table.items()
        },
        "custom_rules": [
            {
                "node": row["node"],
                "passed": row["passed"],
                "failed": row["failed"],
                "score_pct": _reference_round(row["score_pct"]),
            }
            for row in bundle.rule_table
        ],
        "runtime": {
            "per_tool": {
                tool: {
                    "average_seconds": _reference_round(average),
                    "total_seconds": _reference_round(total),
                    "runs": count,
                }
                for tool, average, total, count in bundle.runtime
            },
            "grand_total_seconds": _reference_round(bundle.runtime_total),
        },
        "significance": {
            "node_low": bundle.node_low,
            "node_high": bundle.node_high,
            "rows": [
                {
                    "tool": tool,
                    "mean_diff": _reference_round(row.mean_diff),
                    "t": _reference_round(row.t, 4),
                    "df": row.df,
                    "p_two_tailed": _reference_round(row.p_two_tailed, 6),
                    "cohens_d": _reference_round(row.d, 4),
                }
                for tool, row in bundle.significance
            ],
        },
    }


# Short and long node names (wider than every column), any printable text.
_NAMES = st.one_of(st.text(st.characters(blacklist_categories=("Cc", "Cs")), min_size=1,
                           max_size=6),
                   st.text("abcdefghijklmnopqrstuvwxyz-_0123456789", min_size=13, max_size=30))
_CELLS = st.one_of(st.none(), st.floats(-1e6, 1e6), _SCORES)
_FINITE = st.floats(-1e6, 1e6)
# p at, just below and around 0.001, as well as anywhere in [0, 1]
_P_VALUES = st.one_of(st.sampled_from([0.0, 1e-12, 0.000999, 0.0009995, 0.001, 0.0010001,
                                       0.0015, 0.05, 1.0]), st.floats(0, 1))


@st.composite
def _bundles(draw) -> ReportBundle:
    nodes = draw(st.lists(_NAMES, unique=True, max_size=6))
    names = st.sampled_from(nodes) if nodes else _NAMES
    return ReportBundle(
        nodes=nodes,
        score_table={m: {n: draw(_CELLS) for n in nodes} for m in SCORE_METRICS},
        rule_table=[dict(zip(RULE_COLUMNS, (draw(names), draw(st.integers(0, 10**6)),
                                             draw(st.integers(0, 10**6)), draw(_CELLS))))
                    for _ in range(draw(st.integers(0, 4)))],
        runtime=draw(st.lists(st.tuples(st.sampled_from([t.value for t in Tool]), _FINITE,
                                        _FINITE, st.integers(0, 10**7)), max_size=3)),
        runtime_total=draw(_FINITE),
        node_low=draw(st.one_of(st.none(), names)),
        node_high=draw(st.one_of(st.none(), names)),
        significance=draw(st.lists(st.tuples(
            st.sampled_from([t.value for t in Tool]),
            st.builds(stats.TestResult, t=_FINITE, df=st.floats(0, 1e4), p_two_tailed=_P_VALUES,
                      d=_FINITE, mean_diff=_FINITE)), max_size=3)),
    )


@settings(max_examples=400, deadline=None)
@given(bundle=_bundles())
def test_renderers_match_the_reference_renderers(bundle):
    """Random bundles, with empty cells, empty tables, p at and below 0.001 and
    names wider than their columns, render to the reference's bytes."""
    assert render_text(bundle) == _reference_render_text(bundle)
    assert render_json(bundle) == json.dumps(_reference_bundle_to_dict(bundle), indent=2) + "\n"
