import math
import shutil
import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import damage_key_index
from uca.errors import (
    ConstraintViolationError,
    CorruptStoreError,
    EmptyStoreError,
    StoreIOError,
)
from uca.repository import (
    AGGREGATE_CSV_HEADER,
    AUDIT_CSV_HEADER,
    AuditRun,
    Phase,
    open_store,
    replace_together,
    write_csv,
)
from uca.report import build_report
from uca.rules import RuleResult, score_rules
from uca.scoring import AggregateScore, Tool, compute_standard_uca


def _run(**kwargs) -> AuditRun:
    defaults = dict(
        node="baseline", tool=Tool.LYNIS, timestamp="2025-03-03T00:00:00+00:00",
        iteration=0, phase=Phase.PRE, raw_score=64.0, normalized_score=64.0,
        runtime_seconds=36.21,
    )
    defaults.update(kwargs)
    return AuditRun(**defaults)


def _aggregate(**kwargs) -> AggregateScore:
    defaults = dict(
        node="baseline", iteration=0, lynis=64.0, openscap=40.0, aide=45.0,
        standard_uca=compute_standard_uca(64.0, 40.0, 45.0),
        custom=39.34, extended_uca=48.0, timestamp="2025-03-03T00:09:00+00:00",
    )
    defaults.update(kwargs)
    return AggregateScore(**defaults)


# Scores from the whole range, plus values whose two-decimal rounding is close
_SCORES = st.one_of(st.floats(0, 100), st.sampled_from([0.0, 0.005, 33.335, 66.665, 100.0]))
_NODES = ("a", "b")


class TestOpenStore:
    def test_creates_four_tables(self, tmp_path):
        store = open_store(tmp_path / "fresh.db")
        names = {
            row[0] for row in store._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        store.close()
        assert names - {"sqlite_sequence"} == {"audit_runs", "aggregate_scores",
                                               "custom_rule_results", "node_summary"}

    @pytest.mark.parametrize("table, header, record", [
        ("audit_runs", AUDIT_CSV_HEADER, AuditRun),
        ("aggregate_scores", AGGREGATE_CSV_HEADER, AggregateScore),
    ])
    def test_column_list_matches_table_and_record(self, tmp_path, table, header, record):
        with open_store(tmp_path / "fresh.db") as store:
            columns = [row[1] for row in store._conn.execute(f"PRAGMA table_info({table})")]
        assert header == [name for name in columns if name != "id"]
        # AggregateScore lists its defaulted fields last, so compare names, not order
        assert set(header) == set(record.__dataclass_fields__) - {"id"}
        if record is AuditRun:
            assert header == list(record.__dataclass_fields__)

    def test_reopen_is_idempotent(self, tmp_path):
        path = tmp_path / "again.db"
        with open_store(path) as store:
            store.record_audit_run(_run())
        with open_store(path) as store:
            assert len(list(store.score_rows())) == 1

    def test_unopenable_path(self, tmp_path):
        with pytest.raises(StoreIOError):
            open_store(tmp_path / "no" / "such" / "dir" / "x.db")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_bytes(b"\x00not a database at all" * 8)
        with pytest.raises(CorruptStoreError):
            open_store(path)

    def test_query_on_a_damaged_page_is_corrupt(self, default_corpus, tmp_path):
        path = tmp_path / "s.db"
        shutil.copy(default_corpus.store_path, path)
        damage_key_index(path, "audit_runs")
        with open_store(path) as store:
            with pytest.raises(CorruptStoreError, match="s.db: database disk image is malformed"):
                store.score_rows()


# The version-1 schema (user_version 0) as its last release created it; releases
# before that lacked the three *_key indexes.
_V1_SCHEMA = """
CREATE TABLE IF NOT EXISTS audit_runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    node TEXT NOT NULL,
    tool TEXT NOT NULL CHECK (tool IN ('lynis', 'openscap', 'aide')),
    timestamp TEXT NOT NULL,
    iteration INTEGER NOT NULL CHECK (iteration >= 0),
    phase TEXT NOT NULL CHECK (phase IN ('pre', 'post', 'iteration')),
    raw_score REAL NOT NULL,
    normalized_score REAL NOT NULL
        CHECK (normalized_score >= 0 AND normalized_score <= 100),
    runtime_seconds REAL NOT NULL CHECK (runtime_seconds >= 0)
);
CREATE TABLE IF NOT EXISTS aggregate_scores (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    node TEXT NOT NULL,
    iteration INTEGER NOT NULL CHECK (iteration >= 0),
    lynis REAL NOT NULL CHECK (lynis >= 0 AND lynis <= 100),
    openscap REAL NOT NULL CHECK (openscap >= 0 AND openscap <= 100),
    aide REAL NOT NULL CHECK (aide >= 0 AND aide <= 100),
    custom REAL CHECK (custom IS NULL OR (custom >= 0 AND custom <= 100)),
    standard_uca REAL NOT NULL CHECK (standard_uca >= 0 AND standard_uca <= 100),
    extended_uca REAL
        CHECK (extended_uca IS NULL OR (extended_uca >= 0 AND extended_uca <= 100)),
    timestamp TEXT NOT NULL,
    CHECK ((custom IS NULL) = (extended_uca IS NULL))
);
CREATE TABLE IF NOT EXISTS custom_rules (
    rule_id TEXT PRIMARY KEY,
    name TEXT NOT NULL,
    check_type TEXT NOT NULL,
    weight INTEGER NOT NULL CHECK (weight >= 1),
    params TEXT NOT NULL,
    description TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS custom_rule_results (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    rule_id TEXT NOT NULL,
    node TEXT NOT NULL,
    iteration INTEGER NOT NULL CHECK (iteration >= 0),
    passed INTEGER NOT NULL CHECK (passed IN (0, 1)),
    evidence TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS audit_runs_key ON audit_runs (node, tool, iteration);
CREATE INDEX IF NOT EXISTS aggregate_scores_key ON aggregate_scores (node, iteration);
CREATE INDEX IF NOT EXISTS custom_rule_results_key
    ON custom_rule_results (node, iteration);
"""


def _v1_store(path, results):
    """A version-1 store with a duplicate key in each keyed table: the first
    row of each key is the stale one. ``results`` are (rule_id, passed) rows
    of web's iteration 0; rules r1 (weight 3) and r2 (weight 5) are stored."""
    conn = sqlite3.connect(path, isolation_level=None)
    conn.executescript(_V1_SCHEMA)
    conn.executemany(
        "INSERT INTO audit_runs (node, tool, timestamp, iteration, phase, raw_score,"
        " normalized_score, runtime_seconds) VALUES ('web', ?, 'ts', 0, 'pre', ?, ?, 1)",
        [("lynis", 50, 50), ("aide", 70, 70), ("lynis", 60, 60)])
    conn.executemany(
        "INSERT INTO aggregate_scores (node, iteration, lynis, openscap, aide,"
        " standard_uca, timestamp) VALUES ('web', 0, ?, ?, ?, ?, 'ts')",
        [(50, 50, 50, 50), (60, 60, 60, 60)])
    conn.executemany(
        "INSERT INTO custom_rules (rule_id, name, check_type, weight, params)"
        " VALUES (?, ?, 'service_active', ?, '{}')", [("r1", "r1", 3), ("r2", "r2", 5)])
    conn.executemany(
        "INSERT INTO custom_rule_results (rule_id, node, iteration, passed, evidence)"
        " VALUES (?, 'web', 0, ?, '')", results)
    conn.close()


def _schema(store):
    """The schema version and the text of every table and index."""
    return (store._conn.execute("PRAGMA user_version").fetchone(), store._conn.execute(
        "SELECT type, name, tbl_name, sql FROM sqlite_master ORDER BY name").fetchall())


class TestSchemaVersion:
    def test_v1_store_migrates_to_one_row_per_key(self, tmp_path):
        path = tmp_path / "v1.db"
        _v1_store(path, [("r1", 0), ("r2", 1), ("r1", 1)])
        with open_store(path) as store:
            assert store._conn.execute("PRAGMA user_version").fetchone() == (4,)
            assert [(tool, score) for _, tool, _, score in store.score_rows()] == [
                (Tool.AIDE, 70.0), (Tool.LYNIS, 60.0)]
            assert store._conn.execute(
                "SELECT standard_uca FROM aggregate_scores").fetchall() == [(60.0,)]
            assert store._conn.execute(
                "SELECT rule_id, passed, weight FROM custom_rule_results ORDER BY rule_id"
            ).fetchall() == [("r1", 1, 3), ("r2", 1, 5)]
            assert store._conn.execute(
                "SELECT node, passed, failed, score_pct FROM node_summary"
            ).fetchall() == [("web", 2, 0, 100.0)]
            assert "custom_rules" not in {name for _, name, *_ in _schema(store)[1]}

    def test_migrated_schema_equals_new_schema(self, tmp_path, v2_store, v3_store):
        _v1_store(tmp_path / "v1.db", [("r1", 1)])
        with open_store(tmp_path / "v1.db") as migrated, open_store(v2_store) as upgraded, \
                open_store(v3_store) as upgraded_v3, open_store(tmp_path / "new.db") as new:
            assert _schema(migrated) == _schema(new)
            assert _schema(upgraded) == _schema(new)
            assert _schema(upgraded_v3) == _schema(new)
            assert _schema(new)[0] == (4,)
            assert "custom_rules" not in {name for _, name, *_ in _schema(new)[1]}

    def test_v1_result_of_unknown_rule_is_corrupt_and_left_as_it_was(self, tmp_path):
        path = tmp_path / "v1.db"
        _v1_store(path, [("r1", 1), ("ghost", 1)])
        before = path.read_bytes()
        with pytest.raises(CorruptStoreError, match="cannot migrate"):
            open_store(path)
        assert path.read_bytes() == before

    def test_newer_schema_version_is_refused(self, tmp_path):
        path = tmp_path / "v5.db"
        with open_store(path) as store:
            store._conn.execute("PRAGMA user_version = 5")
        with pytest.raises(CorruptStoreError, match="schema version 5"):
            open_store(path)

    def test_key_ordered_reads_use_the_key_indexes(self, tmp_path):
        with open_store(tmp_path / "s.db") as store:
            statements = []
            store._conn.set_trace_callback(statements.append)
            store.score_rows()
            store.export_aggregate_csv(tmp_path / "aggregate_scores.csv")
            store._conn.set_trace_callback(None)
            assert len(statements) == 2, statements
            for sql in statements:
                plan = store._conn.execute("EXPLAIN QUERY PLAN " + sql).fetchall()
                assert not any("TEMP B-TREE" in row[-1] for row in plan), (sql, plan)


class TestNodeSummary:
    @pytest.mark.skipif(not hasattr(sqlite3.Connection, "setlimit"),
                        reason="Connection.setlimit is new in Python 3.11")
    def test_more_missing_nodes_than_a_statement_binds(self):
        """1,000 nodes without a summary, under SQLite's default limit of 999
        bound parameters before 3.32, are derived by one read of every node."""
        with open_store(":memory:") as store:
            store._conn.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 999)
            # written by a client without the refill: no node has a summary
            store._conn.executemany(
                "INSERT INTO audit_runs (node, tool, timestamp, iteration, phase, raw_score,"
                " normalized_score, runtime_seconds) VALUES (?, 'lynis', 'ts', 0, 'pre', ?, ?, 1)",
                [(f"n{i:04d}", i / 10, i / 10) for i in range(1000)])
            assert len(store.summary_rows()) == 1000
            with store.transaction():
                pass
            stored = store._conn.execute("SELECT * FROM node_summary ORDER BY node").fetchall()
            assert stored == store.derive_summaries() == store.summary_rows()
            assert stored[7] == ("n0007", 0.7, *[None] * 8)

    def test_one_run_write_issues_a_fixed_statement_count(self):
        """Recording one run refills its node's summary in one statement: as
        many statements at 3 nodes as at 24, and no more than 6."""
        counts = []
        for count in (3, 24):
            with open_store(":memory:") as store:
                store._conn.executemany(
                    "INSERT INTO audit_runs (node, tool, timestamp, iteration, phase, raw_score,"
                    " normalized_score, runtime_seconds) VALUES (?, 'lynis', 'ts', 0, 'pre', 50,"
                    " 50, 1)", [(f"n{i:02d}",) for i in range(count)])
                with store.transaction():  # every node's summary
                    pass
                statements = []
                store._conn.set_trace_callback(statements.append)
                store.record_audit_run(_run(node="n01", iteration=1))
                store._conn.set_trace_callback(None)
                assert store._conn.execute(
                    "SELECT COUNT(*) FROM node_summary").fetchone() == (count,)
            assert len(statements) <= 6, statements
            counts.append(len(statements))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("missing", [(), ("n01",), ("n00", "n02")],
                             ids=["all-stored", "one-missing", "two-missing"])
    def test_summary_read_issues_one_statement(self, missing):
        """Reading every summary is one statement, whether every node's row is
        stored or a client without the refill deleted some; it equals the
        derivation from the rows."""
        with open_store(":memory:") as store:
            for i in range(3):
                store.record_audit_run(_run(node=f"n{i:02d}", normalized_score=10.0 * i))
            # another client's write: the trigger deletes the summary, no refill follows
            store._conn.executemany(
                "UPDATE audit_runs SET normalized_score = 99 WHERE node = ?",
                [(node,) for node in missing])
            stored = store._conn.execute("SELECT node FROM node_summary ORDER BY node").fetchall()
            assert len(stored) == 3 - len(missing)
            statements = []
            store._conn.set_trace_callback(statements.append)
            rows = store.summary_rows()
            store._conn.set_trace_callback(None)
            assert len(statements) == 1, statements
            assert rows == store.derive_summaries()
            assert [(row[0], row[1]) for row in rows] == [
                (f"n{i:02d}", 99.0 if f"n{i:02d}" in missing else 10.0 * i) for i in range(3)]


class TestRecording:
    def test_audit_run_round_trip(self, tmp_path):
        with open_store(tmp_path / "s.db") as store:
            run = _run()
            run_id = store.record_audit_run(run)
            stored = store._conn.execute("SELECT id, node, tool, phase, raw_score,"
                                         " normalized_score FROM audit_runs").fetchall()
            assert len(stored) == 1
            fetched_id, node, tool, phase, raw_score, normalized_score = stored[0]
            assert run_id == fetched_id
            assert node == run.node
            assert Tool(tool) is Tool.LYNIS
            assert Phase(phase) is Phase.PRE
            assert raw_score == run.raw_score
            assert normalized_score == run.normalized_score

    def test_ids_strictly_increase(self, tmp_path):
        with open_store(tmp_path / "s.db") as store:
            ids = [store.record_audit_run(_run(iteration=i)) for i in range(5)]
            assert ids == sorted(ids)
            assert len(set(ids)) == 5

    def test_normalized_score_out_of_range(self, tmp_path):
        with open_store(tmp_path / "s.db") as store:
            with pytest.raises(ConstraintViolationError):
                store.record_audit_run(_run(normalized_score=140))

    def test_negative_runtime(self, tmp_path):
        with open_store(tmp_path / "s.db") as store:
            with pytest.raises(ConstraintViolationError):
                store.record_audit_run(_run(runtime_seconds=-1))

    @pytest.mark.parametrize("runtime", [math.inf, -math.inf, math.nan])
    def test_non_finite_runtime(self, tmp_path, runtime):
        with open_store(tmp_path / "s.db") as store:
            with pytest.raises(ConstraintViolationError):
                store.record_audit_run(_run(runtime_seconds=runtime))
            assert list(store.score_rows()) == []

    def test_aggregate_custom_pairing(self, tmp_path):
        with open_store(tmp_path / "s.db") as store:
            with pytest.raises(ConstraintViolationError):
                store.record_aggregate(_aggregate(custom=None))

    def test_aggregate_between_components(self, tmp_path):
        with open_store(tmp_path / "s.db") as store:
            with pytest.raises(ConstraintViolationError):
                store.record_aggregate(_aggregate(standard_uca=99.0))

    def test_recording_a_key_again_replaces_it(self, tmp_path):
        from uca.fixtures import Profile, make_snapshot
        from uca.rules import default_rules, evaluate_rules

        with open_store(tmp_path / "s.db") as store:
            for score in (50.0, 60.0):
                store.record_audit_run(_run(normalized_score=score))
                store.record_audit_run(_run(tool=Tool.AIDE, normalized_score=score))
                store.record_aggregate(_aggregate())
                for profile in (Profile.BASELINE, Profile.FULL):
                    results = evaluate_rules(default_rules(), make_snapshot(profile))
                    store.record_evaluation(results, "baseline", 0)
                    store.record_evaluation(results, "web", 1)
            assert [(tool, score) for _, tool, _, score in store.score_rows()] == [
                (Tool.AIDE, 60.0), (Tool.LYNIS, 60.0)]
            assert store._conn.execute(
                "SELECT COUNT(*) FROM aggregate_scores").fetchone() == (1,)
            results = store._conn.execute("SELECT node, iteration, passed"
                                          " FROM custom_rule_results ORDER BY node, id").fetchall()
            assert [(node, iteration) for node, iteration, _ in results] == (
                [("baseline", 0)] * 8 + [("web", 1)] * 8)
            assert sum(passed for *_, passed in results) == 2 * 7

    def test_recording_a_key_again_keeps_its_row_id(self, tmp_path):
        with open_store(tmp_path / "s.db") as store:
            first = (store.record_audit_run(_run()), store.record_aggregate(_aggregate()))
            store.record_audit_run(_run(tool=Tool.AIDE))
            again = (store.record_audit_run(_run(normalized_score=70.0)),
                     store.record_aggregate(_aggregate(timestamp="2025-03-04T00:00:00+00:00")))
            assert again == first
            assert store._conn.execute(
                "SELECT id, normalized_score FROM audit_runs WHERE tool = 'lynis'").fetchall() == [
                (first[0], 70.0)]
            assert store._conn.execute(
                "SELECT id, timestamp FROM aggregate_scores").fetchall() == [
                (first[1], "2025-03-04T00:00:00+00:00")]

    def test_write_blocked_by_another_connection(self, tmp_path):
        path = tmp_path / "s.db"
        with open_store(path) as store:
            store._conn.execute("PRAGMA busy_timeout = 0")
            blocker = sqlite3.connect(path, isolation_level=None)
            try:
                blocker.execute("BEGIN EXCLUSIVE")
                with pytest.raises(StoreIOError, match="locked"):
                    store.record_audit_run(_run())
            finally:
                blocker.close()
            # the failed write left no transaction open
            store.record_audit_run(_run())
            assert len(list(store.score_rows())) == 1

    @settings(max_examples=80, deadline=None)
    @given(outcomes=st.lists(st.tuples(st.integers(1, 100), st.booleans()),
                             min_size=1, max_size=12))
    def test_stored_tally_is_score_rules(self, outcomes):
        """An evaluation's score from its results and the tally its node's
        summary derives from the rows they were recorded as are the same float."""
        results = [RuleResult(f"r{index}", passed, "e", weight)
                   for index, (weight, passed) in enumerate(outcomes)]
        passed = sum(result.passed for result in results)
        with open_store(":memory:") as store:
            # a node has a summary once it has a run
            store.record_audit_run(_run(node="n"))
            store.record_evaluation(results, "n", 0)
            assert store._conn.execute(
                "SELECT node, passed, failed, score_pct FROM node_summary"
            ).fetchall() == [("n", passed, len(results) - passed, score_rules(results))]

    def test_rule_results_count(self, corpus_store_copy):
        from uca.fixtures import Profile, make_snapshot
        from uca.rules import default_rules, evaluate_rules

        results = evaluate_rules(default_rules(), make_snapshot(Profile.FULL))
        assert corpus_store_copy.record_evaluation(results, "full", 99) == 8


class TestCsvExport:
    def test_empty_store_header_only(self, tmp_path):
        with open_store(tmp_path / "s.db") as store:
            path = tmp_path / "audit_runs.csv"
            assert store.export_audit_csv(path) == 0
            lines = path.read_text().splitlines()
            assert lines == [",".join(AUDIT_CSV_HEADER)]
            agg_path = tmp_path / "aggregate_scores.csv"
            assert store.export_aggregate_csv(agg_path) == 0
            assert agg_path.read_text().splitlines() == [",".join(AGGREGATE_CSV_HEADER)]

    def test_staged_write_failing_midway_leaves_the_earlier_files(self, tmp_path):
        for name in ("t.csv", "u.csv"):
            (tmp_path / name).write_bytes(b"earlier")

        def rows():
            yield ["a", 1]
            yield ["b", 2]
            raise OSError("failed after 2 rows")

        with pytest.raises(OSError, match="after 2 rows"):
            with replace_together() as stage:
                write_csv(stage(tmp_path / "u.csv"), ["key"], [["complete"]])
                write_csv(stage(tmp_path / "t.csv"), ["key", "value"], rows())
                stage(tmp_path / "never_written.csv")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {
            "t.csv": b"earlier", "u.csv": b"earlier"}

    def test_staged_new_file_has_the_mode_of_a_plain_open(self, tmp_path):
        with replace_together() as stage:
            write_csv(stage(tmp_path / "t.csv"), ["key"], [])
            assert (tmp_path / "t.csv").exists() is False
        open(tmp_path / "plain.csv", "w").close()
        assert (tmp_path / "t.csv").read_text() == "key\n"
        assert (tmp_path / "t.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode

    def test_staged_file_replaces_what_was_at_its_path(self, tmp_path):
        # a new file takes the path: an earlier file's mode is not kept, and a
        # symlink is replaced, its target left as it was
        (tmp_path / "t.csv").write_bytes(b"earlier")
        (tmp_path / "t.csv").chmod(0o600)
        (tmp_path / "target.csv").write_bytes(b"target")
        (tmp_path / "u.csv").symlink_to(tmp_path / "target.csv")
        open(tmp_path / "plain.csv", "w").close()
        with replace_together() as stage:
            for name in ("t.csv", "u.csv"):
                write_csv(stage(tmp_path / name), ["key"], [])
        assert (tmp_path / "t.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode
        assert (tmp_path / "u.csv").is_symlink() is False
        assert (tmp_path / "u.csv").read_text() == "key\n"
        assert (tmp_path / "target.csv").read_bytes() == b"target"

    @pytest.mark.parametrize("earlier", [None, b"earlier"], ids=["no-earlier-file", "earlier-file"])
    def test_failed_rename_leaves_every_path_as_it_was(self, tmp_path, earlier):
        # the second path is a directory, on which the rename fails after the
        # first staged file has taken its path
        if earlier is not None:
            (tmp_path / "t.csv").write_bytes(earlier)
        (tmp_path / "u.csv").mkdir()
        with pytest.raises(IsADirectoryError):
            with replace_together() as stage:
                for name in ("t.csv", "u.csv"):
                    write_csv(stage(tmp_path / name), ["key"], [["complete"]])
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["u.csv"] if earlier is None else ["t.csv", "u.csv"])
        if earlier is not None:
            assert (tmp_path / "t.csv").read_bytes() == earlier

    def test_rows_ordered_by_node_tool_iteration(self, corpus_store, tmp_path):
        path = tmp_path / "audit_runs.csv"
        assert corpus_store.export_audit_csv(path) == 108
        rows = path.read_text().splitlines()[1:]
        keys = []
        for row in rows:
            fields = row.split(",")
            keys.append((fields[0], fields[1], int(fields[3])))
        assert keys == sorted(keys)

    def test_export_import_round_trip(self, corpus_store, tmp_path):
        first_audit = tmp_path / "a1.csv"
        first_agg = tmp_path / "g1.csv"
        corpus_store.export_audit_csv(first_audit)
        corpus_store.export_aggregate_csv(first_agg)

        with open_store(tmp_path / "copy.db") as fresh:
            assert fresh.import_audit_csv(first_audit) == 108
            assert fresh.import_aggregate_csv(first_agg) == 36
            second_audit = tmp_path / "a2.csv"
            second_agg = tmp_path / "g2.csv"
            fresh.export_audit_csv(second_audit)
            fresh.export_aggregate_csv(second_agg)

        assert first_audit.read_bytes() == second_audit.read_bytes()
        assert first_agg.read_bytes() == second_agg.read_bytes()

    def test_import_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with open_store(tmp_path / "s.db") as store:
            with pytest.raises(ConstraintViolationError):
                store.import_audit_csv(path)

    def test_import_rejects_swapped_score_columns(self, tmp_path):
        # both scores lie in [0, 100], so without the header check the row would
        # be recorded with each score in the other's column
        header = list(AUDIT_CSV_HEADER)
        raw, normalized = header.index("raw_score"), header.index("normalized_score")
        header[raw], header[normalized] = header[normalized], header[raw]
        path = tmp_path / "swapped.csv"
        path.write_text(",".join(header) + "\nweb,aide,2025-03-03T00:00:00+00:00,0,pre,40,12,1\n")
        with open_store(tmp_path / "s.db") as store:
            with pytest.raises(ConstraintViolationError, match="unexpected header"):
                store.import_audit_csv(path)
            assert list(store.score_rows()) == []

    @settings(max_examples=100, deadline=None)
    @given(
        runs=st.lists(st.tuples(
            st.sampled_from(_NODES), st.sampled_from(list(Tool)), st.integers(0, 3),
            st.floats(allow_nan=False, allow_infinity=False), _SCORES, st.floats(0, 1e6)),
            unique_by=lambda run: run[:3], max_size=12),
        aggregates=st.lists(st.tuples(
            st.sampled_from(_NODES), st.integers(0, 3), st.tuples(_SCORES, _SCORES, _SCORES),
            st.one_of(st.none(), st.tuples(_SCORES, _SCORES))),
            unique_by=lambda agg: agg[:2], max_size=8),
    )
    def test_export_import_export_is_exact(self, runs, aggregates):
        """Any finite in-range scores, a NULL custom among them, read back from an
        export as the values stored, and export again to the same bytes."""
        with tempfile.TemporaryDirectory() as tmp, open_store(":memory:") as store, \
                open_store(":memory:") as imported:
            for node, tool, iteration, raw, score, runtime in runs:
                store.record_audit_run(_run(node=node, tool=tool, iteration=iteration,
                                            raw_score=raw, normalized_score=score,
                                            runtime_seconds=runtime))
            for node, iteration, components, custom in aggregates:
                custom, extended = custom or (None, None)
                store.record_aggregate(_aggregate(
                    node=node, iteration=iteration, lynis=components[0],
                    openscap=components[1], aide=components[2],
                    standard_uca=sorted(components)[1], custom=custom, extended_uca=extended))
            first_runs, first_aggs, second_runs, second_aggs = (
                Path(tmp) / name for name in ("r1.csv", "g1.csv", "r2.csv", "g2.csv"))
            store.export_audit_csv(first_runs)
            store.export_aggregate_csv(first_aggs)
            assert imported.import_audit_csv(first_runs) == len(runs)
            assert imported.import_aggregate_csv(first_aggs) == len(aggregates)
            imported.export_audit_csv(second_runs)
            imported.export_aggregate_csv(second_aggs)
            assert first_runs.read_bytes() == second_runs.read_bytes()
            assert first_aggs.read_bytes() == second_aggs.read_bytes()
            for query in (f"SELECT {', '.join(AUDIT_CSV_HEADER)} FROM audit_runs"
                          " ORDER BY node, tool, iteration",
                          f"SELECT {', '.join(AGGREGATE_CSV_HEADER)} FROM aggregate_scores"
                          " ORDER BY node, iteration"):
                assert (imported._conn.execute(query).fetchall()
                        == store._conn.execute(query).fetchall())

    def test_import_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(AUDIT_CSV_HEADER)
            + "\nweb,lynis,2025-03-03T00:00:00+00:00,not-an-int,pre,64,64,1\n"
        )
        with open_store(tmp_path / "s.db") as store:
            with pytest.raises(ConstraintViolationError, match="bad.csv:2"):
                store.import_audit_csv(path)

    @pytest.mark.parametrize("importer, header, good, bad", [
        ("import_audit_csv", AUDIT_CSV_HEADER,
         "web,lynis,2025-03-03T00:00:00+00:00,0,pre,64,64,1",
         "web,lynis,2025-03-03T00:00:00+00:00,not-an-int,pre,64,64,1"),
        ("import_audit_csv", AUDIT_CSV_HEADER,
         "web,lynis,2025-03-03T00:00:00+00:00,0,pre,64,64,1",
         "web,aide,2025-03-03T00:00:00+00:00,0,pre,64,140,1"),
        ("import_audit_csv", AUDIT_CSV_HEADER,
         "web,lynis,2025-03-03T00:00:00+00:00,0,pre,64,64,1",
         "web,aide,2025-03-03T00:00:00+00:00,0,pre,0,100,inf"),
        ("import_aggregate_csv", AGGREGATE_CSV_HEADER,
         "web,0,64,40,45,,50.6,,2025-03-03T00:09:00+00:00",
         "web,1,64,40,45,39.34,50.6,,2025-03-03T01:09:00+00:00"),
        ("import_aggregate_csv", AGGREGATE_CSV_HEADER,
         "web,0,64,40,45,,50.6,,2025-03-03T00:09:00+00:00",
         "web,1,64,40,45,,99,,2025-03-03T01:09:00+00:00"),
        ("import_audit_csv", AUDIT_CSV_HEADER,
         "web,lynis,2025-03-03T00:00:00+00:00,0,pre,64,64,1",
         "web,aide,2025-03-03T00:00:00+00:00,0,pre,inf,64,1"),
        ("import_audit_csv", AUDIT_CSV_HEADER,
         "web,lynis,2025-03-03T00:00:00+00:00,0,pre,64,64,1",
         "web,aide,t,0,pre,0,100,1"),
        ("import_audit_csv", AUDIT_CSV_HEADER,
         "web,lynis,2025-03-03T00:00:00+00:00,0,pre,64,64,1",
         "web,aide,2025-03-03T00:00:00+00:00,0,pre,0,100"),
        ("import_aggregate_csv", AGGREGATE_CSV_HEADER,
         "web,0,64,40,45,,50.6,,2025-03-03T00:09:00+00:00",
         "web,1,64,40,45,,50.6,,t"),
        ("import_audit_csv", AUDIT_CSV_HEADER,
         "web,lynis,2025-03-03T00:00:00+00:00,0,pre,64,64,1",
         "web,aide,2025-03-03T00:00:00+00:00,0,pre,64,64,1,surplus,fields"),
        ("import_aggregate_csv", AGGREGATE_CSV_HEADER,
         "web,0,64,40,45,,50.6,,2025-03-03T00:09:00+00:00",
         "web,1,64,40,45,,50.6,,2025-03-03T01:09:00+00:00,surplus"),
    ], ids=["unparsable-run", "run-outside-schema", "run-infinite-runtime",
            "aggregate-outside-schema",
            "aggregate-outside-components", "run-infinite-raw", "run-timestamp-not-iso",
            "run-short-row", "aggregate-timestamp-not-iso", "run-long-row",
            "aggregate-long-row"])
    def test_bad_row_at_line_3_leaves_no_rows(self, tmp_path, importer, header, good, bad):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(header) + f"\n{good}\n{bad}\n")
        with open_store(tmp_path / "s.db") as store:
            with pytest.raises(ConstraintViolationError, match="bad.csv:3: "):
                getattr(store, importer)(path)
            assert store._conn.execute("SELECT (SELECT COUNT(*) FROM audit_runs),"
                                       " (SELECT COUNT(*) FROM aggregate_scores)"
                                       ).fetchone() == (0, 0)

    def test_bad_row_after_a_field_with_a_newline_names_its_line(self, tmp_path):
        # the first row spans lines 2-3, so the bad row is the file's line 4
        path = tmp_path / "bad.csv"
        write_csv(path, list(AUDIT_CSV_HEADER), [
            [getattr(_run(node="a\nb"), name) for name in AUDIT_CSV_HEADER],
            [getattr(_run(tool=Tool.AIDE), name) for name in AUDIT_CSV_HEADER[:6]]
            + [150, 1]])
        assert path.read_text().splitlines()[3].startswith("baseline,aide,")
        with open_store(tmp_path / "s.db") as store:
            with pytest.raises(ConstraintViolationError, match="bad.csv:4: "):
                store.import_audit_csv(path)

    @pytest.mark.parametrize("importer, header, good", [
        ("import_audit_csv", AUDIT_CSV_HEADER,
         "web,lynis,2025-03-03T00:00:00+00:00,0,pre,64,64,1"),
        ("import_aggregate_csv", AGGREGATE_CSV_HEADER,
         "web,0,64,40,45,,50.6,,2025-03-03T00:09:00+00:00"),
    ])
    def test_bytes_not_utf8_name_their_line(self, tmp_path, importer, header, good):
        path = tmp_path / "bad.csv"
        path.write_bytes(f"{','.join(header)}\n{good}\n".encode()
                         + b"w\xffb" + good[3:].encode() + b"\n")
        with open_store(tmp_path / "s.db") as store:
            with pytest.raises(ConstraintViolationError, match="bad.csv:3: 'utf-8' codec"):
                getattr(store, importer)(path)
            assert store._conn.execute("SELECT (SELECT COUNT(*) FROM audit_runs),"
                                       " (SELECT COUNT(*) FROM aggregate_scores)"
                                       ).fetchone() == (0, 0)

class TestRuntimeSummary:
    def test_single_run(self, tmp_path):
        with open_store(tmp_path / "s.db") as store:
            store.record_audit_run(_run(runtime_seconds=10.0))
            [(tool, average, total, count)] = store.summarize_runtime()
            assert tool == "lynis"
            assert average == pytest.approx(10.0)
            assert total == pytest.approx(10.0)
            assert count == 1
            assert build_report(store).runtime_total == pytest.approx(10.0)

    def test_empty_store(self, tmp_path):
        with open_store(tmp_path / "s.db") as store:
            with pytest.raises(EmptyStoreError):
                store.summarize_runtime()

    def test_36_runs_at_reference_average(self, tmp_path):
        with open_store(tmp_path / "s.db") as store:
            for i in range(36):
                store.record_audit_run(_run(
                    tool=Tool.AIDE, iteration=i, runtime_seconds=93.58,
                ))
            total = {tool: total for tool, _, total, _ in store.summarize_runtime()}["aide"]
            assert total == pytest.approx(3368.88, abs=0.001)
            assert total == pytest.approx(3368.91, abs=0.05)

    def test_totals_are_exact_sums(self, corpus_store):
        runs = corpus_store._conn.execute(
            "SELECT tool, runtime_seconds FROM audit_runs").fetchall()
        for tool, average, total, count in corpus_store.summarize_runtime():
            runtimes = [runtime for run_tool, runtime in runs if run_tool == tool]
            assert count == len(runtimes)
            assert total == pytest.approx(math.fsum(runtimes), rel=1e-12)
            assert average * count == pytest.approx(total, abs=0.05)
        assert build_report(corpus_store).runtime_total == pytest.approx(
            math.fsum(runtime for _, runtime in runs), rel=1e-12
        )


class TestStoredAggregatesRederive:
    def test_standard_uca_rederives_from_components(self, corpus_store):
        aggregates = corpus_store._conn.execute(
            "SELECT lynis, openscap, aide, standard_uca FROM aggregate_scores").fetchall()
        assert aggregates
        for lynis, openscap, aide, standard_uca in aggregates:
            expected = compute_standard_uca(lynis, openscap, aide)
            assert standard_uca == pytest.approx(expected, abs=1e-9)


class TestConcurrency:
    def test_parallel_reads_with_serialized_writes(self, tmp_path):
        import threading

        with open_store(tmp_path / "s.db") as store:
            errors = []

            def writer(offset):
                try:
                    for i in range(10):
                        store.record_audit_run(_run(iteration=offset * 100 + i))
                except Exception as exc:  # pragma: no cover - failure reporting
                    errors.append(exc)

            threads = [threading.Thread(target=writer, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert len(list(store.score_rows())) == 40
