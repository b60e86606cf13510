import math
import sqlite3

import pytest

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
)
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


class TestOpenStore:
    def test_creates_four_tables(self, tmp_path):
        store = open_store(tmp_path / "fresh.db")
        names = {
            row[0] for row in store._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        store.close()
        assert {"audit_runs", "aggregate_scores", "custom_rules",
                "custom_rule_results"} <= names

    def test_reopen_is_idempotent(self, tmp_path):
        path = tmp_path / "again.db"
        with open_store(path) as store:
            store.record_audit_run(_run())
        with open_store(path) as store:
            assert len(store.audit_runs()) == 1

    def test_unopenable_path(self, tmp_path):
        with pytest.raises(StoreIOError):
            open_store(tmp_path / "no" / "such" / "dir" / "x.db")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_bytes(b"\x00not a database at all" * 8)
        with pytest.raises(CorruptStoreError):
            open_store(path)


class TestRecording:
    def test_audit_run_round_trip(self, tmp_path):
        with open_store(tmp_path / "s.db") as store:
            run = _run()
            run_id = store.record_audit_run(run)
            assert run_id == run.id
            stored = store.audit_runs()
            assert len(stored) == 1
            fetched = stored[0]
            assert fetched.node == run.node
            assert fetched.tool is Tool.LYNIS
            assert fetched.phase is Phase.PRE
            assert fetched.raw_score == run.raw_score
            assert fetched.normalized_score == run.normalized_score

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
                    store.record_rule_results(
                        evaluate_rules(default_rules(), make_snapshot(profile, "baseline"))
                        + evaluate_rules(default_rules(), make_snapshot(profile, "web"), 1))
            assert [(r.tool, r.normalized_score) for r in store.audit_runs()] == [
                (Tool.AIDE, 60.0), (Tool.LYNIS, 60.0)]
            assert len(store.aggregates()) == 1
            results = store.latest_rule_outcomes()
            assert [(r.node, r.iteration) for r in results] == (
                [("baseline", 0)] * 8 + [("web", 1)] * 8)
            assert sum(r.passed for r in results) == 2 * 7

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
            assert len(store.audit_runs()) == 1

    def test_rule_results_count(self, corpus_store_copy):
        from uca.fixtures import Profile, make_snapshot
        from uca.rules import default_rules, evaluate_rules

        results = evaluate_rules(default_rules(), make_snapshot(Profile.FULL), 99)
        assert corpus_store_copy.record_rule_results(results) == 8


    def test_recording_rules_again_writes_only_changed_rows(self, tmp_path):
        from dataclasses import replace

        from uca.fixtures import CorpusSpec, NodeSpec, Profile, make_corpus
        from uca.rules import RuleSet

        nodes = tuple(NodeSpec(f"n{i}", list(Profile)[i % 3]) for i in range(4))
        corpus = make_corpus(CorpusSpec(nodes=nodes, iterations=3), tmp_path / "corpus")
        with open_store(corpus.store_path) as store:
            sql = "SELECT count(*), max(rowid) FROM custom_rules"
            # twelve evaluations recorded the same eight rules
            assert store._conn.execute(sql).fetchone() == (8, 8)
            rules = store.stored_rules().rules
            changed = replace(rules[3], weight=rules[3].weight + 1)
            store.record_rules(RuleSet(rules[:3] + (changed,) + rules[4:]))
            assert store._conn.execute(sql).fetchone() == (8, 8)
            assert store._conn.execute(
                "SELECT rowid, weight FROM custom_rules WHERE rule_id = ?", (changed.id,)
            ).fetchone() == (4, changed.weight)
            assert store.stored_rules().rules == rules[:3] + (changed,) + rules[4:]


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
        ("import_aggregate_csv", AGGREGATE_CSV_HEADER,
         "web,0,64,40,45,,50.6,,2025-03-03T00:09:00+00:00",
         "web,1,64,40,45,39.34,50.6,,2025-03-03T01:09:00+00:00"),
        ("import_aggregate_csv", AGGREGATE_CSV_HEADER,
         "web,0,64,40,45,,50.6,,2025-03-03T00:09:00+00:00",
         "web,1,64,40,45,,99,,2025-03-03T01:09:00+00:00"),
    ], ids=["unparsable-run", "run-outside-schema", "aggregate-outside-schema",
            "aggregate-outside-components"])
    def test_bad_row_at_line_3_leaves_no_rows(self, tmp_path, importer, header, good, bad):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(header) + f"\n{good}\n{bad}\n")
        with open_store(tmp_path / "s.db") as store:
            with pytest.raises(ConstraintViolationError, match="bad.csv:3: "):
                getattr(store, importer)(path)
            assert len(store.audit_runs()) == len(store.aggregates()) == 0


class TestRuntimeSummary:
    def test_single_run(self, tmp_path):
        with open_store(tmp_path / "s.db") as store:
            store.record_audit_run(_run(runtime_seconds=10.0))
            summary = store.summarize_runtime()
            entry = summary.per_tool["lynis"]
            assert entry.average == pytest.approx(10.0)
            assert entry.total == pytest.approx(10.0)
            assert entry.count == 1
            assert summary.grand_total == pytest.approx(10.0)

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
            total = store.summarize_runtime().per_tool["aide"].total
            assert total == pytest.approx(3368.88, abs=0.001)
            assert total == pytest.approx(3368.91, abs=0.05)

    def test_totals_are_exact_sums(self, corpus_store):
        summary = corpus_store.summarize_runtime()
        runs = corpus_store.audit_runs()
        for tool, entry in summary.per_tool.items():
            runtimes = [r.runtime_seconds for r in runs if r.tool.value == tool]
            assert entry.count == len(runtimes)
            assert entry.total == pytest.approx(math.fsum(runtimes), rel=1e-12)
            assert entry.average * entry.count == pytest.approx(entry.total, abs=0.05)
        assert summary.grand_total == pytest.approx(
            math.fsum(r.runtime_seconds for r in runs), rel=1e-12
        )


class TestStoredAggregatesRederive:
    def test_standard_uca_rederives_from_components(self, corpus_store):
        aggregates = corpus_store.aggregates()
        assert aggregates
        for agg in aggregates:
            expected = compute_standard_uca(agg.lynis, agg.openscap, agg.aide)
            assert agg.standard_uca == pytest.approx(expected, abs=1e-9)


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
            assert len(store.audit_runs()) == 40
