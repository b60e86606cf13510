import hashlib
import json
import os
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from uca.cli import main
from uca.fixtures import (
    TOOL_FILE_NAMES,
    Profile,
    make_aide_fixture,
    make_lynis_fixture,
    make_snapshot,
    make_xccdf_fixture,
)
from uca.repository import AUDIT_CSV_HEADER, open_store
from uca.rules import default_rules, load_snapshot, rules_to_json, save_snapshot


@pytest.fixture()
def runner():
    return CliRunner()


def _ingest_triple(runner, store, tmp_path, node="web", iteration=0):
    (tmp_path / "lynis.dat").write_text(make_lynis_fixture(65))
    (tmp_path / "scap.xml").write_text(make_xccdf_fixture(72, 28, {}))
    (tmp_path / "aide.txt").write_text(make_aide_fixture(2, 1, 4))
    for tool, name in (("lynis", "lynis.dat"), ("openscap", "scap.xml"),
                       ("aide", "aide.txt")):
        result = runner.invoke(main, [
            "--store", str(store), "ingest", node, tool, str(tmp_path / name),
            "--iteration", str(iteration), "--runtime", "5.5",
        ])
        assert result.exit_code == 0, result.output


class TestIngest:
    def test_lynis_success(self, runner, tmp_path):
        path = tmp_path / "lynis.dat"
        path.write_text(make_lynis_fixture(64))
        store = tmp_path / "s.db"
        result = runner.invoke(main, ["--store", str(store), "ingest",
                                      "node1", "lynis", str(path)])
        assert result.exit_code == 0
        assert "normalized=64.00" in result.output
        with open_store(store) as handle:
            runs = handle.audit_runs()
            assert len(runs) == 1
            assert runs[0].normalized_score == 64.0

    def test_xccdf_normalized_value(self, runner, tmp_path):
        path = tmp_path / "scan.xml"
        path.write_text(make_xccdf_fixture(28, 12, {}))
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "ingest",
                                      "node1", "openscap", str(path)])
        assert result.exit_code == 0
        assert "normalized=70.00" in result.output

    def test_parse_failure_exits_2(self, runner, tmp_path):
        path = tmp_path / "aide.txt"
        path.write_text("garbage that is not an aide report\n")
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "ingest",
                                      "node1", "aide", str(path)])
        assert result.exit_code == 2
        assert "aide.txt" in result.output

    def test_missing_input_exits_1(self, runner, tmp_path):
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "ingest",
                                      "node1", "lynis", str(tmp_path / "absent.dat")])
        assert result.exit_code == 1

    def test_unwritable_store_exits_1(self, runner, tmp_path):
        path = tmp_path / "lynis.dat"
        path.write_text(make_lynis_fixture(64))
        result = runner.invoke(main, [
            "--store", str(tmp_path / "no" / "dir" / "s.db"),
            "ingest", "node1", "lynis", str(path),
        ])
        assert result.exit_code == 1

    def test_json_output(self, runner, tmp_path):
        path = tmp_path / "lynis.dat"
        path.write_text(make_lynis_fixture(80))
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"),
                                      "--format", "json", "ingest",
                                      "node1", "lynis", str(path)])
        payload = json.loads(result.output)
        assert payload["normalized_score"] == 80.0

    @pytest.mark.parametrize("tool", ["lynis", "openscap", "aide"])
    def test_non_utf8_input_exits_2(self, runner, tmp_path, tool):
        path = tmp_path / "bin.dat"
        path.write_bytes(b"\xff\xfe\x00bad")
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "ingest",
                                      "node1", tool, str(path)])
        assert result.exit_code == 2, result.output
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"Error: {path}: ")
        if tool != "openscap":
            assert "byte offset 0" in lines[0]
        assert not (tmp_path / "s.db").exists()

    def test_xccdf_streamed_from_file(self, runner, tmp_path):
        path = tmp_path / "scan.xml"
        path.write_text(make_xccdf_fixture(3000, 1000, {"notchecked": 5}))
        assert path.stat().st_size > 64 * 1024
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "ingest",
                                      "node1", "openscap", str(path)])
        assert result.exit_code == 0, result.output
        assert "normalized=75.00" in result.output


    def test_rule_definitions_without_results_exit_2(self, runner, tmp_path):
        path = tmp_path / "scan.xml"
        path.write_text(_oscap_results(rules=1000), encoding="utf-8")
        assert path.stat().st_size > 2 * 64 * 1024
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "ingest",
                                      "node1", "openscap", str(path)])
        assert result.exit_code == 2, result.output
        assert result.output == (f"Error: {path}: no rule-result elements in the document "
                                 "or after its last TestResult start\n")
        assert not (tmp_path / "s.db").exists()

    def test_utf16_and_entity_twins_score_the_same(self, runner, tmp_path):
        document = _oscap_results(*["pass"] * 70, *["fail"] * 30, "notchecked", rules=1000)
        first = document[document.index("<rule-result"):document.index("</rule-result>") + 14]
        entity = first.replace("<", "&#60;").replace('"', "'").replace("-result", "-&#114;esult")
        twins = {
            "utf8.xml": document.encode("utf-8"),
            "utf16.xml": document.replace('"UTF-8"', '"UTF-16"').encode("utf-16"),
            "entity.xml": document.replace(first, "&r0;").replace(
                "<Benchmark", f'<!DOCTYPE Benchmark [<!ENTITY r0 "{entity}">]>\n<Benchmark'
            ).encode("utf-8"),
        }
        assert twins["entity.xml"].count(b"rule-result") == 2 * 100
        scores = set()
        for name, data in twins.items():
            (tmp_path / name).write_bytes(data)
            assert len(data) > 2 * 64 * 1024
            result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "--format",
                                          "json", "ingest", name, "openscap",
                                          str(tmp_path / name)])
            assert result.exit_code == 0, result.output
            payload = json.loads(result.output)
            scores.add((payload["raw_score"], payload["normalized_score"]))
        assert scores == {(70.0, 70.0)}


def _oscap_results(*statuses: str, rules: int) -> str:
    """Results shaped like ``oscap xccdf eval --results`` output, in UTF-8:
    the Benchmark's Rule definitions, then one TestResult."""
    definitions = "".join(
        f'<Rule id="r{i}" severity="medium">\n<title>Règle {i}</title>\n'
        f"<description>Set option {i} to yes, or the check fails.</description>\n"
        f'<check system="oval"><check-content-ref name="oval:{i}:def:1"/></check>\n'
        "</Rule>\n" for i in range(rules))
    results = "".join(f'<rule-result idref="r{i}"><result>{status}</result></rule-result>\n'
                      for i, status in enumerate(statuses))
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            '<Benchmark xmlns="http://checklists.nist.gov/xccdf/1.2">\n'
            f"{definitions}<TestResult>\n{results}</TestResult>\n</Benchmark>\n")


def test_import_loads_no_tree_parser_or_network_client():
    import uca

    code = ("import sys, uca.cli; print(' '.join(m for m in "
            "('xml.etree', 'xml.etree.ElementTree', 'urllib.request', 'http.client') "
            "if m in sys.modules))")
    src = str(Path(uca.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


class TestScore:
    def test_standard_only(self, runner, tmp_path):
        store = tmp_path / "s.db"
        _ingest_triple(runner, store, tmp_path)
        result = runner.invoke(main, ["--store", str(store), "score", "web",
                                      "--iteration", "0"])
        assert result.exit_code == 0
        # 0.4*65 + 0.4*72 + 0.2*65 = 67.80
        assert "standard_uca=67.80" in result.output

    def test_with_snapshot_computes_extended(self, runner, tmp_path):
        store = tmp_path / "s.db"
        _ingest_triple(runner, store, tmp_path)
        snap_dir = tmp_path / "snap"
        save_snapshot(make_snapshot(Profile.FULL, node="web"), snap_dir)
        result = runner.invoke(main, ["--store", str(store), "score", "web",
                                      "--iteration", "0",
                                      "--snapshot", str(snap_dir)])
        assert result.exit_code == 0, result.output
        assert "custom=83.61" in result.output
        # 0.8*67.80 + 0.2*83.61 = 70.96
        assert "extended_uca=70.96" in result.output
        with open_store(store) as handle:
            aggs = handle.aggregates()
            assert len(aggs) == 1
            assert aggs[0].extended_uca == pytest.approx(70.962, abs=0.001)

    def test_rules_flag_requires_snapshot(self, runner, tmp_path):
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "score",
                                      "web", "--iteration", "0",
                                      "--rules", str(tmp_path)])
        assert result.exit_code == 2
        assert "--snapshot" in result.output

    def test_missing_runs(self, runner, tmp_path):
        store = tmp_path / "s.db"
        path = tmp_path / "lynis.dat"
        path.write_text(make_lynis_fixture(64))
        runner.invoke(main, ["--store", str(store), "ingest", "web", "lynis", str(path)])
        result = runner.invoke(main, ["--store", str(store), "score", "web",
                                      "--iteration", "0"])
        assert result.exit_code == 1
        assert "openscap" in result.output
        assert "aide" in result.output


class TestRulesCommand:
    def test_show_default_set(self, runner, tmp_path):
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "rules"])
        assert result.exit_code == 0
        assert "total weight: 61" in result.output

    def test_evaluate_snapshot(self, runner, tmp_path):
        snap_dir = tmp_path / "snap"
        save_snapshot(make_snapshot(Profile.PARTIAL), snap_dir)
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "rules",
                                      "--snapshot", str(snap_dir)])
        assert result.exit_code == 0
        assert "6 passed, 2 failed" in result.output
        assert "score 72.13%" in result.output

    def test_record_flag_persists(self, runner, tmp_path):
        store = tmp_path / "s.db"
        snap_dir = tmp_path / "snap"
        save_snapshot(make_snapshot(Profile.BASELINE), snap_dir)
        result = runner.invoke(main, ["--store", str(store), "rules",
                                      "--snapshot", str(snap_dir), "--record",
                                      "--iteration", "2"])
        assert result.exit_code == 0
        with open_store(store) as handle:
            # baseline's eight results: three pass
            assert handle.rule_tallies() == [("baseline", 3, 5, pytest.approx(39.34, abs=0.005))]
            # each result carries its rule's weight: the eight sum to the set's 61
            assert handle._conn.execute(
                "SELECT SUM(weight) FROM custom_rule_results").fetchone() == (61,)

    def test_json_format(self, runner, tmp_path):
        snap_dir = tmp_path / "snap"
        save_snapshot(make_snapshot(Profile.FULL), snap_dir)
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"),
                                      "--format", "json", "rules",
                                      "--snapshot", str(snap_dir)])
        payload = json.loads(result.output)
        assert payload["score_pct"] == 83.61
        assert len(payload["results"]) == 8

    def test_custom_rules_document(self, runner, tmp_path):
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps([{
            "id": "fw", "name": "firewall", "check_type": "firewall_active",
            "weight": 3, "params": {},
        }]))
        snap_dir = tmp_path / "snap"
        save_snapshot(make_snapshot(Profile.BASELINE), snap_dir)
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "rules",
                                      "--rules", str(rules_path),
                                      "--snapshot", str(snap_dir)])
        assert result.exit_code == 0
        assert "1 passed, 0 failed" in result.output
        assert "score 100.00%" in result.output

    def test_empty_rules_document_exits_1(self, runner, tmp_path):
        rules_path = tmp_path / "empty.json"
        rules_path.write_text("[]")
        snap_dir = tmp_path / "snap"
        save_snapshot(make_snapshot(Profile.FULL), snap_dir)
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "rules",
                                      "--rules", str(rules_path),
                                      "--snapshot", str(snap_dir)])
        assert result.exit_code == 1
        assert "Error: rules document must list at least one rule" in result.output

    def test_bad_rules_document_exits_1(self, runner, tmp_path):
        rules_path = tmp_path / "rules.json"
        rules_path.write_text("{\"not\": \"a list\"}")
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "rules",
                                      "--rules", str(rules_path)])
        assert result.exit_code == 1
        assert "top-level list" in result.output


class TestStatsCommand:
    def test_openscap_baseline_vs_full(self, runner, default_corpus):
        result = runner.invoke(main, ["--store", str(default_corpus.store_path),
                                      "--format", "json", "stats",
                                      "openscap", "baseline", "full"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["p_two_tailed"] < 0.001
        assert abs(payload["t"]) > 8
        assert payload["df"] == 22

    def test_unknown_node(self, runner, default_corpus):
        result = runner.invoke(main, ["--store", str(default_corpus.store_path),
                                      "stats", "openscap", "baseline", "mars"])
        assert result.exit_code == 1
        assert "mars" in result.output

    def test_welch_flag(self, runner, default_corpus):
        result = runner.invoke(main, ["--store", str(default_corpus.store_path),
                                      "--format", "json", "stats",
                                      "lynis", "baseline", "full", "--welch"])
        payload = json.loads(result.output)
        assert payload["welch"] is True
        assert payload["df"] <= 22


class TestReport:
    def test_empty_store_fails(self, runner, tmp_path):
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"),
                                      "--format", "json", "report"])
        assert result.exit_code == 1
        assert "no audit runs" in result.output

    def test_text_report(self, runner, default_corpus):
        result = runner.invoke(main, ["--store", str(default_corpus.store_path),
                                      "report"])
        assert result.exit_code == 0
        assert "Average security scores by node" in result.output
        assert "Custom rule results by node" in result.output
        assert "Tool runtime overhead" in result.output
        assert "Statistical significance" in result.output

    def test_json_report_rederives_from_store(self, runner, default_corpus):
        result = runner.invoke(main, ["--store", str(default_corpus.store_path),
                                      "--format", "json", "report"])
        payload = json.loads(result.output)
        assert payload["scores"]["custom"]["baseline"] == 39.34
        assert payload["scores"]["custom"]["full"] == 83.61
        with open_store(default_corpus.store_path) as store:
            from uca.stats import describe

            expected = round(describe(store.tool_scores("lynis", "full")).mean, 2)
        assert payload["scores"]["lynis"]["full"] == expected
        assert payload["runtime"]["grand_total_seconds"] == pytest.approx(4780.41)
        assert payload["significance"]["node_low"] == "baseline"
        assert payload["significance"]["node_high"] == "full"

    def test_report_idempotent(self, runner, default_corpus):
        args = ["--store", str(default_corpus.store_path), "--format", "json", "report"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_csv_dir_writes_tables_and_plot_data(self, runner, default_corpus, tmp_path):
        out = tmp_path / "report"
        result = runner.invoke(main, ["--store", str(default_corpus.store_path),
                                      "--format", "csv-dir", "report",
                                      "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        names = {p.name for p in out.iterdir()}
        assert names == {
            "table_scores.csv", "table_custom_rules.csv", "table_runtime.csv",
            "table_significance.csv", "plot_scores_by_node.csv",
            "plot_score_progression.csv", "plot_uca_comparison.csv",
            "plot_custom_rules.csv", "plot_runtime.csv",
        }
        progression = (out / "plot_score_progression.csv").read_text().splitlines()
        assert len(progression) == 1 + 108

    def test_seed_155_outputs_pinned(self, runner, default_corpus, tmp_path):
        out = tmp_path / "report"
        result = runner.invoke(main, ["--store", str(default_corpus.store_path),
                                      "--format", "csv-dir", "report",
                                      "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        files = b"".join(p.read_bytes() for p in sorted(out.iterdir()))
        assert hashlib.sha256(files).hexdigest() == (
            "d7187fcb2c2fb52dba982dd793a92a4530bff4b5c7b8abb444b5bbe946b26e6f")
        text = runner.invoke(main, ["--store", str(default_corpus.store_path), "report"])
        assert hashlib.sha256(text.stdout.encode()).hexdigest() == (
            "dfbf7173de906a8c098e16f87098c4f19c1373e924cd7e21b81cd5425aab7a01")

    def test_out_dir_under_a_file_exits_1(self, runner, default_corpus, tmp_path):
        (tmp_path / "blocker").write_text("")
        result = runner.invoke(main, ["--store", str(default_corpus.store_path),
                                      "report", "--out-dir",
                                      str(tmp_path / "blocker" / "x")])
        assert result.exit_code == 1
        assert result.output.startswith("Error: ")
        assert "blocker" in result.output

    def test_csv_dir_requires_out_dir(self, runner, default_corpus):
        result = runner.invoke(main, ["--store", str(default_corpus.store_path),
                                      "--format", "csv-dir", "report"])
        assert result.exit_code == 2

    def test_plot_data_stable_across_runs(self, runner, default_corpus, tmp_path):
        contents = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            runner.invoke(main, ["--store", str(default_corpus.store_path),
                                 "report", "--out-dir", str(out)])
            contents.append({
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            })
        assert contents[0] == contents[1]


class TestExport:
    def test_export_counts(self, runner, default_corpus, tmp_path):
        out = tmp_path / "exports"
        result = runner.invoke(main, ["--store", str(default_corpus.store_path),
                                      "export", "--out-dir", str(out)])
        assert result.exit_code == 0
        assert "audit_runs.csv (108 rows)" in result.output
        assert "aggregate_scores.csv (36 rows)" in result.output
        assert (out / "audit_runs.csv").exists()
        assert (out / "aggregate_scores.csv").exists()


class TestReadCommandsNeedAStore:
    """report, stats, export and score on a path with no store: one error line,
    exit 1, no store and no output created."""

    def _assert_nothing_created(self, runner, tmp_path, *argv):
        store = tmp_path / "nope.db"
        result = runner.invoke(main, ["--store", str(store), *argv])
        assert result.exit_code == 1
        assert _one_error_line(result), result.output
        assert str(store) in result.output and "no audit runs" in result.output
        assert not store.exists() and not (tmp_path / "out").exists()

    def test_report(self, runner, tmp_path):
        self._assert_nothing_created(runner, tmp_path, "--format", "csv-dir", "report",
                                     "--out-dir", str(tmp_path / "out"))

    def test_stats(self, runner, tmp_path):
        self._assert_nothing_created(runner, tmp_path, "stats", "lynis", "a", "b")

    def test_export(self, runner, tmp_path):
        self._assert_nothing_created(runner, tmp_path, "export", "--out-dir",
                                     str(tmp_path / "out"))

    def test_score(self, runner, tmp_path):
        self._assert_nothing_created(runner, tmp_path, "score", "web", "--iteration", "0")

    def test_newer_schema_version_exits_1(self, runner, tmp_path):
        path = tmp_path / "v4.db"
        with open_store(path) as store:
            store._conn.execute("PRAGMA user_version = 4")
        result = runner.invoke(main, ["--store", str(path), "report"])
        assert result.exit_code == 1
        assert _one_error_line(result), result.output
        assert "schema version 4" in result.output

    def test_empty_and_corrupt_stores_as_before(self, runner, tmp_path):
        empty, corrupt = tmp_path / "empty.db", tmp_path / "corrupt.db"
        open_store(empty).close()
        corrupt.write_bytes(b"not a database" * 100)
        result = runner.invoke(main, ["--store", str(empty), "export",
                                      "--out-dir", str(tmp_path / "ex")])
        assert result.exit_code == 0
        assert (tmp_path / "ex" / "audit_runs.csv").read_text() == ",".join(
            AUDIT_CSV_HEADER) + "\n"
        result = runner.invoke(main, ["--store", str(empty), "report"])
        assert result.exit_code == 1 and "ingest or generate" in result.output
        result = runner.invoke(main, ["--store", str(corrupt), "report"])
        assert result.exit_code == 1 and "not a database" in result.output


class TestFixturesCommand:
    def test_generate_with_spec_file(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "iterations": 2,
            "nodes": [{"name": "solo", "profile": "baseline"}],
        }))
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"),
                                      "--format", "json", "fixtures",
                                      "--out-dir", str(tmp_path / "corpus"),
                                      "--spec", str(spec_path), "--seed", "3"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["runs"] == 6
        assert payload["aggregates"] == 2
        assert payload["seed"] == 3

    def test_default_reproduces_reference_shape(self, runner, tmp_path):
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "fixtures",
                                      "--out-dir", str(tmp_path / "corpus")])
        assert result.exit_code == 0
        assert "108 runs, 36 aggregates" in result.output

    def test_cli_replay_writes_the_same_store(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"iterations": 3, "nodes": [
            {"name": "baseline", "profile": "baseline"},
            {"name": "full", "profile": "full"},
        ]}))
        generated, replayed = tmp_path / "generated.db", tmp_path / "replayed.db"
        corpus = tmp_path / "corpus"
        result = runner.invoke(main, ["--store", str(generated), "fixtures",
                                      "--out-dir", str(corpus), "--spec", str(spec_path)])
        assert result.exit_code == 0, result.output
        with open_store(generated) as store:
            runs = store.audit_runs()
        assert len(runs) == 18
        for run in runs:
            name = TOOL_FILE_NAMES[run.tool]
            result = runner.invoke(main, [
                "--store", str(replayed), "ingest", run.node, run.tool.value,
                str(corpus / "runs" / run.node / str(run.iteration) / name),
                "--iteration", str(run.iteration), "--phase", run.phase.value,
                "--timestamp", run.timestamp, "--runtime", repr(run.runtime_seconds),
            ])
            assert result.exit_code == 0, result.output
        for node, iteration in sorted({(run.node, run.iteration) for run in runs}):
            result = runner.invoke(main, [
                "--store", str(replayed), "score", node, "--iteration", str(iteration),
                "--snapshot", str(corpus / "snapshots" / node),
            ])
            assert result.exit_code == 0, result.output

        exports = []
        for store_path in (generated, replayed):
            out = tmp_path / f"export-{store_path.stem}"
            result = runner.invoke(main, ["--store", str(store_path), "export",
                                          "--out-dir", str(out)])
            assert result.exit_code == 0, result.output
            aggregates = (out / "aggregate_scores.csv").read_text().splitlines()
            with sqlite3.connect(store_path) as conn:
                rule_results = sorted(conn.execute(
                    "SELECT rule_id, node, iteration, passed, evidence"
                    " FROM custom_rule_results"))
            exports.append(((out / "audit_runs.csv").read_bytes(),
                            [line.rsplit(",", 1)[0] for line in aggregates],
                            rule_results))
        (audit, aggregates, rule_results), replay = exports
        assert len(aggregates) == 7 and len(rule_results) == 48
        assert replay == (audit, aggregates, rule_results)

    def test_unknown_spec_key_exits_1_and_writes_nothing(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"iteration": 5}))
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "fixtures",
                                      "--out-dir", str(tmp_path / "corpus"),
                                      "--spec", str(spec_path)])
        assert result.exit_code == 1
        assert _one_error_line(result), result.output
        assert "'iteration'" in result.output
        assert not (tmp_path / "s.db").exists() and not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("spec, named", [
        ({"nodes": [{"name": "a", "profile": "full", "iterations": 3}]}, "['iterations']"),
        ({"runtime_distributions": {"lynis": [30, 1, 99]}}, "runtime_distributions.lynis"),
        ({"score_distributions": {"a": {"aide": [0.5, 0.1, 2]}}},
         "score_distributions.a.aide"),
    ], ids=["node-key", "runtime-entry", "score-entry"])
    def test_nested_spec_error_exits_1_and_writes_nothing(self, runner, tmp_path, spec, named):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "fixtures",
                                      "--out-dir", str(tmp_path / "corpus"),
                                      "--spec", str(spec_path)])
        assert result.exit_code == 1
        assert _one_error_line(result), result.output
        assert named in result.output
        assert not (tmp_path / "s.db").exists() and not (tmp_path / "corpus").exists()

    def test_malformed_spec_structure(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"nodes": [{"profile": "baseline"}]}))
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "fixtures",
                                      "--out-dir", str(tmp_path / "corpus"),
                                      "--spec", str(spec_path)])
        assert result.exit_code == 1
        assert "invalid spec document" in result.output


class TestWeightConfiguration:
    def test_config_file_changes_blend(self, runner, tmp_path):
        store = tmp_path / "s.db"
        _ingest_triple(runner, store, tmp_path)
        snap_dir = tmp_path / "snap"
        save_snapshot(make_snapshot(Profile.FULL, node="web"), snap_dir)
        config = tmp_path / "weights.json"
        config.write_text(json.dumps({"w_custom": 0.5}))
        result = runner.invoke(main, ["--store", str(store), "--config", str(config),
                                      "--format", "json", "score", "web",
                                      "--iteration", "0",
                                      "--snapshot", str(snap_dir)])
        payload = json.loads(result.output)
        # 0.5*67.80 + 0.5*83.61
        assert payload["extended_uca"] == pytest.approx(75.70, abs=0.01)

    def test_flag_overrides_config(self, runner, tmp_path):
        store = tmp_path / "s.db"
        _ingest_triple(runner, store, tmp_path)
        snap_dir = tmp_path / "snap"
        save_snapshot(make_snapshot(Profile.FULL, node="web"), snap_dir)
        config = tmp_path / "weights.json"
        config.write_text(json.dumps({"w_custom": 0.5}))
        result = runner.invoke(main, ["--store", str(store), "--config", str(config),
                                      "--w-custom", "0.0", "--format", "json",
                                      "score", "web", "--iteration", "0",
                                      "--snapshot", str(snap_dir)])
        payload = json.loads(result.output)
        assert payload["extended_uca"] == pytest.approx(payload["standard_uca"], abs=0.01)

    def test_invalid_config_rejected(self, runner, tmp_path):
        config = tmp_path / "weights.json"
        config.write_text(json.dumps({"w_lynis": 0.9}))
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"),
                                      "--config", str(config), "rules"])
        assert result.exit_code == 1
        assert "sum to 1" in result.output


def _one_error_line(result) -> bool:
    lines = result.output.splitlines()
    return len(lines) == 1 and lines[0].startswith("Error: ")


class TestUnreadableJsonDocuments:
    @pytest.mark.parametrize("content", [b'["\xff"]', b"[" * 100_000],
                             ids=["not-utf8", "nested-too-deep"])
    @pytest.mark.parametrize("argv", [
        ["rules", "--rules", "{doc}"],
        ["fixtures", "--out-dir", "{out}", "--spec", "{doc}"],
        ["--config", "{doc}", "rules"],
    ], ids=["rules", "spec", "config"])
    def test_exits_1_with_one_error_line(self, runner, tmp_path, argv, content):
        doc = tmp_path / "doc.json"
        doc.write_bytes(content)
        argv = [a.format(doc=doc, out=tmp_path / "corpus") for a in argv]
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), *argv])
        assert result.exit_code == 1, result.output
        assert _one_error_line(result), result.output


@pytest.fixture()
def seed_155_copy(default_corpus, tmp_path):
    """A private copy of the seed-155 store, and the corpus it was made from."""
    store = tmp_path / "uca.db"
    shutil.copy(default_corpus.store_path, store)
    return store, default_corpus.corpus_dir


def _json_report(runner, store) -> str:
    result = runner.invoke(main, ["--store", str(store), "--format", "json", "report"])
    assert result.exit_code == 0, result.output
    return result.stdout


def _tree_hash(directory: Path) -> str:
    """sha256 of ``find . -type f | LC_ALL=C sort | xargs sha256sum``."""
    names = sorted("./" + p.relative_to(directory).as_posix()
                   for p in directory.rglob("*") if p.is_file())
    listing = "".join(hashlib.sha256((directory / name).read_bytes()).hexdigest()
                      + "  " + name + "\n" for name in names)
    return hashlib.sha256(listing.encode()).hexdigest()


class TestRepeatedAndFailedCommands:
    """Running a command again replaces what it wrote; a failed command writes
    nothing."""

    def test_score_again_leaves_report_unchanged(self, runner, seed_155_copy):
        store, corpus = seed_155_copy
        before = _json_report(runner, store)
        result = runner.invoke(main, [
            "--store", str(store), "score", "baseline", "--iteration", "11",
            "--snapshot", str(corpus / "snapshots" / "baseline"),
        ])
        assert result.exit_code == 0, result.output
        assert _json_report(runner, store) == before

    def test_ingest_again_leaves_stats_unchanged(self, runner, seed_155_copy):
        store, corpus = seed_155_copy
        stats_argv = ["--store", str(store), "--format", "json", "stats",
                      "openscap", "baseline", "full"]
        before = runner.invoke(main, stats_argv).stdout
        result = runner.invoke(main, [
            "--store", str(store), "ingest", "baseline", "openscap",
            str(corpus / "runs" / "baseline" / "3" / "openscap.xml"), "--iteration", "3",
        ])
        assert result.exit_code == 0, result.output
        after = runner.invoke(main, stats_argv).stdout
        assert json.loads(after)["n_a"] == 12
        assert after == before

    def test_reweighted_rules_rescore_only_their_evaluation(self, runner, seed_155_copy,
                                                            tmp_path):
        store, corpus = seed_155_copy
        reweighted = json.loads(rules_to_json(default_rules()))
        for entry in reweighted:
            entry["weight"] = 1
        rules_path = tmp_path / "r.json"
        rules_path.write_text(json.dumps(reweighted))
        result = runner.invoke(main, [
            "--store", str(store), "rules", "--rules", str(rules_path),
            "--snapshot", str(corpus / "snapshots" / "baseline"),
            "--iteration", "11", "--record",
        ])
        assert result.exit_code == 0, result.output
        rows = json.loads(_json_report(runner, store))["custom_rules"]
        # baseline passes 3 of 8 unit-weight rules; partial and full keep theirs
        assert [(row["node"], row["score_pct"]) for row in rows] == [
            ("baseline", 37.5), ("partial", 72.13), ("full", 83.61)]

    def test_failed_rules_record_writes_nothing(self, runner, seed_155_copy, tmp_path):
        store, corpus = seed_155_copy
        reweighted = json.loads(rules_to_json(default_rules()))
        for entry in reweighted:
            entry["weight"] = 1
        rules_path = tmp_path / "r.json"
        rules_path.write_text(json.dumps(reweighted))
        with open_store(store) as handle:
            results_before = handle._conn.execute("SELECT * FROM custom_rule_results").fetchall()
        report_before = _json_report(runner, store)
        result = runner.invoke(main, [
            "--store", str(store), "rules", "--rules", str(rules_path),
            "--snapshot", str(corpus / "snapshots" / "baseline"),
            "--iteration", "-1", "--record",
        ])
        assert result.exit_code == 1
        assert _one_error_line(result), result.output
        with open_store(store) as handle:
            assert handle._conn.execute(
                "SELECT * FROM custom_rule_results").fetchall() == results_before
        assert _json_report(runner, store) == report_before

    def test_locked_store_exits_1(self, runner, tmp_path, monkeypatch):
        path = tmp_path / "s.db"
        (tmp_path / "lynis.dat").write_text(make_lynis_fixture(64))
        open_store(path).close()
        blocker = sqlite3.connect(path, isolation_level=None)

        def open_then_lock(store_path):
            store = open_store(store_path)
            store._conn.execute("PRAGMA busy_timeout = 0")
            blocker.execute("BEGIN EXCLUSIVE")
            return store

        monkeypatch.setattr("uca.cli.open_store", open_then_lock)
        try:
            result = runner.invoke(main, ["--store", str(path), "ingest", "node1", "lynis",
                                          str(tmp_path / "lynis.dat")])
        finally:
            blocker.close()
        assert result.exit_code == 1
        assert _one_error_line(result), result.output
        assert "locked" in result.output

    def test_read_commands_on_a_read_only_store(self, runner, seed_155_copy, tmp_path,
                                                monkeypatch):
        store, _ = seed_155_copy
        before = store.read_bytes()
        store.chmod(0o444)
        # the superuser writes through file modes, so SQLite opens read-only too
        connect = sqlite3.connect
        monkeypatch.setattr(sqlite3, "connect", lambda path, **kwargs: connect(
            f"file:{path}?mode=ro", uri=True, **kwargs))
        assert hashlib.sha256(_json_report(runner, store).encode()).hexdigest() == (
            "5708f57abe7840678531243c2fbae8c871082d0d9fae08e07d77dcd3b0af034b")
        for argv in (["stats", "lynis", "baseline", "full"],
                     ["export", "--out-dir", str(tmp_path / "ex")]):
            result = runner.invoke(main, ["--store", str(store), *argv])
            assert result.exit_code == 0, result.output
        assert store.read_bytes() == before

    def test_read_commands_beside_a_write_transaction(self, runner, seed_155_copy):
        store, _ = seed_155_copy
        report_before = _json_report(runner, store)
        writer = sqlite3.connect(store, isolation_level=None)
        try:
            writer.execute("BEGIN IMMEDIATE")
            writer.execute("DELETE FROM audit_runs")
            # the committed state, read at once rather than after the busy timeout
            assert _json_report(runner, store) == report_before
            result = runner.invoke(main, ["--store", str(store), "stats", "lynis",
                                          "baseline", "full"])
            assert result.exit_code == 0, result.output
        finally:
            writer.close()

    @pytest.mark.parametrize("runs", [1, 2])
    def test_seed_155_hashes_pinned(self, runner, tmp_path, runs):
        # the three hashes ROADMAP.md records, also after a second generation
        # into the same store
        store = tmp_path / "uca.db"
        for _ in range(runs):
            result = runner.invoke(main, ["--store", str(store), "fixtures", "--out-dir",
                                          str(tmp_path / "corpus"), "--seed", "155"])
            assert result.exit_code == 0, result.output
        assert _tree_hash(tmp_path / "corpus") == (
            "ed864f0e135103f8d028d64f28252f1e137ad05c2f0cd8f91e528a8487e16aec")
        assert hashlib.sha256(_json_report(runner, store).encode()).hexdigest() == (
            "5708f57abe7840678531243c2fbae8c871082d0d9fae08e07d77dcd3b0af034b")
        result = runner.invoke(main, ["--store", str(store), "export", "--out-dir",
                                      str(tmp_path / "ex")])
        assert result.exit_code == 0, result.output
        exported = b"".join(p.read_bytes() for p in sorted((tmp_path / "ex").glob("*.csv")))
        assert hashlib.sha256(exported).hexdigest() == (
            "3d1b3d9ba6acae620447cfc2172391d95f55790c1ef0b6d1a094fc8a255752b8")


def _exports(runner, store, out) -> list[bytes]:
    result = runner.invoke(main, ["--store", str(store), "export", "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    return [(out / name).read_bytes() for name in ("audit_runs.csv", "aggregate_scores.csv")]


class TestVersion2Store:
    """A version-2 store is upgraded on its first writable open, to the same
    outputs; a read-only one is refused and left as it was."""

    def test_upgrades_on_open_with_the_same_outputs(self, runner, v2_store, default_corpus,
                                                    tmp_path):
        seed_store = default_corpus.store_path
        assert _json_report(runner, v2_store) == _json_report(runner, seed_store)
        assert _exports(runner, v2_store, tmp_path / "v2") == _exports(
            runner, seed_store, tmp_path / "new")
        with sqlite3.connect(v2_store) as conn:
            assert conn.execute("PRAGMA user_version").fetchone() == (3,)
            assert conn.execute(
                "SELECT name FROM sqlite_master WHERE name LIKE '%custom_rules%'").fetchall() == []

    def test_read_only_store_exits_1_unchanged(self, runner, v2_store, monkeypatch):
        before = v2_store.read_bytes()
        connect = sqlite3.connect
        monkeypatch.setattr(sqlite3, "connect", lambda path, **kwargs: connect(
            f"file:{path}?mode=ro", uri=True, **kwargs))
        result = runner.invoke(main, ["--store", str(v2_store), "--format", "json", "report"])
        assert result.exit_code == 1
        assert _one_error_line(result), result.output
        assert "readonly" in result.output
        assert v2_store.read_bytes() == before


class TestLocaleIndependentFiles:
    """Files are written as UTF-8 whatever the locale's encoding."""

    _ENV = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}

    def _run(self, *argv, cwd):
        import uca

        src = str(Path(uca.__file__).resolve().parents[1])
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              cwd=cwd, env={**os.environ, **self._ENV, "PYTHONPATH": src},
                              timeout=60)

    def test_report_csvs(self, runner, tmp_path):
        store = tmp_path / "s.db"
        _ingest_triple(runner, store, tmp_path, node="b\u00e4se")
        proc = self._run("-m", "uca.cli", "--store", str(store), "report", "--out-dir", "out",
                         cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "plot_scores_by_node.csv").read_text(
            encoding="utf-8").splitlines()[1].startswith("b\u00e4se,")

    def test_save_snapshot(self, tmp_path):
        code = ("from uca.rules import NodeSnapshot, save_snapshot; save_snapshot(NodeSnapshot("
                "'n\\u00e4', files={'/etc/motd': 'Gr\\u00fc\\u00dfe'},"
                " services={'d\\u00e4mon': 'active'}), 'snap')")
        proc = self._run("-c", code, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        snapshot = load_snapshot(tmp_path / "snap")
        assert (snapshot.node, snapshot.files, snapshot.services) == (
            "n\u00e4", {"/etc/motd": "Gr\u00fc\u00dfe"}, {"d\u00e4mon": "active"})
