import hashlib
import json
import math
import os
import shutil
import sqlite3
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import damage_key_index
from uca import report as report_mod
from uca import stats
from uca.cli import main
from uca.fixtures import (
    TOOL_FILE_NAMES,
    Profile,
    make_aide_fixture,
    make_lynis_fixture,
    make_snapshot,
    make_xccdf_fixture,
)
from uca.errors import ConstraintViolationError, CorruptStoreError, StoreIOError
from uca.pipeline import score_iteration
from uca.repository import AUDIT_CSV_HEADER, AuditRun, Phase, Store, open_store, write_csv
from uca.rules import default_rules, load_snapshot, save_snapshot
from uca.scoring import DEFAULT_WEIGHTS, Tool


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
            runs = list(handle.score_rows())
            assert len(runs) == 1
            assert runs[0][3] == 64.0

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

    def test_timestamp_not_iso_exits_1_and_writes_no_run(self, runner, tmp_path):
        path = tmp_path / "lynis.dat"
        path.write_text(make_lynis_fixture(64))
        store = tmp_path / "s.db"
        result = runner.invoke(main, ["--store", str(store), "ingest", "node1", "lynis",
                                      str(path), "--timestamp", "t"])
        assert result.exit_code == 1
        assert _one_error_line(result), result.output
        assert "ISO-8601" in result.output
        with open_store(store) as handle:
            assert list(handle.score_rows()) == []

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
            [(extended,)] = handle._conn.execute(
                "SELECT extended_uca FROM aggregate_scores").fetchall()
            assert extended == pytest.approx(70.962, abs=0.001)

    def test_rules_document_scores_the_snapshot(self, runner, tmp_path):
        store = tmp_path / "s.db"
        _ingest_triple(runner, store, tmp_path)
        snap_dir = tmp_path / "snap"
        save_snapshot(make_snapshot(Profile.FULL, node="web"), snap_dir)
        result = runner.invoke(main, ["--store", str(store), "score", "web",
                                      "--iteration", "0", "--rules",
                                      str(_unit_weight_rules(tmp_path / "r.json")),
                                      "--snapshot", str(snap_dir)])
        assert result.exit_code == 0, result.output
        # 7 of the 8 rules pass on the full snapshot, each of weight 1
        assert "custom=87.50" in result.output
        with open_store(store) as handle:
            assert handle._conn.execute(
                "SELECT COUNT(*), SUM(weight) FROM custom_rule_results").fetchone() == (8, 8)

    def test_rules_document_is_read_before_the_snapshot(self, runner, tmp_path):
        rules_path = tmp_path / "r.json"
        rules_path.write_text("[]")
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "score", "web",
                                      "--iteration", "0", "--rules", str(rules_path),
                                      "--snapshot", str(tmp_path / "missing")])
        assert result.exit_code == 1
        assert result.output == "Error: a rule set must list at least one rule\n"

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
        # a node has a summary, which holds its tally, once it has a run
        with open_store(store) as handle:
            handle.record_audit_run(AuditRun("baseline", Tool.LYNIS, "2025-03-03T00:00:00+00:00",
                                             0, Phase.PRE, 64.0, 64.0, 1.0))
        result = runner.invoke(main, ["--store", str(store), "rules",
                                      "--snapshot", str(snap_dir), "--record",
                                      "--iteration", "2"])
        assert result.exit_code == 0
        with open_store(store) as handle:
            # baseline's eight results: three pass
            assert handle._conn.execute(
                "SELECT node, passed, failed, score_pct FROM node_summary"
            ).fetchall() == [("baseline", 3, 5, pytest.approx(39.34, abs=0.005))]
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
        assert "Error: a rule set must list at least one rule" in result.output

    def test_bad_rules_document_exits_1(self, runner, tmp_path):
        rules_path = tmp_path / "rules.json"
        rules_path.write_text("{\"not\": \"a list\"}")
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "rules",
                                      "--rules", str(rules_path)])
        assert result.exit_code == 1
        assert result.output == "Error: rules document: expected a JSON array, got object\n"

    @pytest.mark.parametrize("flag, exit_code, output", [
        ('"false"', 1, "Error: rule 'tries': params.expected_is_regex:"
                       " expected a JSON boolean, got string\n"),
        ("0", 1, "Error: rule 'tries': params.expected_is_regex:"
                 " expected a JSON boolean, got integer\n"),
        ("false", 0, "FAIL  tries                      MaxAuthTries 3\n"
                     "full: 0 passed, 1 failed, score 0.00%\n"),
        ("true", 0, "PASS  tries                      MaxAuthTries 3\n"
                    "full: 1 passed, 0 failed, score 100.00%\n"),
    ], ids=["string", "integer", "false", "true"])
    def test_expected_is_regex_is_a_json_boolean(self, runner, tmp_path, flag, exit_code,
                                                 output):
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(
            '[{"id": "tries", "name": "tries", "check_type": "config_directive", "weight": 2,'
            ' "params": {"path": "/etc/ssh/sshd_config", "key": "MaxAuthTries",'
            f' "expected": "[1-4]", "expected_is_regex": {flag}}}}}]')
        snap_dir = tmp_path / "snap"
        save_snapshot(make_snapshot(Profile.FULL), snap_dir)
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "rules",
                                      "--rules", str(rules_path), "--snapshot", str(snap_dir)])
        assert (result.exit_code, result.output) == (exit_code, output)


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

    @pytest.mark.parametrize("node_a, node_b, named", [
        ("nosuch", "alsonot", "no runs recorded for node 'nosuch'"),
        ("baseline", "nosuch", "no runs recorded for node 'nosuch'"),
    ])
    def test_first_unknown_node_is_named(self, runner, default_corpus, node_a, node_b,
                                         named):
        result = runner.invoke(main, ["--store", str(default_corpus.store_path),
                                      "stats", "lynis", node_a, node_b])
        assert result.exit_code == 1
        assert _one_error_line(result), result.output
        assert named in result.output

    def test_tool_without_runs(self, runner, tmp_path):
        store = tmp_path / "s.db"
        (tmp_path / "lynis.dat").write_text(make_lynis_fixture(64))
        for node in ("a", "b"):
            result = runner.invoke(main, ["--store", str(store), "ingest", node, "lynis",
                                          str(tmp_path / "lynis.dat")])
            assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["--store", str(store), "stats", "aide", "a", "b"])
        assert result.exit_code == 1
        assert _one_error_line(result), result.output
        assert "no runs recorded for tool 'aide'" in result.output

    def test_node_without_runs_of_the_tool(self, runner, tmp_path):
        store = tmp_path / "s.db"
        (tmp_path / "lynis.dat").write_text(make_lynis_fixture(64))
        (tmp_path / "aide.txt").write_text(make_aide_fixture(1, 0, 0))
        ingests = [(node, "lynis", "lynis.dat", i) for node in ("a", "b") for i in (0, 1)]
        ingests += [("a", "aide", "aide.txt", i) for i in (0, 1)]
        for node, tool, name, iteration in ingests:
            result = runner.invoke(main, ["--store", str(store), "ingest", node, tool,
                                          str(tmp_path / name), "--iteration", str(iteration)])
            assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["--store", str(store), "stats", "aide", "a", "b"])
        assert result.exit_code == 1
        assert _one_error_line(result), result.output
        assert "no aide runs recorded for node 'b'" in result.output

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

            expected = round(describe(report_mod.tool_samples(store, "full")["full", "lynis"]).mean, 2)
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
        path = tmp_path / "v5.db"
        with open_store(path) as store:
            store._conn.execute("PRAGMA user_version = 5")
        result = runner.invoke(main, ["--store", str(path), "report"])
        assert result.exit_code == 1
        assert _one_error_line(result), result.output
        assert "schema version 5" in result.output

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
            runs = store._conn.execute(
                "SELECT node, tool, iteration, phase, timestamp, runtime_seconds"
                " FROM audit_runs ORDER BY node, tool, iteration").fetchall()
        assert len(runs) == 18
        for node, tool, iteration, phase, timestamp, runtime_seconds in runs:
            name = TOOL_FILE_NAMES[Tool(tool)]
            result = runner.invoke(main, [
                "--store", str(replayed), "ingest", node, tool,
                str(corpus / "runs" / node / str(iteration) / name),
                "--iteration", str(iteration), "--phase", phase,
                "--timestamp", timestamp, "--runtime", repr(runtime_seconds),
            ])
            assert result.exit_code == 0, result.output
        for node, iteration in sorted({(run[0], run[2]) for run in runs}):
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
        ({"nodes": [{"name": "a", "profile": "full"}],
          "score_distributions": {"b": {"lynis": [10, 1]}}}, "unknown nodes ['b']"),
    ], ids=["node-key", "runtime-entry", "score-entry", "score-node"])
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

    def test_duplicate_node_names_exit_1_and_write_nothing(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"iterations": 2, "nodes": [
            {"name": "a", "profile": "full"}, {"name": "a", "profile": "baseline"}]}))
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "fixtures",
                                      "--out-dir", str(tmp_path / "corpus"),
                                      "--spec", str(spec_path)])
        assert result.exit_code == 1
        assert result.output == "Error: invalid spec document: duplicate node names ['a']\n"
        assert not (tmp_path / "s.db").exists() and not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("spec, message", [
        ({"nodes": []}, "corpus needs at least one node"),
        ({"scap_total_rules": 0}, "scap_total_rules must be >= 1"),
        ({"runtime_distributions": {"aide": [1, 0]}}, "missing runtime distribution for lynis"),
        ({"runtime_distributions": {"lynis": [1, 0], "openscap": [1, 0], "aide": [1, -1]}},
         "negative runtime sd for aide"),
    ], ids=["no-nodes", "no-scap-rules", "missing-runtime", "negative-runtime-sd"])
    def test_out_of_range_spec_exits_1_and_writes_nothing(self, runner, tmp_path, spec,
                                                          message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "fixtures",
                                      "--out-dir", str(tmp_path / "corpus"),
                                      "--spec", str(spec_path)])
        assert result.exit_code == 1
        assert result.output == f"Error: {message}\n"
        assert not (tmp_path / "s.db").exists() and not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("spec, message", [
        ('{"iterations": 2.5}', "iterations: expected a JSON integer, got number"),
        ('{"iterations": true}', "iterations: expected a JSON integer, got boolean"),
        ('{"iterations": "3"}', "iterations: expected a JSON integer, got string"),
        ('{"seed": 1.9}', "seed: expected a JSON integer, got number"),
        ('{"nodes": [{"name": 5, "profile": "full"}]}',
         "nodes[0].name: expected a JSON string, got integer"),
        ('{"scap_total_rules": 1e2}', "scap_total_rules: expected a JSON integer, got number"),
        ('{"runtime_distributions": {"aide": [1%s, 0]}}' % ("0" * 400),
         "runtime_distributions.aide is [1%s, 0], not [mean, sd]" % ("0" * 400)),
    ], ids=["iterations-float", "iterations-bool", "iterations-string", "seed-float",
            "node-name-integer", "scap-rules-exponent", "runtime-past-a-float"])
    def test_value_of_wrong_json_type_exits_1_and_writes_nothing(self, runner, tmp_path, spec,
                                                                message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec)
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "fixtures",
                                      "--out-dir", str(tmp_path / "corpus"),
                                      "--spec", str(spec_path)])
        assert (result.exit_code, result.output) == (
            1, f"Error: invalid spec document: {message}\n")
        assert not (tmp_path / "s.db").exists() and not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("name", ["../../escaped", "", ".", "..", "a/b", "a\u0000b",
                                      "x" * 300, "\u00e9" * 128, "\udcff"],
                             ids=["escapes", "empty", "dot", "dot-dot", "slash", "nul",
                                  "over-255-bytes", "over-255-utf8-bytes", "lone-surrogate"])
    def test_node_name_that_is_no_directory_name_exits_1_and_writes_nothing(
            self, runner, tmp_path, name):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"iterations": 1,
                                         "nodes": [{"name": name, "profile": "full"}]}))
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), "fixtures",
                                      "--out-dir", str(tmp_path / "out" / "corpus"),
                                      "--spec", str(spec_path)])
        assert (result.exit_code, result.output) == (
            1, f"Error: invalid spec document: nodes[0].name: {name!r}"
               " is not a directory name\n")
        assert [path.name for path in tmp_path.iterdir()] == ["spec.json"]

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

    @pytest.mark.parametrize("document", ["[0.4, 0.4, 0.2]", "0.5", '"w_lynis"', "null"])
    def test_config_not_an_object_exits_1(self, runner, tmp_path, document):
        config = tmp_path / "weights.json"
        config.write_text(document)
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"),
                                      "--config", str(config), "rules"])
        got = {list: "array", float: "number", str: "string"}.get(type(json.loads(document)),
                                                                  "null")
        assert result.exit_code == 1
        assert result.output == f"Error: config {config}: expected a JSON object, got {got}\n"

    @pytest.mark.parametrize("config, message", [
        ('{"w_lynis": "0.4", "w_openscap": 0.4, "w_aide": 0.2}',
         "w_lynis: expected a JSON number, got string"),
        ('{"w_custom": true}', "w_custom: expected a JSON number, got boolean"),
        ('{"w_custom": 1%s}' % ("0" * 400), "w_custom: int too large to convert to float"),
    ], ids=["string", "bool", "integer-past-a-float"])
    def test_config_value_of_wrong_json_type_exits_1(self, runner, tmp_path, config, message):
        path = tmp_path / "weights.json"
        path.write_text(config)
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"),
                                      "--config", str(path), "rules"])
        assert (result.exit_code, result.output) == (1, f"Error: {message}\n")

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


class TestMissingInputFiles:
    @pytest.mark.parametrize("argv", [
        ["--config", "{missing}", "rules"],
        ["score", "web", "--iteration", "0", "--rules", "{missing}", "--snapshot", "{snap}"],
        ["score", "web", "--iteration", "0", "--snapshot", "{missing}"],
        ["rules", "--rules", "{missing}", "--snapshot", "{snap}", "--record"],
        ["rules", "--snapshot", "{missing}", "--record"],
        ["fixtures", "--out-dir", "{out}", "--spec", "{missing}"],
    ], ids=["config", "score-rules", "score-snapshot", "rules-rules", "rules-snapshot",
            "spec"])
    def test_exits_1_with_one_error_line_and_writes_nothing(self, runner, tmp_path, argv):
        # as a missing ingest input does, through the one error -> exit-code rule
        save_snapshot(make_snapshot(Profile.FULL), tmp_path / "snap")
        missing = tmp_path / "missing"
        argv = [a.format(missing=missing, snap=tmp_path / "snap", out=tmp_path / "out")
                for a in argv]
        result = runner.invoke(main, ["--store", str(tmp_path / "s.db"), *argv])
        assert result.exit_code == 1, result.output
        assert _one_error_line(result) and str(missing) in result.output, result.output
        assert [path.name for path in tmp_path.iterdir()] == ["snap"]


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


def _unit_weight_rules(path: Path) -> Path:
    """Write the default rules as a JSON rules document, every weight 1."""
    path.write_text(json.dumps([
        {"id": r.id, "name": r.name, "check_type": r.check_type.value, "weight": 1,
         "params": dict(r.params)}
        for r in default_rules().rules]))
    return path


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

    def test_infinite_runtime_exits_1_and_writes_nothing(self, runner, seed_155_copy):
        store, corpus = seed_155_copy
        before = _json_report(runner, store)
        with open_store(store) as handle:
            count = handle._conn.execute("SELECT count(*) FROM audit_runs").fetchone()
        result = runner.invoke(main, [
            "--store", str(store), "ingest", "baseline", "lynis",
            str(corpus / "runs" / "baseline" / "0" / "lynis.dat"), "--iteration", "12",
            "--runtime", "inf",
        ])
        assert result.exit_code == 1
        assert _one_error_line(result), result.output
        with open_store(store) as handle:
            assert handle._conn.execute("SELECT count(*) FROM audit_runs").fetchone() == count
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
        rules_path = _unit_weight_rules(tmp_path / "r.json")
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
        rules_path = _unit_weight_rules(tmp_path / "r.json")
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
            "b80fd87eeec150c80c7757b150124f5b58b113c3a02d9a5bb46a965f89bb50ec")

    def test_exported_and_imported_store_reports_the_same(self, runner, seed_155_copy,
                                                          tmp_path):
        # every score mean, runtime figure and significance row survives an export
        # and an import; rule results are not exported, so the rule table is empty
        store, _ = seed_155_copy
        original = _json_report(runner, store)
        result = runner.invoke(main, ["--store", str(store), "export", "--out-dir",
                                      str(tmp_path / "ex")])
        assert result.exit_code == 0, result.output
        with open_store(tmp_path / "imported.db") as imported:
            assert imported.import_audit_csv(tmp_path / "ex" / "audit_runs.csv") == 108
            assert imported.import_aggregate_csv(tmp_path / "ex" / "aggregate_scores.csv") == 36
        report = json.loads(_json_report(runner, tmp_path / "imported.db"))
        rules = json.loads(original)["custom_rules"]
        assert report["custom_rules"] == [] and len(rules) == 3
        assert json.dumps({**report, "custom_rules": rules}, indent=2) + "\n" == original


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
            assert conn.execute("PRAGMA user_version").fetchone() == (4,)
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


def _summary_table(path) -> list[tuple]:
    with closing(sqlite3.connect(path)) as conn:
        return conn.execute("SELECT * FROM node_summary ORDER BY node").fetchall()


class TestVersion3Store:
    def test_upgrade_fills_the_summary_with_the_same_outputs(self, runner, v3_store,
                                                             default_corpus, tmp_path):
        seed_store = default_corpus.store_path
        assert _json_report(runner, v3_store) == _json_report(runner, seed_store)
        assert _exports(runner, v3_store, tmp_path / "v3") == _exports(
            runner, seed_store, tmp_path / "new")
        with sqlite3.connect(v3_store) as conn:
            assert conn.execute("PRAGMA user_version").fetchone() == (4,)
        with open_store(v3_store) as store:
            assert _summary_table(v3_store) == store.derive_summaries()
        assert [row[0] for row in _summary_table(v3_store)] == ["baseline", "full", "partial"]


class TestAnotherClientsWrite:
    def test_raw_update_shows_in_the_report(self, runner, seed_155_copy):
        """A client without uca's code changes a score: its trigger deletes the
        node's summary, and the report derives it again from the rows."""
        store, _ = seed_155_copy
        before = json.loads(_json_report(runner, store))
        with sqlite3.connect(store) as conn:
            conn.execute("UPDATE audit_runs SET normalized_score = 100.0"
                         " WHERE node = 'baseline' AND tool = 'lynis' AND iteration = 0")
            scores = [score for (score,) in conn.execute(
                "SELECT normalized_score FROM audit_runs"
                " WHERE node = 'baseline' AND tool = 'lynis'")]
        conn.close()
        report = json.loads(_json_report(runner, store))
        expected = round(math.fsum(scores) / len(scores), 2)
        assert report["scores"]["lynis"]["baseline"] == expected
        assert expected != before["scores"]["lynis"]["baseline"]
        # the read wrote nothing; the next write refills
        assert [row[0] for row in _summary_table(store)] == ["full", "partial"]
        with open_store(store) as handle:
            handle.record_audit_run(AuditRun("full", Tool.AIDE, "2025-03-03T12:00:00+00:00",
                                             0, Phase.PRE, 50.0, 50.0, 1.0))
            assert _summary_table(store) == handle.derive_summaries()

    def test_raw_insert_of_a_new_node_shows_in_stats(self, runner, seed_155_copy):
        """A client without uca's code records the runs of a new node, which
        then has no summary row: stats still finds the node and its tool."""
        store, _ = seed_155_copy
        scores = [70.0, 74.0, 71.0]
        with closing(sqlite3.connect(store)) as conn, conn:
            conn.executemany(
                "INSERT INTO audit_runs (node, tool, timestamp, iteration, phase, raw_score,"
                " normalized_score, runtime_seconds) VALUES ('newcomer', 'lynis',"
                " '2025-03-03T00:00:00+00:00', ?, 'iteration', ?, ?, 1.0)",
                [(iteration, score, score) for iteration, score in enumerate(scores)])
        assert "newcomer" not in [row[0] for row in _summary_table(store)]
        result = runner.invoke(main, ["--store", str(store), "--format", "json", "stats",
                                      "lynis", "baseline", "newcomer"])
        assert result.exit_code == 0, result.output
        with open_store(store) as handle:
            baseline = report_mod.tool_samples(handle, "baseline")["baseline", "lynis"]
        expected = report_mod.round_t_test(stats.pooled_t_test(baseline, scores))
        assert json.loads(result.stdout) == {
            "tool": "lynis", "node_a": "baseline", "node_b": "newcomer",
            "n_a": 12, "n_b": 3, **expected, "welch": False}
        for tool in ("openscap", "aide"):
            result = runner.invoke(main, ["--store", str(store), "stats", tool, "baseline",
                                          "newcomer"])
            assert result.exit_code == 1
            assert f"no {tool} runs recorded for node 'newcomer'" in result.output


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


# --- outputs pinned byte for byte ---------------------------------------------

_HELP = (
    'Usage: main [OPTIONS] COMMAND [ARGS]...\n'
    '\n'
    '  Aggregate Linux security-audit outputs into unified compliance scores.\n'
    '\n'
    'Options:\n'
    '  --store PATH                  Path to the SQLite store.  [default: uca.db]\n'
    '  --config PATH                 JSON file overriding score weights.\n'
    '  --format [text|json|csv-dir]  Output format.  [default: text]\n'
    '  --w-lynis FLOAT               Override Lynis weight.\n'
    '  --w-openscap FLOAT            Override OpenSCAP weight.\n'
    '  --w-aide FLOAT                Override AIDE weight.\n'
    '  --w-custom FLOAT              Override custom blend weight.\n'
    '  --aide-penalty FLOAT          Override integrity points lost per changed\n'
    '                                entry.\n'
    '  --help                        Show this message and exit.\n'
    '\n'
    'Commands:\n'
    '  export    Write audit_runs.csv and aggregate_scores.csv.\n'
    '  fixtures  Generate a synthetic audit corpus and record it into the store.\n'
    '  ingest    Parse one tool output file and record the run.\n'
    '  report    Emit the four summary tables plus plot-data CSVs.\n'
    '  rules     Show the rule set, or evaluate it against a snapshot.\n'
    '  score     Combine the three recorded tool runs into unified scores.\n'
    "  stats     Two-sample t-test of a tool's scores between two nodes (b - a).\n"
)

_SCORE_JSON = (
    '{\n'
    '  "id": 1,\n'
    '  "node": "web",\n'
    '  "iteration": 0,\n'
    '  "lynis": 65.0,\n'
    '  "openscap": 72.0,\n'
    '  "aide": 65.0,\n'
    '  "standard_uca": 67.8,\n'
    '  "custom": null,\n'
    '  "extended_uca": null\n'
    '}\n'
)

_SCORE_SNAPSHOT_JSON = (
    '{\n'
    '  "id": 1,\n'
    '  "node": "web",\n'
    '  "iteration": 0,\n'
    '  "lynis": 65.0,\n'
    '  "openscap": 72.0,\n'
    '  "aide": 65.0,\n'
    '  "standard_uca": 67.8,\n'
    '  "custom": 83.61,\n'
    '  "extended_uca": 70.96\n'
    '}\n'
)

_STATS_OPENSCAP_TEXT = (
    'openscap: full - baseline  diff=+32.79  t=14.50  df=22  p=<0.001  d=5.92\n')

_STATS_OPENSCAP_JSON = (
    '{\n'
    '  "tool": "openscap",\n'
    '  "node_a": "baseline",\n'
    '  "node_b": "full",\n'
    '  "n_a": 12,\n'
    '  "n_b": 12,\n'
    '  "mean_diff": 32.79,\n'
    '  "t": 14.5027,\n'
    '  "df": 22.0,\n'
    '  "p_two_tailed": 0.0,\n'
    '  "cohens_d": 5.9207,\n'
    '  "welch": false\n'
    '}\n'
)

_STATS_AIDE_WELCH_TEXT = (
    'aide: full - baseline  diff=-11.67  t=-1.76  df=18.7614  p=0.095  d=-0.72\n')


class TestOutputsPinned:
    def test_help(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        assert result.output == _HELP

    def test_score_json(self, runner, tmp_path):
        store = tmp_path / "s.db"
        _ingest_triple(runner, store, tmp_path)
        argv = ["--store", str(store), "--format", "json", "score", "web", "--iteration", "0"]
        result = runner.invoke(main, argv)
        assert (result.exit_code, result.output) == (0, _SCORE_JSON)
        save_snapshot(make_snapshot(Profile.FULL, node="web"), tmp_path / "snap")
        result = runner.invoke(main, [*argv, "--snapshot", str(tmp_path / "snap")])
        assert (result.exit_code, result.output) == (0, _SCORE_SNAPSHOT_JSON)

    @pytest.mark.parametrize("argv, expected", [
        (["stats", "openscap", "baseline", "full"], _STATS_OPENSCAP_TEXT),
        (["--format", "json", "stats", "openscap", "baseline", "full"], _STATS_OPENSCAP_JSON),
        (["stats", "aide", "baseline", "full", "--welch"], _STATS_AIDE_WELCH_TEXT),
    ], ids=["openscap-text", "openscap-json", "aide-welch-text"])
    def test_stats(self, runner, default_corpus, argv, expected):
        result = runner.invoke(main, ["--store", str(default_corpus.store_path), *argv])
        assert (result.exit_code, result.output) == (0, expected)


# Every command's --format json output, as argv templates over the seed-155 copy
# and its corpus.
_JSON_COMMANDS = {
    "ingest": ["ingest", "baseline", "lynis", "{corpus}/runs/baseline/0/lynis.dat",
               "--iteration", "11"],
    "score": ["score", "baseline", "--iteration", "0"],
    "score-snapshot": ["score", "baseline", "--iteration", "0",
                       "--snapshot", "{corpus}/snapshots/baseline"],
    "rules": ["rules"],
    "rules-snapshot": ["rules", "--snapshot", "{corpus}/snapshots/full"],
    "stats": ["stats", "lynis", "baseline", "full"],
    "stats-welch": ["stats", "aide", "baseline", "full", "--welch"],
    "export": ["export", "--out-dir", "{tmp}/ex"],
    "fixtures": ["fixtures", "--out-dir", "{tmp}/fx"],
    "report": ["report"],
}


@pytest.mark.parametrize("command", _JSON_COMMANDS)
def test_json_output_is_laid_out_as_json_dumps_lays_it_out(runner, seed_155_copy, tmp_path,
                                                          command):
    """Each command's JSON is the stdlib's 2-space indented, ASCII-escaped text of
    the value it holds, whichever writer wrote it."""
    store, corpus = seed_155_copy
    argv = [arg.format(corpus=corpus, tmp=tmp_path) for arg in _JSON_COMMANDS[command]]
    result = runner.invoke(main, ["--store", str(store), "--format", "json", *argv])
    assert result.exit_code == 0, result.output
    assert result.stdout == json.dumps(json.loads(result.stdout), indent=2) + "\n"


# One command per way into the store, as argv templates over the seed-155 copy
# and its corpus, with the table whose key index each one reads or checks.
_STORE_COMMANDS = {
    "report": (["report"], "audit_runs"),
    "stats": (["stats", "lynis", "baseline", "full"], "audit_runs"),
    "export": (["export", "--out-dir", "{tmp}/ex"], "audit_runs"),
    "ingest": (["ingest", "baseline", "lynis", "{corpus}/runs/baseline/0/lynis.dat",
                "--iteration", "11"], "audit_runs"),
    "score": (["score", "baseline", "--iteration", "0"], "audit_runs"),
    "rules-record": (["rules", "--snapshot", "{corpus}/snapshots/full", "--node", "baseline",
                      "--record"], "custom_rule_results"),
}


# Each command that writes files, as an argv template over its out dir, with a
# file whose rows it reads from the store as it writes them: export's second,
# once its first is complete, and the report's score progression.
_FILE_COMMANDS = {
    "export": (["export", "--out-dir", "{out}"], "aggregate_scores.csv"),
    "report-csv-dir": (["--format", "csv-dir", "report", "--out-dir", "{out}"],
                       "plot_score_progression.csv"),
    "report-out-dir": (["report", "--out-dir", "{out}"], "plot_score_progression.csv"),
}


def _tree(out: Path) -> dict:
    """Every file's bytes and every directory (None) under ``out``."""
    return {str(p.relative_to(out)): p.read_bytes() if p.is_file() else None
            for p in out.rglob("*")}


def _earlier_files(runner, store, out: Path, argv: list[str]) -> dict:
    """Run ``argv`` once, then mark each file it wrote, so a later run that
    replaces one shows; returns ``_tree(out)``."""
    result = runner.invoke(main, ["--store", str(store), *argv])
    assert result.exit_code == 0, result.output
    for path in out.iterdir():
        path.write_bytes(b"earlier " + path.name.encode())
    return _tree(out)


def _store_failure(runner, store, *argv) -> Exception:
    """Run a command that must exit 1 with one Error: line, no exception left
    unhandled (so no traceback), and ``store``'s bytes unchanged; return the
    typed error behind the line."""
    before = Path(store).read_bytes()
    result = runner.invoke(main, ["--store", str(store), *argv])
    assert result.exit_code == 1, result.output
    assert _one_error_line(result), result.output
    assert result.exc_info[0] is SystemExit, result.exc_info
    assert Path(store).read_bytes() == before
    # click's exit carries the ClickException, raised from the UcaError
    return result.exc_info[1].__context__.__cause__


def _connect_with(monkeypatch, *pragmas: str) -> None:
    """Run ``pragmas`` on every connection the command under test opens."""
    connect = sqlite3.connect

    def configured(path, **kwargs):
        conn = connect(path, **kwargs)
        for pragma in pragmas:
            conn.execute(pragma)
        return conn

    monkeypatch.setattr(sqlite3, "connect", configured)


class TestStoreFailures:
    """Every failure of a store statement is one typed error: exit 1, one Error:
    line, no traceback and the store's bytes unchanged."""

    @pytest.mark.parametrize("command", list(_STORE_COMMANDS))
    def test_damaged_page_is_corrupt_store(self, runner, seed_155_copy, tmp_path, command):
        store, corpus = seed_155_copy
        argv, table = _STORE_COMMANDS[command]
        damage_key_index(store, table)
        error = _store_failure(runner, store,
                               *(a.format(tmp=tmp_path, corpus=corpus) for a in argv))
        assert isinstance(error, CorruptStoreError)
        assert str(error) == f"{store}: database disk image is malformed"

    @pytest.mark.parametrize("locked_at", ["before-open", "after-open"])
    @pytest.mark.parametrize("command", list(_STORE_COMMANDS))
    def test_locked_store_is_store_io_error(self, runner, seed_155_copy, tmp_path,
                                             monkeypatch, command, locked_at):
        store, corpus = seed_155_copy
        blocker = sqlite3.connect(store, isolation_level=None)
        # the command's own connection waits for no lock
        _connect_with(monkeypatch, "PRAGMA busy_timeout = 0")
        if locked_at == "before-open":
            blocker.execute("BEGIN EXCLUSIVE")
        else:
            def open_then_lock(path, **kwargs):
                handle = open_store(path, **kwargs)
                blocker.execute("BEGIN EXCLUSIVE")
                return handle
            monkeypatch.setattr("uca.cli.open_store", open_then_lock)
        try:
            error = _store_failure(runner, store, *(
                a.format(tmp=tmp_path, corpus=corpus) for a in _STORE_COMMANDS[command][0]))
        finally:
            blocker.close()
        assert isinstance(error, StoreIOError)
        assert str(error) == f"{store}: database is locked"

    def test_full_store_is_store_io_error(self, runner, seed_155_copy, monkeypatch):
        store, corpus = seed_155_copy
        # the store may not grow past its current pages; a 20,000-byte node name
        # needs overflow pages
        _connect_with(monkeypatch, "PRAGMA max_page_count = 1")
        error = _store_failure(runner, store, "ingest", "n" * 20_000, "lynis",
                               str(corpus / "runs" / "baseline" / "0" / "lynis.dat"))
        assert isinstance(error, StoreIOError)
        assert str(error) == f"{store}: database or disk is full"

    @pytest.mark.parametrize("argv", [
        ["score", "\udcff", "--iteration", "0"],
        ["rules", "--snapshot", "{corpus}/snapshots/full", "--node", "\udcff", "--record"],
        ["ingest", "\udcff", "lynis", "{corpus}/runs/baseline/0/lynis.dat"],
    ], ids=["score", "rules-record", "ingest"])
    def test_node_not_utf8_is_named_and_records_nothing(self, runner, seed_155_copy, argv):
        # the node argument $'\xff' reaches Python as the lone surrogate '\udcff'
        store, corpus = seed_155_copy
        error = _store_failure(runner, store, *(a.format(corpus=corpus) for a in argv))
        assert isinstance(error, ConstraintViolationError)
        assert str(error) == "'\\udcff' is not UTF-8 text"

    def test_stats_names_a_node_not_utf8_as_unknown(self, runner, seed_155_copy):
        store, _ = seed_155_copy
        error = _store_failure(runner, store, "stats", "lynis", "\udcff", "baseline")
        assert str(error) == "no runs recorded for node '\\udcff'"

    @pytest.mark.parametrize("argv", [
        ["ingest", "baseline", "lynis", "{corpus}/runs/baseline/0/lynis.dat"],
        ["score", "baseline"],
        ["rules", "--snapshot", "{corpus}/snapshots/full", "--node", "baseline", "--record"],
    ], ids=["ingest", "score", "rules-record"])
    def test_iteration_past_64_bits_is_constraint_violation(self, runner, seed_155_copy,
                                                             argv):
        # 2**63 is one past SQLite's largest INTEGER
        store, corpus = seed_155_copy
        error = _store_failure(runner, store, *(a.format(corpus=corpus) for a in argv),
                               "--iteration", str(2**63))
        assert isinstance(error, ConstraintViolationError)
        assert str(error) == "Python int too large to convert to SQLite INTEGER"

    @pytest.mark.parametrize("command", list(_FILE_COMMANDS))
    def test_damaged_page_leaves_out_dir_as_it_was(self, runner, seed_155_copy, tmp_path,
                                                   command):
        store, _ = seed_155_copy
        argv = [a.format(out=tmp_path / "out") for a in _FILE_COMMANDS[command][0]]
        before = _earlier_files(runner, store, tmp_path / "out", argv)
        damage_key_index(store, "audit_runs")
        assert isinstance(_store_failure(runner, store, *argv), CorruptStoreError)
        assert _tree(tmp_path / "out") == before

    @pytest.mark.parametrize("command", list(_FILE_COMMANDS))
    def test_read_failing_midway_through_a_file_leaves_out_dir_as_it_was(
            self, runner, seed_155_copy, tmp_path, monkeypatch, command):
        store, _ = seed_155_copy
        template, failing = _FILE_COMMANDS[command]
        argv = [a.format(out=tmp_path / "out") for a in template]
        before = _earlier_files(runner, store, tmp_path / "out", argv)

        def fail_after_two(rows):
            for count, row in enumerate(rows):
                if count == 2:
                    raise CorruptStoreError("failed after 2 rows")
                yield row

        def write_failing(path, header, rows):
            # a staged file is written under a temporary name that holds its own
            if failing in Path(path).name:
                rows = fail_after_two(rows)
            return write_csv(path, header, rows)

        for module in ("uca.repository", "uca.report"):
            monkeypatch.setattr(f"{module}.write_csv", write_failing)
        assert str(_store_failure(runner, store, *argv)) == "failed after 2 rows"
        assert _tree(tmp_path / "out") == before

    @pytest.mark.parametrize("earlier", [False, True], ids=["no-earlier-file", "earlier-file"])
    def test_export_onto_a_directory_leaves_out_dir_as_it_was(self, runner, seed_155_copy,
                                                              tmp_path, earlier):
        # the first file is complete and moved into place before the second's
        # rename fails on the directory at its path
        store, _ = seed_155_copy
        out = tmp_path / "out"
        (out / "aggregate_scores.csv").mkdir(parents=True)
        if earlier:
            (out / "audit_runs.csv").write_bytes(b"earlier audit_runs.csv")
        before = _tree(out)
        error = _store_failure(runner, store, "export", "--out-dir", str(out))
        assert isinstance(error, IsADirectoryError)
        assert _tree(out) == before

    def test_report_reads_one_state(self, runner, seed_155_copy, tmp_path, monkeypatch):
        # between the report's reads of the node summaries and of the runtimes
        _assert_one_state(runner, seed_155_copy[0], tmp_path / "out", monkeypatch, "json",
                          Store, "summarize_runtime")

    def test_report_csvs_read_one_state(self, runner, seed_155_copy, tmp_path, monkeypatch):
        # between the build and the CSV files, whose progression plot reads the
        # runs again
        _assert_one_state(runner, seed_155_copy[0], tmp_path / "out", monkeypatch, "csv-dir",
                          report_mod, "write_plot_data")


def _assert_one_state(runner, store, out, monkeypatch, fmt, target, name) -> None:
    """Another connection ingests and scores baseline iteration 11 when the
    report calls ``target.name``; the report's output and its CSV files under
    ``out`` must equal those of a report before or after that write."""
    def report():
        result = runner.invoke(main, ["--store", str(store), "--format", fmt, "report",
                                      "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        return result.output, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    before = report()
    original = getattr(target, name)
    written = []

    def write_first(*args):
        if not written:
            written.append(True)
            with open_store(store) as other:
                try:
                    with other.transaction():
                        other.record_audit_run(AuditRun(
                            "baseline", Tool.LYNIS, "2025-03-03T11:00:00+00:00", 11,
                            Phase.POST, 99.0, 99.0, 1.0))
                        score_iteration(other, "baseline", 11, weights=DEFAULT_WEIGHTS,
                                        timestamp="2025-03-03T11:09:00+00:00")
                except StoreIOError:
                    pass  # the report's read transaction holds off the commit
        return original(*args)

    monkeypatch.setattr(target, name, write_first)
    # the writer waits for no lock
    _connect_with(monkeypatch, "PRAGMA busy_timeout = 0")
    outputs = report()
    assert written
    assert outputs in (before, report())


class TestFixturesStoreFailures:
    """fixtures opens its store and begins its transaction before it writes any
    file, so a store it cannot write leaves nothing under --out-dir."""

    def _assert_no_file(self, runner, store, out):
        _store_failure(runner, store, "fixtures", "--out-dir", str(out))
        assert [p for p in out.rglob("*") if p.is_file()] == []

    def test_locked_store(self, runner, tmp_path, monkeypatch):
        store = tmp_path / "s.db"
        open_store(store).close()
        blocker = sqlite3.connect(store, isolation_level=None)
        blocker.execute("BEGIN IMMEDIATE")
        _connect_with(monkeypatch, "PRAGMA busy_timeout = 0")
        try:
            self._assert_no_file(runner, store, tmp_path / "corp")
        finally:
            blocker.close()

    def test_store_not_a_database(self, runner, tmp_path):
        store = tmp_path / "s.db"
        store.write_bytes(b"not a database" * 100)
        self._assert_no_file(runner, store, tmp_path / "corp")
