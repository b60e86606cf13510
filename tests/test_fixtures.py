import math
from dataclasses import replace
from datetime import datetime, timezone

import pytest

from uca.errors import OutOfRangeError, SpecError
from uca.fixtures import (
    CorpusSpec,
    NodeSpec,
    Profile,
    make_aide_fixture,
    make_corpus,
    make_lynis_fixture,
    make_snapshot,
    make_xccdf_fixture,
)
from uca.parsers import parse_aide_report, parse_lynis_report, parse_xccdf_results
from uca.repository import Phase, open_store
from uca.rules import default_rules, evaluate_rules, load_snapshot, score_rules
from uca.scoring import Tool
from uca.stats import describe


class TestDocumentGenerators:
    def test_lynis_inversion_exhaustive(self):
        for index in range(101):
            assert parse_lynis_report(make_lynis_fixture(index)).hardening_index == index

    @pytest.mark.parametrize("bad", [-1, 101, 999])
    def test_lynis_out_of_range(self, bad):
        with pytest.raises(OutOfRangeError):
            make_lynis_fixture(bad)

    def test_xccdf_inversion(self):
        report = parse_xccdf_results(make_xccdf_fixture(28, 12, {}))
        assert report.compliance_pct == pytest.approx(70.0)

    def test_xccdf_reserved_statuses(self):
        with pytest.raises(OutOfRangeError):
            make_xccdf_fixture(1, 1, {"pass": 3})
        with pytest.raises(OutOfRangeError):
            make_xccdf_fixture(1, 1, {"notchecked": -1})

    def test_xccdf_status_text_escaped(self):
        document = make_xccdf_fixture(1, 0, {"a<b&c": 2})
        assert "<result>a&lt;b&amp;c</result>" in document
        report = parse_xccdf_results(document)
        assert (report.pass_count, report.fail_count) == (1, 0)

    def test_xccdf_negative_counts(self):
        with pytest.raises(OutOfRangeError):
            make_xccdf_fixture(-1, 0, {})

    def test_aide_inversion_including_clean(self):
        assert parse_aide_report(make_aide_fixture(0, 0, 0)).total_changes == 0
        report = parse_aide_report(make_aide_fixture(3, 2, 1))
        assert (report.added, report.removed, report.changed) == (3, 2, 1)

    def test_aide_bad_wording(self):
        with pytest.raises(OutOfRangeError):
            make_aide_fixture(1, 1, 1, wording="items")


class TestSnapshots:
    @pytest.mark.parametrize("profile,passes,score", [
        (Profile.BASELINE, 3, 39.34),
        (Profile.PARTIAL, 6, 72.13),
        (Profile.FULL, 7, 83.61),
    ])
    def test_profile_patterns(self, profile, passes, score):
        ruleset = default_rules()
        results = evaluate_rules(ruleset, make_snapshot(profile))
        assert sum(r.passed for r in results) == passes
        assert score_rules(results, ruleset) == pytest.approx(score, abs=0.01)

    def test_node_name_override(self):
        assert make_snapshot(Profile.FULL, node="web-3").node == "web-3"


class TestCorpusSpec:
    def test_defaults_validate(self):
        CorpusSpec().validate()

    def test_iterations_must_be_positive(self):
        with pytest.raises(OutOfRangeError):
            CorpusSpec(iterations=0).validate()

    def test_negative_sd_rejected(self):
        spec = CorpusSpec(score_distributions={
            "baseline": {Tool.LYNIS: (60.0, -1.0)}
        })
        with pytest.raises(OutOfRangeError):
            spec.validate()

    def test_from_dict(self):
        spec = CorpusSpec.from_dict({
            "seed": 99,
            "iterations": 4,
            "nodes": [{"name": "solo", "profile": "full"}],
            "score_distributions": {"solo": {"lynis": [70, 1.0]}},
            "runtime_distributions": {"lynis": [30, 0], "openscap": [3, 0],
                                      "aide": [90, 0]},
            "start_time": "2025-06-01T00:00:00+00:00",
        })
        assert spec.seed == 99
        assert spec.iterations == 4
        assert spec.nodes == (NodeSpec("solo", Profile.FULL),)
        assert spec.distribution(spec.nodes[0], Tool.LYNIS) == (70.0, 1.0)
        # unspecified tools fall back to profile defaults
        assert spec.distribution(spec.nodes[0], Tool.OPENSCAP) == (71.82, 5.367)
        assert spec.start_time == datetime(2025, 6, 1, tzinfo=timezone.utc)

    def test_from_dict_empty_keeps_defaults(self):
        assert CorpusSpec.from_dict({}) == CorpusSpec()

    def test_from_json(self):
        assert CorpusSpec.from_json('{"seed": 7}') == CorpusSpec(seed=7)

    @pytest.mark.parametrize("document", [
        "{not json", "[1, 2]", '{"nodes": [{"profile": "baseline"}]}',
        '{"nodes": [{"name": "x", "profile": "hardened"}]}',
        '{"score_distributions": []}', '{"iterations": "many"}',
    ])
    def test_from_json_malformed_raises_spec_error(self, document):
        with pytest.raises(SpecError, match="invalid spec document"):
            CorpusSpec.from_json(document)

    def test_from_json_names_unknown_keys(self):
        with pytest.raises(SpecError, match=r"unknown keys \['iteration', 'node'\]$"):
            CorpusSpec.from_json('{"iteration": 5, "seed": 1, "node": "a"}')

    def test_from_json_names_unknown_node_keys(self):
        with pytest.raises(SpecError, match=r"unknown node keys \['iterations'\]$"):
            CorpusSpec.from_json(
                '{"nodes": [{"name": "a", "profile": "full", "iterations": 3}]}')

    @pytest.mark.parametrize("document, entry", [
        ('{"runtime_distributions": {"lynis": [30, 1, 99]}}',
         "runtime_distributions.lynis is [30, 1, 99]"),
        ('{"runtime_distributions": {"aide": [90]}}', "runtime_distributions.aide is [90]"),
        ('{"score_distributions": {"a": {"openscap": [70, 5, 1]}}}',
         "score_distributions.a.openscap is [70, 5, 1]"),
        ('{"score_distributions": {"a": {"lynis": ["70", 5]}}}',
         "score_distributions.a.lynis is ['70', 5]"),
        ('{"score_distributions": {"a": {"lynis": [true, 5]}}}',
         "score_distributions.a.lynis is [True, 5]"),
        ('{"score_distributions": {"a": {"lynis": {"mean": 70, "sd": 5}}}}',
         "score_distributions.a.lynis is {'mean': 70, 'sd': 5}"),
    ])
    def test_from_json_names_distribution_entry_not_two_numbers(self, document, entry):
        with pytest.raises(SpecError) as caught:
            CorpusSpec.from_json(document)
        assert str(caught.value) == f"invalid spec document: {entry}, not [mean, sd]"


class TestMakeCorpus:
    def test_default_corpus_shape(self, default_corpus, corpus_store):
        assert default_corpus.runs_recorded == 108
        assert default_corpus.aggregates_recorded == 36
        assert default_corpus.rule_results_recorded == 288
        assert len(corpus_store.audit_runs()) == 108
        assert len(corpus_store.aggregates()) == 36

    def test_phases_follow_iteration(self, corpus_store):
        for run in corpus_store.audit_runs():
            if run.iteration == 0:
                assert run.phase is Phase.PRE
            elif run.iteration == 1:
                assert run.phase is Phase.POST
            else:
                assert run.phase is Phase.ITERATION

    def test_corpus_files_parse_with_real_parsers(self, default_corpus):
        run_dir = default_corpus.corpus_dir / "runs" / "baseline" / "0"
        assert parse_lynis_report((run_dir / "lynis.dat").read_text())
        assert parse_xccdf_results((run_dir / "openscap.xml").read_text())
        parse_aide_report((run_dir / "aide.txt").read_text())

    def test_snapshots_written_and_loadable(self, default_corpus):
        snapshot = load_snapshot(default_corpus.corpus_dir / "snapshots" / "full")
        assert snapshot.node == "full"
        results = evaluate_rules(default_rules(), snapshot)
        assert sum(r.passed for r in results) == 7

    def test_single_node_single_iteration(self, tmp_path):
        spec = replace(CorpusSpec(), nodes=(NodeSpec("solo", Profile.BASELINE),),
                       iterations=1)
        result = make_corpus(spec, tmp_path / "mini")
        assert result.runs_recorded == 3
        assert result.aggregates_recorded == 1

    def test_same_seed_byte_identical_exports(self, tmp_path):
        spec = replace(CorpusSpec(), iterations=3)
        outputs = []
        for tag in ("one", "two"):
            result = make_corpus(spec, tmp_path / tag)
            with open_store(result.store_path) as store:
                audit = tmp_path / f"{tag}-audit.csv"
                agg = tmp_path / f"{tag}-agg.csv"
                store.export_audit_csv(audit)
                store.export_aggregate_csv(agg)
            outputs.append((audit.read_bytes(), agg.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_different_seed_differs(self, tmp_path):
        base = replace(CorpusSpec(), iterations=2)
        other = replace(base, seed=base.seed + 1)
        first = make_corpus(base, tmp_path / "a")
        second = make_corpus(other, tmp_path / "b")
        with open_store(first.store_path) as s1, open_store(second.store_path) as s2:
            scores1 = [r.normalized_score for r in s1.audit_runs()]
            scores2 = [r.normalized_score for r in s2.audit_runs()]
        assert scores1 != scores2

    def test_sample_means_within_two_standard_errors(self, corpus_store):
        spec = CorpusSpec()
        for node_spec in spec.nodes:
            for tool in Tool:
                samples = corpus_store.tool_scores(tool.value, node_spec.name)
                assert len(samples) == spec.iterations
                mean, sd = spec.distribution(node_spec, tool)
                standard_error = sd / math.sqrt(len(samples))
                assert abs(describe(samples).mean - mean) <= 2 * standard_error, (
                    f"{node_spec.name}/{tool.value}"
                )

    def test_runtime_totals_match_reference(self, corpus_store):
        summary = corpus_store.summarize_runtime()
        assert summary.per_tool["aide"].total == pytest.approx(3368.91, abs=0.05)
        assert summary.per_tool["lynis"].total == pytest.approx(1303.59, abs=0.05)
        assert summary.per_tool["openscap"].total == pytest.approx(107.91, abs=0.05)
        assert summary.grand_total == pytest.approx(4780.41, abs=0.05)

    def test_custom_scores_recorded_per_iteration(self, corpus_store):
        by_node = {}
        for agg in corpus_store.aggregates():
            by_node.setdefault(agg.node, set()).add(round(agg.custom, 2))
        assert by_node == {
            "baseline": {39.34},
            "partial": {72.13},
            "full": {83.61},
        }
