import math
from dataclasses import FrozenInstanceError, replace
from datetime import datetime, timezone

import pytest

from uca import pipeline, rules
from uca.errors import OutOfRangeError, SpecError
from uca.fixtures import (
    TOOL_FILE_NAMES,
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
from uca.report import build_report, tool_samples
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

    @pytest.mark.parametrize("counts", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    def test_aide_negative_counts(self, counts):
        with pytest.raises(OutOfRangeError, match="^change counts must be non-negative$"):
            make_aide_fixture(*counts)


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
        assert score_rules(results) == pytest.approx(score, abs=0.01)

    def test_node_name_override(self):
        assert make_snapshot(Profile.FULL, node="web-3").node == "web-3"


class TestCorpusSpec:
    def test_defaults_validate(self):
        CorpusSpec()

    def test_iterations_must_be_positive(self):
        with pytest.raises(OutOfRangeError):
            CorpusSpec(iterations=0)

    def test_negative_sd_rejected(self):
        with pytest.raises(OutOfRangeError):
            CorpusSpec(score_distributions={
                "baseline": {Tool.LYNIS: (60.0, -1.0)}
            })

    @pytest.mark.parametrize("changes", [
        {"scap_total_rules": 1},
        {"score_distributions": {"baseline": {Tool.LYNIS: (60.0, 0.0)}}}],
        ids=["one-scap-rule", "zero-sd"])
    def test_boundary_values_accepted(self, changes):
        spec = CorpusSpec(**changes)
        assert {key: getattr(spec, key) for key in changes} == changes

    def test_fields_are_frozen(self):
        spec = CorpusSpec()
        with pytest.raises(FrozenInstanceError):
            spec.seed = 7
        assert spec == CorpusSpec()

    def test_duplicate_node_names_rejected(self):
        nodes = (NodeSpec("a", Profile.FULL), NodeSpec("b", Profile.FULL),
                 NodeSpec("a", Profile.BASELINE))
        with pytest.raises(SpecError) as raised:
            CorpusSpec(nodes=nodes)
        assert str(raised.value) == "invalid spec document: duplicate node names ['a']"

    def test_node_name_of_up_to_255_utf8_bytes(self, tmp_path):
        longest = "\u00e9" * 127 + "x"
        result = make_corpus(CorpusSpec(nodes=(NodeSpec(longest, Profile.FULL),),
                                        iterations=1), tmp_path / "corpus")
        assert result.runs_recorded == 3
        with pytest.raises(SpecError, match="is not a directory name"):
            CorpusSpec(nodes=(NodeSpec(longest + "x", Profile.FULL),))

    @pytest.mark.parametrize("changes, message", [
        ({"nodes": ()}, "corpus needs at least one node"),
        ({"scap_total_rules": 0}, "scap_total_rules must be >= 1"),
        ({"runtime_distributions": {Tool.LYNIS: (1.0, 0.0), Tool.AIDE: (1.0, 0.0)}},
         "missing runtime distribution for openscap"),
        ({"runtime_distributions": {Tool.LYNIS: (1.0, 0.0), Tool.OPENSCAP: (1.0, 0.0),
                                    Tool.AIDE: (1.0, -0.5)}},
         "negative runtime sd for aide"),
    ], ids=["no-nodes", "no-scap-rules", "missing-runtime", "negative-runtime-sd"])
    def test_out_of_range_values_rejected(self, changes, message):
        with pytest.raises(OutOfRangeError) as raised:
            CorpusSpec(**changes)
        assert str(raised.value) == message

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

    def test_from_json_names_score_distributions_of_unknown_nodes(self):
        with pytest.raises(SpecError, match=r"score_distributions of unknown nodes \['b'\]$"):
            CorpusSpec.from_json('{"nodes": [{"name": "a", "profile": "full"}],'
                                 ' "score_distributions": {"b": {"lynis": [10, 1]}}}')

    def test_score_distributions_of_default_node(self):
        spec = CorpusSpec.from_json('{"score_distributions": {"baseline": {"lynis": [10, 1]}}}')
        assert spec.distribution(spec.nodes[0], Tool.LYNIS) == (10.0, 1.0)

    def test_from_json_names_unknown_node_keys(self):
        with pytest.raises(SpecError) as raised:
            CorpusSpec.from_json(
                '{"nodes": [{"name": "a", "profile": "full", "iterations": 3}]}')
        assert str(raised.value) == "invalid spec document: nodes[0]: unknown keys ['iterations']"

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
        assert len(list(corpus_store.score_rows())) == 108
        assert corpus_store._conn.execute(
            "SELECT COUNT(*) FROM aggregate_scores").fetchone() == (36,)

    def test_phases_follow_iteration(self, corpus_store):
        for iteration, phase in corpus_store._conn.execute(
                "SELECT iteration, phase FROM audit_runs"):
            if iteration == 0:
                assert Phase(phase) is Phase.PRE
            elif iteration == 1:
                assert Phase(phase) is Phase.POST
            else:
                assert Phase(phase) is Phase.ITERATION

    def test_corpus_files_parse_with_real_parsers(self, default_corpus):
        run_dir = default_corpus.corpus_dir / "runs" / "baseline" / "0"
        assert parse_lynis_report((run_dir / "lynis.dat").read_text())
        assert parse_xccdf_results((run_dir / "openscap.xml").read_text())
        parse_aide_report((run_dir / "aide.txt").read_text())

    def test_parser_reads_the_bytes_written(self, tmp_path, monkeypatch):
        """Each generated document is parsed as the bytes of its file, as
        ``uca ingest`` reads a user's."""
        parsed = []
        parse_run = pipeline.parse_run

        def spy(node, tool, document, **kwargs):
            parsed.append((node, Tool(tool), kwargs["iteration"], document))
            return parse_run(node, tool, document, **kwargs)
        monkeypatch.setattr(pipeline, "parse_run", spy)
        result = make_corpus(replace(CorpusSpec(), iterations=2), tmp_path / "corpus")
        assert len(parsed) == 18
        for node, tool, iteration, document in parsed:
            path = result.corpus_dir / "runs" / node / str(iteration) / TOOL_FILE_NAMES[tool]
            assert type(document) is bytes and document == path.read_bytes()

    def test_each_snapshot_is_evaluated_once(self, tmp_path, monkeypatch):
        """An evaluation depends on the rules and the snapshot alone, so each
        node's snapshot is evaluated once and its results recorded each iteration."""
        evaluated = []
        evaluate_rule = rules.evaluate_rule

        def spy(rule, snapshot):
            evaluated.append((snapshot.node, rule.id))
            return evaluate_rule(rule, snapshot)
        monkeypatch.setattr(rules, "evaluate_rule", spy)
        result = make_corpus(CorpusSpec(), tmp_path / "corpus")
        assert len(evaluated) == 24  # 3 nodes x 8 rules
        assert result.rule_results_recorded == 288

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
            scores1 = [row[3] for row in s1.score_rows()]
            scores2 = [row[3] for row in s2.score_rows()]
        assert scores1 != scores2

    def test_sample_means_within_two_standard_errors(self, corpus_store):
        spec = CorpusSpec()
        for node_spec in spec.nodes:
            for tool in Tool:
                samples = tool_samples(corpus_store, node_spec.name)[node_spec.name, tool.value]
                assert len(samples) == spec.iterations
                mean, sd = spec.distribution(node_spec, tool)
                standard_error = sd / math.sqrt(len(samples))
                assert abs(describe(samples).mean - mean) <= 2 * standard_error, (
                    f"{node_spec.name}/{tool.value}"
                )

    def test_runtime_totals_match_reference(self, corpus_store):
        totals = {tool: total for tool, _, total, _ in corpus_store.summarize_runtime()}
        assert totals["aide"] == pytest.approx(3368.91, abs=0.05)
        assert totals["lynis"] == pytest.approx(1303.59, abs=0.05)
        assert totals["openscap"] == pytest.approx(107.91, abs=0.05)
        assert build_report(corpus_store).runtime_total == pytest.approx(4780.41, abs=0.05)

    def test_custom_scores_recorded_per_iteration(self, corpus_store):
        by_node = {}
        for node, custom in corpus_store._conn.execute("SELECT node, custom FROM aggregate_scores"):
            by_node.setdefault(node, set()).add(round(custom, 2))
        assert by_node == {
            "baseline": {39.34},
            "partial": {72.13},
            "full": {83.61},
        }
