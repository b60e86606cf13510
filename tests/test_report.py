import pytest

from uca.errors import EmptyStoreError
from uca.fixtures import CorpusSpec, NodeSpec, Profile, make_corpus
from uca.report import build_report, bundle_to_dict, render_text
from uca.repository import AuditRun, Phase, open_store
from uca.rules import RuleResult
from uca.scoring import Tool
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
                expected = describe(corpus_store.tool_scores(tool.value, node)).mean
                assert bundle.score_table[tool.value][node] == pytest.approx(expected)

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

    def test_rule_score_none_when_ids_unknown(self, tmp_path):
        with open_store(tmp_path / "s.db") as store:
            store.record_audit_run(_run("solo", "lynis", 0, 50.0))
            store.record_rule_results([
                RuleResult("ghost_rule", "solo", 0, True, "x"),
            ])
            bundle = build_report(store)
            assert bundle.rule_table == [
                {"node": "solo", "passed": 1, "failed": 0, "score_pct": None},
            ]

    def test_renderings_are_deterministic(self, corpus_store):
        first = build_report(corpus_store)
        second = build_report(corpus_store)
        assert render_text(first) == render_text(second)
        assert bundle_to_dict(first) == bundle_to_dict(second)

    def test_fixed_statement_count_at_any_node_count(self, tmp_path):
        nodes = tuple(NodeSpec(f"n{i:02d}", list(Profile)[i % 3]) for i in range(24))
        corpus = make_corpus(CorpusSpec(nodes=nodes, iterations=2), tmp_path / "corpus")
        with open_store(corpus.store_path) as store:
            statements = []
            store._conn.set_trace_callback(statements.append)
            bundle = build_report(store)
        assert len(statements) <= 6, statements
        assert len(bundle.nodes) == 24
        assert len(bundle.rule_table) == 24
        assert len(bundle.runs) == 24 * 2 * 3
