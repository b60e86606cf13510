"""The steps every writer shares: parse a tool document into a run, and score
one node's iteration from its recorded runs. ``uca ingest``, ``uca score`` and
``fixtures.make_corpus`` parse, blend and record through these and nothing
below them, so a generated corpus is recorded the way a user's is. They
evaluate rules with ``rules.evaluate_rules``, as ``uca rules`` does: an
evaluation is a function of the rules and the snapshot alone, and
``score_iteration`` records the results it is handed.
"""

from __future__ import annotations

from typing import Iterable

from . import scoring
from .errors import MissingRunsError
from .repository import AuditRun, Phase, Store
from .rules import RuleResult, score_rules
from .scoring import AggregateScore, Tool, WeightConfig

__all__ = ["parse_run", "score_iteration"]


def parse_run(node: str, tool: Tool | str, document: str | bytes | Iterable[bytes], *,
              iteration: int, phase: Phase | str, runtime_seconds: float,
              timestamp: str, weights: WeightConfig) -> AuditRun:
    """Parse one tool output document into a run; nothing is recorded."""
    raw, normalized = scoring.score_tool_document(
        tool, document, weights.aide_penalty_per_change)
    return AuditRun(node, Tool(tool), timestamp, iteration, Phase(phase), raw,
                    normalized, runtime_seconds)


def score_iteration(store: Store, node: str, iteration: int, *, weights: WeightConfig,
                    timestamp: str, results: list[RuleResult] | None = None) -> AggregateScore:
    """Blend the recorded runs of (node, iteration) and record the aggregate, in
    one transaction. With rule ``results``, also record them and blend their
    score in."""
    with store.transaction():
        runs = store.runs_for(node, iteration)
        missing = [t.value for t in Tool if t.value not in runs]
        if missing:
            raise MissingRunsError(
                f"{node} iteration {iteration}: missing runs for {', '.join(missing)}")
        lynis, openscap, aide = (runs[t.value] for t in Tool)
        standard = scoring.compute_standard_uca(lynis, openscap, aide, weights)
        custom = extended = None
        if results is not None:
            store.record_evaluation(results, node, iteration)
            custom = score_rules(results)
            extended = scoring.compute_extended_uca(standard, custom, weights)
        agg = AggregateScore(node, iteration, lynis, openscap, aide, standard, custom,
                             extended, timestamp)
        store.record_aggregate(agg)
    return agg
