"""uca: unified compliance aggregation for Linux security-audit outputs.

Parses Lynis, OpenSCAP (XCCDF) and AIDE results, normalizes them to a
common 0-100 scale, blends them into weighted unified scores, evaluates
organization-specific weighted rules against node snapshots, persists runs
in a single-file SQLite store, and provides the statistics used to compare
hardening levels.
"""

from .errors import UcaError
from .parsers import (
    AideReport,
    LynisReport,
    ScapReport,
    parse_aide_report,
    parse_lynis_report,
    parse_xccdf_results,
)
from .repository import AuditRun, Phase, Store, open_store
from .rules import (
    CheckType,
    FirewallState,
    NodeSnapshot,
    Rule,
    RuleResult,
    RuleSet,
    default_rules,
    evaluate_rule,
    evaluate_rules,
    load_rules,
    load_snapshot,
    save_snapshot,
    score_rules,
)
from .scoring import (
    AggregateScore,
    Tool,
    WeightConfig,
    compute_extended_uca,
    compute_standard_uca,
    normalize_aide,
    normalize_lynis,
    normalize_openscap,
    score_tool_document,
)
from .stats import (
    StatSummary,
    TestResult,
    coefficient_of_variation,
    describe,
    pearson_r,
    pooled_t_test,
    student_t_two_tailed_p,
)
from .fixtures import (
    CorpusSpec,
    NodeSpec,
    Profile,
    make_aide_fixture,
    make_corpus,
    make_lynis_fixture,
    make_snapshot,
    make_xccdf_fixture,
)

__version__ = "0.1.0"

__all__ = [
    "UcaError",
    "LynisReport", "ScapReport", "AideReport",
    "parse_lynis_report", "parse_xccdf_results", "parse_aide_report",
    "Tool", "WeightConfig", "AggregateScore",
    "normalize_lynis", "normalize_openscap", "normalize_aide",
    "compute_standard_uca", "compute_extended_uca", "score_tool_document",
    "CheckType", "FirewallState", "Rule", "RuleSet", "RuleResult",
    "NodeSnapshot", "load_rules", "default_rules", "evaluate_rule",
    "evaluate_rules", "score_rules", "save_snapshot", "load_snapshot",
    "Store", "open_store", "AuditRun", "Phase",
    "StatSummary", "TestResult", "describe", "pooled_t_test",
    "student_t_two_tailed_p", "pearson_r", "coefficient_of_variation",
    "Profile", "NodeSpec", "CorpusSpec", "make_lynis_fixture",
    "make_xccdf_fixture", "make_aide_fixture", "make_snapshot", "make_corpus",
    "__version__",
]
