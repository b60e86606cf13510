"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a PASS line (visible with ``pytest -s`` or in captured
output). Expected values are either reference-experiment anchors or come
from independent oracles (hand counts, quadrature, exhaustive enumeration)
computed outside the code paths they check.
"""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import exact_group
from test_stats import quad_two_tailed_p
from uca.fixtures import (
    Profile,
    make_aide_fixture,
    make_lynis_fixture,
    make_snapshot,
    make_xccdf_fixture,
)
from uca.parsers import parse_aide_report, parse_lynis_report, parse_xccdf_results
from uca.report import build_report
from uca.repository import open_store
from uca.rules import default_rules, evaluate_rules, score_rules
from uca.scoring import (
    compute_extended_uca,
    compute_standard_uca,
    normalize_aide,
)
from uca.stats import (
    coefficient_of_variation,
    pearson_r,
    pooled_t_test,
    student_t_two_tailed_p,
)

scores = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


def test_criterion_1_custom_rule_scoring():
    """Default rules vs profile snapshots reproduce the reference table."""
    expected = {
        Profile.BASELINE: (3, 39.34),
        Profile.PARTIAL: (6, 72.13),
        Profile.FULL: (7, 83.61),
    }
    ruleset = default_rules()
    for profile, (passes, score) in expected.items():
        results = evaluate_rules(ruleset, make_snapshot(profile))
        assert sum(r.passed for r in results) == passes
        assert score_rules(results) == pytest.approx(score, abs=0.01)
    print("ACCEPTANCE 1 PASS: custom rule scores 39.34/72.13/83.61 "
          "(+-0.01), pass counts 3/6/7 exact")


def test_criterion_2_aggregation():
    """Weighted sums over reference tool means, and the extended blend."""
    tool_means = [
        ((63.08, 39.73, 45.83), 50.29, 49.50),
        ((64.00, 41.20, 45.83), 51.25, 50.57),
        ((64.92, 71.82, 36.67), 62.03, 62.30),
    ]
    for components, formula_value, reported in tool_means:
        computed = compute_standard_uca(*components)
        assert computed == pytest.approx(formula_value, abs=0.01)
        assert abs(computed - reported) <= 0.8
    blends = [
        ((49.50, 39.34), 47.49, 0.05),
        ((50.57, 72.13), 54.85, 0.05),
        ((62.30, 83.61), 65.45, 1.2),
    ]
    for (standard, custom), reported, tolerance in blends:
        assert abs(compute_extended_uca(standard, custom) - reported) <= tolerance
    print("ACCEPTANCE 2 PASS: standard aggregation 50.29/51.25/62.03 (+-0.01, "
          "<=0.8 of reported); extended blend within 0.05/0.05/1.2")


def test_criterion_3_statistics():
    """Pooled t-test over constructed groups reproduces the reference rows."""
    rows = [
        ((63.08, 64.92, 2.5205), 1.79, 0.73, (0.087, 0.002)),
        ((39.73, 71.82, 5.367), 14.64, 5.98, None),  # p < 0.001
        ((45.83, 36.67, 13.086), 1.72, 0.70, (0.100, 0.002)),
    ]
    for (mean1, mean2, sd), expected_t, expected_d, expected_p in rows:
        result = pooled_t_test(exact_group(mean1, sd, 12), exact_group(mean2, sd, 12))
        assert abs(result.t) == pytest.approx(expected_t, abs=0.01)
        assert abs(result.d) == pytest.approx(expected_d, abs=0.01)
        if expected_p is None:
            assert result.p_two_tailed < 0.001
        else:
            assert result.p_two_tailed == pytest.approx(expected_p[0], abs=expected_p[1])

    rng = random.Random(20250101)
    for _ in range(300):
        n1 = rng.randint(2, 30)
        n2 = rng.randint(2, 30)
        group1 = [rng.uniform(0, 100) for _ in range(n1)]
        group2 = [rng.uniform(0, 100) for _ in range(n2)]
        result = pooled_t_test(group1, group2)
        identity = result.d * math.sqrt(n1 * n2 / (n1 + n2))
        assert result.t == pytest.approx(identity, abs=1e-9, rel=1e-9)
    print("ACCEPTANCE 3 PASS: |t|=1.79/14.64/1.72, d=0.73/5.98/0.70 (+-0.01), "
          "p=0.087/<0.001/0.100 (+-0.002); t=d*sqrt(n1n2/(n1+n2)) to 1e-9")


def test_criterion_4_p_value_oracle():
    """Survival probabilities agree with quadrature over the t density."""
    worst = 0.0
    for df in range(1, 101):
        for t in (0.0, 0.5, 1.79, 5.0, 20.0):
            mine = student_t_two_tailed_p(t, df)
            oracle = quad_two_tailed_p(t, df)
            worst = max(worst, abs(mine - oracle))
            assert abs(mine - oracle) <= 1e-6
    print(f"ACCEPTANCE 4 PASS: p-value vs numerical integration, worst "
          f"absolute deviation {worst:.2e} <= 1e-6 over t in [0,20], df 1..100")


def test_criterion_5_aide_normalization_exhaustive():
    """max(0, 100 - 5*total) over every split of totals 0..40."""
    checked = 0
    for total in range(41):
        expected = max(0, 100 - 5 * total)
        for added in range(total + 1):
            for removed in range(total - added + 1):
                changed = total - added - removed
                assert normalize_aide(added, removed, changed) == expected
                checked += 1
        if total == 20:
            assert expected == 0
    print(f"ACCEPTANCE 5 PASS: AIDE normalization exhaustive over {checked} "
          "splits of totals 0..40, floor at 20 changes")


def test_criterion_6_corpus_shape_and_runtime(default_corpus, corpus_store):
    """108 runs, 36 aggregates; runtime totals match the reference table."""
    assert len(list(corpus_store.score_rows())) == 108
    assert corpus_store._conn.execute("SELECT COUNT(*) FROM aggregate_scores").fetchone() == (36,)
    totals = {tool: total for tool, _, total, _ in corpus_store.summarize_runtime()}
    assert totals["aide"] == pytest.approx(3368.91, abs=0.05)
    assert totals["lynis"] == pytest.approx(1303.59, abs=0.05)
    assert totals["openscap"] == pytest.approx(107.91, abs=0.05)
    assert build_report(corpus_store).runtime_total == pytest.approx(4780.4, abs=0.1)
    print("ACCEPTANCE 6 PASS: corpus 108 runs / 36 aggregates; runtime totals "
          "3368.91/1303.59/107.91 (+-0.05), grand total ~4780.4")


def test_criterion_7_inversion_and_csv_round_trip(corpus_store, tmp_path):
    """Parser/generator inversion over >=1000 random parameters; CSV round trip."""
    rng = random.Random(424242)
    statuses = ["notapplicable", "notchecked", "notselected", "informational",
                "error", "unknown"]
    trials = 0
    for _ in range(350):
        index = rng.randint(0, 100)
        assert parse_lynis_report(make_lynis_fixture(index)).hardening_index == index
        trials += 1
    for _ in range(350):
        passed = rng.randint(0, 120)
        failed = rng.randint(0, 120)
        if passed + failed == 0:
            failed = 1
        extras = {s: rng.randint(0, 15) for s in rng.sample(statuses, rng.randint(0, 3))}
        report = parse_xccdf_results(make_xccdf_fixture(passed, failed, extras))
        assert (report.pass_count, report.fail_count) == (passed, failed)
        for status, count in extras.items():
            assert report.other_counts[status] == count
        trials += 1
    for _ in range(350):
        triple = (rng.randint(0, 250), rng.randint(0, 250), rng.randint(0, 250))
        wording = rng.choice(["entries", "files"])
        report = parse_aide_report(make_aide_fixture(*triple).replace("entries", wording))
        assert (report.added, report.removed, report.changed) == triple
        trials += 1
    assert trials >= 1000

    audit_1 = tmp_path / "audit1.csv"
    agg_1 = tmp_path / "agg1.csv"
    corpus_store.export_audit_csv(audit_1)
    corpus_store.export_aggregate_csv(agg_1)
    with open_store(tmp_path / "reimported.db") as fresh:
        assert fresh.import_audit_csv(audit_1) == 108
        assert fresh.import_aggregate_csv(agg_1) == 36
        audit_2 = tmp_path / "audit2.csv"
        agg_2 = tmp_path / "agg2.csv"
        fresh.export_audit_csv(audit_2)
        fresh.export_aggregate_csv(agg_2)
    assert audit_1.read_bytes() == audit_2.read_bytes()
    assert agg_1.read_bytes() == agg_2.read_bytes()
    print(f"ACCEPTANCE 7 PASS: {trials} random fixture parameters invert exactly; "
          "CSV export/import round trip is record-exact")


class TestCriterion8InvariantSuite:
    """Named invariant families as property tests."""

    @given(lynis=scores, openscap=scores, aide=scores)
    def test_score_bounds_and_weighted_sum_boundedness(self, lynis, openscap, aide):
        value = compute_standard_uca(lynis, openscap, aide)
        assert 0.0 <= value <= 100.0
        assert min(lynis, openscap, aide) - 1e-9 <= value <= max(lynis, openscap, aide) + 1e-9

    @given(a=st.integers(0, 60), r=st.integers(0, 60), c=st.integers(0, 60),
           bump=st.integers(1, 5))
    def test_aide_monotonicity(self, a, r, c, bump):
        base = normalize_aide(a, r, c)
        assert 0.0 <= base <= 100.0
        assert normalize_aide(a + bump, r, c) <= base

    sample = st.lists(st.floats(0, 100).map(lambda x: round(x, 3)),
                      min_size=2, max_size=20)

    @given(a=sample, b=sample)
    def test_group_swap_antisymmetry(self, a, b):
        from uca.errors import DegenerateSampleError

        try:
            forward = pooled_t_test(a, b)
            backward = pooled_t_test(b, a)
        except DegenerateSampleError:
            return
        assert forward.t == pytest.approx(-backward.t, abs=1e-9)
        assert forward.p_two_tailed == pytest.approx(backward.p_two_tailed, abs=1e-9)
        assert abs(forward.d) == pytest.approx(abs(backward.d), abs=1e-9)

    @given(xs=st.lists(st.floats(1, 100), min_size=2, max_size=15),
           k=st.floats(0.01, 50))
    def test_cv_scale_invariance(self, xs, k):
        base = coefficient_of_variation(xs)
        scaled = coefficient_of_variation([k * x for x in xs])
        assert scaled == pytest.approx(base, rel=1e-6, abs=1e-9)

    @given(
        pairs=st.lists(
            st.tuples(st.floats(-50, 50).map(lambda x: round(x, 3)),
                      st.floats(-50, 50).map(lambda x: round(x, 3))),
            min_size=3, max_size=15),
        k=st.floats(0.1, 5), c=st.floats(-10, 10),
    )
    def test_pearson_affine_invariance(self, pairs, k, c):
        from uca.errors import ConstantSampleError

        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        try:
            base = pearson_r(a, b)
        except ConstantSampleError:
            return
        assert pearson_r([k * x + c for x in a], b) == pytest.approx(base, abs=1e-6)

    @classmethod
    def teardown_class(cls):
        print("ACCEPTANCE 8 PASS: invariant property suite (score bounds, "
              "monotonicity, weighted-sum boundedness, swap antisymmetry, "
              "CV scale invariance, Pearson affine invariance)")
