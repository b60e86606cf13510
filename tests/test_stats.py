import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_group
from uca.errors import (
    ConstantSampleError,
    DegenerateSampleError,
    EmptySampleError,
    InvalidDfError,
    LengthMismatchError,
    NonFiniteError,
    OutOfRangeError,
    ZeroMeanError,
)
from uca import stats
from uca.stats import (
    coefficient_of_variation,
    describe,
    pearson_r,
    pooled_t_test,
    regularized_incomplete_beta,
    student_t_two_tailed_p,
)


def t_pdf(x: float, df: float) -> float:
    """Student-t density, written independently of the survival code."""
    log_coeff = (
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    )
    return math.exp(log_coeff - (df + 1) / 2 * math.log(1 + x * x / df))


def quad_two_tailed_p(t: float, df: float) -> float:
    """Independent numerical-integration oracle for the two-tailed p-value."""
    from scipy.integrate import quad

    tail, _ = quad(t_pdf, abs(t), math.inf, args=(df,), epsabs=1e-13, epsrel=1e-13)
    return 2.0 * tail


class TestDescribe:
    def test_textbook_sample(self):
        summary = describe([1, 2, 3])
        assert summary.mean == pytest.approx(2.0)
        assert summary.sd == pytest.approx(1.0)
        assert (summary.min, summary.max, summary.n) == (1, 3, 3)

    def test_constant_sample(self):
        assert describe([5, 5, 5, 5]).sd == 0.0

    def test_single_observation(self):
        summary = describe([63.08])
        assert summary.mean == pytest.approx(63.08)
        assert summary.sd == 0.0
        assert summary.n == 1

    def test_empty(self):
        with pytest.raises(EmptySampleError):
            describe([])

    def test_two_values_have_their_spread(self):
        # the smallest sample with a sample variance: (1 - 2)^2 + (3 - 2)^2 over n - 1
        assert describe([1.0, 3.0]).sd == math.sqrt(2.0)

    @given(
        xs=st.lists(st.floats(-100, 100), min_size=2, max_size=30),
        k=st.floats(0.1, 10), c=st.floats(-50, 50),
    )
    def test_shift_scale(self, xs, k, c):
        base = describe(xs)
        transformed = describe([k * x + c for x in xs])
        assert transformed.mean == pytest.approx(k * base.mean + c, abs=1e-6)
        assert transformed.sd == pytest.approx(abs(k) * base.sd, abs=1e-6)


class TestPooledTTest:
    def test_lynis_reference_row(self):
        result = pooled_t_test(
            exact_group(63.08, 2.5205, 12), exact_group(64.92, 2.5205, 12)
        )
        assert result.t == pytest.approx(1.79, abs=0.01)
        assert result.df == 22
        assert result.p_two_tailed == pytest.approx(0.087, abs=0.002)
        assert result.d == pytest.approx(0.73, abs=0.01)
        assert result.mean_diff == pytest.approx(1.84, abs=1e-9)

    def test_openscap_reference_row(self):
        result = pooled_t_test(
            exact_group(39.73, 5.367, 12), exact_group(71.82, 5.367, 12)
        )
        assert result.t == pytest.approx(14.64, abs=0.01)
        assert result.p_two_tailed < 0.001
        assert result.d == pytest.approx(5.98, abs=0.01)

    def test_aide_reference_row(self):
        result = pooled_t_test(
            exact_group(45.83, 13.086, 12), exact_group(36.67, 13.086, 12)
        )
        assert result.t == pytest.approx(-1.72, abs=0.01)
        assert result.p_two_tailed == pytest.approx(0.100, abs=0.002)
        assert result.d == pytest.approx(-0.70, abs=0.01)

    def test_identical_groups(self):
        result = pooled_t_test([5, 5, 5], [5, 5, 5])
        assert (result.t, result.p_two_tailed, result.d) == (0.0, 1.0, 0.0)

    def test_degenerate_groups(self):
        with pytest.raises(DegenerateSampleError):
            pooled_t_test([5, 5, 5], [7, 7, 7])

    @pytest.mark.parametrize("welch", [False, True])
    def test_two_against_two_matches_scipy(self, welch):
        from scipy.stats import ttest_ind

        low, high = [60.0, 64.0], [70.0, 71.0]
        result = pooled_t_test(low, high, welch=welch)
        reference = ttest_ind(high, low, equal_var=not welch)
        assert result.t == pytest.approx(reference.statistic, rel=1e-12)
        assert result.p_two_tailed == pytest.approx(reference.pvalue, rel=1e-9)
        assert result.df == pytest.approx(reference.df, rel=1e-12)

    def test_degenerate_groups_with_inexact_means(self):
        with pytest.raises(DegenerateSampleError):
            pooled_t_test([3.277, 3.277, 3.277], [5.123, 5.123, 5.123])

    def test_groups_too_small(self):
        with pytest.raises(EmptySampleError):
            pooled_t_test([1], [2, 3])

    def test_sign_matches_mean_diff(self):
        result = pooled_t_test([1, 2, 3], [4, 5, 7])
        assert result.t > 0
        assert result.mean_diff > 0

    def test_welch_matches_pooled_for_balanced_equal_variance(self):
        group1 = exact_group(10, 2, 12)
        group2 = exact_group(12, 2, 12)
        pooled = pooled_t_test(group1, group2)
        welch = pooled_t_test(group1, group2, welch=True)
        assert welch.t == pytest.approx(pooled.t, abs=1e-9)
        assert welch.df == pytest.approx(22, abs=1e-6)
        assert welch.d == pytest.approx(pooled.d, abs=1e-12)

    def test_welch_df_below_pooled_when_unbalanced(self):
        result = pooled_t_test([1.0, 2.0, 3.0], [10.0, 30.0, 50.0, 70.0], welch=True)
        assert result.df < 5

    sample = st.lists(
        st.floats(0, 100).map(lambda x: round(x, 3)), min_size=2, max_size=25
    )

    @given(a=sample, b=sample)
    def test_group_swap_antisymmetry(self, a, b):
        try:
            forward = pooled_t_test(a, b)
            backward = pooled_t_test(b, a)
        except DegenerateSampleError:
            return
        assert forward.t == pytest.approx(-backward.t, abs=1e-9)
        assert forward.p_two_tailed == pytest.approx(backward.p_two_tailed, abs=1e-9)
        assert abs(forward.d) == pytest.approx(abs(backward.d), abs=1e-9)

    @given(a=sample, b=sample)
    def test_t_equals_d_times_sqrt_term(self, a, b):
        try:
            result = pooled_t_test(a, b)
        except DegenerateSampleError:
            return
        n1, n2 = len(a), len(b)
        expected = result.d * math.sqrt(n1 * n2 / (n1 + n2))
        assert result.t == pytest.approx(expected, abs=1e-9, rel=1e-9)


class TestStudentTP:
    def test_center_is_one(self):
        assert student_t_two_tailed_p(0, 22) == 1.0

    def test_reference_values(self):
        assert student_t_two_tailed_p(1.79, 22) == pytest.approx(0.0872, abs=0.0005)
        assert student_t_two_tailed_p(1.72, 22) == pytest.approx(0.0995, abs=0.0005)

    def test_symmetric_in_t(self):
        assert student_t_two_tailed_p(-1.79, 22) == student_t_two_tailed_p(1.79, 22)

    def test_invalid_df(self):
        with pytest.raises(InvalidDfError):
            student_t_two_tailed_p(1.0, 0)

    @pytest.mark.parametrize("df", [math.nan, math.inf])
    def test_non_finite_df(self, df):
        # NaN compares false with 1, so only ``not df >= 1`` refuses it; an
        # infinite df passed that and ended in OutOfRangeError: x ... got nan
        with pytest.raises(InvalidDfError, match=r"degrees of freedom .* got (nan|inf)"):
            student_t_two_tailed_p(1.0, df)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_is_a_typed_error(self, t):
        with pytest.raises(NonFiniteError, match="t must be finite"):
            student_t_two_tailed_p(t, 22)

    @pytest.mark.parametrize("t", [0.0, 0.31, 1.0, 1.79, 2.5, 5.0, 12.0, 20.0])
    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 22, 47, 100])
    def test_agrees_with_quadrature_oracle(self, t, df):
        assert student_t_two_tailed_p(t, df) == pytest.approx(
            quad_two_tailed_p(t, df), abs=1e-8
        )

    @pytest.mark.parametrize("df", [1, 2, 5, 30, 198, 1e3, 1e5])
    def test_within_1e_10_of_scipy_up_to_df_1e5(self, df):
        # the accuracy the comment above stats._betacf states; 198 is the report's
        # df at 100 nodes x 100 iterations
        from scipy.stats import t as student_t

        for t in (0.02 + (8 - 0.02) * k / 200 for k in range(201)):
            assert student_t_two_tailed_p(t, df) == pytest.approx(
                2.0 * student_t.sf(t, df), abs=1e-10)

    @given(df=st.integers(1, 100), t=st.floats(0, 20))
    def test_monotone_decreasing_in_abs_t(self, df, t):
        higher = student_t_two_tailed_p(t + 0.5, df)
        assert higher <= student_t_two_tailed_p(t, df) + 1e-12

    @given(df=st.integers(1, 200))
    def test_p_in_unit_interval(self, df):
        for t in (0.0, 0.5, 3.0, 15.0):
            p = student_t_two_tailed_p(t, df)
            assert 0.0 < p <= 1.0

    def test_incomplete_beta_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        # I_x(1,1) = x
        assert regularized_incomplete_beta(1.0, 1.0, 0.42) == pytest.approx(0.42, abs=1e-12)

    # the library contract of an exported function, whose one caller in the
    # package passes a = df/2 >= 0.5, b = 0.5 and x in (0, 1]
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (math.nan, 1.0),
                                      (1.0, math.nan)])
    def test_incomplete_beta_refuses_a_shape_not_positive(self, a, b):
        with pytest.raises(OutOfRangeError, match="a and b must be positive"):
            regularized_incomplete_beta(a, b, 0.5)

    @pytest.mark.parametrize("x", [-0.1, 1.1, math.nan, math.inf])
    def test_incomplete_beta_refuses_x_outside_unit_interval(self, x):
        with pytest.raises(OutOfRangeError, match=r"x must lie in \[0, 1\]"):
            regularized_incomplete_beta(2.0, 3.0, x)

    def test_continued_fraction_that_does_not_converge_raises(self, monkeypatch):
        # 500 iterations are far more than any df up to 1e5 needs; two are not
        monkeypatch.setattr(stats, "_CF_MAX_ITER", 2)
        with pytest.raises(ArithmeticError, match="did not converge"):
            student_t_two_tailed_p(1.79, 22)


class TestPearson:
    def test_positive_affine(self):
        a = [1.0, 2.0, 3.0, 4.0]
        assert pearson_r(a, [2 * x + 1 for x in a]) == pytest.approx(1.0)

    def test_negation(self):
        a = [1.0, 2.0, 5.0]
        assert pearson_r(a, [-x for x in a]) == pytest.approx(-1.0)

    def test_hand_computed_value(self):
        assert pearson_r([1, 2, 3], [1, 2, 4]) == pytest.approx(0.9820, abs=0.0001)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            pearson_r([1, 2], [1, 2, 3])

    def test_constant_sample(self):
        with pytest.raises(ConstantSampleError):
            pearson_r([1, 1, 1], [1, 2, 3])

    def test_one_pair(self):
        with pytest.raises(EmptySampleError, match="at least two pairs"):
            pearson_r([1.0], [2.0])

    def test_spread_whose_square_underflows(self):
        # the deviations are 5e-201, whose squares are below the smallest float
        with pytest.raises(ConstantSampleError, match="below float resolution"):
            pearson_r([1e-200, 2e-200], [1.0, 2.0])

    def test_constant_sample_with_inexact_mean(self):
        # fsum([3.277]*3)/3 != 3.277, so constancy must not rely on the
        # deviations summing to zero
        with pytest.raises(ConstantSampleError):
            pearson_r([3.277, 3.277, 3.277], [1, 2, 3])

    # quantized values keep the sample spread well above float absorption
    # when the affine shift is applied
    paired = st.lists(
        st.tuples(st.floats(-100, 100).map(lambda x: round(x, 3)),
                  st.floats(-100, 100).map(lambda x: round(x, 3))),
        min_size=3, max_size=20,
    )

    @given(pairs=paired, k=st.floats(0.1, 5), c=st.floats(-10, 10))
    def test_invariant_under_positive_affine(self, pairs, k, c):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        try:
            base = pearson_r(a, b)
        except ConstantSampleError:
            return
        assert pearson_r([k * x + c for x in a], b) == pytest.approx(base, abs=1e-6)
        assert pearson_r(a, [-y for y in b]) == pytest.approx(-base, abs=1e-6)


class TestCoefficientOfVariation:
    def test_textbook(self):
        assert coefficient_of_variation([9, 10, 11]) == pytest.approx(10.0)

    def test_constant_sample_is_zero(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0

    def test_zero_mean(self):
        with pytest.raises(ZeroMeanError):
            coefficient_of_variation([-1, 1])

    def test_too_small(self):
        with pytest.raises(EmptySampleError):
            coefficient_of_variation([1])

    def test_low_variation_series(self):
        # series constructed with sd/mean = 0.012
        series = exact_group(50.0, 0.6, 12)
        assert coefficient_of_variation(series) == pytest.approx(1.2, abs=0.01)

    @settings(max_examples=50)
    @given(
        xs=st.lists(st.floats(1, 100), min_size=2, max_size=20),
        k=st.floats(0.01, 100),
    )
    def test_scale_invariance(self, xs, k):
        try:
            base = coefficient_of_variation(xs)
        except ZeroMeanError:
            return
        assert coefficient_of_variation([k * x for x in xs]) == pytest.approx(
            base, rel=1e-6, abs=1e-9
        )
