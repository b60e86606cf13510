import pytest
from hypothesis import given
from hypothesis import strategies as st

from uca.errors import (
    InvalidWeightsError,
    NegativeCountError,
    NonFiniteError,
    OutOfRangeError,
)
from uca.fixtures import make_aide_fixture, make_lynis_fixture, make_xccdf_fixture
from uca.scoring import (
    Tool,
    WeightConfig,
    compute_extended_uca,
    compute_standard_uca,
    normalize_aide,
    normalize_lynis,
    normalize_openscap,
    score_tool_document,
)

scores = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


class TestNormalization:
    def test_lynis_identity_and_clamps(self):
        assert normalize_lynis(64) == 64
        assert normalize_lynis(105) == 100
        assert normalize_lynis(-3) == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_lynis_non_finite(self, bad):
        with pytest.raises(NonFiniteError):
            normalize_lynis(bad)

    def test_openscap(self):
        assert normalize_openscap(71.82) == pytest.approx(71.82)
        assert normalize_openscap(0) == 0
        assert normalize_openscap(100.4) == 100

    def test_aide_examples(self):
        assert normalize_aide(0, 0, 0) == 100
        assert normalize_aide(2, 1, 4) == 65  # 100 - 5*7
        assert normalize_aide(10, 10, 10) == 0

    def test_aide_negative_count(self):
        with pytest.raises(NegativeCountError):
            normalize_aide(-1, 0, 0)

    def test_aide_penalty_param(self):
        assert normalize_aide(1, 1, 0, penalty=10) == 80
        with pytest.raises(OutOfRangeError):
            normalize_aide(0, 0, 0, penalty=0)

    @given(raw=st.floats(allow_nan=False, allow_infinity=False))
    def test_outputs_bounded(self, raw):
        assert 0 <= normalize_lynis(raw) <= 100
        assert 0 <= normalize_openscap(raw) <= 100

    @given(
        a=st.integers(0, 50), r=st.integers(0, 50), c=st.integers(0, 50),
        bump=st.integers(1, 10),
    )
    def test_aide_monotone_non_increasing(self, a, r, c, bump):
        base = normalize_aide(a, r, c)
        assert normalize_aide(a + bump, r, c) <= base
        assert normalize_aide(a, r + bump, c) <= base
        assert normalize_aide(a, r, c + bump) <= base

    @given(a=st.integers(0, 200), r=st.integers(0, 200), c=st.integers(0, 200))
    def test_aide_floor(self, a, r, c):
        value = normalize_aide(a, r, c)
        assert 0 <= value <= 100
        if a + r + c >= 20:  # 100 / default penalty
            assert value == 0


class TestWeightConfig:
    def test_defaults_are_valid(self):
        WeightConfig()

    def test_sum_must_be_one(self):
        with pytest.raises(InvalidWeightsError):
            WeightConfig(w_lynis=0.5, w_openscap=0.5, w_aide=0.2)

    def test_negative_weight(self):
        with pytest.raises(InvalidWeightsError):
            WeightConfig(w_lynis=-0.2, w_openscap=1.0, w_aide=0.2)

    def test_custom_weight_range(self):
        with pytest.raises(InvalidWeightsError):
            WeightConfig(w_custom=1.5)

    @pytest.mark.parametrize("w_custom", [0.0, 1.0])
    def test_custom_weight_bounds_accepted(self, w_custom):
        assert WeightConfig(w_custom=w_custom).w_custom == w_custom

    def test_zero_tool_weight_accepted(self):
        assert WeightConfig(w_lynis=0.5, w_openscap=0.5, w_aide=0.0).w_aide == 0.0

    @pytest.mark.parametrize("field", ["w_lynis", "w_openscap", "w_aide", "w_custom",
                                       "aide_penalty_per_change"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_weight(self, field, value):
        with pytest.raises(InvalidWeightsError, match="^weights must be finite$"):
            WeightConfig(**{field: value})

    @pytest.mark.parametrize("penalty", [0.0, -5.0])
    def test_penalty_must_be_positive(self, penalty):
        with pytest.raises(InvalidWeightsError,
                           match="^aide_penalty_per_change must be positive$"):
            WeightConfig(aide_penalty_per_change=penalty)

    def test_from_mapping_overrides(self):
        config = WeightConfig.from_mapping({"w_custom": 0.3})
        assert config.w_custom == 0.3
        assert config.w_lynis == 0.4

    def test_from_mapping_unknown_key(self):
        with pytest.raises(InvalidWeightsError) as raised:
            WeightConfig.from_mapping({"w_tripwire": 0.2})
        assert str(raised.value) == "weights: unknown keys ['w_tripwire']"

    def test_from_mapping_non_numeric(self):
        with pytest.raises(InvalidWeightsError):
            WeightConfig.from_mapping({"w_lynis": "heavy"})


class TestStandardUca:
    def test_reference_means(self):
        assert compute_standard_uca(63.08, 39.73, 45.83) == pytest.approx(50.29, abs=1e-9)
        assert compute_standard_uca(64.00, 41.20, 45.83) == pytest.approx(51.246, abs=1e-9)
        assert compute_standard_uca(64.92, 71.82, 36.67) == pytest.approx(62.03, abs=1e-9)

    def test_weights_sum_to_one_fixed_point(self):
        assert compute_standard_uca(100, 100, 100) == pytest.approx(100.0)

    def test_component_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            compute_standard_uca(101, 50, 50)
        with pytest.raises(OutOfRangeError):
            compute_standard_uca(50, -1, 50)

    def test_invalid_weights_rejected(self):
        with pytest.raises(InvalidWeightsError):
            compute_standard_uca(50, 50, 50, WeightConfig(w_lynis=0.9, w_openscap=0.9,
                                                          w_aide=0.2))

    @given(lynis=scores, openscap=scores, aide=scores)
    def test_bounded_by_components(self, lynis, openscap, aide):
        value = compute_standard_uca(lynis, openscap, aide)
        assert min(lynis, openscap, aide) - 1e-9 <= value
        assert value <= max(lynis, openscap, aide) + 1e-9

    @given(lynis=scores, openscap=scores, aide=scores,
           bump=st.floats(min_value=0.01, max_value=50))
    def test_monotone_in_each_component(self, lynis, openscap, aide, bump):
        base = compute_standard_uca(lynis, openscap, aide)
        assert compute_standard_uca(min(100, lynis + bump), openscap, aide) >= base
        assert compute_standard_uca(lynis, min(100, openscap + bump), aide) >= base
        assert compute_standard_uca(lynis, openscap, min(100, aide + bump)) >= base

    @given(a=scores, b=scores, c=scores)
    def test_symmetric_under_equal_weights(self, a, b, c):
        # default weights have w_lynis == w_openscap
        assert compute_standard_uca(a, b, c) == pytest.approx(
            compute_standard_uca(b, a, c), abs=1e-9
        )


class TestExtendedUca:
    def test_reference_blends(self):
        assert compute_extended_uca(49.50, 39.34) == pytest.approx(47.468, abs=1e-9)
        assert compute_extended_uca(50.57, 72.13) == pytest.approx(54.882, abs=1e-9)
        assert compute_extended_uca(62.03, 83.61) == pytest.approx(66.35, abs=0.01)
        assert compute_extended_uca(100, 100) == pytest.approx(100.0)

    @given(s=scores)
    def test_fixed_point_when_custom_equals_standard(self, s):
        assert compute_extended_uca(s, s) == pytest.approx(s, abs=1e-9)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            compute_extended_uca(100.5, 50)


class TestScoreToolDocument:
    def test_lynis(self):
        raw, norm = score_tool_document(Tool.LYNIS, make_lynis_fixture(64))
        assert (raw, norm) == (64.0, 64.0)

    def test_openscap(self):
        raw, norm = score_tool_document(Tool.OPENSCAP, make_xccdf_fixture(28, 12, {}))
        assert raw == pytest.approx(70.0)
        assert norm == pytest.approx(70.0)

    def test_aide_uses_penalty(self):
        document = make_aide_fixture(2, 1, 4)
        raw, norm = score_tool_document(Tool.AIDE, document, penalty=5.0)
        assert raw == 7.0
        assert norm == 65.0
        _, norm10 = score_tool_document(Tool.AIDE, document, penalty=10.0)
        assert norm10 == 30.0
