"""Descriptive and inferential statistics over score samples.

Implements the pooled two-sample t-test with Cohen's d (a Welch variant is
available behind a flag), the two-tailed Student-t p-value via the
regularized incomplete beta function, Pearson correlation and the
coefficient of variation. Everything here is pure computation on plain
sequences of floats.

The pooled form satisfies t = d * sqrt(n1*n2/(n1+n2)) exactly, which is the
identity used to cross-check reported effect sizes against t statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    ConstantSampleError,
    DegenerateSampleError,
    EmptySampleError,
    InvalidDfError,
    LengthMismatchError,
    NonFiniteError,
    OutOfRangeError,
    ZeroMeanError,
)

__all__ = [
    "StatSummary",
    "TestResult",
    "describe",
    "pooled_t_test",
    "student_t_two_tailed_p",
    "regularized_incomplete_beta",
    "pearson_r",
    "coefficient_of_variation",
]


@dataclass(frozen=True)
class StatSummary:
    mean: float
    sd: float
    min: float
    max: float
    n: int


@dataclass(frozen=True)
class TestResult:
    """Two-sample test outcome, oriented as group2 - group1."""

    t: float
    df: float
    p_two_tailed: float
    d: float
    mean_diff: float


def _mean(xs: Sequence[float]) -> float:
    return math.fsum(xs) / len(xs)


def _sample_var(xs: Sequence[float], mean: float) -> float:
    # n-1 denominator; 0.0 for n == 1. The constant check keeps samples like
    # [3.277]*3 at exactly zero variance despite the rounded mean.
    n = len(xs)
    if n < 2 or min(xs) == max(xs):
        return 0.0
    return math.fsum((x - mean) ** 2 for x in xs) / (n - 1)


def describe(samples: Sequence[float]) -> StatSummary:
    """Mean, sample standard deviation (n-1), min, max and sample size."""
    if len(samples) == 0:
        raise EmptySampleError("describe needs at least one observation")
    mean = _mean(samples)
    sd = math.sqrt(_sample_var(samples, mean))
    return StatSummary(mean=mean, sd=sd, min=min(samples), max=max(samples), n=len(samples))


def pooled_t_test(
    group1: Sequence[float],
    group2: Sequence[float],
    welch: bool = False,
) -> TestResult:
    """Independent two-sample t-test, oriented as (group2 - group1).

    Default is the pooled (equal-variance Student) form:
        s_p^2 = ((n1-1) s1^2 + (n2-1) s2^2) / (n1 + n2 - 2)
        t = (m2 - m1) / (s_p sqrt(1/n1 + 1/n2)),  df = n1 + n2 - 2
    Cohen's d = (m2 - m1) / s_p in both variants. With ``welch=True`` the
    statistic uses per-group variances and Welch-Satterthwaite df.

    Two identical constant groups return t=0, p=1, d=0; zero pooled spread
    with differing means raises DegenerateSampleError.
    """
    n1, n2 = len(group1), len(group2)
    if n1 < 2 or n2 < 2:
        raise EmptySampleError("each group needs at least two observations")
    m1, m2 = _mean(group1), _mean(group2)
    v1, v2 = _sample_var(group1, m1), _sample_var(group2, m2)
    diff = m2 - m1
    pooled_var = ((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2)
    pooled_sd = math.sqrt(pooled_var)
    if pooled_sd == 0.0:
        if diff == 0.0:
            return TestResult(t=0.0, df=float(n1 + n2 - 2), p_two_tailed=1.0,
                              d=0.0, mean_diff=0.0)
        raise DegenerateSampleError(
            "zero pooled standard deviation with differing means"
        )
    if welch:
        se = math.sqrt(v1 / n1 + v2 / n2)
        df = (v1 / n1 + v2 / n2) ** 2 / (
            (v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1)
        )
        t = diff / se
    else:
        df = float(n1 + n2 - 2)
        t = diff / (pooled_sd * math.sqrt(1.0 / n1 + 1.0 / n2))
    return TestResult(
        t=t,
        df=df,
        p_two_tailed=student_t_two_tailed_p(t, df),
        d=diff / pooled_sd,
        mean_diff=diff,
    )


# Continued-fraction evaluation of the incomplete beta (Lentz's algorithm,
# as in Numerical Recipes). The two-tailed p it gives is within 1e-10 absolute
# of scipy.stats.t.sf for df up to 1e5 (worst 3.8e-11 over t in [0.02, 8]);
# past that the error grows, to about 9e-10 at df 1e6. The report's df is
# at most 198 at 100 nodes x 100 iterations.
_CF_EPS = 1e-15
_CF_FPMIN = 1e-300
_CF_MAX_ITER = 500


def _betacf(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]; any other a, b or x, NaN among
    them, raises OutOfRangeError."""
    if not (a > 0 and b > 0):
        raise OutOfRangeError(f"a and b must be positive, got a={a!r}, b={b!r}")
    if not 0.0 <= x <= 1.0:
        raise OutOfRangeError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    # Use the representation that converges fast for the given x.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_tailed_p(t: float, df: float) -> float:
    """Two-tailed p-value 2*P(T >= |t|) for a Student-t variable with ``df``.

    Uses the identity P(|T| >= t) = I_x(df/2, 1/2) with x = df/(df + t^2).
    A ``df`` below 1 or not finite raises InvalidDfError, a non-finite ``t``
    NonFiniteError.
    """
    if not (df >= 1 and math.isfinite(df)):
        raise InvalidDfError(f"degrees of freedom must be finite and >= 1, got {df!r}")
    if not math.isfinite(t):
        raise NonFiniteError(f"t must be finite, got {t!r}")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def pearson_r(a: Sequence[float], b: Sequence[float]) -> float:
    """Product-moment correlation of two equal-length samples."""
    if len(a) != len(b):
        raise LengthMismatchError(f"sample lengths differ: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise EmptySampleError("correlation needs at least two pairs")
    # min == max catches constant samples even when rounding of the mean
    # would leave a nonzero sum of squares
    if min(a) == max(a) or min(b) == max(b):
        raise ConstantSampleError("correlation is undefined for a constant sample")
    mean_a, mean_b = _mean(a), _mean(b)
    dev_a = [x - mean_a for x in a]
    dev_b = [y - mean_b for y in b]
    ss_a = math.fsum(d * d for d in dev_a)
    ss_b = math.fsum(d * d for d in dev_b)
    if ss_a == 0.0 or ss_b == 0.0:
        # spread too small to square without underflow
        raise ConstantSampleError("sample spread is below float resolution")
    cov = math.fsum(x * y for x, y in zip(dev_a, dev_b))
    r = cov / math.sqrt(ss_a * ss_b)
    return max(-1.0, min(1.0, r))


def coefficient_of_variation(samples: Sequence[float]) -> float:
    """Sample standard deviation over mean, as a percentage."""
    if len(samples) < 2:
        raise EmptySampleError("coefficient of variation needs at least two observations")
    summary = describe(samples)
    if summary.mean == 0.0:
        raise ZeroMeanError("coefficient of variation is undefined for zero mean")
    return 100.0 * summary.sd / summary.mean
