"""Normalization of tool results to 0-100 scores and their weighted blends.

The standard unified score is a weighted sum of the three normalized tool
scores (defaults 0.4 Lynis, 0.4 OpenSCAP, 0.2 AIDE). The extended score
blends the standard score with the custom-rule compliance percentage
(default 0.8/0.2). Normalizers return plain floats, carried at full precision;
rounding to two decimals happens only at report/CSV boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from . import parsers
from .errors import (
    InvalidWeightsError,
    NegativeCountError,
    NonFiniteError,
    OutOfRangeError,
)
from .jsondoc import known_keys, typed

__all__ = [
    "Tool",
    "WeightConfig",
    "AggregateScore",
    "DEFAULT_WEIGHTS",
    "normalize_lynis",
    "normalize_openscap",
    "normalize_aide",
    "compute_standard_uca",
    "compute_extended_uca",
    "score_tool_document",
]


class Tool(str, Enum):
    LYNIS = "lynis"
    OPENSCAP = "openscap"
    AIDE = "aide"


@dataclass(frozen=True)
class WeightConfig:
    """Blend weights plus the AIDE per-change penalty, checked when made.

    Each field is a JSON number (``jsondoc.typed``), kept as a float. The
    three tool weights must be non-negative and sum to 1; the custom
    blend weight lies in [0, 1]; the penalty is positive. Constructing a
    config that breaks any of these raises InvalidWeightsError.
    """

    w_lynis: float = 0.4
    w_openscap: float = 0.4
    w_aide: float = 0.2
    w_custom: float = 0.2
    aide_penalty_per_change: float = 5.0

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, typed(getattr(self, name), float,
                                                 InvalidWeightsError, name))
        weights = (self.w_lynis, self.w_openscap, self.w_aide)
        if any(not math.isfinite(w) for w in weights + (self.w_custom, self.aide_penalty_per_change)):
            raise InvalidWeightsError("weights must be finite")
        if any(w < 0 for w in weights):
            raise InvalidWeightsError("tool weights must be non-negative")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise InvalidWeightsError(
                f"tool weights must sum to 1, got {sum(weights)!r}"
            )
        if not 0.0 <= self.w_custom <= 1.0:
            raise InvalidWeightsError("w_custom must lie in [0, 1]")
        if self.aide_penalty_per_change <= 0:
            raise InvalidWeightsError("aide_penalty_per_change must be positive")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "WeightConfig":
        """Build a config from a flat mapping, keeping defaults for absent keys."""
        known_keys(mapping, cls.__dataclass_fields__, InvalidWeightsError, "weights")
        return cls(**mapping)


DEFAULT_WEIGHTS = WeightConfig()


@dataclass
class AggregateScore:
    """Per node/iteration unified scores with their components.

    ``custom`` and ``extended_uca`` are present together or not at all.
    """

    node: str
    iteration: int
    lynis: float
    openscap: float
    aide: float
    standard_uca: float
    custom: float | None = None
    extended_uca: float | None = None
    timestamp: str | None = None
    id: int | None = None


def _check_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteError(f"{what} must be finite, got {value!r}")
    return value


def _clamp(value: float) -> float:
    return min(100.0, max(0.0, value))


def normalize_lynis(raw: float) -> float:
    """Clamp a hardening index to [0, 100]; the scale is already 0-100."""
    return _clamp(_check_finite(raw, "lynis score"))


def normalize_openscap(raw_pct: float) -> float:
    """Clamp a compliance percentage to [0, 100]."""
    return _clamp(_check_finite(raw_pct, "openscap score"))


def normalize_aide(added: int, removed: int, changed: int,
                   penalty: float = DEFAULT_WEIGHTS.aide_penalty_per_change) -> float:
    """Integrity score: start at 100, subtract ``penalty`` per change, floor 0."""
    counts = (added, removed, changed)
    if any(c < 0 for c in counts):
        raise NegativeCountError(f"change counts must be non-negative, got {counts}")
    if not math.isfinite(penalty) or penalty <= 0:
        raise OutOfRangeError(f"penalty must be positive, got {penalty!r}")
    return max(0.0, 100.0 - penalty * sum(counts))


def _check_score(value: float, what: str) -> float:
    value = _check_finite(value, what)
    if not 0.0 <= value <= 100.0:
        raise OutOfRangeError(f"{what} must lie in [0, 100], got {value!r}")
    return value


def compute_standard_uca(
    lynis: float,
    openscap: float,
    aide: float,
    weights: WeightConfig = DEFAULT_WEIGHTS,
) -> float:
    """Weighted sum of the three normalized tool scores."""
    lynis = _check_score(lynis, "lynis component")
    openscap = _check_score(openscap, "openscap component")
    aide = _check_score(aide, "aide component")
    return weights.w_lynis * lynis + weights.w_openscap * openscap + weights.w_aide * aide


def compute_extended_uca(
    standard: float,
    custom: float,
    weights: WeightConfig = DEFAULT_WEIGHTS,
) -> float:
    """Blend the standard score with the custom-rule score."""
    standard = _check_score(standard, "standard score")
    custom = _check_score(custom, "custom score")
    return (1.0 - weights.w_custom) * standard + weights.w_custom * custom


def score_tool_document(tool: Tool, document: str | bytes | Iterable[bytes],
                        penalty: float = DEFAULT_WEIGHTS.aide_penalty_per_change
                        ) -> tuple[float, float]:
    """Parse a tool output document and return (raw score, normalized score).

    The document is text, bytes or an iterable of byte pieces, for every
    tool. The raw score is the tool-native value: hardening index,
    compliance percentage, or total AIDE change count.
    """
    tool = Tool(tool)
    if tool is Tool.LYNIS:
        report = parsers.parse_lynis_report(document)
        return float(report.hardening_index), normalize_lynis(report.hardening_index)
    if tool is Tool.OPENSCAP:
        scap = parsers.parse_xccdf_results(document)
        return scap.compliance_pct, normalize_openscap(scap.compliance_pct)
    aide = parsers.parse_aide_report(document)
    normalized = normalize_aide(aide.added, aide.removed, aide.changed, penalty=penalty)
    return float(aide.total_changes), normalized
