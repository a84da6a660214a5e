"""Three-way action trigger over document relevance scores.

The decision looks only at the best score: above the upper threshold the
retrieval is trusted (Correct), below the lower threshold it is rejected
(Incorrect), anything in between is Ambiguous. Both comparisons are strict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import ConfigError


class Action(str, Enum):
    CORRECT = "Correct"
    INCORRECT = "Incorrect"
    AMBIGUOUS = "Ambiguous"


# Per-dataset (upper, lower) threshold pairs tuned for the relevance scorer.
THRESHOLD_PRESETS = {
    "popqa": (0.59, -0.99),
    "pubhealth": (0.5, -0.91),
    "arc": (0.5, -0.91),
    "biography": (0.95, -0.91),
}


@dataclass(frozen=True)
class Thresholds:
    """An (upper, lower) pair with -1 <= lower < upper <= 1."""

    upper: float
    lower: float

    def __post_init__(self):
        if not (-1.0 <= self.lower < self.upper <= 1.0):
            raise ConfigError(
                f"thresholds must satisfy -1 <= lower < upper <= 1, "
                f"got upper={self.upper} lower={self.lower}"
            )

    @classmethod
    def preset(cls, name: str) -> "Thresholds":
        try:
            upper, lower = THRESHOLD_PRESETS[name]
        except KeyError:
            raise ConfigError(
                f"thresholds.preset must be one of {sorted(THRESHOLD_PRESETS)}, got {name!r}"
            ) from None
        return cls(upper=upper, lower=lower)


@dataclass(frozen=True)
class ActionJudgment:
    """The chosen action and the best score that chose it."""

    action: Action
    max_score: float


def judge(scores: Sequence[float], thresholds: Thresholds) -> ActionJudgment:
    """Pick an action from document scores; none (no documents) is Incorrect at -1.0."""
    if not scores:
        return ActionJudgment(action=Action.INCORRECT, max_score=-1.0)
    best = max(scores)
    if best > thresholds.upper:
        action = Action.CORRECT
    elif best < thresholds.lower:
        action = Action.INCORRECT
    else:
        action = Action.AMBIGUOUS
    return ActionJudgment(action=action, max_score=best)
