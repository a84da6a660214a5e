"""Action trigger: strict thresholds, presets, oracle agreement."""

import pytest
from hypothesis import given, strategies as st

from ragmend.errors import ConfigError
from ragmend.trigger import THRESHOLD_PRESETS, Action, ActionJudgment, Thresholds, judge


def brute_force_action(scores, upper, lower):
    best = max(scores)
    if best > upper:
        return "Correct"
    if best < lower:
        return "Incorrect"
    return "Ambiguous"


class TestThresholds:
    def test_preset_values(self):
        assert THRESHOLD_PRESETS == {
            "popqa": (0.59, -0.99),
            "pubhealth": (0.5, -0.91),
            "arc": (0.5, -0.91),
            "biography": (0.95, -0.91),
        }

    def test_preset_constructor(self):
        th = Thresholds.preset("biography")
        assert (th.upper, th.lower) == (0.95, -0.91)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            Thresholds.preset("popqa2")

    @pytest.mark.parametrize(
        "upper,lower",
        [(0.5, 0.5), (0.2, 0.5), (1.5, 0.0), (0.5, -1.5), (-1.0, -1.0)],
    )
    def test_invalid_pairs(self, upper, lower):
        with pytest.raises(ConfigError):
            Thresholds(upper=upper, lower=lower)

    def test_full_range_allowed(self):
        Thresholds(upper=1.0, lower=-1.0)


class TestJudge:
    TH = Thresholds(upper=0.59, lower=-0.99)

    def test_empty_scores(self):
        # No documents: none is relevant, whatever the thresholds; at
        # lower=-1.0 a threshold test would call -1.0 Ambiguous.
        for thresholds in (self.TH, Thresholds(upper=0.5, lower=-1.0), Thresholds(1.0, 0.99)):
            assert judge([], thresholds) == ActionJudgment(Action.INCORRECT, max_score=-1.0)

    def test_above_upper_is_correct(self):
        assert judge([0.6, -1.0], self.TH).action is Action.CORRECT

    def test_below_lower_is_incorrect(self):
        assert judge([-1.0, -0.995], self.TH).action is Action.INCORRECT

    def test_between_is_ambiguous(self):
        assert judge([0.0], self.TH).action is Action.AMBIGUOUS

    def test_equal_upper_is_ambiguous(self):
        assert judge([0.59], self.TH).action is Action.AMBIGUOUS

    def test_equal_lower_is_ambiguous(self):
        assert judge([-0.99], self.TH).action is Action.AMBIGUOUS

    def test_judgment_records_inputs(self):
        # The scores themselves stay on RunRecord.doc_scores, not on the judgment.
        assert judge([0.1, 0.7, -0.2], self.TH) == ActionJudgment(Action.CORRECT, 0.7)

    def test_only_max_matters(self):
        scores = [-1.0, -0.5, 0.61]
        assert judge(scores, self.TH).action == judge([max(scores)], self.TH).action


@st.composite
def scores_and_thresholds(draw):
    scores = draw(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    a = draw(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    b = draw(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    if a == b:
        b = -b if a != 0 else 1.0
        if a == b:
            a, b = -1.0, 1.0
    lower, upper = min(a, b), max(a, b)
    return scores, Thresholds(upper=upper, lower=lower)


class TestJudgeProperties:
    @given(scores_and_thresholds())
    def test_matches_brute_force(self, case):
        scores, th = case
        assert judge(scores, th).action.value == brute_force_action(scores, th.upper, th.lower)

    @given(scores_and_thresholds())
    def test_max_reduction(self, case):
        scores, th = case
        assert judge(scores, th).action == judge([max(scores)], th).action
