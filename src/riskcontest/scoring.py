"""Scoring: contest rule on confusion counts and Youden's index."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import UndefinedRateError, ValidationError


@dataclass(frozen=True)
class ScoringWeights:
    """Points per classification cell.

    Selections are rewarded for hits (w_tp) and quiet non-selections (w_tn)
    and penalized for false alarms (w_fp) and misses (w_fn); false positives
    must cost at least as much as false negatives.
    """

    w_tp: float = 10.0
    w_fp: float = -10.0
    w_tn: float = 3.0
    w_fn: float = -3.0

    def __post_init__(self):
        if not (self.w_tp > 0 >= self.w_fn):
            raise ValidationError("need w_tp > 0 >= w_fn")
        if not (self.w_tn > 0 >= self.w_fp):
            raise ValidationError("need w_tn > 0 >= w_fp")
        if abs(self.w_fp) < abs(self.w_fn):
            raise ValidationError("false positives must cost at least as much as misses")


DEFAULT_WEIGHTS = ScoringWeights()

# "proposed" breaks the ties the symmetric rule produces; it is an invented
# preset, not a recovered one.
WEIGHT_PRESETS = {
    "table1": DEFAULT_WEIGHTS,
    "proposed": ScoringWeights(10.0, -10.0, 3.0, -4.0),
}


def _pct(numer: int, denom: int) -> int:
    # Whole percents, rounded half-up: the classroom leaderboard format.
    return int(math.floor(100.0 * numer / denom + 0.5))


@dataclass(frozen=True)
class ScoreReport:
    """Confusion counts, rates and total score for one submission."""

    team: str
    tp: int
    fp: int
    tn: int
    fn: int
    score: float

    @property
    def k(self) -> int:
        return self.tp + self.fn

    @property
    def tpr_pct(self) -> int:
        return _pct(self.tp, self.k)

    @property
    def tnr_pct(self) -> int:
        return _pct(self.tn, self.fp + self.tn)


def confusion_counts(submission, truth, d: int) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) of a submission against the truth over d variables;
    the truth is a GroundTruth or any iterable of 1-based indices."""
    selected = frozenset(submission.selected)
    relevant = frozenset(getattr(truth, "relevant", truth))
    for j in selected | relevant:
        if not 1 <= j <= d:
            raise ValidationError(f"variable index {j} outside 1..{d}")
    tp = len(selected & relevant)
    fp = len(selected - relevant)
    fn = len(relevant - selected)
    tn = d - tp - fp - fn
    return tp, fp, tn, fn


def contest_score(submission, truth, weights: ScoringWeights = DEFAULT_WEIGHTS,
                  d: int | None = None) -> ScoreReport:
    """Score one submission with the linear per-cell rule."""
    if d is None:
        d = truth.d
    tp, fp, tn, fn = confusion_counts(submission, truth, d)
    if tp + fn == 0:
        raise ValidationError("truth has no relevant variables to score against")
    score = weights.w_tp * tp + weights.w_fp * fp + weights.w_tn * tn + weights.w_fn * fn
    return ScoreReport(submission.team, tp, fp, tn, fn, float(score))


def youden_index(submission, truth, d: int) -> float:
    """Sensitivity + specificity - 1; ignores the scoring weights entirely."""
    tp, fp, tn, fn = confusion_counts(submission, truth, d)
    k = tp + fn
    if k == 0 or k == d:
        raise UndefinedRateError("Youden's index needs 0 < k < d")
    return tp / k + tn / (d - k) - 1.0


def rank_leaderboard(reports: Iterable[ScoreReport]) -> list[ScoreReport]:
    """Order reports by score, then fewer false positives, then more true
    positives, then team label, so the winner is always unique."""
    return sorted(reports, key=lambda r: (-r.score, r.fp, -r.tp, r.team))
