from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import riskcontest as rc
from riskcontest.errors import UndefinedRateError, ValidationError

from conftest import CLASSROOM_SCORES


def submission(*indices, team="t"):
    return rc.Submission(team, tuple(sorted(indices)))


class TestConfusionCounts:
    def test_classroom_team_a(self, classroom_truth):
        counts = rc.confusion_counts(submission(3, 6, 8, 16, 17, 20), classroom_truth, 20)
        assert counts == (4, 2, 11, 3)

    def test_empty_submission(self, classroom_truth):
        assert rc.confusion_counts(submission(), classroom_truth, 20) == (0, 0, 13, 7)

    def test_perfect_submission(self, classroom_truth):
        perfect = submission(*classroom_truth.relevant)
        assert rc.confusion_counts(perfect, classroom_truth, 20) == (7, 0, 13, 0)

    def test_out_of_range_index(self, classroom_truth):
        with pytest.raises(ValidationError):
            rc.confusion_counts(submission(21), classroom_truth, 20)

    def test_accepts_plain_index_sets(self):
        assert rc.confusion_counts(submission(1, 2), {2, 3}, 5) == (1, 1, 2, 1)

    @given(st.data(), st.integers(1, 60))
    def test_counts_partition_the_variables(self, data, d):
        """TP + FP + TN + FN = d, each count >= 0, for every submission and
        truth over d variables."""
        indices = st.sets(st.integers(1, d))
        relevant = sorted(data.draw(indices))
        truth = rc.GroundTruth(tuple(relevant), {j: 0.5 for j in relevant}, (),
                               (0.1,) * d)
        picked = submission(*data.draw(indices))
        counts = rc.confusion_counts(picked, truth, d)
        assert sum(counts) == d
        assert min(counts) >= 0
        tp, fp, _, fn = counts
        assert (tp + fp, tp + fn) == (len(picked.selected), truth.k)


class TestContestScore:
    def test_classroom_scores(self, classroom_truth, classroom_submissions):
        for team, sub in classroom_submissions.items():
            report = rc.contest_score(sub, classroom_truth)
            assert report.score == CLASSROOM_SCORES[team]

    def test_classroom_percentages(self, classroom_truth, classroom_submissions):
        pct = {team: (rc.contest_score(sub, classroom_truth).tpr_pct,
                      rc.contest_score(sub, classroom_truth).tnr_pct)
               for team, sub in classroom_submissions.items()}
        assert pct == {"team_a": (57, 85), "team_b": (29, 92),
                       "team_c": (57, 85), "team_d": (43, 85)}

    def test_truth_without_relevant_variables(self):
        with pytest.raises(ValidationError, match="truth has no relevant variables"):
            rc.contest_score(submission(1), (), d=5)

    def test_perfect_score(self, classroom_truth):
        report = rc.contest_score(submission(*classroom_truth.relevant), classroom_truth)
        assert report.score == 10 * 7 + 3 * 13 == 109

    @given(st.sets(st.integers(1, 12), min_size=1, max_size=11).flatmap(
        lambda rel: st.tuples(st.just(rel), st.sets(st.integers(1, 12), max_size=12))))
    def test_count_decomposition(self, case):
        relevant, selected = case
        tp, fp, tn, fn = rc.confusion_counts(submission(*selected), relevant, 12)
        assert tp + fn == len(relevant)
        assert fp + tn == 12 - len(relevant)
        assert min(tp, fp, tn, fn) >= 0

    def test_adding_variables_moves_score_by_13(self, classroom_truth):
        base = rc.contest_score(submission(3, 6), classroom_truth).score
        with_hit = rc.contest_score(submission(3, 6, 12), classroom_truth).score
        with_miss = rc.contest_score(submission(3, 6, 11), classroom_truth).score
        assert with_hit - base == 13   # w_tp - w_fn
        assert with_miss - base == -13  # w_fp - w_tn

    @given(st.data())
    def test_score_deltas_on_random_submissions(self, data):
        relevant = data.draw(st.sets(st.integers(1, 10), min_size=1, max_size=9))
        selected = data.draw(st.sets(st.integers(1, 10), max_size=9))
        missing = sorted(set(range(1, 11)) - selected)
        if not missing:
            return
        extra = data.draw(st.sampled_from(missing))
        base = rc.contest_score(submission(*selected), relevant, d=10).score
        grown = rc.contest_score(submission(*selected, extra), relevant, d=10).score
        assert grown - base == (13 if extra in relevant else -13)

    def test_maximum_only_at_truth(self):
        truth = {2, 5}
        best = 10 * 2 + 3 * 4
        scores = {}
        for size in range(7):
            for sel in combinations(range(1, 7), size):
                scores[sel] = rc.contest_score(submission(*sel), truth, d=6).score
        assert max(scores.values()) == best
        winners = [sel for sel, s in scores.items() if s == best]
        assert winners == [(2, 5)]


class TestWeights:
    def test_presets(self):
        assert rc.WEIGHT_PRESETS["table1"] == rc.ScoringWeights(10, -10, 3, -3)
        assert rc.WEIGHT_PRESETS["proposed"] == rc.ScoringWeights(10, -10, 3, -4)

    @pytest.mark.parametrize("weights", [
        (0, -10, 3, -3), (10, -10, 0, -3), (10, 1, 3, -3),
        (10, -2, 3, -3), (10, -10, 3, 1),
    ])
    def test_invalid_weights(self, weights):
        with pytest.raises(ValidationError):
            rc.ScoringWeights(*weights)

    def test_custom_weights_change_score(self, classroom_truth):
        report = rc.contest_score(submission(3, 6, 8), classroom_truth,
                                  rc.ScoringWeights(10, -10, 3, -4))
        assert report.score == 20 - 10 + 36 - 20


class TestYouden:
    def test_classroom_team_a(self, classroom_truth):
        value = rc.youden_index(submission(3, 6, 8, 16, 17, 20), classroom_truth, 20)
        assert value == pytest.approx(4 / 7 + 11 / 13 - 1, abs=1e-12)

    def test_boundaries(self, classroom_truth):
        assert rc.youden_index(submission(*classroom_truth.relevant),
                               classroom_truth, 20) == pytest.approx(1.0)
        assert rc.youden_index(submission(), classroom_truth, 20) == pytest.approx(0.0)
        assert rc.youden_index(submission(*range(1, 21)),
                               classroom_truth, 20) == pytest.approx(0.0)

    def test_undefined_for_degenerate_truths(self):
        with pytest.raises(UndefinedRateError):
            rc.youden_index(submission(1), set(), 5)
        with pytest.raises(UndefinedRateError):
            rc.youden_index(submission(1), {1, 2, 3, 4, 5}, 5)


class TestLeaderboard:
    def test_classroom_order(self, classroom_truth, classroom_submissions):
        reports = [rc.contest_score(sub, classroom_truth)
                   for sub in classroom_submissions.values()]
        ranked = rc.rank_leaderboard(reports)
        assert [r.team for r in ranked] == ["team_a", "team_c", "team_b", "team_d"]

    def test_single_report(self, classroom_truth):
        report = rc.contest_score(submission(3, team="solo"), classroom_truth)
        assert rc.rank_leaderboard([report]) == [report]

    def test_equal_reports_sort_by_label(self, classroom_truth):
        reports = [rc.contest_score(submission(3, 6, team=t), classroom_truth)
                   for t in ("zeta", "alpha", "mid")]
        assert [r.team for r in rc.rank_leaderboard(reports)] == ["alpha", "mid", "zeta"]

    def test_fewer_false_positives_break_ties(self):
        truth = {1, 2, 3, 4}
        a = rc.contest_score(submission(1, 2, 3, 9, team="wide"), truth, d=12)
        b = rc.contest_score(submission(1, 2, team="narrow"), truth, d=12)
        assert a.score == b.score == 38
        assert [r.team for r in rc.rank_leaderboard([a, b])] == ["narrow", "wide"]
