"""Acceptance suite: one test per release criterion, each at its stated
tolerance, each printing a single PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s
The slowest items (the full exhaustive search and the 100-replicate
tournament) together take a few minutes at desk scale.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

import riskcontest as rc
from riskcontest.cli import main
from riskcontest.io import write_submission, write_truth_json

from conftest import CLASSROOM_PICKS


def verdict(name: str, ok: bool) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_01_classroom_scores_exact(tmp_path, classroom_truth, capsys):
    """Scoring the four recorded submissions reproduces 44/31/44/31 and the
    rounded percentages exactly, in under a second."""
    truth_path = tmp_path / "truth.json"
    digest = write_truth_json(truth_path, classroom_truth, seed=0, salt="ee" * 16)
    sub_paths = []
    for team, picks in CLASSROOM_PICKS.items():
        p = tmp_path / f"{team}.json"
        write_submission(p, rc.Submission(team, picks))
        sub_paths.append(str(p))
    report_path = tmp_path / "report.csv"

    start = time.perf_counter()
    code = main(["score", "--truth", str(truth_path), "--digest", digest,
                 "--out", str(report_path), *sub_paths])
    elapsed = time.perf_counter() - start
    capsys.readouterr()

    rows = {line.split(",")[0]: line.split(",")
            for line in report_path.read_text().splitlines()[1:]}
    got = {team: (int(row[5]), int(row[6]), float(row[7]))
           for team, row in rows.items()}
    expected = {"team_a": (57, 85, 44.0), "team_b": (29, 92, 31.0),
                "team_c": (57, 85, 44.0), "team_d": (43, 85, 31.0)}
    verdict("classroom scores and percentages reproduced exactly",
            code == 0 and got == expected and elapsed < 1.0)


def test_02_prevalence_grid_matches_classroom_table():
    """The log-uniform grid, in percent rounded to one decimal, equals the
    twenty prevalence entries revealed after the classroom contest."""
    expected = [3.0, 2.5, 2.1, 1.8, 1.5, 1.2, 1.0, 0.9, 0.7, 0.6,
                0.5, 0.4, 0.4, 0.3, 0.2, 0.2, 0.2, 0.1, 0.1, 0.1]
    grid = rc.prevalence_grid(20, 0.03, 0.001)
    rounded = [math.floor(p * 1000 + 0.5) / 10 for p in grid]
    verdict("prevalence grid matches the classroom percentages", rounded == expected)


def test_03_scoring_weights_uniquely_reconstructed():
    """Among all symmetric integer rules in [-20, 20], exactly one reproduces
    the four recorded scores: (+10, -10, +3, -3)."""
    counts = {"team_a": (4, 2, 11, 3), "team_b": (2, 1, 12, 5),
              "team_c": (4, 2, 11, 3), "team_d": (3, 2, 11, 4)}
    wanted = {"team_a": 44, "team_b": 31, "team_c": 44, "team_d": 31}
    start = time.perf_counter()
    solutions = []
    for a in range(-20, 21):
        for b in range(-20, 21):
            if all(a * tp - a * fp + b * tn - b * fn == wanted[t]
                   for t, (tp, fp, tn, fn) in counts.items()):
                solutions.append((a, -a, b, -b))
    elapsed = time.perf_counter() - start
    verdict("weight reconstruction is unique: (+10, -10, +3, -3)",
            solutions == [(10, -10, 3, -3)] and elapsed < 1.0)


def test_04_logistic_fit_matches_closed_form():
    """On 100 random 2x2 tables (all cells >= 5) the fitted slope agrees with
    the closed-form log odds ratio within 1e-8."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        ec, eo, uc, uo = rng.integers(5, 80, size=4)
        x = np.concatenate([np.ones(ec + eo), np.zeros(uc + uo)])[:, None]
        y = np.concatenate([np.ones(ec), np.zeros(eo), np.ones(uc), np.zeros(uo)])
        fit = rc.fit_logistic(x, y)
        worst = max(worst, abs(fit.slopes[0] - math.log(ec * uo / (eo * uc))))
    verdict(f"2x2 closed-form agreement within 1e-8 (worst {worst:.2e})",
            worst < 1e-8)


def test_05_gradient_and_kkt_checks(default_contest):
    """Analytic likelihood gradient matches central differences (rel < 1e-5
    at 20 random points) and every lasso path solution satisfies the
    subgradient conditions within 1e-6."""
    rng = np.random.default_rng(505)
    x = (rng.random((150, 5)) < 0.4).astype(float)
    y = (rng.random(150) < rc.expit(-0.2 + x @ rng.normal(0, 0.7, 5))).astype(float)
    step = 1e-5
    worst_grad = 0.0
    for _ in range(20):
        beta = rng.normal(0, 1, 6)
        grad = rc.log_likelihood_gradient(x, y, beta)
        numeric = np.empty_like(grad)
        for i in range(6):
            hi, lo = beta.copy(), beta.copy()
            hi[i] += step
            lo[i] -= step
            numeric[i] = (rc.log_likelihood(x, y, hi)
                          - rc.log_likelihood(x, y, lo)) / (2 * step)
        rel = np.abs(grad - numeric) / np.maximum(np.abs(grad), 1e-8)
        worst_grad = max(worst_grad, float(rel.max()))

    _, data = default_contest
    xd = data.x.astype(float)
    yd = data.y.astype(float)
    grid = rc.default_lambda_grid(xd, yd)
    path = rc.fit_lasso_path(xd, yd, grid)
    scale = np.where(xd.std(axis=0) == 0, 1.0, xd.std(axis=0))
    xs = (xd - xd.mean(axis=0)) / scale
    worst_kkt = 0.0
    for lam, fit in zip(grid, path):
        beta_std = fit.slopes * scale
        prob = rc.expit(fit.intercept + xd @ fit.slopes)
        g = xs.T @ (prob - yd) / yd.size
        for j in range(20):
            if beta_std[j] != 0.0:
                worst_kkt = max(worst_kkt, abs(g[j] + lam * math.copysign(1, beta_std[j])))
            else:
                worst_kkt = max(worst_kkt, max(0.0, abs(g[j]) - lam))
    verdict(f"gradient (worst rel {worst_grad:.2e}) and lasso KKT "
            f"(worst {worst_kkt:.2e}) checks",
            worst_grad < 1e-5 and worst_kkt <= 1e-6)


def test_06_log_odds_ratio_recovery():
    """With a single planted effect of -0.9 at 2.1% prevalence, the mean
    2x2-table estimate over 200 simulated contests lies in -0.9 +/- 0.1."""
    grid = rc.prevalence_grid(20, 0.03, 0.001)
    truth = rc.GroundTruth((3,), {3: -0.9}, (), tuple(float(p) for p in grid))
    config = rc.SimulationConfig(n_confounders=0)
    estimates = []
    for rep in range(200):
        data = rc.simulate_dataset(truth, config, np.random.default_rng(60_000 + rep))
        exposed = data.x[:, 2] == 1
        a = float(np.sum(exposed & (data.y == 1)))
        b = float(np.sum(exposed & (data.y == 0)))
        c = float(np.sum(~exposed & (data.y == 1)))
        d = float(np.sum(~exposed & (data.y == 0)))
        if min(a, b, c, d) == 0:
            a, b, c, d = a + 0.5, b + 0.5, c + 0.5, d + 0.5
        estimates.append(math.log(a * d / (b * c)))
    mean = float(np.mean(estimates))
    verdict(f"planted log odds ratio recovered (mean {mean:.4f} in -0.9 +/- 0.1)",
            abs(mean - (-0.9)) < 0.1)


def test_07_null_pvalues_uniform():
    """Wald p-values for a null variable, pooled across 200 independent null
    contests, pass a KS test against Uniform(0,1) at level 0.01."""
    grid = rc.prevalence_grid(20, 0.03, 0.001)
    truth = rc.GroundTruth((), {}, (), tuple(float(p) for p in grid))
    config = rc.SimulationConfig(n_confounders=0)
    pvals = []
    for rep in range(200):
        data = rc.simulate_dataset(truth, config, np.random.default_rng(70_000 + rep))
        fit = rc.fit_logistic(data.x.astype(float), data.y.astype(float))
        pvals.append(rc.wald_pvalues(fit)[0])  # variable 1, prevalence 3%
    result = stats.kstest(pvals, "uniform")
    verdict(f"null p-values uniform (KS p = {result.pvalue:.3f} >= 0.01)",
            result.pvalue >= 0.01)


@pytest.mark.slow
def test_08_exhaustive_search_count_and_runtime(default_contest):
    """The exhaustive selector visits exactly 137,769 subsets for twenty
    variables at sizes 3..7 and finishes, with 4-fold CV per subset, in
    under ten minutes."""
    assert sum(math.comb(20, s) for s in range(3, 8)) == 137_769
    _, data = default_contest
    start = time.perf_counter()
    sub = rc.run_selector(data, rc.SelectorSpec("team_c", seed=88))
    elapsed = time.perf_counter() - start
    visited = "137769 subsets" in sub.method_report
    sized = 3 <= len(sub.selected) <= 7
    verdict(f"exhaustive search visited 137,769 subsets in {elapsed:.0f}s",
            visited and sized and elapsed < 600.0)


@pytest.mark.slow
def test_09_tournament_orderings():
    """Over 100 replicated contests, the exhaustive selector's mean score
    strictly exceeds the random baseline's, and every method beats selecting
    everything (whose score per contest is the fixed 20k - 200 < 0)."""
    methods = (
        rc.SelectorSpec("team_c", size_min=3, size_max=3),  # reduced budget
        rc.SelectorSpec("random_baseline"),
        rc.SelectorSpec("full_baseline"),
        rc.SelectorSpec("empty_baseline"),
    )
    config = rc.TournamentConfig(100, methods, rc.SimulationConfig(),
                                 rc.DEFAULT_WEIGHTS, master_seed=909)
    rows, summaries = rc.run_tournament(config)
    means = {s.team: s.mean_score for s in summaries}
    ok_rows = not any(r.error for r in rows)
    full_formula = all(r.score == 20 * r.k - 200
                       for r in rows if r.team == "full_baseline")
    ok_order = (means["team_c"] > means["random_baseline"]
                and all(means[t] > means["full_baseline"]
                        for t in ("team_c", "random_baseline", "empty_baseline")))
    verdict("tournament sanity: informed beats chance "
            f"(team_c {means['team_c']:.1f} > random {means['random_baseline']:.1f}; "
            f"full fixed at {means['full_baseline']:.1f})",
            ok_rows and full_formula and ok_order)


def test_10_byte_identical_reruns(tmp_path, capsys):
    """Repeating simulate and tournament with identical configs yields
    byte-identical output files."""
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text("seed = 1234\n")
    pairs = []
    for tag in ("s1", "s2"):
        out = tmp_path / tag
        assert main(["simulate", "--config", str(sim_cfg), "--out", str(out)]) == 0
        pairs.append(((out / "dataset.csv").read_bytes(),
                      (out / "truth.json").read_bytes()))
    sim_ok = pairs[0] == pairs[1] and pairs[0][0].count(b"\n") == 4001

    t_cfg = tmp_path / "t.cfg"
    t_cfg.write_text(
        "replicates = 2\nmaster_seed = 5\nmethods = team_a, random_baseline\n"
        "team_a.size_max = 4\nn_cases = 200\nn_controls = 200\n")
    t_pairs = []
    for tag in ("t1", "t2"):
        out = tmp_path / tag
        assert main(["tournament", "--config", str(t_cfg), "--out", str(out)]) == 0
        t_pairs.append(((out / "results.csv").read_bytes(),
                        (out / "leaderboard.csv").read_bytes()))
    capsys.readouterr()
    verdict("simulate and tournament reruns are byte-identical",
            sim_ok and t_pairs[0] == t_pairs[1])
