"""Command-line harness: simulate, select, score, tournament, verify-truth.

Exit codes: 0 success, 2 validation/configuration error or a file that
cannot be read or written, 3 commitment mismatch, 4 simulation budget
exceeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ContestError, ValidationError
from .io import (
    check_config_keys,
    load_weights,
    parse_config_file,
    read_dataset_csv,
    read_submission,
    read_truth_json,
    selector_spec_from_mapping,
    sim_config_from_mapping,
    verify_commitment,
    write_confounders_csv,
    write_csv,
    write_dataset_csv,
    write_submission,
    write_truth_json,
)
from .scoring import WEIGHT_PRESETS, contest_score, rank_leaderboard, youden_index
from .selectors import METHODS, run_selector
from .sim import draw_ground_truth, simulate_dataset
from .tournament import (
    run_tournament,
    tournament_config_from_mapping,
    write_rows_csv,
    write_summary_csv,
)


def _read_config(path) -> dict[str, str]:
    mapping = parse_config_file(path) if path else {}
    check_config_keys(mapping)
    return mapping


def cmd_simulate(args) -> int:
    config = sim_config_from_mapping(_read_config(args.config))
    if args.seed is not None:
        config = replace(config, seed=args.seed)

    rng = np.random.default_rng(config.seed)
    truth = draw_ground_truth(config, rng)
    data, confounders = simulate_dataset(truth, config, rng, return_confounders=True)
    salt = rng.bytes(16).hex()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_path = out / "dataset.csv"
    truth_path = out / "truth.json"
    write_dataset_csv(data_path, data)
    digest = write_truth_json(truth_path, truth, config.seed, salt)
    if args.export_confounders:
        write_confounders_csv(out / "confounders.csv", confounders)

    print(f"dataset: {data_path} ({data.n} rows, {data.d} variables, "
          f"{data.n_cases} cases)")
    print(f"sealed truth: {truth_path} (keep private until scoring)")
    print(f"commitment digest (publish before the contest): {digest}")
    return 0


def cmd_select(args) -> int:
    data = read_dataset_csv(args.data)
    spec = replace(selector_spec_from_mapping(args.method, _read_config(args.config)),
                   seed=args.seed)
    submission = run_selector(data, spec)
    out = Path(args.out) if args.out else Path(f"submission_{args.method}.json")
    write_submission(out, submission)
    print(f"{submission.team} selected: "
          f"{' '.join(map(str, submission.selected)) or '(nothing)'}")
    print(f"submission written to {out}")
    return 0


def cmd_score(args) -> int:
    truth, payload = read_truth_json(args.truth)
    if args.digest:
        verify_commitment(payload, args.digest)

    rank_by_youden = args.weights == "youden"
    weights = load_weights("table1" if rank_by_youden else args.weights)
    submissions = [read_submission(p) for p in args.submissions]
    # The Youden values are keyed by team, so each team scores once.
    teams = [sub.team for sub in submissions]
    for team in teams:
        if teams.count(team) > 1:
            raise ValidationError(f"team {team!r} is submitted more than once")

    reports = [contest_score(sub, truth, weights) for sub in submissions]
    youdens = {sub.team: youden_index(sub, truth, truth.d) for sub in submissions}
    ranked = rank_leaderboard(reports)
    if rank_by_youden:
        ranked = sorted(reports, key=lambda r: (-youdens[r.team], r.fp, -r.tp, r.team))

    width = max([len(r.team) for r in ranked] + [4])
    header = f"{'team':<{width}}  tp%  tn%  score"
    if rank_by_youden:
        header += "  youden"
    print(header)
    for r in ranked:
        line = f"{r.team:<{width}}  {r.tpr_pct:>3}  {r.tnr_pct:>3}  {r.score:>5g}"
        if rank_by_youden:
            line += f"  {youdens[r.team]:.4f}"
        print(line)

    if args.out:
        write_csv(args.out,
                  ["team", "tp", "fp", "tn", "fn", "tpr_pct", "tnr_pct", "score", "youden"],
                  ([r.team, r.tp, r.fp, r.tn, r.fn, r.tpr_pct, r.tnr_pct,
                    f"{r.score:g}", f"{youdens[r.team]:.6f}"] for r in ranked))
        print(f"report written to {args.out}")
    return 0


def cmd_tournament(args) -> int:
    config = tournament_config_from_mapping(parse_config_file(args.config))
    rows, summaries = run_tournament(config, only_replicate=args.replicate)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows_path = out / "results.csv"
    summary_path = out / "leaderboard.csv"
    write_rows_csv(rows_path, rows)
    write_summary_csv(summary_path, summaries)

    width = max(len(s.team) for s in summaries)
    print(f"{'team':<{width}}  ok  mean_score  mean_tp  mean_fp  wins")
    for s in sorted(summaries, key=lambda s: -(s.mean_score if s.replicates_ok else -1e18)):
        print(f"{s.team:<{width}}  {s.replicates_ok:>2}  {s.mean_score:>10.3f}  "
              f"{s.mean_tp:>7.3f}  {s.mean_fp:>7.3f}  {s.wins:>4}")
    failed = sum(1 for r in rows if r.error)
    if failed:
        print(f"{failed} method runs failed; see the error column in {rows_path}")
    print(f"per-replicate rows: {rows_path}")
    print(f"summary: {summary_path}")
    return 0


def cmd_verify_truth(args) -> int:
    _, payload = read_truth_json(args.truth)
    verify_commitment(payload, args.digest)
    print("OK: truth file matches the committed digest")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskcontest",
        description="Variable-selection contests on simulated sparse "
                    "case-control data: generate sealed instances, run "
                    "selection strategies, score submissions, and compare "
                    "strategies over replicated tournaments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate",
                       help="draw a ground truth and dataset, seal the truth")
    p.add_argument("--config", help="key=value config file (SimulationConfig fields)")
    p.add_argument("--seed", type=int, help="overrides the config seed")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--export-confounders", action="store_true",
                   help="also write the latent confounder columns (instructors only)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("select", help="run one selection method on a dataset")
    p.add_argument("--method", required=True, help="|".join(METHODS))
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="key=value file with selector options")
    p.add_argument("--out", help="submission file (default submission_<method>.json)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("score", help="score submissions against a revealed truth")
    p.add_argument("--truth", required=True, help="truth JSON")
    p.add_argument("--digest", help="verify the truth against this commitment first")
    p.add_argument("--weights", default="table1",
                   help="|".join([*WEIGHT_PRESETS, "youden"]) + " or a key=value weights file")
    p.add_argument("--out", help="write the leaderboard CSV here")
    p.add_argument("submissions", nargs="*", help="submission files")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("tournament", help="replicated contests over many seeds")
    p.add_argument("--config", required=True, help="tournament config file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--replicate", type=int,
                   help="run a single replicate (reproduces its row exactly)")
    p.set_defaults(func=cmd_tournament)

    p = sub.add_parser("verify-truth", help="check a truth file against a digest")
    p.add_argument("--truth", required=True)
    p.add_argument("--digest", required=True)
    p.set_defaults(func=cmd_verify_truth)

    return parser


# Built once: parse_args leaves the parser as it found it, also when it exits.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ContestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
