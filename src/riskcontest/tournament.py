"""Replicated contests: fresh truth and dataset per replicate, every method
run and scored, per-replicate rows plus per-method summaries.

Replicate r is a pure function of (master_seed, r): truth, dataset and each
method's seed are derived from dedicated seed-sequence streams, so any single
replicate can be reproduced in isolation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ContestError
from .io import (
    SIM_KEYS,
    _coerce,
    load_weights,
    selector_spec_from_mapping,
    sim_config_from_mapping,
)
from .scoring import ScoringWeights, contest_score, youden_index
from .selectors import METHODS, SelectorSpec, run_selector
from .sim import SimulationConfig, draw_ground_truth, simulate_dataset


@dataclass(frozen=True)
class TournamentConfig:
    replicates: int
    methods: tuple[SelectorSpec, ...]
    sim: SimulationConfig
    weights: ScoringWeights
    master_seed: int = 0

    def __post_init__(self):
        if self.replicates < 1:
            raise ConfigurationError("need at least one replicate")
        if not self.methods:
            raise ConfigurationError("need at least one method")


@dataclass(frozen=True)
class ReplicateRow:
    replicate: int
    team: str
    k: int
    selected: tuple[int, ...]
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0
    score: float = 0.0
    youden: float = 0.0
    error: str = ""


@dataclass(frozen=True)
class MethodSummary:
    team: str
    replicates_ok: int
    mean_score: float
    mean_tp: float
    mean_fp: float
    wins: int


def _method_seed(master_seed: int, r: int, index: int) -> int:
    return int(np.random.SeedSequence([master_seed, r, 2 + index]).generate_state(1)[0])


def run_replicate(config: TournamentConfig, r: int) -> list[ReplicateRow]:
    """Run every method on a fresh contest instance for replicate r (1-based)."""
    rng_truth = np.random.default_rng([config.master_seed, r, 0])
    rng_data = np.random.default_rng([config.master_seed, r, 1])
    try:
        truth = draw_ground_truth(config.sim, rng_truth)
        data = simulate_dataset(truth, config.sim, rng_data)
    except ContestError as exc:
        tag = f"{type(exc).__name__}: {exc}"
        return [ReplicateRow(r, spec.method, 0, (), error=tag)
                for spec in config.methods]

    rows = []
    for i, spec in enumerate(config.methods):
        seeded = replace(spec, seed=_method_seed(config.master_seed, r, i))
        try:
            submission = run_selector(data, seeded)
            report = contest_score(submission, truth, config.weights)
            rows.append(ReplicateRow(
                r, spec.method, truth.k, submission.selected,
                report.tp, report.fp, report.tn, report.fn, report.score,
                youden_index(submission, truth, truth.d)))
        except ContestError as exc:
            rows.append(ReplicateRow(r, spec.method, truth.k, (),
                                     error=f"{type(exc).__name__}: {exc}"))
    return rows


def summarize(rows: list[ReplicateRow],
              methods: tuple[SelectorSpec, ...]) -> list[MethodSummary]:
    """Per-method means over successful replicates plus first-place counts."""
    by_rep: dict[int, list[ReplicateRow]] = {}
    for row in rows:
        by_rep.setdefault(row.replicate, []).append(row)

    wins: dict[str, int] = {spec.method: 0 for spec in methods}
    for rep_rows in by_rep.values():
        ok = [r for r in rep_rows if not r.error]
        if not ok:
            continue
        # Same ordering rule as the single-contest leaderboard.
        ranked = sorted(ok, key=lambda r: (-r.score, r.fp, -r.tp, r.team))
        wins[ranked[0].team] += 1

    summaries = []
    for spec in methods:
        good = [r for r in rows if r.team == spec.method and not r.error]
        n_ok = len(good)
        summaries.append(MethodSummary(
            spec.method, n_ok,
            sum(r.score for r in good) / n_ok if n_ok else float("nan"),
            sum(r.tp for r in good) / n_ok if n_ok else float("nan"),
            sum(r.fp for r in good) / n_ok if n_ok else float("nan"),
            wins[spec.method]))
    return summaries


def run_tournament(config: TournamentConfig,
                   only_replicate: int | None = None
                   ) -> tuple[list[ReplicateRow], list[MethodSummary]]:
    if only_replicate is not None:
        if not 1 <= only_replicate <= config.replicates:
            raise ConfigurationError(
                f"replicate {only_replicate} outside 1..{config.replicates}")
        reps = [only_replicate]
    else:
        reps = range(1, config.replicates + 1)
    rows: list[ReplicateRow] = []
    for r in reps:
        rows.extend(run_replicate(config, r))
    return rows, summarize(rows, config.methods)


ROW_HEADER = ["replicate", "team", "k", "selected", "tp", "fp", "tn", "fn",
              "score", "youden", "error"]
SUMMARY_HEADER = ["team", "replicates_ok", "mean_score", "mean_tp", "mean_fp", "wins"]


def write_rows_csv(path, rows: list[ReplicateRow]) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ROW_HEADER)
        for r in rows:
            writer.writerow([
                r.replicate, r.team, r.k, " ".join(map(str, r.selected)),
                r.tp, r.fp, r.tn, r.fn, f"{r.score:g}", f"{r.youden:.6f}", r.error])


def write_summary_csv(path, summaries: list[MethodSummary]) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        for s in summaries:
            writer.writerow([s.team, s.replicates_ok, f"{s.mean_score:.4f}",
                             f"{s.mean_tp:.4f}", f"{s.mean_fp:.4f}", s.wins])


# -- config file -------------------------------------------------------------

TOURNAMENT_KEYS = frozenset({"replicates", "master_seed", "methods", "weights"})


def tournament_config_from_mapping(mapping: dict[str, str]) -> TournamentConfig:
    """Flat key=value config: replicates, master_seed, weights, a comma list
    of methods, per-method options as '<method>.<option>', and any
    SimulationConfig field names."""
    names = [m.strip() for m in mapping.get("methods", "").split(",") if m.strip()]
    if not names:
        raise ConfigurationError("config must list at least one method")
    for name in names:
        if name not in METHODS:
            raise ConfigurationError(f"unknown method {name!r}")

    known = SIM_KEYS | TOURNAMENT_KEYS
    for key in mapping:
        if "." in key:
            if key.split(".", 1)[0] not in names:
                raise ConfigurationError(f"option {key!r} names no configured method")
        elif key not in known:
            raise ConfigurationError(f"unknown config key {key!r}")

    replicates = _coerce("replicates", mapping.get("replicates", "1"), int)
    master_seed = _coerce("master_seed", mapping.get("master_seed", "0"), int)
    methods = tuple(selector_spec_from_mapping(name, mapping) for name in names)
    sim = sim_config_from_mapping(mapping)
    weights = load_weights(mapping.get("weights", "table1"))
    return TournamentConfig(replicates, methods, sim, weights, master_seed)
