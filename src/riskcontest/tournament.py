"""Replicated contests: fresh truth and dataset per replicate, every method
run and scored, per-replicate rows plus per-method summaries.

Replicate r is a pure function of (master_seed, r): truth, dataset and each
method's seed are derived from dedicated seed-sequence streams, so any single
replicate can be reproduced in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigurationError, ContestError
from .io import (
    check_config_keys,
    config_values,
    load_weights,
    selector_spec_from_mapping,
    sim_config_from_mapping,
    write_csv,
)
from .scoring import ScoringWeights, contest_score, rank_leaderboard, youden_index
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
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be non-negative")
        names = [spec.method for spec in self.methods]
        if not names:
            raise ConfigurationError("need at least one method")
        if len(set(names)) < len(names):
            raise ConfigurationError(f"a method is listed twice: {', '.join(names)}")


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
        if ok:
            wins[rank_leaderboard(ok)[0].team] += 1

    summaries = []
    for spec in methods:
        good = [(r.score, r.tp, r.fp) for r in rows if r.team == spec.method and not r.error]
        means = [sum(v) / len(good) for v in zip(*good)] if good else [float("nan")] * 3
        summaries.append(MethodSummary(spec.method, len(good), *means, wins[spec.method]))
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
    rows = [row for r in reps for row in run_replicate(config, r)]
    return rows, summarize(rows, config.methods)


def write_rows_csv(path, rows: list[ReplicateRow]) -> None:
    write_csv(path, [f.name for f in fields(ReplicateRow)], (
        [r.replicate, r.team, r.k, " ".join(map(str, r.selected)),
         r.tp, r.fp, r.tn, r.fn, f"{r.score:g}", f"{r.youden:.6f}", r.error]
        for r in rows))


def write_summary_csv(path, summaries: list[MethodSummary]) -> None:
    write_csv(path, [f.name for f in fields(MethodSummary)], (
        [s.team, s.replicates_ok, f"{s.mean_score:.4f}",
         f"{s.mean_tp:.4f}", f"{s.mean_fp:.4f}", s.wins]
        for s in summaries))


# -- config file -------------------------------------------------------------

def tournament_config_from_mapping(mapping: dict[str, str]) -> TournamentConfig:
    """Flat key=value config: replicates, master_seed, weights, a comma list
    of methods, any SimulationConfig field, and selector options, bare for
    every method or as '<method>.<option>' for one."""
    names = [m.strip() for m in mapping.get("methods", "").split(",") if m.strip()]
    for name in names:
        if name not in METHODS:
            raise ConfigurationError(f"unknown method {name!r}")
    check_config_keys(mapping, names)

    values = config_values(TournamentConfig, ("replicates", "master_seed"), mapping)
    methods = tuple(selector_spec_from_mapping(name, mapping) for name in names)
    sim = sim_config_from_mapping(mapping)
    weights = load_weights(mapping.get("weights", "table1"))
    return TournamentConfig(values.get("replicates", 1), methods, sim, weights,
                            values.get("master_seed", 0))
