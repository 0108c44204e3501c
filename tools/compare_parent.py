#!/usr/bin/env python3
"""Compare simulated datasets and team_a-team_d's answers here with those
of another source tree.

    python tools/compare_parent.py PARENT_DIR

Draws the dataset cases and runs the four team selectors on the standing
gate cases twice, once on this checkout's src/ and once on PARENT_DIR's
src/, each in its own subprocess (in parallel), and prints how many
datasets, selections and method reports are byte-identical, naming every
case that differs. It exits 0 whatever differs, and 1 only if a run could
not finish.

A dataset is compared by the SHA-256 of its x, y and confounder matrix
(dtype, shape and bytes) and of the next 16 bytes of the generator that
drew it, or by the text of its SimulationBudgetError. Each dataset case
draws its truth and dataset from np.random.default_rng(seed), as the CLI
does:

- seeds 1-300 of the default simulation;
- 40 seeds each of d = 8 with 200 cases and 200 controls, d = 70, d = 150,
  no confounders, 3 confounders at prevalence 0.2, jittered prevalences at
  d = 30 with k_max 12, and 30 cases with 30 controls;
- a draw budget that ends inside the second batch, and one that runs out.

The selector gate cases:

- tournament replicates 1-40 of master seed 2018 on the default simulation,
  each method with the seed a tournament listing team_a, team_b, team_c and
  team_d in that order gives it, team_c at size 3;
- the d = 70 default contests of seeds 424242, 1 and 2 at select seeds 1
  and 2, team_c at size 2;
- the cases of tests/test_envelope.py, taken from this checkout.

Everything is read through riskcontest's public names only, so the script
runs on any tree that has them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
TEAMS = ("team_a", "team_b", "team_c", "team_d")
MASTER_SEED = 2018
REPLICATES = range(1, 41)
D70_CONTESTS = (424242, 1, 2)
SELECT_SEEDS = (1, 2)


def _simulations():
    """(name, SimulationConfig) for every dataset case, in a fixed order."""
    import riskcontest as rc

    for seed in range(1, 301):
        yield f"default seed {seed}", rc.SimulationConfig(seed=seed)
    variants = {
        "d8 200/200": dict(d=8, n_cases=200, n_controls=200),
        "d70": dict(d=70),
        "d150": dict(d=150),
        "no confounders": dict(n_confounders=0),
        "3 confounders at 0.2": dict(n_confounders=3, confounder_prev=0.2),
        "jittered d30 k_max 12": dict(d=30, k_max=12, jitter_prevalences=True),
        "30/30": dict(n_cases=30, n_controls=30),
    }
    for label, fields in variants.items():
        for seed in range(1, 41):
            yield f"{label} seed {seed}", rc.SimulationConfig(seed=seed, **fields)
    yield "budget ending in batch 2", rc.SimulationConfig(
        n_cases=1000, n_controls=1000, draw_budget=30_000, seed=1)
    yield "budget run out", rc.SimulationConfig(draw_budget=20_000, seed=1)


def _datasets() -> dict[str, str]:
    """Every dataset case's digest, or the text of its budget error."""
    import riskcontest as rc

    out = {}
    for name, config in _simulations():
        rng = np.random.default_rng(config.seed)
        truth = rc.draw_ground_truth(config, rng)
        try:
            data, conf = rc.simulate_dataset(truth, config, rng, return_confounders=True)
        except rc.SimulationBudgetError as exc:
            out[name] = f"SimulationBudgetError: {exc}"
            continue
        digest = hashlib.sha256()
        for a in (data.x, data.y, conf):
            digest.update(f"{a.dtype.str} {a.shape}".encode())
            digest.update(a.tobytes())
        digest.update(rng.bytes(16))
        out[name] = digest.hexdigest()
    return out


def _cases():
    """(name, dataset, SelectorSpec) for every gate case, in a fixed order."""
    import riskcontest as rc

    sim = rc.SimulationConfig()
    for r in REPLICATES:
        truth = rc.draw_ground_truth(sim, np.random.default_rng([MASTER_SEED, r, 0]))
        data = rc.simulate_dataset(truth, sim, np.random.default_rng([MASTER_SEED, r, 1]))
        for i, team in enumerate(TEAMS):
            # The seed run_tournament derives for the i-th listed method.
            seed = int(np.random.SeedSequence([MASTER_SEED, r, 2 + i]).generate_state(1)[0])
            size = dict(size_min=3, size_max=3) if team == "team_c" else {}
            yield f"tournament r{r} {team}", data, rc.SelectorSpec(team, seed=seed, **size)
    for contest in D70_CONTESTS:
        sim = rc.SimulationConfig(d=70, seed=contest)
        rng = np.random.default_rng(contest)
        data = rc.simulate_dataset(rc.draw_ground_truth(sim, rng), sim, rng)
        for seed in SELECT_SEEDS:
            for team in TEAMS:
                size = dict(size_min=2, size_max=2) if team == "team_c" else {}
                yield (f"d70 contest {contest} seed {seed} {team}", data,
                       rc.SelectorSpec(team, seed=seed, **size))
    spec = importlib.util.spec_from_file_location("envelope", HERE / "tests" / "test_envelope.py")
    envelope = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(envelope)
    for d, team, options in envelope.CASES:
        name = f"envelope d{d} {team}" + "".join(f" {k}={v}" for k, v in options.items())
        yield name, envelope.small_contest(d), rc.SelectorSpec(team, seed=1, **options)


def _answers() -> dict[str, dict]:
    """Every dataset case's digest, and every gate case's [selection, method
    report], or [None, error] for a case that ends in a ContestError.
    riskcontest is imported here, from the tree on PYTHONPATH, not where
    this file lies."""
    import riskcontest as rc

    out = {}
    for name, data, spec in _cases():
        try:
            submission = rc.run_selector(data, spec)
            out[name] = [list(submission.selected), submission.method_report]
        except rc.ContestError as exc:
            out[name] = [None, f"{type(exc).__name__}: {exc}"]
    return {"datasets": _datasets(), "selectors": out}


def _start(tree: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen([sys.executable, __file__, "--answers"], env=env,
                            stdout=subprocess.PIPE, text=True)


def main(argv: list[str]) -> int:
    if argv == ["--answers"]:
        json.dump(_answers(), sys.stdout)
        return 0
    if len(argv) != 1:
        print("usage: python tools/compare_parent.py PARENT_DIR", file=sys.stderr)
        return 2
    runs = {"this checkout": _start(HERE), argv[0]: _start(Path(argv[0]).resolve())}
    outputs = [run.communicate()[0] for run in runs.values()]
    for label, run in runs.items():
        if run.returncode:
            print(f"the run on {label} failed (exit {run.returncode})", file=sys.stderr)
            return 1
    here, parent = (json.loads(text) for text in outputs)
    parts = {"datasets": (here["datasets"], parent["datasets"])}
    for i, part in enumerate(("selections", "method reports")):
        parts[part] = tuple({name: answer[i] for name, answer in tree["selectors"].items()}
                            for tree in (here, parent))
    for part, (ours, theirs) in parts.items():
        differing = [name for name in ours if ours[name] != theirs.get(name)]
        print(f"{part} byte-identical: {len(ours) - len(differing)} of {len(ours)}")
        for name in differing:
            print(f"  differs: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
