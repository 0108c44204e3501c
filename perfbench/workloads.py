"""The benchmark's workloads, each a loop of riskcontest CLI commands.

Every command goes through riskcontest.cli.main in this process, with the
argument list a user would type. A workload draws its inputs from a pool of
items (contest and fold seeds, replicate numbers or contest seeds) whose
outputs were recorded in perfbench/reference.json; the benchmark seed picks
which items a run uses and in which order. A run's outputs are compared
with that record, so a change that alters an answer shows as a failed
operation.

Each workload comes in three copies (POOLS): "main", the pool the
benchmark measures; "held-out", the same commands on data disjoint from
main, for checking a claim on inputs it was not tuned to; and "tiny", small
data for the self-test.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import shutil
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import riskcontest.cli
from riskcontest.sim import SimulationConfig

_DIGEST_LINE = re.compile(r"commitment digest \(publish before the contest\): ([0-9a-f]{64})")
SIZE = 3  # the subset size the exhaustive workload searches


@dataclass
class ItemResult:
    """What one pool item cost and produced."""

    work: int = 0          # workload units completed (subsets, replicates, contests)
    busy_s: float = 0.0    # wall time spent inside CLI commands
    ops: int = 0           # operations attempted
    failures: list[str] = field(default_factory=list)  # one line per failed operation
    observed: dict = field(default_factory=dict)       # what reference.json records

    def command(self, argv: list[str]) -> tuple[int, str]:
        """Run one CLI command, adding its wall time to busy_s.

        Returns (exit code, captured stdout and stderr). An exception is
        reported as exit code -1 with its traceback as the output.
        """
        buf = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(buf), redirect_stderr(buf):
                code = riskcontest.cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument list
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = -1
            buf.write(traceback.format_exc())
        self.busy_s += perf_counter() - start
        self.ops += 1
        return code, buf.getvalue()

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return ok


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def _matches(expected: dict | None, key: str, value) -> bool:
    """True when the reference records `value` under `key`; no reference
    (recording mode) accepts anything."""
    return expected is None or expected.get(key) == value


def _write_config(path: Path, mapping: dict[str, object]) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))


class Workload:
    """A pool of recorded items and the commands one item runs.

    `sample` items are drawn from `pool` per seed; one pass runs each of
    them once. `sim` holds SimulationConfig overrides (empty: the default
    contest, d = 20 with 2,000 cases and 2,000 controls). `copy` names the
    entry of POOLS the workload belongs to; each copy has references of its
    own.
    """

    name = ""
    unit = ""  # what `work` counts

    def __init__(self, pool, sample: int, sim: dict[str, object] | None = None,
                 copy: str = "main"):
        self.pool = tuple(pool)
        self.sample = sample
        self.sim = dict(sim or {})
        self.copy = copy

    @property
    def reference_key(self) -> str:
        return self.name if self.copy == "main" else f"{self.copy}-{self.name}"

    def items(self, seed: int) -> list:
        rng = np.random.default_rng(seed % 2**63)
        return [int(i) for i in rng.permutation(np.array(self.pool))[:self.sample]]

    def prepare(self, workdir: Path, items: list) -> None:
        """Write the inputs a run needs; this is the set-up that setup_s times."""
        workdir.mkdir(parents=True, exist_ok=True)
        _write_config(workdir / "sim.cfg", self.sim)

    def run_item(self, workdir: Path, item, expected: dict | None) -> ItemResult:
        raise NotImplementedError


class Exhaustive(Workload):
    """A contestant runs the team_c exhaustive search, over subsets of SIZE
    variables, on a contest dataset.

    An item is "<contest seed>/<select seed>": a contest and the fold
    assignment the search uses. Every pass searches every contest, each
    with a select seed drawn from `select_seeds`, so the seed changes the
    folds and the answers while the data, whose separation cases set most
    of the cost, stay the same. The work of one search is the number of
    subsets of the input, C(d, SIZE), not a count the program reports.
    """

    name = "exhaustive"
    unit = "subsets"

    def __init__(self, contests, select_seeds, sim=None, copy="main"):
        super().__init__([f"{c}/{s}" for c in contests for s in select_seeds],
                         len(contests), sim, copy)
        self.contests = tuple(contests)
        self.select_seeds = tuple(select_seeds)
        self.subsets = math.comb(int(self.sim.get("d", SimulationConfig.d)), SIZE)

    def items(self, seed):
        rng = np.random.default_rng(seed % 2**63)
        return [f"{c}/{self.select_seeds[rng.integers(len(self.select_seeds))]}"
                for c in rng.permutation(np.array(self.contests))]

    def prepare(self, workdir, items):
        super().prepare(workdir, items)
        _write_config(workdir / "select.cfg", {"size_min": SIZE, "size_max": SIZE})
        for contest in sorted({item.split("/")[0] for item in items}):
            code, text = ItemResult().command([
                "simulate", "--config", str(workdir / "sim.cfg"), "--seed", contest,
                "--out", str(workdir / f"c{contest}")])
            if code != 0:
                raise RuntimeError(f"simulate --seed {contest} failed:\n{text}")

    def run_item(self, workdir, item, expected):
        out = ItemResult()
        contest, select_seed = item.split("/")
        submission = workdir / f"c{contest}" / "submission_team_c.json"
        submission.unlink(missing_ok=True)
        code, text = out.command([
            "select", "--method", "team_c", "--seed", select_seed,
            "--data", str(workdir / f"c{contest}" / "dataset.csv"),
            "--config", str(workdir / "select.cfg"), "--out", str(submission)])
        if not out.check(code == 0, f"select team_c on {item}: exit {code}\n{text}"):
            return out
        payload = json.loads(submission.read_text())
        out.observed = {"selected": payload["selected"]}
        if out.check(_matches(expected, "selected", payload["selected"]),
                     f"{item}: team_c selected {payload['selected']}, "
                     f"reference {expected and expected.get('selected')}"):
            out.work = self.subsets
        return out


class Tournament(Workload):
    """A researcher runs replicates of a four-method tournament, one
    `tournament --replicate r` command per pool item."""

    name = "tournament"
    unit = "replicates"
    methods = "team_a, team_b, team_d, random_baseline"
    master_seed = 2018

    def prepare(self, workdir, items):
        super().prepare(workdir, items)
        _write_config(workdir / "tournament.cfg", {
            "methods": self.methods, "master_seed": self.master_seed,
            "replicates": max(self.pool), **self.sim})

    def run_item(self, workdir, item, expected):
        out = ItemResult()
        outdir = workdir / f"r{item}"
        shutil.rmtree(outdir, ignore_errors=True)
        code, text = out.command(["tournament", "--config", str(workdir / "tournament.cfg"),
                                  "--replicate", str(item), "--out", str(outdir)])
        if not out.check(code == 0, f"tournament replicate {item}: exit {code}\n{text}"):
            return out
        lines = (outdir / "results.csv").read_text().splitlines()
        out.observed = {"results.csv": lines,
                        "leaderboard.csv": sha256(outdir / "leaderboard.csv")}
        reference = lines if expected is None else expected.get("results.csv", [])
        command_ok = out.check(
            _matches(expected, "leaderboard.csv", out.observed["leaderboard.csv"])
            and len(lines) == len(reference) and lines[:1] == reference[:1],
            f"replicate {item}: leaderboard.csv or the results.csv layout differs "
            f"from the reference")
        # Each (replicate, method) row of results.csv is an operation of its own.
        for row, line, ref in zip(csv.DictReader(lines), lines[1:], reference[1:]):
            out.ops += 1
            out.check(not row["error"] and line == ref,
                      f"replicate {item}: row {line!r}, reference {ref!r}")
        if command_ok:
            out.work = 1
        return out


class Instructor(Workload):
    """An instructor runs a sealed contest end to end: simulate, verify the
    truth, collect the three baseline submissions, score them."""

    name = "instructor"
    unit = "contests"
    baselines = ("random_baseline", "full_baseline", "empty_baseline")

    def run_item(self, workdir, item, expected):
        out = ItemResult()
        d = workdir / f"c{item}"
        shutil.rmtree(d, ignore_errors=True)
        ok = True

        code, text = out.command(["simulate", "--config", str(workdir / "sim.cfg"),
                                  "--seed", str(item), "--out", str(d)])
        found = _DIGEST_LINE.search(text)
        if not out.check(code == 0 and found is not None,
                         f"simulate {item}: exit {code}\n{text}"):
            return out
        digest = found.group(1)
        out.observed = {"digest": digest, "dataset.csv": sha256(d / "dataset.csv"),
                        "truth.json": sha256(d / "truth.json")}
        ok &= out.check(all(_matches(expected, k, v) for k, v in out.observed.items()),
                        f"simulate {item}: dataset, truth or digest differs from the reference")

        code, text = out.command(["verify-truth", "--truth", str(d / "truth.json"),
                                  "--digest", digest])
        ok &= out.check(code == 0, f"verify-truth {item}: exit {code}\n{text}")

        submissions = []
        for method in self.baselines:
            path = d / f"{method}.json"
            code, text = out.command(["select", "--method", method, "--seed", str(item),
                                      "--data", str(d / "dataset.csv"), "--out", str(path)])
            ok &= out.check(code == 0, f"select {method} on contest {item}: exit {code}\n{text}")
            submissions.append(str(path))

        board = d / "leaderboard.csv"
        code, text = out.command(["score", "--truth", str(d / "truth.json"),
                                  "--digest", digest, "--out", str(board), *submissions])
        out.observed["leaderboard.csv"] = sha256(board)
        ok &= out.check(code == 0 and _matches(expected, "leaderboard.csv",
                                               out.observed["leaderboard.csv"]),
                        f"score {item}: exit {code} or leaderboard differs\n{text}")
        if ok:
            out.work = 1
        return out


def _by_name(*workloads: Workload) -> dict[str, Workload]:
    return {w.name: w for w in workloads}


_TINY_SIM = {"d": 8, "n_cases": 200, "n_controls": 200}

# Pool items are contest and select seeds (exhaustive), replicate numbers
# (tournament) or contest seeds (instructor), each with its outputs recorded
# in reference.json. "main" is measured; "held-out" repeats it on disjoint
# items of the same size; "tiny" is 8 variables and 400 rows.
POOLS: dict[str, dict[str, Workload]] = {
    "main": _by_name(
        Exhaustive(contests=range(101, 111), select_seeds=(1, 2, 3)),
        Tournament(pool=range(1, 6), sample=5),
        Instructor(pool=range(1001, 1201), sample=150),
    ),
    "held-out": _by_name(
        Exhaustive(contests=range(111, 121), select_seeds=(1, 2, 3), copy="held-out"),
        Tournament(pool=range(6, 11), sample=5, copy="held-out"),
        Instructor(pool=range(1201, 1401), sample=150, copy="held-out"),
    ),
    "tiny": _by_name(
        Exhaustive(contests=range(1, 4), select_seeds=(1, 2), sim=_TINY_SIM, copy="tiny"),
        Tournament(pool=range(1, 3), sample=2, sim=_TINY_SIM, copy="tiny"),
        Instructor(pool=range(1, 5), sample=3, sim=_TINY_SIM, copy="tiny"),
    ),
}
