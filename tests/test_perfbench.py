"""The benchmark's tracer wraps package functions by (module, attribute);
a rename in the package must fail here, not only in a traced benchmark run.
The datasets the benchmark checks are checked here too, so a byte change in
the generator fails the tests, not only a benchmark run."""

import hashlib
import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from riskcontest.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


@pytest.mark.parametrize("module_name, attr",
                         [(m, a) for m, a, _, _ in load_bindings()])
def test_binding_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("pool, config, item", [
    *(("instructor", "", item) for item in range(1001, 1006)),
    *(("held-out-instructor", "", item) for item in range(1201, 1204)),
    *(("tiny-instructor", "d = 8\nn_cases = 200\nn_controls = 200\n", item)
      for item in range(1, 4))])
def test_simulate_matches_benchmark_reference(tmp_path, capsys, pool, config, item):
    """simulate reproduces the digest, dataset.csv and truth.json recorded in
    perfbench/reference.json (read, never written). A change that means to
    alter the generated datasets must re-record the benchmark reference."""
    expected = json.loads((PERFBENCH / "reference.json").read_text())[pool][str(item)]
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(config)
    out = tmp_path / "contest"
    assert main(["simulate", "--config", str(cfg), "--seed", str(item),
                 "--out", str(out)]) == 0
    digest = re.search(r"commitment digest \(publish before the contest\): ([0-9a-f]{64})",
                       capsys.readouterr().out).group(1)
    assert digest == expected["digest"]
    assert sha256(out / "dataset.csv") == expected["dataset.csv"]
    assert sha256(out / "truth.json") == expected["truth.json"]


def reference(pool: str) -> dict:
    return json.loads((PERFBENCH / "reference.json").read_text())[pool]


@pytest.mark.parametrize("contest", range(101, 106))
def test_team_c_matches_benchmark_reference(tmp_path, contest):
    """select --method team_c at size 3 with select seed 1, as the
    benchmark's exhaustive workload runs it, selects the set recorded in
    perfbench/reference.json, so a fitting change that moves an answer fails
    here and not only in a benchmark run."""
    (tmp_path / "sim.cfg").write_text("")
    (tmp_path / "select.cfg").write_text("size_min = 3\nsize_max = 3\n")
    out = tmp_path / "contest"
    assert main(["simulate", "--config", str(tmp_path / "sim.cfg"), "--seed", str(contest),
                 "--out", str(out)]) == 0
    assert main(["select", "--method", "team_c", "--seed", "1",
                 "--data", str(out / "dataset.csv"), "--config", str(tmp_path / "select.cfg"),
                 "--out", str(out / "team_c.json")]) == 0
    selected = json.loads((out / "team_c.json").read_text())["selected"]
    assert selected == reference("exhaustive")[f"{contest}/1"]["selected"]


def test_tournament_matches_benchmark_reference(tmp_path):
    """Replicate 1 of the benchmark's tournament writes the results.csv lines
    and the leaderboard.csv recorded in perfbench/reference.json."""
    expected = reference("tournament")["1"]
    cfg = tmp_path / "tournament.cfg"
    cfg.write_text("methods = team_a, team_b, team_d, random_baseline\n"
                   "master_seed = 2018\nreplicates = 5\n")
    out = tmp_path / "r1"
    assert main(["tournament", "--config", str(cfg), "--replicate", "1", "--out", str(out)]) == 0
    assert (out / "results.csv").read_text().splitlines() == expected["results.csv"]
    assert sha256(out / "leaderboard.csv") == expected["leaderboard.csv"]
