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
