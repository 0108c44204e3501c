"""Self-test of the benchmark harness at a tiny size (8 variables, 400 rows).

    python3 perfbench/selftest.py

Runs every workload through run.py, untraced and traced, and checks that
each metric BENCHMARK.json names is printed with its unit and that no
operation fails against the recorded tiny references. Then checks that a
changed selection fails the reference check, that a team_c report worded
otherwise counts 0 subsets instead of ending a traced run, and that the
benchmark refuses to run in a directory that holds only BENCHMARK.json and
perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

from run import ROOT, load_package

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def fail(message: str) -> None:
    sys.exit(f"selftest FAILED: {message}")


def check_run(name: str, trace: int, expected: dict[str, str]) -> None:
    done = subprocess.run(RUN + ["--pool", "tiny", "--workload", name, "--seed", "1",
                                 "--seconds", "0.5", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        fail(f"{name} trace={trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{name}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{name} trace={trace}: {result['failed']} of {result['attempted']} "
             f"operations failed:\n{done.stderr}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"{name} trace={trace}: metrics {got} differ from BENCHMARK.json {expected}")
    for metric, unit in expected.items():  # and each printed as "name value unit"
        if not any(l.split()[:1] == [metric] and l.split()[-1] == unit for l in lines):
            fail(f"{name} trace={trace}: no printed line for {metric} [{unit}]")
    if trace == 0 and not any(l.startswith("failed_ratio 0 ") for l in lines):
        fail(f"{name}: failed_ratio is not 0")
    print(f"ok: {name} trace={trace}, {result['attempted']} operations")


def check_changed_selection_fails() -> None:
    from harness import WORK_DIR, load_reference, run_pass
    from workloads import POOLS

    workload = POOLS["tiny"]["exhaustive"]
    item = workload.pool[0]
    reference = load_reference(ROOT, workload)
    selected = reference[str(item)]["selected"]
    reference[str(item)]["selected"] = selected[1:] if len(selected) > 1 else selected + [99]
    workdir = ROOT / WORK_DIR / "selftest"
    try:
        workload.prepare(workdir, [item])
        done = run_pass(workload, workdir, [item], reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(done.failures) != 1 or done.work:
        fail(f"a changed reference selection was not reported: {done}")
    print("ok: a changed selection fails the reference check")


def check_reworded_report_counts_zero() -> None:
    from tracing import _team_c

    counts = Counter()
    _team_c(counts, "selectors.team_c", (), SimpleNamespace(method_report="searched 1140 sets"))
    if counts["selectors.team_c.subsets"] != 0:
        fail(f"a reworded team_c report was counted: {dict(counts)}")
    print("ok: a reworded team_c report counts 0 subsets")


def check_refuses_bare_directory() -> None:
    from harness import WORK_DIR

    bare = ROOT / WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "instructor",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        fail(f"ran without the package: exit {done.returncode}, stdout {done.stdout!r}")
    print("ok: refuses to run without the package sources")


def main() -> int:
    load_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[group]}
        for workload in spec["workloads"]:
            check_run(workload["name"], trace, expected)
    check_changed_selection_fails()
    check_reworded_report_counts_zero()
    check_refuses_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
