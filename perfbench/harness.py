"""Set-up timing, the measured passes, metrics and the result record.

A run draws the seed's items from the workload's pool and runs them in
passes: one pass runs every drawn item once, so all passes of a run, and
all runs of a seed, do the same work. Passes repeat while another one is
expected to finish within the run length. Throughput counts only the wall
time inside CLI commands, not the harness's own output checks.

With tracing on, every item runs untraced and traced, back to back;
per-layer metrics come from the traced runs and the tracing overhead from
comparing the two sides.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy

from tracing import Tracer, layer_metrics, spans_as_records
from workloads import Workload

WORK_DIR = ".perfbench_work"  # inputs and outputs of the commands, removed at exit
OUT_DIR = ".perfbench_out"    # result records and spans, kept
SETUP_REPEATS = 4              # set-up samples before the passes, and again after


@dataclass
class Pass:
    traced: bool
    busy_s: float = 0.0
    work: int = 0
    ops: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, done) -> None:
        """Count in an ItemResult or another Pass."""
        self.busy_s += done.busy_s
        self.work += done.work
        self.ops += done.ops
        self.failures += done.failures


def run_pass(workload: Workload, workdir: Path, items: list, reference: dict,
             tracer: Tracer | None = None, label: str = "") -> Pass:
    """Run every item once, checked against `reference` (item -> recorded
    outputs). A tracer's wrappers are on only while an item runs."""
    result = Pass(traced=tracer is not None)
    for item in items:
        if tracer is not None:
            tracer.run_id = f"{label}:{item}"
            tracer.install()
        try:
            result.add(workload.run_item(workdir, item, reference.get(str(item), {})))
        finally:
            if tracer is not None:
                tracer.uninstall()
    return result


def measure(workload, workdir, items, reference, seconds, tracer=None) -> list[Pass]:
    """Passes until the next one would end after `seconds`.

    With a tracer, each round is an untraced and a traced pass built item by
    item: every item runs untraced and traced back to back, alternating which
    goes first, so drift in machine speed falls on both sides of the tracing
    overhead alike.
    """
    passes: list[Pass] = []
    start = perf_counter()
    rounds = 0
    while True:
        rounds += 1
        if tracer is None:
            passes.append(run_pass(workload, workdir, items, reference))
        else:
            plain, traced = Pass(traced=False), Pass(traced=True)
            for k, item in enumerate(items):
                for side in ((None, tracer) if k % 2 == 0 else (tracer, None)):
                    done = run_pass(workload, workdir, [item], reference, side,
                                    label=f"pass{rounds}")
                    (plain if side is None else traced).add(done)
            passes += [plain, traced]
        elapsed = perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return passes


def time_setup(root: Path, workload: Workload, seed: int, workdir: Path,
               repeats: int) -> list[float]:
    """Wall times of `repeats` fresh processes that each import riskcontest
    and write the workload's inputs into workdir; the last one's inputs stay.
    The wait has no timeout: with one, subprocess polls the child in steps
    of up to 50 ms, which would round every sample."""
    command = [sys.executable, str(root / "perfbench" / "run.py"),
               "--workload", workload.name, "--seed", str(seed),
               "--pool", workload.copy, "--setup-only", str(workdir)]
    samples = []
    for _ in range(repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        start = perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        samples.append(perf_counter() - start)
    return samples


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fingerprint(root: Path) -> dict:
    """The machine and code a result was measured on. Thread settings are
    recorded as found; the benchmark changes none."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without mode="dicts"
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
    }


def load_reference(root: Path, workload: Workload) -> dict:
    path = root / "perfbench" / "reference.json"
    return json.loads(path.read_text()).get(workload.reference_key, {})


def run(root: Path, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and summarize one run; returns the result record."""
    reference = load_reference(root, workload)
    # One directory per process, so runs in one checkout do not collide.
    workdir = root / WORK_DIR / f"{workload.name}-{os.getpid()}"
    items = workload.items(seed)
    tracer = Tracer() if trace else None
    try:
        time_setup(root, workload, seed, workdir, 1)  # warms bytecode and file caches
        setup = time_setup(root, workload, seed, workdir, SETUP_REPEATS)
        passes = measure(workload, workdir, items, reference, seconds, tracer)
        # Machine speed can drift over tens of seconds on a shared host;
        # sampling set-up on both sides of the passes keeps one short phase
        # from setting setup_s.
        setup += time_setup(root, workload, seed, workdir, SETUP_REPEATS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    ops = sum(p.ops for p in passes)
    failures = [f for p in passes for f in p.failures]
    work_per_s = sum(p.work for p in untraced) / sum(p.busy_s for p in untraced)
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "work_per_s": (work_per_s, "1/s"),
        "ok_ratio": ((ops - len(failures)) / ops, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # The same figures under the names that say what each workload counts.
    named = {
        f"{workload.unit}_per_s": (work_per_s, "1/s"),
        "failed_ratio": (len(failures) / ops, "ratio"),
    }
    record = {
        "workload": workload.name, "pool": workload.copy, "seed": seed,
        "seconds": seconds, "trace": trace, "items": items, "machine": fingerprint(root),
        "setup_samples_s": setup,
        "passes": [{"traced": p.traced, "busy_s": p.busy_s, "work": p.work,
                    "ops": p.ops, "failed": len(p.failures)} for p in passes],
        "attempted": ops, "failed": len(failures), "failures": failures[:20],
        "end_to_end": e2e, "named": named,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, len(traced))
        plain = sum(p.busy_s for p in untraced)
        layers["trace.pass_s"] = (plain / len(untraced), "s")
        layers["trace.overhead_pct"] = (
            100.0 * (sum(p.busy_s for p in traced) / plain - 1.0), "%")
        record["per_layer"] = layers

    # Spans were kept in memory; the run writes them out with its record.
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{workload.reference_key}-seed{seed}"
    (out / f"{stem}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (out / f"{stem}-spans.jsonl").write_text(
            "".join(json.dumps(s) + "\n" for s in spans_as_records(tracer)))
    return record


def _metrics_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def report(record: dict) -> None:
    """Print every metric by name and unit; the last line is the result."""
    machine = record["machine"]
    print(f"machine: {machine['nproc']} cpus, Python {machine['python']}, "
          f"numpy {machine['numpy']}, {machine['blas']}, "
          f"OPENBLAS_NUM_THREADS={machine['OPENBLAS_NUM_THREADS']}, "
          f"OMP_NUM_THREADS={machine['OMP_NUM_THREADS']}, commit {machine['git_commit']}")
    print(f"workload {record['workload']} ({record['pool']} pool), seed {record['seed']}: "
          f"items {record['items']}, "
          f"{len(record['passes'])} passes, {record['attempted']} operations")
    for group in ("end_to_end", "named", "per_layer"):
        for metric, (value, unit) in record.get(group, {}).items():
            print(f"{metric} {value:.6g} {unit}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)

    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": _metrics_json(metrics)}))
