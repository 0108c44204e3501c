"""Spans around the public functions of riskcontest's modules.

The tracer replaces a function on the module attribute its caller looks up
(riskcontest.cli.read_dataset_csv, riskcontest.tournament.simulate_dataset,
riskcontest.glm.fit_logistic as called by cv_deviance, ...) with a wrapper
that records a span and, for a few functions, counters read from the public
return value. Nothing in the package is edited; uninstall() puts every
original back, so untraced passes run the package exactly as shipped.

The benchmark is one thread, so a span's parent is the span open when it
started and a layer's self time is its spans' durations minus the durations
of their direct children. Nothing in the process waits on a queue or another
thread, so there is no waiting time to report.
"""

from __future__ import annotations

import functools
import importlib
import os
import re
from collections import Counter
from time import perf_counter

_SUBSETS = re.compile(r"exhaustive search: (\d+) subsets")


def _bytes_read(counts, name, args, result):
    size = os.path.getsize(args[0])
    counts["io.bytes_read"] += size
    counts[name + ".bytes"] += size


def _bytes_written(counts, name, args, result):
    size = os.path.getsize(args[0])
    counts["io.bytes_written"] += size
    counts[name + ".bytes"] += size


def _fit(counts, name, args, fit):
    counts[name + ".iterations"] += fit.iterations
    counts[name + ".separated"] += fit.separation_flag
    counts[name + ".nonconverged"] += not fit.converged
    counts[name + ".row_iterations"] += len(args[0]) * fit.iterations


def _lasso_path(counts, name, args, path):
    for fit in path:
        counts[name + ".cd_outer_iterations"] += fit.iterations
        counts[name + ".nonconverged"] += not fit.converged


def _team_c(counts, name, args, submission):
    # A report worded otherwise counts 0 subsets, which shows as a zero
    # selectors.team_c.subsets and us_per_subset rather than ending the run.
    found = _SUBSETS.search(submission.method_report)
    counts[name + ".subsets"] += int(found.group(1)) if found else 0


# (module, attribute the caller looks up, span name, counter). Two bindings
# of one function share a span name.
BINDINGS = [
    ("riskcontest.cli", "main", "cli.main", None),
    ("riskcontest.cli", "read_dataset_csv", "io.read_dataset_csv", _bytes_read),
    ("riskcontest.cli", "write_dataset_csv", "io.write_dataset_csv", _bytes_written),
    ("riskcontest.cli", "read_truth_json", "io.read_truth_json", _bytes_read),
    ("riskcontest.cli", "write_truth_json", "io.write_truth_json", _bytes_written),
    ("riskcontest.cli", "verify_commitment", "io.verify_commitment", None),
    ("riskcontest.cli", "read_submission", "io.read_submission", _bytes_read),
    ("riskcontest.cli", "write_submission", "io.write_submission", _bytes_written),
    ("riskcontest.cli", "draw_ground_truth", "sim.draw_ground_truth", None),
    ("riskcontest.cli", "simulate_dataset", "sim.simulate_dataset", None),
    ("riskcontest.tournament", "draw_ground_truth", "sim.draw_ground_truth", None),
    ("riskcontest.tournament", "simulate_dataset", "sim.simulate_dataset", None),
    ("riskcontest.cli", "contest_score", "scoring.contest_score", None),
    ("riskcontest.cli", "youden_index", "scoring.youden_index", None),
    ("riskcontest.cli", "rank_leaderboard", "scoring.rank_leaderboard", None),
    ("riskcontest.tournament", "contest_score", "scoring.contest_score", None),
    ("riskcontest.tournament", "youden_index", "scoring.youden_index", None),
    ("riskcontest.cli", "run_tournament", "tournament.run_tournament", None),
    ("riskcontest.tournament", "run_replicate", "tournament.run_replicate", None),
    ("riskcontest.cli", "write_rows_csv", "tournament.write_csv", None),
    ("riskcontest.cli", "write_summary_csv", "tournament.write_csv", None),
    ("riskcontest.selectors", "select_team_a", "selectors.team_a", None),
    ("riskcontest.selectors", "select_team_b", "selectors.team_b", None),
    ("riskcontest.selectors", "select_team_c", "selectors.team_c", _team_c),
    ("riskcontest.selectors", "select_team_d", "selectors.team_d", None),
    ("riskcontest.selectors", "select_baseline", "selectors.baseline", None),
    ("riskcontest.selectors", "fit_logistic", "glm.fit_logistic", _fit),
    ("riskcontest.glm", "fit_logistic", "glm.fit_logistic", _fit),
    ("riskcontest.selectors", "cv_deviance", "glm.cv_deviance", None),
    ("riskcontest.selectors", "fit_lasso_path", "glm.fit_lasso_path", _lasso_path),
]


class Tracer:
    """Spans and counters, kept in memory until the run writes them out."""

    def __init__(self):
        # (span id, parent id or None, name, start, end, run id)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else None
            self._open.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[span_id] = (span_id, parent, name, start, end, self.run_id)
            if count is not None:
                count(self.counts, name, args, result)
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name, count in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per traced pass, as {name: (value, unit)}.

    `.s` is busy seconds (span durations), `.calls` a span count, `self.s`
    the part of a layer's spans not covered by their child spans. Ratios
    come with their bases among the other metrics.
    """
    busy, calls, self_s, covered = Counter(), Counter(), Counter(), Counter()
    for _, parent, _, start, end, _ in tracer.spans:
        if parent is not None:
            covered[parent] += end - start
    for span_id, _, name, start, end, _ in tracer.spans:
        busy[name] += end - start
        calls[name] += 1
        self_s[name.split(".")[0]] += end - start - covered[span_id]
    counts = tracer.counts

    def ratio(numer, denom):
        return numer / denom if denom else 0.0

    raw = {
        "cli.commands": (calls["cli.main"], "count"),
        "cli.self.s": (self_s["cli"], "s"),
        "sim.simulate_dataset.calls": (calls["sim.simulate_dataset"], "count"),
        "sim.simulate_dataset.s": (busy["sim.simulate_dataset"], "s"),
        "sim.draw_ground_truth.s": (busy["sim.draw_ground_truth"], "s"),
        "io.read_dataset_csv.calls": (calls["io.read_dataset_csv"], "count"),
        "io.read_dataset_csv.s": (busy["io.read_dataset_csv"], "s"),
        "io.write_dataset_csv.calls": (calls["io.write_dataset_csv"], "count"),
        "io.write_dataset_csv.s": (busy["io.write_dataset_csv"], "s"),
        "io.truth.s": (busy["io.read_truth_json"] + busy["io.write_truth_json"]
                       + busy["io.verify_commitment"], "s"),
        "io.submission.s": (busy["io.read_submission"] + busy["io.write_submission"], "s"),
        "io.bytes_read": (counts["io.bytes_read"], "bytes"),
        "io.bytes_written": (counts["io.bytes_written"], "bytes"),
        "selectors.team_a.s": (busy["selectors.team_a"], "s"),
        "selectors.team_b.s": (busy["selectors.team_b"], "s"),
        "selectors.team_c.s": (busy["selectors.team_c"], "s"),
        "selectors.team_c.subsets": (counts["selectors.team_c.subsets"], "count"),
        "selectors.team_d.s": (busy["selectors.team_d"], "s"),
        "selectors.baseline.s": (busy["selectors.baseline"], "s"),
        "selectors.self.s": (self_s["selectors"], "s"),
        "glm.fit_logistic.calls": (calls["glm.fit_logistic"], "count"),
        "glm.fit_logistic.s": (busy["glm.fit_logistic"], "s"),
        "glm.fit_logistic.iterations": (counts["glm.fit_logistic.iterations"], "count"),
        "glm.fit_logistic.separated": (counts["glm.fit_logistic.separated"], "count"),
        "glm.fit_logistic.nonconverged": (counts["glm.fit_logistic.nonconverged"], "count"),
        "glm.fit_logistic.row_iterations": (counts["glm.fit_logistic.row_iterations"], "count"),
        "glm.fit_lasso_path.calls": (calls["glm.fit_lasso_path"], "count"),
        "glm.fit_lasso_path.s": (busy["glm.fit_lasso_path"], "s"),
        "glm.fit_lasso_path.cd_outer_iterations":
            (counts["glm.fit_lasso_path.cd_outer_iterations"], "count"),
        "glm.fit_lasso_path.nonconverged": (counts["glm.fit_lasso_path.nonconverged"], "count"),
        "glm.cv_deviance.calls": (calls["glm.cv_deviance"], "count"),
        "glm.cv_deviance.s": (busy["glm.cv_deviance"], "s"),
        "scoring.calls": (sum(v for k, v in calls.items() if k.startswith("scoring.")), "count"),
        "scoring.s": (sum(v for k, v in busy.items() if k.startswith("scoring.")), "s"),
        "tournament.run_replicate.s": (busy["tournament.run_replicate"], "s"),
        "tournament.self.s": (self_s["tournament"], "s"),
        "tournament.write_csv.s": (busy["tournament.write_csv"], "s"),
    }
    out = {name: (value / passes, unit) for name, (value, unit) in raw.items()}
    # Ratios of totals, unchanged by the per-pass scaling.
    out["glm.fit_logistic.unseparated_ratio"] = (ratio(
        calls["glm.fit_logistic"] - counts["glm.fit_logistic.separated"],
        calls["glm.fit_logistic"]), "ratio")
    out["selectors.team_c.us_per_subset"] = (ratio(
        1e6 * busy["selectors.team_c"], counts["selectors.team_c.subsets"]), "us")
    for name in ("io.read_dataset_csv", "io.write_dataset_csv"):
        out[name + ".mb_per_s"] = (ratio(counts[name + ".bytes"] / 1e6, busy[name]), "MB/s")
    return out


def spans_as_records(tracer: Tracer) -> list[dict]:
    return [{"id": s, "parent": p, "name": n, "start": a, "end": b, "run": r}
            for s, p, n, a, b, r in tracer.spans]
