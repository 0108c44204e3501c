"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

Run from the root of a riskcontest checkout. The package is imported from
that checkout's src/ directory, never from an installed copy. The last line
of standard output is a JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
of a traced run with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_package() -> Path:
    """Put the checkout's src/ first on sys.path and import riskcontest from it.

    Exits with a non-zero status, printing nothing on stdout, when the
    checkout has no riskcontest sources or the import resolves elsewhere.
    """
    src = ROOT / "src"
    if not (src / "riskcontest" / "__init__.py").is_file():
        sys.exit(f"perfbench: no riskcontest sources under {src}")
    sys.path.insert(0, str(src))
    import riskcontest

    if Path(riskcontest.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: riskcontest imported from {riskcontest.__file__}, not {src}")
    return ROOT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", choices=("main", "held-out", "tiny"), default="main",
                        help="which recorded inputs to run: the measured ones, the "
                             "held-out ones of the same size, or the self-test's "
                             "small ones (default: main)")
    parser.add_argument("--setup-only", metavar="DIR",
                        help="generate the workload's inputs into DIR and exit "
                             "(the fresh process that setup_s times)")
    args = parser.parse_args(argv)

    root = load_package()
    from workloads import POOLS

    workloads = POOLS[args.pool]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads)}")
    workload = workloads[args.workload]
    if args.setup_only:
        workload.prepare(Path(args.setup_only), workload.items(args.seed))
        return 0

    import harness

    result = harness.run(root, workload, args.seed, args.seconds, bool(args.trace))
    harness.report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
