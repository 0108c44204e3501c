"""Record every pool item's outputs into perfbench/reference.json.

    python3 perfbench/record.py

Run once, at the commit whose answers the benchmark holds later commits to.
It records every workload of every copy in workloads.POOLS (main, held-out
and tiny), which takes a few minutes. Items are run one at a time, untimed;
an item whose commands fail is an error, not a recorded answer.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import load_package


def main() -> int:
    root = load_package()
    from harness import WORK_DIR
    from workloads import POOLS

    reference = {}
    for workloads in POOLS.values():
        for workload in workloads.values():
            key = workload.reference_key
            workdir = root / WORK_DIR / f"record-{key}"
            shutil.rmtree(workdir, ignore_errors=True)
            items = list(workload.pool)
            workload.prepare(workdir, items)
            recorded = {}
            for item in items:
                done = workload.run_item(workdir, item, None)
                if done.failures:
                    sys.exit(f"{key} item {item} failed:\n" + "\n".join(done.failures))
                recorded[str(item)] = done.observed
                print(f"{key} {item}: {done.busy_s:.2f} s", flush=True)
            reference[key] = recorded
            shutil.rmtree(workdir, ignore_errors=True)
    path = root / "perfbench" / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
