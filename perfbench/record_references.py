"""Record the reference exit codes and CSV digests the benchmark checks.

Usage, from the root of a galbank checkout whose outputs are known good:

  python3 perfbench/record_references.py

Runs every workload once per CLI seed of the seed block, at its full and its
smoke scenario count, and rewrites perfbench/references.json.
Record from a commit whose CSV bytes are the behaviour contract; re-recording
from a changed program would hide the very changes the benchmark gates.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import REFERENCES, WORK, run_child, sha256
from workloads import SEED_BASE, SEED_BLOCK, SMOKE_SCENARIOS, WORKLOADS


def main() -> int:
    references = {}
    WORK.mkdir(parents=True, exist_ok=True)
    for name, workload in sorted(WORKLOADS.items()):
        for scenarios in sorted({SMOKE_SCENARIOS, workload.scenarios}):
            for seed in range(SEED_BASE, SEED_BASE + SEED_BLOCK):
                result, wall, pass_dir = run_child(
                    workload, seed, scenarios, "plain", f"ref{seed}",
                    time.monotonic() + 3600,
                )
                references.setdefault(name, {}).setdefault(str(scenarios), {})[str(seed)] = {
                    "exit_code": result["exit_code"],
                    "sha256": {f: sha256(pass_dir / "out" / f) for f in workload.outputs},
                }
                shutil.rmtree(pass_dir)
                print(f"{name} scenarios={scenarios} seed={seed} exit={result['exit_code']} "
                      f"wall={wall:.2f}s rss={result['peak_rss_mb']:.0f}MB", flush=True)
                REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
