"""The benchmark's workloads: one galbank CLI command each, with its config.

Every workload drives `galbank.cli.main` once per pass in a fresh process.
The benchmark writes the config JSON itself; the CLI receives only that file
and flags.  The machine this was tuned on has 2 cores, so no workload uses
more than 2 worker threads.

Scenario counts are sized so that a run repeats the simulate workloads
several times within its measuring time and reports medians.  The frontier's
1,000 scenarios are two 500-scenario chunks per allocation, so each
evaluation still runs on the 2-worker pool, as at the acceptance suite's
2,000.  Why each workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_SEED = 19770525
# The CLI seed is drawn from a block of 8 consecutive seeds that contains the
# documented seed, so every input a --seed can select has recorded reference
# digests: cli_seed = SEED_BASE + seed % SEED_BLOCK, and the documented seed
# maps to itself.
SEED_BLOCK = 8
SEED_BASE = REFERENCE_SEED - REFERENCE_SEED % SEED_BLOCK

# calibration of tests/test_acceptance.py's frontier run: the central bank can
# cover its outside obligation at full inflow and is exempt from the shock
ACCEPTANCE_CALIBRATION = {
    "calibration": {"capital_buffer_per_tier": [0.15, 0.05, 2.0]},
    "shock": {"exempt_central": True},
}
ACCEPTANCE_GRID = [0.0, 0.02, 0.04, 0.05, 0.06, 0.07, 0.09,
                   0.12, 0.16, 0.21, 0.28, 0.36, 0.45]

# scenario count of every workload under --smoke, for the benchmark's own
# test: two 500-scenario chunks, so the 2-thread workloads run on the pool
SMOKE_SCENARIOS = 1_000

SIMULATE_OUTPUTS = ("losses.csv", "histogram.csv", "summary.csv")
FRONTIER_OUTPUTS = ("frontier.csv", "minima.csv")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    flags: tuple[str, ...]
    scenarios: int
    threads: int
    outputs: tuple[str, ...]

    def argv(self, config_path, out_dir, seed: int, scenarios: int) -> list[str]:
        return [
            self.command, "--config", str(config_path), "--out", str(out_dir),
            "--seed", str(seed), "--scenarios", str(scenarios),
            "--threads", str(self.threads), *self.flags,
        ]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="simulate-headline",
            command="simulate",
            config={},
            flags=(),
            scenarios=2_500,
            threads=1,
            outputs=SIMULATE_OUTPUTS,
        ),
        Workload(
            name="frontier-acceptance",
            command="frontier",
            config={**ACCEPTANCE_CALIBRATION, "grid": {"per_big": ACCEPTANCE_GRID}},
            flags=("--criterion", "all"),
            scenarios=1_000,
            threads=2,
            outputs=FRONTIER_OUTPUTS,
        ),
        Workload(
            name="simulate-bailout",
            command="simulate",
            config=ACCEPTANCE_CALIBRATION,
            flags=("--insurance", "--bailout-massive", "1.0", "--bailout-big", "0.05"),
            scenarios=5_000,
            threads=2,
            outputs=SIMULATE_OUTPUTS,
        ),
    )
}


def cli_seed(seed: int) -> int:
    return SEED_BASE + seed % SEED_BLOCK
