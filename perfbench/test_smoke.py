"""Smoke test of the benchmark itself: every workload at its smoke size.

Run from the root of the checkout:  python3 -m pytest -q perfbench/test_smoke.py

Checks that each run prints every end-to-end and per-layer metric named in
BENCHMARK.json with its unit, that the single-threaded traced pass attributes
its whole wall time to layer self times plus cli.self_s, that spans opened on
pool workers get the submitting `risk.simulate_records` span as parent, and
that a tampered reference digest or a pass that never reaches galbank.risk is
counted as a failed pass.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import REFERENCE_SEED, SMOKE_SCENARIOS, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
# layers whose self time partitions the traced wall time of a 1-thread pass
SELF_TIMES = ("import.busy_s", "config.load_s", "calibration.build_s", "risk.self_s",
              "shocks.busy_s", "clearing.busy_s", "report.busy_s", "cli.self_s")


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0", *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def assert_metrics(printed, expected):
    assert {n: m["unit"] for n, m in printed.items()} == {m["name"]: m["unit"] for m in expected}
    for m in printed.values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics(workload):
    result, report = bench("--workload", workload, "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result["metrics"], BENCHMARK["end_to_end"])
    assert any(line.startswith("error_rate 0.0000 ratio") for line in report)
    assert any(line.startswith("machine: ") for line in report)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_per_layer_metrics(workload):
    result, _ = bench("--workload", workload, "--trace", "1")
    assert result["correct"]
    assert_metrics(result["metrics"], BENCHMARK["per_layer"])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["shocks.scenarios"] == values["clearing.scenarios"] > 0
    if workload == "simulate-headline":
        attributed = sum(values[name] for name in SELF_TIMES)
        assert attributed == pytest.approx(values["trace.wall_s"], abs=1e-9)
        assert values["risk.worker_utilisation"] == 1.0
    if workload == "simulate-bailout":
        trace = json.loads((run.WORK / f"spans-{workload}.json").read_text())
        spans = trace["spans"]  # [name, parent, start, end, attrs], indexed by span id
        simulate_ids = {i for i, s in enumerate(spans) if s[0] == "risk.simulate_records"}
        assert len(simulate_ids) == 1
        # both chunks ran as pool tasks of the one simulate_records call
        assert len(trace["tasks"]) == 2
        assert {parent for parent, _, _ in trace["tasks"]} == simulate_ids
        for name, parent, _, _, _ in spans:
            if name.startswith(("shocks.", "clearing.")):
                assert parent in simulate_ids
        simulate_s = sum(spans[i][3] - spans[i][2] for i in simulate_ids)
        assert 0 < values["risk.self_s"] < simulate_s
        assert 0 < values["risk.worker_utilisation"] <= 1.0


def test_tampered_digest_counts_as_failure():
    workload = WORKLOADS["simulate-headline"]
    references = json.loads(run.REFERENCES.read_text())
    reference = references[workload.name][str(SMOKE_SCENARIOS)][str(REFERENCE_SEED)]
    reference["sha256"]["losses.csv"] = "0" * 64

    out = run.run_workload(workload, REFERENCE_SEED, 0, False, True, references)
    assert out["attempted"] >= 1 and out["failed"] == out["attempted"]


def test_pass_without_risk_call_counts_as_failure():
    # an invalid config exits with the CLI's config error before any risk call;
    # a reference that expects exactly that leaves only the missing risk call
    workload = dataclasses.replace(WORKLOADS["simulate-headline"],
                                   config={"grid": {"per_big": []}}, outputs=())
    references = {workload.name: {str(SMOKE_SCENARIOS): {str(REFERENCE_SEED): {
        "exit_code": 2, "sha256": {}}}}}

    out = run.run_workload(workload, REFERENCE_SEED, 0, False, True, references)
    assert out["attempted"] >= 1 and out["failed"] == out["attempted"]
