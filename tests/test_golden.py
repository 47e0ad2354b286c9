"""Byte contract: each benchmark workload's CSVs at the documented seed.

Runs `galbank.cli.main` in-process for every workload of
`perfbench/workloads.py`, at the documented seed and 1,000 scenarios, and
checks the exit code and the sha256 of every CSV against the digests in
`perfbench/references.json`.  Both files are only read here.  A change that
moves any output bit fails this test; such a change must re-record the
references and say why.  The same holds for `galbank calibrate`'s
network_summary.csv, pinned below.
"""

import hashlib
import json

import pytest

from galbank.cli import main
from documented_runs import ACCEPTANCE_PATH, ROOT, workloads

SCENARIOS = 1_000
REFERENCES = json.loads((ROOT / "perfbench" / "references.json").read_text())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_csv_bytes_match_references(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    seed = workloads.REFERENCE_SEED
    expected = REFERENCES[name][str(SCENARIOS)][str(seed)]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(workload.config))
    out = tmp_path / "out"

    exit_code = main(workload.argv(config_path, out, seed, SCENARIOS))

    assert exit_code == expected["exit_code"]
    for csv_name in workload.outputs:
        digest = hashlib.sha256((out / csv_name).read_bytes()).hexdigest()
        assert digest == expected["sha256"][csv_name], csv_name


OTHER_SEEDS = [seed for seed in range(workloads.SEED_BASE,
                                      workloads.SEED_BASE + workloads.SEED_BLOCK)
               if seed != workloads.REFERENCE_SEED]


@pytest.mark.slow
@pytest.mark.parametrize("seed", OTHER_SEEDS)
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_csv_bytes_match_references_at_every_seed(tmp_path, name, seed):
    # the same check at the block's other seeds, each with its recorded digests
    workload = workloads.WORKLOADS[name]
    expected = REFERENCES[name][str(SCENARIOS)][str(seed)]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(workload.config))
    out = tmp_path / "out"

    assert main(workload.argv(config_path, out, seed, SCENARIOS)) == expected["exit_code"]
    for csv_name in workload.outputs:
        digest = hashlib.sha256((out / csv_name).read_bytes()).hexdigest()
        assert digest == expected["sha256"][csv_name], (csv_name, seed)


# `galbank calibrate` is in no benchmark workload, so its one CSV is pinned
# here: at the default, acceptance (its committed file) and paid-off (zero
# debt) calibrations
NETWORK_SUMMARY_SHA256 = {
    "default": ({}, "63cbc114e1a532a4d10b4d028feae1b825031166a38f75a988cf2438c2a701ba"),
    "acceptance": (ACCEPTANCE_PATH,
                   "0bbe136004d9bbd681e4462d1f68a72ae2129233640ab29cefa7a78d19728262"),
    "paid-off": ({"calibration": {"ds1_paid_fraction": 1.0, "ds2_total_cost": 0.0}},
                 "6ed15ff94d2f432b06c6b37b739f497752621fbdd1a3908ec5f0aa432d56ebc2"),
}


@pytest.mark.parametrize("name", list(NETWORK_SUMMARY_SHA256))
def test_network_summary_bytes_pinned(tmp_path, name):
    config, expected = NETWORK_SUMMARY_SHA256[name]
    if isinstance(config, dict):  # a document, not a committed file
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        config = path
    out = tmp_path / "out"
    assert main(["calibrate", "--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "network_summary.csv").read_bytes()).hexdigest() == expected
