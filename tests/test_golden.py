"""Byte contract: each benchmark workload's CSVs at the documented seed.

Runs `galbank.cli.main` in-process for every workload of
`perfbench/workloads.py`, at the documented seed and 1,000 scenarios, and
checks the exit code and the sha256 of every CSV against the digests in
`perfbench/references.json`.  Both files are only read here.  A change that
moves any output bit fails this test; such a change must re-record the
references and say why.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from galbank.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCENARIOS = 1_000


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
REFERENCES = json.loads((PERFBENCH / "references.json").read_text())


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
