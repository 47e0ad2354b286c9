"""The suite's shared harness: the documented runs, each loaded once (the
acceptance config `configs/acceptance.json` and the benchmark's workloads
`perfbench/workloads.py`, both only read here, and the workloads' digests
`perfbench/references.json`), and each helper the tests use to run a
command or to look inside one."""

import csv
import hashlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from collections import namedtuple
from dataclasses import fields
from pathlib import Path

import pytest

import galbank as gb
from galbank import cli
from galbank.cli import main

ROOT = Path(__file__).resolve().parent.parent
# the acceptance calibration: the central bank can cover its outside
# obligation at full inflow and is exempt from the market shock
ACCEPTANCE_PATH = ROOT / "configs" / "acceptance.json"
ACCEPTANCE = gb.load_config(ACCEPTANCE_PATH)

_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclass looks itself up there
_spec.loader.exec_module(workloads)
REFERENCES = json.loads((ROOT / "perfbench" / "references.json").read_text())


def tiered(counts, profiles, ggp=100.0):
    """A network of `counts` banks owing as `profiles`, holding nothing."""
    sheets = (gb.BalanceSheet(0.0, 0.0, 0.0),) * len(gb.Tier)
    return gb.GalacticNetwork(counts, profiles, sheets, ggp=ggp, outstanding_debt=0.0)


def random_tiered(rng):
    """A random tiered network of one central, 2-10 massive and 2-50 big
    banks, and uniform assets in [0, 2) for each bank."""
    counts = (1, int(rng.integers(2, 11)), int(rng.integers(2, 51)))
    profiles = (
        gb.LiabilityProfile(owed_external=float(rng.uniform(0.5, 30.0))),
        gb.LiabilityProfile(*rng.uniform(0.0, 3.0, size=3), 0.0),
        gb.LiabilityProfile(*rng.uniform(0.0, 1.0, size=3), 0.0),
    )
    net = tiered(counts, profiles)
    return net, rng.uniform(0.0, 2.0, size=net.n_banks)


def write_config(root: Path, data: dict) -> Path:
    path = root / "config.json"
    path.write_text(json.dumps(data))
    return path


def run_python(code: str, *argv, env=os.environ, check: bool = True):
    """`python -c code argv` in a fresh process importing galbank from `src/`."""
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          env={**env, "PYTHONPATH": str(ROOT / "src")}, check=check,
                          capture_output=True, text=True, timeout=300)


def run_workload(name, root: Path, seed: int, scenarios: int, env=None) -> tuple:
    """Benchmark workload `name` at `seed` and `scenarios`, its config and
    output under `root`, through `galbank.cli.main`: in this process, or
    with `env` in a fresh one (`run_python`).  Returns the exit code and the
    sha256 of each CSV the workload writes."""
    workload = workloads.WORKLOADS[name]
    out = root / "out"
    argv = workload.argv(write_config(root, workload.config), out, seed, scenarios)
    if env is None:
        code = main(argv)
    else:
        code = run_python("import sys; from galbank.cli import main; sys.exit(main(sys.argv[1:]))",
                          *argv, env=env, check=False).returncode
    return code, {csv_name: hashlib.sha256((out / csv_name).read_bytes()).hexdigest()
                  for csv_name in workload.outputs}


# a recorded call: its arguments by parameter name, defaults filled in; its
# result (None for a stopped call); whether it ran on the main thread
Call = namedtuple("Call", "arguments result main_thread")


class Stop(Exception):
    """Raised by a hook recorded with stop=True in place of running it."""


def record_calls(monkeypatch, owner, name: str, keep=None, stop: bool = False) -> list:
    """Wrap `owner.<name>`: each call, as it returns, appends its `Call` to
    the list returned here, or `keep(call)` where a test makes more calls
    than it can hold whole.  With stop=True the hook does not run: the
    wrapper records the call and raises `Stop`."""
    real = getattr(owner, name)
    signature = inspect.signature(real)
    calls = []

    def recorded(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        result = None if stop else real(*args, **kwargs)
        call = Call(dict(bound.arguments), result,
                    threading.current_thread() is threading.main_thread())
        calls.append(call if keep is None else keep(call))
        if stop:
            raise Stop(name)
        return result

    monkeypatch.setattr(owner, name, recorded)
    return calls


def simulate_inputs(monkeypatch, root: Path, name: str) -> dict:
    """The arguments `galbank simulate` hands `risk.simulate_records` in
    simulate workload `name`'s documented run, recorded without simulating."""
    workload = workloads.WORKLOADS[name]
    calls = record_calls(monkeypatch, cli, "simulate_records", stop=True)
    with pytest.raises(Stop):
        main(workload.argv(write_config(root, workload.config), root / "out",
                           workloads.REFERENCE_SEED, workload.scenarios))
    return calls[0].arguments


def run_acceptance_frontier(monkeypatch, out: Path, *flags) -> tuple:
    """`galbank frontier --config configs/acceptance.json --threads 2 <flags>`:
    its exit code and its `cli.bailout_frontier` calls, one per criterion."""
    calls = record_calls(monkeypatch, cli, "bailout_frontier")
    code = main(["frontier", "--config", str(ACCEPTANCE_PATH), "--threads", "2",
                 "--out", str(out), *flags])
    return code, calls


def traced_memory(run) -> tuple:
    """`run()` under tracemalloc: its result, and the bytes it left held and
    its peak, each above what was held when it started."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before, peak - before


def assert_tables_equal(a, b):
    """Each `ScenarioTable` column of `a` and `b` has one dtype, shape and bytes."""
    for column in fields(gb.ScenarioTable):
        x, y = getattr(a, column.name), getattr(b, column.name)
        assert x.dtype == y.dtype and x.shape == y.shape, column.name
        assert x.tobytes() == y.tobytes(), column.name


def read_csv(path: Path) -> list[dict]:
    """The rows of a galbank CSV, its `#` comment lines skipped."""
    with open(path) as fh:
        return list(csv.DictReader(row for row in fh if not row.startswith("#")))


def assert_every_command_rejects(tmp_path: Path, capsys, flags, pattern: str,
                                 usage: bool = False):
    """Each command with `flags` exits 2, `pattern` found in its stderr
    (`re.M`), and makes no output directory.  A usage error is argparse's
    SystemExit 2; a config error returns 2."""
    out = tmp_path / "out"
    for command in ("calibrate", "simulate", "frontier"):
        argv = [command, *map(str, flags), "--out", str(out)]
        if usage:
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
        else:
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.search(pattern, err, re.M), (command, err)
    assert not out.exists()
