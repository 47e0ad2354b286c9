"""The documented runs the tests read, each loaded once: the acceptance
config (`configs/acceptance.json`) and the benchmark's workloads
(`perfbench/workloads.py`).  Both files are only read here."""

import importlib.util
import sys
from pathlib import Path

import galbank as gb

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
