"""galbank benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a galbank checkout:

  python3 perfbench/run.py --workload simulate-headline [--seed N]
      [--seconds S] [--trace 0|1] [--smoke]

Each pass runs `galbank.cli.main` once in a fresh process (perfbench/child.py)
on the checkout's own `src/`.  Passes repeat until --seconds have elapsed,
at least once.  With --trace 0 the run reports the end-to-end metrics,
medians over its passes; with --trace 1 it ends with one traced pass and
reports that pass's per-layer metrics.

A pass fails when its process fails, when it never calls into galbank.risk,
or when the CLI's exit code or the sha256 of any CSV it writes differs from
perfbench/references.json.  --smoke runs each workload at its small scenario
count, for the benchmark's own test.

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Lines before it are a human-readable report, including the machine record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SMOKE_SCENARIOS, WORKLOADS, cli_seed  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCES = HERE / "references.json"
# a run must end within 180 s; no pass may start a child past this budget
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "scenarios_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class PassFailed(Exception):
    pass


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_child(workload, seed: int, scenarios: int, mode: str, tag: str,
              deadline: float) -> tuple[dict, float, Path]:
    """One CLI pass in a fresh process: (child result, wall seconds, out dir)."""
    pass_dir = WORK / f"{workload.name}-{os.getpid()}-{tag}"
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    config_path = pass_dir / "config.json"
    config_path.write_text(json.dumps(workload.config))
    out_dir = pass_dir / "out"
    spec = {
        "src": str(SRC),
        "mode": mode,
        "argv": workload.argv(config_path, out_dir, cli_seed(seed), scenarios),
        "result": str(pass_dir / "result.json"),
    }
    spec_path = pass_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))

    timeout = max(1.0, deadline - time.monotonic())
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} pass did not finish within {timeout:.0f} s") from None
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(Path(spec["result"]).read_text()), wall, pass_dir


def check_outputs(workload, reference: dict, result: dict, out_dir: Path) -> list[str]:
    """Mismatches between one pass's exit code and CSVs and the reference."""
    problems = []
    if result["exit_code"] != reference["exit_code"]:
        problems.append(f"exit code {result['exit_code']}, expected {reference['exit_code']}")
    for name in workload.outputs:
        path = out_dir / name
        if not path.exists():
            problems.append(f"{name} missing")
        elif sha256(path) != reference["sha256"][name]:
            problems.append(f"{name} digest {sha256(path)[:12]} differs from "
                            f"{reference['sha256'][name][:12]}")
    return problems


def machine_record() -> dict:
    """Core count, interpreter, numpy/scipy versions and the BLAS build as run."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": " ".join(str(blas.get("openblas configuration", "")).split()),
        "blas_threads_env": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, smoke: bool,
                 references: dict) -> dict:
    scenarios = SMOKE_SCENARIOS if smoke else workload.scenarios
    key = str(cli_seed(seed))
    reference = references.get(workload.name, {}).get(str(scenarios), {}).get(key)
    if reference is None:
        raise SystemExit(f"no reference digests for {workload.name} at "
                         f"{scenarios} scenarios and CLI seed {key}")

    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    attempted = failed = 0

    def attempt(mode: str, tag: str):
        """One child process; (result, wall) or (None, None) when it failed."""
        nonlocal attempted, failed
        attempted += 1
        try:
            result, wall, pass_dir = run_child(workload, seed, scenarios, mode, tag, deadline)
            problems = check_outputs(workload, reference, result, pass_dir / "out")
            if result["setup_s"] is None:
                problems.append("no call into galbank.risk")
            shutil.rmtree(pass_dir, ignore_errors=True)
        except PassFailed as exc:
            problems = [str(exc)]
        if problems:
            failed += 1
            print(f"{mode} {tag}: FAILED: {'; '.join(problems)}")
            return None, None
        print(f"{mode} {tag}: ok, {wall:.3f} s wall, {result['setup_s']:.3f} s set-up, "
              f"{result['peak_rss_mb']:.0f} MB peak RSS")
        return result, wall

    walls, rates, setups, rss = [], [], [], []
    n = 0
    while n == 0 or time.monotonic() - started < seconds:
        result, wall = attempt("plain", f"p{n}")
        n += 1
        if result is not None:
            walls.append(wall)
            rates.append(scenarios / (wall - result["setup_s"]))
            setups.append(result["setup_s"])
            rss.append(result["peak_rss_mb"])
        if time.monotonic() > deadline:
            break

    end_to_end, layers = {}, None
    if trace:
        result, wall = attempt("trace", "t0")
        if result is not None and walls:
            layers = result["layers"]
            layers["tracing_overhead_s"] = [wall - statistics.median(walls), "s"]
            (WORK / f"spans-{workload.name}.json").write_text(
                json.dumps({"spans": result["spans"], "tasks": result["tasks"]}))
    elif walls:
        end_to_end = {
            "wall_s": statistics.median(walls),
            "scenarios_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        }
    return {
        "scenarios": scenarios,
        "cli_seed": int(key),
        "attempted": attempted,
        "failed": failed,
        "passes": len(walls),
        "end_to_end": end_to_end,
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=19770525)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small scenario counts, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "galbank" / "cli.py").is_file():
        print(f"error: {SRC / 'galbank'} not found; run from a galbank checkout",
              file=sys.stderr)
        return 2
    references = json.loads(REFERENCES.read_text())
    workload = WORKLOADS[args.workload]

    print(f"machine: {json.dumps(machine_record())}")
    print(f"workload: {workload.name}  seed: {args.seed}  trace: {args.trace}")
    WORK.mkdir(parents=True, exist_ok=True)
    out = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                       references)
    print(f"scenarios: {out['scenarios']}  cli seed: {out['cli_seed']}  "
          f"passes: {out['passes']}")

    attempted, failed = out["attempted"], out["failed"]
    error_rate = failed / attempted
    print(f"error_rate {error_rate:.4f} ratio ({failed}/{attempted} processes failed)")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in (out["layers"] or {}).items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in out["end_to_end"].items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
