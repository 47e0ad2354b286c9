"""One galbank CLI pass in a fresh process, as the benchmark measures it.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds `src` (the directory galbank is imported from), `argv` for
`galbank.cli.main`, `mode` and `result` (where this process writes its JSON
result).  Modes:

  plain  run the command; record set-up time and peak RSS
  trace  as plain, with spans around each layer's public calls, plus the
         per-layer metrics derived from them, the spans and the pool tasks

Set-up time runs from just before `import galbank.cli` to the first call into
galbank.risk (`simulate_records` or `bailout_frontier`): import, config parse
and network build.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, layer_metrics  # noqa: E402


def _mark_first_call(marks: dict, fn):
    def first_call(*args, **kwargs):
        marks.setdefault("first_risk_call", time.perf_counter())
        return fn(*args, **kwargs)

    return first_call


def _install_spans(tracer: Tracer, marks: dict):
    from galbank import cli, report, risk

    def shock_attrs(span, args, kwargs, out):
        span.attrs["scenarios"] = out.shape[0]
        span.attrs["bytes_out"] = out.nbytes

    def clearing_attrs(span, args, kwargs, result):
        assets = args[1]
        span.attrs["scenarios"] = assets.shape[0]
        span.attrs["iterations"] = result.iterations
        # p, p_new, scratch and the assets: the n-wide arrays each Picard
        # iteration reads or writes
        span.attrs["bytes_per_iteration"] = 4 * assets.shape[0] * assets.shape[1] * 8

    def simulate_attrs(span, args, kwargs, result):
        span.attrs["scenarios"] = len(result)
        span.attrs["workers"] = max(1, kwargs.get("n_jobs", args[6] if len(args) > 6 else 1))

    def report_attrs(span, args, kwargs, result):
        span.attrs["bytes"] = os.path.getsize(args[0])

    simulate = _mark_first_call(
        marks, tracer.wrap("risk.simulate_records", risk.simulate_records, simulate_attrs)
    )
    frontier = _mark_first_call(
        marks, tracer.wrap("risk.bailout_frontier", risk.bailout_frontier)
    )
    cli.simulate_records = risk.simulate_records = simulate
    cli.bailout_frontier = frontier
    cli.load_config = tracer.wrap("config.load_config", cli.load_config)
    cli.build_network = tracer.wrap("calibration.build_network", cli.build_network)
    risk._AllocationEvaluator.losses = tracer.wrap(
        "risk.frontier.losses", risk._AllocationEvaluator.losses
    )
    risk.sample_loss_matrix = tracer.wrap(
        "shocks.sample_loss_matrix", risk.sample_loss_matrix, shock_attrs
    )
    risk.clear_tiered_batch = tracer.wrap(
        "clearing.clear_tiered_batch", risk.clear_tiered_batch, clearing_attrs
    )
    risk.ThreadPoolExecutor = tracer.executor_class()
    for name in dir(report):
        if name.startswith("write_"):
            setattr(report, name,
                    tracer.wrap(f"report.{name}", getattr(report, name), report_attrs))


def run(spec: dict) -> dict:
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    tracer = Tracer() if spec["mode"] == "trace" else None
    marks: dict = {}

    t0 = time.perf_counter()
    if tracer is not None:
        root, _ = tracer.open("cli", start=t0)
        imp, token = tracer.open("import.galbank", start=t0)
    import galbank.cli as cli
    if tracer is not None:
        tracer.close(imp, token)

    imported_from = Path(cli.__file__).resolve()
    if src not in imported_from.parents:
        raise SystemExit(f"galbank was imported from {imported_from}, not from {src}")

    if tracer is not None:
        _install_spans(tracer, marks)
    else:
        cli.simulate_records = _mark_first_call(marks, cli.simulate_records)
        cli.bailout_frontier = _mark_first_call(marks, cli.bailout_frontier)

    exit_code = cli.main(spec["argv"])
    end = time.perf_counter()

    result = {
        "exit_code": exit_code,
        "setup_s": marks["first_risk_call"] - t0 if "first_risk_call" in marks else None,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        root.end = end
        result["layers"] = {
            name: [value, unit]
            for name, (value, unit) in layer_metrics(tracer.spans, tracer.tasks).items()
        }
        result["spans"] = [
            [s.name, s.parent, s.start - t0, s.end - t0, s.attrs] for s in tracer.spans
        ]
        result["tasks"] = [[t.parent, t.start - t0, t.end - t0] for t in tracer.tasks]
    return result


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
