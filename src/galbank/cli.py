"""Command-line drivers: calibrate, simulate, frontier.

Every command is a pure function of the config file and flags.  Outputs
go to a fresh timestamped directory under ./runs unless --out is given;
an existing non-empty --out directory requires --overwrite, and simulate
and frontier reject it before they start computing.

Exit codes: 0 success, 2 config error, 3 frontier computed with
unattainable grid points, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import report
from .calibration import build_network
from .config import ConfigError, load_config
from .risk import (
    BailoutAllocation,
    Criterion,
    _AllocationEvaluator,
    bailout_frontier,
    minimal_total_bailout,
    simulate_records,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GAPS = 3
EXIT_IO = 4


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galbank",
        description="Galactic interbank contagion simulator",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="override config seed")
    common.add_argument("--scenarios", type=int, default=None,
                        help="override config scenario count")
    common.add_argument("--out", type=Path, default=None, help="output directory")
    common.add_argument("--threads", type=_positive_int, default=1,
                        help="worker threads; never changes results")
    common.add_argument("--overwrite", action="store_true",
                        help="allow writing into an existing non-empty --out")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("calibrate", parents=[common],
                   help="build the network and write its summary")

    sim = sub.add_parser("simulate", parents=[common],
                         help="Monte Carlo loss distribution")
    sim.add_argument("--insurance", action="store_true",
                     help="account losses with deposit insurance active")
    sim.add_argument("--bailout-massive", type=float, default=0.0, metavar="X",
                     help="bailout per massive bank, Q")
    sim.add_argument("--bailout-big", type=float, default=0.0, metavar="Y",
                     help="bailout per big bank, Q")

    fro = sub.add_parser("frontier", parents=[common],
                         help="minimal bailout allocations per criterion")
    fro.add_argument("--criterion", default="all",
                     choices=[c.value for c in Criterion] + ["all"])
    return parser


def _prepare_out_dir(args) -> Path:
    if args.out is not None:
        out = args.out
        if out.exists() and any(out.iterdir()) and not args.overwrite:
            raise OSError(f"output directory {out} is not empty; pass --overwrite")
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        out = Path("runs") / f"{args.command}-{stamp}"
        n = 1
        while out.exists():
            out = Path("runs") / f"{args.command}-{stamp}-{n}"
            n += 1
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args):
    config = load_config(args.config)
    for flag, field, value in (("--seed", "seed", args.seed),
                               ("--scenarios", "n_scenarios", args.scenarios)):
        if value is not None:
            try:
                config = replace(config, **{field: value})
            except ConfigError as exc:
                raise ConfigError(f"{flag}: {exc}") from exc
    return config


def cmd_calibrate(args) -> int:
    config = _load(args)
    network = build_network(config.calibration)
    out = _prepare_out_dir(args)
    report.write_network_summary(out / "network_summary.csv", network, config.calibration)
    print(f"bank_count: {network.n_banks}")
    print(f"outstanding_debt_q: {network.outstanding_debt:g}")
    print(f"ggp_q: {network.ggp:g}")
    print(f"wrote {out / 'network_summary.csv'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load(args)
    try:
        bailout = BailoutAllocation(per_massive=args.bailout_massive,
                                    per_big=args.bailout_big)
    except ValueError as exc:
        raise ConfigError(f"--bailout-massive/--bailout-big: {exc}") from exc
    out = _prepare_out_dir(args)
    network = build_network(config.calibration)
    loss = config.loss
    if args.insurance:
        loss = replace(loss, deposit_insurance=True)
    table = simulate_records(
        network, config.shock, bailout, loss,
        config.n_scenarios, config.seed, n_jobs=args.threads,
    )
    report.write_losses_csv(out / "losses.csv", table, loss)
    report.write_histogram_csv(out / "histogram.csv", table, network)
    stats = report.summary_stats(table, network, loss)
    report.write_summary_csv(out / "summary.csv", stats)
    print(f"scenarios: {config.n_scenarios}  seed: {config.seed}")
    print(f"mean_loss_no_insurance_q: {stats['mean_loss_no_insurance']:.3f} "
          f"({100 * stats['mean_loss_no_insurance_ggp_fraction']:.2f}% of GGP)")
    print(f"mean_loss_insurance_q: {stats['mean_loss_insurance']:.3f} "
          f"({100 * stats['mean_loss_insurance_ggp_fraction']:.2f}% of GGP)")
    print(f"fraction_below_green_line: {stats['fraction_below_green_line']:.4f}")
    print(f"wrote {out}/losses.csv histogram.csv summary.csv")
    return EXIT_OK


def cmd_frontier(args) -> int:
    config = _load(args)
    out = _prepare_out_dir(args)
    network = build_network(config.calibration)
    criteria = list(Criterion) if args.criterion == "all" else [Criterion(args.criterion)]
    evaluator = _AllocationEvaluator(
        network, config.shock, config.loss, config.n_scenarios, config.seed, args.threads,
    )
    frontiers = {}
    minima = []
    gaps = False
    for criterion in criteria:
        points = bailout_frontier(evaluator, criterion, config.grid)
        frontiers[criterion] = points
        gaps = gaps or any(not p.attainable for p in points)
        if any(p.attainable for p in points):
            minima.append(minimal_total_bailout(points, network, criterion))

    report.write_frontier_csv(out / "frontier.csv", frontiers, network)
    report.write_minima_csv(out / "minima.csv", minima)

    print(f"{'criterion':<12} {'per_massive_q':>14} {'per_big_q':>10} "
          f"{'total_q':>10} {'pct_ggp':>8}")
    for m in minima:
        print(f"{m.criterion.value:<12} {m.per_massive:>14.3f} {m.per_big:>10.3f} "
              f"{m.total:>10.1f} {100 * m.ggp_fraction:>7.1f}%")
    for criterion in criteria:
        if all(not p.attainable for p in frontiers[criterion]):
            print(f"{criterion.value:<12} unattainable everywhere on the grid")
    print(f"wrote {out}/frontier.csv minima.csv")
    if gaps:
        print("note: some grid points were unattainable; computed with gaps")
        return EXIT_GAPS
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "calibrate": cmd_calibrate,
        "simulate": cmd_simulate,
        "frontier": cmd_frontier,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
