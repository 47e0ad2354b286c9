"""CSV report emission.

All files use a fixed column order, '.' decimal separator and floats
serialized with 17 significant digits so round-trips are bit-stable.
A leading comment line documents the units.  No timestamps go into file
bodies; re-running a command with the same inputs yields identical bytes.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .calibration import CalibrationParams
from .network import GalacticNetwork, Tier, total_obligation
from .risk import (
    Criterion,
    FrontierPoint,
    LossConfig,
    MinimalBailout,
    ScenarioTable,
    exceedance_probability,
    expected_loss,
    green_line_loss,
    loss_threshold,
)

HISTOGRAM_BINS = 100


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_rows(path: Path, comment: str, header: list[str], rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) if not isinstance(v, str) else v for v in row])


def write_network_summary(path: Path, network: GalacticNetwork,
                          params: CalibrationParams):
    """Long-format per-tier balance sheet plus headline constants."""
    rows = [
        ("galaxy", "bank_count", network.n_banks),
        ("galaxy", "outstanding_debt", network.outstanding_debt),
        ("galaxy", "ggp", network.ggp),
        ("galaxy", "banking_sector_ggp_fraction", params.banking_sector_ggp_fraction),
    ]
    for t in Tier:
        sheet = network.sheets[t]
        name = t.name.lower()
        rows += [
            (name, "count", network.counts[t]),
            (name, "total_obligation", total_obligation(network.profiles[t])),
            (name, "owed_external", network.profiles[t].owed_external),
            (name, "interbank_claims_face", network.claims_face(t)),
            (name, "bond_holdings_face", sheet.bond_holdings_face),
            (name, "external_assets", sheet.external_assets),
            (name, "deposits", sheet.deposits),
            (name, "capital_buffer", params.capital_buffer_per_tier[t]),
        ]
    _write_rows(path, "amounts in QUINTILLION galactic dollars (Q)",
                ["scope", "metric", "value"], rows)


def write_losses_csv(path: Path, table: ScenarioTable, config: LossConfig):
    """One scenario per row, in scenario-index order."""
    insured = config.deposit_insurance
    payouts = table.deposits_lost if insured else np.zeros(len(table))
    rows = zip(
        range(len(table)),
        table.loss(insured).tolist(),
        payouts.tolist(),
        table.n_defaults.tolist(),
        table.central_shortfall.tolist(),
    )
    _write_rows(
        path,
        "losses in Q; deposit_insurance=" + ("on" if insured else "off"),
        ["scenario_index", "real_economy_loss", "insurance_payout",
         "n_defaults", "central_shortfall"],
        rows,
    )


def write_histogram_csv(path: Path, table: ScenarioTable, network: GalacticNetwork):
    """Loss histograms, both insurance settings, binned as percent of GGP."""
    no_ins = table.loss(False) / network.ggp * 100.0
    ins = table.loss(True) / network.ggp * 100.0
    top = float(max(no_ins.max(initial=0.0), ins.max(initial=0.0)))
    if top <= 0.0:
        top = 1.0
    edges = np.linspace(0.0, top, HISTOGRAM_BINS + 1)
    counts_no_ins, _ = np.histogram(no_ins, bins=edges)
    counts_ins, _ = np.histogram(ins, bins=edges)
    rows = [
        (edges[i], edges[i + 1], counts_no_ins[i], counts_ins[i])
        for i in range(HISTOGRAM_BINS)
    ]
    _write_rows(path, "bin edges in percent of GGP",
                ["bin_left_pct_ggp", "bin_right_pct_ggp",
                 "count_no_insurance", "count_insurance"], rows)


def summary_stats(table: ScenarioTable, network: GalacticNetwork,
                  config: LossConfig) -> dict[str, float]:
    no_ins = table.loss(False)
    ins = table.loss(True)
    payouts = table.deposits_lost
    n_defaults = table.n_defaults
    green = green_line_loss(network, config)
    threshold = loss_threshold(network, config)
    ggp = network.ggp

    below = no_ins < green
    stats = {
        "n_scenarios": len(table),
        "ggp": ggp,
        "green_line": green,
        "green_line_ggp_fraction": green / ggp,
        "threshold": threshold,
        "mean_loss_no_insurance": expected_loss(no_ins),
        "mean_loss_insurance": expected_loss(ins),
        "mean_loss_no_insurance_ggp_fraction": expected_loss(no_ins) / ggp,
        "mean_loss_insurance_ggp_fraction": expected_loss(ins) / ggp,
        "exceedance_no_insurance": exceedance_probability(no_ins, threshold),
        "exceedance_insurance": exceedance_probability(ins, threshold),
        "fraction_below_green_line": float(below.mean()),
        "mean_defaults": float(n_defaults.mean()),
        "mean_insurance_payout": float(payouts.mean()),
        "mean_insurance_payout_ggp_fraction": float(payouts.mean()) / ggp,
    }
    for q in (50, 90, 95, 99):
        stats[f"loss_no_insurance_p{q}"] = float(np.percentile(no_ins, q))
    # payout means conditional on the scenario landing below/above the
    # no-financial-system benchmark
    for name, mask in (("below_green", below), ("above_green", ~below)):
        stats[f"insurance_payout_mean_{name}"] = (
            float(payouts[mask].mean()) if mask.any() else 0.0
        )
        stats[f"insurance_payout_mean_{name}_ggp_fraction"] = (
            float(payouts[mask].mean()) / ggp if mask.any() else 0.0
        )
    return stats


def write_summary_csv(path: Path, stats: dict[str, float]):
    """The statistics of `summary_stats`, one metric per row."""
    _write_rows(path, "amounts in Q unless the metric says fraction",
                ["metric", "value"], list(stats.items()))


def write_frontier_csv(path: Path, frontiers: dict[Criterion, list[FrontierPoint]],
                       network: GalacticNetwork):
    rows = []
    for criterion, points in frontiers.items():
        for pt in points:
            if pt.attainable:
                total = pt.allocation.total(network)
                rows.append((criterion.value, pt.per_big, pt.per_massive,
                             total, total / network.ggp, True))
            else:
                rows.append((criterion.value, pt.per_big, "", "", "", False))
    _write_rows(path, "per-bank amounts and totals in Q",
                ["criterion", "per_big", "minimal_per_massive", "total",
                 "ggp_fraction", "attainable"], rows)


def write_minima_csv(path: Path, minima: list[MinimalBailout]):
    rows = [
        (m.criterion.value, m.per_massive, m.per_big, m.total, m.ggp_fraction)
        for m in minima
    ]
    _write_rows(path, "per-bank amounts and totals in Q",
                ["criterion", "per_massive", "per_big", "total", "ggp_fraction"], rows)
