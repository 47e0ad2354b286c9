import functools
import hashlib
import json
import math
import operator
import os
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import galbank as gb
from galbank import clearing, report, risk
from galbank.cli import main
from galbank.clearing import _TierSystem, clear_tiered_batch, defaulting_prefixes
from galbank.risk import _bisect_min, _AllocationEvaluator, _base_assets, _injection_vector
import oracles
from harness import (ACCEPTANCE, REFERENCES, ROOT, assert_tables_equal, read_csv, record_calls,
                     run_acceptance_frontier, run_workload, simulate_inputs, traced_memory,
                     tiered, workloads, write_config)

SEED = 20240917


def central_only_network(obligation=10.0):
    return tiered((1, 1, 1), (gb.LiabilityProfile(owed_external=obligation),
                              gb.LiabilityProfile(), gb.LiabilityProfile()))


# --- loss accounting --------------------------------------------------------

def account(network, assets):
    return gb.ScenarioTable.from_clearing(network, clear_tiered_batch(network, assets))


def test_loss_zero_when_everyone_pays(tmp_path):
    net = gb.build_network()
    assets = net.external_assets_vector() + net.bond_face_vector()
    table = account(net, assets[None, :])
    assert table.loss(False)[0] == pytest.approx(0.0, abs=1e-9)
    assert table.n_defaults[0] == 0
    assert table.deposits_lost[0] == 0.0
    # with no loss anywhere the histogram spans 0 to 1% of GGP, its one
    # scenario in the first bin
    assert table.loss(False).max() == 0.0
    report.write_histogram_csv(tmp_path / "histogram.csv", table, net)
    bins = read_csv(tmp_path / "histogram.csv")
    assert float(bins[-1]["bin_right_pct_ggp"]) == 1.0
    assert [b["count_no_insurance"] for b in bins] == ["1"] + ["0"] * (len(bins) - 1)


def test_loss_central_shortfall_passthrough():
    net = central_only_network(obligation=10.0)
    table = account(net, np.array([[4.0, 0.0, 0.0]]))
    assert table.loss(False)[0] == pytest.approx(6.0, rel=1e-12)
    assert table.central_shortfall[0] == pytest.approx(6.0, rel=1e-12)


def test_green_line_benchmark():
    net = gb.build_network()
    config = gb.LossConfig()
    green = gb.green_line_loss(net, config)
    assert green == pytest.approx(515.5, rel=1e-12)
    assert green / net.ggp == pytest.approx(0.0846, abs=5e-5)
    half = gb.LossConfig(bond_recovery=0.5)
    assert gb.green_line_loss(net, half) == pytest.approx(257.75, rel=1e-12)


def test_loss_size_mismatch_rejected():
    net = gb.build_network()
    toy = central_only_network()
    small = clear_tiered_batch(toy, np.zeros((1, 3)))
    with pytest.raises(ValueError, match=r"of 3 banks .* of 17501 banks"):
        gb.ScenarioTable.from_clearing(net, small)
    # a wider result would otherwise be accounted on its first 3 columns
    big = clear_tiered_batch(net, np.zeros((1, net.n_banks)))
    with pytest.raises(ValueError, match=r"of 17501 banks .* of 3 banks"):
        gb.ScenarioTable.from_clearing(toy, big)


def test_zero_row_table_concatenates_with_another():
    net = central_only_network()
    empty = account(net, np.zeros((0, 3)))
    one = account(net, np.array([[4.0, 0.0, 0.0]]))
    assert empty.defaults_by_tier.shape == (0, 3)
    assert_tables_equal(gb.ScenarioTable.concat([empty, one]), one)


def test_deposits_counted_only_without_insurance(tmp_path):
    table = gb.ScenarioTable(
        external_shortfall=np.array([5.0]), central_shortfall=np.array([5.0]),
        deposits_lost=np.array([3.0]), defaults_by_tier=np.array([[1, 0, 1]]),
    )
    assert table.n_defaults.tolist() == [2]
    assert table.loss(False).tolist() == [8.0]
    assert table.loss(True).tolist() == [5.0]
    rows = {}
    for insured in (False, True):
        path = tmp_path / f"losses-{insured}.csv"
        report.write_losses_csv(path, table, gb.LossConfig(deposit_insurance=insured))
        rows[insured] = path.read_text().splitlines()[2]
    # scenario_index, real_economy_loss, insurance_payout, n_defaults, central_shortfall
    assert rows[False] == "0,8,0,2,5"
    assert rows[True] == "0,5,3,2,5"


# --- vectorised accounting against the per-row loop --------------------------

def _blas_pieces(n):
    """(lo, hi) bounds of the ceil(n / 10,000) near-equal consecutive pieces,
    the longer ones first."""
    bounds = [int(piece[0]) for piece in np.array_split(np.arange(n), -(-n // 10_000))]
    return list(zip(bounds, bounds[1:] + [n]))


@pytest.mark.parametrize("n, lengths", [
    (1, [1]), (10_000, [10_000]), (10_001, [5_001, 5_000]), (17_501, [8_751, 8_750]),
    (20_000, [10_000, 10_000]), (25_000, [8_334, 8_333, 8_333]),
])
def test_dot_pieces_follow_openblas_split(n, lengths):
    pieces = risk._dot_pieces(n)
    assert [p.stop - p.start for p in pieces] == lengths
    assert max(lengths) <= risk.DOT_PIECE_MAX
    # consecutive, in order, covering the row
    assert [p.start for p in pieces] == [0] + [p.stop for p in pieces[:-1]]
    assert pieces[-1].stop == n and all(p.step is None for p in pieces)
    assert [(p.start, p.stop) for p in pieces] == _blas_pieces(n)


def _records_from_arrays(indices, network, defaulted, payments, external_paid):
    """The per-row accounting loop the vectorised pass replaced, as the oracle.

    One (index, external, central, deposits, n_defaults, by_tier) tuple per
    row; row r of the arrays is scenario indices[r].  The shortfall is
    derived from the payments, as the full-width Picard loop formed it.  The
    deposits are dotted in the pieces OpenBLAS splits a dot of more than
    10,000 elements into over its threads (`_blas_pieces`), added left to
    right, so the oracle has the same bits at any BLAS thread count.
    """
    shortfall = np.maximum(_TierSystem(network).p_bar_row[None, :] - payments, 0.0)
    deposits = network.deposits_vector()
    pieces = _blas_pieces(network.n_banks)
    slices = [network.tier_slice(t) for t in gb.Tier]
    central = slices[gb.Tier.CENTRAL]
    total_external = network.total_external_obligation()
    return [
        (
            scenario_index,
            float(total_external - external_paid[row]),
            float(shortfall[row, central].sum()),
            float(functools.reduce(operator.add, (
                defaulted[row, lo:hi] @ deposits[lo:hi] for lo, hi in pieces))),
            int(defaulted[row].sum()),
            tuple(int(defaulted[row, sl].sum()) for sl in slices),
        )
        for row, scenario_index in enumerate(indices)
    ]


def assert_table_matches_records(table, records):
    index, external, central, deposits, n_defaults, by_tier = zip(*records)
    assert list(index) == list(range(len(table)))
    assert np.array_equal(table.external_shortfall, external)
    assert np.array_equal(table.central_shortfall, central)
    assert np.array_equal(table.deposits_lost, deposits)
    assert np.array_equal(table.n_defaults, n_defaults)
    assert np.array_equal(table.defaults_by_tier, by_tier)


ORACLE_BAILOUTS = [
    gb.BailoutAllocation(),
    gb.BailoutAllocation(per_massive=1.0, per_big=0.05),
]


@pytest.mark.parametrize("bailout", ORACLE_BAILOUTS, ids=["headline", "bailout"])
@pytest.mark.parametrize("rows", [1, 37])
def test_vectorised_pass_bitwise_equals_row_loop(default_net, bailout, rows):
    net = default_net
    shock = gb.ShockParams()
    config = gb.LossConfig()
    idx = range(rows)
    losses = gb.shocks.sample_loss_matrix(shock, net.n_banks, SEED, idx)
    assets = _base_assets(net, shock, losses, config)
    cleared = clear_tiered_batch(net, assets + _injection_vector(net, bailout)[None, :])
    assert cleared.defaulted.any() and not cleared.defaulted.all()
    table = gb.ScenarioTable.from_clearing(net, cleared)
    assert_table_matches_records(table, _records_from_arrays(
        idx, net, cleared.defaulted, cleared.payments, cleared.external_paid
    ))


@pytest.mark.parametrize("bailout", ORACLE_BAILOUTS, ids=["headline", "bailout"])
def test_chunked_table_bitwise_equals_row_loop_with_ragged_chunk(
        default_net, monkeypatch, bailout):
    net = default_net
    shock = gb.ShockParams()
    config = gb.LossConfig()
    # the assets `simulate` draws: +inf for the banks that surely pay in full
    drawn = risk._draw_base(net, shock, config, SEED, range(80),
                            risk._loss_floor(net, shock, config, bailout))
    drawn += _injection_vector(net, bailout)
    calls = record_calls(monkeypatch, risk, "clear_tiered_batch")
    # chunks of 37, 37 and a ragged 6, run in order on one thread
    monkeypatch.setattr(risk, "DEFAULT_BATCH_SIZE", 37)
    table = gb.simulate_records(net, shock, bailout, config, 80, SEED, 1)
    # `simulate` clears a block of rows per call, worst first: find its
    # scenarios by their assets; a block cleared again replaces its records
    records = {}
    for call in calls:
        cleared = call.result
        indices = [int(np.flatnonzero((drawn == row).all(axis=1))[0])
                   for row in call.arguments["scenario_assets"]]
        for record in _records_from_arrays(indices, net, cleared.defaulted,
                                           cleared.payments, cleared.external_paid):
            records[record[0]] = record
    assert len(records) == len(table) == 80
    assert_table_matches_records(table, [records[i] for i in sorted(records)])


def byte_boundary_network(counts):
    """A tiered network whose banks each hold the same position whatever the
    counts; under the default shocks at SEED its last bank defaults in 6-20%
    of the first 80 scenarios."""
    _, n_massive, n_big = counts
    profiles = (
        gb.LiabilityProfile(owed_to_massive=2.0 * n_massive, owed_to_big=0.5 * n_big,
                            owed_external=6.0),
        gb.LiabilityProfile(owed_to_central=3.0, owed_to_big=0.5 * n_big / n_massive),
        gb.LiabilityProfile(owed_to_central=1.0, owed_to_massive=0.3),
    )
    external = (9.0, 2.0, 0.6)
    sheets = tuple(
        gb.BalanceSheet(external[t], 0.5 if t is gb.Tier.CENTRAL else 0.0, 1.0 + t)
        for t in gb.Tier
    )
    return gb.GalacticNetwork(counts, profiles, sheets, ggp=100.0, outstanding_debt=1.0)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("counts", [(1, 1, 1), (1, 2, 5), (1, 2, 6), (1, 5, 40)],
                         ids=["3-banks", "8-banks", "9-banks", "46-banks"])
def test_small_network_accounting_equals_row_loop_across_chunks_and_threads(monkeypatch, counts,
                                                                            threads):
    # small networks, 3 to 46 banks, whose last bank defaults in some rows:
    # each row's defaults and lost deposits count exactly its own banks
    net = byte_boundary_network(counts)
    shock = gb.ShockParams()
    config = gb.LossConfig()
    bailout = gb.BailoutAllocation()
    records, last_bank = [], []
    # chunks of 37, 37 and a ragged 6, each cleared whole as the oracle
    monkeypatch.setattr(risk, "DEFAULT_BATCH_SIZE", 37)
    floor = risk._loss_floor(net, shock, config, bailout)
    for idx in risk._chunks(80):
        assets = risk._draw_base(net, shock, config, SEED, idx, floor)
        cleared = clear_tiered_batch(net, assets)
        records += _records_from_arrays(idx, net, cleared.defaulted, cleared.payments,
                                        cleared.external_paid)
        last_bank += cleared.defaulted[:, -1].tolist()
    assert any(last_bank) and not all(last_bank)
    table = gb.simulate_records(net, shock, bailout, config, 80, SEED, threads)
    assert_table_matches_records(table, records)
    # as `from_tier_sums` gives it, so `ScenarioTable.concat` never mixes dtypes
    assert table.defaults_by_tier.dtype == np.int64


# --- risk statistics --------------------------------------------------------

def test_statistics_examples():
    losses = np.array([0.2 * k for k in range(1, 11)])
    assert gb.expected_loss(losses) == pytest.approx(1.1, rel=1e-12)
    assert gb.average_var(losses, 0.10) == pytest.approx(2.0, rel=1e-12)
    constant = np.full(8, 0.7)
    assert gb.expected_loss(constant) == pytest.approx(0.7)
    assert gb.average_var(constant, 0.25) == pytest.approx(0.7)


def test_exceedance_boundary_semantics():
    losses = np.array([1.0] * 18 + [5.0] * 2)
    assert gb.exceedance_probability(losses, 2.0) == pytest.approx(0.10)
    net = central_only_network()
    config = gb.LossConfig(threshold_fraction=0.02, confidence=0.10)
    threshold = gb.loss_threshold(net, config)
    assert threshold == pytest.approx(2.0)
    # exactly 10% exceedance fails the strict "less than" VaR requirement
    assert not gb.criterion_satisfied(losses, gb.Criterion.VAR, threshold, config.confidence)


def test_criterion_satisfied_examples():
    threshold, confidence = 10.0, 0.10
    zeros = np.zeros(20)
    for criterion in gb.Criterion:
        assert gb.criterion_satisfied(zeros, criterion, threshold, confidence)
    heavy = np.full(20, 2.0 * threshold)
    for criterion in gb.Criterion:
        assert not gb.criterion_satisfied(heavy, criterion, threshold, confidence)
    # mean below threshold but a fat worst decile: expectation passes, AVaR fails
    mixed = np.array([2.0 * threshold / 3] * 9 + [3.0 * threshold])
    assert gb.criterion_satisfied(mixed, gb.Criterion.EXPECTATION, threshold, confidence)
    assert not gb.criterion_satisfied(mixed, gb.Criterion.AVAR, threshold, confidence)


def test_average_var_tie_break_deterministic():
    # row i is scenario i: scenarios 1, 2 and 3 tie at 2.0 ahead of scenario 0
    losses = np.array([1.0, 2.0, 2.0, 2.0])
    assert gb.average_var(losses, 0.5) == pytest.approx(2.0)


def test_empty_samples_rejected():
    with pytest.raises(ValueError):
        gb.expected_loss(np.array([]))
    with pytest.raises(ValueError):
        gb.exceedance_probability(np.array([]), 1.0)
    with pytest.raises(ValueError):
        gb.average_var(np.array([]), 0.1)
    for confidence in (0.0, 1.0):
        with pytest.raises(ValueError, match="confidence"):
            gb.average_var(np.array([1.0]), confidence)
    with pytest.raises(ValueError):
        gb.criterion_satisfied(np.array([]), gb.Criterion.EXPECTATION, 1.0, 0.1)
    # nor may a run draw no scenarios
    net = central_only_network()
    with pytest.raises(ValueError, match="n_scenarios"):
        gb.simulate_records(net, gb.ShockParams(), gb.BailoutAllocation(), gb.LossConfig(), 0,
                            SEED)
    with pytest.raises(ValueError, match="n_scenarios"):
        _AllocationEvaluator(net, gb.ShockParams(), gb.LossConfig(), 0, SEED, 1)


# --- Monte Carlo ------------------------------------------------------------

@pytest.fixture(scope="module")
def default_net():
    return gb.build_network()


def test_monte_carlo_deterministic(default_net):
    net = default_net
    params = gb.ShockParams()
    config = gb.LossConfig()
    a = gb.simulate_records(net, params, gb.BailoutAllocation(), config, 40, SEED)
    b = gb.simulate_records(net, params, gb.BailoutAllocation(), config, 40, SEED)
    assert_tables_equal(a, b)
    assert len(a) == 40
    # row i is scenario i: a table of the first scenarios is a prefix
    head = gb.simulate_records(net, params, gb.BailoutAllocation(), config, 7, SEED)
    assert_tables_equal(head, a.take(np.arange(7)))


def test_monte_carlo_thread_invariance(default_net, monkeypatch):
    net = default_net
    params = gb.ShockParams()
    config = gb.LossConfig()
    # the 60 scenarios in one chunk at the default chunk size
    assert risk.DEFAULT_BATCH_SIZE >= 60
    one_chunk = gb.simulate_records(net, params, gb.BailoutAllocation(), config, 60, SEED)
    # chunks of 20 so that four workers share the 60 scenarios, even on a
    # box with fewer cores than that
    monkeypatch.setattr(risk, "_usable_cores", lambda: 4)
    monkeypatch.setattr(risk, "DEFAULT_BATCH_SIZE", 20)
    serial = gb.simulate_records(net, params, gb.BailoutAllocation(), config, 60, SEED, 1)
    threaded = gb.simulate_records(net, params, gb.BailoutAllocation(), config, 60, SEED, 4)
    assert_tables_equal(serial, threaded)
    assert_tables_equal(serial, one_chunk)


def test_huge_bailout_keeps_massive_big_solvent(default_net):
    net = default_net
    params = gb.ShockParams()
    config = gb.LossConfig()
    bailout = gb.BailoutAllocation(per_massive=10.0, per_big=10.0)
    table = gb.simulate_records(net, params, bailout, config, 25, SEED)
    central_deposits = net.sheets[gb.Tier.CENTRAL].deposits
    assert len(table) == 25
    assert (table.defaults_by_tier[:, gb.Tier.MASSIVE] == 0).all()
    assert (table.defaults_by_tier[:, gb.Tier.BIG] == 0).all()
    # only the central bank still falls short: the bond wipeout leaves it
    # unable to cover its outside obligation no matter the bailout
    assert (table.n_defaults == 1).all()
    assert (table.external_shortfall >= 242.5 - 1e-6).all()
    assert table.deposits_lost == pytest.approx(np.full(25, central_deposits), rel=1e-12)
    assert table.loss(True) == pytest.approx(table.external_shortfall, rel=1e-12)


def test_insurance_dominance_per_scenario(default_net):
    net = default_net
    params = gb.ShockParams()
    config = gb.LossConfig()
    table = gb.simulate_records(
        net, params, gb.BailoutAllocation(), config, 50, SEED
    )
    assert len(table) == 50
    assert (table.loss(True) <= table.loss(False) + 1e-12).all()


def test_insured_mean_below_green_line_at_knob_calibration():
    # the green-line ceiling holds once the central bank can cover its
    # outside obligation; at the default calibration its 242.5 Q shortfall
    # floor pushes the insured mean just past the benchmark instead
    params = gb.CalibrationParams(capital_buffer_per_tier=(0.15, 0.05, 0.6))
    net = gb.build_network(params)
    shock = gb.ShockParams()
    config = gb.LossConfig(deposit_insurance=True)
    table = gb.simulate_records(
        net, shock, gb.BailoutAllocation(), config, 400, SEED, n_jobs=2
    )
    losses = table.loss(config.deposit_insurance)
    assert gb.expected_loss(losses) < gb.green_line_loss(net, config)


def test_bailout_never_to_central():
    net = central_only_network()
    injections = _injection_vector(net, gb.BailoutAllocation(per_massive=1.0, per_big=2.0))
    assert injections.tolist() == [0.0, 1.0, 2.0]
    with pytest.raises(ValueError):
        gb.BailoutAllocation(per_massive=-0.5)


@pytest.mark.parametrize("amount", [np.nan, np.inf, -np.inf])
def test_bailout_rejects_non_finite(amount):
    with pytest.raises(ValueError, match="finite"):
        gb.BailoutAllocation(per_massive=amount)
    with pytest.raises(ValueError, match="finite"):
        gb.BailoutAllocation(per_big=amount)


# --- frontier ---------------------------------------------------------------

def test_bisect_min_synthetic():
    pred = lambda x: x >= 3.217
    found = _bisect_min(pred, 0.0, 8.0, 0.001)
    assert found is not None
    assert pred(found)
    assert found - 3.217 <= 0.001
    assert _bisect_min(lambda x: True, 0.0, 8.0, 0.001) == 0.0
    assert _bisect_min(lambda x: False, 0.0, 8.0, 0.001) is None


@pytest.mark.parametrize("resolution,max_calls", [
    # both ends, then one halving of the width 8 per call down to 0.001
    (0.001, 2 + 13),
    # below the float spacing at 0.5: halving until lo and hi are adjacent
    (1e-17, 2 + 64),
])
def test_bisect_min_ends_below_float_spacing(resolution, max_calls):
    calls = []

    def pred(x):
        calls.append(x)
        assert len(calls) <= max_calls, "bisection did not stop"
        return x >= 0.5

    found = _bisect_min(pred, 0.0, 8.0, resolution)
    assert found >= 0.5 and found - 0.5 <= max(resolution, np.spacing(0.5))
    if resolution == 0.001:
        assert len(calls) == max_calls  # the float check stops no step early
    else:
        assert found == 0.5


def test_evaluator_checks_monotone_by_dominance(small_net):
    ev = _AllocationEvaluator(small_net, gb.ShockParams(), gb.LossConfig(), 1, SEED, 1)
    ev.cache[gb.BailoutAllocation(per_massive=0.1)] = np.array([1.0])
    # neither allocation dominates the other: no comparison
    ev._check_monotone(gb.BailoutAllocation(per_big=0.1), np.array([5.0]))
    ev._check_monotone(gb.BailoutAllocation(per_massive=0.2),
                       np.array([1.0 + risk.MONOTONE_SLACK]))
    with pytest.raises(RuntimeError, match="not monotone"):
        ev._check_monotone(gb.BailoutAllocation(per_massive=0.2, per_big=0.1),
                           np.array([1.5]))
    with pytest.raises(RuntimeError, match="not monotone"):
        ev._check_monotone(gb.BailoutAllocation(), np.array([0.5]))


class StubEvaluator:
    """An evaluator with only `satisfied`: the criterion holds from the
    per-massive amount `needed(per_big)` up, never where that is None."""

    def __init__(self, needed):
        self.needed = needed

    def satisfied(self, alloc, criterion):
        needed = self.needed(alloc.per_big)
        return needed is not None and alloc.per_massive >= needed


@pytest.mark.parametrize("needed,message", [
    # the minimum rises by 0.5, far more than the resolution, as per_big grows
    ({0.0: 1.0, 0.01: 1.5}.get, r"frontier not monotone: per_massive rose from 1\.0"),
    ({0.0: 1.0, 0.01: None}.get, r"frontier lost attainability at per_big=0\.01"),
], ids=["minimum-rises", "attainability-lost"])
def test_frontier_that_breaks_monotonicity_raises(needed, message):
    grid = gb.GridSpec(per_big=(0.0, 0.01), per_massive_cap=8.0, resolution=0.001)
    with pytest.raises(RuntimeError, match=message):
        gb.bailout_frontier(StubEvaluator(needed), gb.Criterion.EXPECTATION, grid)


def test_frontier_trivial_threshold(default_net):
    net = default_net
    params = gb.ShockParams()
    config = gb.LossConfig(threshold_fraction=0.9)
    evaluator = _AllocationEvaluator(net, params, config, 60, SEED, 1)
    points = gb.bailout_frontier(evaluator, gb.Criterion.EXPECTATION,
                                 gb.GridSpec(per_big=(0.0, 0.01)))
    assert all(p.attainable and p.per_massive == 0.0 for p in points)
    best = gb.minimal_total_bailout(points, net, gb.Criterion.EXPECTATION)
    assert best.total == 0.0
    assert best.per_big == 0.0


def test_frontier_unattainable_reported(default_net):
    net = default_net
    params = gb.ShockParams()
    # 1% of GGP is unreachable at the default calibration: the central bank
    # can never cover its outside obligation once the bonds are gone
    config = gb.LossConfig(threshold_fraction=0.01)
    evaluator = _AllocationEvaluator(net, params, config, 40, SEED, 1)
    points = gb.bailout_frontier(evaluator, gb.Criterion.EXPECTATION,
                                 gb.GridSpec(per_big=(0.0,), per_massive_cap=0.5))
    assert len(points) == 1
    assert not points[0].attainable
    with pytest.raises(ValueError):
        gb.minimal_total_bailout(points, net, gb.Criterion.EXPECTATION)


def test_frontier_rejects_bad_grid():
    # a bad grid fails when its spec is built, not at the frontier's first bisection
    for per_big, message in (((), "non-empty"), ((0.02, 0.01), "sorted"),
                             ((-0.01, 0.0), "non-negative"),
                             ((0.0, math.nan), "finite"), ((0.0, math.inf), "finite")):
        with pytest.raises(ValueError, match=f"per_big .*{message}"):
            gb.GridSpec(per_big=per_big)
    # the config rejects the non-finite values as it reads them, at the field
    for value in (math.nan, math.inf):
        with pytest.raises(gb.ConfigError, match=r"grid\.per_big: expected"):
            gb.parse_config({"grid": {"per_big": [0.0, value]}})


def test_evaluator_common_random_numbers_monotone(default_net):
    net = default_net
    params = gb.ShockParams()
    config = gb.LossConfig()
    ev = _AllocationEvaluator(net, params, config, 30, SEED, 1)
    small = ev.losses(gb.BailoutAllocation(per_big=0.0))
    large = ev.losses(gb.BailoutAllocation(per_big=0.2))
    assert (large <= small + 1e-9).all()
    mixed = ev.losses(gb.BailoutAllocation(per_massive=1.0, per_big=0.1))
    assert (mixed <= small + 1e-9).all()


def test_minimal_total_tie_breaks_toward_smaller_per_big(default_net):
    points = [
        gb.FrontierPoint(per_big=0.0, per_massive=0.99),
        gb.FrontierPoint(per_big=0.01, per_massive=0.0),
    ]
    net = default_net
    # totals: 175*0.99 = 173.25 both ways; tie resolves to per_big = 0
    assert 175 * 0.99 == pytest.approx(17_325 * 0.01)
    best = gb.minimal_total_bailout(points, net, gb.Criterion.EXPECTATION)
    assert best.per_big == 0.0
    single = [gb.FrontierPoint(per_big=0.5, per_massive=1.0)]
    best = gb.minimal_total_bailout(single, net, gb.Criterion.VAR)
    assert best.per_big == 0.5 and best.per_massive == 1.0


# --- pre-bailout asset cache -------------------------------------------------

SHOCK_VARIANTS = [
    (target, exempt) for target in gb.ShockTarget for exempt in (False, True)
]


def scenario_assets_reference(net, shock, losses, bailout, config):
    """Asset assembly as one expression per shock target, copying the losses."""
    external = net.external_assets_vector()
    bond_value = config.bond_recovery * net.bond_face_vector()
    injections = np.repeat(
        np.array([0.0, bailout.per_massive, bailout.per_big]), net.counts
    )
    applied = losses
    if shock.exempt_central:
        applied = losses.copy()
        applied[:, net.tier_slice(gb.Tier.CENTRAL)] = 0.0
    if shock.applies_to is gb.ShockTarget.ALL_ASSETS:
        base = (1.0 - applied) * (external + bond_value)[None, :]
    else:
        base = (1.0 - applied) * external[None, :] + bond_value[None, :]
    return base + injections[None, :]


@pytest.mark.parametrize("target,exempt", SHOCK_VARIANTS)
def test_base_assets_in_place_matches_reference(default_net, target, exempt):
    net = default_net
    shock = gb.ShockParams(applies_to=target, exempt_central=exempt)
    config = gb.LossConfig(bond_recovery=0.3)
    bailout = gb.BailoutAllocation(per_massive=0.7, per_big=0.03)
    losses = gb.shocks.sample_loss_matrix(shock, net.n_banks, SEED, range(4))
    expected = scenario_assets_reference(net, shock, losses, bailout, config)
    base = _base_assets(net, shock, losses, config)
    assert np.shares_memory(base, losses)
    assert np.array_equal(base + _injection_vector(net, bailout)[None, :], expected)


@pytest.fixture(scope="module")
def small_net():
    return gb.build_network(gb.CalibrationParams(
        tier_counts=(1, 5, 40), capital_buffer_per_tier=(0.15, 0.05, 0.5),
    ))


CACHE_SCENARIOS = 1_050  # chunks of 500, 500 and a partial 50
CACHE_ALLOCATIONS = [
    gb.BailoutAllocation(),
    gb.BailoutAllocation(per_big=0.05),
    gb.BailoutAllocation(per_big=0.2),
    gb.BailoutAllocation(per_massive=2.0, per_big=0.5),
]


def count_shock_draws(monkeypatch) -> list:
    """The indices of each `risk.sample_loss_matrix` call, in call order."""
    return record_calls(monkeypatch, risk, "sample_loss_matrix",
                        lambda call: call.arguments["indices"])


def evaluate_all(net, shock, config, n_jobs=2):
    evaluator = _AllocationEvaluator(net, shock, config, CACHE_SCENARIOS, SEED, n_jobs)
    return evaluator, [evaluator.losses(a) for a in CACHE_ALLOCATIONS]


def draws_per_scenario(calls, n_scenarios) -> np.ndarray:
    """How often each scenario's shocks were drawn, from `count_shock_draws`."""
    assert max(len(c) for c in calls) <= risk.SUB_BLOCK_ROWS
    return np.bincount([i for c in calls for i in c], minlength=n_scenarios)


def kept_chunks(evaluator) -> list[bool]:
    """Whether each chunk is cached: its rows are among `kept`'s leading rows."""
    return [idx.stop <= evaluator.kept.rows for idx in evaluator.chunks]


def expected_draws(evaluator, evaluations) -> np.ndarray:
    """A cached chunk is drawn once; any other once per evaluation."""
    return np.concatenate([
        np.full(len(idx), 1 if kept else evaluations)
        for idx, kept in zip(evaluator.chunks, kept_chunks(evaluator))
    ])


# The evaluator's fictitious-default losses against the Picard sweep of
# `simulate_records`, in Q.  The sweep stops once an iteration moves no
# payment by more than tolerance * max obligation (2.5e-6 Q on this
# network); the worst difference measured over the four shock variants
# and four allocations below is 2.2e-10 Q.
SOLVER_LOSS_BOUND = 1e-8


@pytest.mark.parametrize("target,exempt", SHOCK_VARIANTS)
def test_evaluator_draws_each_chunk_once(small_net, monkeypatch, target, exempt):
    net = small_net
    shock = gb.ShockParams(applies_to=target, exempt_central=exempt)
    config = gb.LossConfig(bond_recovery=0.2)
    calls = count_shock_draws(monkeypatch)
    evaluator, vectors = evaluate_all(net, shock, config)
    assert (draws_per_scenario(calls, CACHE_SCENARIOS) == 1).all()
    assert all(kept_chunks(evaluator)) and evaluator.kept.rows == CACHE_SCENARIOS
    assert len({float(v.mean()) for v in vectors}) == len(vectors)
    for alloc, vec in zip(CACHE_ALLOCATIONS, vectors):
        table = gb.simulate_records(net, shock, alloc, config, CACHE_SCENARIOS, SEED)
        assert np.abs(vec - table.loss(config.deposit_insurance)).max() <= SOLVER_LOSS_BOUND
        assert np.array_equal(evaluator.table(alloc).defaults_by_tier, table.defaults_by_tier)


def chunk_bytes(net, shock, config, n_scenarios=CACHE_SCENARIOS) -> list[int]:
    """Bytes each chunk keeps."""
    evaluator = _AllocationEvaluator(net, shock, config, n_scenarios, SEED, 1)
    return [evaluator._build(pos).nbytes for pos in range(len(evaluator.chunks))]


@pytest.mark.parametrize("cached_chunks", [0, 1, 2])
def test_evaluator_redraws_beyond_cache_budget(small_net, monkeypatch, cached_chunks):
    net = small_net
    shock = gb.ShockParams(exempt_central=True)
    config = gb.LossConfig()
    _, cached = evaluate_all(net, shock, config)
    sizes = chunk_bytes(net, shock, config)
    # the last, partial chunk holds less than either full one
    assert sizes[2] < min(sizes[:2])
    budget = sum(sizes[:cached_chunks])
    monkeypatch.setattr(risk, "BASE_CACHE_BYTES", budget)
    monkeypatch.setattr(risk, "_usable_cores", lambda: 2)
    for n_jobs in (1, 2):
        with pytest.MonkeyPatch.context() as patch:
            calls = count_shock_draws(patch)
            evaluator, vectors = evaluate_all(net, shock, config, n_jobs=n_jobs)
        # the chunks are cached in order, whatever the thread count, and
        # `kept` holds just their rows and bytes
        assert kept_chunks(evaluator) == [pos < cached_chunks for pos in range(3)]
        assert evaluator.kept.nbytes == budget
        assert evaluator.kept.rows == sum(len(idx) for idx in evaluator.chunks[:cached_chunks])
        assert np.array_equal(draws_per_scenario(calls, CACHE_SCENARIOS),
                              expected_draws(evaluator, len(CACHE_ALLOCATIONS)))
        # cached and redrawn chunks give the same bits
        for a, b in zip(cached, vectors):
            assert np.array_equal(a, b)


def test_evaluator_cache_stays_within_budget(small_net, monkeypatch):
    net = small_net
    shock, config = gb.ShockParams(), gb.LossConfig()
    sizes = chunk_bytes(net, shock, config)
    # one byte short of the first two chunks: the second does not fit and
    # ends the cache, so the smaller last chunk stays out too
    budget = sizes[0] + sizes[1] - 1
    monkeypatch.setattr(risk, "BASE_CACHE_BYTES", budget)
    evaluator, _ = evaluate_all(net, shock, config, n_jobs=1)
    assert kept_chunks(evaluator) == [True, False, False]
    # `kept` is what the budget counts: it holds the cached chunk's assets
    # and layout, and nothing more
    assert evaluator.kept.nbytes == sizes[0] <= budget
    assert evaluator.kept.values.size == evaluator.kept.lengths.sum()


# bytes a first evaluation holds beyond `kept`, its chunks in flight and the
# tables it returns: a 16-row draw buffer of `small_net`'s 46 banks (5.9 KB),
# the pool, a chunk's solve and small temporaries
FILL_SLACK = 48 * 1024


def table_bytes(table) -> int:
    return sum(getattr(table, column.name).nbytes for column in fields(gb.ScenarioTable))


def test_evaluator_fill_holds_one_pool_width_above_the_cache(small_net, monkeypatch):
    # every chunk cached: the first evaluation solves each chunk, copies it
    # into `kept` and frees it before the next pool width is built, so it
    # never holds the cache twice.  Besides `kept` it holds the per-chunk
    # tables and, once they are joined, the table it returns (measured peak
    # 0.97 MB at widths 1 and 2; 3.0 MB when the whole cache was solved in
    # one call after a separate fill pass)
    monkeypatch.setattr(risk, "_usable_cores", lambda: 2)
    shock, config = gb.ShockParams(), gb.LossConfig()
    sizes = chunk_bytes(small_net, shock, config, 4_000)
    for width in (1, 2):
        evaluator = _AllocationEvaluator(small_net, shock, config, 4_000, SEED, width)
        table, held, peak = traced_memory(lambda: evaluator.table(gb.BailoutAllocation()))
        kept = evaluator.kept.nbytes
        assert kept == sum(sizes)
        assert len(table) == 4_000
        returned = table_bytes(table)  # the per-chunk tables take as many bytes
        assert held <= kept + returned + FILL_SLACK
        assert peak <= kept + 2 * returned + width * (max(sizes) + FILL_SLACK)
        assert kept + width * (max(sizes) + FILL_SLACK) < 2 * kept


@pytest.mark.parametrize("cached_chunks", [0, 1, 2, 3])
def test_evaluator_first_evaluation_keeps_the_bits_of_later_ones(small_net, monkeypatch,
                                                                 cached_chunks):
    # the first evaluation solves each chunk as it is built; a later one
    # solves `kept` in one call and rebuilds and solves each chunk after the
    # cut on the pool: both give every column the same bits
    shock, config = gb.ShockParams(), gb.LossConfig(bond_recovery=0.2)
    sizes = chunk_bytes(small_net, shock, config)
    monkeypatch.setattr(risk, "BASE_CACHE_BYTES", sum(sizes[:cached_chunks]))
    monkeypatch.setattr(risk, "_usable_cores", lambda: 2)
    for n_jobs in (1, 2):
        for alloc in CACHE_ALLOCATIONS:
            evaluator = _AllocationEvaluator(small_net, shock, config, CACHE_SCENARIOS, SEED,
                                             n_jobs)
            first = evaluator.table(alloc)
            assert kept_chunks(evaluator) == [pos < cached_chunks for pos in range(3)]
            later = evaluator.table(alloc)
            assert len(first) == CACHE_SCENARIOS
            assert_tables_equal(first, later)


def test_evaluator_cache_cap_on_calibrated_network(default_net):
    # A full sort holds 140,008 bytes per scenario (17,501 assets): 7,500
    # scenarios in 1 GiB.  A chunk keeps each tier's defaulting banks at zero
    # bailout, plus one, and 48 bytes of starts and lengths per scenario.
    # At the default calibration about 82% of big banks default (113,655
    # bytes per scenario measured here: 9,400 scenarios fit); at the
    # acceptance calibration about 1% do (1,654 bytes: 20 chunks, 10,000
    # scenarios, take 16 MiB, under 2% of the budget).
    for net, shock, low, high in [
        (default_net, gb.ShockParams(), 100_000, 130_000),
        (gb.build_network(ACCEPTANCE.calibration), ACCEPTANCE.shock, 1_000, 2_500),
    ]:
        evaluator = _AllocationEvaluator(net, shock, gb.LossConfig(), 500, SEED, 1)
        assert len(evaluator.table(gb.BailoutAllocation())) == 500
        kept = evaluator.kept
        assert kept.rows == 500
        assert low * 500 <= kept.nbytes <= high * 500
    assert 20 * kept.nbytes < 0.02 * risk.BASE_CACHE_BYTES


def largest_draw_prefix_bytes(evaluator) -> int:
    """The largest bytes one draw of the first chunk keeps (`defaulting_prefixes`)."""
    idx, net = evaluator.chunks[0], evaluator.network
    return max(
        defaulting_prefixes(net, risk._draw_base(net, evaluator.shock_params, evaluator.config,
                                                 SEED, idx[lo:lo + risk.SUB_BLOCK_ROWS],
                                                 evaluator.floor)).nbytes
        for lo in range(0, len(idx), risk.SUB_BLOCK_ROWS)
    )


def test_frontier_chunk_build_holds_one_sub_block(default_net):
    # a chunk is drawn into one 16-row buffer, and each draw is sorted,
    # solved and cut to the defaulting prefixes before the next.  Measured
    # peaks: 3.5 MB at the acceptance calibration, and 60.6 MB at the default
    # one, where the chunk keeps 56.8 MB; drawn 32 rows at a time into fresh
    # blocks it held 5.8 and 66.5 MB, and sorted whole, 70 MB more
    for net, shock in [(gb.build_network(ACCEPTANCE.calibration), ACCEPTANCE.shock),
                       (default_net, gb.ShockParams())]:
        evaluator = _AllocationEvaluator(net, shock, gb.LossConfig(), 500, SEED, 1)
        draw = largest_draw_prefix_bytes(evaluator)
        tiers, _, peak = traced_memory(lambda: evaluator._build(0))
        buffer = risk.SUB_BLOCK_ROWS * net.n_banks * 8
        assert peak <= buffer + draw + tiers.nbytes + 2**20


def test_simulate_chunk_holds_no_float_matrix(default_net):
    # a 500-scenario chunk is drawn SUB_BLOCK_ROWS rows at a time (at least a
    # block) and cleared and accounted a block at a time: it holds the drawn
    # rows and two iterate buffers, plus n-wide network vectors (measured
    # 3.9 MB in all; 4.9 MB with the chunk's default flags bit-packed,
    # 7.0 MB with 32-row draws); drawn whole, the assets and the payments
    # took 70 MB each
    net = default_net
    block = clearing._block_rows(net.n_banks)
    for bailout in ORACLE_BAILOUTS:
        gb.simulate_records(net, gb.ShockParams(), bailout, gb.LossConfig(), 8, SEED)
        _, _, peak = traced_memory(lambda: gb.simulate_records(
            net, gb.ShockParams(), bailout, gb.LossConfig(), 500, SEED))
        scratch = (max(risk.SUB_BLOCK_ROWS, block) + 2 * block) * net.n_banks * 8
        assert peak <= scratch + 2 * 2**20


@pytest.mark.parametrize("name", ["headline", "bailout"])
def test_worst_first_clears_no_block_again_at_documented_seed(monkeypatch, tmp_path, name):
    # the worst-shocked block sets each chunk's stop first, so every block is
    # drawn and cleared once.  The benchmark wraps `risk.sample_loss_matrix`
    # and `risk.clear_tiered_batch`: one shocks call per SUB_BLOCK_ROWS rows
    # drawn (a chunk of 500 ends in a 4-row draw) and one clearing call per
    # block, every row once, so its shocks and clearing scenario counts agree
    inputs = simulate_inputs(monkeypatch, tmp_path, f"simulate-{name}")
    scenarios = inputs["n_scenarios"]
    draws = count_shock_draws(monkeypatch)
    clears = record_calls(monkeypatch, risk, "clear_tiered_batch",
                          lambda call: len(call.arguments["scenario_assets"]))
    gb.simulate_records(**inputs)
    sub, block = risk.SUB_BLOCK_ROWS, clearing._block_rows(inputs["network"].n_banks)
    per_chunk = [sub] * (500 // sub) + [500 % sub]
    assert sorted(len(c) for c in draws) == sorted(per_chunk * (scenarios // 500))
    assert clears == [block] * (scenarios // block)
    assert (draws_per_scenario(draws, scenarios) == 1).all()


def test_evaluator_thread_count_keeps_bits(small_net, monkeypatch):
    # eight chunks on up to more workers than cores, switching threads
    # often, with room for the first five in the cache: the cut falls inside
    # a pool width of 2 and of 4, yet the same chunks are cached, every
    # scenario is drawn once if its chunk is cached and once per evaluation
    # if not, and the losses keep their bits
    shock = gb.ShockParams()
    config = gb.LossConfig(bond_recovery=0.2)
    sizes = chunk_bytes(small_net, shock, config, 4_000)
    budget = sum(sizes[:6]) - 1
    vectors, held, draws = {}, {}, {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n_jobs in (1, 2, 4):
            monkeypatch.setattr(risk, "BASE_CACHE_BYTES", budget)
            calls = count_shock_draws(monkeypatch)
            monkeypatch.setattr(risk, "_usable_cores", lambda: 4)  # past the pool's cap
            evaluator = _AllocationEvaluator(small_net, shock, config, 4_000, SEED, n_jobs)
            vectors[n_jobs] = [evaluator.losses(a) for a in CACHE_ALLOCATIONS]
            held[n_jobs] = kept_chunks(evaluator)
            assert evaluator.kept.nbytes == sum(sizes[:5]) <= risk.BASE_CACHE_BYTES
            draws[n_jobs] = draws_per_scenario(calls, 4_000)
            assert np.array_equal(draws[n_jobs],
                                  expected_draws(evaluator, len(CACHE_ALLOCATIONS)))
            monkeypatch.undo()
    finally:
        sys.setswitchinterval(interval)
    for n_jobs in (2, 4):
        assert held[n_jobs] == held[1] == [pos < 5 for pos in range(8)]
        assert np.array_equal(draws[n_jobs], draws[1])
        for one, many in zip(vectors[1], vectors[n_jobs]):
            assert np.array_equal(one, many)


def test_evaluator_builds_on_the_pool_and_solves_cached_chunks_here(small_net,
                                                                   monkeypatch):
    # the first evaluation builds the chunks a pool width at a time and
    # solves each on the calling thread; after it, the cache is solved on the
    # calling thread, and each chunk outside it is built and solved on its
    # pool worker
    shock, config = gb.ShockParams(), gb.LossConfig()
    sizes = chunk_bytes(small_net, shock, config)
    # room for the first chunk only
    monkeypatch.setattr(risk, "BASE_CACHE_BYTES", sizes[0])
    monkeypatch.setattr(risk, "_usable_cores", lambda: 2)
    pools = record_calls(monkeypatch, risk, "ThreadPoolExecutor",
                         lambda call: call.arguments["max_workers"])
    solved = record_calls(monkeypatch, risk, "clear_tier_sums",
                          lambda call: (call.arguments["tiers"].rows, call.main_thread))
    evaluator = _AllocationEvaluator(small_net, shock, config, CACHE_SCENARIOS, SEED, 2)
    for i, alloc in enumerate(CACHE_ALLOCATIONS):
        solved.clear()
        evaluator.losses(alloc)
        if i == 0:  # chunk 1 was built with chunk 0; chunk 2 alone runs inline
            assert solved == [(500, True), (500, True), (50, True)]
        else:
            assert sorted(solved) == [(50, False), (500, False), (500, True)]
    assert kept_chunks(evaluator) == [True, False, False]
    assert pools == [2] * len(CACHE_ALLOCATIONS)
    # once every chunk is cached, an evaluation starts no pool
    monkeypatch.setattr(risk, "BASE_CACHE_BYTES", sum(sizes))
    evaluator = _AllocationEvaluator(small_net, shock, config, CACHE_SCENARIOS, SEED, 2)
    pools.clear()
    for alloc in CACHE_ALLOCATIONS:
        evaluator.losses(alloc)
    assert pools == [2]


# --- banks that surely pay in full skip the copula transform -----------------

ALL_ASSETS = gb.ShockTarget.ALL_ASSETS
# name: calibration, shock, loss config, bailout, whether the draws skip banks
SKIP_CASES = {
    "headline": (gb.CalibrationParams(), gb.ShockParams(), gb.LossConfig(),
                 gb.BailoutAllocation(), False),
    "acceptance": (ACCEPTANCE.calibration, ACCEPTANCE.shock, gb.LossConfig(),
                   gb.BailoutAllocation(), True),
    "bailout": (ACCEPTANCE.calibration, ACCEPTANCE.shock,
                gb.LossConfig(deposit_insurance=True),
                gb.BailoutAllocation(per_massive=1.0, per_big=0.05), True),
    "all-assets": (ACCEPTANCE.calibration, gb.ShockParams(applies_to=ALL_ASSETS),
                   gb.LossConfig(bond_recovery=0.3),
                   gb.BailoutAllocation(per_massive=0.5, per_big=0.02), True),
    # the massive tier's outside assets and recovered bonds are both zero
    "all-assets-no-recovery": (ACCEPTANCE.calibration, gb.ShockParams(applies_to=ALL_ASSETS),
                               gb.LossConfig(), gb.BailoutAllocation(), True),
    "correlation-0": (ACCEPTANCE.calibration, gb.ShockParams(correlation=0.0), gb.LossConfig(),
                      gb.BailoutAllocation(), True),
    "recovery-1": (ACCEPTANCE.calibration, gb.ShockParams(), gb.LossConfig(bond_recovery=1.0),
                   gb.BailoutAllocation(per_big=0.05), True),
    "beta-2-5": (ACCEPTANCE.calibration, gb.ShockParams(beta_a=2.0, beta_b=5.0), gb.LossConfig(),
                 gb.BailoutAllocation(), True),
    # a buffer of -1 leaves the big banks no outside assets
    "no-big-outside-assets": (gb.CalibrationParams(capital_buffer_per_tier=(0.15, 0.05, -1.0)),
                              gb.ShockParams(), gb.LossConfig(), gb.BailoutAllocation(),
                              False),
}


@functools.lru_cache(maxsize=None)
def skip_case_network(name):
    return gb.build_network(SKIP_CASES[name][0])


def no_floor(network, *args):
    """`risk._loss_floor` asking for every loss: the full transform."""
    return np.full(network.n_banks, -np.inf)


@pytest.mark.parametrize("name", list(SKIP_CASES))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40))
def test_skipping_sure_solvent_banks_keeps_every_bit(name, seed, rows):
    _, shock, config, bailout, skips = SKIP_CASES[name]
    net = skip_case_network(name)
    system = _TierSystem(net)
    floor = risk._loss_floor(net, shock, config, bailout)
    # a tier whose loss moves no asset has no floor, so no inf * 0
    exposed = net.external_assets_vector()
    if shock.applies_to is ALL_ASSETS:
        exposed = exposed + config.bond_recovery * net.bond_face_vector()
    assert np.array_equal(np.isneginf(floor), exposed == 0)

    injections = _injection_vector(net, bailout)[None, :]
    full = risk.sample_loss_matrix(shock, net.n_banks, seed, range(rows))
    losses = risk.sample_loss_matrix(shock, net.n_banks, seed, range(rows), floor=floor)
    skipped = np.isneginf(losses)
    assert np.array_equal(losses[~skipped], full[~skipped])
    full_assets = _base_assets(net, shock, full, config) + injections
    assets = risk._draw_base(net, shock, config, seed, range(rows), floor) + injections
    assert not np.isnan(assets).any()
    assert np.array_equal(np.isposinf(assets), skipped)
    # every skipped bank, transformed in full, holds at least what pays in full
    bound = system.p_bar_row * (1.0 + system.self_coef[net.tier_of_bank()])
    assert np.all(full_assets >= bound[None, :], where=skipped)
    if skips:
        assert skipped.sum() > 0.5 * rows * net.counts[gb.Tier.BIG]

    a, b = clear_tiered_batch(net, full_assets), clear_tiered_batch(net, assets)
    for field in ("payments", "defaulted", "external_paid", "iterations", "residuals"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field

    table = gb.simulate_records(net, shock, bailout, config, rows, seed)
    evaluator = _AllocationEvaluator(net, shock, config, rows, seed, 1)
    vectors = [evaluator.losses(alloc) for alloc in CACHE_ALLOCATIONS]
    with mock.patch.object(risk, "_loss_floor", no_floor):
        assert_tables_equal(table, gb.simulate_records(net, shock, bailout, config, rows, seed))
        evaluator = _AllocationEvaluator(net, shock, config, rows, seed, 1)
        for alloc, vec in zip(CACHE_ALLOCATIONS, vectors):
            assert np.array_equal(evaluator.losses(alloc), vec)


# --- both solvers against exact rational clearing ----------------------------

# name: calibration, shock, loss config, allocations, scenario rows
EXACT_CASES = {
    "default": (gb.CalibrationParams(), gb.ShockParams(), gb.LossConfig(),
                [gb.BailoutAllocation()], 64),
    "bailout": (ACCEPTANCE.calibration, ACCEPTANCE.shock,
                gb.LossConfig(deposit_insurance=True),
                [gb.BailoutAllocation(per_massive=1.0, per_big=0.05)], 128),
    "frontier": (ACCEPTANCE.calibration, ACCEPTANCE.shock, gb.LossConfig(),
                 [gb.BailoutAllocation(), gb.BailoutAllocation(per_massive=0.5, per_big=0.01),
                  gb.BailoutAllocation(per_massive=2.0, per_big=0.05)], 128),
}
# (case, solver): the largest loss error allowed, in ulps of the larger of the
# exact loss and the outside obligation (a loss is that obligation less the
# outside payment, plus deposits).  Under twice the worst error, with and
# without insurance, over 200 rows and over each case's own rows at every
# seed of the benchmark's 8-seed block: Picard 926, 17.4 and 58.1 ulps, the
# tier sums 2.21, 1.42 and 1.61, with every default count exact
EXACT_ULPS = {("default", "picard"): 1_800, ("default", "tier sums"): 4,
              ("bailout", "picard"): 34, ("bailout", "tier sums"): 2.8,
              ("frontier", "picard"): 110, ("frontier", "tier sums"): 3.2}


@pytest.mark.parametrize("name", list(EXACT_CASES))
def test_solvers_agree_with_exact_rational_clearing(monkeypatch, name):
    # floor-free draws: every asset finite, so the exact solve sees no +inf
    # stand-in; Picard (`simulate_records`) and the tier sums (the frontier's
    # evaluator) flag the exact default counts, and their losses lie within
    # EXACT_ULPS of the exact loss
    calibration, shock, config, allocations, rows = EXACT_CASES[name]
    net = gb.build_network(calibration)
    seed = 19770525
    monkeypatch.setattr(risk, "_loss_floor", lambda *args: None)
    assets = risk._draw_base(net, shock, config, seed, range(rows), None)
    obligation = Fraction(net.total_external_obligation())
    deposits = [Fraction(net.sheets[t].deposits) for t in gb.Tier]
    evaluator = _AllocationEvaluator(net, shock, config, rows, seed, 1)
    for alloc in allocations:
        exact = [oracles.exact_clearing(row, net.profiles, net.counts,
                                        (0.0, alloc.per_massive, alloc.per_big))
                 for row in assets]
        tables = {"picard": gb.simulate_records(net, shock, alloc, config, rows, seed),
                  "tier sums": evaluator.table(alloc)}
        for solver, table in tables.items():
            assert table.defaults_by_tier.tolist() == [e.defaults for e in exact], solver
            for insured in (False, True):
                for got, e in zip(table.loss(insured).tolist(), exact):
                    lost = 0 if insured else sum(k * d for k, d in zip(e.defaults, deposits))
                    loss = obligation - e.external_paid + lost
                    ulp = Fraction(np.spacing(max(float(obligation), abs(float(loss)))))
                    assert abs(Fraction(got) - loss) <= EXACT_ULPS[name, solver] * ulp, \
                        (solver, alloc, insured)


def test_cli_frontier_csv_same_for_one_and_two_threads(tmp_path):
    config = write_config(tmp_path, {
        "calibration": {"tier_counts": [1, 5, 40],
                        "capital_buffer_per_tier": [0.15, 0.05, 0.5]},
        "shock": {"exempt_central": True},
        "loss": {"threshold_fraction": 0.0003},
        "grid": {"per_big": [0.0, 0.05, 0.2]},
        "n_scenarios": 1_050,
    })
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        code = main(["frontier", "--config", str(config), "--threads", threads,
                     "--out", str(out)])
        runs[threads] = code, [(out / name).read_bytes()
                               for name in ("frontier.csv", "minima.csv")]
    assert runs["1"] == runs["2"]
    # the bisection found interior minima, not only 0 or the cap
    rows = runs["1"][1][0].decode().splitlines()[2:]
    assert any(row.split(",")[2] not in ("0", "", "8") for row in rows)


@pytest.mark.parametrize("n_jobs,n_chunks,cores,workers", [
    (20, 5, 2, 2), (20, 3, 8, 3), (4, 10, 8, 4), (1, 10, 8, None), (20, 10, 1, None),
    (20, 1, 8, None),
])
def test_chunk_pool_bounded_by_chunks_and_cores(monkeypatch, n_jobs, n_chunks, cores,
                                                workers):
    sizes = []

    class InlinePool:
        """Records the pool size asked for and runs the chunks in order."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(risk, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(risk, "_usable_cores", lambda: cores)
    ran = []
    out = risk._run_chunks(lambda pos: ran.append(pos) or -pos, range(n_chunks), n_jobs)
    assert ran == list(range(n_chunks))
    assert out == [-pos for pos in range(n_chunks)]
    assert sizes == ([] if workers is None else [workers])


def test_usable_cores_within_cpu_count():
    assert 1 <= risk._usable_cores() <= (os.cpu_count() or 1)


def test_losses_csv_independent_of_blas_threads(tmp_path):
    # each row's deposits are dotted in pieces no BLAS thread count splits
    # further, so both simulate workloads write their recorded bytes at 1 and
    # 2 OpenBLAS threads, each in a fresh process
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    for name in ("simulate-headline", "simulate-bailout"):
        expected = REFERENCES[name]["1000"][str(workloads.REFERENCE_SEED)]
        for blas_threads in ("1", "2"):
            root = tmp_path / f"{name}-blas-{blas_threads}"
            root.mkdir()
            run = run_workload(name, root, workloads.REFERENCE_SEED, 1_000,
                               env={**env, "OPENBLAS_NUM_THREADS": blas_threads})
            assert run == (expected["exit_code"], expected["sha256"]), (name, blas_threads)


# --- the acceptance frontier's loss vectors ------------------------------------

# sha256 of the 23 loss vectors the acceptance frontier evaluates at the
# documented seed and 1,000 scenarios, in allocation order
FRONTIER_LOSSES_SHA256 = "b0ce1ad2e7803c228f904ef34db0915d5e027924d2a9e5641d9ee0922ef5e162"


def test_acceptance_frontier_loss_vectors_keep_their_bits(monkeypatch, tmp_path):
    # `frontier.csv` records only where each criterion holds, so a change to a
    # loss bit that moves no decision leaves it as it is; this pins the bits
    # `galbank frontier --config configs/acceptance.json` computes
    code, calls = run_acceptance_frontier(monkeypatch, tmp_path / "out", "--scenarios", "1000")
    assert code == 3  # some grid points are unattainable at the cap
    assert [call.arguments["criterion"] for call in calls] == list(gb.Criterion)
    evaluator = calls[0].arguments["evaluator"]
    assert all(call.arguments["evaluator"] is evaluator for call in calls)
    assert len(evaluator.chunks) == 2 and evaluator.n_jobs == 2
    assert len(evaluator.cache) == 23
    digest = hashlib.sha256()
    for alloc in sorted(evaluator.cache, key=lambda a: (a.per_massive, a.per_big)):
        digest.update(np.ascontiguousarray(evaluator.cache[alloc]).tobytes())
    assert digest.hexdigest() == FRONTIER_LOSSES_SHA256


def _traced_pass(tmp_path, name):
    """The benchmark's traced pass (`perfbench/child.py`, run as it is) of
    workload `name` at 1,000 scenarios: its result and its reference entry."""
    workload = workloads.WORKLOADS[name]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(workload.config))
    spec = {
        "src": str(ROOT / "src"),
        "mode": "trace",
        "argv": workload.argv(config_path, tmp_path / "out", workloads.REFERENCE_SEED, 1_000),
        "result": str(tmp_path / "result.json"),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), str(spec_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads((tmp_path / "result.json").read_text())
    references = json.loads((ROOT / "perfbench" / "references.json").read_text())
    return result, references[name]["1000"][str(workloads.REFERENCE_SEED)]


def test_benchmark_tracer_runs_the_frontier(tmp_path):
    # the traced pass wraps names of `galbank.cli` and `galbank.risk`; a
    # rename or a call path that bypasses them leaves its per-layer figures
    # silently empty
    result, expected = _traced_pass(tmp_path, "frontier-acceptance")
    # 3: some grid points are unattainable at the cap
    assert result["exit_code"] == expected["exit_code"] == 3
    assert result["layers"]["shocks.scenarios"][0] == 1_000
    assert any(name == "risk.frontier.losses" for name, *_ in result["spans"])


def test_benchmark_tracer_runs_simulate_bailout(tmp_path):
    # the traced pass on the bailout workload: every scenario is drawn through
    # `risk.sample_loss_matrix` and cleared through `risk.clear_tiered_batch`
    result, expected = _traced_pass(tmp_path, "simulate-bailout")
    assert result["exit_code"] == expected["exit_code"] == 0
    layers = result["layers"]
    assert layers["shocks.scenarios"][0] == layers["clearing.scenarios"][0] == 1_000
