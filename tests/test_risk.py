import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import galbank as gb
from galbank import report, risk
from galbank.cli import main
from galbank.clearing import SortedTiers, _TierSystem, clear_tiered_batch
from galbank.risk import _bisect_min, _AllocationEvaluator, _base_assets, _injection_vector

SEED = 20240917
TABLE_COLUMNS = ("external_shortfall", "central_shortfall", "deposits_lost",
                 "defaults_by_tier")


def assert_tables_equal(a, b):
    assert len(a) == len(b)
    for column in TABLE_COLUMNS:
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


def central_only_network(obligation=10.0):
    tiers = (
        gb.BankTier(gb.Tier.CENTRAL, 1),
        gb.BankTier(gb.Tier.MASSIVE, 1),
        gb.BankTier(gb.Tier.BIG, 1),
    )
    profiles = (
        gb.LiabilityProfile(owed_external=obligation),
        gb.LiabilityProfile(),
        gb.LiabilityProfile(),
    )
    sheets = tuple(gb.BalanceSheet(0.0, 0.0, 0.0, 0.0) for _ in range(3))
    return gb.GalacticNetwork(tiers, profiles, sheets, ggp=100.0, outstanding_debt=10.0)


# --- loss accounting --------------------------------------------------------

def account(network, assets):
    return gb.ScenarioTable.from_clearing(network, clear_tiered_batch(network, assets))


def test_loss_zero_when_everyone_pays():
    net = gb.build_network()
    assets = net.external_assets_vector() + net.bond_face_vector()
    table = account(net, assets[None, :])
    assert table.loss(False)[0] == pytest.approx(0.0, abs=1e-9)
    assert table.n_defaults[0] == 0
    assert table.deposits_lost[0] == 0.0


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
    cleared = clear_tiered_batch(toy, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        gb.ScenarioTable.from_clearing(net, cleared)


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

def _records_from_arrays(indices, network, defaulted, payments, external_paid):
    """The per-row accounting loop the vectorised pass replaced, as the oracle.

    One (index, external, central, deposits, n_defaults, by_tier) tuple per
    row; row r of the arrays is scenario indices[r].  The shortfall is
    derived from the payments, as the full-width Picard loop formed it.
    """
    shortfall = np.maximum(_TierSystem(network).p_bar_row[None, :] - payments, 0.0)
    deposits = network.deposits_vector()
    slices = [network.tier_slice(t) for t in gb.Tier]
    central = slices[gb.Tier.CENTRAL]
    total_external = network.total_external_obligation()
    return [
        (
            scenario_index,
            float(total_external - external_paid[row]),
            float(shortfall[row, central].sum()),
            float(defaulted[row] @ deposits),
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
    records = []
    real_clear = risk.clear_tiered_batch

    def clear_and_record(network, assets):
        cleared = real_clear(network, assets)
        start = len(records)
        records.extend(_records_from_arrays(
            range(start, start + assets.shape[0]), network,
            cleared.defaulted, cleared.payments, cleared.external_paid,
        ))
        return cleared

    monkeypatch.setattr(risk, "clear_tiered_batch", clear_and_record)
    # chunks of 37, 37 and a ragged 6, run in order on one thread
    table = gb.simulate_records(net, shock, bailout, config, 80, SEED, 1, 37)
    assert len(records) == len(table) == 80
    assert_table_matches_records(table, records)


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
    with pytest.raises(ValueError):
        gb.criterion_satisfied(np.array([]), gb.Criterion.EXPECTATION, 1.0, 0.1)


def test_criterion_parse():
    assert gb.Criterion.parse("VaR") is gb.Criterion.VAR
    with pytest.raises(ValueError):
        gb.Criterion.parse("sharpe")


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
    for column in TABLE_COLUMNS:
        assert np.array_equal(getattr(head, column), getattr(a, column)[:7]), column


def test_monte_carlo_thread_invariance(default_net, monkeypatch):
    net = default_net
    params = gb.ShockParams()
    config = gb.LossConfig()
    # chunks of 20 so that four workers share the 60 scenarios, even on a
    # box with fewer cores than that
    monkeypatch.setattr(risk, "_usable_cores", lambda: 4)
    serial = gb.simulate_records(
        net, params, gb.BailoutAllocation(), config, 60, SEED, 1, 20
    )
    threaded = gb.simulate_records(
        net, params, gb.BailoutAllocation(), config, 60, SEED, 4, 20
    )
    assert_tables_equal(serial, threaded)
    one_chunk = gb.simulate_records(net, params, gb.BailoutAllocation(), config, 60, SEED)
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


def test_frontier_trivial_threshold(default_net):
    net = default_net
    params = gb.ShockParams()
    config = gb.LossConfig(threshold_fraction=0.9)
    evaluator = _AllocationEvaluator(net, params, config, 60, SEED, 1)
    points = gb.bailout_frontier(evaluator, gb.Criterion.EXPECTATION, [0.0, 0.01])
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
    points = gb.bailout_frontier(evaluator, gb.Criterion.EXPECTATION, [0.0],
                                 per_massive_cap=0.5)
    assert len(points) == 1
    assert not points[0].attainable
    with pytest.raises(ValueError):
        gb.minimal_total_bailout(points, net, gb.Criterion.EXPECTATION)


def test_frontier_rejects_bad_grid(default_net):
    evaluator = _AllocationEvaluator(default_net, gb.ShockParams(), gb.LossConfig(),
                                     10, SEED, 1)
    with pytest.raises(ValueError):
        gb.bailout_frontier(evaluator, gb.Criterion.VAR, [])
    with pytest.raises(ValueError):
        gb.bailout_frontier(evaluator, gb.Criterion.VAR, [0.02, 0.01])


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
    calls = []
    real = risk.sample_loss_matrix

    def counted(params, n_banks, seed, indices):
        calls.append(indices)
        return real(params, n_banks, seed, indices)

    monkeypatch.setattr(risk, "sample_loss_matrix", counted)
    return calls


def evaluate_all(net, shock, config):
    evaluator = _AllocationEvaluator(net, shock, config, CACHE_SCENARIOS, SEED, 2)
    return evaluator, [evaluator.losses(a) for a in CACHE_ALLOCATIONS]


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
    assert sorted(c.start for c in calls) == [0, 500, 1000]
    assert all(tiers is not None for tiers in evaluator.tiers)
    assert len({float(v.mean()) for v in vectors}) == len(vectors)
    for alloc, vec in zip(CACHE_ALLOCATIONS, vectors):
        table = gb.simulate_records(net, shock, alloc, config, CACHE_SCENARIOS, SEED)
        assert np.abs(vec - table.loss(config.deposit_insurance)).max() <= SOLVER_LOSS_BOUND
        assert np.array_equal(evaluator.table(alloc).defaults_by_tier, table.defaults_by_tier)


@pytest.mark.parametrize("cached_chunks", [0, 1, 2])
def test_evaluator_redraws_beyond_cache_budget(small_net, monkeypatch, cached_chunks):
    net = small_net
    shock = gb.ShockParams(exempt_central=True)
    config = gb.LossConfig()
    _, cached = evaluate_all(net, shock, config)
    budget = cached_chunks * risk.DEFAULT_BATCH_SIZE * SortedTiers.bytes_per_row(net.n_banks)
    monkeypatch.setattr(risk, "BASE_CACHE_BYTES", budget)
    calls = count_shock_draws(monkeypatch)
    evaluator, vectors = evaluate_all(net, shock, config)
    assert len(evaluator.tiers) == cached_chunks
    assert sum(tiers.nbytes for tiers in evaluator.tiers) == budget
    assert len(calls) == cached_chunks + (3 - cached_chunks) * len(CACHE_ALLOCATIONS)
    # cached and redrawn chunks give the same bits
    for a, b in zip(cached, vectors):
        assert np.array_equal(a, b)


def test_evaluator_cache_stays_within_budget(small_net, monkeypatch):
    net = small_net
    # one byte short of two chunks: only the first chunk is kept
    budget = 2 * risk.DEFAULT_BATCH_SIZE * SortedTiers.bytes_per_row(net.n_banks) - 1
    monkeypatch.setattr(risk, "BASE_CACHE_BYTES", budget)
    evaluator, _ = evaluate_all(net, gb.ShockParams(), gb.LossConfig())
    held = sum(tiers.nbytes for tiers in evaluator.tiers)
    assert len(evaluator.tiers) == 1 and 0 < held <= budget


def test_evaluator_cache_cap_on_calibrated_network(default_net):
    # 140,008 bytes per scenario: 7,500 scenarios (15 chunks) fit in 1 GiB
    evaluator = _AllocationEvaluator(default_net, gb.ShockParams(), gb.LossConfig(),
                                     10_000, SEED, 1)
    row_bytes = SortedTiers.bytes_per_row(default_net.n_banks)
    assert row_bytes == 140_008
    assert len(evaluator.tiers) == 15
    assert 7_500 * row_bytes <= risk.BASE_CACHE_BYTES < 8_000 * row_bytes


def test_evaluator_thread_count_keeps_bits(small_net, monkeypatch):
    # eight chunks on more workers than cores, switching threads often: every
    # chunk is still drawn once and the losses keep their bits
    shock = gb.ShockParams()
    config = gb.LossConfig(bond_recovery=0.2)
    vectors = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n_jobs in (1, 4):
            calls = count_shock_draws(monkeypatch)
            monkeypatch.setattr(risk, "_usable_cores", lambda: 4)  # past the pool's cap
            evaluator = _AllocationEvaluator(small_net, shock, config, 4_000, SEED, n_jobs)
            vectors[n_jobs] = [evaluator.losses(a) for a in CACHE_ALLOCATIONS]
            assert sorted(c.start for c in calls) == list(range(0, 4_000, 500))
            monkeypatch.undo()
    finally:
        sys.setswitchinterval(interval)
    for one, four in zip(vectors[1], vectors[4]):
        assert np.array_equal(one, four)


def test_cli_frontier_csv_same_for_one_and_two_threads(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "calibration": {"tier_counts": [1, 5, 40],
                        "capital_buffer_per_tier": [0.15, 0.05, 0.5]},
        "shock": {"exempt_central": True},
        "loss": {"threshold_fraction": 0.0003},
        "grid": {"per_big": [0.0, 0.05, 0.2]},
        "n_scenarios": 1_050,
    }))
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
    risk._run_chunks(ran.append, n_chunks, n_jobs)
    assert ran == list(range(n_chunks))
    assert sizes == ([] if workers is None else [workers])


def test_usable_cores_within_cpu_count():
    assert 1 <= risk._usable_cores() <= (os.cpu_count() or 1)


def _simulate_losses_csv(tmp_path, blas_threads: str) -> bytes:
    """losses.csv of a 500-scenario headline run in a fresh process."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = str(Path(gb.__file__).resolve().parents[1])
    out = tmp_path / f"blas-{blas_threads}"
    subprocess.run(
        [sys.executable, "-c", "import sys; from galbank.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "simulate", "--scenarios", "500",
         "--seed", "19770525", "--out", str(out)],
        env=env, check=True, capture_output=True, timeout=300,
    )
    return (out / "losses.csv").read_bytes()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two BLAS threads")
@pytest.mark.xfail(strict=True, reason=(
    "from_clearing sums each row's deposits with a BLAS dot over all banks, which "
    "OpenBLAS splits over its threads; the tier-sum accounting of ROADMAP item 2 "
    "removes this"))
def test_losses_csv_independent_of_blas_threads(tmp_path):
    assert _simulate_losses_csv(tmp_path, "1") == _simulate_losses_csv(tmp_path, "2")
