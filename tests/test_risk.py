import numpy as np
import pytest

import galbank as gb
from galbank import risk
from galbank.risk import _bisect_min, _AllocationEvaluator, _base_assets, _injection_vector

SEED = 20240917


def make_samples(losses):
    return [
        gb.LossSample(i, float(v), 0.0, 0, 0.0) for i, v in enumerate(losses)
    ]


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

def test_loss_zero_when_everyone_pays():
    net = gb.build_network()
    assets = net.external_assets_vector() + net.bond_face_vector()
    outcome = gb.clearing_compressed(net, assets)
    sample = gb.real_economy_loss(outcome, net, gb.LossConfig(ggp=net.ggp))
    assert sample.real_economy_loss == pytest.approx(0.0, abs=1e-9)
    assert sample.n_defaults == 0
    assert sample.insurance_payout == 0.0


def test_loss_central_shortfall_passthrough():
    net = central_only_network(obligation=10.0)
    outcome = gb.clearing_compressed(net, np.array([4.0, 0.0, 0.0]))
    sample = gb.real_economy_loss(outcome, net, gb.LossConfig(ggp=100.0))
    assert sample.real_economy_loss == pytest.approx(6.0, rel=1e-12)
    assert sample.central_shortfall == pytest.approx(6.0, rel=1e-12)


def test_green_line_benchmark():
    net = gb.build_network()
    config = gb.LossConfig(ggp=net.ggp)
    green = gb.green_line_loss(net, config)
    assert green == pytest.approx(515.5, rel=1e-12)
    assert green / net.ggp == pytest.approx(0.0846, abs=5e-5)
    half = gb.LossConfig(ggp=net.ggp, bond_recovery=0.5)
    assert gb.green_line_loss(net, half) == pytest.approx(257.75, rel=1e-12)


def test_loss_size_mismatch_rejected():
    net = gb.build_network()
    toy = central_only_network()
    outcome = gb.clearing_compressed(toy, np.zeros(3))
    with pytest.raises(ValueError):
        gb.real_economy_loss(outcome, net, gb.LossConfig(ggp=net.ggp))


def test_deposits_counted_only_without_insurance():
    rec = gb.ScenarioRecord(
        scenario_index=0, external_shortfall=5.0, central_shortfall=5.0,
        deposits_lost=3.0, n_defaults=2, n_defaults_by_tier=(1, 0, 1),
    )
    ggp = 100.0
    bare = rec.to_sample(gb.LossConfig(ggp=ggp, deposit_insurance=False))
    insured = rec.to_sample(gb.LossConfig(ggp=ggp, deposit_insurance=True))
    assert bare.real_economy_loss == 8.0
    assert bare.insurance_payout == 0.0
    assert insured.real_economy_loss == 5.0
    assert insured.insurance_payout == 3.0


# --- risk statistics --------------------------------------------------------

def test_statistics_examples():
    samples = make_samples([0.2 * k for k in range(1, 11)])
    assert gb.expected_loss(samples) == pytest.approx(1.1, rel=1e-12)
    assert gb.average_var(samples, 0.10) == pytest.approx(2.0, rel=1e-12)
    constant = make_samples([0.7] * 8)
    assert gb.expected_loss(constant) == pytest.approx(0.7)
    assert gb.average_var(constant, 0.25) == pytest.approx(0.7)


def test_exceedance_boundary_semantics():
    samples = make_samples([1.0] * 18 + [5.0] * 2)
    assert gb.exceedance_probability(samples, 2.0) == pytest.approx(0.10)
    config = gb.LossConfig(ggp=200.0, threshold_fraction=0.01, confidence=0.10)
    # exactly 10% exceedance fails the strict "less than" VaR requirement
    assert config.threshold == pytest.approx(2.0)
    assert not gb.criterion_satisfied(samples, gb.Criterion.VAR, config)


def test_criterion_satisfied_examples():
    ggp = 1000.0
    config = gb.LossConfig(ggp=ggp)
    zeros = make_samples([0.0] * 20)
    for criterion in gb.Criterion:
        assert gb.criterion_satisfied(zeros, criterion, config)
    heavy = make_samples([0.02 * ggp] * 20)
    for criterion in gb.Criterion:
        assert not gb.criterion_satisfied(heavy, criterion, config)
    # mean below threshold but a fat worst decile: expectation passes, AVaR fails
    mixed = make_samples([ggp * 0.02 / 3] * 9 + [0.03 * ggp])
    assert gb.criterion_satisfied(mixed, gb.Criterion.EXPECTATION, config)
    assert not gb.criterion_satisfied(mixed, gb.Criterion.AVAR, config)


def test_average_var_tie_break_deterministic():
    samples = [
        gb.LossSample(3, 2.0, 0.0, 0, 0.0),
        gb.LossSample(1, 2.0, 0.0, 0, 0.0),
        gb.LossSample(0, 1.0, 0.0, 0, 0.0),
        gb.LossSample(2, 2.0, 0.0, 0, 0.0),
    ]
    assert gb.average_var(samples, 0.5) == pytest.approx(2.0)


def test_empty_samples_rejected():
    with pytest.raises(ValueError):
        gb.expected_loss([])
    with pytest.raises(ValueError):
        gb.exceedance_probability([], 1.0)
    with pytest.raises(ValueError):
        gb.average_var([], 0.1)


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
    params = gb.ShockParams(n_banks=net.n_banks)
    config = gb.LossConfig(ggp=net.ggp)
    a = gb.run_monte_carlo(net, params, gb.BailoutAllocation(), config, 40, SEED)
    b = gb.run_monte_carlo(net, params, gb.BailoutAllocation(), config, 40, SEED)
    assert a == b
    assert [s.scenario_index for s in a] == list(range(40))


def test_monte_carlo_thread_invariance(default_net):
    net = default_net
    params = gb.ShockParams(n_banks=net.n_banks)
    config = gb.LossConfig(ggp=net.ggp)
    serial = gb.run_monte_carlo(net, params, gb.BailoutAllocation(), config, 60, SEED)
    threaded = gb.run_monte_carlo(
        net, params, gb.BailoutAllocation(), config, 60, SEED, n_jobs=4
    )
    assert serial == threaded


def test_huge_bailout_keeps_massive_big_solvent(default_net):
    net = default_net
    params = gb.ShockParams(n_banks=net.n_banks)
    config = gb.LossConfig(ggp=net.ggp)
    bailout = gb.BailoutAllocation(per_massive=10.0, per_big=10.0)
    records = gb.simulate_records(net, params, bailout, config, 25, SEED)
    central_deposits = net.sheets[gb.Tier.CENTRAL].deposits
    for rec in records:
        assert rec.n_defaults_by_tier[gb.Tier.MASSIVE] == 0
        assert rec.n_defaults_by_tier[gb.Tier.BIG] == 0
        # only the central bank still falls short: the bond wipeout leaves it
        # unable to cover its outside obligation no matter the bailout
        assert rec.n_defaults == 1
        assert rec.external_shortfall >= 242.5 - 1e-6
        assert rec.deposits_lost == pytest.approx(central_deposits, rel=1e-12)
        assert rec.loss(True) == pytest.approx(rec.external_shortfall, rel=1e-12)


def test_insurance_dominance_per_scenario(default_net):
    net = default_net
    params = gb.ShockParams(n_banks=net.n_banks)
    config = gb.LossConfig(ggp=net.ggp)
    records = gb.simulate_records(
        net, params, gb.BailoutAllocation(), config, 50, SEED
    )
    for rec in records:
        assert rec.loss(True) <= rec.loss(False) + 1e-12


def test_insured_mean_below_green_line_at_knob_calibration():
    # the green-line ceiling holds once the central bank can cover its
    # outside obligation; at the default calibration its 242.5 Q shortfall
    # floor pushes the insured mean just past the benchmark instead
    params = gb.CalibrationParams(capital_buffer_per_tier=(0.15, 0.05, 0.6))
    net = gb.build_network(params)
    shock = gb.ShockParams(n_banks=net.n_banks)
    config = gb.LossConfig(ggp=net.ggp, deposit_insurance=True)
    samples = gb.run_monte_carlo(
        net, shock, gb.BailoutAllocation(), config, 400, SEED, n_jobs=2
    )
    assert gb.expected_loss(samples) < gb.green_line_loss(net, config)


def test_bailout_never_to_central():
    with pytest.raises(ValueError):
        gb.BailoutAllocation(per_central=1.0)
    with pytest.raises(ValueError):
        gb.BailoutAllocation(per_massive=-0.5)


@pytest.mark.parametrize("amount", [np.nan, np.inf, -np.inf])
def test_bailout_rejects_non_finite(amount):
    with pytest.raises(ValueError, match="finite"):
        gb.BailoutAllocation(per_massive=amount)
    with pytest.raises(ValueError, match="finite"):
        gb.BailoutAllocation(per_big=amount)


def test_sheet_bailout_injection_enters_clearing():
    net = central_only_network(obligation=10.0)
    boosted = net.with_bailout_injection((0.0, 0.0, 0.0))
    assert boosted == net
    params = gb.ShockParams(n_banks=3, correlation=0.0)
    config = gb.LossConfig(ggp=100.0)
    plain = gb.simulate_records(
        net, params, gb.BailoutAllocation(), config, 5, SEED
    )
    juiced_net = net.with_bailout_injection((4.0, 0.0, 0.0))
    juiced = gb.simulate_records(
        juiced_net, params, gb.BailoutAllocation(), config, 5, SEED
    )
    for a, b in zip(plain, juiced):
        assert b.external_shortfall == pytest.approx(a.external_shortfall - 4.0, abs=1e-9)


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
    params = gb.ShockParams(n_banks=net.n_banks)
    config = gb.LossConfig(ggp=net.ggp, threshold_fraction=0.9)
    points = gb.bailout_frontier(
        net, params, config, gb.Criterion.EXPECTATION, [0.0, 0.01],
        SEED, n_scenarios=60,
    )
    assert all(p.attainable and p.per_massive == 0.0 for p in points)
    best = gb.minimal_total_bailout(points, net, gb.Criterion.EXPECTATION)
    assert best.total == 0.0
    assert best.per_big == 0.0


def test_frontier_unattainable_reported(default_net):
    net = default_net
    params = gb.ShockParams(n_banks=net.n_banks)
    # 1% of GGP is unreachable at the default calibration: the central bank
    # can never cover its outside obligation once the bonds are gone
    config = gb.LossConfig(ggp=net.ggp, threshold_fraction=0.01)
    points = gb.bailout_frontier(
        net, params, config, gb.Criterion.EXPECTATION, [0.0],
        SEED, n_scenarios=40, per_massive_cap=0.5,
    )
    assert len(points) == 1
    assert not points[0].attainable
    with pytest.raises(ValueError):
        gb.minimal_total_bailout(points, net, gb.Criterion.EXPECTATION)


def test_frontier_rejects_bad_grid(default_net):
    net = default_net
    params = gb.ShockParams(n_banks=net.n_banks)
    config = gb.LossConfig(ggp=net.ggp)
    with pytest.raises(ValueError):
        gb.bailout_frontier(net, params, config, gb.Criterion.VAR, [],
                            SEED, n_scenarios=10)
    with pytest.raises(ValueError):
        gb.bailout_frontier(net, params, config, gb.Criterion.VAR, [0.02, 0.01],
                            SEED, n_scenarios=10)


def test_evaluator_common_random_numbers_monotone(default_net):
    net = default_net
    params = gb.ShockParams(n_banks=net.n_banks)
    config = gb.LossConfig(ggp=net.ggp)
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
    injections = net.bailout_injection_vector() + np.repeat(
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
    shock = gb.ShockParams(n_banks=net.n_banks, applies_to=target, exempt_central=exempt)
    config = gb.LossConfig(ggp=net.ggp, bond_recovery=0.3)
    bailout = gb.BailoutAllocation(per_massive=0.7, per_big=0.03)
    losses = gb.shocks.sample_loss_matrix(shock, SEED, range(4))
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

    def counted(params, seed, indices):
        calls.append(indices)
        return real(params, seed, indices)

    monkeypatch.setattr(risk, "sample_loss_matrix", counted)
    return calls


def evaluate_all(net, shock, config):
    evaluator = _AllocationEvaluator(net, shock, config, CACHE_SCENARIOS, SEED, 2)
    return evaluator, [evaluator.losses(a) for a in CACHE_ALLOCATIONS]


@pytest.mark.parametrize("target,exempt", SHOCK_VARIANTS)
def test_evaluator_draws_each_chunk_once(small_net, monkeypatch, target, exempt):
    net = small_net
    shock = gb.ShockParams(n_banks=net.n_banks, applies_to=target, exempt_central=exempt)
    config = gb.LossConfig(ggp=net.ggp, bond_recovery=0.2)
    calls = count_shock_draws(monkeypatch)
    evaluator, vectors = evaluate_all(net, shock, config)
    assert sorted(c.start for c in calls) == [0, 500, 1000]
    assert all(base is not None for base in evaluator.bases)
    assert len({float(v.mean()) for v in vectors}) == len(vectors)
    for alloc, vec in zip(CACHE_ALLOCATIONS, vectors):
        records = gb.simulate_records(net, shock, alloc, config, CACHE_SCENARIOS, SEED)
        assert np.array_equal(vec, [r.loss(config.deposit_insurance) for r in records])


@pytest.mark.parametrize("cached_chunks", [0, 1])
def test_evaluator_redraws_beyond_cache_budget(small_net, monkeypatch, cached_chunks):
    net = small_net
    shock = gb.ShockParams(n_banks=net.n_banks, exempt_central=True)
    config = gb.LossConfig(ggp=net.ggp)
    _, cached = evaluate_all(net, shock, config)
    budget = cached_chunks * risk.DEFAULT_BATCH_SIZE * net.n_banks * 8
    monkeypatch.setattr(risk, "BASE_CACHE_BYTES", budget)
    calls = count_shock_draws(monkeypatch)
    evaluator, vectors = evaluate_all(net, shock, config)
    assert len(evaluator.bases) == cached_chunks
    assert len(calls) == cached_chunks + (3 - cached_chunks) * len(CACHE_ALLOCATIONS)
    for a, b in zip(cached, vectors):
        assert np.array_equal(a, b)
