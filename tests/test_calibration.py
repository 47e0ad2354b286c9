from fractions import Fraction

import pytest

import galbank as gb
from galbank.calibration import (
    DS1_DIAMETER_KM,
    DS1_STEEL_COST,
    DS2_DIAMETER_KM,
    MANHATTAN_EXPENDITURES,
    US_GDP,
)

# cube-law oracle computed in exact rational arithmetic
DS2_STEEL_EXACT = float(Fraction(852, 1000) * Fraction(900, 140) ** 3)
# sum-of-table oracle, millions over thousands of billions
MANHATTAN_FRACTION_EXACT = float(Fraction(21914, 10) / (Fraction(10566, 10) * 1000))


def test_steel_cost_scaled():
    steel = gb.steel_cost_scaled(DS1_STEEL_COST, DS1_DIAMETER_KM, DS2_DIAMETER_KM)
    assert steel == pytest.approx(DS2_STEEL_EXACT, rel=1e-12)
    assert round(steel) == 226
    assert gb.steel_cost_scaled(3.7, 55.0, 55.0) == pytest.approx(3.7, rel=1e-12)
    assert gb.steel_cost_scaled(1.0, 1.0, 2.0) == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(ValueError):
        gb.steel_cost_scaled(1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        gb.steel_cost_scaled(1.0, 1.0, -2.0)


def test_manhattan_gdp_fraction_table():
    frac = gb.manhattan_gdp_fraction()
    assert frac == pytest.approx(MANHATTAN_FRACTION_EXACT, rel=1e-12)
    assert round(frac * 100, 2) == 0.21


def test_manhattan_gdp_fraction_single_year():
    frac = gb.manhattan_gdp_fraction(
        expenditures=((1942, 16.1),), gdps=((1942, 182.5),)
    )
    assert frac == pytest.approx(16.1 / 182_500.0, rel=1e-12)
    assert round(frac * 100, 2) == 0.01


def test_manhattan_gdp_fraction_degenerate():
    zero = tuple((y, 0.0) for y, _ in MANHATTAN_EXPENDITURES)
    assert gb.manhattan_gdp_fraction(expenditures=zero) == 0.0
    with pytest.raises(ValueError):
        gb.manhattan_gdp_fraction(expenditures=MANHATTAN_EXPENDITURES[:-1], gdps=US_GDP)


def test_ggp_from_project():
    total, annual = gb.ggp_from_project(193.0, 0.0021, 20)
    assert total == pytest.approx(193.0 / 0.0021, rel=1e-12)
    assert annual == pytest.approx(193.0 / 0.0021 / 20, rel=1e-12)
    # quoted round numbers are within half a percent of the exact quotient
    assert abs(total - 92_000.0) / 92_000.0 < 0.005
    assert abs(annual - 4_600.0) / 4_600.0 < 0.005
    assert gb.ggp_from_project(7.0, 1.0, 1) == (7.0, 7.0)
    assert gb.ggp_from_project(0.0, 0.0021, 20) == (0.0, 0.0)
    with pytest.raises(ValueError):
        gb.ggp_from_project(193.0, 0.0, 20)


def test_ggp_with_growth():
    assert gb.ggp_with_growth(100.0, 0.0, 10) == pytest.approx(100.0)
    assert gb.ggp_with_growth(100.0, 0.02, 1) == pytest.approx(102.0)


def test_outstanding_debt():
    assert gb.outstanding_debt(gb.CalibrationParams()) == pytest.approx(515.5, rel=1e-12)
    paid_off = gb.CalibrationParams(ds1_paid_fraction=1.0, ds2_total_cost=0.0)
    assert gb.outstanding_debt(paid_off) == 0.0
    partial = gb.CalibrationParams(
        ds1_total_cost=100.0, ds1_paid_fraction=0.25, ds2_total_cost=0.0
    )
    assert gb.outstanding_debt(partial) == pytest.approx(75.0, rel=1e-12)


def test_outstanding_debt_linear():
    base = gb.CalibrationParams(ds1_total_cost=100.0, ds2_total_cost=50.0)
    doubled = gb.CalibrationParams(ds1_total_cost=200.0, ds2_total_cost=100.0)
    assert gb.outstanding_debt(doubled) == pytest.approx(
        2 * gb.outstanding_debt(base), rel=1e-12
    )


def test_bond_allocation():
    central, per_massive = gb.bond_allocation(515.5, 175)
    assert central == pytest.approx(2.0 * 515.5 / 3.0, rel=1e-12)
    assert central == pytest.approx(343.667, abs=5e-4)
    assert per_massive == pytest.approx(515.5 / 525.0, rel=1e-12)
    assert per_massive == pytest.approx(0.98190, abs=5e-6)
    assert gb.bond_allocation(0.0, 175) == (0.0, 0.0)
    assert gb.bond_allocation(3.0, 1) == (2.0, 1.0)
    with pytest.raises(gb.DegenerateNetworkError):
        gb.bond_allocation(1.0, 0)


def test_build_network_defaults():
    net = gb.build_network()
    assert net.n_banks == 17_501
    assert net.counts == (1, 175, 17_325)
    assert gb.total_obligation(net.profiles[gb.Tier.MASSIVE]) == pytest.approx(3.833)
    assert gb.total_obligation(net.profiles[gb.Tier.BIG]) == pytest.approx(0.572)
    assert net.profiles[gb.Tier.CENTRAL].owed_external == 2500.0
    assert net.sheets[gb.Tier.CENTRAL].bond_holdings_face == pytest.approx(
        2.0 * 515.5 / 3.0, rel=1e-12
    )
    assert net.sheets[gb.Tier.BIG].bond_holdings_face == 0.0
    assert net.outstanding_debt == pytest.approx(515.5)
    assert net.ggp == 6090.0


def test_build_network_residual_rule():
    net = gb.build_network()
    # claims plus bonds already exceed obligations for central and massive
    assert net.sheets[gb.Tier.CENTRAL].external_assets == 0.0
    assert net.sheets[gb.Tier.MASSIVE].external_assets == 0.0
    big = net.sheets[gb.Tier.BIG]
    expected = 1.05 * 0.572 - (175 * 0.5 / 17_325 + 0.002)
    assert big.external_assets == pytest.approx(expected, rel=1e-12)
    # deposits follow the quarter-of-assets rule on every sheet
    for t in gb.Tier:
        sheet = net.sheets[t]
        assert sheet.deposits == pytest.approx(sheet.total_assets / 4.0, rel=1e-12)


def test_build_network_zero_buffer_full_coverage():
    params = gb.CalibrationParams(capital_buffer_per_tier=(0.0, 0.0, 0.0))
    net = gb.build_network(params)
    for t in gb.Tier:
        sheet = net.sheets[t]
        assert sheet.total_assets >= gb.total_obligation(net.profiles[t]) - 1e-12
    big = net.sheets[gb.Tier.BIG]
    assert big.total_assets == pytest.approx(0.572, rel=1e-12)


def test_build_network_deterministic():
    assert gb.build_network() == gb.build_network()
    custom = gb.CalibrationParams(capital_buffer_per_tier=(0.1, 0.2, 0.3))
    assert gb.build_network(custom) == gb.build_network(custom)


def test_params_validation():
    with pytest.raises(ValueError):
        gb.CalibrationParams(ds1_paid_fraction=1.5)
    with pytest.raises(ValueError):
        gb.CalibrationParams(ds2_total_cost=-1.0)
    with pytest.raises(gb.DegenerateNetworkError):
        gb.CalibrationParams(tier_counts=(1, 0, 5))
