import pytest

import galbank as gb


def face_assets(net, tier):
    """A tier's per-bank assets at face value, before shocks, bond defaults and bailouts."""
    sheet = net.sheets[tier]
    return sheet.external_assets + net.claims_face(tier) + sheet.bond_holdings_face


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
        assert net.sheets[t].deposits == pytest.approx(face_assets(net, t) / 4.0, rel=1e-12)


def test_build_network_zero_buffer_full_coverage():
    params = gb.CalibrationParams(capital_buffer_per_tier=(0.0, 0.0, 0.0))
    net = gb.build_network(params)
    for t in gb.Tier:
        assert face_assets(net, t) >= gb.total_obligation(net.profiles[t]) - 1e-12
    assert face_assets(net, gb.Tier.BIG) == pytest.approx(0.572, rel=1e-12)


def test_build_network_deterministic():
    assert gb.build_network() == gb.build_network()
    custom = gb.CalibrationParams(capital_buffer_per_tier=(0.1, 0.2, 0.3))
    assert gb.build_network(custom) == gb.build_network(custom)


def test_params_validation():
    with pytest.raises(ValueError):
        gb.CalibrationParams(ds1_paid_fraction=1.5)
    with pytest.raises(ValueError):
        gb.CalibrationParams(ds2_total_cost=-1.0)
    with pytest.raises(ValueError, match="ggp_endor"):
        gb.CalibrationParams(ggp_endor=0.0)
    with pytest.raises(gb.DegenerateNetworkError):
        gb.CalibrationParams(tier_counts=(1, 0, 5))
    with pytest.raises(gb.DegenerateNetworkError, match="the calibration has one central bank"):
        gb.CalibrationParams(tier_counts=(2, 175, 17_325))
