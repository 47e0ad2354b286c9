import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import galbank as gb
from galbank.network import _claims_face
from oracles import interbank_conservation_gap

# per-bank footnote amounts: independent arithmetic oracle for claim faces
COUNTS = (1, 175, 17_325)
CENTRAL_CLAIMS = 175 * 3.0 + 17_325 * 0.1
MASSIVE_CLAIMS = 0.333 + 17_325 * 0.47 / 175
BIG_CLAIMS = 175 * 0.5 / 17_325 + 0.002


def test_total_obligation_examples():
    massive = gb.LiabilityProfile(3.0, 0.333, 0.5, 0.0)
    big = gb.LiabilityProfile(0.1, 0.47, 0.002, 0.0)
    assert gb.total_obligation(massive) == pytest.approx(3.833, rel=1e-12)
    assert gb.total_obligation(big) == pytest.approx(0.572, rel=1e-12)
    assert gb.total_obligation(gb.LiabilityProfile()) == 0.0


@given(scale=st.floats(0.0, 1e6, allow_nan=False))
def test_total_obligation_homogeneous(scale):
    base = gb.LiabilityProfile(3.0, 0.333, 0.5, 1.25)
    scaled = gb.LiabilityProfile(
        3.0 * scale, 0.333 * scale, 0.5 * scale, 1.25 * scale
    )
    assert gb.total_obligation(scaled) == pytest.approx(
        scale * gb.total_obligation(base), rel=1e-9, abs=1e-12
    )


def test_total_obligation_additive():
    a = gb.LiabilityProfile(1.0, 2.0, 3.0, 4.0)
    b = gb.LiabilityProfile(0.5, 0.25, 0.125, 0.0625)
    combined = gb.LiabilityProfile(1.5, 2.25, 3.125, 4.0625)
    assert gb.total_obligation(combined) == pytest.approx(
        gb.total_obligation(a) + gb.total_obligation(b), rel=1e-12
    )


def test_interbank_claims_face_examples():
    net = gb.build_network()

    claims = net.claims_face
    assert claims(gb.Tier.CENTRAL) == pytest.approx(2257.5, rel=1e-12)
    assert claims(gb.Tier.MASSIVE) == pytest.approx(MASSIVE_CLAIMS, rel=1e-12)
    assert claims(gb.Tier.MASSIVE) == pytest.approx(46.863, rel=1e-9)
    assert claims(gb.Tier.BIG) == pytest.approx(BIG_CLAIMS, rel=1e-12)
    assert claims(gb.Tier.BIG) == pytest.approx(0.0070505, rel=1e-4)


def test_deposits_from_assets():
    assert gb.deposits_from_assets(0.0) == 0.0
    assert gb.deposits_from_assets(4.0) == 1.0
    assert gb.deposits_from_assets(2257.5) == pytest.approx(564.375, rel=1e-12)
    with pytest.raises(ValueError):
        gb.deposits_from_assets(-1.0)


def test_conservation_default_network():
    net = gb.build_network()
    total_claims = sum(
        net.counts[t] * net.claims_face(t) for t in gb.Tier
    )
    total_owed = sum(
        net.counts[t]
        * (gb.total_obligation(net.profiles[t]) - net.profiles[t].owed_external)
        for t in gb.Tier
    )
    assert total_claims == pytest.approx(total_owed, rel=1e-12)
    assert abs(interbank_conservation_gap(net)) < 1e-9


def test_negative_amounts_rejected():
    with pytest.raises(ValueError):
        gb.LiabilityProfile(owed_to_central=-0.1)
    with pytest.raises(ValueError):
        gb.BalanceSheet(-1.0, 0.0, 0.0)


NON_FINITE_OR_NEGATIVE = (math.nan, math.inf, -math.inf, -0.1)


@pytest.mark.parametrize("bad", NON_FINITE_OR_NEGATIVE)
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(gb.LiabilityProfile)])
def test_liability_profile_rejects_bad_amount(field, bad):
    # a NaN obligation used to build a network that clearing spun on for
    # 100,000 iterations before "failed to converge"
    with pytest.raises(ValueError, match=field):
        gb.LiabilityProfile(**{field: bad})


SHEET_FIELDS = [f.name for f in dataclasses.fields(gb.BalanceSheet)]


@pytest.mark.parametrize("bad", NON_FINITE_OR_NEGATIVE)
@pytest.mark.parametrize("field", SHEET_FIELDS)
def test_balance_sheet_rejects_bad_amount(field, bad):
    amounts = dict.fromkeys(SHEET_FIELDS, 0.0)
    with pytest.raises(ValueError, match=field):
        gb.BalanceSheet(**{**amounts, field: bad})


@pytest.mark.parametrize("field, bad", [
    ("ggp", math.nan), ("ggp", math.inf), ("ggp", 0.0), ("ggp", -1.0),
    ("outstanding_debt", math.nan), ("outstanding_debt", math.inf),
    ("outstanding_debt", -1.0),
])
def test_network_rejects_bad_ggp_and_debt(field, bad):
    net = gb.build_network()
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(net, **{field: bad})


def test_zero_tier_count_rejected():
    sheets = tuple(gb.BalanceSheet(0.0, 0.0, 0.0) for _ in range(3))
    with pytest.raises(gb.DegenerateNetworkError, match="tier BIG needs at least one bank"):
        gb.GalacticNetwork((1, 1, 0), (gb.LiabilityProfile(),) * 3, sheets,
                           ggp=1.0, outstanding_debt=0.0)


@pytest.mark.parametrize("field, bad", [
    ("counts", (1, 2)), ("counts", (1, 2, 3, 4)), ("counts", (1, 2.5, 3)),
    ("counts", (1, True, 3)), ("counts", (1, "2", 3)), ("counts", 6),
    ("profiles", (gb.LiabilityProfile(),) * 2), ("profiles", (None,) * 3),
    ("sheets", (gb.BalanceSheet(0.0, 0.0, 0.0),) * 2), ("sheets", (None,) * 3),
])
def test_network_shape_rejected_naming_the_field(field, bad):
    # two profiles or sheets used to die with a bare IndexError, and a
    # fractional count built a network of 6.5 banks
    net = gb.build_network()
    with pytest.raises(gb.DegenerateNetworkError, match=f"^{field} must hold one"):
        dataclasses.replace(net, **{field: bad})


def test_network_counts_accept_any_integer_type():
    net = gb.build_network()
    lists = dataclasses.replace(net, counts=[np.int64(c) for c in net.counts],
                                profiles=list(net.profiles), sheets=list(net.sheets))
    assert lists.counts == net.counts and lists.n_banks == 17_501
    assert isinstance(lists.profiles, tuple) and isinstance(lists.sheets, tuple)


def test_single_bank_tier_self_liability_rejected():
    profiles = (
        gb.LiabilityProfile(owed_external=1.0),
        gb.LiabilityProfile(owed_to_massive=1.0),  # one-bank tier owing itself
        gb.LiabilityProfile(),
    )
    with pytest.raises(gb.DegenerateNetworkError):
        _claims_face((1, 1, 2), profiles, gb.Tier.MASSIVE)


def test_only_central_owes_external():
    profiles = (
        gb.LiabilityProfile(owed_external=1.0),
        gb.LiabilityProfile(owed_external=1.0),
        gb.LiabilityProfile(),
    )
    sheets = tuple(gb.BalanceSheet(0.0, 0.0, 0.0) for _ in range(3))
    with pytest.raises(gb.DegenerateNetworkError):
        gb.GalacticNetwork((1, 2, 2), profiles, sheets, ggp=1.0, outstanding_debt=0.0)


def test_per_bank_vectors_layout():
    net = gb.build_network()
    tiers = net.tier_of_bank()
    assert tiers.shape == (17_501,)
    assert tiers[0] == gb.Tier.CENTRAL
    assert (tiers[1:176] == gb.Tier.MASSIVE).all()
    assert (tiers[176:] == gb.Tier.BIG).all()
    ext = net.external_assets_vector()
    assert ext[0] == net.sheets[gb.Tier.CENTRAL].external_assets
    assert ext[200] == net.sheets[gb.Tier.BIG].external_assets
    assert net.total_external_obligation() == pytest.approx(2500.0)
