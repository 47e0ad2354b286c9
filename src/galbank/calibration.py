"""Calibration chain from battle-station construction costs to the network.

The chain: scale the DS-1 steel estimate to the larger second station,
anchor the project cost to an atomic-bomb-style share of output, back out
gross galactic product, size the leftover sovereign debt, and assemble
the 17,501-bank network with the footnote liability schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .network import (
    BalanceSheet,
    BankTier,
    DegenerateNetworkError,
    GalacticNetwork,
    LiabilityProfile,
    Money,
    Tier,
    _claims_face,
    deposits_from_assets,
    total_obligation,
)

# Manhattan Project expenditures (1945 MILLION $) against US GDP
# (1945 BILLION $), 1942-1946.
MANHATTAN_EXPENDITURES = (
    (1942, 16.1),
    (1943, 344.6),
    (1944, 939.4),
    (1945, 610.3),
    (1946, 281.0),
)
US_GDP = (
    (1942, 182.5),
    (1943, 213.2),
    (1944, 230.3),
    (1945, 228.2),
    (1946, 202.4),
)

DS1_STEEL_COST = 0.852  # Q, at the 140 km diameter estimate
DS1_DIAMETER_KM = 140.0
DS2_DIAMETER_KM = 900.0
DS1_CONSTRUCTION_YEARS = 20

# per-bank liability schedule: what one bank owes in total to each tier
CENTRAL_PROFILE = LiabilityProfile(owed_external=2500.0)
MASSIVE_PROFILE = LiabilityProfile(
    owed_to_central=3.0, owed_to_massive=0.333, owed_to_big=0.5
)
BIG_PROFILE = LiabilityProfile(
    owed_to_central=0.1, owed_to_massive=0.47, owed_to_big=0.002
)
PROFILES = (CENTRAL_PROFILE, MASSIVE_PROFILE, BIG_PROFILE)

DEFAULT_TIER_COUNTS = (1, 175, 17_325)
DEFAULT_CAPITAL_BUFFERS = (0.0, 0.05, 0.05)


@dataclass(frozen=True)
class CalibrationParams:
    """Primitive constants behind the network; defaults reproduce the headline run."""

    ds1_total_cost: Money = 193.0
    ds1_paid_fraction: float = 0.5
    ds2_total_cost: Money = 419.0
    ggp_endor: Money = 6090.0
    tier_counts: tuple[int, int, int] = DEFAULT_TIER_COUNTS
    capital_buffer_per_tier: tuple[float, float, float] = DEFAULT_CAPITAL_BUFFERS
    banking_sector_ggp_fraction: float = 0.60  # narrative statistic only

    def __post_init__(self):
        for name in ("ds1_paid_fraction", "banking_sector_ggp_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("ds1_total_cost", "ds2_total_cost"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.ggp_endor <= 0:
            raise ValueError("ggp_endor must be positive")
        if len(self.tier_counts) != 3 or any(c < 1 for c in self.tier_counts):
            raise DegenerateNetworkError(f"bad tier counts {self.tier_counts}")
        for t in Tier:
            # a same-tier debt is split over the tier's other banks
            if PROFILES[t].owed_to(t) > 0 and self.tier_counts[t] < 2:
                raise DegenerateNetworkError(
                    f"tier_counts gives tier {t.name} {self.tier_counts[t]} bank, but its "
                    f"banks owe their own tier; it needs at least 2"
                )
        if len(self.capital_buffer_per_tier) != 3:
            raise ValueError("capital_buffer_per_tier needs one entry per tier")


def steel_cost_scaled(base_steel_cost: Money, base_diameter_km: float,
                      new_diameter_km: float) -> Money:
    """Steel cost at a new hull diameter, scaling with enclosed volume."""
    if base_diameter_km <= 0 or new_diameter_km <= 0:
        raise ValueError("diameters must be positive")
    return base_steel_cost * (new_diameter_km / base_diameter_km) ** 3


def manhattan_gdp_fraction(expenditures=MANHATTAN_EXPENDITURES, gdps=US_GDP) -> float:
    """Project spend as a fraction of GDP over the same years.

    Expenditures are in millions, GDP in billions, both 1945 dollars.
    """
    exp_years = [y for y, _ in expenditures]
    gdp_years = [y for y, _ in gdps]
    if exp_years != gdp_years:
        raise ValueError(f"year mismatch: expenditures {exp_years} vs GDP {gdp_years}")
    total_gdp = sum(v for _, v in gdps)
    if total_gdp <= 0:
        raise ValueError("total GDP must be positive")
    return sum(v for _, v in expenditures) / (total_gdp * 1000.0)


def ggp_from_project(project_cost: Money, gdp_fraction: float,
                     years: int) -> tuple[Money, Money]:
    """(total, annual average) output implied by a project at a GDP share."""
    if gdp_fraction <= 0:
        raise ValueError("gdp_fraction must be positive")
    if years <= 0:
        raise ValueError("years must be positive")
    total = project_cost / gdp_fraction
    return total, total / years


def ggp_with_growth(base_annual: Money, growth_rate: float, years: float) -> Money:
    """Compound a base annual output forward; sensitivity helper only."""
    if growth_rate <= -1.0:
        raise ValueError("growth_rate must exceed -1")
    return base_annual * (1.0 + growth_rate) ** years


def outstanding_debt(params: CalibrationParams) -> Money:
    """Sovereign debt left at the crash: unpaid DS-1 share plus all of DS-2."""
    return params.ds1_total_cost * (1.0 - params.ds1_paid_fraction) + params.ds2_total_cost


def bond_allocation(outstanding: Money, massive_count: int) -> tuple[Money, Money]:
    """Bond holdings: 2/3 to the central bank, 1/3 spread over the massive tier."""
    if massive_count < 1:
        raise DegenerateNetworkError("massive_count must be positive")
    central = 2.0 * outstanding / 3.0
    per_massive = outstanding / (3.0 * massive_count)
    return central, per_massive


def build_network(params: CalibrationParams | None = None) -> GalacticNetwork:
    """Assemble the calibrated network from the liability schedule.

    External assets follow the residual rule: each bank holds whatever cash
    tops its face assets up to (1 + buffer) times its total obligation, floored
    at zero.  Deposits are total face assets over four.
    """
    params = params or CalibrationParams()
    counts = params.tier_counts
    tiers = tuple(BankTier(t, counts[t]) for t in Tier)

    debt = outstanding_debt(params)
    central_bond, per_massive_bond = bond_allocation(debt, counts[Tier.MASSIVE])
    bonds = (central_bond, per_massive_bond, 0.0)

    sheets = []
    for t in Tier:
        obligation = total_obligation(PROFILES[t])
        claims = _claims_face(counts, PROFILES, t)
        buffer = params.capital_buffer_per_tier[t]
        external = max(0.0, (1.0 + buffer) * obligation - claims - bonds[t])
        assets = external + claims + bonds[t]
        sheets.append(
            BalanceSheet(
                external_assets=external,
                interbank_claims_face=claims,
                bond_holdings_face=bonds[t],
                deposits=deposits_from_assets(assets),
            )
        )

    return GalacticNetwork(
        tiers=tiers,
        profiles=PROFILES,
        sheets=tuple(sheets),
        ggp=params.ggp_endor,
        outstanding_debt=debt,
    )
