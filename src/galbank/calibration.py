"""The calibrated network, from battle-station costs to balance sheets.

The paper's chain (the DS-1 steel estimate scaled to the larger second
station, the project cost read as a Manhattan-Project share of output)
fixes the constants: the station costs and the gross galactic product
`ggp_endor`; the acceptance suite's C1 redoes that arithmetic.  From them
this module sizes the sovereign debt left at the crash, splits the bonds
between the central bank and the massive tier, and assembles the
17,501-bank network with the footnote liability schedule.  The
calibration has exactly one central bank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .network import (
    BalanceSheet,
    DegenerateNetworkError,
    GalacticNetwork,
    LiabilityProfile,
    Money,
    Tier,
    _claims_face,
    deposits_from_assets,
    total_obligation,
)

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
        # the bond split and the outside obligation are the one central bank's
        if self.tier_counts[Tier.CENTRAL] != 1:
            raise DegenerateNetworkError(
                f"tier_counts gives tier CENTRAL {self.tier_counts[Tier.CENTRAL]} banks; "
                f"the calibration has one central bank"
            )
        for t in Tier:
            # a same-tier debt is split over the tier's other banks
            if PROFILES[t].owed_to(t) > 0 and self.tier_counts[t] < 2:
                raise DegenerateNetworkError(
                    f"tier_counts gives tier {t.name} {self.tier_counts[t]} bank, but its "
                    f"banks owe their own tier; it needs at least 2"
                )
        if len(self.capital_buffer_per_tier) != 3:
            raise ValueError("capital_buffer_per_tier needs one entry per tier")


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
                bond_holdings_face=bonds[t],
                deposits=deposits_from_assets(assets),
            )
        )

    return GalacticNetwork(
        counts=counts,
        profiles=PROFILES,
        sheets=tuple(sheets),
        ggp=params.ggp_endor,
        outstanding_debt=debt,
    )
