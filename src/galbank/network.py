"""Domain types for the tiered galactic interbank network.

Monetary amounts are plain floats denominated in QUINTILLION galactic
dollars (Q); 1 Q = 1,000 QUADRILLION and 1,000 Q = 1 SEXTILLION.  The
network has three bank tiers (the central IGBC, "massive" and "big"
banks).  Banks inside a tier are interchangeable: every liability figure
is the total one bank owes to the named tier, split evenly across that
tier's members (excluding itself for same-tier debts).  All types are
immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
import math
import numbers

import numpy as np

Money = float

# fractional-reserve rule: assets are 4x total deposits
ASSETS_PER_DEPOSIT = 4.0


class DegenerateNetworkError(ValueError):
    """Tier layout cannot form a valid network (zero counts, bad splits)."""


class Tier(IntEnum):
    CENTRAL = 0
    MASSIVE = 1
    BIG = 2


def _check_amount(name: str, value: Money) -> None:
    # NaN fails the comparison too; an infinite amount would stall clearing
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class LiabilityProfile:
    """What one bank of a tier owes: totals per creditor tier plus outside debt."""

    owed_to_central: Money = 0.0
    owed_to_massive: Money = 0.0
    owed_to_big: Money = 0.0
    owed_external: Money = 0.0

    def __post_init__(self):
        for name in ("owed_to_central", "owed_to_massive", "owed_to_big", "owed_external"):
            _check_amount(name, getattr(self, name))

    def owed_to(self, tier: Tier) -> Money:
        return (self.owed_to_central, self.owed_to_massive, self.owed_to_big)[tier]


@dataclass(frozen=True)
class BalanceSheet:
    """One bank's own assets and deposits; its interbank claims follow from
    the network's counts and profiles (`GalacticNetwork.claims_face`)."""

    external_assets: Money
    bond_holdings_face: Money
    deposits: Money

    def __post_init__(self):
        for name in ("external_assets", "bond_holdings_face", "deposits"):
            _check_amount(name, getattr(self, name))


def total_obligation(profile: LiabilityProfile) -> Money:
    """Everything one bank owes: the three tier totals plus external debt."""
    return (
        profile.owed_to_central
        + profile.owed_to_massive
        + profile.owed_to_big
        + profile.owed_external
    )


def deposits_from_assets(total_assets: Money) -> Money:
    """Deposits implied by the assets-are-4x-deposits reserve rule."""
    if total_assets < 0:
        raise ValueError("total_assets must be non-negative")
    return total_assets / ASSETS_PER_DEPOSIT


def _claims_face(counts, profiles, tier: Tier) -> Money:
    """Per-bank face claims of `tier` under the even-split convention.

    Cross-tier: tier c pays count_c * owed(c->d) in total, split over count_d
    members.  Same-tier: each of the count_d banks owes owed(d->d) split over
    the other count_d - 1, so every member is owed exactly owed(d->d) back.
    """
    d = tier
    claims = 0.0
    for c in Tier:
        owed = profiles[c].owed_to(d)
        if owed == 0.0:
            continue
        if c == d:
            if counts[d] < 2:
                raise DegenerateNetworkError(
                    f"tier {d.name} has {counts[d]} bank(s) but a same-tier liability"
                )
            claims += owed
        else:
            claims += counts[c] * owed / counts[d]
    return claims


@dataclass(frozen=True)
class GalacticNetwork:
    """The full tiered network: counts, liability profiles, per-tier sheets.

    Banks are indexed 0 .. n_banks-1 with the central bank first, then the
    massive tier, then the big tier; `counts` gives the banks per tier in
    that order.  Sheets are stored once per tier since construction is
    tier-symmetric.
    """

    counts: tuple[int, int, int]
    profiles: tuple[LiabilityProfile, LiabilityProfile, LiabilityProfile]
    sheets: tuple[BalanceSheet, BalanceSheet, BalanceSheet]
    ggp: Money
    outstanding_debt: Money

    def __post_init__(self):
        if not (math.isfinite(self.ggp) and self.ggp > 0):
            raise ValueError(f"ggp must be finite and positive, got {self.ggp}")
        _check_amount("outstanding_debt", self.outstanding_debt)
        for name, kind in (("counts", numbers.Integral), ("profiles", LiabilityProfile),
                           ("sheets", BalanceSheet)):
            given = getattr(self, name)
            if not (isinstance(given, (tuple, list)) and len(given) == len(Tier) and all(
                    isinstance(v, kind) and not isinstance(v, bool) for v in given)):
                raise DegenerateNetworkError(
                    f"{name} must hold one {kind.__name__} per tier, got {given!r}")
            object.__setattr__(self, name, tuple(given))
        for t in Tier:
            if self.counts[t] < 1:
                raise DegenerateNetworkError(
                    f"tier {t.name} needs at least one bank, got {self.counts[t]}"
                )
        for t in (Tier.MASSIVE, Tier.BIG):
            if self.profiles[t].owed_external > 0:
                raise DegenerateNetworkError(
                    f"only the central bank may owe outside the system, {t.name} does"
                )
        for t in Tier:
            self.claims_face(t)  # raises on a same-tier debt in a one-bank tier

    def claims_face(self, tier: Tier) -> Money:
        """Face claims of one bank of `tier` on the others (even split)."""
        return _claims_face(self.counts, self.profiles, tier)

    @property
    def n_banks(self) -> int:
        return sum(self.counts)

    def tier_slice(self, tier: Tier) -> slice:
        counts = self.counts
        start = sum(counts[:tier])
        return slice(start, start + counts[tier])

    # per-bank expansions used by the clearing and risk engines

    def tier_of_bank(self) -> np.ndarray:
        return np.repeat(np.arange(3, dtype=np.int64), self.counts)

    def _per_bank(self, values) -> np.ndarray:
        return np.repeat(np.asarray(values, dtype=float), self.counts)

    def external_assets_vector(self) -> np.ndarray:
        return self._per_bank([self.sheets[t].external_assets for t in Tier])

    def bond_face_vector(self) -> np.ndarray:
        return self._per_bank([self.sheets[t].bond_holdings_face for t in Tier])

    def deposits_vector(self) -> np.ndarray:
        return self._per_bank([self.sheets[t].deposits for t in Tier])

    def total_external_obligation(self) -> Money:
        return sum(self.counts[t] * self.profiles[t].owed_external for t in Tier)

