"""Loss accounting, Monte Carlo estimation, risk criteria and bailout search.

Real-economy losses are the outside world's shortfall on claims against
the system (the central bank's unpaid external obligation) plus, when
deposit insurance is absent, the full deposits of every defaulted bank.
Bailouts are pre-clearing cash injections to massive/big banks, never to
the central bank, and are not subject to the market shock.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .clearing import ClearingOutcome, clear_tiered_batch
from .network import GalacticNetwork, Money, Tier
from .shocks import ShockParams, ShockTarget, sample_loss_matrix

log = logging.getLogger(__name__)

DEFAULT_BATCH_SIZE = 500
# bytes of pre-bailout asset matrices a frontier evaluator keeps across
# allocations; chunks beyond it are redrawn on every evaluation
BASE_CACHE_BYTES = 2**30
# slack for cross-allocation monotonicity checks; clearing tolerance can
# perturb payments by ~tolerance * max obligation
MONOTONE_SLACK = 1e-3


class Criterion(Enum):
    EXPECTATION = "expectation"
    VAR = "var"
    AVAR = "avar"

    @classmethod
    def parse(cls, name: str) -> "Criterion":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown criterion {name!r}") from None


@dataclass(frozen=True)
class LossConfig:
    ggp: Money
    deposit_insurance: bool = False
    threshold_fraction: float = 0.01
    confidence: float = 0.10
    bond_recovery: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.threshold_fraction < 1.0:
            raise ValueError("threshold_fraction must lie in (0, 1)")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if not 0.0 <= self.bond_recovery <= 1.0:
            raise ValueError("bond_recovery must lie in [0, 1]")
        if self.ggp <= 0:
            raise ValueError("ggp must be positive")

    @property
    def threshold(self) -> Money:
        return self.threshold_fraction * self.ggp


@dataclass(frozen=True)
class BailoutAllocation:
    """Cash per bank of each tier; the central bank never receives funds."""

    per_massive: Money = 0.0
    per_big: Money = 0.0
    per_central: Money = 0.0

    def __post_init__(self):
        if self.per_central != 0.0:
            raise ValueError("the central bank is too big to save: per_central must be 0")
        for amount in (self.per_massive, self.per_big):
            if not (math.isfinite(amount) and amount >= 0):
                raise ValueError(
                    f"bailout amounts must be finite and non-negative, got {amount}"
                )

    def dominates(self, other: "BailoutAllocation") -> bool:
        return self.per_massive >= other.per_massive and self.per_big >= other.per_big

    def total(self, network: GalacticNetwork) -> Money:
        counts = network.counts
        return counts[Tier.MASSIVE] * self.per_massive + counts[Tier.BIG] * self.per_big


@dataclass(frozen=True)
class LossSample:
    scenario_index: int
    real_economy_loss: Money
    insurance_payout: Money
    n_defaults: int
    central_shortfall: Money


@dataclass(frozen=True)
class ScenarioRecord:
    """Full per-scenario accounting; both insurance views derive from it."""

    scenario_index: int
    external_shortfall: Money
    central_shortfall: Money
    deposits_lost: Money
    n_defaults: int
    n_defaults_by_tier: tuple[int, int, int]

    def loss(self, deposit_insurance: bool) -> Money:
        if deposit_insurance:
            return self.external_shortfall
        return self.external_shortfall + self.deposits_lost

    def to_sample(self, config: LossConfig) -> LossSample:
        insured = config.deposit_insurance
        return LossSample(
            scenario_index=self.scenario_index,
            real_economy_loss=self.loss(insured),
            insurance_payout=self.deposits_lost if insured else 0.0,
            n_defaults=self.n_defaults,
            central_shortfall=self.central_shortfall,
        )


def green_line_loss(network: GalacticNetwork, config: LossConfig) -> Money:
    """Benchmark loss with no financial system: the public eats the bond default."""
    return network.outstanding_debt * (1.0 - config.bond_recovery)


def real_economy_loss(outcome: ClearingOutcome, network: GalacticNetwork,
                      config: LossConfig, scenario_index: int = 0) -> LossSample:
    """Loss accounting for a single clearing outcome."""
    if outcome.payments.shape != (network.n_banks,):
        raise ValueError(
            f"outcome has {outcome.payments.shape} payments for {network.n_banks} banks"
        )
    (record,) = _records_from_arrays(
        [scenario_index],
        network,
        outcome.defaulted[None, :],
        outcome.shortfall[None, :],
        np.atleast_1d(outcome.external_paid),
    )
    return record.to_sample(config)


def _records_from_arrays(indices, network, defaulted, shortfall,
                         external_paid) -> list[ScenarioRecord]:
    """One record per row; row r of the arrays is scenario indices[r]."""
    deposits = network.deposits_vector()
    slices = [network.tier_slice(t) for t in Tier]
    central = slices[Tier.CENTRAL]
    total_external = network.total_external_obligation()
    return [
        ScenarioRecord(
            scenario_index=scenario_index,
            external_shortfall=float(total_external - external_paid[row]),
            central_shortfall=float(shortfall[row, central].sum()),
            deposits_lost=float(defaulted[row] @ deposits),
            n_defaults=int(defaulted[row].sum()),
            n_defaults_by_tier=tuple(int(defaulted[row, sl].sum()) for sl in slices),
        )
        for row, scenario_index in enumerate(indices)
    ]


def _base_assets(network: GalacticNetwork, shock_params: ShockParams,
                 losses: np.ndarray, config: LossConfig) -> np.ndarray:
    """Post-shock, post-bond-default cash per bank, before any bailout.

    Works in place: `losses` must be private to the caller and becomes the
    result.
    """
    external = network.external_assets_vector()
    bond_value = config.bond_recovery * network.bond_face_vector()
    if shock_params.exempt_central:
        losses[:, network.tier_slice(Tier.CENTRAL)] = 0.0
    np.subtract(1.0, losses, out=losses)
    if shock_params.applies_to is ShockTarget.ALL_ASSETS:
        losses *= (external + bond_value)[None, :]
    else:
        losses *= external[None, :]
        losses += bond_value[None, :]
    return losses


def _injection_vector(network: GalacticNetwork, bailout: BailoutAllocation) -> np.ndarray:
    """Pre-clearing cash per bank: sheet injections plus the allocation."""
    return network.bailout_injection_vector() + np.repeat(
        np.array([0.0, bailout.per_massive, bailout.per_big]), network.counts
    )


def _chunks(n_scenarios: int, batch_size: int = DEFAULT_BATCH_SIZE) -> list[range]:
    return [
        range(lo, min(lo + batch_size, n_scenarios))
        for lo in range(0, n_scenarios, batch_size)
    ]


def simulate_records(network: GalacticNetwork, shock_params: ShockParams,
                     bailout: BailoutAllocation, config: LossConfig,
                     n_scenarios: int, seed: int, n_jobs: int = 1,
                     batch_size: int = DEFAULT_BATCH_SIZE, *,
                     base_cache: list | None = None) -> list[ScenarioRecord]:
    """Scenario accounting for n_scenarios independent shock draws.

    Scenario i is a pure function of (seed, i) and the inputs; the worker
    count only affects wall time, never results.

    `base_cache` holds one slot per leading chunk for that chunk's
    pre-bailout asset matrix (`_base_assets`).  An empty slot (None) is
    filled on first use and reused on later calls whose arguments differ
    only in `bailout`; chunks past the last slot are drawn afresh.  Each
    chunk writes only its own slot.
    """
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be at least 1")
    if shock_params.n_banks != network.n_banks:
        raise ValueError("shock_params.n_banks does not match the network")

    chunks = _chunks(n_scenarios, batch_size)
    slots = [] if base_cache is None else base_cache
    injections = _injection_vector(network, bailout)[None, :]
    results: list[list[ScenarioRecord]] = [None] * len(chunks)

    def draw_base(idx: range) -> np.ndarray:
        losses = sample_loss_matrix(shock_params, seed, idx)
        return _base_assets(network, shock_params, losses, config)

    def run_chunk(pos: int):
        idx = chunks[pos]
        if pos < len(slots):
            if slots[pos] is None:
                slots[pos] = draw_base(idx)
            assets = slots[pos] + injections
        else:
            assets = draw_base(idx)
            assets += injections  # private to this chunk: no second matrix
        cleared = clear_tiered_batch(network, assets)
        results[pos] = _records_from_arrays(
            idx, network, cleared.defaulted, cleared.shortfall, cleared.external_paid
        )

    if n_jobs > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            list(pool.map(run_chunk, range(len(chunks))))
    else:
        for pos in range(len(chunks)):
            run_chunk(pos)

    return [rec for chunk in results for rec in chunk]


def run_monte_carlo(network: GalacticNetwork, shock_params: ShockParams,
                    bailout: BailoutAllocation, config: LossConfig,
                    n_scenarios: int, seed: int, n_jobs: int = 1) -> list[LossSample]:
    """LossSamples for n_scenarios draws, ordered by scenario_index."""
    records = simulate_records(
        network, shock_params, bailout, config, n_scenarios, seed, n_jobs
    )
    return [rec.to_sample(config) for rec in records]


# --- risk statistics ------------------------------------------------------

def _loss_array(samples) -> tuple[np.ndarray, np.ndarray]:
    if not samples:
        raise ValueError("no loss samples")
    idx = np.array([s.scenario_index for s in samples])
    losses = np.array([s.real_economy_loss for s in samples])
    order = np.argsort(idx, kind="stable")
    return losses[order], idx[order]


def mean_loss(losses: np.ndarray) -> float:
    return float(np.mean(losses))


def exceedance(losses: np.ndarray, threshold: Money) -> float:
    return float(np.mean(losses > threshold))


def average_var_array(losses: np.ndarray, confidence: float,
                      scenario_index: np.ndarray | None = None) -> float:
    """Mean of the worst ceil(confidence * N) losses, ties by scenario index."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    n = losses.size
    k = math.ceil(confidence * n)
    if scenario_index is None:
        scenario_index = np.arange(n)
    order = np.lexsort((scenario_index, -losses))
    return float(losses[order[:k]].mean())


def expected_loss(samples) -> Money:
    losses, _ = _loss_array(samples)
    return mean_loss(losses)


def exceedance_probability(samples, threshold: Money) -> float:
    losses, _ = _loss_array(samples)
    return exceedance(losses, threshold)


def average_var(samples, confidence: float) -> Money:
    losses, idx = _loss_array(samples)
    return average_var_array(losses, confidence, idx)


def _criterion_ok(losses: np.ndarray, criterion: Criterion, config: LossConfig,
                  scenario_index: np.ndarray | None = None) -> bool:
    t = config.threshold
    if criterion is Criterion.EXPECTATION:
        return mean_loss(losses) <= t
    if criterion is Criterion.VAR:
        # strict: exceedance probability must stay below the confidence level
        return exceedance(losses, t) < config.confidence
    return average_var_array(losses, config.confidence, scenario_index) <= t


def criterion_satisfied(samples, criterion: Criterion, config: LossConfig) -> bool:
    losses, idx = _loss_array(samples)
    return _criterion_ok(losses, criterion, config, idx)


# --- bailout frontier -----------------------------------------------------

@dataclass(frozen=True)
class FrontierPoint:
    per_big: Money
    per_massive: Money | None  # None when unattainable at the search cap

    @property
    def attainable(self) -> bool:
        return self.per_massive is not None


@dataclass(frozen=True)
class MinimalBailout:
    criterion: Criterion
    per_massive: Money
    per_big: Money
    total: Money
    ggp_fraction: float


class _AllocationEvaluator:
    """Evaluates losses per allocation under common random numbers.

    Caches loss vectors by allocation and asserts the clearing monotonicity
    property on every comparable pair: componentwise larger bailouts can
    never increase any scenario's loss.

    A bailout only adds a per-tier constant after the shock, so each chunk's
    pre-bailout assets are drawn once and kept for every later allocation,
    for as many leading chunks as fit in BASE_CACHE_BYTES.
    """

    def __init__(self, network, shock_params, config, n_scenarios, seed, n_jobs):
        self.network = network
        self.shock_params = shock_params
        self.config = config
        self.n_scenarios = n_scenarios
        self.seed = seed
        self.n_jobs = n_jobs
        self.cache: dict[tuple[float, float], np.ndarray] = {}
        row_bytes = network.n_banks * np.dtype(float).itemsize
        self.bases: list[np.ndarray | None] = [
            None for idx in _chunks(n_scenarios)
            if idx.stop * row_bytes <= BASE_CACHE_BYTES
        ]

    def losses(self, alloc: BailoutAllocation) -> np.ndarray:
        key = (alloc.per_massive, alloc.per_big)
        if key in self.cache:
            return self.cache[key]
        records = simulate_records(
            self.network, self.shock_params, alloc, self.config,
            self.n_scenarios, self.seed, self.n_jobs, base_cache=self.bases,
        )
        vec = np.array([r.loss(self.config.deposit_insurance) for r in records])
        self._check_monotone(key, vec)
        self.cache[key] = vec
        return vec

    def _check_monotone(self, key, vec):
        for other_key, other_vec in self.cache.items():
            if key[0] >= other_key[0] and key[1] >= other_key[1]:
                hi, lo = vec, other_vec
            elif key[0] <= other_key[0] and key[1] <= other_key[1]:
                hi, lo = other_vec, vec
            else:
                continue
            worst = float((hi - lo).max(initial=0.0))
            if worst > MONOTONE_SLACK:
                raise RuntimeError(
                    f"loss not monotone in bailout: allocation {key} vs {other_key} "
                    f"raises a scenario loss by {worst:.6f} Q"
                )

    def satisfied(self, alloc: BailoutAllocation, criterion: Criterion) -> bool:
        return _criterion_ok(self.losses(alloc), criterion, self.config)


def bailout_frontier(network: GalacticNetwork, shock_params: ShockParams,
                     config: LossConfig, criterion: Criterion, grid,
                     seed: int, *, n_scenarios: int,
                     per_massive_cap: Money = 8.0,
                     resolution: Money = 0.001,
                     n_jobs: int = 1,
                     evaluator: "_AllocationEvaluator | None" = None) -> list[FrontierPoint]:
    """Minimal per-massive bailout for each per-big grid value.

    All allocations share the same scenario streams (common random numbers),
    so the attainable minima are non-increasing in per_big; that property is
    asserted on every run.  Grid points where the criterion fails even at
    `per_massive_cap` are reported as unattainable rather than errors.
    """
    grid = [float(b) for b in grid]
    if not grid:
        raise ValueError("grid must be non-empty")
    if sorted(grid) != grid:
        raise ValueError("grid must be sorted ascending")
    if evaluator is None:
        evaluator = _AllocationEvaluator(
            network, shock_params, config, n_scenarios, seed, n_jobs
        )

    points = []
    for per_big in grid:
        ok = lambda pm: evaluator.satisfied(
            BailoutAllocation(per_massive=pm, per_big=per_big), criterion
        )
        minimal = _bisect_min(ok, 0.0, per_massive_cap, resolution)
        points.append(FrontierPoint(per_big=per_big, per_massive=minimal))
        log.info("frontier %s: per_big=%g -> per_massive=%s",
                 criterion.value, per_big, minimal)

    _assert_frontier_monotone(points, resolution)
    return points


def _bisect_min(satisfied, lo: float, hi: float, resolution: float) -> float | None:
    """Smallest x in [lo, hi] with satisfied(x), to within resolution.

    Assumes monotonicity: once satisfied, larger x stays satisfied.
    Returns None when even hi fails.
    """
    if satisfied(lo):
        return lo
    if not satisfied(hi):
        return None
    # invariant: lo fails, hi passes
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _assert_frontier_monotone(points: list[FrontierPoint], resolution: float):
    prev = None
    for pt in points:
        if prev is not None and prev.attainable:
            if not pt.attainable:
                raise RuntimeError(
                    f"frontier lost attainability at per_big={pt.per_big} after "
                    f"being attainable at per_big={prev.per_big}"
                )
            if pt.per_massive > prev.per_massive + resolution:
                raise RuntimeError(
                    f"frontier not monotone: per_massive rose from "
                    f"{prev.per_massive} to {pt.per_massive} as per_big increased"
                )
        if pt.attainable:
            prev = pt


def minimal_total_bailout(frontier: list[FrontierPoint],
                          network: GalacticNetwork,
                          criterion: Criterion) -> MinimalBailout:
    """Cheapest attainable frontier point; ties go to the smaller per_big."""
    attainable = [p for p in frontier if p.attainable]
    if not attainable:
        raise ValueError("frontier has no attainable points")
    counts = network.counts
    best = min(
        attainable,
        key=lambda p: (
            counts[Tier.MASSIVE] * p.per_massive + counts[Tier.BIG] * p.per_big,
            p.per_big,
        ),
    )
    total = counts[Tier.MASSIVE] * best.per_massive + counts[Tier.BIG] * best.per_big
    return MinimalBailout(
        criterion=criterion,
        per_massive=best.per_massive,
        per_big=best.per_big,
        total=total,
        ggp_fraction=total / network.ggp,
    )
