"""Loss accounting, Monte Carlo estimation, risk criteria and bailout search.

`simulate_records` clears the scenarios a chunk at a time and accounts each
cleared chunk in one vectorised pass.  The result is a `ScenarioTable`:
numpy columns with one row per scenario, in scenario-index order, holding
the outside world's shortfall on claims against the system (the central
bank's unpaid external obligation), the central bank's own shortfall, the
deposits of defaulted banks and the defaults per tier.  The real-economy
loss derives from it: the external shortfall plus, when deposit insurance
is absent, the full deposits of every defaulted bank.

The frontier's evaluator forms the same table from the per-tier payment
totals and default counts of the fictitious-default solve
(`clear_tier_sums`) on each chunk's pre-bailout assets, sorted once per run.

The risk statistics (`expected_loss`, `exceedance_probability`,
`average_var`, `criterion_satisfied`) take a 1-D loss array in that row
order, so ties among the worst losses go to the lower scenario index.
Bailouts are pre-clearing cash injections to massive/big banks, never to
the central bank, and are not subject to the market shock; the frontier
bisects them over the loss column under common random numbers.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .clearing import (
    BatchClearingResult,
    SortedTiers,
    TierSumsResult,
    _TierSystem,
    _block_rows,
    clear_tier_sums,
    clear_tiered_batch,
)
from .network import GalacticNetwork, Money, Tier
from .shocks import ShockParams, ShockTarget, sample_loss_matrix

log = logging.getLogger(__name__)

DEFAULT_BATCH_SIZE = 500
# bytes of sorted pre-bailout assets (`SortedTiers`) a frontier evaluator
# keeps across allocations; chunks beyond it are redrawn on every evaluation
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
    """Loss criteria; the threshold is a fraction of the network's GGP."""

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


@dataclass(frozen=True)
class BailoutAllocation:
    """Cash per bank of each tier; the central bank never receives funds."""

    per_massive: Money = 0.0
    per_big: Money = 0.0

    def __post_init__(self):
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


@dataclass(frozen=True, eq=False)
class ScenarioTable:
    """Per-scenario accounting as numpy columns; row i is scenario i."""

    external_shortfall: np.ndarray  # (n,) unpaid outside obligation, Q
    central_shortfall: np.ndarray   # (n,) central bank's unpaid obligations, Q
    deposits_lost: np.ndarray       # (n,) deposits of the defaulted banks, Q
    defaults_by_tier: np.ndarray    # (n, 3) defaulted banks per tier

    def __len__(self) -> int:
        return self.external_shortfall.size

    @property
    def n_defaults(self) -> np.ndarray:
        return self.defaults_by_tier.sum(axis=1)

    def loss(self, deposit_insurance: bool) -> np.ndarray:
        """Real-economy loss per scenario; insured deposits are not lost."""
        if deposit_insurance:
            return self.external_shortfall
        return self.external_shortfall + self.deposits_lost

    @classmethod
    def from_clearing(cls, network: GalacticNetwork,
                      cleared: BatchClearingResult) -> "ScenarioTable":
        """Accounting for every row of a cleared batch at once."""
        defaulted = cleared.defaulted
        if defaulted.shape[1] != network.n_banks:
            raise ValueError(
                f"cleared batch has {defaulted.shape[1]} banks, "
                f"the network {network.n_banks}"
            )
        slices = [network.tier_slice(t) for t in Tier]
        deposits = network.deposits_vector()[:, None]
        # one BLAS dot per row, as (1, n) @ (n, 1): a single gemv over the
        # batch sums in another order and moves the last bits; blocks of
        # rows keep the bool-to-float copy of `defaulted` cache-sized
        block = _block_rows(network.n_banks)
        deposits_lost = np.concatenate([
            (defaulted[r:r + block, None, :] @ deposits).ravel()
            for r in range(0, defaulted.shape[0], block)
        ])
        owed = _TierSystem(network).p_bar_tier[Tier.CENTRAL]
        central = cleared.payments[:, slices[Tier.CENTRAL]]
        return cls(
            external_shortfall=network.total_external_obligation() - cleared.external_paid,
            central_shortfall=np.maximum(owed - central, 0.0).sum(axis=1),
            deposits_lost=deposits_lost,
            defaults_by_tier=np.stack(
                [defaulted[:, sl].sum(axis=1) for sl in slices], axis=1
            ),
        )

    @classmethod
    def from_tier_sums(cls, network: GalacticNetwork,
                       cleared: TierSumsResult) -> "ScenarioTable":
        """Accounting from per-tier payment totals and default counts."""
        sys = _TierSystem(network)
        sums, defaults = cleared.sums, cleared.defaults
        central = Tier.CENTRAL
        deposits = np.array([network.sheets[t].deposits for t in Tier])
        return cls(
            external_shortfall=network.total_external_obligation()
            - sums @ sys.ext_share_tier,
            central_shortfall=network.counts[central] * sys.p_bar_tier[central]
            - sums[:, central],
            deposits_lost=defaults @ deposits,
            defaults_by_tier=defaults,
        )

    @classmethod
    def concat(cls, tables) -> "ScenarioTable":
        return cls(*(
            np.concatenate([getattr(t, f.name) for t in tables]) for f in fields(cls)
        ))


def green_line_loss(network: GalacticNetwork, config: LossConfig) -> Money:
    """Benchmark loss with no financial system: the public eats the bond default."""
    return network.outstanding_debt * (1.0 - config.bond_recovery)


def loss_threshold(network: GalacticNetwork, config: LossConfig) -> Money:
    """The loss the criteria compare against: a fraction of the network's GGP."""
    return config.threshold_fraction * network.ggp


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


def _tier_injections(bailout: BailoutAllocation) -> np.ndarray:
    """Pre-clearing cash per bank of each tier; none to the central bank."""
    return np.array([0.0, bailout.per_massive, bailout.per_big])


def _injection_vector(network: GalacticNetwork, bailout: BailoutAllocation) -> np.ndarray:
    """Pre-clearing cash per bank: the allocation, none to the central bank."""
    return np.repeat(_tier_injections(bailout), network.counts)


def _chunks(n_scenarios: int, batch_size: int = DEFAULT_BATCH_SIZE) -> list[range]:
    return [
        range(lo, min(lo + batch_size, n_scenarios))
        for lo in range(0, n_scenarios, batch_size)
    ]


def _draw_base(network: GalacticNetwork, shock_params: ShockParams,
               config: LossConfig, seed: int, idx: range) -> np.ndarray:
    """A chunk's pre-bailout assets, in a fresh array private to the caller."""
    losses = sample_loss_matrix(shock_params, network.n_banks, seed, idx)
    return _base_assets(network, shock_params, losses, config)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_chunks(run_chunk, n_chunks: int, n_jobs: int):
    """run_chunk(pos) for every chunk, on a thread pool when n_jobs > 1.

    Each worker holds a chunk's arrays, so the pool never exceeds the chunks
    or the usable cores, whatever n_jobs asks for.
    """
    workers = min(n_jobs, n_chunks, _usable_cores())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunk, range(n_chunks)))
    else:
        for pos in range(n_chunks):
            run_chunk(pos)


def simulate_records(network: GalacticNetwork, shock_params: ShockParams,
                     bailout: BailoutAllocation, config: LossConfig,
                     n_scenarios: int, seed: int, n_jobs: int = 1,
                     batch_size: int = DEFAULT_BATCH_SIZE) -> ScenarioTable:
    """Scenario accounting for n_scenarios independent shock draws.

    Scenario i is a pure function of (seed, i) and the inputs; the worker
    count only affects wall time, never results.
    """
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be at least 1")

    chunks = _chunks(n_scenarios, batch_size)
    injections = _injection_vector(network, bailout)[None, :]
    tables: list[ScenarioTable] = [None] * len(chunks)

    def run_chunk(pos: int):
        assets = _draw_base(network, shock_params, config, seed, chunks[pos])
        assets += injections  # private to this chunk: no second matrix
        cleared = clear_tiered_batch(network, assets)
        tables[pos] = ScenarioTable.from_clearing(network, cleared)

    _run_chunks(run_chunk, len(chunks), n_jobs)
    return ScenarioTable.concat(tables)


# --- risk statistics ------------------------------------------------------
# Each takes a 1-D loss array whose row i is scenario i.

def _losses(losses) -> np.ndarray:
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 1 or losses.size == 0:
        raise ValueError("need a non-empty 1-D array of scenario losses")
    return losses


def expected_loss(losses) -> Money:
    return float(np.mean(_losses(losses)))


def exceedance_probability(losses, threshold: Money) -> float:
    return float(np.mean(_losses(losses) > threshold))


def average_var(losses, confidence: float) -> Money:
    """Mean of the worst ceil(confidence * N) losses, ties to the lower index."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    losses = _losses(losses)
    k = math.ceil(confidence * losses.size)
    # a stable sort keeps equal losses in scenario-index order
    worst = np.argsort(-losses, kind="stable")[:k]
    return float(losses[worst].mean())


def criterion_satisfied(losses, criterion: Criterion, threshold: Money,
                        confidence: float) -> bool:
    if criterion is Criterion.EXPECTATION:
        return expected_loss(losses) <= threshold
    if criterion is Criterion.VAR:
        # strict: exceedance probability must stay below the confidence level
        return exceedance_probability(losses, threshold) < confidence
    return average_var(losses, confidence) <= threshold


# --- bailout frontier -----------------------------------------------------

@dataclass(frozen=True)
class FrontierPoint:
    per_big: Money
    per_massive: Money | None  # None when unattainable at the search cap

    @property
    def attainable(self) -> bool:
        return self.per_massive is not None

    @property
    def allocation(self) -> BailoutAllocation:
        return BailoutAllocation(per_massive=self.per_massive, per_big=self.per_big)


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
    pre-bailout assets are drawn and sorted per tier once (`SortedTiers`),
    on the first evaluation, and every allocation is one fictitious-default
    solve on them (`clear_tier_sums`).  The sorted chunks are kept for as
    many leading chunks as fit in BASE_CACHE_BYTES; later chunks are drawn
    and sorted again on every evaluation, so no scenario is dropped.
    """

    def __init__(self, network, shock_params, config, n_scenarios, seed, n_jobs):
        if n_scenarios < 1:
            raise ValueError("n_scenarios must be at least 1")
        self.network = network
        self.shock_params = shock_params
        self.config = config
        self.seed = seed
        self.n_jobs = n_jobs
        self.threshold = loss_threshold(network, config)
        self.cache: dict[tuple[float, float], np.ndarray] = {}
        self.chunks = _chunks(n_scenarios)
        row_bytes = SortedTiers.bytes_per_row(network.n_banks)
        self.tiers: list[SortedTiers | None] = [
            None for idx in self.chunks if idx.stop * row_bytes <= BASE_CACHE_BYTES
        ]

    def _sorted(self, pos: int) -> SortedTiers:
        """Chunk pos's sorted pre-bailout assets, drawn at most once if cached."""
        if pos < len(self.tiers) and self.tiers[pos] is not None:
            return self.tiers[pos]
        base = _draw_base(self.network, self.shock_params, self.config, self.seed,
                          self.chunks[pos])
        tiers = SortedTiers.from_assets(self.network, base)
        if pos < len(self.tiers):
            self.tiers[pos] = tiers  # each chunk writes only its own slot
        return tiers

    def table(self, alloc: BailoutAllocation) -> ScenarioTable:
        """Scenario accounting at one allocation, one solve per chunk."""
        shift = _tier_injections(alloc)
        tables: list[ScenarioTable] = [None] * len(self.chunks)

        def run_chunk(pos: int):
            cleared = clear_tier_sums(self.network, self._sorted(pos), shift)
            tables[pos] = ScenarioTable.from_tier_sums(self.network, cleared)

        _run_chunks(run_chunk, len(self.chunks), self.n_jobs)
        return ScenarioTable.concat(tables)

    def losses(self, alloc: BailoutAllocation) -> np.ndarray:
        key = (alloc.per_massive, alloc.per_big)
        if key in self.cache:
            return self.cache[key]
        vec = self.table(alloc).loss(self.config.deposit_insurance)
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
        return criterion_satisfied(self.losses(alloc), criterion, self.threshold,
                                   self.config.confidence)


def bailout_frontier(evaluator: _AllocationEvaluator, criterion: Criterion, grid, *,
                     per_massive_cap: Money = 8.0,
                     resolution: Money = 0.001) -> list[FrontierPoint]:
    """Minimal per-massive bailout for each per-big grid value.

    The evaluator fixes the network, shock, loss criteria and scenarios, and
    its cache carries over between calls.  All allocations share the same
    scenario streams (common random numbers), so the attainable minima are
    non-increasing in per_big; that property is asserted on every run.  Grid
    points where the criterion fails even at `per_massive_cap` are reported
    as unattainable rather than errors.
    """
    grid = [float(b) for b in grid]
    if not grid:
        raise ValueError("grid must be non-empty")
    if sorted(grid) != grid:
        raise ValueError("grid must be sorted ascending")

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
    best = min(attainable, key=lambda p: (p.allocation.total(network), p.per_big))
    total = best.allocation.total(network)
    return MinimalBailout(
        criterion=criterion,
        per_massive=best.per_massive,
        per_big=best.per_big,
        total=total,
        ggp_fraction=total / network.ggp,
    )
