"""Loss accounting, Monte Carlo estimation, risk criteria and bailout search.

`simulate_records` runs the scenarios a chunk at a time, each chunk in
forward passes: it draws the chunk's rows, worst-shocked first, clears
them a cache-sized block at a time (`_block_rows`) and accounts each block
as it clears it, keeping only per-row results (`ScenarioTable.from_clearing`);
a pass whose blocks stopped at different sweeps is run again from the
latest stop.  A row's lost deposits are
summed as BLAS dots over consecutive pieces of at most DOT_PIECE_MAX banks
(`_dot_pieces`), so no call wakes OpenBLAS's thread pool and no output bit
depends on the BLAS thread count.  Both it and
the frontier draw SUB_BLOCK_ROWS scenarios at a time through `_draw_base`,
which hands the shock sampler a per-bank loss floor (`_loss_floor`, taken
once per run): a bank whose assets, with the run's bailout, reach
p_bar (1 + c) of its tier pays in full whatever the clearing does, so its
loss is not transformed and its assets are +inf.
The result is a `ScenarioTable`: numpy columns with one row per scenario,
in scenario-index order, holding the outside world's shortfall on claims
against the system (the central bank's unpaid external obligation), the
central bank's own shortfall, the deposits of defaulted banks and the
defaults per tier.  The real-economy
loss derives from it: the external shortfall plus, when deposit insurance
is absent, the full deposits of every defaulted bank.

The frontier's evaluator forms the same table from the per-tier payment
totals and default counts of the fictitious-default solve
(`clear_tier_sums`) on each chunk's pre-bailout assets, sorted per tier and
cut to the banks that default without a bailout.  The leading chunks that
fit in BASE_CACHE_BYTES are built once per run into one buffer and, after
the first allocation, solved in one call per allocation; the chunks after
them are built again at every allocation.

The risk statistics (`expected_loss`, `exceedance_probability`,
`average_var`, `criterion_satisfied`) take a 1-D loss array in that row
order, so ties among the worst losses go to the lower scenario index.
Bailouts are pre-clearing cash injections to massive/big banks, never to
the central bank, and are not subject to the market shock; the frontier
bisects them over the loss column under common random numbers.
"""

from __future__ import annotations

import functools
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
    _block_rows,
    clear_tier_sums,
    clear_tiered_batch,
    defaulting_prefixes,
    pays_in_full,
)
from .network import GalacticNetwork, Money, Tier, total_obligation
from .shocks import ShockParams, ShockTarget, common_factors, sample_loss_matrix

log = logging.getLogger(__name__)

DEFAULT_BATCH_SIZE = 500
# bytes of kept pre-bailout assets (`SortedTiers`) a frontier evaluator keeps
# across allocations; the first chunk that does not fit, and every chunk after
# it, is rebuilt on every evaluation after the first
BASE_CACHE_BYTES = 2**30
# scenario rows a chunk is drawn in at a time: the chunk's only chunk-scale
# float scratch (2.2 MB at 17,501 banks).  The 1,000-scenario acceptance
# frontier on 2 threads peaks at 64 MB RSS with a 16-row buffer reused for the
# whole chunk, against 70 MB with a fresh 32-row block per draw (76 and 93 MB
# with 64 and 128 rows); 1, 4 or 8 rows per draw cost 10-55% more wall time
# there, from more GIL hand-offs between the workers.
SUB_BLOCK_ROWS = 16
# relative margin on the assets at which a bank surely pays in full (`_loss_floor`)
SOLVENT_MARGIN = 1e-12
# longest BLAS dot x86-64 OpenBLAS runs on the calling thread (`_dot_pieces`)
DOT_PIECE_MAX = 10_000
# slack for cross-allocation monotonicity checks; clearing tolerance can
# perturb payments by ~tolerance * max obligation
MONOTONE_SLACK = 1e-3


class Criterion(Enum):
    EXPECTATION = "expectation"
    VAR = "var"
    AVAR = "avar"


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
class GridSpec:
    """The frontier's search: the per-big grid, the per-massive cap, the resolution."""

    per_big: tuple[float, ...] = tuple(round(0.005 * i, 6) for i in range(11))
    per_massive_cap: float = 8.0
    resolution: float = 0.001

    def __post_init__(self):
        if not self.per_big:
            raise ValueError("per_big must be non-empty")
        if not all(0.0 <= b < math.inf for b in self.per_big):
            raise ValueError("per_big values must be finite and non-negative")
        if list(self.per_big) != sorted(self.per_big):
            raise ValueError("per_big must be sorted ascending")
        if not 0.0 < self.per_massive_cap < math.inf:
            raise ValueError("per_massive_cap must be positive and finite")
        if not 0.0 < self.resolution < math.inf:
            raise ValueError("resolution must be positive and finite")


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
        """Accounting for every row of a `clear_tiered_batch` result.

        A row's lost deposits are BLAS dots over the pieces of `_dot_pieces`,
        added left to right: no dot is long enough for OpenBLAS to wake its
        thread pool, and at 17,501 banks the sum has the bits of one dot split
        over two threads, as the byte references were recorded."""
        defaulted = cleared.defaulted
        if defaulted.shape[1] != network.n_banks:
            raise ValueError(f"a clearing result of {defaulted.shape[1]} banks cannot be "
                             f"accounted on a network of {network.n_banks} banks")
        deposits = network.deposits_vector()
        # per row, one BLAS dot per piece, as (1, k) @ (k,), added left to
        # right: a single gemv over the rows sums in another order
        dots = [defaulted[:, None, piece] @ deposits[piece]
                for piece in _dot_pieces(network.n_banks)]
        # counted row by row: on a 4-row block, about half the time of an
        # int64 sum over each tier's columns
        slices = [network.tier_slice(t) for t in Tier]
        defaults_by_tier = np.array(
            [[np.count_nonzero(row[sl]) for sl in slices] for row in defaulted],
            dtype=np.int64).reshape(len(defaulted), len(Tier))
        owed = total_obligation(network.profiles[Tier.CENTRAL])
        central_paid = cleared.payments[:, network.tier_slice(Tier.CENTRAL)]
        return cls(
            external_shortfall=network.total_external_obligation() - cleared.external_paid,
            central_shortfall=np.maximum(owed - central_paid, 0.0).sum(axis=1),
            deposits_lost=functools.reduce(np.add, dots).ravel(),
            defaults_by_tier=defaults_by_tier,
        )

    @classmethod
    def from_tier_sums(cls, network: GalacticNetwork,
                       cleared: TierSumsResult) -> "ScenarioTable":
        """Accounting from per-tier payment totals and default counts."""
        central = Tier.CENTRAL
        owed = network.counts[central] * total_obligation(network.profiles[central])
        deposits = np.array([network.sheets[t].deposits for t in Tier])
        return cls(
            external_shortfall=network.total_external_obligation() - cleared.external_paid,
            central_shortfall=owed - cleared.sums[:, central],
            deposits_lost=cleared.defaults @ deposits,
            defaults_by_tier=cleared.defaults,
        )

    @classmethod
    def concat(cls, tables) -> "ScenarioTable":
        return cls(*(
            np.concatenate([getattr(t, f.name) for t in tables]) for f in fields(cls)
        ))

    def take(self, rows) -> "ScenarioTable":
        return type(self)(*(getattr(self, f.name)[rows] for f in fields(self)))


def _dot_pieces(n_banks: int) -> list[slice]:
    """The consecutive pieces a row's deposits dot is summed in.

    x86-64 OpenBLAS runs a ddot of more than DOT_PIECE_MAX elements on its
    thread pool, each thread taking ceil(remaining / threads left) of them,
    the first pieces the longest, and adds the threads' dots left to right.
    These pieces follow that split with as few threads as keep every piece
    at or below DOT_PIECE_MAX, so no dot wakes the pool and the bits do not
    depend on the BLAS thread count: 17,501 banks are 8,751 + 8,750, the
    split of two threads, and 10,000 or fewer are one dot.
    """
    left = -(-n_banks // DOT_PIECE_MAX)
    pieces, lo = [], 0
    while left:
        hi = lo + -(-(n_banks - lo) // left)
        pieces.append(slice(lo, hi))
        lo, left = hi, left - 1
    return pieces


def green_line_loss(network: GalacticNetwork, config: LossConfig) -> Money:
    """Benchmark loss with no financial system: the public eats the bond default."""
    return network.outstanding_debt * (1.0 - config.bond_recovery)


def loss_threshold(network: GalacticNetwork, config: LossConfig) -> Money:
    """The loss the criteria compare against: a fraction of the network's GGP."""
    return config.threshold_fraction * network.ggp


def _exposure(shock_params: ShockParams, external, bond_value) -> tuple:
    """(exposed, kept): the assets, per bank or per tier, that the shock scales
    and those it leaves whole; a zero `kept` adds exactly to the non-negative
    or +inf assets."""
    if shock_params.applies_to is ShockTarget.ALL_ASSETS:
        return external + bond_value, np.zeros_like(bond_value)
    return external, bond_value


def _base_assets(network: GalacticNetwork, shock_params: ShockParams,
                 losses: np.ndarray, config: LossConfig) -> np.ndarray:
    """Post-shock, post-bond-default cash per bank, before any bailout.

    Works in place: `losses` must be private to the caller and becomes the
    result.  A -inf loss (a bank `sample_loss_matrix` skipped below its
    floor) becomes +inf assets.
    """
    exposed, kept = _exposure(shock_params, network.external_assets_vector(),
                              config.bond_recovery * network.bond_face_vector())
    if shock_params.exempt_central:
        losses[:, network.tier_slice(Tier.CENTRAL)] = 0.0
    np.subtract(1.0, losses, out=losses)
    losses *= exposed[None, :]
    losses += kept[None, :]
    return losses


def _tier_injections(bailout: BailoutAllocation) -> np.ndarray:
    """Pre-clearing cash per bank of each tier; none to the central bank."""
    return np.array([0.0, bailout.per_massive, bailout.per_big])


def _injection_vector(network: GalacticNetwork, bailout: BailoutAllocation) -> np.ndarray:
    """Pre-clearing cash per bank: the allocation, none to the central bank."""
    return np.repeat(_tier_injections(bailout), network.counts)


def _chunks(n_scenarios: int) -> list[range]:
    return [
        range(lo, min(lo + DEFAULT_BATCH_SIZE, n_scenarios))
        for lo in range(0, n_scenarios, DEFAULT_BATCH_SIZE)
    ]


def _loss_floor(network: GalacticNetwork, shock_params: ShockParams,
                config: LossConfig, bailout: BailoutAllocation) -> np.ndarray:
    """Per bank, a loss at or below which the bank pays in full under `bailout`
    at every clearing step; -inf where its loss moves no asset.

    Inflows and bailouts are non-negative, so a bank of tier d holding at
    least p_bar_d (1 + c_d) (`pays_in_full`) pays p_bar_d in every Picard
    sweep and lies above every fictitious-default threshold.  The
    bound carries a relative margin of SOLVENT_MARGIN of the amounts that
    form it, far above the rounding of the floor, the assets and the sweep.
    """
    bound = pays_in_full(network)
    external = np.array([sheet.external_assets for sheet in network.sheets])
    bond_value = config.bond_recovery * np.array([s.bond_holdings_face for s in network.sheets])
    cash = _tier_injections(bailout)
    need = bound - cash + SOLVENT_MARGIN * (bound + external + bond_value + cash)
    exposed, kept = _exposure(shock_params, external, bond_value)
    # a tier without shocked assets gets no floor: its -inf loss would be inf * 0
    with np.errstate(divide="ignore", invalid="ignore"):
        floor = np.where(exposed > 0, 1.0 - (need - kept) / exposed, -np.inf)
    return np.repeat(floor, network.counts)


def _draw_base(network: GalacticNetwork, shock_params: ShockParams,
               config: LossConfig, seed: int, idx, floor: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Pre-bailout assets of scenarios `idx`, in a fresh array private to the
    caller or in the leading rows of the buffer `out`, whose view it returns.

    A bank whose loss lies at or below its `floor` (`_loss_floor` of the
    run's bailout, taken once per run) surely pays in full and holds +inf:
    its transformed loss would move no clearing result, and +inf clears to
    exactly p_bar.  Every other entry has the bits of the full transform.
    """
    losses = sample_loss_matrix(shock_params, network.n_banks, seed, idx, floor=floor,
                                out=out)
    return _base_assets(network, shock_params, losses, config)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_chunks(run_chunk, positions, n_jobs: int) -> list:
    """[run_chunk(pos) for pos in positions], on a thread pool when n_jobs > 1.

    Each worker holds a chunk's arrays, so the pool never exceeds the chunks
    or the usable cores, whatever n_jobs asks for.
    """
    workers = min(n_jobs, len(positions), _usable_cores())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_chunk, positions))
    return [run_chunk(pos) for pos in positions]


def simulate_records(network: GalacticNetwork, shock_params: ShockParams,
                     bailout: BailoutAllocation, config: LossConfig,
                     n_scenarios: int, seed: int, n_jobs: int = 1) -> ScenarioTable:
    """Scenario accounting for n_scenarios independent shock draws.

    Scenario i is a pure function of (seed, i) and the inputs; the worker
    count only affects wall time, never results.
    """
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be at least 1")

    chunks = _chunks(n_scenarios)
    floor = _loss_floor(network, shock_params, config, bailout)
    injections = _injection_vector(network, bailout)[None, :]
    block = _block_rows(network.n_banks)
    per_draw = max(1, SUB_BLOCK_ROWS // block) * block  # whole blocks

    def run_chunk(pos: int) -> ScenarioTable:
        idx = chunks[pos]
        # rows in descending order of their common factor M, so the first
        # block cleared is the worst-shocked; rows are drawn SUB_BLOCK_ROWS at
        # a time in this order (a draw per 4-row block costs as many GIL
        # hand-offs between workers as a sweep).  Each draw is a fresh block,
        # freed before the next: a buffer reused for the whole chunk left
        # glibc's dynamic mmap threshold at the size of the sweep's iterates,
        # so their heap pages were returned and faulted in again every block
        order = np.argsort(-common_factors(seed, idx), kind="stable")
        # A block stops at its first sweep within tolerance at or after `stop`,
        # and the chunk's sweep (the first at which every row is) is one, so
        # `stop` never passes it; a pass whose blocks all stop at `stop` has
        # cleared every row to exactly that sweep, with the bits of the whole
        # chunk at once.  A pass runs again only if it raised `stop`, which
        # stays below MAX_ITERATIONS (the sweep raises there): the passes end.
        stop = passes = 0
        while True:
            passes += 1
            tables, stops = [], []
            for lo in range(0, len(idx), per_draw):
                assets = _draw_base(network, shock_params, config, seed,
                                    [idx[i] for i in order[lo:lo + per_draw]], floor)
                assets += injections
                for r0 in range(0, len(assets), block):
                    cleared = clear_tiered_batch(network, assets[r0:r0 + block],
                                                 min_iterations=stop)
                    stop = max(stop, cleared.iterations)
                    stops.append(cleared.iterations)
                    tables.append(ScenarioTable.from_clearing(network, cleared))
                    del cleared  # freed before the next block's iterates
                del assets
            if all(s == stop for s in stops):
                break
        log.debug("chunk of %d scenarios: %d pass(es), stop at sweep %d", len(idx), passes, stop)
        return ScenarioTable.concat(tables).take(np.argsort(order))  # back to scenario order

    return ScenarioTable.concat(_run_chunks(run_chunk, range(len(chunks)), n_jobs))


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
    pre-bailout assets are drawn and sorted per tier once, and every
    allocation is one fictitious-default solve on them (`clear_tier_sums`).
    No bailout defaults a bank that survives without one, so a chunk keeps,
    per scenario and tier, only the assets of the banks that default at zero
    bailout plus one (`defaulting_prefixes`).  It is drawn SUB_BLOCK_ROWS
    scenarios at a time into one buffer, each draw sorted, solved at zero
    bailout and cut before the next, and the cuts joined
    (`SortedTiers.concat`).

    An evaluation runs in one of two phases.  The first builds every chunk
    in order, a pool width at a time, solves each as it comes, and copies
    the leading ones into one `SortedTiers` (`kept`) until the next would
    take it past BASE_CACHE_BYTES; a chunk is freed once solved and copied,
    so it holds at most a pool width of chunks above `kept`.  Every later
    one solves `kept` and builds the chunks after the cut again, on the
    pool, so no scenario is dropped.  Which chunks are kept depends on the
    inputs alone, never on the thread count or timing.
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
        self.floor = _loss_floor(network, shock_params, config, BailoutAllocation())
        self.cache: dict[BailoutAllocation, np.ndarray] = {}
        self.chunks = _chunks(n_scenarios)
        self.kept: SortedTiers | None = None  # the leading chunks, once built

    def _build(self, pos: int) -> SortedTiers:
        """Chunk pos's pre-bailout assets, cut to the defaulting prefixes."""
        idx = self.chunks[pos]
        # every block is drawn into one buffer; its prefixes are copied out
        buffer = np.empty((SUB_BLOCK_ROWS, self.network.n_banks))
        return SortedTiers.concat((
            defaulting_prefixes(self.network, _draw_base(
                self.network, self.shock_params, self.config, self.seed,
                idx[lo:lo + SUB_BLOCK_ROWS], self.floor, out=buffer))
            for lo in range(0, len(idx), SUB_BLOCK_ROWS)
        ))

    def _solve(self, tiers: SortedTiers, shift: np.ndarray) -> ScenarioTable:
        return ScenarioTable.from_tier_sums(self.network,
                                            clear_tier_sums(self.network, tiers, shift))

    def table(self, alloc: BailoutAllocation) -> ScenarioTable:
        """Scenario accounting at one allocation.

        The first evaluation solves each chunk on the calling thread as soon
        as it is built, and fills `kept` as it goes.  Every later one solves
        `kept` in one call on the calling thread: a solve is a run of small
        numpy calls, whose overhead is then paid once for all its chunks.
        Each chunk after the cut is built and solved on its pool worker and
        freed there.
        """
        shift = _tier_injections(alloc)
        if self.kept is not None:
            tables = [self._solve(self.kept, shift)] if self.kept.rows else []
            tail = [pos for pos, idx in enumerate(self.chunks) if idx.start >= self.kept.rows]
            return ScenarioTable.concat(tables + _run_chunks(
                lambda pos: self._solve(self._build(pos), shift), tail, self.n_jobs))
        width = max(1, min(self.n_jobs, _usable_cores()))
        tables = []

        def leading():
            room = BASE_CACHE_BYTES
            for lo in range(0, len(self.chunks), width):
                built = _run_chunks(self._build, range(lo, min(lo + width, len(self.chunks))),
                                    self.n_jobs)
                while built:
                    tiers = built.pop(0)
                    tables.append(self._solve(tiers, shift))
                    if tiers.nbytes <= room:
                        room -= tiers.nbytes
                        yield tiers
                    else:
                        room = -1  # the cache is closed: no later chunk is kept
                    del tiers  # freed once solved and copied, before the next width is built

        self.kept = SortedTiers.concat(leading())
        return ScenarioTable.concat(tables)

    def losses(self, alloc: BailoutAllocation) -> np.ndarray:
        if alloc in self.cache:
            return self.cache[alloc]
        vec = self.table(alloc).loss(self.config.deposit_insurance)
        self._check_monotone(alloc, vec)
        self.cache[alloc] = vec
        return vec

    def _check_monotone(self, alloc, vec):
        for other, other_vec in self.cache.items():
            if alloc.dominates(other):
                hi, lo = vec, other_vec
            elif other.dominates(alloc):
                hi, lo = other_vec, vec
            else:
                continue
            worst = float((hi - lo).max(initial=0.0))
            if worst > MONOTONE_SLACK:
                raise RuntimeError(
                    f"loss not monotone in bailout: allocation {alloc} vs {other} "
                    f"raises a scenario loss by {worst:.6f} Q"
                )

    def satisfied(self, alloc: BailoutAllocation, criterion: Criterion) -> bool:
        return criterion_satisfied(self.losses(alloc), criterion, self.threshold,
                                   self.config.confidence)


def bailout_frontier(evaluator: _AllocationEvaluator, criterion: Criterion,
                     grid: GridSpec) -> list[FrontierPoint]:
    """Minimal per-massive bailout for each per-big grid value.

    The evaluator fixes the network, shock, loss criteria and scenarios, and
    its cache carries over between calls.  All allocations share the same
    scenario streams (common random numbers), so the attainable minima are
    non-increasing in per_big; that property is asserted on every run.  Grid
    points where the criterion fails even at `grid.per_massive_cap` are
    reported as unattainable rather than errors.
    """
    points = []
    for per_big in grid.per_big:
        ok = lambda pm: evaluator.satisfied(
            BailoutAllocation(per_massive=pm, per_big=per_big), criterion
        )
        minimal = _bisect_min(ok, 0.0, grid.per_massive_cap, grid.resolution)
        points.append(FrontierPoint(per_big=per_big, per_massive=minimal))
        log.info("frontier %s: per_big=%g -> per_massive=%s",
                 criterion.value, per_big, minimal)

    _assert_frontier_monotone(points, grid.resolution)
    return points


def _bisect_min(satisfied, lo: float, hi: float, resolution: float) -> float | None:
    """Smallest x in [lo, hi] with satisfied(x), to within resolution.

    Assumes monotonicity: once satisfied, larger x stays satisfied.
    Returns None when even hi fails.  A resolution below the float spacing
    at the answer ends the search where lo and hi are adjacent floats.
    """
    if satisfied(lo):
        return lo
    if not satisfied(hi):
        return None
    # invariant: lo fails, hi passes
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats
            break
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
