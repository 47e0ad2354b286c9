"""Clearing payment vectors for interbank networks.

Payments settle at the fixed point p_i = min(pbar_i, assets_i + inflows_i)
where each debtor repays creditors in proportion to face liabilities.
Picard iteration from total obligations converges monotonically down to
the greatest clearing vector (the canonical output); iteration from zero
climbs to the least vector and serves as a uniqueness diagnostic.

Two solvers share the contract: a dense reference for arbitrary small
networks, and a tier-compressed solver for the calibrated 17,501-bank
network whose per-iteration cost is linear in the bank count because
inflows depend on payments only through the three tier sums.

The compressed solver is bound by memory traffic, not arithmetic.  Each
iteration computes the tier inflow base for the whole batch from the tier
sums, then sweeps the batch a few scenario rows at a time (`_block_rows`,
sized to the per-core L2 cache): the rows' new iterate goes into one small
block buffer, the next iteration's tier sums and the rows' residual are
taken from it while it is in cache, and it is copied back over the old
iterate.  So an iteration streams the iterate and the assets through memory
once, and a call holds two batch-wide arrays (the iterate and, at the end,
the shortfall) besides the caller's assets.  Blocking changes no result
bit: every element sees the same operations in the same order as in a
full-width sweep, each row's tier sum is the same pairwise sum over the
same contiguous row segment, and a maximum does not depend on the order
it is taken in.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .network import DegenerateNetworkError, GalacticNetwork, Money, Tier

log = logging.getLogger(__name__)

DEFAULT_TOLERANCE = 1e-9   # residual bound, relative to max total obligation
DEFAULT_FLAG_TOL = 1e-6    # Q; shortfall above this flags a default
MAX_ITERATIONS = 100_000
# Per-core L2 cache of the 2-core reference box.  The tiered sweep clears a
# few scenario rows at a time so that their new iterate, old iterate and
# assets stay in L2 together (4 rows at 17,501 banks; 3 to 7 time alike).
L2_CACHE_BYTES = 2 * 2**20


def _block_rows(n_banks: int) -> int:
    return max(1, L2_CACHE_BYTES // (3 * 8 * n_banks))


@dataclass(frozen=True)
class DenseNetwork:
    """Explicit bilateral network: liabilities[i, j] is what i owes j."""

    liabilities: np.ndarray
    external_obligation: np.ndarray
    assets: np.ndarray

    def __post_init__(self):
        liab = np.asarray(self.liabilities, dtype=float)
        ext = np.asarray(self.external_obligation, dtype=float)
        assets = np.asarray(self.assets, dtype=float)
        n = ext.size
        if liab.shape != (n, n) or assets.shape != (n,):
            raise ValueError("inconsistent network shapes")
        # NaN fails the comparison too, unlike `np.any(x < 0)`
        if not all(x.min(initial=0.0) >= 0.0 for x in (liab, ext, assets)):
            raise ValueError(
                "liabilities, obligations and assets must be non-negative and not NaN"
            )
        if np.any(np.diag(liab) != 0):
            raise ValueError("self-liabilities are not allowed")
        object.__setattr__(self, "liabilities", liab)
        object.__setattr__(self, "external_obligation", ext)
        object.__setattr__(self, "assets", assets)

    @property
    def n(self) -> int:
        return self.external_obligation.size

    @property
    def p_bar(self) -> np.ndarray:
        return self.liabilities.sum(axis=1) + self.external_obligation


@dataclass(frozen=True)
class ClearingOutcome:
    payments: np.ndarray
    defaulted: np.ndarray
    shortfall: np.ndarray
    external_paid: Money
    iterations: int


@dataclass(frozen=True)
class BatchClearingResult:
    """Vectorized clearing of many asset scenarios over one network."""

    payments: np.ndarray       # (n_scenarios, n_banks)
    defaulted: np.ndarray      # bool, same shape
    shortfall: np.ndarray
    external_paid: np.ndarray  # (n_scenarios,)
    iterations: int
    residuals: tuple           # sup-norm Picard residual per iteration


def _finish(payments, p_bar, ext_share, flag_tol):
    """(defaulted, shortfall, external_paid) of a converged payment vector."""
    shortfall = np.subtract(p_bar, payments)
    np.maximum(shortfall, 0.0, out=shortfall)
    return shortfall > flag_tol, shortfall, payments @ ext_share


def _picard_dense(net: DenseNetwork, tolerance: float, start: str):
    p_bar = net.p_bar
    scale = p_bar.max() if p_bar.size and p_bar.max() > 0 else 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        pi = np.where(p_bar[:, None] > 0, net.liabilities / p_bar[:, None], 0.0)
    p = p_bar.copy() if start == "greatest" else np.zeros_like(p_bar)
    residuals = []
    for iteration in range(MAX_ITERATIONS):
        p_new = np.minimum(p_bar, net.assets + pi.T @ p)
        resid = float(np.abs(p_new - p).max(initial=0.0))
        if resid <= tolerance * scale:
            return p_new, iteration
        residuals.append(resid)
        p = p_new
    raise RuntimeError(
        f"dense clearing failed to converge in {MAX_ITERATIONS} iterations: "
        f"last residuals {', '.join(f'{r:.3g}' for r in residuals[-3:])} "
        f"against tolerance {tolerance * scale:.3g}"
    )


def _dense_outcome(net, tolerance, flag_tol, start) -> ClearingOutcome:
    p, iters = _picard_dense(net, tolerance, start)
    p_bar = net.p_bar
    with np.errstate(divide="ignore", invalid="ignore"):
        ext_share = np.where(p_bar > 0, net.external_obligation / p_bar, 0.0)
    defaulted, shortfall, ext_paid = _finish(p, p_bar, ext_share, flag_tol)
    log.debug("dense clearing: %d banks, %d iterations", net.n, iters)
    return ClearingOutcome(p, defaulted, shortfall, float(ext_paid), iters)


def clearing_dense(net: DenseNetwork, tolerance: float = DEFAULT_TOLERANCE,
                   flag_tol: float = DEFAULT_FLAG_TOL) -> ClearingOutcome:
    """Greatest clearing vector of a dense network (Picard from total obligations)."""
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    return _dense_outcome(net, tolerance, flag_tol, "greatest")


def least_clearing_vector(net: DenseNetwork, tolerance: float = DEFAULT_TOLERANCE,
                          flag_tol: float = DEFAULT_FLAG_TOL) -> ClearingOutcome:
    """Least clearing vector (Picard from zero); uniqueness diagnostic."""
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    return _dense_outcome(net, tolerance, flag_tol, "least")


class _TierSystem:
    """Precomputed coefficients for the compressed solver.

    Inflow to one bank j of tier d given tier payment sums S:

        inflow_j = sum_{c != d} S_c * share(c->d) / count_d
                 + (S_d - p_j) * share(d->d) / (count_d - 1)

    with share(c->d) the fraction of tier c's obligation owed to tier d.
    """

    def __init__(self, network: GalacticNetwork):
        counts = np.array(network.counts, dtype=float)
        owed = np.array(
            [[network.profiles[c].owed_to(d) for d in Tier] for c in Tier]
        )
        ext = np.array([network.profiles[t].owed_external for t in Tier])
        p_bar = owed.sum(axis=1) + ext

        for d in Tier:
            if counts[d] < 2 and owed[d, d] > 0:
                raise DegenerateNetworkError(
                    f"tier {d.name} has one bank but a same-tier liability"
                )

        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(p_bar[:, None] > 0, owed / p_bar[:, None], 0.0)
            self.ext_share_tier = np.where(p_bar > 0, ext / p_bar, 0.0)

        # cross-tier coefficients (c, d); the self term is carried separately
        self.cross = share / counts[None, :]
        self.self_coef = np.zeros(3)
        for d in Tier:
            self.cross[d, d] = 0.0
            if counts[d] > 1:
                self.self_coef[d] = share[d, d] / (counts[d] - 1.0)

        self.tier_of_bank = network.tier_of_bank()
        self.p_bar_tier = p_bar
        self.p_bar_row = p_bar[self.tier_of_bank]
        self.self_row = self.self_coef[self.tier_of_bank]
        self.ext_share_row = self.ext_share_tier[self.tier_of_bank]
        self.slices = [network.tier_slice(t) for t in Tier]
        self.scale = p_bar.max() if p_bar.max() > 0 else 1.0


def clear_tiered_batch(network: GalacticNetwork, scenario_assets: np.ndarray,
                       tolerance: float = DEFAULT_TOLERANCE,
                       flag_tol: float = DEFAULT_FLAG_TOL,
                       start: str = "greatest") -> BatchClearingResult:
    """Clear many asset scenarios at once on the tier-compressed network.

    `scenario_assets` has shape (n_scenarios, n_banks): post-shock,
    post-bailout cash plus surviving bond value per bank.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    assets = np.atleast_2d(np.asarray(scenario_assets, dtype=float))
    if assets.shape[1] != network.n_banks:
        raise ValueError(
            f"expected {network.n_banks} banks per scenario, got {assets.shape[1]}"
        )
    # NaN fails the comparison too; `initial` lets an empty batch through
    if not assets.min(initial=0.0) >= 0.0:
        raise ValueError("scenario assets must be non-negative and not NaN")

    sys = _TierSystem(network)
    if start == "greatest":
        p = np.tile(sys.p_bar_row, (assets.shape[0], 1))
    elif start == "least":
        p = np.zeros_like(assets)
    else:
        raise ValueError("start must be 'greatest' or 'least'")

    rows = p.shape[0]
    block = _block_rows(p.shape[1])
    blk_buf = np.empty((min(block, rows), p.shape[1]))
    # tier sums of the current iterate; the sweep refreshes them block by block
    sums = np.stack([p[:, s].sum(axis=1) for s in sys.slices], axis=1)
    row_resid = np.empty(rows)
    residuals = []
    iterations = 0
    for iterations in range(MAX_ITERATIONS):
        # per-tier inflow base: cross-tier terms plus the own-tier sum term
        base = sums @ sys.cross + sums * sys.self_coef[None, :]
        for r0 in range(0, rows, block):
            r1 = min(r0 + block, rows)
            old = p[r0:r1]
            blk = blk_buf[:r1 - r0]
            for d, sl in enumerate(sys.slices):
                tier = blk[:, sl]
                np.multiply(old[:, sl], -sys.self_coef[d], out=tier)
                tier += base[r0:r1, d, None]
                tier += assets[r0:r1, sl]
                np.minimum(tier, sys.p_bar_tier[d], out=tier)
                sums[r0:r1, d] = tier.sum(axis=1)
            # the old rows are spent: take |new - old| in place, then overwrite
            np.subtract(old, blk, out=old)
            np.abs(old, out=old)
            old.max(axis=1, out=row_resid[r0:r1])
            old[...] = blk
        # an array max, unlike Python's max(), keeps a NaN residual
        resid = float(row_resid.max(initial=0.0))
        if resid <= tolerance * sys.scale:
            break
        residuals.append(resid)
    else:
        raise RuntimeError(
            f"tiered clearing failed to converge in {MAX_ITERATIONS} iterations: "
            f"last residuals {', '.join(f'{r:.3g}' for r in residuals[-3:])} "
            f"against tolerance {tolerance * sys.scale:.3g}; largest final "
            f"residual in scenario row {int(np.argmax(row_resid))}"
        )

    p_bar_row = np.broadcast_to(sys.p_bar_row, assets.shape)
    defaulted, shortfall, ext_paid = _finish(p, p_bar_row, sys.ext_share_row, flag_tol)
    log.debug(
        "tiered clearing: %d scenarios x %d banks, %d iterations",
        assets.shape[0], assets.shape[1], iterations,
    )
    return BatchClearingResult(
        payments=p,
        defaulted=defaulted,
        shortfall=shortfall,
        external_paid=ext_paid,
        iterations=iterations,
        residuals=tuple(residuals),
    )


def expand_network(network: GalacticNetwork, scenario_assets: np.ndarray) -> DenseNetwork:
    """Bilateral expansion of a tiered network under the even-split convention.

    Reference oracle for the compressed solver; quadratic in bank count, so
    meant for small tier sizes only.
    """
    counts = network.counts
    n = network.n_banks
    liab = np.zeros((n, n))
    ext = np.zeros(n)
    for c in Tier:
        rows = network.tier_slice(c)
        ext[rows] = network.profiles[c].owed_external
        for d in Tier:
            owed = network.profiles[c].owed_to(d)
            if owed == 0.0:
                continue
            cols = network.tier_slice(d)
            if c == d:
                if counts[d] < 2:
                    raise DegenerateNetworkError(
                        f"tier {d.name} has one bank but a same-tier liability"
                    )
                block = np.full((counts[c], counts[d]), owed / (counts[d] - 1))
                np.fill_diagonal(block, 0.0)
            else:
                block = np.full((counts[c], counts[d]), owed / counts[d])
            liab[rows, cols.start:cols.stop] = block
    return DenseNetwork(liab, ext, np.asarray(scenario_assets, dtype=float))
