"""Clearing payment vectors for interbank networks.

Payments settle at the fixed point p_i = min(pbar_i, assets_i + inflows_i)
where each debtor repays creditors in proportion to face liabilities.
Picard iteration from total obligations converges monotonically down to
the greatest clearing vector (the canonical output); iteration from zero
climbs to the least vector and serves as a uniqueness diagnostic.

A dense reference solves arbitrary small networks.  The calibrated
17,501-bank network has two tiered solvers, both exact for the even-split
convention, under which a bank's inflow depends on payments only through
the three tier sums:

* `clear_tiered_batch`: Picard iteration over the whole payment vector.
  It is bound by memory traffic, not arithmetic.  Each iteration computes
  the tier inflow base for the whole batch from the tier sums, then sweeps
  the batch a few scenario rows at a time (`_block_rows`, sized to the
  per-core L2 cache): the rows' new iterate goes into one small block
  buffer, the next iteration's tier sums and the rows' residual are taken
  from it while it is in cache, and it is copied back over the old iterate.
  So an iteration streams the iterate and the assets through memory once,
  and a call holds two batch-wide arrays (the iterate and, at the end, the
  shortfall) besides the caller's assets.  Blocking changes no result bit:
  every element sees the same operations in the same order as in a
  full-width sweep, each row's tier sum is the same pairwise sum over the
  same contiguous row segment, and a maximum does not depend on the order
  it is taken in.

* `clear_tier_sums`: Eisenberg and Noe's (2001) fictitious-default
  algorithm on the three tier sums.  A bank of tier d defaults exactly when
  its assets lie below a tier threshold set by the tier sums; given the
  defaulting set, the sums solve a 3x3 linear system.  Each row's assets
  are sorted per tier once (`SortedTiers`), so a round is a binary search
  per tier plus a sum over the banks that newly default, never a pass over
  all banks.  A bailout is a per-tier shift of the sorted assets, so it
  re-sorts nothing.  Started with every bank solvent, the defaulting set
  only grows and settles, in one or two rounds on the calibrated network,
  at the greatest clearing vector.

`simulate` still runs the Picard sweep: the CSVs print 17 significant
digits, and the two solvers' losses differ in the last few of them (the
Picard iterate stops within its tolerance), so moving `simulate` over
re-records the output bytes.  The frontier runs on `clear_tier_sums`; its
CSVs depend only on whether each criterion holds, and they do not move.
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
# fictitious-default rounds; every round but the last adds a default, so a
# row never needs more than n_banks + 1, and the calibrated network needs 1-2
MAX_ROUNDS = 1_000
# a 3x3 tier system this ill-conditioned leaves fewer than 4 correct digits
SINGULAR_COND = 1e12
# the tier-sum solve counts a bank as solvent when its assets lie within this
# many ulps of pbar (1 + c) below its threshold: at such a tie the threshold's
# rounding (a few ulps of pbar (1 + c)) decides, not the network
TIE_ULPS = 16
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


@dataclass(frozen=True, eq=False)
class SortedTiers:
    """Scenario assets sorted ascending within each tier.

    `values[d]` is a (rows, count_d) view of one (rows, n_banks) array, each
    row sorted.  No prefix sums are kept: they would double the bytes a
    chunk holds, and a solve sums each row's defaulting assets once, as the
    defaulting set grows (`sums_between`).
    """

    values: tuple

    @classmethod
    def from_assets(cls, network: GalacticNetwork, assets: np.ndarray) -> "SortedTiers":
        """Sort in place: `assets` (rows, n_banks) becomes the sorted values."""
        if assets.ndim != 2 or assets.shape[1] != network.n_banks:
            raise ValueError(
                f"expected (rows, {network.n_banks}) assets, got shape {assets.shape}"
            )
        # NaN fails the comparison too; `initial` lets an empty batch through
        if not assets.min(initial=0.0) >= 0.0:
            raise ValueError("scenario assets must be non-negative and not NaN")
        values = []
        for d in Tier:
            tier = assets[:, network.tier_slice(d)]
            tier.sort(axis=1)
            values.append(tier)
        return cls(tuple(values))

    @staticmethod
    def bytes_per_row(n_banks: int) -> int:
        """Bytes one scenario row holds: its sorted assets."""
        return n_banks * np.dtype(float).itemsize

    @property
    def rows(self) -> int:
        return self.values[0].shape[0]

    @property
    def nbytes(self) -> int:
        return sum(v.nbytes for v in self.values)

    def count_below(self, bound: np.ndarray) -> np.ndarray:
        """(rows, 3): per row and tier d, the assets below bound[row, d]."""
        return np.stack([_count_below(v, bound[:, d]) for d, v in enumerate(self.values)],
                        axis=1)

    def sums_between(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """(rows, 3): per row r and tier d, the sum of the sorted assets with
        ranks lo[r, d] to hi[r, d] - 1; a pass over those assets only."""
        out = np.zeros(lo.shape)
        for r, d in zip(*np.nonzero(hi > lo)):
            out[r, d] = self.values[d][r, lo[r, d]:hi[r, d]].sum()
        return out


@dataclass(frozen=True)
class TierSumsResult:
    """Greatest clearing vector of many scenarios, as per-tier totals."""

    sums: np.ndarray      # (rows, 3) payments per tier, Q
    defaults: np.ndarray  # (rows, 3) banks per tier whose shortfall exceeds flag_tol
    rounds: int           # fictitious-default rounds (linear solves)


def _count_below(values: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Per row, how many of the row's ascending `values` lie below `bound[row]`.

    A binary search over all rows at once: about log2(n) gathers of one
    element per row, never a pass over a row.
    """
    rows, n = values.shape
    row = np.arange(rows)
    lo = np.zeros(rows, dtype=np.intp)
    hi = np.full(rows, n, dtype=np.intp)
    for _ in range(n.bit_length()):
        mid = (lo + hi) // 2
        below = (lo < hi) & (values[row, np.minimum(mid, n - 1)] < bound)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    return lo


def _inflow_base(sums: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sums @ coef, one row at a time whatever the batch (no BLAS blocking)."""
    return sums[:, :1] * coef[0] + sums[:, 1:2] * coef[1] + sums[:, 2:] * coef[2]


def clear_tier_sums(network: GalacticNetwork, tiers: SortedTiers, shift) -> TierSumsResult:
    """Fictitious-default clearing of sorted scenario assets plus a tier shift.

    Bank j of tier d holds `a_j + shift[d]`, with `a_j` from `tiers`.  Given
    the tier sums S it pays min(pbar_d, (a_j + shift_d + B_d) / (1 + c_d)),
    with B = S @ (cross + diag(c)) its inflow base and c_d its own-tier
    coefficient, so it defaults exactly when a_j < t_d = pbar_d (1 + c_d) -
    B_d - shift_d.  Starting from S = count * pbar, each round counts the
    defaults k_d below t_d, less a rounding margin of TIE_ULPS ulps of
    pbar_d (1 + c_d) so that a bank exactly at its threshold stays solvent,
    and solves the linear system for S that this defaulting set implies,
    until no row gains a default.  Defaults are flagged where the shortfall
    exceeds DEFAULT_FLAG_TOL, i.e. below t_d - DEFAULT_FLAG_TOL (1 + c_d).
    The solve is exact; every row's final sums are still checked against
    the Picard residual bound DEFAULT_TOLERANCE * max(pbar).
    """
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (len(Tier),) or not np.all(np.isfinite(shift) & (shift >= 0)):
        raise ValueError(f"shift must be 3 finite non-negative amounts, got {shift}")
    counts = np.array(network.counts)
    if tuple(v.shape[1] for v in tiers.values) != network.counts:
        raise ValueError(
            f"sorted tiers hold {[v.shape[1] for v in tiers.values]} banks per tier, "
            f"the network {list(network.counts)}"
        )

    sys = _TierSystem(network)
    coef = sys.cross + np.diag(sys.self_coef)
    one_c = 1.0 + sys.self_coef
    full = counts * sys.p_bar_tier
    top = sys.p_bar_tier * one_c - shift
    tie = TIE_ULPS * np.finfo(float).eps * sys.p_bar_tier * one_c

    def implied(k, smallest, base):
        """Tier sums of the payments when the k smallest assets, summing to
        `smallest`, default, under inflow base `base`."""
        paid = smallest + k * (shift + base)
        return (counts - k) * sys.p_bar_tier + paid / one_c

    sums = np.tile(full, (tiers.rows, 1))
    k = np.zeros(sums.shape, dtype=np.intp)
    smallest = np.zeros(sums.shape)  # per row and tier, the sum of the k smallest
    for rounds in range(MAX_ROUNDS + 1):
        base = _inflow_base(sums, coef)
        # the defaulting set only grows; rounding cannot undo a default
        found = np.maximum(tiers.count_below(top - base - tie), k)
        gained = (found != k).any(axis=1)
        if not gained.any():
            break
        if rounds == MAX_ROUNDS:
            raise RuntimeError(
                f"fictitious-default clearing did not settle in {MAX_ROUNDS} rounds: "
                f"{int(gained.sum())} scenario row(s) still gaining defaults, first "
                f"row {int(np.argmax(gained))}"
            )
        smallest += tiers.sums_between(k, found)
        k = found
        # S = implied(k, smallest, S @ coef) is linear in S
        system = np.eye(len(Tier)) - (k / one_c)[:, :, None] * coef.T[None, :, :]
        cond = np.linalg.cond(system)
        bad = ~(cond < SINGULAR_COND)
        if bad.any():
            r = int(np.argmax(bad))
            raise RuntimeError(
                f"fictitious-default clearing: singular tier system in scenario row {r} "
                f"(condition number {cond[r]:.3g}, defaults per tier {k[r].tolist()})"
            )
        sums = np.linalg.solve(system, implied(k, smallest, 0.0)[:, :, None])[:, :, 0]
        # a tier without defaults pays in full: its equation reads S_d = count_d pbar_d
        np.copyto(sums, full, where=k == 0)

    # moving the sums to the ones their payments add up to moves a bank's
    # inflow, and so bounds its Picard residual, by |(implied - sums) @ coef|
    row_resid = np.abs(_inflow_base(implied(k, smallest, base) - sums, coef))
    row_resid = row_resid.max(axis=1, initial=0.0)
    limit = DEFAULT_TOLERANCE * sys.scale
    if not np.all(row_resid <= limit):
        r = int(np.argmax(~(row_resid <= limit)))
        raise RuntimeError(
            f"fictitious-default clearing: residual {row_resid[r]:.3g} in scenario row "
            f"{r} exceeds tolerance {limit:.3g} after {rounds} round(s)"
        )
    defaults = tiers.count_below(top - base - DEFAULT_FLAG_TOL * one_c)
    log.debug("tier-sum clearing: %d scenarios, %d rounds", tiers.rows, rounds)
    return TierSumsResult(sums=sums, defaults=defaults, rounds=rounds)


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
