"""Reference implementations the tests check the package against.

A dense Picard solver for arbitrary small networks (greatest and least
clearing vectors), the tiered Picard loop one full-width sweep at a time
from either start, the bilateral expansion of a tiered network under the
even-split convention, the interbank conservation identity, and a plain
form of the fictitious-default tier-sum solve, and the same solve in exact
rational arithmetic.  None of them is on a `galbank` command's path; the
tests import them from here.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from galbank import clearing
from galbank.clearing import (
    DEFAULT_FLAG_TOL,
    DEFAULT_TOLERANCE,
    MAX_ITERATIONS,
    SortedTiers,
    TierSumsResult,
    _inflow_base,
    _TierSystem,
    _tier_system,
)
from galbank.network import GalacticNetwork, Money, Tier, total_obligation

log = logging.getLogger(__name__)


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


def _dense_outcome(net, tolerance, start) -> ClearingOutcome:
    p, iters = _picard_dense(net, tolerance, start)
    p_bar = net.p_bar
    with np.errstate(divide="ignore", invalid="ignore"):
        ext_share = np.where(p_bar > 0, net.external_obligation / p_bar, 0.0)
    shortfall = np.maximum(p_bar - p, 0.0)
    log.debug("dense clearing: %d banks, %d iterations", net.n, iters)
    return ClearingOutcome(p, shortfall > DEFAULT_FLAG_TOL, shortfall,
                           float(p @ ext_share), iters)


def clearing_dense(net: DenseNetwork,
                   tolerance: float = DEFAULT_TOLERANCE) -> ClearingOutcome:
    """Greatest clearing vector of a dense network (Picard from total obligations)."""
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    return _dense_outcome(net, tolerance, "greatest")


def least_clearing_vector(net: DenseNetwork,
                          tolerance: float = DEFAULT_TOLERANCE) -> ClearingOutcome:
    """Least clearing vector (Picard from zero); uniqueness diagnostic."""
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    return _dense_outcome(net, tolerance, "least")


def full_width_reference(network, assets, tolerance=clearing.DEFAULT_TOLERANCE,
                         start="greatest"):
    """The tiered Picard loop as one full-width sweep per iteration.

    From the greatest start `clearing.clear_tiered_batch`, whole or a block
    at a time, must reproduce it bit for bit; from the least start (zero) it
    climbs to the least clearing vector.
    """
    sys = _TierSystem(network)
    if start == "greatest":
        p = np.tile(sys.p_bar_row, (assets.shape[0], 1))
    else:
        p = np.zeros_like(assets)
    p_new = np.empty_like(p)
    scratch = np.empty_like(p)
    residuals = []
    for iterations in range(clearing.MAX_ITERATIONS):
        sums = np.stack([p[:, s].sum(axis=1) for s in sys.slices], axis=1)
        base = sums @ sys.cross + sums * sys.self_coef[None, :]
        for d, sl in enumerate(sys.slices):
            blk = p_new[:, sl]
            np.multiply(p[:, sl], -sys.self_coef[d], out=blk)
            blk += base[:, d, None]
            blk += assets[:, sl]
            np.minimum(blk, sys.p_bar_tier[d], out=blk)
        np.subtract(p_new, p, out=scratch)
        np.abs(scratch, out=scratch)
        resid = float(scratch.max(initial=0.0))
        p, p_new = p_new, p
        if resid <= tolerance * sys.scale:
            break
        residuals.append(resid)
    else:
        raise RuntimeError("reference loop did not converge")
    shortfall = np.maximum(sys.p_bar_row[None, :] - p, 0.0)
    return {
        "payments": p,
        "defaulted": shortfall > clearing.DEFAULT_FLAG_TOL,
        "external_paid": p @ np.repeat(sys.ext_share_tier, network.counts),
        "iterations": iterations,
        "residuals": tuple(residuals),
    }


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
                block = np.full((counts[c], counts[d]), owed / (counts[d] - 1))
                np.fill_diagonal(block, 0.0)
            else:
                block = np.full((counts[c], counts[d]), owed / counts[d])
            liab[rows, cols.start:cols.stop] = block
    return DenseNetwork(liab, ext, np.asarray(scenario_assets, dtype=float))


def interbank_conservation_gap(network: GalacticNetwork) -> Money:
    """Total claims minus total interbank liabilities; zero by construction."""
    claims = sum(network.counts[t] * network.claims_face(t) for t in Tier)
    owed = sum(
        network.counts[t]
        * (total_obligation(network.profiles[t]) - network.profiles[t].owed_external)
        for t in Tier
    )
    return claims - owed


# --- fictitious-default tier sums, one step at a time ---------------------------

def count_below_full(tiers: SortedTiers, bound: np.ndarray) -> np.ndarray:
    """(rows, 3): per row and tier, the kept assets below bound[row, d], by a
    binary search over each whole prefix."""
    lo = np.zeros(tiers.starts.shape, dtype=np.intp)
    hi = tiers.lengths.copy()
    last = tiers.starts + tiers.lengths - 1
    for _ in range(int(tiers.lengths.max(initial=0)).bit_length()):
        mid = (lo + hi) // 2
        below = (lo < hi) & (tiers.values[np.minimum(tiers.starts + mid, last)] < bound)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    return lo


def sums_between_loop(tiers: SortedTiers, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(rows, 3): per row and tier, the sum of the sorted assets of ranks lo to
    hi - 1, one slice sum per (row, tier)."""
    out = np.zeros(lo.shape)
    for r, d in zip(*np.nonzero(hi > lo)):
        start = tiers.starts[r, d]
        out[r, d] = tiers.values[start + lo[r, d]:start + hi[r, d]].sum()
    return out


def reference_tier_sums(network: GalacticNetwork, tiers: SortedTiers,
                        shift) -> TierSumsResult:
    """`clearing.clear_tier_sums` step by step: every search over the whole
    prefix, one slice sum per (row, tier) that gains defaults, and the
    2-norm condition number (an SVD) of each re-solved row's 3x3 system
    against `clearing.SINGULAR_COND`.  Inputs are assumed valid."""
    shift = np.asarray(shift, dtype=float)
    counts = np.array(network.counts)
    sys = _tier_system(network)
    coef = sys.cross + np.diag(sys.self_coef)
    one_c = 1.0 + sys.self_coef
    full = counts * sys.p_bar_tier
    top = sys.p_bar_tier * one_c - shift
    tie = clearing.TIE_ULPS * np.finfo(float).eps * sys.p_bar_tier * one_c
    cut = tiers.lengths < counts

    def count_below(bound):
        found = count_below_full(tiers, bound)
        short = cut & (found == tiers.lengths)
        if short.any():
            r, d = np.argwhere(short)[0]
            raise RuntimeError(f"scenario row {r}, tier {Tier(d).name}: prefix too short")
        return found

    def implied(k, smallest, base):
        paid = smallest + k * (shift + base)
        return (counts - k) * sys.p_bar_tier + paid / one_c

    sums = np.tile(full, (tiers.rows, 1))
    k = np.zeros(sums.shape, dtype=np.intp)
    smallest = np.zeros(sums.shape)
    for rounds in range(clearing.MAX_ROUNDS + 1):
        base = _inflow_base(sums, coef)
        found = np.maximum(count_below(top - base - tie), k)
        gained = (found != k).any(axis=1)
        if not gained.any():
            break
        if rounds == clearing.MAX_ROUNDS:
            raise RuntimeError(f"did not settle in {clearing.MAX_ROUNDS} rounds")
        smallest += sums_between_loop(tiers, k, found)
        k = found
        rows = np.flatnonzero(gained)
        system = np.eye(len(Tier)) - (k[rows] / one_c)[:, :, None] * coef.T[None, :, :]
        cond = np.linalg.cond(system)
        if not np.all(cond < clearing.SINGULAR_COND):
            raise RuntimeError(f"singular tier system in scenario row "
                               f"{rows[np.argmax(~(cond < clearing.SINGULAR_COND))]}")
        solved = np.linalg.solve(system, implied(k[rows], smallest[rows], 0.0)[:, :, None])
        sums[rows] = np.where(k[rows] == 0, full, solved[:, :, 0])

    defaults = count_below(top - base - DEFAULT_FLAG_TOL * one_c)
    return TierSumsResult(sums, defaults, rounds, k, sums @ sys.ext_share_tier)


# --- fictitious default in exact rational arithmetic ------------------------------

def _exact_sum(values) -> Fraction:
    """The exact sum of floats, each an integer over a power of two."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max((d for _, d in ratios), default=1)
    return Fraction(sum(n * (den // d) for n, d in ratios), den)


def _solve_exact(a, b) -> list:
    """x with a x = b, by Gauss-Jordan elimination in Fractions (a nonsingular)."""
    m = [list(row) + [v] for row, v in zip(a, b)]
    for i in range(len(m)):
        p = next(r for r in range(i, len(m)) if m[r][i] != 0)
        m[i], m[p] = m[p], m[i]
        for r in range(len(m)):
            if r != i and m[r][i] != 0:
                f = m[r][i] / m[i][i]
                m[r] = [x - f * y for x, y in zip(m[r], m[i])]
    return [m[i][-1] / m[i][i] for i in range(len(m))]


@dataclass(frozen=True)
class ExactClearing:
    sums: list              # per tier, the banks' payments in all, Q
    defaults: list          # per tier, the banks short by more than DEFAULT_FLAG_TOL
    external_paid: Fraction  # paid on the outside obligations, Q


def exact_clearing(assets, profiles, counts, shift) -> ExactClearing:
    """Eisenberg and Noe's fictitious-default algorithm in exact rationals.

    `assets` is one scenario's float assets per bank in tier order, each an
    exact binary rational; bank j of tier d holds a_j + shift[d].  The even
    split gives, per unit of tier c's payments, coef[c][d] to each bank of
    tier d (owed(c->d) / pbar_c over count_d, or count_d - 1 within a tier),
    so with tier sums S bank j pays min(pbar_d, (a_j + shift_d + B_d) /
    (1 + c_d)), B_d = sum_c S_c coef[c][d], c_d = coef[d][d].  It defaults
    strictly below t_d = pbar_d (1 + c_d) - B_d - shift_d.  From full
    payment, each round counts the defaults, adds the new ones' assets and
    solves for S exactly, until no count moves.
    """
    tiers = range(len(counts))
    owed = [[Fraction(profiles[c].owed_to(d)) for d in tiers] for c in tiers]
    ext = [Fraction(profiles[c].owed_external) for c in tiers]
    pbar = [sum(owed[c]) + ext[c] for c in tiers]
    coef = [[owed[c][d] / pbar[c] / (counts[d] - (c == d)) if owed[c][d] else Fraction(0)
             for d in tiers] for c in tiers]
    one_c = [1 + coef[d][d] for d in tiers]
    shift = [Fraction(s) for s in shift]
    bounds = np.cumsum([0, *counts]).tolist()
    values = [np.sort(assets[bounds[d]:bounds[d + 1]]).tolist() for d in tiers]

    sums = [counts[d] * pbar[d] for d in tiers]
    k, smallest = [0] * len(counts), [Fraction(0)] * len(counts)
    while True:
        base = [sum(sums[c] * coef[c][d] for c in tiers) for d in tiers]
        top = [pbar[d] * one_c[d] - base[d] - shift[d] for d in tiers]
        found = [bisect.bisect_left(values[d], top[d]) for d in tiers]
        assert all(f >= n for f, n in zip(found, k)), "a default was undone"
        if found == k:
            break
        smallest = [smallest[d] + _exact_sum(values[d][k[d]:found[d]]) for d in tiers]
        k = found
        system = [[(c == d) - k[d] / one_c[d] * coef[c][d] for c in tiers] for d in tiers]
        rhs = [(counts[d] - k[d]) * pbar[d] + (smallest[d] + k[d] * shift[d]) / one_c[d]
               for d in tiers]
        sums = _solve_exact(system, rhs)
    flag = Fraction(DEFAULT_FLAG_TOL)
    defaults = [bisect.bisect_left(values[d], top[d] - flag * one_c[d]) for d in tiers]
    paid = sum(sums[c] * ext[c] / pbar[c] for c in tiers if ext[c])
    return ExactClearing(sums, defaults, paid)
