"""Clearing payment vectors for interbank networks.

Payments settle at the fixed point p_i = min(pbar_i, assets_i + inflows_i)
where each debtor repays creditors in proportion to face liabilities.
Picard iteration from total obligations converges monotonically down to
the greatest clearing vector, the one the losses come from.  Iteration from
zero climbs to the least vector; the tests run it (`tests/oracles.py`) to
check that the calibrated network's clearing vector is unique.

The calibrated 17,501-bank network has two tiered solvers, both exact for
the even-split convention, under which a bank's inflow depends on payments
only through the three tier sums (the dense reference for arbitrary small
networks lives with the tests, in `tests/oracles.py`):

* `clear_tiered_batch`: Picard iteration over the whole payment vector.
  It is bound by memory traffic, not arithmetic.  Scenario rows are
  independent but for the batch-wide stopping rule: every row stops at the
  batch's sweep, the first at which every row is within tolerance.  So
  `risk.simulate_records` clears a chunk a few rows at a time
  (`_block_rows`, sized to the per-core L2 cache), each block through all
  its sweeps while it stays in cache, accounting it at once, and draws the
  assets 16 rows at a time in the order it clears them: no chunk-wide float
  array exists.  A block stops at the first sweep within tolerance no
  earlier than the latest stop of the blocks before it (`min_iterations`).
  The chunk's rows run in descending order of common factor M (the first
  draw on each scenario's stream), so the worst-shocked block usually sets
  the chunk's sweep first; a pass whose blocks stopped at different sweeps
  runs again from its latest stop.  Row order decides only how often a pass
  runs again (at no benchmark seed), and blocking changes no result bit:
  every row runs exactly the sweeps of the full-width loop, every element
  sees the same operations in the same order, each row's tier sum is the
  same pairwise sum over the same contiguous row segment, a block's 3x3
  inflow-base product gives each row the bits the whole batch's product
  gives it (the bitwise tests against the full-width loop check this for
  the BLAS in use), and a maximum does not depend on the order it is taken
  in.  A block makes no n-wide BLAS call: only the central bank owes
  outside the system, so its payments times its outside share are the
  outside payment.  With one central bank (the calibration allows no other
  count) that has the bits of the full-row product; a network built
  directly with several central banks sums the few terms in another order
  than a BLAS dot would, and the last bits can differ.

* `clear_tier_sums`: Eisenberg and Noe's (2001) fictitious-default
  algorithm on the three tier sums.  A bank of tier d defaults exactly when
  its assets lie below a tier threshold set by the tier sums; given the
  defaulting set, the sums solve a 3x3 linear system, re-solved each round
  only for the rows that gained a default.  Each row's assets are sorted
  per tier once (`SortedTiers`), so a round is one binary search over every
  row and tier, started at the last round's count because the set only
  grows, plus one slice sum per (row, tier) over the banks that newly
  default, never a pass over all banks.  A bailout is a per-tier shift of
  the sorted assets, so it re-sorts nothing.  Started with every bank
  solvent, the defaulting set only grows and settles, in one or two rounds
  on the calibrated network, at the greatest clearing vector.  Before each
  solve a guard rejects a near-singular system: its exact 1-norm condition
  number, from the adjugate and determinant of the 3x3 matrix (no SVD),
  must stay below `SINGULAR_COND`.  Rows are independent, so one call
  solves any number of chunks' rows at once with the bits each chunk gets
  alone (`SortedTiers.concat`).

  A bailout only adds non-negative cash, so no bailout defaults more banks
  than none does.  `defaulting_prefixes` therefore keeps, per row and tier,
  only the banks that default at zero shift, plus one: a row defaults about
  200 of 17,325 big banks at the calibration where the frontier's criteria
  can be met (about 82% at the default calibration).  On those prefixes
  the solve gives the bits of the full sort at any shift; a count that
  reaches a cut prefix would need an asset it dropped, and raises.  The
  prefixes are copied out of the sorted draw, so the frontier draws every
  block of a chunk into one buffer.

Both solvers take +inf assets.  Inflows are non-negative, so a bank of tier
d with assets at least p_bar_d (1 + c_d) pays p_bar_d at every Picard sweep
and lies above every fictitious-default threshold: its exact assets reach
no result, and +inf gives the same bits (min(inf, p_bar) is p_bar, and inf
is never counted below a threshold nor summed).  `risk` hands such banks
in as +inf, so that the shock sampler need not transform their losses.

`simulate` still runs the Picard sweep: the CSVs print 17 significant
digits, and the two solvers' losses differ in the last few of them (the
Picard iterate stops within its tolerance), so moving `simulate` over
re-records the output bytes.  The frontier runs on `clear_tier_sums`; its
CSVs depend only on whether each criterion holds, and they do not move.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from .network import GalacticNetwork, Tier

log = logging.getLogger(__name__)

DEFAULT_TOLERANCE = 1e-9   # residual bound, relative to max total obligation
DEFAULT_FLAG_TOL = 1e-6    # Q; shortfall above this flags a default
MAX_ITERATIONS = 100_000
# fictitious-default rounds; every round but the last adds a default, so a
# row never needs more than n_banks + 1, and the calibrated network needs 1-2
MAX_ROUNDS = 1_000
# a 3x3 tier system this ill-conditioned (1-norm) leaves fewer than 4 correct digits
SINGULAR_COND = 1e12
# the tier-sum solve counts a bank as solvent when its assets lie within this
# many ulps of pbar (1 + c) below its threshold: at such a tie the threshold's
# rounding (a few ulps of pbar (1 + c)) decides, not the network
TIE_ULPS = 16
# Per-core L2 cache of the 2-core reference box.  The tiered sweep runs a
# few scenario rows at a time through all their sweeps, so that the rows'
# two iterate buffers and their assets stay in L2 together (4 rows at
# 17,501 banks; 3 to 6 time alike on a 500-row chunk).
L2_CACHE_BYTES = 2 * 2**20


def _block_rows(n_banks: int) -> int:
    return max(1, L2_CACHE_BYTES // (3 * 8 * n_banks))


@dataclass(frozen=True)
class BatchClearingResult:
    """Vectorized clearing of many asset scenarios over one network."""

    payments: np.ndarray       # (n_scenarios, n_banks)
    defaulted: np.ndarray      # bool, same shape
    external_paid: np.ndarray  # (n_scenarios,)
    iterations: int
    residuals: tuple           # sup-norm Picard residual per iteration


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

        self.p_bar_tier = p_bar
        self.p_bar_row = p_bar[network.tier_of_bank()]
        self.slices = [network.tier_slice(t) for t in Tier]
        self.scale = p_bar.max() if p_bar.max() > 0 else 1.0


@functools.lru_cache(maxsize=8)
def _tier_system(network: GalacticNetwork) -> _TierSystem:
    """The network's `_TierSystem`, built once: `simulate` clears a chunk in
    125 calls, and the solvers only read it."""
    return _TierSystem(network)


def pays_in_full(network: GalacticNetwork) -> np.ndarray:
    """Per tier d, pbar_d (1 + c_d): a bank of tier d holding this much pays
    pbar_d at every Picard sweep and lies above every fictitious-default threshold."""
    sys = _tier_system(network)
    return sys.p_bar_tier * (1.0 + sys.self_coef)


def _check_assets(assets: np.ndarray) -> None:
    # NaN fails the comparison too; `initial` lets an empty batch through
    if not assets.min(initial=0.0) >= 0.0:
        raise ValueError("scenario assets must be non-negative and not NaN")


def clear_tiered_batch(network: GalacticNetwork, scenario_assets: np.ndarray,
                       min_iterations: int = 0) -> BatchClearingResult:
    """Clear many asset scenarios at once on the tier-compressed network.

    `scenario_assets` (n_scenarios, n_banks): post-shock, post-bailout cash
    plus surviving bond value per bank, +inf for a bank that surely pays in
    full (see the module docstring).  Picard iteration starts at the total
    obligations.  Every row stops at the batch's sweep: the first, at or
    after sweep `min_iterations`, at which every row is within
    DEFAULT_TOLERANCE * max(pbar).
    """
    assets = np.atleast_2d(np.asarray(scenario_assets, dtype=float))
    rows, n = assets.shape
    if n != network.n_banks:
        raise ValueError(f"expected {network.n_banks} banks per scenario, got {n}")
    _check_assets(assets)

    sys = _tier_system(network)
    limit = DEFAULT_TOLERANCE * sys.scale
    cur, nxt = np.empty((rows, n)), np.empty((rows, n))
    np.copyto(cur, sys.p_bar_row)
    sums = np.empty((rows, len(Tier)))  # per row, the tier sums of its iterate
    for d, sl in enumerate(sys.slices):
        sums[:, d] = cur[:, sl].sum(axis=1)
    row_resid = np.empty(rows)          # per row, the residual of its last sweep
    resid = []                          # per sweep, the largest residual
    while True:
        s = len(resid)
        # per-tier inflow base: cross-tier terms plus the own-tier sum term
        base = sums @ sys.cross + sums * sys.self_coef[None, :]
        for d, sl in enumerate(sys.slices):
            tier = nxt[:, sl]
            np.multiply(cur[:, sl], -sys.self_coef[d], out=tier)
            tier += base[:, d, None]
            tier += assets[:, sl]
            np.minimum(tier, sys.p_bar_tier[d], out=tier)
            sums[:, d] = tier.sum(axis=1)
        # the old iterate is spent: take |new - old| in it, then swap
        np.subtract(cur, nxt, out=cur)
        np.abs(cur, out=cur)
        cur.max(axis=1, out=row_resid)
        resid.append(row_resid.max(initial=0.0))
        cur, nxt = nxt, cur
        if (s >= min_iterations and resid[-1] <= limit) or s == MAX_ITERATIONS - 1:
            break
    if not resid[-1] <= limit:
        raise RuntimeError(
            f"tiered clearing failed to converge in {MAX_ITERATIONS} iterations: "
            f"last residuals {', '.join(f'{r:.3g}' for r in resid[-3:])} "
            f"against tolerance {limit:.3g}; largest final "
            f"residual in scenario row {int(np.argmax(row_resid))}"
        )

    log.debug("tiered clearing: %d scenarios x %d banks, %d iterations", rows, n, s)
    np.subtract(sys.p_bar_row, cur, out=nxt)
    np.maximum(nxt, 0.0, out=nxt)
    return BatchClearingResult(
        payments=cur,
        defaulted=nxt > DEFAULT_FLAG_TOL,
        # only the central bank owes outside the system (the network checks it)
        external_paid=(cur[:, sys.slices[Tier.CENTRAL]]
                       * sys.ext_share_tier[Tier.CENTRAL]).sum(axis=1),
        iterations=s,
        residuals=tuple(float(r) for r in resid[:s]),
    )


@dataclass(frozen=True, eq=False)
class SortedTiers:
    """Scenario assets sorted ascending within each tier, each cut to a prefix.

    Row r keeps the `lengths[r, d]` smallest assets of tier d; `values`
    holds every row's prefix of every tier, in row then tier order, so the
    layout is the lengths: a prefix begins at `starts[r, d]`, the running
    sum of the lengths before it (derived here, never passed in).  All rows
    and tiers sit in one flat buffer, so a search step reads every row and
    tier in one gather.  `from_assets` keeps every bank, `prefixes` cuts
    each prefix shorter, and `concat` joins the rows of several into one
    buffer, so that one solve covers them all.  No prefix sums are kept: a
    solve sums each row's defaulting assets once, as the defaulting set
    grows (`sums_between`).
    """

    values: np.ndarray   # flat, every row's kept prefix of every tier
    lengths: np.ndarray  # (rows, 3) how many assets each prefix keeps
    starts: np.ndarray = field(init=False)  # (rows, 3) where each prefix begins

    def __post_init__(self):
        flat = self.lengths.ravel()
        object.__setattr__(self, "starts", (np.cumsum(flat) - flat).reshape(self.lengths.shape))

    @classmethod
    def from_assets(cls, network: GalacticNetwork, assets: np.ndarray) -> "SortedTiers":
        """Sort in place: `assets` (rows, n_banks) becomes the sorted values."""
        if assets.ndim != 2 or assets.shape[1] != network.n_banks:
            raise ValueError(
                f"expected (rows, {network.n_banks}) assets, got shape {assets.shape}"
            )
        _check_assets(assets)
        for d in Tier:
            assets[:, network.tier_slice(d)].sort(axis=1)
        return cls(assets.reshape(-1), np.tile(network.counts, (len(assets), 1)))

    @classmethod
    def concat(cls, parts) -> "SortedTiers":
        """The rows of `parts`, in order, in one flat buffer.

        The buffers grow by each part in place, and a part the caller no
        longer refers to is freed once copied, before the next is taken: the
        call then holds the result and what `parts` holds.
        """
        values = np.empty(0)
        lengths = np.empty((0, len(Tier)), dtype=np.intp)
        for part in parts:
            used, rows = values.size, len(lengths)
            values.resize(used + part.values.size, refcheck=False)
            lengths.resize((rows + part.rows, len(Tier)), refcheck=False)
            values[used:] = part.values
            lengths[rows:] = part.lengths
            del part
        return cls(values, lengths)

    def prefixes(self, keep: np.ndarray) -> "SortedTiers":
        """Each row and tier's `keep[r, d]` smallest kept assets, copied in
        one call into a buffer of their own.

        The copy joins slices: an index array for one gather would take as
        many bytes as the copy itself."""
        if keep.shape != self.lengths.shape or not ((keep >= 0) & (keep <= self.lengths)).all():
            raise ValueError(f"prefix lengths must be {self.lengths.shape} counts "
                             f"between 0 and the lengths kept")
        out = SortedTiers(np.empty(int(keep.sum())), keep)
        if keep.size:
            np.concatenate([self.values[a:a + k] for a, k in
                            zip(self.starts.ravel().tolist(), keep.ravel().tolist())],
                           out=out.values)
        return out

    @property
    def rows(self) -> int:
        return self.lengths.shape[0]

    @property
    def nbytes(self) -> int:
        """Bytes of the kept assets and their layout."""
        return self.values.nbytes + self.starts.nbytes + self.lengths.nbytes

    def count_below(self, bound: np.ndarray, lo=None, hi=None, guess=None) -> np.ndarray:
        """(rows, 3): per row and tier d, the kept assets below bound[row, d],
        clamped to [lo[row, d], hi[row, d]] (by default 0 and the prefix).

        A binary search over all rows and tiers at once, between lo and hi:
        about log2(hi - lo) gathers of one element per row and tier, never a
        pass over a row.  Given a `guess` in [lo, hi], it first steps away
        from the guess by doubling steps until the count is bracketed: about
        2 log2(|count - guess| + 1) gathers, for the farthest row and tier.
        """
        lo = np.zeros(self.lengths.shape, dtype=np.intp) if lo is None else lo
        hi = self.lengths if hi is None else hi
        last = self.starts + self.lengths - 1

        def below(rank):
            return self.values[np.minimum(self.starts + rank, last)] < bound

        if guess is not None:
            up = (guess < hi) & below(guess)  # the count exceeds the guess
            lo, hi = np.where(up, guess + 1, lo), np.where(up, hi, guess)
            moving, step = lo < hi, 1
            while moving.any():
                probe = np.where(up, np.minimum(lo + step - 1, hi - 1),
                                 np.maximum(hi - step, lo))
                hit = below(probe)  # the count lies beyond the probe
                lo = np.where(moving & hit, probe + 1, lo)
                hi = np.where(moving & ~hit, probe, hi)
                moving &= (hit == up) & (lo < hi)
                step *= 2
        for _ in range(int((hi - lo).max(initial=0)).bit_length()):
            mid = (lo + hi) // 2
            is_below = (lo < hi) & below(mid)
            lo = np.where(is_below, mid + 1, lo)
            hi = np.where(is_below, hi, mid)
        return lo

    def sums_between(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """(rows, 3): per row r and tier d, the sum of the sorted assets with
        ranks lo[r, d] to hi[r, d] - 1; a pass over those assets only.

        Each range is summed alone, with the pairwise sum of a slice: a
        segmented reduction (`np.add.reduceat`) adds in sequence and moves
        the last bits."""
        out = np.zeros(lo.shape)
        some = hi > lo
        first = self.starts[some]
        values, add = self.values, np.add.reduce
        out[some] = [add(values[a:b]) for a, b in zip((first + lo[some]).tolist(),
                                                       (first + hi[some]).tolist())]
        return out


@dataclass(frozen=True)
class TierSumsResult:
    """Greatest clearing vector of many scenarios, as per-tier totals."""

    sums: np.ndarray           # (rows, 3) payments per tier, Q
    defaults: np.ndarray       # (rows, 3) banks per tier short by over DEFAULT_FLAG_TOL
    rounds: int                # fictitious-default rounds (linear solves)
    defaulting: np.ndarray     # (rows, 3) banks per tier in the final defaulting set
    external_paid: np.ndarray  # (rows,) paid on the outside obligation, Q


def _inflow_base(sums: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sums @ coef, one row at a time whatever the batch (no BLAS blocking)."""
    return sums[:, :1] * coef[0] + sums[:, 1:2] * coef[1] + sums[:, 2:] * coef[2]


def _condition_1(a: np.ndarray) -> np.ndarray:
    """1-norm condition number of each 3x3 matrix in the stack `a` (m, 3, 3),
    exactly, from its adjugate and determinant; inf where the determinant
    is 0."""
    # cofactor (i, j) is a[i+1, j+1] a[i+2, j+2] - a[i+1, j+2] a[i+2, j+1], indices mod 3
    ahead, behind = [1, 2, 0], [2, 0, 1]
    near, far = a[:, ahead, :], a[:, behind, :]
    cof = near[:, :, ahead] * far[:, :, behind] - near[:, :, behind] * far[:, :, ahead]
    det = (a[:, 0, :] * cof[:, 0, :]).sum(axis=1)
    # the inverse is the transposed cofactors over det: its largest column
    # sum is the cofactors' largest row sum
    norm = np.abs(a).sum(axis=1).max(axis=1)
    norm_adj = np.abs(cof).sum(axis=2).max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(det != 0, norm * norm_adj / np.abs(det), np.inf)


def clear_tier_sums(network: GalacticNetwork, tiers: SortedTiers, shift) -> TierSumsResult:
    """Fictitious-default clearing of sorted scenario assets plus a tier shift.

    Bank j of tier d holds `a_j + shift[d]`, with `a_j` from `tiers`, sorted
    from `network`'s banks, whose counts are the network's.  Given the
    tier sums S it pays min(pbar_d, (a_j + shift_d + B_d) / (1 + c_d)),
    with B = S @ (cross + diag(c)) its inflow base and c_d its own-tier
    coefficient, so it defaults exactly when a_j < t_d = pbar_d (1 + c_d) -
    B_d - shift_d.  Starting from S = count * pbar, each round counts the
    defaults k_d below t_d, less a rounding margin of TIE_ULPS ulps of
    pbar_d (1 + c_d) so that a bank exactly at its threshold stays solvent,
    searching upward from the last round's k_d, and solves the linear
    system for S that this defaulting set implies, until no row gains a
    default.  Only the rows that gained a default are solved again: the
    others' systems, and so their sums, are unchanged.  A system whose
    1-norm condition number reaches SINGULAR_COND raises, naming its row.
    Defaults are flagged where the shortfall exceeds DEFAULT_FLAG_TOL, i.e.
    below t_d - DEFAULT_FLAG_TOL (1 + c_d).  The solve is exact; every row's
    final sums are still checked against the Picard residual bound
    DEFAULT_TOLERANCE * max(pbar).  Each row's results are independent of
    the other rows in `tiers`, bit for bit (only `rounds` is batch-wide).

    A search that counts all of a row's kept assets below a threshold, where
    `tiers` keeps fewer than the tier's banks, cannot tell how many default:
    it raises, naming the row and tier.
    """
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (len(Tier),) or not np.all(np.isfinite(shift) & (shift >= 0)):
        raise ValueError(f"shift must be 3 finite non-negative amounts, got {shift}")
    counts = np.array(network.counts)

    sys = _tier_system(network)
    coef = sys.cross + np.diag(sys.self_coef)
    one_c = 1.0 + sys.self_coef
    full = counts * sys.p_bar_tier
    top = pays_in_full(network) - shift
    tie = TIE_ULPS * np.finfo(float).eps * sys.p_bar_tier * one_c
    cut = tiers.lengths < counts

    def count_below(bound, lo=None, hi=None, guess=None):
        found = tiers.count_below(bound, lo, hi, guess)
        short = cut & (found == tiers.lengths)
        if short.any():
            r, d = np.argwhere(short)[0]
            raise RuntimeError(
                f"fictitious-default clearing: scenario row {r}, tier {Tier(d).name}: "
                f"all {found[r, d]} kept assets of {counts[d]} lie below the threshold; "
                f"the prefix was cut where fewer banks defaulted (monotonicity failure)"
            )
        return found

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
        # the defaulting set only grows, by a few banks after the first
        # round; rounding cannot undo a default
        found = count_below(top - base - tie, lo=k, guess=k if rounds else None)
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
        rows = np.flatnonzero(gained)
        system = np.eye(len(Tier)) - (k[rows] / one_c)[:, :, None] * coef.T[None, :, :]
        cond = _condition_1(system)
        bad = ~(cond < SINGULAR_COND)
        if bad.any():
            i = int(np.argmax(bad))
            raise RuntimeError(
                f"fictitious-default clearing: singular tier system in scenario row "
                f"{rows[i]} (condition number {cond[i]:.3g}, defaults per tier "
                f"{k[rows[i]].tolist()})"
            )
        solved = np.linalg.solve(system, implied(k[rows], smallest[rows], 0.0)[:, :, None])
        # a tier without defaults pays in full: its equation reads S_d = count_d pbar_d
        sums[rows] = np.where(k[rows] == 0, full, solved[:, :, 0])

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
    # a flag margin at least the tie margin flags no bank beyond the k defaults
    flag = DEFAULT_FLAG_TOL * one_c
    defaults = count_below(top - base - flag, hi=np.where(flag >= tie, k, tiers.lengths),
                           guess=k)
    log.debug("tier-sum clearing: %d scenarios, %d rounds", tiers.rows, rounds)
    # only the central bank owes outside the system (the network checks it)
    external_paid = sums[:, Tier.CENTRAL] * sys.ext_share_tier[Tier.CENTRAL]
    return TierSumsResult(sums, defaults, rounds, k, external_paid)


def defaulting_prefixes(network: GalacticNetwork, assets: np.ndarray) -> SortedTiers:
    """Sorted tiers keeping, per row, only the assets a bailout can still default.

    `assets` (rows, n_banks) is sorted in place and solved at zero shift,
    and row r of tier d keeps its min(k_d + 1, count_d) smallest assets,
    k_d being its defaulting count there: their lengths are the layout
    (`SortedTiers.prefixes`).  They are copied out, so the caller may reuse
    `assets` at once.  A bailout only adds non-negative cash, so no shift
    defaults more banks than zero shift does: `clear_tier_sums` gives the
    same bits on these prefixes as on the full sort, and the one asset kept
    beyond k_d lets it tell k_d defaults from more, which it rejects.
    """
    tiers = SortedTiers.from_assets(network, assets)
    defaulting = clear_tier_sums(network, tiers, np.zeros(len(Tier))).defaulting
    return tiers.prefixes(np.minimum(defaulting + 1, tiers.lengths))
