"""Correlated fractional asset-loss scenarios.

Each bank's loss fraction has a beta(1,4) marginal (mean 20%) with 25%
equicorrelation imposed through a one-factor Gaussian copula:

    Z_i = sqrt(rho) * M + sqrt(1 - rho) * eps_i,   u_i = Phi(Z_i),
    loss_i = 1 - (1 - u_i)^(1/4).

Scenarios are keyed by (seed, scenario_index) through a counter-based
Philox stream, so any chunking or degree of parallelism reproduces the
same draws.  `sample_loss_matrix` is the one entry point and works a
chunk at a time: each row's stream yields its common factor M into a
(rows,) vector and its idiosyncratic normals straight into the row of the
(rows, n_banks) output, a fresh array or the leading rows of a buffer the
caller reuses (`out`); one in-place pass over the chunk then scales,
adds the common term, applies Phi and the inverse marginal, and clips to
[0, 1].  Every element sees the same operations as in a per-scenario
evaluation, so the result does not depend on how scenarios are grouped.
`common_factors` draws only the M of each scenario, for a caller that
orders its work by them before it draws the rows.

A caller that needs a bank's loss only above some level passes a per-bank
`floor`: a loss at or below it comes back as -inf.  Every normal is still
drawn, so the stream and the law do not change.  The loss is nondecreasing
in eps_i, so given M the floor is a cut on eps_i, Phi^{-1}(F(floor)) moved
by M.  Only the entries above their cut take the transform, through the same
operations in the same order, so each keeps its bits.  A row takes the
transform whole when its expected share above the cuts, from M alone,
exceeds `SKIP_CROSSOVER`: gathering most of a row costs more than it saves.
It also takes it whole unless each cut, pushed through the same operations,
comes out at or below its floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import special

# a row whose expected share of entries above their cuts exceeds this takes
# the whole-row transform: on 17,501-bank rows the gathered transform cost
# 0.12, 0.62 and 1.07-1.13 times the whole row's at shares 0.01, 0.5 and 0.8,
# so the two break even near 0.75
SKIP_CROSSOVER = 0.7
# how far each cut on eps is set below its exact value: far beyond the
# rounding of the cut and of its transform, and a negligible share of banks
CUT_SLACK = 1e-9


class ShockTarget(Enum):
    """Which asset bucket the fractional loss is applied to.

    EXTERNAL_ONLY hits outside assets; surviving bond value is untouched.
    ALL_ASSETS hits outside assets and surviving bond value together.
    Interbank claims are never shocked directly; they shrink through
    clearing, which avoids double-counting counterparty losses.
    """

    EXTERNAL_ONLY = "external_only"
    ALL_ASSETS = "all_assets"


@dataclass(frozen=True)
class ShockParams:
    """The shock's law; the bank count comes from the network it hits."""

    correlation: float = 0.25
    beta_a: float = 1.0
    beta_b: float = 4.0
    applies_to: ShockTarget = ShockTarget.EXTERNAL_ONLY
    exempt_central: bool = False

    def __post_init__(self):
        if not 0.0 <= self.correlation < 1.0:
            raise ValueError("correlation must lie in [0, 1)")
        if not (0 < self.beta_a < np.inf and 0 < self.beta_b < np.inf):
            raise ValueError("beta shape parameters must be positive and finite")


def _inverse_marginal(params: ShockParams, u: np.ndarray) -> None:
    """Overwrite the uniforms `u` with the marginal's quantiles."""
    if params.beta_a == 1.0 and params.beta_b == 4.0:
        # beta(1,4): F(x) = 1 - (1-x)^4, so x = 1 - (1-u)^(1/4)
        np.subtract(1.0, u, out=u)
        np.power(u, 0.25, out=u)
        np.subtract(1.0, u, out=u)
    else:
        special.betaincinv(params.beta_a, params.beta_b, u, out=u)


def _streams(seed: int, indices):
    """Each scenario's Philox stream in turn, keyed by (seed, scenario_index).

    One generator is re-keyed per scenario: setting its state to a fresh
    stream's (zero counter, empty buffer) gives the draws of a new
    `Philox(key=...)` at a fifth of the cost: each scenario is keyed once
    per draw of its rows (16 at a time) and, in `simulate`, once more by
    `common_factors`.  The generator is valid until the next scenario's.
    """
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    fresh = bits.state
    for idx in indices:
        # a seed outside [0, 2**64) raises OverflowError rather than wrapping
        # onto another seed's streams
        fresh["state"]["key"] = np.array([seed, idx], dtype=np.uint64)
        bits.state = fresh
        yield rng


def common_factors(seed: int, indices) -> np.ndarray:
    """Each scenario's common factor M, the first draw on its stream."""
    return np.array([rng.standard_normal() for rng in _streams(seed, indices)], dtype=float)


def _draw_latents(seed: int, indices, out: np.ndarray) -> np.ndarray:
    """Fill `out` row by row with each scenario's idiosyncratic normals.

    Returns the common factors, one per row; each comes first on its
    scenario's stream, before that row's idiosyncratic draws.
    """
    common = np.empty(out.shape[0])
    for row, rng in enumerate(_streams(seed, indices)):
        common[row] = rng.standard_normal()
        rng.standard_normal(out=out[row])
    return common


def _copula_transform(params: ShockParams, common: np.ndarray,
                      out: np.ndarray) -> None:
    """Turn latent normals into loss fractions in place.

    `out` holds idiosyncratic normals, shape (rows, n_banks), and `common`
    the rows' common factors; on return `out` holds the clipped quantiles
    of sqrt(rho) * common + sqrt(1 - rho) * out.
    """
    rho = params.correlation
    out *= np.sqrt(1.0 - rho)
    out += (np.sqrt(rho) * common)[:, None]
    special.ndtr(out, out=out)
    _inverse_marginal(params, out)
    np.clip(out, 0.0, 1.0, out=out)


def _transform_above_floor(params: ShockParams, common: np.ndarray, out: np.ndarray,
                           floor: np.ndarray) -> None:
    """`_copula_transform` for the entries whose loss may exceed `floor`.

    The others become -inf.  Banks are taken in runs of equal floor (a
    tier each, for a network), so a row's cuts are a few numbers.
    """
    if floor.shape != out.shape[1:]:
        raise ValueError(f"floor has shape {floor.shape}, want ({out.shape[1]},)")
    if out.size == 0:
        return
    edges = np.flatnonzero(floor[1:] != floor[:-1]) + 1
    starts, stops = np.r_[0, edges], np.r_[edges, floor.size]
    values = floor[starts]
    rho = params.correlation
    # per row and run, the eps at which the loss reaches the floor, set a
    # little low so that rounding cannot carry its loss above the floor; the
    # marginal's CDF is `special.betainc`, so `scipy.stats` stays out
    cdf = special.betainc(params.beta_a, params.beta_b, np.clip(values, 0.0, 1.0))
    level = special.ndtri(cdf)
    cuts = (level[None, :] - np.sqrt(rho) * common[:, None]) / np.sqrt(1.0 - rho)
    cuts -= CUT_SLACK
    reached = cuts.copy()
    _copula_transform(params, common, reached)
    safe = ((reached <= values) | (cuts == -np.inf)).all(axis=1)
    share = special.ndtr(-cuts) @ (stops - starts) / floor.size
    skip = safe & (share <= SKIP_CROSSOVER)
    if not skip.any():
        _copula_transform(params, common, out)
        return
    above = np.empty(floor.size, dtype=bool)
    for r in range(out.shape[0]):
        row = out[r:r + 1]
        if not skip[r]:
            _copula_transform(params, common[r:r + 1], row)
            continue
        for start, stop, cut in zip(starts, stops, cuts[r]):
            np.greater(row[0, start:stop], cut, out=above[start:stop])
        at = np.flatnonzero(above)
        kept = row[0].take(at)[None, :]
        _copula_transform(params, common[r:r + 1], kept)
        row.fill(-np.inf)
        row[0].put(at, kept[0])


def sample_loss_matrix(params: ShockParams, n_banks: int, seed: int,
                       indices, floor=None, out=None) -> np.ndarray:
    """Loss fractions for many scenarios, one row per scenario_index.

    With a per-bank `floor` (n_banks,), a loss at or below its bank's floor
    may come back as -inf; every other entry has the bits it has without
    one.  A floor of -inf (or below 0) asks for every loss of that bank.
    Given `out`, a C-contiguous float64 buffer of n_banks columns and at
    least one row per scenario, the rows are written into its leading rows
    and that view is returned; the bits do not depend on the buffer.
    """
    indices = list(indices)
    shape = (len(indices), n_banks)
    if out is None:
        out = np.empty(shape)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.flags.c_contiguous and out.ndim == 2
              and out.shape[0] >= shape[0] and out.shape[1] == n_banks):
        raise ValueError(
            f"out must be a C-contiguous float64 array of shape {shape} or with more "
            f"rows; got {getattr(out, 'dtype', type(out).__name__)} of shape "
            f"{getattr(out, 'shape', None)}"
        )
    out = out[:shape[0]]
    common = _draw_latents(seed, indices, out)
    if floor is None:
        _copula_transform(params, common, out)
    else:
        _transform_above_floor(params, common, out, np.asarray(floor, dtype=float))
    return out
