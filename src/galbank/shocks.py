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
(rows, n_banks) output; one in-place pass over the chunk then scales,
adds the common term, applies Phi and the inverse marginal, and clips to
[0, 1].  Every element sees the same operations as in a per-scenario
evaluation, so the result does not depend on how scenarios are grouped.
`common_factors` draws only the M of each scenario, for a caller that
orders its work by them before it draws the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import special


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
        from scipy import stats  # costs ~0.65 s of import; only this branch needs it
        # row by row: ppf on a whole chunk holds several chunk-sized temporaries
        for row in u:
            row[...] = stats.beta.ppf(row, params.beta_a, params.beta_b)


def _streams(seed: int, indices):
    """Each scenario's Philox stream in turn, keyed by (seed, scenario_index).

    One generator is re-keyed per scenario: setting its state to a fresh
    stream's (zero counter, empty buffer) gives the draws of a new
    `Philox(key=...)` at a fifth of the cost, which matters at one keying
    per scenario per 4-row block.  The generator is valid until the next
    scenario's.
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


def sample_loss_matrix(params: ShockParams, n_banks: int, seed: int,
                       indices) -> np.ndarray:
    """Loss fractions for many scenarios, one row per scenario_index."""
    indices = list(indices)
    out = np.empty((len(indices), n_banks))
    _copula_transform(params, _draw_latents(seed, indices, out), out)
    return out
