"""Correlated fractional asset-loss scenarios.

Each bank's loss fraction has a beta(1,4) marginal (mean 20%) with 25%
equicorrelation imposed through a one-factor Gaussian copula:

    Z_i = sqrt(rho) * M + sqrt(1 - rho) * eps_i,   u_i = Phi(Z_i),
    loss_i = 1 - (1 - u_i)^(1/4).

Scenarios are keyed by (seed, scenario_index) through a counter-based
Philox stream, so any degree of parallelism reproduces the same draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import special, stats


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

    @property
    def mean_loss(self) -> float:
        return self.beta_a / (self.beta_a + self.beta_b)


@dataclass(frozen=True)
class ShockScenario:
    scenario_index: int
    loss_fraction: np.ndarray  # shape (n_banks,), values in [0, 1]


def std_normal_cdf(z):
    """Standard normal CDF, exact to well below 1e-12; scalars or arrays."""
    return special.ndtr(z)


def beta_1_4_inverse_cdf(u):
    """Inverse of the beta(1,4) CDF F(x) = 1 - (1-x)^4; scalars or arrays."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0) or np.any(np.isnan(arr)):
        raise ValueError("u must lie in [0, 1]")
    out = 1.0 - (1.0 - arr) ** 0.25
    return float(out) if np.isscalar(u) or arr.ndim == 0 else out


def _inverse_marginal(params: ShockParams, u: np.ndarray) -> np.ndarray:
    if params.beta_a == 1.0 and params.beta_b == 4.0:
        return 1.0 - (1.0 - u) ** 0.25
    return stats.beta.ppf(u, params.beta_a, params.beta_b)


def _stream(seed: int, scenario_index: int) -> np.random.Generator:
    key = np.array(
        [seed & 0xFFFFFFFFFFFFFFFF, scenario_index & 0xFFFFFFFFFFFFFFFF],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def latent_draws(n_banks: int, seed: int, scenario_index: int):
    """(common factor, idiosyncratic vector) for one scenario's sub-stream."""
    rng = _stream(seed, scenario_index)
    common = rng.standard_normal()
    idio = rng.standard_normal(n_banks)
    return common, idio


def sample_scenario(params: ShockParams, n_banks: int, seed: int,
                    scenario_index: int, latent=None) -> ShockScenario:
    """Draw one scenario of per-bank loss fractions for `n_banks` banks.

    `latent` optionally injects a fixed (common, idiosyncratic) pair for
    tests; otherwise draws come from the (seed, scenario_index) stream.
    """
    if latent is None:
        common, idio = latent_draws(n_banks, seed, scenario_index)
    else:
        common, idio = latent
        idio = np.broadcast_to(np.asarray(idio, dtype=float), (n_banks,))
    rho = params.correlation
    z = np.sqrt(rho) * common + np.sqrt(1.0 - rho) * idio
    losses = _inverse_marginal(params, std_normal_cdf(z))
    return ShockScenario(scenario_index, np.clip(losses, 0.0, 1.0))


def sample_loss_matrix(params: ShockParams, n_banks: int, seed: int,
                       indices) -> np.ndarray:
    """Loss fractions for many scenarios, one row per scenario_index."""
    indices = list(indices)
    out = np.empty((len(indices), n_banks))
    for row, idx in enumerate(indices):
        out[row] = sample_scenario(params, n_banks, seed, idx).loss_fraction
    return out
