"""Galactic interbank contagion simulator.

Rebuilds the calibrated three-tier banking network, draws correlated
asset shocks, clears interbank payments at the greatest fixed point, and
searches for minimal bailout allocations under expectation, Value-at-Risk
and Average Value-at-Risk criteria.
"""

from .calibration import (
    CalibrationParams,
    bond_allocation,
    build_network,
    ggp_from_project,
    ggp_with_growth,
    manhattan_gdp_fraction,
    outstanding_debt,
    steel_cost_scaled,
)
from .clearing import (
    ClearingOutcome,
    DenseNetwork,
    clear_tiered_batch,
    clearing_compressed,
    clearing_dense,
    expand_network,
    least_clearing_vector,
)
from .config import ConfigError, GridSpec, RunConfig, load_config, parse_config
from .network import (
    BalanceSheet,
    BankTier,
    DegenerateNetworkError,
    GalacticNetwork,
    LiabilityProfile,
    Money,
    Tier,
    deposits_from_assets,
    interbank_claims_face,
    total_obligation,
)
from .risk import (
    BailoutAllocation,
    Criterion,
    FrontierPoint,
    LossConfig,
    MinimalBailout,
    ScenarioTable,
    average_var,
    bailout_frontier,
    criterion_satisfied,
    exceedance_probability,
    expected_loss,
    green_line_loss,
    loss_threshold,
    minimal_total_bailout,
    simulate_records,
)
from .shocks import (
    ShockParams,
    ShockScenario,
    ShockTarget,
    beta_1_4_inverse_cdf,
    latent_draws,
    sample_scenario,
    std_normal_cdf,
)

__version__ = "0.1.0"
