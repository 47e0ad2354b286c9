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
    outstanding_debt,
)
from .clearing import clear_tiered_batch
from .config import ConfigError, RunConfig, load_config, parse_config
from .network import (
    BalanceSheet,
    DegenerateNetworkError,
    GalacticNetwork,
    LiabilityProfile,
    Money,
    Tier,
    deposits_from_assets,
    total_obligation,
)
from .risk import (
    BailoutAllocation,
    Criterion,
    FrontierPoint,
    GridSpec,
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
from .shocks import ShockParams, ShockTarget, sample_loss_matrix

__version__ = "0.1.0"
