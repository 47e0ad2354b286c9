"""JSON run configuration: loading, strict validation, defaults.

A config file is a single JSON document with optional blocks
``calibration``, ``shock``, ``loss`` and ``grid`` plus top-level
``n_scenarios`` and ``seed``.  The four blocks name fields of
`CalibrationParams`, `ShockParams`, `LossConfig` and `GridSpec`;
a field left out keeps the dataclass default, so an empty document
reproduces the reference run.  Values are type-checked here and
range-checked once, by the dataclasses.  Unknown fields and non-finite
numbers are rejected with the offending location in the message.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .calibration import CalibrationParams
from .risk import GridSpec, LossConfig
from .shocks import ShockParams, ShockTarget

DEFAULT_SEED = 19770525
DEFAULT_SCENARIOS = 10_000


class ConfigError(ValueError):
    """Invalid run configuration; message carries the field location."""


@dataclass(frozen=True)
class RunConfig:
    calibration: CalibrationParams = field(default_factory=CalibrationParams)
    shock: ShockParams = field(default_factory=ShockParams)
    loss: LossConfig = field(default_factory=LossConfig)
    n_scenarios: int = DEFAULT_SCENARIOS
    seed: int = DEFAULT_SEED
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        if self.n_scenarios < 1:
            raise ConfigError("config.n_scenarios: must be >= 1")
        # the shock streams are keyed by the seed as an unsigned 64-bit word
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"config.seed: must lie in [0, 2**64), got {self.seed}")


def _require(condition: bool, location: str, message: str):
    if not condition:
        raise ConfigError(f"{location}: {message}")


def _check_keys(block: dict, allowed, location: str):
    for key in block:
        _require(key in allowed, f"{location}.{key}", "unknown field")


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite JSON number; json also reads NaN, Infinity and 1e400."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _number(block, key, location):
    value = block[key]
    _require(_is_number(value), f"{location}.{key}", "expected a finite number")
    return float(value)


def _numbers(block, key, location, count=None):
    raw = block[key]
    _require(
        isinstance(raw, list) and raw and all(_is_number(v) for v in raw)
        and (count is None or len(raw) == count),
        f"{location}.{key}", f"expected a list of {count or 'one or more'} finite numbers",
    )
    return tuple(float(v) for v in raw)


def _integer(block, key, location):
    _require(_is_integer(block[key]), f"{location}.{key}", "expected an integer")
    return block[key]


def _tier_counts(block, key, location):
    raw = block[key]
    _require(isinstance(raw, list) and len(raw) == 3 and all(map(_is_integer, raw)),
             f"{location}.{key}", "expected three integers")
    return tuple(raw)


def _boolean(block, key, location):
    _require(isinstance(block[key], bool), f"{location}.{key}", "expected true/false")
    return block[key]


def _shock_target(block, key, location):
    try:
        return ShockTarget(block[key])
    except ValueError:
        raise ConfigError(
            f"{location}.{key}: expected one of "
            f"{[t.value for t in ShockTarget]}, got {block[key]!r}"
        ) from None


# each block's dataclass and a type-checking reader per field
_BLOCKS = {
    "calibration": (CalibrationParams, {
        "ds1_total_cost": _number, "ds1_paid_fraction": _number,
        "ds2_total_cost": _number, "ggp_endor": _number, "tier_counts": _tier_counts,
        "capital_buffer_per_tier": partial(_numbers, count=3),
        "banking_sector_ggp_fraction": _number,
    }),
    "shock": (ShockParams, {
        "correlation": _number, "beta_a": _number, "beta_b": _number,
        "applies_to": _shock_target, "exempt_central": _boolean,
    }),
    "loss": (LossConfig, {
        "deposit_insurance": _boolean, "threshold_fraction": _number,
        "confidence": _number, "bond_recovery": _number,
    }),
    "grid": (GridSpec, {
        "per_big": _numbers, "per_massive_cap": _number, "resolution": _number,
    }),
}


def _parse_block(name: str, block: dict):
    cls, readers = _BLOCKS[name]
    _check_keys(block, readers, name)
    values = {key: read(block, key, name) for key, read in readers.items() if key in block}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_config(data: dict) -> RunConfig:
    _require(isinstance(data, dict), "config", "top level must be a JSON object")
    _check_keys(data, {*_BLOCKS, "n_scenarios", "seed"}, "config")
    for name in _BLOCKS:
        _require(isinstance(data.get(name, {}), dict), name, "expected an object")
    return RunConfig(
        **{name: _parse_block(name, data.get(name, {})) for name in _BLOCKS},
        **{key: _integer(data, key, "config") for key in ("n_scenarios", "seed")
           if key in data},
    )


def load_config(path: str | Path | None) -> RunConfig:
    """Parse a config file; None or a missing 'config' yields all defaults."""
    if path is None:
        return RunConfig()
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config: file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config: {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    return parse_config(data)
