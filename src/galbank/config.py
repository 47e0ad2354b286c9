"""JSON run configuration: loading, strict validation, defaults.

A config file is a single JSON document read against `RunConfig`, the
one statement of its schema.  Each dataclass-typed field of `RunConfig`
(``calibration``, ``shock``, ``loss``, ``grid``) is a block whose keys are
exactly that dataclass's fields; its other fields (``n_scenarios``,
``seed``) are top-level values.  A field left out keeps the dataclass
default, so an empty document reproduces the reference run.  Each value
is type-checked by the reader its field's annotation picks, and
range-checked once, by the dataclasses.  Unknown fields and non-finite
numbers are rejected with the offending location in the message.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from functools import partial
from pathlib import Path

from .calibration import CalibrationParams
from .risk import GridSpec, LossConfig
from .shocks import ShockParams

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


def _is_list(value, item, count=None) -> bool:
    return (isinstance(value, list) and len(value) > 0 and all(map(item, value))
            and (count is None or len(value) == count))


def _floats(value) -> tuple:
    return tuple(float(v) for v in value)


# per field annotation (`Money` is float): the check a JSON value must pass,
# the message when it fails (formatted with the value), and its conversion
_READERS = {
    float: (_is_number, "expected a finite number", float),
    bool: (lambda value: isinstance(value, bool), "expected true/false", bool),
    int: (_is_integer, "expected an integer", int),
    tuple[int, int, int]: (partial(_is_list, item=_is_integer, count=3),
                           "expected three integers", tuple),
    tuple[float, float, float]: (partial(_is_list, item=_is_number, count=3),
                                 "expected a list of 3 finite numbers", _floats),
    tuple[float, ...]: (partial(_is_list, item=_is_number),
                        "expected a list of one or more finite numbers", _floats),
}


def _schema(cls) -> dict:
    """Each field of dataclass `cls`, in order, with its resolved annotation."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _read(data: dict, schema: dict, location: str) -> dict:
    """The values `data` gives for `schema`'s fields, each checked and
    converted by the reader its annotation picks; every field needs one."""
    values = {}
    for key, hint in schema.items():
        where = f"{location}.{key}"
        if isinstance(hint, type) and issubclass(hint, Enum):
            members = [m.value for m in hint]
            reader = members.__contains__, f"expected one of {members}, got {{!r}}", hint
        else:
            reader = _READERS.get(hint)
        if reader is None:
            raise TypeError(f"{where}: no config reader for the annotation {hint!r}")
        check, message, convert = reader
        if key in data:
            _require(check(data[key]), where, message.format(data[key]))
            values[key] = convert(data[key])
    return values


def _parse_block(name: str, cls, block: dict):
    schema = _schema(cls)
    _check_keys(block, schema, name)
    values = _read(block, schema, name)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_config(data: dict) -> RunConfig:
    """`RunConfig` from a JSON document: each dataclass-typed field is a block
    of its own, read before the top-level values."""
    _require(isinstance(data, dict), "config", "top level must be a JSON object")
    schema = _schema(RunConfig)
    _check_keys(data, schema, "config")
    blocks = {name: cls for name, cls in schema.items() if is_dataclass(cls)}
    for name in blocks:
        _require(isinstance(data.get(name, {}), dict), name, "expected an object")
    parsed = {name: _parse_block(name, cls, data.get(name, {}))
              for name, cls in blocks.items()}
    top = {name: hint for name, hint in schema.items() if name not in blocks}
    return RunConfig(**parsed, **_read(data, top, "config"))


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
