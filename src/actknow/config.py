"""Experiment configuration: dataclass, config-file parsing, precedence.

Values merge as: command-line flag > config file > ACTKNOW_SEED environment
variable (seed only) > built-in default.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .errors import ConfigError
from .textfile import read_lines
from .training import MODES, TrainConfig


@dataclass
class ExperimentConfig(TrainConfig):
    kg: str | None = None
    corpus: str | None = None
    train: str | None = None
    dev: str | None = None
    test: str | None = None
    node_features: str | None = None
    out_dir: str = "runs/out"
    dataset_name: str | None = None
    checkpoint: str | None = None
    split: str = "test"
    fractions: tuple[float, ...] = (0.05, 0.1, 0.2, 0.5, 1.0)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    node_budgets: tuple[int, ...] = (3, 10, 60)
    modes: tuple[str, ...] = ("text-only", "base-know", "act-know")

    def validate(self) -> None:
        super().validate()
        if self.split not in ("train", "dev", "test"):
            raise ConfigError(f"split must be train, dev or test, got {self.split!r}")
        if not self.fractions or any(not 0 < f <= 1 for f in self.fractions):
            raise ConfigError("fractions must be values in (0, 1]")
        if not self.seeds:
            raise ConfigError("seeds must list at least one seed")
        if not self.node_budgets or any(b < 1 for b in self.node_budgets):
            raise ConfigError("node_budgets must be positive integers")
        bad = [m for m in self.modes if m not in MODES]
        if not self.modes or bad:
            raise ConfigError(f"modes must be drawn from {MODES}, got {bad}")

    def require(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) in (None, ""):
                flag = "--" + name.replace("_", "-")
                raise ConfigError(f"missing required setting {name} (flag {flag})")


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def parse_setting(name: str, raw: str) -> object:
    """The value of setting `name` written as text, typed like its default:
    a tuple default takes comma-separated values of its first element's type,
    a bool takes true/1/yes/on or false/0/no/off, an int or float default
    takes its own type, and any other setting stays a string."""
    default = _DEFAULTS[name]
    try:
        if isinstance(default, tuple):
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if not parts:
                raise ValueError("needs at least one value")
            return tuple(type(default[0])(p) for p in parts)
        if isinstance(default, bool):
            if raw.lower() not in _BOOLS:
                raise ValueError(f"expected a boolean, got {raw!r}")
            return _BOOLS[raw.lower()]
        if isinstance(default, (int, float)):
            return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"setting {name}: {exc}") from exc
    return raw


def parse_config_file(path: str) -> dict[str, object]:
    """Typed values of `key = value` lines; '#' starts a comment, blank lines
    are skipped, and every error names path:line."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        try:
            values[key] = parse_setting(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def env_seed() -> int | None:
    """The ACTKNOW_SEED environment variable as an integer, None when unset."""
    raw = os.environ.get("ACTKNOW_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"ACTKNOW_SEED must be an integer, got {raw!r}") from exc


def resolve_config(flag_values: dict[str, object], config_path: str | None) -> ExperimentConfig:
    """Merge flag overrides, an optional config file, the ACTKNOW_SEED
    environment variable, and defaults into a validated config."""
    merged: dict[str, object] = {}

    seed = env_seed()
    if seed is not None:
        merged["seed"] = seed

    if config_path is not None:
        merged.update(parse_config_file(config_path))

    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value

    cfg = ExperimentConfig(**merged)
    cfg.validate()
    return cfg
