"""Experiment configuration: dataclass, config-file parsing, precedence.

Values merge as: command-line flag > config file > ACTKNOW_SEED environment
variable (seed only) > built-in default.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .errors import ConfigError
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


_LIST_FIELDS = {"fractions", "seeds", "node_budgets", "modes"}


def parse_config_file(path: str) -> dict[str, str]:
    """Read `key = value` lines; '#' starts a comment, blank lines skipped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
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
        if key not in {f.name for f in dataclasses.fields(ExperimentConfig)}:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        values[key] = value
    return values


def _coerce(name: str, raw: str) -> object:
    if name in _LIST_FIELDS:
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"setting {name} needs at least one value")
        try:
            if name == "fractions":
                return tuple(float(p) for p in parts)
            if name == "modes":
                return tuple(parts)
            return tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"setting {name}: {exc}") from exc
    default = ExperimentConfig()
    current = getattr(default, name)
    try:
        if isinstance(current, bool):
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ConfigError(f"setting {name}: expected a boolean, got {raw!r}")
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"setting {name}: {exc}") from exc
    return raw


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
        for key, raw in parse_config_file(config_path).items():
            merged[key] = _coerce(key, raw)

    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value

    cfg = ExperimentConfig(**merged)
    cfg.validate()
    return cfg
