"""Experiment configuration, and the settings of any dataclass read from
text: one typed parser for flags and config-file lines, and one resolver.

Values merge as: command-line flag > config file > built-in default.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Collection, Mapping
from dataclasses import dataclass
from typing import TypeVar

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
        if not self.seeds or any(s < 0 for s in self.seeds):
            raise ConfigError(f"seeds must be one or more integers >= 0, got {self.seeds}")
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


_Settings = TypeVar("_Settings")
_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def parse_setting(settings: type, name: str, raw: str) -> object:
    """The value of field `name` of the dataclass `settings` written as text,
    typed like the field's default: a tuple default takes comma-separated
    values of its first element's type, a bool takes true/1/yes/on or
    false/0/no/off, an int or float default takes its own type, and any other
    setting stays a string."""
    default = getattr(settings, name)  # a field's default is its class attribute
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


def train_settings(tc: TrainConfig) -> dict[str, str]:
    """The TrainConfig fields of `tc` as text, in field order: the settings
    block of its checkpoint, each of which parse_setting reads back."""
    return {f.name: str(getattr(tc, f.name)) for f in dataclasses.fields(TrainConfig)}


def stored_train_config(path: str, settings: Mapping[str, str]) -> TrainConfig:
    """The TrainConfig of the settings that load_checkpoint read from `path`:
    each field once, typed by parse_setting and in validate's range. An
    error names the setting's line (setting k is on line k + 2) or, for a
    missing one, the block's header on line 1."""
    names = [f.name for f in dataclasses.fields(TrainConfig)]
    values = {}
    for lineno, (name, text) in enumerate(settings.items(), start=2):
        try:
            if name not in names:
                raise ConfigError(f"unknown setting {name!r}")
            values[name] = parse_setting(TrainConfig, name, text)
            # each of validate's rules reads one field, so the others may stay at their defaults
            TrainConfig(**{name: values[name]}).validate()
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    missing = [name for name in names if name not in values]
    if missing:
        raise ConfigError(f"{path}:1: the settings block lacks {', '.join(missing)}")
    return TrainConfig(**values)


def parse_config_file(settings: type, path: str, command: str, reads: Collection[str]) -> dict[str, object]:
    """Typed values of `key = value` lines naming fields of the dataclass
    `settings` that `command` reads (`reads`); '#' starts a comment, blank
    lines are skipped, and every error names path:line."""
    names = {f.name for f in dataclasses.fields(settings)}
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
        if key not in names:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        if key not in reads:
            raise ConfigError(f"{path}:{lineno}: {command} does not read setting {key!r}")
        try:
            values[key] = parse_setting(settings, key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def resolve_config(settings: type[_Settings], flag_values: dict[str, object], config_path: str | None,
                   command: str, reads: Collection[str]) -> _Settings:
    """An instance of the dataclass `settings`, validated, from typed flag
    values over an optional config file over the defaults. The config file
    may set only the fields `command` reads (`reads`)."""
    merged = {} if config_path is None else parse_config_file(settings, config_path, command, reads)
    merged.update(flag_values)
    resolved = settings(**merged)
    resolved.validate()
    return resolved
