"""Plain-text checkpoints: a block of named settings, then named tensors.

Format, each block after a count header:

    settings <n>
    <name> = <text>
    tensors <n>
    <name> <ndim> <dim0> <dim1> ...
    <row-major values separated by single spaces>

The settings block is generic, a mapping from name to text; its k-th
setting (from 0) is on line k + 2. Values are written with repr(), which
round-trips float64 exactly, so a save/load cycle is lossless and rewriting
unchanged tensors is byte-identical. Both directions refuse nan and inf, so
every file save_checkpoint writes loads back. Loading reads every count and
value only in the form saving writes it.
"""

from __future__ import annotations

import re
from collections.abc import Mapping

import numpy as np

from .atomic import atomic_write
from .errors import ConfigError
from .textfile import read_lines

Array = np.ndarray

# a line of values as save_checkpoint writes them: float reprs joined by
# single spaces (nan and inf included, so that loading names them as such)
_NUMBER = r"(?:-?(?:(?:0|[1-9]\d*)\.\d+|[1-9](?:\.\d+)?e[+-]\d{2,}|inf)|nan)"
_VALUES = re.compile(rf"(?:{_NUMBER}(?: {_NUMBER})*)?")


def save_checkpoint(path: str, named: dict[str, Array], settings: Mapping[str, str] = {}) -> None:
    """Write `settings` and `named` to `path`. A rejected setting or tensor
    leaves `path` as it was (atomic_write drops the partial file).

    The empty default serves only bench/harness.py, which saves a best state
    without its settings; experiments.run_cell passes the cell's TrainConfig."""
    with atomic_write(path) as fh:
        fh.write(f"settings {len(settings)}\n")
        for name, text in settings.items():
            if name.split() != [name] or "\n" in text or "\r" in text:
                raise ValueError(f"setting {name!r} = {text!r} would not load back")
            fh.write(f"{name} = {text}\n")
        fh.write(f"tensors {len(named)}\n")
        for name in named:
            if " " in name or "\n" in name:
                raise ValueError(f"tensor name may not contain whitespace: {name!r}")
            arr = np.asarray(named[name], dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"tensor {name} has a non-finite value; load_checkpoint would reject it")
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"{name} {arr.ndim} {dims}".rstrip() + "\n")
            fh.write(" ".join(repr(float(v)) for v in arr.reshape(-1)) + "\n")


def _count(field: str) -> int:
    """A count or a dimension as save_checkpoint writes it: a non-negative
    int in its str() form, so "+1", "01" and "1_0" are refused."""
    n = int(field)
    if n < 0 or str(n) != field:
        raise ValueError(field)
    return n


def _header(path: str, lines: list[str], at: int, word: str) -> int:
    """The count of the `<word> <n>` header on line at + 1."""
    line = lines[at] if at < len(lines) else ""
    fields = line.split(" ")
    try:
        if fields[0] != word or len(fields) != 2:
            raise ValueError(line)
        return _count(fields[1])
    except ValueError as exc:
        raise ConfigError(f"{path}:{at + 1}: expected the header '{word} <n>', got {line!r}") from exc


def load_checkpoint(path: str) -> tuple[dict[str, str], dict[str, Array]]:
    """The settings, in file order, and the tensors of a checkpoint written
    by save_checkpoint. Anything else, including a file without the settings
    block, a repeated name, a value not in repr() form, a non-finite value or
    a line after the counted tensors, raises ConfigError naming path:line."""
    lines = read_lines(path)
    settings: dict[str, str] = {}
    n_settings = _header(path, lines, 0, "settings")
    for pos in range(1, 1 + n_settings):
        # lines[pos] is line pos + 1
        line = lines[pos] if pos < len(lines) else ""
        name, sep, text = line.partition(" = ")
        if not sep or name.split() != [name]:
            raise ConfigError(f"{path}:{pos + 1}: expected a 'name = text' setting, got {line!r}")
        if name in settings:
            raise ConfigError(f"{path}:{pos + 1}: repeated setting {name}")
        settings[name] = text

    count = _header(path, lines, 1 + n_settings, "tensors")
    named: dict[str, Array] = {}
    pos = 2 + n_settings
    for _ in range(count):
        # lines[pos] is the tensor header at line pos + 1, its values follow
        if pos >= len(lines):
            raise ConfigError(f"{path}:{pos + 1}: truncated checkpoint, expected {count} tensors")
        try:
            name, ndim, *dims = lines[pos].split(" ")
            if not name or _count(ndim) != len(dims):
                raise ValueError(lines[pos])
            shape = tuple(_count(d) for d in dims)
        except ValueError as exc:
            raise ConfigError(f"{path}:{pos + 1}: bad tensor header") from exc
        if name in named:
            raise ConfigError(f"{path}:{pos + 1}: duplicate tensor {name}")
        if pos + 1 >= len(lines):
            raise ConfigError(f"{path}:{pos + 2}: missing values for tensor {name}")
        if not _VALUES.fullmatch(lines[pos + 1]):
            raise ConfigError(f"{path}:{pos + 2}: bad value in tensor {name}, not as repr() writes it")
        values = np.array([float(v) for v in lines[pos + 1].split()], dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"{path}:{pos + 2}: non-finite value in tensor {name}")
        expected = int(np.prod(shape))
        if values.size != expected:
            raise ConfigError(
                f"{path}:{pos + 2}: tensor {name} expected {expected} values, found {values.size}"
            )
        named[name] = values.reshape(shape)
        pos += 2
    if pos < len(lines):
        raise ConfigError(f"{path}:{pos + 1}: unexpected line after the {count} tensors")
    return settings, named
