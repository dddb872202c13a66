"""Plain-text named-tensor checkpoints.

Format, one tensor after a count header:

    tensors <n>
    <name> <ndim> <dim0> <dim1> ...
    <row-major values separated by single spaces>

Values are written with repr(), which round-trips float64 exactly, so a
save/load cycle is lossless and rewriting unchanged tensors is
byte-identical. Both directions refuse nan and inf, so every file
save_checkpoint writes loads back.
"""

from __future__ import annotations

import numpy as np

from .atomic import atomic_write
from .errors import ConfigError
from .textfile import read_lines

Array = np.ndarray


def save_checkpoint(path: str, named: dict[str, Array]) -> None:
    """Write `named` to `path`, one tensor's two lines at a time. A rejected
    tensor leaves `path` as it was (atomic_write drops the partial file)."""
    with atomic_write(path) as fh:
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


def load_checkpoint(path: str) -> dict[str, Array]:
    """Read a checkpoint written by save_checkpoint. Anything else, including
    a non-finite value, a repeated tensor name or a line after the counted
    tensors, raises ConfigError naming path:line."""
    lines = read_lines(path)
    if not lines or not lines[0].startswith("tensors "):
        raise ConfigError(f"{path}:1: not a checkpoint file (missing header)")
    try:
        count = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"{path}:1: bad checkpoint header: {lines[0]!r}") from exc
    if count < 0:
        raise ConfigError(f"{path}:1: bad checkpoint header: {lines[0]!r}")

    named: dict[str, Array] = {}
    pos = 1
    for _ in range(count):
        # lines[pos] is the tensor header at line pos + 1, its values follow
        if pos >= len(lines):
            raise ConfigError(f"{path}:{pos + 1}: truncated checkpoint, expected {count} tensors")
        header = lines[pos].split()
        if len(header) < 2:
            raise ConfigError(f"{path}:{pos + 1}: bad tensor header")
        name = header[0]
        if name in named:
            raise ConfigError(f"{path}:{pos + 1}: duplicate tensor {name}")
        try:
            ndim = int(header[1])
            shape = tuple(int(d) for d in header[2 : 2 + ndim])
        except ValueError as exc:
            raise ConfigError(f"{path}:{pos + 1}: bad tensor header") from exc
        if len(shape) != ndim:
            raise ConfigError(f"{path}:{pos + 1}: bad tensor header")
        if pos + 1 >= len(lines):
            raise ConfigError(f"{path}:{pos + 2}: missing values for tensor {name}")
        raw = lines[pos + 1].split()
        try:
            values = np.array([float(v) for v in raw], dtype=np.float64)
        except ValueError as exc:
            raise ConfigError(f"{path}:{pos + 2}: bad value in tensor {name}") from exc
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"{path}:{pos + 2}: non-finite value in tensor {name}")
        expected = int(np.prod(shape)) if shape else 1
        if values.size != expected:
            raise ConfigError(
                f"{path}:{pos + 2}: tensor {name} expected {expected} values, found {values.size}"
            )
        named[name] = values.reshape(shape)
        pos += 2
    if pos < len(lines):
        raise ConfigError(f"{path}:{pos + 1}: unexpected line after the {count} tensors")
    return named
