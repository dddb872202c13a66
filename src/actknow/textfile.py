"""Reading the text input files.

Every loader reads its file through read_lines, so a missing, unreadable or
non-UTF-8 file is a ConfigError naming the path (exit 1), never a bare
OSError or UnicodeDecodeError.
"""

from __future__ import annotations

from .errors import ConfigError


def read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file without their ends, split as text-mode
    open() splits them: at "\\n", "\\r\\n" or "\\r". A file that cannot be
    read raises ConfigError naming path, and one that is not UTF-8 names
    path:line of the first bad byte."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not valid UTF-8 (byte 0x{data[exc.start]:02x})") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines
