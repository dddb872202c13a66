"""Atomic replacement of output files."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path: str, newline: str | None = None):
    """Open a UTF-8 text file whose content replaces `path` when the block
    completes.

    The text goes to a temporary file in the same directory, which
    os.replace then moves onto `path`, so readers see the old file or the
    whole new one, never a part. A block that raises removes the temporary
    file and leaves `path` as it was. The name's random part comes from
    os.urandom, not the secrets module, which loads OpenSSL through hmac.
    """
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline=newline)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
