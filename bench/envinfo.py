"""The environment a result was measured in, recorded with every result.

The host gives no CPU isolation: other tenants share it, so
timings carry its noise and comparisons rest on medians over many runs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess

import numpy as np

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def _blas() -> dict:
    """numpy's BLAS library and the thread count it reports, when the
    library exposes a query for it."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    except OSError:
        return out
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                out["threads"] = int(query())
                out["library"] = os.path.basename(path)
                return out
    return out


def _git_revision(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_digest(src: str) -> str:
    """sha256 over the package sources, which identifies the code measured
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def record(root: str) -> dict:
    return {
        "git_revision": _git_revision(root),
        "source_sha256": _source_digest(os.path.join(root, "src")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                           "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "cpu_isolation": "none: shared host, no pinning",
        "waiting_time": "not recorded: single-threaded, no queues",
    }
