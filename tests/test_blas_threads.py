"""One and two BLAS threads write the same bytes.

numpy's bundled OpenBLAS may run a product on several threads. The golden
digests hold with one thread and with two, and this test says so by name:
one small `actknow train` cell runs in two child processes, one with
OPENBLAS_NUM_THREADS=1 and one with 2, and their cell files must be equal
byte for byte. A BLAS that splits a product's sum across threads fails
here, not only in a digest. The variable is set on each child alone; this
process keeps its own threading, and the package reads no environment.

The cell keeps the default widths (text_dim 64), so that its largest
products, the GCN weight gradients, are big enough for OpenBLAS to thread.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CELL_FILES = ("stats.csv", "checkpoint.txt", "test_predictions.jsonl")

# the thread count numpy's bundled OpenBLAS runs with, or nothing where
# numpy bundles no library that exports the query
REPORT_THREADS = """
import ctypes, glob, os, numpy
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
    get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        print(get())
"""


def _child_env(threads: int) -> dict[str, str]:
    # the child finds the package the way this process does, from a checkout too
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)}


def _run(argv: list[str], threads: int) -> str:
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=_child_env(threads),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_one_and_two_blas_threads_write_the_same_bytes(lowdata_dir, tmp_path):
    data = [f"--{name}={os.path.join(lowdata_dir, name)}.{ext}" for name, ext in
            (("kg", "tsv"), ("corpus", "txt"), ("train", "jsonl"), ("dev", "jsonl"), ("test", "jsonl"))]
    data.append(f"--node-features={os.path.join(lowdata_dir, 'node_features.txt')}")
    cell = ["--mode", "act-know", "--data-fraction", "0.2", "--master-epochs", "2", "--sub-epochs", "1",
            "--pretrain-epochs", "1", "--kg-epochs", "5", "--max-nodes", "20"]
    files = {}
    for threads in (1, 2):
        reported = _run(["-c", REPORT_THREADS], threads).split()
        if reported and (os.cpu_count() or 1) >= 2:
            assert reported == [str(threads)], f"OPENBLAS_NUM_THREADS={threads} ran {reported} threads"
        out = tmp_path / f"threads-{threads}"
        _run(["-m", "actknow", "train", *data, *cell, "--out-dir", str(out)], threads)
        files[threads] = {name: (out / name).read_bytes() for name in CELL_FILES}
    for name in CELL_FILES:
        assert files[1][name] == files[2][name], name
