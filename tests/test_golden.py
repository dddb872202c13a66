"""Golden outputs: the sha256 of each output of each benchmark workload's
cells on the bundled seeds, pinned.

The digests are taken from the files that the session fixtures of
conftest.py write: `lowdata_sweep` (criterion 7's sweep) trains both
lowdata cells, and `noisy_ablation` (criterion 8's ablation) every
noisy-ablation cell, each through experiments.run_cell. This file trains
nothing itself. Each benchmark cell (bench/harness.py `WORKLOADS`) is
checked to resolve to the same config as the fixture cell whose files are
hashed, so the pins hold for the benchmark's outputs too.

Criterion 9 checks that a rerun of the same code matches itself. These pins
check that a change to the code leaves every output byte-identical, and a
mismatch names the cell and the output that moved. A change that moves
bytes on purpose re-pins exactly the digests it moves, in the same change,
and names the cause in CHANGES.md.

The pins were taken with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas64,
DYNAMIC_ARCH), x86_64. Another numpy or BLAS build may round float64
products differently in the last bits and move every digest.
"""

import hashlib
import importlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from actknow import scenarios
from actknow.pipeline import training_config_for

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

PINNED_NUMPY = "2.4.6"

# (workload, cell) -> output -> sha256; "test" is the JSON of the final test
# evaluation's (id, predicted, logits) rows, as bench/harness.py digests them
PINS = {
    ("lowdata-act", "act-know"): {
        "stats.csv": "750cae55ab37bcfffb4342a772a1e8597187fc86c4a5adc3af8048764969befd",
        "checkpoint.txt": "9fb83c8d565f885a8c1e74d6fa5df4bf6da032c10150cb743155d677bdd667dc",
        "test": "1bf5b96bb07d2bb659317f6dce00dbc3b8ac72ffcb24da3a40b202505e42542f",
    },
    ("lowdata-text", "text-only"): {
        "stats.csv": "1550e4b4a6c9dfb5361b8f17130b66485c46416cbaefb9a77de8cba31a12b1ed",
        "checkpoint.txt": "d86954a79410d0fb76a67c421b315e821294dc4996ce4d59d21d889a3910d698",
        "test": "f945a355b1a6d9ac6e81f93eb215937cae1ca720be55374c1317d08fcb5723d0",
    },
    ("noisy-ablation", "max-nodes-3"): {
        "stats.csv": "e18ccc8affed618b5944d69ab68ac6233f1b24cbdacc1ae7e57cd8afc863ae27",
        "checkpoint.txt": "8b4766971d32ec79fe497cd42b7217d5aa2ee2cbefbccfe4c04d2f9dbf82b6d4",
        "test": "215e54d7fd097e67c8665d9c8c11ab9257f44a1d85c4b6420b684ec28e156477",
    },
    ("noisy-ablation", "max-nodes-20"): {
        "stats.csv": "cc96f0730fc4984492f9149471e370f4218654af4a0fd04baefa76c5264d8818",
        "checkpoint.txt": "81654df8be84dd72184db62015b39c0f1395ecdb57f09b0e9bb8ff1868a5bb12",
        "test": "6ab1841c6e800b1cc1368131583571f96c7a5c7b43defdc7d413cb879db3feae",
    },
    ("noisy-ablation", "max-nodes-60"): {
        "stats.csv": "a0010047f9c6ebde749ae9cdef8a815b4e8e79751bdadc1e6110d5497fc225d6",
        "checkpoint.txt": "b52b9bfe6594c89b2c9265fefb7862827be5f802b7aaa6ab55d219b023ecf455",
        "test": "4229aed5faab1d2b1b989e8be86aea7c80486d8465d06b29754e7d5022b7af81",
    },
}

# the conftest fixture holding each workload's bundled task
DATA = {"lowdata-act": "lowdata_dir", "lowdata-text": "lowdata_dir", "noisy-ablation": "noisy_dir"}
SPECS = {"lowdata_dir": scenarios.LOWDATA_SPEC, "noisy_dir": scenarios.NOISY_SPEC}
# the conftest fixture that trains each workload's cells, and the cell
# directory it writes for each benchmark cell
SOURCES = {
    "lowdata-act": ("lowdata_sweep", {"act-know": "fraction-0.2-act-know-seed-0"}),
    "lowdata-text": ("lowdata_sweep", {"text-only": "fraction-0.2-text-only-seed-0"}),
    "noisy-ablation": ("noisy_ablation", {f"max-nodes-{b}": f"max-nodes-{b}" for b in (3, 20, 60)}),
}


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    return importlib.import_module("harness")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(DATA))
def test_outputs_match_the_pinned_digests(name, harness, request):
    workload = harness.WORKLOADS[name]
    assert workload.spec == SPECS[DATA[name]]
    data_dir = request.getfixturevalue(DATA[name])
    source, cell_dirs = SOURCES[name]
    run = request.getfixturevalue(source)

    bench_cfg = workload.experiment(data_dir, "")
    cells = workload.cells(bench_cfg)
    pinned = {cell: outputs for (w, cell), outputs in PINS.items() if w == name}
    assert [cell for cell, _ in cells] == list(pinned) == list(cell_dirs)
    moved = []
    for cell, overrides in cells:
        # the benchmark cell and the hashed cell train with one config
        ran = run.cell_configs[cell_dirs[cell]]
        assert replace(training_config_for(bench_cfg, **overrides), out_dir="") == replace(ran, out_dir="")
        cell_dir = os.path.join(run.cfg.out_dir, cell_dirs[cell])
        rows = [json.loads(line) for line in open(os.path.join(cell_dir, "test_predictions.jsonl"), encoding="utf-8")]
        got = {
            "stats.csv": _sha(open(os.path.join(cell_dir, "stats.csv"), "rb").read()),
            "checkpoint.txt": _sha(open(os.path.join(cell_dir, "checkpoint.txt"), "rb").read()),
            "test": _sha(json.dumps([(r["id"], r["predicted"], r["logits"]) for r in rows]).encode()),
        }
        moved += [f"{cell} {output}: {got[output]}" for output, want in pinned[cell].items() if got[output] != want]
    assert not moved, f"outputs moved (pinned with numpy {PINNED_NUMPY}, running {np.__version__}): {moved}"
