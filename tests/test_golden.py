"""Golden outputs: the sha256 of each output of each benchmark workload's
cells on the bundled seeds, pinned.

The digests are taken from the files that the session fixtures of
conftest.py write: `lowdata_sweep` (criterion 7's sweep) trains both
lowdata cells, and `noisy_ablation` (criterion 8's ablation) every
noisy-ablation cell, each through experiments.run_cell. This file trains
nothing itself. Each benchmark cell (bench/harness.py `WORKLOADS`) is
checked to resolve to the same config as the fixture cell whose files are
hashed, so the stats.csv and test pins hold for the benchmark's outputs too.
The checkpoint.txt pins do not: run_cell writes the cell's TrainConfig into
the checkpoint's settings block, while bench/harness.py saves with two
arguments and so writes an empty block ("settings 0") before the same
tensor lines.

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
        "stats.csv": "c4c40c2148a4603140d6aaeaae937763a561caf8c7b8cc62051064a7d7f5333f",
        "checkpoint.txt": "7544533f8e5ef08b6824f8bef698a501e0448bb0b1e821f590a1207461bfdd0c",
        "test": "63c684760de3c8452f1b355c554078426176025033f1115c47051e0a922e0a52",
    },
    ("lowdata-text", "text-only"): {
        "stats.csv": "1550e4b4a6c9dfb5361b8f17130b66485c46416cbaefb9a77de8cba31a12b1ed",
        "checkpoint.txt": "01d9ab3d7a7e40f2a2e634b4af73c0dee7db47eacbeea80c5c28c75bd585d5a1",
        "test": "f945a355b1a6d9ac6e81f93eb215937cae1ca720be55374c1317d08fcb5723d0",
    },
    ("noisy-ablation", "max-nodes-3"): {
        "stats.csv": "93bc699ff4c3117fb33bb4a20246f9194f9f84f60104d137382698b6e2eec158",
        "checkpoint.txt": "da8cad75c975740e3934ea02fbbe12142ae2f3c768eff5a341738a0c3f88490a",
        "test": "d7360dfe93ff3cbc0b0e713aa8aba27a015fd93156f4946d928e9f3bd0b4d688",
    },
    ("noisy-ablation", "max-nodes-20"): {
        "stats.csv": "b915697e1d4e8492d296293d1438a8ddbdaeb4a82c319bb416a16ccdcdaac0ee",
        "checkpoint.txt": "4630fea74b9e9639311fd47eb51bc92c04c8f0a1b7be633808981cd0a46211ef",
        "test": "db5e99aa26251b63af040fc259622955c8be586ba5d0cb1217490e0e26a95489",
    },
    ("noisy-ablation", "max-nodes-60"): {
        "stats.csv": "14703f209530b2a3a622918b38113194667233506318461fce52c6e67fcefcf1",
        "checkpoint.txt": "d0f00a3e43289f367d834440d0ad4d04b454cdf09e343382161e3ba4cc8a6149",
        "test": "41c19ae86fe46cda8a5cb0ee8bdf4bc9ba115c519d55af2530c67f0b2a6e81d8",
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
