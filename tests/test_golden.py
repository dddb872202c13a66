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
        "stats.csv": "c4c40c2148a4603140d6aaeaae937763a561caf8c7b8cc62051064a7d7f5333f",
        "checkpoint.txt": "473bb24d11c325b0e7169ff76ee0fdcb2c5fcad21ec07ab062c57e676dcca2fa",
        "test": "63c684760de3c8452f1b355c554078426176025033f1115c47051e0a922e0a52",
    },
    ("lowdata-text", "text-only"): {
        "stats.csv": "1550e4b4a6c9dfb5361b8f17130b66485c46416cbaefb9a77de8cba31a12b1ed",
        "checkpoint.txt": "d86954a79410d0fb76a67c421b315e821294dc4996ce4d59d21d889a3910d698",
        "test": "f945a355b1a6d9ac6e81f93eb215937cae1ca720be55374c1317d08fcb5723d0",
    },
    ("noisy-ablation", "max-nodes-3"): {
        "stats.csv": "93bc699ff4c3117fb33bb4a20246f9194f9f84f60104d137382698b6e2eec158",
        "checkpoint.txt": "37ce9bf3327771e669f1f5864f8e970496ca6d9c6118facc7cbc0c1eddf7d20e",
        "test": "d7360dfe93ff3cbc0b0e713aa8aba27a015fd93156f4946d928e9f3bd0b4d688",
    },
    ("noisy-ablation", "max-nodes-20"): {
        "stats.csv": "b915697e1d4e8492d296293d1438a8ddbdaeb4a82c319bb416a16ccdcdaac0ee",
        "checkpoint.txt": "d370d5095f578a5de9d4809ed4618fb16d14199acfaecf7ecf0830815f24585e",
        "test": "db5e99aa26251b63af040fc259622955c8be586ba5d0cb1217490e0e26a95489",
    },
    ("noisy-ablation", "max-nodes-60"): {
        "stats.csv": "14703f209530b2a3a622918b38113194667233506318461fce52c6e67fcefcf1",
        "checkpoint.txt": "de7ff29617a6b19f45aae2415c17021ee06f9ecfb70409ad231825a8bfcfa35d",
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
