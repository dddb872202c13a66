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
        "stats.csv": "24d2f2861deed864436b02a616c898494e279959a0a1f89d5dccd00c5eda4895",
        "checkpoint.txt": "61f76e8351666197f0b27182d26fc6e59b8736afcc85a9169c3890b04cf13980",
        "test": "94f9879f7d6dd966fdc90be72f546321cffdc72aa1cfcc53e16f9be506bf8b81",
    },
    ("lowdata-text", "text-only"): {
        "stats.csv": "1550e4b4a6c9dfb5361b8f17130b66485c46416cbaefb9a77de8cba31a12b1ed",
        "checkpoint.txt": "1b17f9f6fc9f51e697ebc500b529e70f62772b6b8f7a78658057add5f485c43d",
        "test": "f945a355b1a6d9ac6e81f93eb215937cae1ca720be55374c1317d08fcb5723d0",
    },
    ("noisy-ablation", "max-nodes-3"): {
        "stats.csv": "b7edb542754715dfa8fcda83119be52ebff0d17b4119754e8b9e64cc871c5713",
        "checkpoint.txt": "3c4f7fead1db3b3f1371b130d99da238347bf606686255a23835253febeb2ff6",
        "test": "4e3db14db90beea3d1258e5738b33d94bbef733e2af408fac3d7eb765f3fb6f3",
    },
    ("noisy-ablation", "max-nodes-20"): {
        "stats.csv": "1e427e2b9b1cef2f2a00dae66cf379e0dd53dd3ccbe7b5a63618de0d31944bfe",
        "checkpoint.txt": "f803c202f2e69a4fa8e2dd39a6b5f9c4bc98a89ab8bacdb419df5c6245f76422",
        "test": "db5e99aa26251b63af040fc259622955c8be586ba5d0cb1217490e0e26a95489",
    },
    ("noisy-ablation", "max-nodes-60"): {
        "stats.csv": "1d5cf3d32acb5bd75baf73c41a77fff416e938377593269cb603efcd003b3884",
        "checkpoint.txt": "4b43d6d7c0f4b02a6f11296e55af60aa3582bfd80ce314f47fb6996e79a24b01",
        "test": "e070f77355836c265cc7a0cdb49469cf6e10ce0a36ba2799ef369b40e452aa22",
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
