"""Smoke runs of every workload on a tiny task, the benchmark's contract
with BENCHMARK.json, and exact tracer counts on the bundled seeds."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from actknow import scenarios
from harness import SETUP_SAMPLES, WORKLOADS, Checks, ensure_data, measure, run_pass, trace
from layers import PER_LAYER, instrument, per_layer_metrics
from spans import Tracer

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)

TINY = {
    "lowdata": dataclasses.replace(scenarios.LOWDATA_SPEC, n_entities=40, n_questions=40, seed=5),
    "noisy": dataclasses.replace(scenarios.NOISY_SPEC, n_entities=40, n_questions=40, noise_entities=12,
                                 noise_edges=30, seed=5),
}


def _tiny(name):
    w = WORKLOADS[name]
    return dataclasses.replace(w, spec=TINY["noisy" if name.startswith("noisy") else "lowdata"])


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_each_workload_on_a_tiny_task(name, tmp_path):
    workload = _tiny(name)
    data_dir, report = ensure_data(workload.spec, str(tmp_path / "data"))
    assert report["failures"] == []
    assert ensure_data(workload.spec, str(tmp_path / "data"))[0] == data_dir  # cached

    checks = Checks()
    values, samples = measure(workload, data_dir, str(tmp_path / "out"), 0.01, checks)
    n_cells = len(workload.cells(workload.experiment(data_dir, "")))
    assert checks.problems == [] and checks.failed == 0
    assert checks.attempted == n_cells
    assert set(values) == {n for n, _, _ in run.END_TO_END + run.UNBOUNDED}
    assert all(values[n] > 0 for n in values)
    assert len(samples["setup_s"]) == 2 * SETUP_SAMPLES and len(samples["eval_qps"]) == 1
    assert len(samples["reference_laps_s"]) > 2 + n_cells and samples["slowdown"] > 0
    assert 0 < checks.accuracy() <= 1

    traced, spans_path = trace(workload, data_dir, str(tmp_path / "out"), "smoke", checks)
    assert checks.problems == [] and checks.attempted == 3 * n_cells
    assert set(traced) == {n for n, _, _ in PER_LAYER}
    assert os.path.getsize(spans_path) > 0


def test_a_changed_output_is_counted_as_failed(tmp_path):
    workload = _tiny("lowdata-text")
    data_dir, _ = ensure_data(workload.spec, str(tmp_path / "data"))
    checks = Checks()
    first = run_pass(workload, data_dir, str(tmp_path / "out"))
    second = run_pass(workload, data_dir, str(tmp_path / "out"))
    second.cells[0].digest = "tampered"
    checks.add(first, "first")
    checks.add(second, "second")
    assert (checks.attempted, checks.failed) == (2, 1)


def test_cli_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("data", "out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "lowdata-act", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_cli_rejects_an_unknown_workload():
    assert run.main(["--workload", "nope"]) == 2


# exact counts on the bundled seeds. On noisy-ablation each budget issues
# the same 960 queries, of which 642 are distinct strings (questions share
# stem and choice text), so 642 of the 2,880 calls compute something new.
EXPECTED = {
    "lowdata-act": {"retrieval.retrieve.calls": 2400, "encoders.er_attention.calls": 19728,
                    "autodiff.backward.calls": 99, "training.entropy_passes": 2424},
    "lowdata-text": {"training.entropy_passes": 0, "encoders.graph_zero_weight_ratio": 1.0},
    "noisy-ablation": {"retrieval.retrieve.calls": 2880, "retrieval.retrieve.distinct_query_ratio": 642 / 2880,
                       "kg.train_kg_embeddings.calls": 3, "kg.train_kg_embeddings.distinct_ratio": 1 / 3,
                       "training.entropy_passes": 0, "encoders.graph_zero_weight_ratio": 0.0},
}


@pytest.mark.parametrize("name", list(EXPECTED))
def test_exact_counts_on_the_bundled_seeds(name, tmp_path):
    workload = WORKLOADS[name]
    data_dir, _ = ensure_data(workload.spec, str(tmp_path / "data"))
    tracer = Tracer(run_id=name)
    with instrument(tracer):
        p = run_pass(workload, data_dir, str(tmp_path / "out"))
    assert all(cell.error is None for cell in p.cells)
    values = per_layer_metrics(tracer)
    for metric, expected in EXPECTED[name].items():
        assert values[metric] == pytest.approx(expected, abs=1e-12), metric
