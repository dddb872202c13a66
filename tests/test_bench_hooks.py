"""The traced benchmark run (bench/layers.py) wraps actknow functions at their
call sites and binds some of their arguments by name. A rename or a removal
of one of them breaks that run, so these checks keep it in the tier-1 suite."""

import importlib
import inspect
import os

import numpy as np
import pytest

from actknow import checkpoint, nli, pipeline, training
from test_training import build_task

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    return importlib.import_module("layers"), importlib.import_module("spans")


def test_instrument_wraps_every_call_site_and_restores_it(bench):
    layers, spans = bench
    tracer = spans.Tracer()
    with layers.instrument(tracer):
        patches = list(tracer._patches)
        assert all(getattr(owner, attr) is not original for owner, attr, original in patches)
    assert patches
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


@pytest.mark.parametrize(
    "fn, names",
    [
        (nli.retrieve, {"query", "k"}),
        (training.connect_concepts, {"seeds"}),
        (pipeline.train_kg_embeddings, {"graph"}),
        (training.score_question, {"weights", "train", "config"}),
        (checkpoint.save_checkpoint, {"path"}),
    ],
)
def test_bound_arguments_keep_their_names(fn, names):
    assert names <= set(inspect.signature(fn).parameters)


def test_the_benchmark_call_form_of_save_checkpoint_writes_a_loadable_file(tmp_path):
    """bench/harness.py saves a cell's best state with two arguments, no
    settings; that file holds an empty settings block and loads back."""
    call = 'checkpoint.save_checkpoint(os.path.join(cell_dir, "checkpoint.txt"), result.best_state)'
    with open(os.path.join(BENCH_DIR, "harness.py"), encoding="utf-8") as fh:
        assert call in fh.read()
    state = build_task().model.state_arrays()
    cell_dir = str(tmp_path)
    checkpoint.save_checkpoint(os.path.join(cell_dir, "checkpoint.txt"), state)
    settings, loaded = checkpoint.load_checkpoint(os.path.join(cell_dir, "checkpoint.txt"))
    assert settings == {} and list(loaded) == list(state)
    assert all(np.array_equal(loaded[name], state[name]) for name in state)


def test_the_tracer_sees_each_encoder_once_per_eval_chunk(bench, monkeypatch):
    """The per-layer encoder metrics come from the wrappers on `training`'s
    module attributes; scoring that bypassed them would report zeros."""
    layers, spans = bench
    monkeypatch.setattr(training, "EVAL_CHUNK_CHOICES", 12)
    task = build_task(mode="act-know")
    chunks = len(list(training.eval_chunks(task.prepared)))
    assert chunks == 2  # 4 questions of 4 choices, 3 a chunk
    tracer = spans.Tracer()
    with layers.instrument(tracer):
        training.evaluate(task.prepared, task.model, task.config)
    names = [span.name for span in tracer.spans]
    for name in ("encoders.encode_text", "encoders.gcn_forward", "encoders.er_attention"):
        assert names.count(name) == chunks, name


@pytest.mark.parametrize("mode", ["base-know", "text-only"])
def test_the_tracer_sees_preparation_build_subgraphs_only_with_a_gcn(bench, mode):
    """Preparation scans mentions and builds subgraphs through `training`'s
    module attributes whenever the GCN runs; only text-only skips them."""
    layers, spans = bench
    tracer = spans.Tracer()
    with layers.instrument(tracer):
        build_task(mode=mode)
    names = {span.name for span in tracer.spans}
    assert "nli.convert" in names
    graph_side = {"subgraph.identify_concepts", "subgraph.connect_concepts"}
    assert graph_side <= names if mode == "base-know" else not graph_side & names


@pytest.mark.parametrize("mode", ["base-know", "act-know", "text-only"])
def test_the_tracer_sees_one_backward_and_one_step_per_training_batch(bench, mode):
    """training.train under the tracer, with one pretraining epoch: each
    batch is one autodiff.backward span, then one optim.Adam.step span, and
    layers.tape_size reads 10 on a pretraining batch (the GCN layers, the ER
    projections, the classifier and five stage nodes), 14 on an update batch
    (the text encoder's three leaves and its node besides) and 7 on a
    text-only one."""
    layers, spans = bench
    task = build_task(mode=mode, pretrain_epochs=1)
    config = task.config
    batches = -(-len(task.prepared) // config.batch_size)
    pretraining = batches * config.pretrain_epochs if config.graph_side else 0
    updates = batches * config.master_epochs * config.sub_epochs
    tracer = spans.Tracer()
    with layers.instrument(tracer):
        training.train(task.model, task.prepared, None, config)
    steps = [span.name for span in tracer.spans if span.name in ("autodiff.backward", "optim.Adam.step")]
    assert steps == ["autodiff.backward", "optim.Adam.step"] * (pretraining + updates)
    assert tracer.samples["tape_nodes"] == [10] * pretraining + [14 if config.graph_side else 7] * updates
