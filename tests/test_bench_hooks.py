"""The traced benchmark run (bench/layers.py) wraps actknow functions at their
call sites and binds some of their arguments by name. A rename or a removal
of one of them breaks that run, so these checks keep it in the tier-1 suite."""

import importlib
import inspect
import os

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


def test_the_tracer_sees_each_encoder_once_per_eval_chunk(bench):
    """The per-layer encoder metrics come from the wrappers on `training`'s
    module attributes; scoring that bypassed them would report zeros."""
    layers, spans = bench
    task = build_task(mode="act-know", batch_size=3)  # 4 questions: 2 chunks
    tracer = spans.Tracer()
    with layers.instrument(tracer):
        training.evaluate(task.prepared, task.model, task.config)
    names = [span.name for span in tracer.spans]
    for name in ("encoders.encode_text", "encoders.gcn_forward", "encoders.er_attention"):
        assert names.count(name) == 2, name


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
