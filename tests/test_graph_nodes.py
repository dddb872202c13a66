"""The training step's hand-differentiated tape nodes against the tape of
primitives they replaced (tests/_oracles.py): the text encoder
(encoders.encode_text), the GCN hidden stack (gcn_forward), the attention
pool (graph_attention_pool), ER attention (er_attention), the classifier
(training.classify) and the loss (mean_cross_entropy).

On every training batch of the bundled noisy task at node budgets 3, 20
and 60 and of the bundled lowdata task's act-know and text-only cells, the
fused step must give the composed step's features, logits, loss, every
gradient and the Gumbel rng's next draw bit for bit: in the main updates,
in graph-side pretraining, where the text encoder is frozen and no node
returns a text gradient, and at evaluation, which builds no tape. Every
pullback slot of the fused step is an array, but for the frozen text's. The
tiny task is checked against the oracle and against finite differences,
and with a batch that has no subgraph.
"""

import importlib
import os
import tracemalloc

import numpy as np
import pytest

import _oracles
from actknow import autodiff as ad
from actknow.pipeline import build_model, load_pipeline, prepare_split, training_config_for
from actknow.scenarios import lowdata_experiment, noisy_experiment
from actknow.optim import Adam
from actknow.training import (
    _batch_loss,
    _run_updates,
    classify,
    encode_batch,
    eval_chunks,
    evaluate,
    mean_cross_entropy,
    score_batch,
)
from conftest import mark_leaves
from test_training import build_task

BUNDLED = ["noisy3", "noisy20", "noisy60", "lowdata", "lowdata-text"]
BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def bundled(noisy_dir, lowdata_dir, tmp_path_factory):
    """name -> (config, prepared train split, freshly built model), each
    prepared once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            out = str(tmp_path_factory.mktemp("out"))
            if name.startswith("lowdata"):
                mode = "text-only" if name == "lowdata-text" else "act-know"
                cfg = training_config_for(lowdata_experiment(lowdata_dir, out), mode=mode, data_fraction=0.2)
            else:
                cfg = training_config_for(noisy_experiment(noisy_dir, out), max_nodes=int(name[len("noisy"):]))
            pipe = load_pipeline(cfg)
            cache[name] = (cfg, prepare_split(pipe, "train", cfg), build_model(pipe, cfg))
        return cache[name]

    return get


def _task(name, bundled):
    if name == "tiny2":
        task = build_task()
        return task.config, task.prepared, task.model
    return bundled(name)


def _batches(questions, config):
    return [questions[i : i + config.batch_size] for i in range(0, len(questions), config.batch_size)]


def _weights(batch, config):
    """Unit weights, as base-know trains; random ones in act-know."""
    if config.mode != "act-know":
        return np.ones(len(batch))
    return np.random.default_rng(len(batch)).uniform(0.0, 1.5, size=len(batch))


FUSED = (encode_batch, classify, mean_cross_entropy)
COMPOSED = (_oracles.encode_batch_composed, _oracles.classify_composed, _oracles.mean_cross_entropy_composed)


def _step(stages, batch, model, config, tensors):
    """Features, logits, loss, the gradient of every tensor of one training
    batch and the next draw of its Gumbel rng, a fresh same-seed one, with
    the encoders, classifier and loss of `stages`."""
    encode, score, loss_of = stages
    for t in tensors:
        t.grad = None
    rng = np.random.default_rng(17)
    feats = encode(batch, model, config, train=True, rng=rng)
    logits = score(feats, model.classifier, _weights(batch, config))
    loss = loss_of(logits, feats.starts, [pq.answer_index for pq in batch])
    ad.backward(loss)
    return feats, logits, loss, [t.grad for t in tensors], rng.random()


def _assert_same_features(got, want):
    """The features equal, but for the graph and knowledge blocks that
    text-only no longer builds, which the composed path fills with zeros;
    its logits and gradients are compared instead."""
    assert np.array_equal(got.text.data, want.text.data)
    for name in ("graph", "knowledge"):
        if getattr(got, name) is None:
            assert not np.any(getattr(want, name).data), name
        else:
            assert np.array_equal(getattr(got, name).data, getattr(want, name).data), name
    assert np.array_equal(got.pooled, want.pooled)
    assert np.array_equal(got.attention, want.attention)


def _tape_nodes(loss):
    """The nodes of the tape backward walks from loss: the loss and every
    ancestor that needs a gradient and has a pullback."""
    nodes, seen, stack = [], {id(loss)}, [loss]
    while stack:
        node = stack.pop()
        if node._pullback is not None:
            nodes.append(node)
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


def _assert_fused_matches_composed(config, questions, model, with_text):
    tensors = model.trainable(config, with_text=with_text)
    mark_leaves(*tensors)
    try:
        for batch in _batches(questions, config):
            got = _step(FUSED, batch, model, config, tensors)
            want = _step(COMPOSED, batch, model, config, tensors)
            _assert_same_features(got[0], want[0])
            assert np.array_equal(got[1].data, want[1].data)
            assert got[2].item() == want[2].item()
            for tensor, g, w in zip(tensors, got[3], want[3]):
                assert (g is None) == (w is None), tensor
                assert g is None or np.array_equal(g, w), tensor
            assert got[4] == want[4]
            if not with_text:
                # the frozen text gets no gradient from the nodes that read
                # it, in any of its slots (ER lists it once per term)
                feats = got[0]
                readers = [feats.knowledge] if config.graph_side else []
                if feats.pooled.size:
                    readers.append(feats.graph)
                for node in readers:
                    slots = [pg for pg, parent in zip(node._pullback(np.ones(node.shape)), node._parents)
                             if parent is feats.text]
                    assert slots and all(pg is None for pg in slots)
            # the trainable set alone decides what trains: every slot of a
            # node on the tape is an array, a constant parent's too, but for
            # the text while pretraining freezes it
            for node in _tape_nodes(got[2]):
                for pg, parent in zip(node._pullback(np.ones(node.shape)), node._parents):
                    if parent is got[0].text and not with_text:
                        assert pg is None
                    else:
                        assert isinstance(pg, np.ndarray), (node, parent)
    finally:
        for t in tensors:
            t.requires_grad = False


@pytest.mark.parametrize("name", BUNDLED + ["tiny2"])
@pytest.mark.parametrize("with_text", [True, False], ids=["updates", "pretraining"])
def test_fused_graph_side_matches_the_composed_tape(name, with_text, bundled):
    config, questions, model = _task(name, bundled)
    _assert_fused_matches_composed(config, questions, model, with_text)


@pytest.mark.parametrize("with_text", [True, False], ids=["updates", "pretraining"])
def test_a_batch_with_no_subgraph_matches_the_composed_tape(with_text):
    """The tiny task with every choice's subgraph dropped: the graph rows
    are the zero constant, no GCN runs, and the GCN layers get no gradient
    on either path."""
    task = build_task()
    config, questions, model = task.config, task.prepared, task.model
    for pq in questions:
        for choice in pq.choices:
            choice.subgraph = None
    feats = encode_batch(questions, model, config)
    assert not feats.pooled.size and feats.graph.shape == feats.text.shape and not np.any(feats.graph.data)
    _assert_fused_matches_composed(config, questions, model, with_text)
    # the last step run was the composed one, whose GCN gradients the fused
    # step's matched
    assert model.gcn.hidden_layer.grad is None and model.gcn.last_layer.grad is None


@pytest.mark.parametrize("name", BUNDLED)
def test_eval_builds_no_tape_and_matches_the_composed_features(name, bundled):
    config, questions, model = _task(name, bundled)
    assert not any(t.requires_grad for t in model.named().values())
    for chunk in eval_chunks(questions):
        got = encode_batch(chunk, model, config)
        want = _oracles.encode_batch_composed(chunk, model, config)
        _assert_same_features(got, want)
        weights = np.ones(len(chunk))
        logits = classify(got, model.classifier, weights)
        assert np.array_equal(logits.data, _oracles.classify_composed(want, model.classifier, weights).data)
        for tensor in (t for t in (got.text, got.graph, got.knowledge, logits) if t is not None):
            assert not tensor.requires_grad and tensor._pullback is None and not tensor._parents


@pytest.mark.parametrize("name", ["lowdata-text", "tiny-text"])
def test_text_only_scores_as_the_composed_path_with_zero_blocks(name, bundled):
    """text-only against the composed path, which feeds zero graph and
    knowledge blocks through the 4d-wide classifier: on every training
    batch the same logits, loss and gradients of the text encoder and the
    classifier, and on every eval chunk the same logits, all bit for bit."""
    if name == "tiny-text":
        task = build_task(mode="text-only")
        config, questions, model = task.config, task.prepared, task.model
    else:
        config, questions, model = bundled(name)
    assert not config.graph_side
    tensors = mark_leaves(model.text.token_embedding, model.text.projection, model.text.bias, model.classifier)
    try:
        for batch in _batches(questions, config):
            got = _step(FUSED, batch, model, config, tensors)
            want = _step(COMPOSED, batch, model, config, tensors)
            assert np.array_equal(got[1].data, want[1].data)
            assert got[2].item() == want[2].item()
            for tensor, g, w in zip(tensors, got[3], want[3]):
                assert g is not None and np.array_equal(g, w), tensor
    finally:
        for t in tensors:
            t.requires_grad = False
    for chunk in eval_chunks(questions):
        weights = np.ones(len(chunk))
        got = classify(encode_batch(chunk, model, config), model.classifier, weights)
        want = _oracles.classify_composed(_oracles.encode_batch_composed(chunk, model, config), model.classifier,
                                          weights)
        assert np.array_equal(got.data, want.data)


def test_batch_loss_gradients_match_fd():
    """Finite differences of one batch's loss on the tiny task, eval-mode
    attention, for both GCN layers, the text projection and the
    classifier."""
    task = build_task()
    model, config, batch = task.model, task.config, task.prepared
    tensors = mark_leaves(model.gcn.hidden_layer, model.gcn.last_layer, model.text.projection, model.classifier)
    weights = np.array([1.0, 0.5, 1.5, 0.8])

    def loss():
        logits, starts = score_batch(batch, model, weights, config)
        return mean_cross_entropy(logits, starts, [pq.answer_index for pq in batch])

    ad.backward(loss())
    for tensor in tensors:
        numeric = _oracles.fd_gradient(lambda: loss().item(), tensor.data)
        assert _oracles.max_rel_error(tensor.grad, numeric) < 1e-5, tensor


def _tape_size_of_a_training_batch(name, bundled, monkeypatch):
    """The tape of the first training batch of a bundled cell, counted as
    the traced benchmark counts it: the loss and every ancestor that needs
    a gradient."""
    monkeypatch.syspath_prepend(BENCH_DIR)
    tape_size = importlib.import_module("layers").tape_size
    config, questions, model = bundled(name)
    batch = questions[: config.batch_size]
    tensors = mark_leaves(*model.trainable(config))
    try:
        loss = _batch_loss(batch, model, np.ones(len(batch)), config, np.random.default_rng(0))
        return config.mode, tape_size(loss)
    finally:
        for t in tensors:
            t.requires_grad = False


def test_a_training_batch_tape_stays_small(bundled, monkeypatch):
    """One base-know training batch on the noisy task at node budget 60: 8
    trainable leaves and one node per stage, at most 14 in all (52 when every stage
    was a tape of primitives, 35 with the graph side fused)."""
    mode, size = _tape_size_of_a_training_batch("noisy60", bundled, monkeypatch)
    assert mode == "base-know" and size <= 14


def test_a_text_only_training_batch_tape_stays_small(bundled, monkeypatch):
    """One text-only training batch on the lowdata task: the text encoder's
    3 leaves and the classifier, and the text, classifier and loss nodes:
    at most 7."""
    mode, size = _tape_size_of_a_training_batch("lowdata-text", bundled, monkeypatch)
    assert mode == "text-only" and size <= 7


def _traced_peak(run):
    """tracemalloc's peak over a second call of run, after a first one has
    made whatever a first call makes."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _padded_rows(chunk):
    return sum(len(pq.choices) for pq in chunk) * max(
        (c.subgraph.n_nodes for pq in chunk for c in pq.choices if c.subgraph is not None), default=0)


def test_an_eval_chunk_peaks_below_one_and_a_half_mb(bundled):
    """evaluate on the noisy task's largest eval chunk at node budget 60,
    1,280 padded node rows, peaks at about 1,391 KB traced (2,340 KB while
    the padded stacks were built with zeros and copies, and each relu and
    softmax made a fresh array)."""
    config, questions, model = bundled("noisy60")
    chunk = max(eval_chunks(questions), key=_padded_rows)
    assert _padded_rows(chunk) == 1280
    assert _traced_peak(lambda: evaluate(chunk, model, config)) <= 1.5 * 2**20


def test_a_training_step_peaks_no_higher_than_before(bundled):
    """One update step, loss, backward and Adam, on the first base-know
    batch of the noisy task at node budget 60 peaks at about 3,206 KB
    traced, under the 3,223 KB it took before the graph side wrote its
    temporaries in place."""
    config, questions, model = bundled("noisy60")
    batch = questions[: config.batch_size]
    state = model.state_arrays()
    tensors = mark_leaves(*model.trainable(config))
    opt = Adam(tensors, lr=config.learning_rate, weight_decay=config.weight_decay)

    def step():
        loss = _batch_loss(batch, model, np.ones(len(batch)), config, np.random.default_rng(0))
        opt.zero_grad()
        ad.backward(loss)
        opt.step()

    try:
        assert _traced_peak(step) <= 3223 * 2**10
    finally:
        opt.zero_grad()
        for t in tensors:
            t.requires_grad = False
        model.load_state_arrays(state)


@pytest.mark.parametrize("name", ["noisy60", "lowdata"])
def test_the_graph_side_writes_into_no_input(name, bundled):
    """The encoders write in place only into arrays they allocated: after
    every eval chunk and one pass of update steps, each subgraph's
    edge list, the node features and the KG tables hold the
    bytes they held before."""
    config, questions, model = bundled(name)
    inputs = [a for pq in questions for c in pq.choices if c.subgraph is not None
              for a in (c.subgraph.edge_index, c.subgraph.edge_weight)]
    inputs += [model.gcn.node_features.data, model.er.entity_table.data, model.er.relation_table.data]
    before = [a.copy() for a in inputs]
    state = model.state_arrays()
    opt = Adam(model.trainable(config), lr=config.learning_rate, weight_decay=config.weight_decay)
    try:
        evaluate(questions, model, config)
        rng = np.random.default_rng(0)
        _run_updates(questions, model, np.ones(len(questions)), config, opt, rng, rng)
    finally:
        model.load_state_arrays(state)
    for got, want in zip(inputs, before):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
