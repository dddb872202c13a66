"""Evaluation against the two-pass act-know prediction it replaced, against
the chunks of BATCH_SIZE questions its chunks replaced, and the number of
encoder calls one evaluation makes.

The two-pass oracle in _oracles.py scores every chunk of eval_chunks twice,
once with unit weights for the entropies and once with the entropy
weights, and reduces each question's logit vector on its own. evaluate()
runs the encoders once per chunk and only the classifier product twice,
and reduces the chunk's logits as tables, so every row's prediction,
logits and entropy must be equal to the oracle's, not just close; so must
the dev loss of the rows. Each choice's node attention is checked against
the per-choice scorer's, to 1e-12.

evaluate()'s chunks are sized by their choices and padded node rows, not
by training.BATCH_SIZE. A question's logits depend on its chunk-mates in
the last bits, so against evaluation in chunks of BATCH_SIZE questions
logits and entropies agree to 1e-12 and predictions exactly; and
evaluate()'s rows are byte-identical under any BATCH_SIZE.
"""

import dataclasses
import json

import numpy as np
import pytest

import _oracles
from actknow import autodiff as ad
from actknow import training
from actknow.cli import READS
from actknow.pipeline import load_pipeline, prepare_split, run_training, training_config_for
from actknow.scenarios import lowdata_experiment, noisy_experiment
from actknow.nli import QAItem
from actknow.optim import Adam
from conftest import mark_leaves
from test_training import OBJECTS, SUBJECTS, build_task

ENCODERS = ("encode_text", "gcn_forward", "er_attention")


SPLITS = ("train", "dev", "test")


def _trained(cfg, **overrides):
    """A model trained for one master epoch under cfg with `overrides`, its
    config, and the prepared train, dev and test splits."""
    config = training_config_for(cfg, master_epochs=1, **overrides)
    pipe = load_pipeline(cfg)
    splits = {split: prepare_split(pipe, split, config) for split in SPLITS}
    model, _ = run_training(pipe, config, splits["train"], splits["dev"])
    return config, model, splits


@pytest.fixture(scope="module")
def lowdata_model(lowdata_dir, tmp_path_factory):
    """An act-know model trained for one master epoch on the lowdata
    fraction, and the prepared train, dev and test splits."""
    cfg = lowdata_experiment(lowdata_dir, str(tmp_path_factory.mktemp("out")))
    return _trained(cfg, mode="act-know", data_fraction=0.2)


@pytest.fixture(scope="module")
def lowdata_text_model(lowdata_dir, tmp_path_factory):
    """The same for a text-only model."""
    cfg = lowdata_experiment(lowdata_dir, str(tmp_path_factory.mktemp("out")))
    return _trained(cfg, mode="text-only", data_fraction=0.2)


@pytest.fixture(scope="module")
def noisy_models(noisy_dir, tmp_path_factory):
    """Per node budget of the noisy ablation, a base-know model trained for
    one master epoch at that budget and its prepared splits."""
    cfg = noisy_experiment(noisy_dir, str(tmp_path_factory.mktemp("out")))
    return {budget: _trained(cfg, max_nodes=budget) for budget in cfg.node_budgets}


def _oracle_rows(questions, model, config):
    rows = []
    for chunk in training.eval_chunks(questions):
        for pred, logits, entropy in _oracles.predict_batch(chunk, model, config):
            rows.append({"predicted": pred, "logits": [float(v) for v in logits], "entropy": entropy})
    return rows


def _assert_attention_close(got, pq, model, config):
    want: list[dict] = []
    _oracles.score_question(pq, model, 1.0, config, details=want)
    assert [choice.keys() for choice in got] == [choice.keys() for choice in want]
    for g, w in zip(got, want):
        if w:
            assert list(g["node_attention"]) == list(w["node_attention"])
            assert max(abs(g["node_attention"][e] - x) for e, x in w["node_attention"].items()) <= 1e-12


def _assert_rows_equal(questions, model, config):
    _, rows = training.evaluate(questions, model, config, with_details=True)
    want = _oracle_rows(questions, model, config)
    assert len(rows) == len(want) == len(questions)
    for got, expected, pq in zip(rows, want, questions):
        for key, value in expected.items():
            assert got[key] == value, (got["id"], key)
        _assert_attention_close(got["attention"], pq, model, config)
    return rows


@pytest.mark.parametrize("split", ["train", "dev", "test"])
def test_act_know_rows_equal_the_two_pass_oracle_on_lowdata(split, lowdata_model):
    config, model, splits = lowdata_model
    rows = _assert_rows_equal(splits[split], model, config)
    assert len({row["entropy"] for row in rows}) > 1  # the entropy weights differ by question
    assert any("node_attention" in choice for row in rows for choice in row["attention"])


def test_act_know_rows_equal_the_two_pass_oracle_on_the_tiny_task(monkeypatch):
    monkeypatch.setattr(training, "EVAL_CHUNK_CHOICES", 12)  # 4 questions of 4 choices: chunks of 3 and 1
    task = build_task(mode="act-know")
    assert [len(chunk) for chunk in training.eval_chunks(task.prepared)] == [3, 1]
    _assert_rows_equal(task.prepared, task.model, task.config)


# choice counts 2, 4, 9 and 3; the 9 repeat choices, whose logits tie
MIXED_CHOICES = [OBJECTS[:2], OBJECTS, OBJECTS * 2 + OBJECTS[:1], OBJECTS[1:]]


@pytest.mark.parametrize("first_chunk", [3, 4])  # questions in the first chunk
@pytest.mark.parametrize("mode", ["act-know", "base-know", "text-only"])
def test_rows_and_loss_equal_the_oracle_under_mixed_choice_counts(mode, first_chunk, monkeypatch):
    monkeypatch.setattr(training, "EVAL_CHUNK_CHOICES", sum(map(len, MIXED_CHOICES[:first_chunk])))
    items = [QAItem(id=f"q{i}", stem=f"what does the {s} hunts ?", choices=list(choices), answer_index=i % 2)
             for i, (s, choices) in enumerate(zip(SUBJECTS, MIXED_CHOICES))]
    task = build_task(items=items, mode=mode)
    assert len(next(training.eval_chunks(task.prepared))) == first_chunk
    rows = _assert_rows_equal(task.prepared, task.model, task.config)
    assert [len(row["logits"]) for row in rows] == [2, 4, 9, 3]
    assert training._mean_loss(rows) == _oracles.mean_loss(rows)


@pytest.mark.parametrize("split", ["train", "dev"])
def test_mean_loss_equals_the_row_loop_on_lowdata(split, lowdata_model):
    config, model, splits = lowdata_model
    _, rows = training.evaluate(splits[split], model, config)
    assert training._mean_loss(rows) == _oracles.mean_loss(rows)


def _bundled(name, request):
    """(config, model, splits) of a bundled task by name: lowdata-act,
    lowdata-text or noisy-<budget>."""
    if name.startswith("noisy-"):
        return request.getfixturevalue("noisy_models")[int(name.split("-")[1])]
    return request.getfixturevalue({"lowdata-act": "lowdata_model", "lowdata-text": "lowdata_text_model"}[name])


BUNDLED = ["lowdata-act", "lowdata-text", "noisy-3", "noisy-20", "noisy-60"]


@pytest.mark.parametrize("split", SPLITS)
@pytest.mark.parametrize("name", BUNDLED)
def test_rows_agree_with_chunks_of_batch_size(name, split, request):
    """Chunks sized by eval_chunks, against the chunks of BATCH_SIZE
    questions they replaced: the same predictions, logits and entropies
    within 1e-12, on every split of the bundled tasks."""
    config, model, splits = _bundled(name, request)
    questions = splits[split]
    _, rows = training.evaluate(questions, model, config)
    want = _oracles.evaluate_by_batch_size(questions, model, config)
    assert [row["id"] for row in rows] == [row["id"] for row in want]
    assert [row["predicted"] for row in rows] == [row["predicted"] for row in want]
    for got, expected in zip(rows, want):
        assert got["correct"] == expected["correct"] and len(got["logits"]) == len(expected["logits"])
        assert max(abs(a - b) for a, b in zip(got["logits"], expected["logits"])) <= 1e-12, got["id"]
        assert abs(got["entropy"] - expected["entropy"]) <= 1e-12, got["id"]


@pytest.mark.parametrize("name", ["lowdata-act", "lowdata-text"])
def test_rows_are_byte_identical_under_any_batch_size(name, request, monkeypatch):
    """evaluate() chunks by eval_chunks alone, so its rows are
    byte-identical whatever training.BATCH_SIZE is."""
    config, model, splits = _bundled(name, request)

    def rows(questions, batch_size):
        monkeypatch.setattr(training, "BATCH_SIZE", batch_size)
        return json.dumps(training.evaluate(questions, model, config, with_details=True)[1]).encode("utf-8")

    for split in SPLITS:
        assert len({rows(splits[split], size) for size in (1, training.BATCH_SIZE, 1000)}) == 1, split


@pytest.mark.parametrize("name", BUNDLED)
def test_eval_chunks_hold_the_caps_and_keep_the_order(name, request):
    """Every chunk but a lone question holds at most EVAL_CHUNK_CHOICES
    choices and EVAL_CHUNK_ROWS padded node rows, and could not take the
    next question; the chunks joined are the questions in order."""
    _, _, splits = _bundled(name, request)
    for questions in splits.values():
        chunks = list(training.eval_chunks(questions))
        assert [pq for chunk in chunks for pq in chunk] == questions
        for chunk, following in zip(chunks, chunks[1:] + [None]):
            assert len(chunk) == 1 or (_choices(chunk) <= training.EVAL_CHUNK_CHOICES
                                       and _padded_rows(chunk) <= training.EVAL_CHUNK_ROWS)
            if following is not None:
                grown = chunk + following[:1]
                assert (_choices(grown) > training.EVAL_CHUNK_CHOICES
                        or _padded_rows(grown) > training.EVAL_CHUNK_ROWS)


def _choices(chunk):
    return sum(len(pq.choices) for pq in chunk)


def _padded_rows(chunk):
    nodes = [c.subgraph.n_nodes for pq in chunk for c in pq.choices if c.subgraph is not None]
    return _choices(chunk) * max(nodes, default=0)


def _text_only_outputs(model, config, splits):
    """evaluate()'s rows with details on every split, then the gradients
    and the Adam update of one training step on the first batch; the model
    is back at its state afterwards."""
    rows = [training.evaluate(splits[split], model, config, with_details=True)[1] for split in SPLITS]
    tensors = mark_leaves(*model.trainable(config))
    before = [t.data.copy() for t in tensors]
    batch = splits["train"][: training.BATCH_SIZE]
    try:
        opt = Adam(tensors, lr=config.learning_rate)
        opt.zero_grad()  # training leaves its last step's gradients behind
        loss = training._batch_loss(batch, model, np.ones(len(batch)), config, np.random.default_rng(0))
        ad.backward(loss)
        grads = [t.grad.copy() for t in tensors]
        opt.step()
        updates = [t.data - b for t, b in zip(tensors, before)]
    finally:
        for t, b in zip(tensors, before):
            t.data, t.grad, t.requires_grad = b, None, False
    return rows, loss.item(), grads, updates


def test_text_only_reads_no_graph_side_tensor(lowdata_dir, tmp_path):
    """A trained text-only model scores, differentiates and steps the same
    bits whatever its GCN, node features and ER tensors hold: no logit
    reads them, so its checkpoint need not hold them."""
    cfg = lowdata_experiment(lowdata_dir, str(tmp_path))
    config, model, splits = _trained(cfg, mode="text-only", data_fraction=0.2)
    want = _text_only_outputs(model, config, splits)
    rng = np.random.default_rng(3)
    unread = [model.gcn.hidden_layer, model.gcn.last_layer, model.gcn.node_features, model.er.entity_table,
              model.er.relation_table, model.er.entity_proj, model.er.relation_proj]
    for tensor in unread:
        tensor.data = rng.normal(0.0, 5.0, size=tensor.data.shape)
    got = _text_only_outputs(model, config, splits)
    assert got[0] == want[0] and got[1] == want[1]
    for g, w in zip(got[2] + got[3], want[2] + want[3]):
        assert np.array_equal(g, w)


def test_eval_chunks_bound_text_only_chunks_by_choices_alone(lowdata_text_model):
    _, _, splits = lowdata_text_model
    chunks = list(training.eval_chunks(splits["test"]))
    assert all(_padded_rows(chunk) == 0 for chunk in chunks)
    assert [_choices(chunk) for chunk in chunks[:-1]] == [training.EVAL_CHUNK_CHOICES] * (len(chunks) - 1)


def test_a_question_over_the_caps_is_a_chunk_of_its_own(monkeypatch):
    task = build_task()
    monkeypatch.setattr(training, "EVAL_CHUNK_CHOICES", 3)  # under each question's 4 choices
    assert [len(chunk) for chunk in training.eval_chunks(task.prepared)] == [1, 1, 1, 1]
    monkeypatch.setattr(training, "EVAL_CHUNK_CHOICES", 128)
    monkeypatch.setattr(training, "EVAL_CHUNK_ROWS", 1)
    assert [len(chunk) for chunk in training.eval_chunks(task.prepared)] == [1, 1, 1, 1]
    assert list(training.eval_chunks([])) == []


def _assert_details_change_nothing_else(questions, model, config):
    _, plain = training.evaluate(questions, model, config)
    _, detailed = training.evaluate(questions, model, config, with_details=True)
    assert len(plain) == len(detailed) == len(questions)
    for a, b in zip(plain, detailed):
        assert set(b) - set(a) == {"attention"}
        for key, value in a.items():
            assert b[key] == value, (a["id"], key)


def test_details_change_no_other_field_on_lowdata(lowdata_model):
    config, model, splits = lowdata_model
    _assert_details_change_nothing_else(splits["dev"], model, config)


@pytest.mark.parametrize("mode", ["act-know", "base-know", "text-only"])
def test_details_change_no_other_field_on_the_tiny_task(mode):
    task = build_task(mode=mode)
    _assert_details_change_nothing_else(task.prepared, task.model, task.config)


def _count_encoder_calls(monkeypatch):
    counts = dict.fromkeys(ENCODERS, 0)
    for name in ENCODERS:
        fn = getattr(training, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(training, name, counted)
    return counts


@pytest.mark.parametrize("mode, graph_calls", [("act-know", 1), ("base-know", 1), ("text-only", 0)])
def test_evaluate_runs_each_encoder_once_per_chunk(mode, graph_calls, monkeypatch):
    monkeypatch.setattr(training, "EVAL_CHUNK_CHOICES", 12)
    task = build_task(mode=mode)
    chunks = len(list(training.eval_chunks(task.prepared)))
    assert chunks == 2  # 4 questions of 4 choices, 3 a chunk
    counts = _count_encoder_calls(monkeypatch)
    training.evaluate(task.prepared, task.model, task.config, with_details=True)
    assert counts == {"encode_text": chunks, "gcn_forward": graph_calls * chunks, "er_attention": graph_calls * chunks}



# a non-default value for every TrainConfig field that preparation and
# scoring do not read
UNREAD_BY_EVAL = {
    "master_epochs": 4, "sub_epochs": 5, "learning_rate": 0.5, "seed": 9, "data_fraction": 0.3,
    "pretrain_epochs": 7, "text_dim": 3, "node_dim": 5, "gcn_hidden": 7,
}


@pytest.mark.parametrize("split", ["dev", "test"])
def test_eval_reads_only_its_own_settings(split, lowdata_model):
    """eval takes no TrainConfig flag: it scores with the config its
    checkpoint stores. Of that config, prepare_split and evaluate of one
    model read only two fields: they give byte-identical rows under the
    defaults and under a non-default value of every other field. The train
    split is left out: there prepare_split draws the data_fraction sample
    that training reads, and eval sets data_fraction to 1."""
    config, model, _ = lowdata_model
    assert not {f.name for f in dataclasses.fields(training.TrainConfig)} & set(READS["eval"])
    read = {"mode", "max_nodes"}
    assert set(UNREAD_BY_EVAL) == {f.name for f in dataclasses.fields(training.TrainConfig)} - read
    defaults = training_config_for(
        dataclasses.replace(config, **{f.name: f.default for f in dataclasses.fields(training.TrainConfig)
                                       if f.name not in read}))
    unread = training_config_for(config, **UNREAD_BY_EVAL)
    assert all(getattr(unread, name) != getattr(defaults, name) for name in UNREAD_BY_EVAL)
    pipe = load_pipeline(config)

    def rows(tc):
        _, rows = training.evaluate(prepare_split(pipe, split, tc), model, tc, with_details=True)
        return json.dumps(rows).encode("utf-8")

    assert rows(unread) == rows(defaults)
