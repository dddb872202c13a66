"""Evaluation against the two-pass act-know prediction it replaced, and the
number of encoder calls one evaluation makes.

The oracle in _oracles.py scores every chunk twice, once with unit weights
for the entropies and once with the entropy weights, and reduces each
question's logit vector on its own. evaluate() runs the encoders once per
chunk and only the classifier product twice, and reduces the chunk's
logits as tables, so every row's prediction, logits and entropy must be
equal to the oracle's, not just close; so must the dev loss of the rows.
Each choice's node attention is checked against the per-choice scorer's,
to 1e-12.
"""

import dataclasses
import json

import pytest

import _oracles
from actknow import training
from actknow.cli import READS
from actknow.pipeline import load_pipeline, prepare_split, run_training, training_config_for
from actknow.scenarios import lowdata_experiment
from actknow.nli import QAItem
from test_training import OBJECTS, SUBJECTS, build_task

ENCODERS = ("encode_text", "gcn_forward", "er_attention")


@pytest.fixture(scope="module")
def lowdata_model(lowdata_dir, tmp_path_factory):
    """An act-know model trained for one master epoch on the lowdata
    fraction, and the prepared train, dev and test splits."""
    cfg = lowdata_experiment(lowdata_dir, str(tmp_path_factory.mktemp("out")))
    config = training_config_for(cfg, mode="act-know", data_fraction=0.2, master_epochs=1)
    pipe = load_pipeline(cfg)
    splits = {split: prepare_split(pipe, split, config) for split in ("train", "dev", "test")}
    model, _ = run_training(pipe, config, splits["train"], splits["dev"])
    return config, model, splits


def _oracle_rows(questions, model, config):
    rows = []
    for start in range(0, len(questions), config.batch_size):
        chunk = questions[start : start + config.batch_size]
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


def test_act_know_rows_equal_the_two_pass_oracle_on_the_tiny_task():
    task = build_task(mode="act-know", batch_size=3)  # 4 questions: a full and a part chunk
    _assert_rows_equal(task.prepared, task.model, task.config)


# choice counts 2, 4, 9 and 3; the 9 repeat choices, whose logits tie
MIXED_CHOICES = [OBJECTS[:2], OBJECTS, OBJECTS * 2 + OBJECTS[:1], OBJECTS[1:]]


@pytest.mark.parametrize("batch_size", [3, 4])
@pytest.mark.parametrize("mode", ["act-know", "base-know", "text-only"])
def test_rows_and_loss_equal_the_oracle_under_mixed_choice_counts(mode, batch_size):
    items = [QAItem(id=f"q{i}", stem=f"what does the {s} hunts ?", choices=list(choices), answer_index=i % 2)
             for i, (s, choices) in enumerate(zip(SUBJECTS, MIXED_CHOICES))]
    task = build_task(items=items, mode=mode, batch_size=batch_size)
    rows = _assert_rows_equal(task.prepared, task.model, task.config)
    assert [len(row["logits"]) for row in rows] == [2, 4, 9, 3]
    assert training._mean_loss(rows) == _oracles.mean_loss(rows)


@pytest.mark.parametrize("split", ["train", "dev"])
def test_mean_loss_equals_the_row_loop_on_lowdata(split, lowdata_model):
    config, model, splits = lowdata_model
    _, rows = training.evaluate(splits[split], model, config)
    assert training._mean_loss(rows) == _oracles.mean_loss(rows)


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
    task = build_task(mode=mode, batch_size=3)
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
    task = build_task(mode=mode, batch_size=3)
    counts = _count_encoder_calls(monkeypatch)
    training.evaluate(task.prepared, task.model, task.config, with_details=True)
    chunks = 2  # 4 questions, 3 a chunk
    assert counts == {"encode_text": chunks, "gcn_forward": graph_calls * chunks, "er_attention": graph_calls * chunks}



# a non-default value for every TrainConfig field that eval does not read
UNREAD_BY_EVAL = {
    "master_epochs": 4, "sub_epochs": 5, "learning_rate": 0.5, "seed": 9, "data_fraction": 0.3,
    "gumbel_temperature": 0.25, "pretrain_epochs": 7, "text_dim": 3, "node_dim": 5,
    "kg_dim": 6, "gcn_hidden": 7, "gcn_layers": 4, "kg_epochs": 1,
    "adam_beta1": 0.5, "adam_beta2": 0.75, "adam_eps": 0.125, "weight_decay": 0.0,
}


@pytest.mark.parametrize("split", ["dev", "test"])
def test_eval_reads_only_its_own_settings(split, lowdata_model):
    """prepare_split and evaluate of one model give byte-identical rows
    under the defaults and under a non-default value of every TrainConfig
    field outside eval's five. The train split is left out: there
    prepare_split draws the data_fraction sample that training reads, and
    eval always leaves data_fraction at 1."""
    config, model, _ = lowdata_model
    read = {f.name for f in dataclasses.fields(training.TrainConfig)} & set(READS["eval"])
    assert read == {"mode", "batch_size", "retrieve_k", "max_nodes", "max_path_len"}
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
