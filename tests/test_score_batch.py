"""Choice-stacked scoring against the per-choice scorer it replaced.

The oracle in _oracles.py builds one small tape per choice; score_batch
scores a whole stack of questions at once. Logits and every parameter
gradient must agree to 1e-12 on the tiny task and on the bundled lowdata
task, in eval mode and in train mode with same-seed Gumbel noise, with
different weights for every question.
"""

import numpy as np
import pytest

import _oracles
from actknow import autodiff as ad
from actknow.pipeline import build_model, load_pipeline, training_config_for
from actknow.scenarios import lowdata_experiment
from actknow.training import _batch_loss, prepare_questions, score_batch
from conftest import mark_leaves
from test_training import build_task

TOL = 1e-12


@pytest.fixture(scope="module")
def lowdata_task(lowdata_dir, tmp_path_factory):
    cfg = lowdata_experiment(lowdata_dir, str(tmp_path_factory.mktemp("out")))
    config = training_config_for(cfg, mode="act-know")
    pipe = load_pipeline(cfg)
    questions = prepare_questions(pipe.items["train"][:24], pipe.corpus, pipe.index, pipe.graph, pipe.vocab, config)
    return config, questions, build_model(pipe, config)


def _tasks(name, lowdata_task):
    if name == "tiny":
        task = build_task()
        return task.config, task.prepared, task.model
    return lowdata_task


def _mixed_weights(questions):
    """One weight per question, aligned with them; 0 and 1 among them."""
    weights = np.random.default_rng(8).uniform(0.0, 1.5, size=len(questions))
    weights[0], weights[-1] = 0.0, 1.0
    return weights


def _grads(loss_fn, tensors):
    for t in tensors:
        t.grad = None
    loss = loss_fn()
    ad.backward(loss)
    return loss.item(), [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]


@pytest.mark.parametrize("name", ["tiny", "lowdata"])
def test_eval_logits_match_per_choice_oracle(name, lowdata_task):
    config, questions, model = _tasks(name, lowdata_task)
    weights = _mixed_weights(questions)
    logits, starts = score_batch(questions, model, weights, config)
    assert list(starts) == list(np.cumsum([0] + [len(pq.choices) for pq in questions[:-1]]))
    want = np.concatenate([_oracles.score_question(pq, model, w, config).data for pq, w in zip(questions, weights)])
    assert logits.shape == want.shape
    assert np.max(np.abs(logits.data - want)) <= TOL


def _batched_loss(questions, model, weights, config, train):
    rng = np.random.default_rng(17) if train else None
    logits, starts = score_batch(questions, model, weights, config, train, rng)
    return ad.mean(ad.segment_cross_entropy(logits, starts, [pq.answer_index for pq in questions]))


def _oracle_loss(questions, model, weights, config, train):
    rng = np.random.default_rng(17) if train else None
    losses = [
        ad.reshape(_oracles.cross_entropy(
            _oracles.score_question(pq, model, w, config, train, rng), pq.answer_index), (1,))
        for pq, w in zip(questions, weights)
    ]
    return ad.mean(ad.concat(losses))


@pytest.mark.parametrize("name", ["tiny", "lowdata"])
@pytest.mark.parametrize("train", [False, True])
def test_loss_and_gradients_match_per_choice_oracle(name, train, lowdata_task):
    config, questions, model = _tasks(name, lowdata_task)
    weights = _mixed_weights(questions)
    tensors = mark_leaves(*model.trainable(config))
    got_loss, got = _grads(lambda: _batched_loss(questions, model, weights, config, train), tensors)
    want_loss, want = _grads(lambda: _oracle_loss(questions, model, weights, config, train), tensors)
    assert abs(got_loss - want_loss) <= TOL
    for tensor, g, w in zip(tensors, got, want):
        assert np.max(np.abs(g - w)) <= TOL, tensor
    assert all(np.any(g != 0.0) for g in got)  # every group, the graph side too, got gradient


@pytest.mark.parametrize("train", [False, True])
def test_text_only_logits_and_gradients_ignore_the_weights(train):
    """text-only feeds zero graph and knowledge columns, so every weight
    gives bit-equal logits and gradients; training weights it by 1."""
    task = build_task(mode="text-only")
    questions, model, config = task.prepared, task.model, task.config
    tensors = mark_leaves(*model.trainable(config))
    outputs = []
    for w in (0.0, 1.0, 0.3, 1.7):
        weights = np.full(len(questions), w)
        rng = np.random.default_rng(17) if train else None
        logits = score_batch(questions, model, weights, config, train, rng)[0].data
        loss, grads = _grads(lambda: _batched_loss(questions, model, weights, config, train), tensors)
        outputs.append((logits, loss, grads))
    want_logits, want_loss, want_grads = outputs[0]
    for logits, loss, grads in outputs[1:]:
        assert np.array_equal(logits, want_logits)
        assert loss == want_loss
        assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))


def test_batch_loss_is_the_mean_question_cross_entropy():
    task = build_task()
    weights = _mixed_weights(task.prepared)
    got = _batch_loss(task.prepared, task.model, weights, task.config, np.random.default_rng(17)).item()
    want = _oracle_loss(task.prepared, task.model, weights, task.config, train=True).item()
    assert abs(got - want) <= TOL


def test_train_mode_draws_the_oracles_gumbel_stream():
    task = build_task()
    weights = np.ones(len(task.prepared))
    rng_batch, rng_oracle = np.random.default_rng(5), np.random.default_rng(5)
    got = score_batch(task.prepared, task.model, weights, task.config, train=True, rng=rng_batch)[0].data
    want = np.concatenate([
        _oracles.score_question(pq, task.model, 1.0, task.config, train=True, rng=rng_oracle).data
        for pq in task.prepared
    ])
    assert np.max(np.abs(got - want)) <= TOL
    assert rng_batch.random() == rng_oracle.random()  # both consumed the same number of draws
