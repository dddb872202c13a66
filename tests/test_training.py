"""Question scoring, entropy weighting, the training loop, evaluation accounting."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actknow import autodiff as ad
from actknow import training
from actknow.encoders import build_vocab, encode_text, er_attention, gcn_forward
from actknow.errors import ConfigError
from actknow.experiments import run_cell
from actknow.kg import EmbeddingTable, graph_from_triples, train_kg_embeddings
from actknow.nli import QAItem
from actknow.pipeline import load_pipeline, prepare_split, training_config_for
from actknow.retrieval import build_index, corpus_from_sentences, tokenize
from actknow.scenarios import lowdata_experiment
from actknow.training import (
    PreparedQuestion,
    STATS_HEADER,
    evaluate,
    init_model,
    prepare_questions,
    question_entropies,
    sample_fraction,
    score_question,
    train,
    write_stats_csv,
)

import _oracles
from conftest import mark_leaves, tiny_config, tiny_model

SUBJECTS = ["lynx", "heron", "otter", "viper"]
OBJECTS = ["moss", "reed", "clam", "mouse"]


def build_task(items=None, **overrides):
    triples = [(s, "hunts", o) for s, o in zip(SUBJECTS, OBJECTS)]
    sentences = [f"the {s} hunts the {o} daily" for s, o in zip(SUBJECTS, OBJECTS)]
    if items is None:
        items = [
            QAItem(id=f"q{i}", stem=f"what does the {s} hunts ?", choices=list(OBJECTS), answer_index=i)
            for i, s in enumerate(SUBJECTS)
        ]
    graph = graph_from_triples(triples)
    corpus = corpus_from_sentences(sentences)
    index = build_index(corpus)
    vocab = build_vocab([tokenize(t) for t in sentences + [it.stem for it in items] + OBJECTS])
    config = tiny_config(**overrides)
    prepared = prepare_questions(items, corpus, index, graph, vocab, config)
    model = tiny_model(graph, config, vocab_size=len(vocab))
    return SimpleNamespace(
        graph=graph, vocab=vocab, config=config, prepared=prepared, model=model
    )


def manual_logits(pq, model, weight, config):
    """Assemble per-choice logits from the individual encoder calls, each on
    a batch of one choice."""
    graph_side = config.mode != "text-only"
    out = []
    for choice in pq.choices:
        text = encode_text([choice.token_ids], model.text)
        t = text.data[0]
        if graph_side and choice.subgraph is not None and choice.subgraph.n_nodes > 0:
            hidden, adjacency, _ = gcn_forward([choice.subgraph], model.gcn)
            nodes = adjacency.data[0] @ hidden.data[0] @ model.gcn.layers[-1].data
            scores = nodes @ t
            e = np.exp(scores - scores.max())
            g = (e / e.sum()) @ nodes
        else:
            g = np.zeros(model.dim)
        if graph_side:
            k = er_attention(text, model.er, config.gumbel_temperature, train=False).data[0]
        else:
            k = np.zeros(2 * model.dim)
        feats = np.concatenate([t, weight * g, weight * k])
        out.append(model.classifier.data @ feats)
    return np.array(out)


# ---------------------------------------------------------------------------
# preparation

NO_GCN = [pytest.param({"mode": "text-only"}, id="text-only")]


@pytest.mark.parametrize("overrides", NO_GCN)
def test_preparation_without_a_gcn_scans_no_mention(overrides, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("graph side prepared for a config without a GCN")

    monkeypatch.setattr(training, "identify_concepts", refuse)
    monkeypatch.setattr(training, "connect_concepts", refuse)
    task = build_task(**overrides)
    assert not any(pq.graph_side for pq in task.prepared)
    assert all(c.subgraph is None for pq in task.prepared for c in pq.choices)


def test_preparation_with_a_gcn_builds_subgraphs():
    task = build_task()
    assert all(pq.graph_side for pq in task.prepared)
    assert any(c.subgraph is not None for pq in task.prepared for c in pq.choices)


def test_the_gcn_refuses_questions_prepared_without_it():
    task = build_task(mode="text-only")
    with pytest.raises(ValueError, match="without their subgraphs"):
        training.encode_batch(task.prepared, task.model, tiny_config())
    with pytest.raises(ValueError, match="without their subgraphs"):
        evaluate(task.prepared, task.model, tiny_config(mode="act-know"))
    # text-only reads only the text
    training.encode_batch(task.prepared, task.model, task.config)


@pytest.mark.parametrize("overrides", NO_GCN)
def test_cells_without_a_gcn_train_the_same_bytes_from_either_preparation(overrides, lowdata_dir, tmp_path):
    """A cell that runs no GCN never reads subgraphs, so training it from
    questions prepared without them writes the same stats.csv, checkpoint
    and test rows as training it from questions prepared with them."""
    cfg = training_config_for(lowdata_experiment(lowdata_dir, str(tmp_path)), data_fraction=0.2, **overrides)
    pipe = load_pipeline(cfg)
    outputs = []
    for prep in (cfg, training_config_for(cfg, mode="base-know")):
        train_qs, dev_qs, test_qs = (prepare_split(pipe, split, prep) for split in ("train", "dev", "test"))
        built = [c.subgraph is not None for pq in train_qs for c in pq.choices]
        assert any(built) == train_qs[0].graph_side == prep.graph_side
        out = tmp_path / str(len(outputs))
        run_cell(pipe, cfg, train_qs, dev_qs, test_qs, str(out))
        outputs.append(tuple((out / name).read_bytes()
                             for name in ("stats.csv", "checkpoint.txt", "test_predictions.jsonl")))
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# scoring


def test_score_question_matches_manual_assembly():
    task = build_task()
    pq = task.prepared[1]
    for weight in (1.0, 0.3, 1.7, 0.0):
        got = score_question(pq, task.model, weight, task.config).data
        want = manual_logits(pq, task.model, weight, task.config)
        assert np.max(np.abs(got - want)) < 1e-10


def test_zero_weights_match_text_only_mode():
    task = build_task()
    pq = task.prepared[0]
    zeroed = score_question(pq, task.model, 0.0, task.config).data
    text_cfg = tiny_config(mode="text-only")
    _, rows = evaluate([pq], task.model, text_cfg)
    assert np.array_equal(zeroed, rows[0]["logits"])


def test_zero_weights_ignore_graph_tables():
    task = build_task()
    pq = task.prepared[2]
    before = score_question(pq, task.model, 0.0, task.config).data
    task.model.gcn.node_features.data = task.model.gcn.node_features.data[::-1].copy()
    task.model.er.entity_table.data = -task.model.er.entity_table.data
    after = score_question(pq, task.model, 0.0, task.config).data
    assert np.array_equal(before, after)


def test_zero_entropy_weight_blocks_graph_gradients():
    task = build_task()
    mark_leaves(*task.model.trainable(task.config))
    pq = task.prepared[0]
    logits = score_question(
        pq, task.model, 0.0, task.config, train=True, rng=np.random.default_rng(0)
    )
    ad.backward(ad.mean(ad.segment_cross_entropy(logits, np.array([0]), [pq.answer_index])))
    named = task.model.named()
    for name, tensor in named.items():
        if name.startswith(("gcn.layer", "er.entity_proj", "er.relation_proj")):
            grad = tensor.grad
            assert grad is None or np.linalg.norm(grad) < 1e-8, name
    assert np.linalg.norm(named["classifier"].grad) > 0.0
    assert np.linalg.norm(named["text.projection"].grad) > 0.0


def test_prepared_subgraph_is_none_without_mentions():
    items = [QAItem(id="q", stem="what glows at dusk ?", choices=["ember", "fog"], answer_index=0)]
    task = build_task(items=items)
    pq = task.prepared[0]
    assert all(c.subgraph is None for c in pq.choices)
    logits = score_question(pq, task.model, 1.0, task.config).data
    assert logits.shape == (2,)
    assert np.all(np.isfinite(logits))


def test_prepared_seed_budget_keeps_lowest_ids():
    task = build_task(max_nodes=2)
    pq = task.prepared[0]
    for choice in pq.choices:
        if choice.subgraph is not None:
            assert choice.subgraph.n_nodes <= 2


# ---------------------------------------------------------------------------
# entropy: question_entropies reduces a chunk's logits as tables, and each
# question's entropy must equal the per-vector oracle's bit for bit


def entropies_of(vectors):
    """question_entropies of a chunk whose questions hold `vectors`."""
    return question_entropies(np.concatenate(vectors), np.array([len(z) for z in vectors]))


def assert_oracle_bytes(vectors):
    want = np.array([_oracles.question_entropy(z) for z in vectors])
    assert entropies_of(vectors).tobytes() == want.tobytes()


def test_entropy_uniform_is_log_m():
    h = entropies_of([np.zeros(4), np.full(2, 3.5), np.full(9, -1.0), np.full(4, 100.0)])
    assert np.all(np.abs(h - np.log([4.0, 2.0, 9.0, 4.0])) < 1e-12)


def test_entropy_peaked_is_near_zero():
    assert entropies_of([np.array([100.0, 0.0, 0.0, 0.0])])[0] < 1e-10


def test_entropy_known_distribution():
    logits = np.log(np.array([0.7, 0.1, 0.1, 0.1]))
    expected = -(0.7 * np.log(0.7) + 0.3 * np.log(0.1))
    assert abs(entropies_of([logits])[0] - expected) < 1e-12


def test_entropy_shift_invariant():
    z = np.array([1.3, -0.2, 0.9])
    h = entropies_of([z, z + 50.0])
    assert abs(h[0] - h[1]) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 6), min_size=1, max_size=10), st.integers(0, 10**9))
def test_entropy_bounds(counts, seed):
    rng = np.random.default_rng(seed)
    h = entropies_of([rng.normal(scale=5.0, size=m) for m in counts])
    assert np.all((0.0 <= h) & (h <= np.log(counts) + 1e-12))


def test_entropy_rejects_bad_input():
    with pytest.raises(ValueError):
        question_entropies(np.array([]), np.array([], dtype=int))
    with pytest.raises(ValueError):
        question_entropies(np.zeros(2), np.array([2, 0]))


def test_entropies_equal_the_oracle_on_random_chunks():
    """Uniform and ragged chunks, choice counts 1 to 13 (a ragged chunk
    mixing counts below and above 8 included), scales 1e-3 to 1e3, ties and
    one dominating logit, each compared byte for byte."""
    rng = np.random.default_rng(27)
    for trial in range(600):
        size = int(rng.integers(1, 12))
        counts = rng.integers(1, 14, size) if trial % 2 else np.full(size, int(rng.integers(1, 14)))
        scale = 10.0 ** rng.uniform(-3, 3)
        vectors = [rng.normal(0.0, scale, c) for c in counts]
        if trial % 3 == 0:  # ties
            vectors = [np.round(z) for z in vectors]
        if trial % 5 == 0:  # one dominating logit
            for z in vectors:
                z[rng.integers(len(z))] = 800.0
        assert_oracle_bytes(vectors)
    assert_oracle_bytes([np.zeros(4), np.zeros(9), np.full(2, 7.0), np.array([3.0, 3.0, -1.0])])
    assert_oracle_bytes([rng.normal(size=c) for c in [4] * 500 + [3, 5, 8]])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12), min_size=1, max_size=10))
def test_entropies_equal_the_oracle_on_any_chunk(vectors):
    assert_oracle_bytes([np.array(z) for z in vectors])


# ---------------------------------------------------------------------------
# subsampling


def test_sample_fraction_stratified():
    items = [SimpleNamespace(answer_index=i % 4) for i in range(8)]
    half = sample_fraction(items, 0.5, seed=0)
    assert len(half) == 4
    assert sorted(q.answer_index for q in half) == [0, 1, 2, 3]


def test_sample_fraction_seeded():
    items = [SimpleNamespace(answer_index=i % 4) for i in range(40)]
    a = sample_fraction(items, 0.3, seed=5)
    b = sample_fraction(items, 0.3, seed=5)
    assert [id(x) for x in a] == [id(x) for x in b]
    c = sample_fraction(items, 0.3, seed=6)
    assert [id(x) for x in a] != [id(x) for x in c]


def test_sample_fraction_full_and_invalid():
    items = [SimpleNamespace(answer_index=0)]
    assert sample_fraction(items, 1.0, seed=0) == items
    with pytest.raises(ConfigError):
        sample_fraction(items, 0.0, seed=0)
    with pytest.raises(ConfigError):
        sample_fraction(items, 1.5, seed=0)


@pytest.mark.parametrize("mode", ["base-know", "text-only"])
def test_train_split_prepares_the_sample_of_the_whole_preparation(mode, lowdata_dir, tmp_path):
    """prepare_split draws the data_fraction sample before preparing it; the
    result equals the sample drawn from the whole split prepared at
    fraction 1.0. Each sample is prepared on a fresh pipeline, so the path
    memo and label trie start cold there and warm on the whole split."""
    cfg = training_config_for(lowdata_experiment(lowdata_dir, str(tmp_path)), mode=mode)
    whole = prepare_split(load_pipeline(cfg), "train", training_config_for(cfg, data_fraction=1.0))
    assert len({pq.qid for pq in whole}) == len(whole)
    for fraction in (0.05, 0.2, 0.5, 1.0):
        for seed in (0, 3):
            tc = training_config_for(cfg, data_fraction=fraction, seed=seed)
            got = prepare_split(load_pipeline(cfg), "train", tc)
            want = sample_fraction(whole, fraction, seed)
            assert [(pq.qid, pq.answer_index) for pq in got] == [(pq.qid, pq.answer_index) for pq in want]
            for g, w in zip(got, want):
                assert g.graph_side == w.graph_side == (mode == "base-know")
                assert len(g.choices) == len(w.choices)
                for gc, wc in zip(g.choices, w.choices):
                    assert gc.token_ids.dtype == wc.token_ids.dtype
                    assert np.array_equal(gc.token_ids, wc.token_ids)
                    assert (gc.subgraph is None) == (wc.subgraph is None)
                    if gc.subgraph is not None:
                        assert gc.subgraph.nodes == wc.subgraph.nodes
                        assert gc.subgraph.paths == wc.subgraph.paths
                        assert gc.subgraph.norm_adjacency.tobytes() == wc.subgraph.norm_adjacency.tobytes()
                        assert gc.subgraph.norm_adjacency.shape == wc.subgraph.norm_adjacency.shape


# ---------------------------------------------------------------------------
# prediction and evaluation


def test_predict_tie_breaks_to_lowest_index():
    items = [QAItem(id="q", stem="what hums ?", choices=["moss", "moss", "moss"], answer_index=2)]
    task = build_task(items=items)
    _, rows = evaluate(task.prepared, task.model, task.config)
    assert np.allclose(rows[0]["logits"], rows[0]["logits"][0])
    assert rows[0]["predicted"] == 0


def test_predict_act_mode_uses_two_passes():
    task = build_task(mode="act-know")
    pq = task.prepared[1]
    first = score_question(pq, task.model, 1.0, task.config).data
    h = _oracles.question_entropy(first)
    expected = score_question(pq, task.model, h, task.config).data
    _, rows = evaluate([pq], task.model, task.config)
    assert rows[0]["entropy"] == h
    assert np.array_equal(rows[0]["logits"], expected)
    assert rows[0]["predicted"] == int(np.argmax(expected))


def test_evaluate_records_each_question():
    task = build_task()
    acc, rows = evaluate(task.prepared, task.model, task.config)
    assert len(rows) == len(task.prepared)
    hits = 0
    for pq, row in zip(task.prepared, rows):
        assert row["id"] == pq.qid
        assert row["gold"] == pq.answer_index
        assert row["correct"] == (row["predicted"] == row["gold"])
        assert 0.0 <= row["entropy"] <= np.log(len(row["logits"])) + 1e-9
        hits += row["correct"]
    assert acc == hits / len(rows)


def test_evaluate_all_correct_is_one():
    task = build_task()
    preds = [evaluate([pq], task.model, task.config)[1][0]["predicted"] for pq in task.prepared]
    for pq, p in zip(task.prepared, preds):
        pq.answer_index = p
    acc, _ = evaluate(task.prepared, task.model, task.config)
    assert acc == 1.0


def test_evaluate_rejects_empty():
    task = build_task()
    with pytest.raises(ConfigError):
        evaluate([], task.model, task.config)


def test_untrained_model_scores_like_chance_on_random_golds():
    """A fixed untrained model against uniformly random gold labels lands in
    the binomial band around 1/4."""
    task = build_task()
    base = task.prepared[0]
    golds = np.random.default_rng(123).integers(0, 4, size=1000)
    questions = [
        PreparedQuestion(qid=f"g{i}", answer_index=int(g), choices=base.choices, graph_side=base.graph_side)
        for i, g in enumerate(golds)
    ]
    acc, rows = evaluate(questions, task.model, task.config)
    assert len(rows) == 1000
    assert 0.20 <= acc <= 0.30


# ---------------------------------------------------------------------------
# training loop


def test_overfits_single_question():
    task = build_task(master_epochs=50, learning_rate=1e-2)
    result = train(task.model, task.prepared[:1], None, task.config)
    train_rows = [r for r in result.stats if r["split"] == "train"]
    assert train_rows[-1]["accuracy"] == 1.0
    assert train_rows[-1]["loss"] < 0.1
    assert train_rows[-1]["loss"] < train_rows[0]["loss"]


def test_training_is_deterministic():
    def run():
        task = build_task(master_epochs=2)
        result = train(task.model, task.prepared, task.prepared[:2], task.config)
        return result

    a, b = run(), run()
    assert a.stats == b.stats
    assert a.best_epoch == b.best_epoch
    for name, arr in a.best_state.items():
        assert np.array_equal(arr, b.best_state[name]), name


def test_act_with_pinned_weight_one_matches_plain_training(monkeypatch):
    """Pinning every question's entropy, and so its weight, to 1 makes the
    active loop identical to the fixed-weight one, update for update."""
    base_task = build_task(master_epochs=3)
    base = train(base_task.model, base_task.prepared, None, base_task.config)
    act_task = build_task(master_epochs=3, mode="act-know")
    monkeypatch.setattr(training, "question_entropies", lambda logits, counts: np.ones(len(counts)))
    act = train(act_task.model, act_task.prepared, None, act_task.config)
    assert len(act.entropy_history) == 3
    for weights in act.entropy_history:
        assert np.array_equal(weights, np.ones(len(act_task.prepared)))
    base_losses = [r["loss"] for r in base.stats if r["split"] == "train"]
    act_losses = [r["loss"] for r in act.stats if r["split"] == "train"]
    assert len(base_losses) == len(act_losses) == 3
    for x, y in zip(base_losses, act_losses):
        assert abs(x - y) <= 1e-12
    for name, arr in base_task.model.state_arrays().items():
        assert np.array_equal(arr, act_task.model.state_arrays()[name]), name


def test_act_records_entropy_history():
    task = build_task(master_epochs=2, mode="act-know")
    result = train(task.model, task.prepared, None, task.config)
    assert len(result.entropy_history) == 2
    for epoch in result.entropy_history:
        assert epoch.shape == (len(task.prepared),)
        assert np.all((0.0 <= epoch) & (epoch <= np.log(4.0) + 1e-9))


def test_act_weights_each_question_by_its_own_entropy_under_a_shared_id(monkeypatch):
    """No weight is keyed by question id: questions built in memory with one
    id between them each train with the entropy evaluate() measured for it."""
    items = [QAItem(id="q", stem=f"what does the {s} hunts ?", choices=list(OBJECTS), answer_index=i)
             for i, s in enumerate(SUBJECTS)]
    task = build_task(items=items, mode="act-know", master_epochs=1, pretrain_epochs=0)
    entropies = [row["entropy"] for row in evaluate(task.prepared, task.model, task.config)[1]]
    assert len(set(entropies)) == len(entropies)
    real_score_batch = training.score_batch
    weight_of = {}

    def recording_score_batch(questions, params, weights, config, train=False, rng=None):
        if train:
            weight_of.update((id(pq), w) for pq, w in zip(questions, weights))
        return real_score_batch(questions, params, weights, config, train, rng)

    monkeypatch.setattr(training, "score_batch", recording_score_batch)
    result = train(task.model, task.prepared, None, task.config)
    assert list(result.entropy_history[0]) == entropies
    assert [weight_of[id(pq)] for pq in task.prepared] == entropies


def test_training_rejects_empty_set():
    task = build_task()
    with pytest.raises(ConfigError):
        train(task.model, [], None, task.config)


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(mode="sideways")
    with pytest.raises(ConfigError):
        tiny_config(master_epochs=0)
    with pytest.raises(ConfigError):
        tiny_config(learning_rate=0.0)
    with pytest.raises(ConfigError):
        tiny_config(data_fraction=0.0)
    with pytest.raises(ConfigError):
        tiny_config(data_fraction=1.2)
    with pytest.raises(ConfigError):
        tiny_config(kg_dim=1)
    with pytest.raises(ConfigError):
        tiny_config(gumbel_temperature=0.0)


def test_stats_csv_roundtrip(tmp_path):
    rows = [
        {"epoch": 1, "split": "train", "accuracy": 0.5, "mean_entropy": 1.25, "loss": 0.75},
        {"epoch": 1, "split": "dev", "accuracy": 1 / 3, "mean_entropy": np.log(4.0), "loss": 2e-7},
    ]
    path = tmp_path / "stats.csv"
    write_stats_csv(str(path), rows)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(STATS_HEADER)
    for row, line in zip(rows, lines[1:]):
        fields = line.split(",")
        assert fields[0] == str(row["epoch"])
        assert fields[1] == row["split"]
        assert float(fields[2]) == row["accuracy"]
        assert float(fields[3]) == row["mean_entropy"]
        assert float(fields[4]) == row["loss"]


def test_act_reuses_the_entropies_evaluate_measured(monkeypatch):
    """Every master epoch weights its updates by the entropies a fresh
    evaluate() of the train split measures on the current parameters."""
    task = build_task(master_epochs=4, mode="act-know")
    train_qs, dev_qs = task.prepared[:3], task.prepared[1:]
    evaluate = training.evaluate
    run_updates = training._run_updates
    checked = []

    def checking_run_updates(qs, model, weights, config, *rest):
        _, rows = evaluate(train_qs, model, config)
        fresh = np.array([row["entropy"] for row in rows])
        assert np.array_equal(weights, fresh)
        checked.append(weights)
        return run_updates(qs, model, weights, config, *rest)

    monkeypatch.setattr(training, "_run_updates", checking_run_updates)
    train(task.model, train_qs, dev_qs, task.config)
    assert len(checked) == 4 * task.config.sub_epochs


@pytest.mark.parametrize("has_dev", [False, True])
@pytest.mark.parametrize(
    "mode, pin, extra",
    [("act-know", None, 1), ("act-know", 0.5, 1), ("base-know", None, 0), ("text-only", None, 0)],
)
def test_training_evaluates_each_split_once_per_epoch(mode, pin, extra, has_dev, monkeypatch):
    """One evaluate() per split and master epoch; measuring act-know adds
    one on the entropy split after pretraining, for the first epoch, also
    when every entropy is pinned to one value."""
    task = build_task(master_epochs=3, mode=mode)
    if pin is not None:
        monkeypatch.setattr(training, "question_entropies", lambda logits, counts: np.full(len(counts), pin))
    dev_qs = task.prepared[1:] if has_dev else None
    evaluate = training.evaluate
    calls = []

    def counting_evaluate(qs, *args, **kwargs):
        calls.append(qs)
        return evaluate(qs, *args, **kwargs)

    monkeypatch.setattr(training, "evaluate", counting_evaluate)
    result = train(task.model, task.prepared, dev_qs, task.config)
    assert len(calls) == extra + 3 * (1 + has_dev)
    if extra:
        assert calls[0] is task.prepared
    if pin is not None:
        assert len(result.entropy_history) == 3
        for weights in result.entropy_history:
            assert np.array_equal(weights, np.full(len(task.prepared), pin))


def test_training_leaves_the_shared_kg_tables_unchanged():
    """Models built on one graph share its memoised ER tables; training one
    of them changes neither the tables nor the other model's copy."""
    task = build_task(mode="act-know", master_epochs=2, pretrain_epochs=1)
    ent, rel = train_kg_embeddings(task.graph, task.config.kg_dim, 5, task.config.seed)
    before = ent.vectors.copy(), rel.vectors.copy()
    nodes = EmbeddingTable(task.config.node_dim, np.ones((task.graph.n_entities, task.config.node_dim)))
    trained, other = (init_model(len(task.vocab), ent, rel, nodes, task.config) for _ in range(2))
    train(trained, task.prepared, task.prepared[:2], task.config)
    again = train_kg_embeddings(task.graph, task.config.kg_dim, 5, task.config.seed)
    assert again[0] is ent and again[1] is rel
    for model in (trained, other):
        assert np.array_equal(model.er.entity_table.data, before[0])
        assert np.array_equal(model.er.relation_table.data, before[1])
    assert np.array_equal(ent.vectors, before[0]) and np.array_equal(rel.vectors, before[1])


def test_text_only_never_runs_the_graph_side(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("text-only mode ran a graph-side encoder")

    monkeypatch.setattr(training, "gcn_forward", refuse)
    monkeypatch.setattr(training, "er_attention", refuse)
    task = build_task(mode="text-only", master_epochs=2, pretrain_epochs=1)
    result = train(task.model, task.prepared, task.prepared[:2], task.config)
    acc, rows = evaluate(task.prepared, task.model, task.config, with_details=True)
    assert len(result.stats) == 4 and len(rows) == len(task.prepared)
    assert all(choice == {} for row in rows for choice in row["attention"])


# ---------------------------------------------------------------------------
# what each phase trains


def _marked(model):
    return sorted(name for name, t in model.named().items() if t.requires_grad)


def test_evaluation_builds_no_tape(monkeypatch):
    """Inside train() and after it, every eval-mode encoder pass and every
    classifier product on its features yields tensors without a pullback;
    the update batches do record one."""
    real_encode, real_classify = training.encode_batch, training.classify
    eval_feats, taped, train_tapes = [], [], []

    def encode(questions, params, config, train=False, rng=None):
        feats = real_encode(questions, params, config, train, rng)
        outputs = (feats.text, feats.graph, feats.knowledge)
        if train:
            train_tapes.append(any(t._pullback is not None for t in outputs))
        else:
            eval_feats.append(feats)
            taped.extend(t for t in outputs if t.requires_grad or t._pullback is not None)
        return feats

    def classify(feats, classifier, weights):
        logits = real_classify(feats, classifier, weights)
        if any(feats is f for f in eval_feats) and (logits.requires_grad or logits._pullback is not None):
            taped.append(logits)
        return logits

    monkeypatch.setattr(training, "encode_batch", encode)
    monkeypatch.setattr(training, "classify", classify)
    task = build_task(mode="act-know", master_epochs=2, pretrain_epochs=1)
    train(task.model, task.prepared, task.prepared[:2], task.config)
    evaluate(task.prepared, task.model, task.config, with_details=True)
    assert eval_feats and train_tapes and all(train_tapes)
    assert taped == []


def test_parameters_are_inert_outside_the_update_loop(monkeypatch):
    task = build_task(mode="act-know", master_epochs=2, pretrain_epochs=1)
    assert _marked(task.model) == []
    train(task.model, task.prepared, None, task.config)
    assert _marked(task.model) == []
    loaded = build_task(mode="act-know", seed=1).model
    loaded.load_state_arrays(task.model.state_arrays())
    assert _marked(loaded) == []

    # a non-finite loss raises out of the first update batch
    seen = []

    def nan_loss(batch, params, *rest):
        seen.append(_marked(params))
        return ad.Tensor(np.array(np.nan))

    monkeypatch.setattr(training, "_batch_loss", nan_loss)
    task = build_task(mode="base-know", pretrain_epochs=0)
    with pytest.raises(FloatingPointError):
        train(task.model, task.prepared, None, task.config)
    assert seen == [["classifier", "er.entity_proj", "er.relation_proj", "gcn.layer0", "gcn.layer1",
                     "text.bias", "text.projection", "text.token_embedding"]]
    assert _marked(task.model) == []


def test_pretraining_computes_no_text_gradient(monkeypatch):
    """The tiny task is one batch per epoch: two pretraining backward passes,
    then the main loop's. Only the main loop's reach the text encoder."""
    task = build_task(mode="act-know", master_epochs=1, pretrain_epochs=2)
    text = [task.model.text.token_embedding, task.model.text.projection, task.model.text.bias]
    real_backward = ad.backward
    grads = []

    def recording_backward(loss):
        real_backward(loss)
        grads.append(([t.grad is not None for t in text], task.model.classifier.grad is not None))

    monkeypatch.setattr(ad, "backward", recording_backward)
    train(task.model, task.prepared, None, task.config)
    assert grads == [([False] * 3, True)] * 2 + [([True] * 3, True)]


@pytest.mark.parametrize(
    "overrides, unused",
    [
        ({"mode": "text-only"}, ("gcn.layer0", "gcn.layer1", "er.entity_proj", "er.relation_proj")),
        ({"mode": "base-know"}, ()),
    ],
    ids=["text-only", "base-know"],
)
def test_unused_tensors_keep_their_init_values(overrides, unused):
    """Weight decay would move a tensor the optimizer steps without a
    gradient; a tensor that reaches no logit is never stepped, in
    pretraining or after it."""
    task = build_task(master_epochs=2, pretrain_epochs=1, weight_decay=0.1, **overrides)
    init = task.model.state_arrays()
    result = train(task.model, task.prepared, None, task.config)
    fixed = {"gcn.node_features", "er.entity_table", "er.relation_table", *unused}
    for name, value in result.best_state.items():
        assert np.array_equal(value, init[name]) == (name in fixed), name
