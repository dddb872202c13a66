"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line (run with -s to see them). Numeric tolerances are pinned here
and cross-checked against the independent reference implementations in
_oracles.py rather than against the package's own code.
"""

import math
import os
import time

import numpy as np
import pytest
from conftest import mark_leaves, tiny_config, tiny_model

from _oracles import (
    all_simple_paths,
    bm25_scan,
    dense_gcn,
    dense_normalize,
    fd_gradient,
    max_rel_error,
)
from actknow import autodiff as ad
from actknow import training
from actknow.autodiff import Tensor, backward, sample_gumbel
from actknow.cli import main
from actknow.encoders import GCNParams, build_vocab, gcn_forward
from actknow.experiments import sign_test_p
from actknow.kg import graph_from_triples
from actknow.nli import QAItem, make_hypothesis
from actknow.retrieval import build_index, corpus_from_sentences, retrieve, tokenize
from actknow.subgraph import Subgraph, connect_concepts, identify_concepts, normalize_adjacency
from actknow.training import (
    prepare_questions,
    question_entropy,
    score_batch,
    score_question,
    train,
)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {label}: {detail}"


# ---------------------------------------------------------------------------
# shared small task: four food-chain facts, one question per subject


SUBJECTS = ["lynx", "heron", "otter", "viper"]
OBJECTS = ["moss", "reed", "clam", "mouse"]


def _small_task(**overrides):
    triples = [(s, "hunts", o) for s, o in zip(SUBJECTS, OBJECTS)]
    sentences = [f"the {s} hunts the {o} daily" for s, o in zip(SUBJECTS, OBJECTS)]
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
    model = tiny_model(graph, config, vocab_size=len(vocab.tokens))
    return config, prepared, model


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradient suite


def _project(t: Tensor, w: np.ndarray) -> Tensor:
    flat = ad.reshape(t, (-1,))
    return ad.matmul(flat, Tensor(w.reshape(-1)))


def _fd_instance(build, x0) -> float:
    x0 = np.asarray(x0, dtype=np.float64)
    leaf = Tensor(x0, requires_grad=True)
    backward(build(leaf))
    probe = x0.copy()
    numeric = fd_gradient(lambda: build(Tensor(probe)).item(), probe)
    return max_rel_error(leaf.grad, numeric)


def _away_from_zero(rng, shape):
    return rng.uniform(0.2, 1.5, shape) * rng.choice([-1.0, 1.0], shape)


def _primitive_factories():
    def f_add(rng):
        c, w = rng.normal(size=4), rng.normal(size=4)
        return lambda leaf: _project(ad.add(leaf, Tensor(c)), w), rng.normal(size=4)

    def f_mul(rng):
        c, w = rng.normal(size=4), rng.normal(size=4)
        return lambda leaf: _project(ad.mul(leaf, Tensor(c)), w), rng.normal(size=4)

    def f_scalar_mul(rng):
        s, w = float(rng.normal()), rng.normal(size=5)
        return lambda leaf: _project(ad.scalar_mul(leaf, s), w), rng.normal(size=5)

    def f_matmul(rng):
        b, w = rng.normal(size=(3, 2)), rng.normal(size=4)
        return lambda leaf: _project(ad.matmul(leaf, Tensor(b)), w), rng.normal(size=(2, 3))

    def f_concat(rng):
        other, w = rng.normal(size=3), rng.normal(size=7)
        return lambda leaf: _project(ad.concat([leaf, Tensor(other)]), w), rng.normal(size=4)

    def f_reshape(rng):
        w = rng.normal(size=6)
        return lambda leaf: _project(ad.reshape(leaf, (2, 3)), w), rng.normal(size=6)

    def f_relu(rng):
        w = rng.normal(size=5)
        return lambda leaf: _project(ad.relu(leaf), w), _away_from_zero(rng, 5)

    def f_mean(rng):
        axis = int(rng.integers(0, 2))
        w = rng.normal(size=4 if axis == 0 else 3)
        return lambda leaf: _project(ad.mean(leaf, axis=axis), w), rng.normal(size=(3, 4))

    def f_gather(rng):
        ids = np.array([0, 2, 2, 4], dtype=np.int64)
        w = rng.normal(size=12)
        return lambda leaf: _project(ad.gather(leaf, ids), w), rng.normal(size=(5, 3))

    def f_row_softmax(rng):
        w = rng.normal(size=12)
        return lambda leaf: _project(ad.row_softmax(leaf), w), rng.normal(size=(3, 4))

    def f_gumbel(rng):
        noise = sample_gumbel((4,), np.random.default_rng(int(rng.integers(0, 10_000))))
        w = rng.normal(size=4)
        return (
            lambda leaf: _project(ad.gumbel_softmax_with_noise(leaf, noise, 1.0), w),
            rng.normal(size=4),
        )

    def f_transpose(rng):
        w = rng.normal(size=6)
        return lambda leaf: _project(ad.transpose(leaf), w), rng.normal(size=(2, 3))

    def f_add_row(rng):
        row, w = rng.normal(size=3), rng.normal(size=6)
        return lambda leaf: _project(ad.add_row(leaf, Tensor(row)), w), rng.normal(size=(2, 3))

    def f_concat_axis(rng):
        other, w = rng.normal(size=(2, 2)), rng.normal(size=10)
        return lambda leaf: _project(ad.concat([Tensor(other), leaf], axis=1), w), rng.normal(size=(2, 3))

    def f_batched_matmul(rng):
        b, w = rng.normal(size=(2, 3, 2)), rng.normal(size=8)
        return lambda leaf: _project(ad.matmul(leaf, Tensor(b)), w), rng.normal(size=(2, 2, 3))

    def f_row_dot(rng):
        v, w = rng.normal(size=4), rng.normal(size=3)
        return lambda leaf: _project(ad.row_dot(leaf, Tensor(v)), w), rng.normal(size=(3, 4))

    def f_masked_softmax(rng):
        mask = np.array([[True, False, True, True], [False, True, True, False]])
        w = rng.normal(size=8)
        return lambda leaf: _project(ad.masked_softmax(leaf, mask), w), rng.normal(size=(2, 4))

    def f_segment_cross_entropy(rng):
        starts, targets = np.array([0, 4, 6]), rng.integers(0, 2, size=3)
        w = rng.normal(size=3)
        return lambda leaf: _project(ad.segment_cross_entropy(leaf, starts, targets), w), rng.normal(size=9)

    return [f_add, f_mul, f_scalar_mul, f_matmul, f_concat, f_reshape, f_relu,
            f_mean, f_gather, f_row_softmax, f_gumbel, f_transpose, f_add_row,
            f_concat_axis, f_batched_matmul, f_row_dot, f_masked_softmax,
            f_segment_cross_entropy]


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    factories = _primitive_factories()
    failures = []
    count = 0

    for i in range(84):
        factory = factories[i % len(factories)]
        build, x0 = factory(rng)
        err = _fd_instance(build, x0)
        count += 1
        if err >= 1e-4:
            failures.append(f"{factory.__name__} instance {i}: rel err {err:.3g}")

    config, prepared, model = _small_task()
    tensors = mark_leaves(*model.trainable(config))
    for i in range(16):
        pq = prepared[i % len(prepared)]
        tensor = tensors[i % len(tensors)]
        train = i % 2 == 1

        def loss():
            # the loss training builds, on a batch of this one question
            noise_rng = np.random.default_rng(1000 + i) if train else None
            logits, starts = score_batch([pq], model, np.ones(1), config, train=train, rng=noise_rng)
            return ad.mean(ad.segment_cross_entropy(logits, starts, [pq.answer_index]))

        for t in tensors:
            t.grad = None
        backward(loss())
        numeric = fd_gradient(lambda: loss().item(), tensor.data)
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        err = max_rel_error(analytic, numeric)
        count += 1
        if err >= 1e-4:
            failures.append(f"composed instance {i}: rel err {err:.3g}")

    elapsed = time.monotonic() - start
    ok = not failures and count == 100 and elapsed < 60.0
    detail = f"{count} instances, {len(failures)} over tolerance, {elapsed:.1f}s"
    if failures:
        detail += "; first: " + failures[0]
    _report(1, "gradient checks", ok, detail)


# ---------------------------------------------------------------------------
# criterion 2: adjacency normalization and graph convolution oracles


def _random_symmetric(rng, n: int) -> np.ndarray:
    upper = np.triu((rng.random((n, n)) < 0.4).astype(float), 1)
    return upper + upper.T


def test_criterion_2_normalization_oracles():
    rng = np.random.default_rng(202)
    worst_norm = 0.0
    worst_gcn = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        c = _random_symmetric(rng, n)
        norm = normalize_adjacency(c)
        worst_norm = max(worst_norm, float(np.max(np.abs(norm - dense_normalize(c)))))

        d0, d1, d2 = 5, 7, 3
        features = rng.normal(size=(n, d0))
        w1, w2 = rng.normal(size=(d0, d1)), rng.normal(size=(d1, d2))
        sub = Subgraph(nodes=list(range(n)), norm_adjacency=norm, paths=[])
        params = GCNParams(layers=[Tensor(w1), Tensor(w2)], node_features=Tensor(features))
        got = gcn_forward([sub], params)[0].data[0]
        want = dense_gcn(dense_normalize(c), features, [w1, w2])
        worst_gcn = max(worst_gcn, float(np.max(np.abs(got - want))))

    ok = worst_norm < 1e-10 and worst_gcn < 1e-10
    _report(2, "normalization vs dense oracle", ok,
            f"200 graphs, max normalize diff {worst_norm:.2e}, max conv diff {worst_gcn:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: entropy bounds


def test_criterion_3_entropy_bounds():
    rng = np.random.default_rng(303)
    bound = math.log(4)
    worst_low, worst_high = 0.0, 0.0
    for _ in range(10_000):
        scale = rng.uniform(0.2, 6.0)
        s = question_entropy(rng.normal(0.0, scale, 4))
        worst_low = min(worst_low, s)
        worst_high = max(worst_high, s)

    uniform_err = max(abs(question_entropy(np.full(4, c)) - bound) for c in (0.0, 1.0, -3.5, 100.0))

    peak_worst = 0.0
    for i in range(4):
        for scale in (40.0, 55.0, 80.0):
            z = np.zeros(4)
            z[i] = scale
            peak_worst = max(peak_worst, question_entropy(z))

    ok = worst_low >= 0.0 and worst_high <= bound + 1e-12 and uniform_err <= 1e-9 and peak_worst < 1e-10
    _report(3, "entropy bounds", ok,
            f"10000 vectors in [{worst_low:.2e}, ln4 + {worst_high - bound:.2e}], "
            f"uniform err {uniform_err:.2e}, one-hot max {peak_worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: infusion weight neutralization


def test_criterion_4_infusion_neutralization(monkeypatch):
    # zero weights must cut all graph-side gradients for that question
    config, prepared, model = _small_task()
    assert any(c.subgraph is not None and c.subgraph.n_nodes > 0 for c in prepared[0].choices)
    for t in mark_leaves(*model.trainable(config)):
        t.grad = None
    loss = ad.mean(ad.segment_cross_entropy(
        score_question(prepared[0], model, 0.0, config, train=True, rng=np.random.default_rng(3)),
        np.array([0]), [prepared[0].answer_index],
    ))
    backward(loss)
    graph_side = [*model.gcn.layers, model.er.entity_proj, model.er.relation_proj]
    graph_norm = max(
        0.0 if t.grad is None else float(np.linalg.norm(t.grad)) for t in graph_side
    )
    text_norm = float(np.linalg.norm(model.classifier.grad))

    # unit weights for every question must reproduce fixed-weight training:
    # act-know weights each question by its entropy, pinned here to 1
    cfg_act = tiny_config(mode="act-know", master_epochs=3, seed=5)
    cfg_base = tiny_config(mode="base-know", master_epochs=3, seed=5)
    _, prepared_a, model_a = _small_task(mode="act-know", master_epochs=3, seed=5)
    model_b = tiny_model(graph_from_triples([(s, "hunts", o) for s, o in zip(SUBJECTS, OBJECTS)]),
                         cfg_base, vocab_size=model_a.text.token_embedding.data.shape[0])
    with monkeypatch.context() as m:
        m.setattr(training, "question_entropy", lambda logits: 1.0)
        result_a = train(model_a, prepared_a, None, cfg_act)
    result_b = train(model_b, prepared_a, None, cfg_base)
    losses_a = [r["loss"] for r in result_a.stats if r["split"] == "train"]
    losses_b = [r["loss"] for r in result_b.stats if r["split"] == "train"]
    loss_gap = max(abs(a - b) for a, b in zip(losses_a, losses_b))
    states_match = all(
        np.array_equal(result_a.best_state[k], result_b.best_state[k]) for k in result_a.best_state
    )

    ok = graph_norm < 1e-8 and text_norm > 0.0 and loss_gap <= 1e-12 and states_match
    _report(4, "infusion weight neutralization", ok,
            f"zero-weight graph grad norm {graph_norm:.2e}, unit-weight loss gap {loss_gap:.2e}, "
            f"states match {states_match}")


# ---------------------------------------------------------------------------
# criterion 5: subgraph paths vs brute force


def test_criterion_5_subgraph_paths():
    rng = np.random.default_rng(505)
    failures = []
    path_total = 0
    for trial in range(100):
        n = int(rng.integers(2, 31))
        triples = []
        for _ in range(int(rng.integers(1, 2 * n + 1))):
            h, t = rng.integers(0, n, size=2)
            if h != t:
                triples.append((f"e{h}", f"r{rng.integers(0, 3)}", f"e{t}"))
        if not triples:
            triples = [("e0", "r0", "e1")]
        graph = graph_from_triples(triples)

        max_path_len = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(5, graph.n_entities) + 1))
        seeds = sorted(int(s) for s in rng.choice(graph.n_entities, size=k, replace=False))
        max_nodes = max(int(rng.integers(2, 31)), len(seeds))
        sub = connect_concepts(graph, seeds, max_path_len, max_nodes)

        if not set(seeds) <= set(sub.nodes):
            failures.append(f"trial {trial}: seed dropped")
            continue
        adj = {i: set(graph.adjacency[i]) for i in range(graph.n_entities)}
        for path in sub.paths:
            path_total += 1
            if len(path) - 1 > max_path_len:
                failures.append(f"trial {trial}: path length {len(path) - 1} > {max_path_len}")
            if list(path) not in all_simple_paths(adj, path[0], path[-1], max_path_len):
                failures.append(f"trial {trial}: path {path} not in enumeration")

        # the mention path into the same guarantee: scanned concepts are kept
        labels = [graph.entities[int(i)] for i in rng.choice(graph.n_entities, size=2, replace=False)]
        mentions = identify_concepts(tokenize(f"the {labels[0]} sits near the {labels[1]}"), graph)
        mention_seeds = sorted(set(mentions))
        if mention_seeds != sorted(graph.entity_ids[label] for label in labels):
            failures.append(f"trial {trial}: mentions {mentions} for labels {labels}")
            continue
        msub = connect_concepts(graph, mention_seeds, max_path_len, max(len(mention_seeds), 10))
        if not set(mention_seeds) <= set(msub.nodes):
            failures.append(f"trial {trial}: mention dropped")

    ok = not failures
    detail = f"100 graphs, {path_total} paths verified"
    if failures:
        detail += "; first: " + failures[0]
    _report(5, "subgraph paths vs brute force", ok, detail)


# ---------------------------------------------------------------------------
# criterion 6: retrieval oracle and hypothesis strings


WORDS = ["soil", "wind", "water", "erosion", "plant", "energy", "rock", "ice",
         "sun", "grass", "animal", "cloud", "seed", "root", "leaf", "stone",
         "storm", "heat", "light", "sand"]


def test_criterion_6_retrieval_oracle():
    rng = np.random.default_rng(606)
    worst = 0.0
    order_ok = True
    for size in (1, 5, 50, 333, 1000):
        sentences = [
            " ".join(rng.choice(WORDS, size=rng.integers(3, 13)))
            for _ in range(size)
        ]
        index = build_index(corpus_from_sentences(sentences))
        for _ in range(8):
            query = " ".join(rng.choice(WORDS, size=rng.integers(1, 6)))
            got = retrieve(index, query, k=size)
            want = bm25_scan(sentences, query)
            if [sid for sid, _ in got] != [sid for sid, _ in want]:
                order_ok = False
                continue
            if got:
                worst = max(worst, max(abs(g - w) for (_, g), (_, w) in zip(got, want)))

    easy = "The movement of soil by wind or water is called ?"
    easy_expected = [
        "The movement of soil by wind or water is called Condensation",
        "The movement of soil by wind or water is called Evaporation",
        "The movement of soil by wind or water is called Erosion",
        "The movement of soil by wind or water is called Friction",
    ]
    hard = "A goat gets energy from the grass it eats. Where does the grass get its energy?"
    hard_expected = [
        "A goat gets energy from the grass it eats. soil does the grass get its energy",
        "A goat gets energy from the grass it eats. sunlight does the grass get its energy",
        "A goat gets energy from the grass it eats. water does the grass get its energy",
        "A goat gets energy from the grass it eats. air does the grass get its energy",
    ]
    strings_ok = [
        make_hypothesis(easy, c) for c in ("Condensation", "Evaporation", "Erosion", "Friction")
    ] == easy_expected and [
        make_hypothesis(hard, c) for c in ("soil", "sunlight", "water", "air")
    ] == hard_expected

    ok = order_ok and worst <= 1e-9 and strings_ok
    _report(6, "retrieval vs sequential scan", ok,
            f"rankings equal {order_ok}, max score diff {worst:.2e}, "
            f"worked hypothesis strings exact {strings_ok}")


# ---------------------------------------------------------------------------
# criterion 7: low-data directional result on the bundled task


def test_criterion_7_lowdata_directional(lowdata_sweep):
    """The sweep runs in the lowdata_sweep session fixture (conftest.py),
    which times it from building the config to writing the CSV."""
    cfg, rows = lowdata_sweep.cfg, lowdata_sweep.rows
    acc = {mode: [a for _, m, _, a in rows if m == mode] for mode in cfg.modes}

    elapsed = lowdata_sweep.elapsed_s
    gap = float(np.mean(acc["base-know"]) - np.mean(acc["text-only"]))
    wins = sum(a > b for a, b in zip(acc["act-know"], acc["base-know"]))
    losses = sum(b > a for a, b in zip(acc["act-know"], acc["base-know"]))
    p = sign_test_p(wins, losses)

    ok = gap >= 0.05 and p < 0.1 and elapsed < 900.0
    _report(7, "low-data gains", ok,
            f"graph-vs-text gap {gap * 100:.1f} points, entropy-weighted {wins}W/{losses}L "
            f"p={p:.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 8: node-budget ablation peaks at an interior budget


def test_criterion_8_budget_ablation(noisy_ablation):
    """The ablation runs in the noisy_ablation session fixture (conftest.py)."""
    cfg, accs = noisy_ablation.cfg, dict(noisy_ablation.rows)

    low, mid, high = cfg.node_budgets
    ok = accs[mid] > accs[low] and accs[mid] > accs[high]
    _report(8, "interior budget peak", ok,
            " ".join(f"budget {b}: {accs[b]:.4f}" for b in cfg.node_budgets))


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reruns


GEN_FLAGS = ["--n-entities", "20", "--n-relations", "3", "--n-questions", "12",
             "--seed", "3", "--node-dim", "8"]
# the settings all three commands read; sweep-fraction takes its seed from
# --seeds and ablate-subgraph its node budget from --node-budgets
TINY_FLAGS = ["--text-dim", "8", "--node-dim", "8", "--kg-dim", "4", "--gcn-hidden", "8",
              "--gcn-layers", "2", "--master-epochs", "1", "--sub-epochs", "1",
              "--kg-epochs", "2", "--pretrain-epochs", "0", "--batch-size", "4",
              "--retrieve-k", "3", "--weight-decay", "0.01", "--learning-rate", "0.01"]


def test_criterion_9_deterministic_reruns(tmp_path, monkeypatch):
    monkeypatch.delenv("ACTKNOW_SEED", raising=False)
    task = str(tmp_path / "task")
    assert main(["gen-synth", "--out-dir", task, *GEN_FLAGS]) == 0
    data = ["--kg", f"{task}/kg.tsv", "--corpus", f"{task}/corpus.txt",
            "--train", f"{task}/train.jsonl", "--dev", f"{task}/dev.jsonl",
            "--test", f"{task}/test.jsonl", "--node-features", f"{task}/node_features.txt"]

    outputs = {}
    for run in ("a", "b"):
        train_out = str(tmp_path / f"train_{run}")
        sweep_out = str(tmp_path / f"sweep_{run}")
        ablate_out = str(tmp_path / f"ablate_{run}")
        assert main(["train", *data, *TINY_FLAGS, "--max-nodes", "10", "--seed", "1",
                     "--out-dir", train_out]) == 0
        assert main(["sweep-fraction", *data, *TINY_FLAGS, "--max-nodes", "10", "--fractions", "0.5,1.0",
                     "--modes", "act-know", "--seeds", "1", "--out-dir", sweep_out]) == 0
        assert main(["ablate-subgraph", *data, *TINY_FLAGS, "--seed", "1", "--node-budgets", "3,6",
                     "--out-dir", ablate_out]) == 0
        outputs[run] = {
            "train/stats.csv": open(os.path.join(train_out, "stats.csv"), "rb").read(),
            "train/test_predictions.jsonl": open(os.path.join(train_out, "test_predictions.jsonl"), "rb").read(),
            **_files_under(sweep_out, "sweep"),
            **_files_under(ablate_out, "ablate"),
        }

    # sweep.csv, ablation.csv, and each cell's checkpoint, stats and test rows
    names = sorted(outputs["a"].keys() | outputs["b"].keys())
    differ = [name for name in names if outputs["a"].get(name) != outputs["b"].get(name)]
    ok = len(names) == 16 and not differ
    _report(9, "byte-identical reruns", ok,
            f"{len(names) - len(differ)} of {len(names)} files identical" + (f", differ: {differ}" if differ else ""))


def _files_under(root, label):
    """label/relative path -> bytes of every file under root."""
    return {f"{label}/{os.path.relpath(os.path.join(d, name), root)}": open(os.path.join(d, name), "rb").read()
            for d, _, names in os.walk(root) for name in names}
