"""Question scoring, entropy weighting, and the training loop.

One loop of master epochs, each containing sub-epochs of Adam updates,
serves all three modes. Every question carries one infusion weight that
scales its graph and knowledge features alike; the weights of a list of
questions are one array aligned with it. base-know and text-only weight
every question by 1 (text-only has no such features, so its logits read
the text alone). act-know weights each question, for and only for one
master epoch's updates, by the prediction entropy that the last
evaluate() of the entropy split recorded for it: one evaluation after
pretraining for the first epoch, the end-of-epoch evaluation for each
later one. The parameters have not moved since, so these are the
entropies of the current model. Entropy never carries gradient.

Scoring is choice-stacked: encode_batch runs every choice of a batch of
questions through each encoder at once, and classify applies the
per-question weights and the classifier to those features. The attention
pool takes the whole text matrix and writes every choice's graph row
itself. text-only builds no graph or knowledge features: its logits are
the text rows' dot products with the classifier's text slice. A
graph-side batch where no choice has a subgraph gets zero graph rows.
Training runs one of each per batch of config.batch_size questions
(score_batch), then the mean cross-entropy of the batch's questions
(mean_cross_entropy). classify and the loss are one tape node each, like each encoder, so a
graph-side training batch's tape holds six nodes on top of its trainable
tensors, and a text-only one three.
evaluate() runs one encoder pass per chunk and, in act-know, two
classifier products on it: unit weights for the entropies, then the
entropy weights for the final logits. Its chunks do not follow
batch_size: each grows to at most 128 choices, which pays the encoders'
fixed per-call cost over many questions, and at most 1,280 padded node
rows, which keeps the GCN stack of a chunk of large subgraphs small
(eval_chunks).

Parameters are inert outside _run_updates: it marks exactly its
optimizer's tensors trainable while the batches run, so evaluation builds
no tape. The pullbacks of classify and of every encoder return a gradient
for each parent, but for the text while pretraining freezes it, and
backward keeps those of the marked tensors, so the marks alone decide
what trains. Each phase's list is ModelParams.trainable: graph-side
pretraining trains the classifier and the graph-side encoders (GCN layers
and ER projections, outside text-only) with the text encoder frozen, and
the main updates add the text encoder. A model holds every tensor in
every mode, but a text-only model names only those that reach a logit,
the text encoder's and the classifier, so its state and checkpoint hold
those four alone (ModelParams.named).
"""

from __future__ import annotations

import csv
import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .atomic import atomic_write
from .autodiff import Tensor
from .encoders import (
    ERAttentionParams,
    GCNParams,
    TextEncoderParams,
    Vocab,
    encode_pair_tokens,
    encode_text,
    er_attention,
    gcn_forward,
    graph_attention_pool,
    init_er_params,
    init_gcn_params,
    init_text_params,
)
from .errors import ConfigError
from .kg import EmbeddingTable, KnowledgeGraph
from .nli import RETRIEVE_K, QAItem, convert
from .optim import Adam
from .retrieval import Corpus, InvertedIndex
from .subgraph import MAX_PATH_LEN, Subgraph, connect_concepts, identify_concepts

log = logging.getLogger(__name__)

MODES = ("text-only", "base-know", "act-know")

STATS_HEADER = ["epoch", "split", "accuracy", "mean_entropy", "loss"]


@dataclass
class TrainConfig:
    mode: str = "base-know"
    master_epochs: int = 10
    sub_epochs: int = 3
    learning_rate: float = 1e-3
    batch_size: int = 8
    seed: int = 0
    data_fraction: float = 1.0
    max_nodes: int = 50
    pretrain_epochs: int = 2
    text_dim: int = 64
    node_dim: int = 32
    kg_dim: int = 32
    gcn_hidden: int = 64
    kg_epochs: int = 30
    weight_decay: float = 0.1

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("master_epochs", "sub_epochs", "batch_size", "max_nodes", "text_dim",
                     "node_dim", "gcn_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.kg_dim < 2:
            raise ConfigError(f"kg_dim must be >= 2, got {self.kg_dim}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.pretrain_epochs < 0 or self.kg_epochs < 0:
            raise ConfigError("pretrain_epochs and kg_epochs must be >= 0")
        # written as ranges that nan falls outside of
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0 < self.data_fraction <= 1:
            raise ConfigError(f"data_fraction must be in (0, 1], got {self.data_fraction}")

    @property
    def graph_side(self) -> bool:
        """Whether the GCN and the ER attention run: in every mode but
        text-only. Preparation, encode_batch, the trainable sets, graph-side
        pretraining, the KG-table build and the tensors a model names all
        read this."""
        return self.mode != "text-only"


# ---------------------------------------------------------------------------
# model parameters


# the tensors a text-only model names: all that reach its logits
TEXT_SIDE = ("text.token_embedding", "text.projection", "text.bias", "classifier")


@dataclass
class ModelParams:
    text: TextEncoderParams
    gcn: GCNParams
    er: ERAttentionParams
    classifier: Tensor  # (4d,) over concat(text, graph, knowledge)
    # whether the model was built for a config with a graph side: named()
    # holds the GCN and ER tensors only then
    graph_side: bool

    @property
    def dim(self) -> int:
        return self.text.bias.data.shape[0]

    def trainable(self, config: TrainConfig, with_text: bool = True) -> list[Tensor]:
        """The tensors an update phase trains: those that reach a logit
        under config, by config.graph_side. The text encoder trains only
        with_text; graph-side pretraining freezes it."""
        return [
            *((self.text.token_embedding, self.text.projection, self.text.bias) if with_text else ()),
            *((self.gcn.hidden_layer, self.gcn.last_layer, self.er.entity_proj, self.er.relation_proj)
              if config.graph_side else ()),
            self.classifier,
        ]

    def named(self) -> dict[str, Tensor]:
        """The tensors of the model's state and checkpoint, by name: all of
        them for a graph-side model, TEXT_SIDE for a text-only one."""
        out = {
            "text.token_embedding": self.text.token_embedding,
            "text.projection": self.text.projection,
            "text.bias": self.text.bias,
            "gcn.node_features": self.gcn.node_features,
            "er.entity_table": self.er.entity_table,
            "er.relation_table": self.er.relation_table,
            "er.entity_proj": self.er.entity_proj,
            "er.relation_proj": self.er.relation_proj,
            "classifier": self.classifier,
            "gcn.layer0": self.gcn.hidden_layer,
            "gcn.layer1": self.gcn.last_layer,
        }
        if not self.graph_side:
            return {name: out[name] for name in TEXT_SIDE}
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named().items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        named = self.named()
        if set(named) != set(state):
            missing = set(named) ^ set(state)
            raise ConfigError(f"checkpoint does not match model, differing tensors: {sorted(missing)}")
        for name, tensor in named.items():
            if tensor.data.shape != state[name].shape:
                raise ConfigError(
                    f"checkpoint tensor {name} has shape {state[name].shape}, expected {tensor.data.shape}"
                )
            tensor.data = state[name].copy()


def _stream(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def init_model(
    vocab_size: int,
    entity_table: EmbeddingTable,
    relation_table: EmbeddingTable,
    node_features: EmbeddingTable,
    config: TrainConfig,
) -> ModelParams:
    rng = _stream(config.seed, 0)
    d = config.text_dim
    text = init_text_params(vocab_size, d, rng)
    gcn = init_gcn_params(config.node_dim, config.gcn_hidden, d, node_features, rng)
    er = init_er_params(entity_table, relation_table, d, rng)
    classifier = Tensor(rng.normal(0.0, 0.1, size=(4 * d,)))
    return ModelParams(text=text, gcn=gcn, er=er, classifier=classifier, graph_side=config.graph_side)


# ---------------------------------------------------------------------------
# data preparation


@dataclass
class PreparedChoice:
    token_ids: np.ndarray
    # None where no entity is mentioned, and for every choice of a question
    # prepared without its graph side
    subgraph: Subgraph | None


@dataclass
class PreparedQuestion:
    qid: str
    answer_index: int
    choices: list[PreparedChoice]
    # whether prepare_questions scanned mentions and built subgraphs: only
    # for a config with a graph side, whose GCN is the one reader of subgraphs
    graph_side: bool


def prepare_questions(
    items: list[QAItem],
    corpus: Corpus,
    index: InvertedIndex,
    graph: KnowledgeGraph,
    vocab: Vocab,
    config: TrainConfig,
) -> list[PreparedQuestion]:
    """Retrieve premises and build token sequences once per choice, and,
    outside text-only, its subgraph. Seeds are the entity ids mentioned in
    the premise and hypothesis tokens. In text-only no mention is scanned
    and every subgraph is None: encode_batch reads only the text then, and
    refuses these questions under a config with a graph side."""
    graph_side = config.graph_side
    prepared = []
    for item in items:
        choices = []
        for pair in convert(item, index, corpus, RETRIEVE_K):
            token_ids = encode_pair_tokens(vocab, pair.premise, pair.hypothesis)
            sub = None
            if graph_side:
                mentions = identify_concepts(pair.premise, graph) + identify_concepts(pair.hypothesis, graph)
                seeds = sorted(set(mentions))[: config.max_nodes]
                if seeds:
                    sub = connect_concepts(graph, seeds, MAX_PATH_LEN, config.max_nodes)
            choices.append(PreparedChoice(token_ids=token_ids, subgraph=sub))
        prepared.append(PreparedQuestion(qid=item.id, answer_index=item.answer_index, choices=choices,
                                         graph_side=graph_side))
    return prepared


# ---------------------------------------------------------------------------
# forward scoring


@dataclass
class Features:
    """Encoder outputs of a stack of questions, one row per choice in
    question order, before the per-question weights are applied."""

    text: Tensor              # (n_choices, d)
    # (n_choices, d), zero rows where no graph feature; None in text-only
    graph: Tensor | None
    knowledge: Tensor | None  # (n_choices, 2d); None in text-only
    counts: np.ndarray  # choices per question
    starts: np.ndarray  # offset of each question's first choice
    # the choices whose subgraph the GCN pooled, in order, and their (S, N)
    # pooling weights, 0 on padding; both empty where the GCN did not run
    pooled: np.ndarray
    attention: np.ndarray


def encode_batch(
    questions: list[PreparedQuestion],
    params: ModelParams,
    config: TrainConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Features:
    """Run every choice of a stack of questions through the text encoder,
    the GCN with text-attention pooling and ER attention, each once.

    text-only mode skips the graph side and builds no graph or knowledge
    features in its place. A graph-side run on a question prepared without
    its graph side is a ValueError.
    """
    choices = [c for pq in questions for c in pq.choices]
    counts = np.array([len(pq.choices) for pq in questions])
    if config.graph_side and not all(pq.graph_side for pq in questions):
        raise ValueError("encode_batch: the GCN runs on questions prepared without their subgraphs")
    text = encode_text([c.token_ids for c in choices], params.text)

    rows = np.zeros(0, dtype=np.intp)
    attention = np.zeros((0, 0))
    graph = knowledge = None
    if config.graph_side:
        # a built subgraph holds at least its seeds
        rows = np.flatnonzero([c.subgraph is not None for c in choices])
        if rows.size:
            hidden, adjacency, mask = gcn_forward([choices[i].subgraph for i in rows], params.gcn)
            graph, attention = graph_attention_pool(hidden, adjacency, mask, text, rows, params.gcn.last_layer)
        else:
            graph = Tensor(np.zeros((len(choices), params.dim)))
        knowledge = er_attention(text, params.er, train, rng)
    return Features(text, graph, knowledge, counts, np.cumsum(counts) - counts, rows, attention)


def classify(feats: Features, classifier: Tensor, weights: np.ndarray) -> Tensor:
    """Logit of every choice: the classifier's dot product with
    concat(text, graph * w, knowledge * w), where weights holds one w per
    question; in text-only, which has no graph or knowledge features, with
    the text alone (_classify_text), which reads no weight. One tape node;
    each row's dot product is summed the same way, so equal rows give
    bit-equal logits wherever they sit, which a BLAS matrix-vector product
    does not promise."""
    text, graph, knowledge = feats.text, feats.graph, feats.knowledge
    if knowledge is None:
        return _classify_text(text, classifier)
    scale = np.repeat(np.asarray(weights, dtype=np.float64), feats.counts)[:, None]
    rows = np.concatenate([text.data, graph.data * scale, knowledge.data * scale], axis=1)
    d = text.shape[1]

    def pullback(g: np.ndarray):
        g_rows = np.outer(g, classifier.data)
        g_text = g_rows[:, :d] if text.requires_grad else None
        return g_text, g_rows[:, d : 2 * d] * scale, g_rows[:, 2 * d :] * scale, g @ rows

    return ad.record(np.sum(rows * classifier.data, axis=1), (text, graph, knowledge, classifier), pullback)


def _classify_text(text: Tensor, classifier: Tensor) -> Tensor:
    """classify in text-only: each text row's dot product with
    classifier[:d]; the classifier's gradient is zero past d. Where d is a
    multiple of 8, logits and gradients are bit-equal to the 4d-wide
    product over zero graph and knowledge columns
    (tests/_oracles.classify_composed): numpy sums such a row in eight
    running sums, to which the zero columns add only zeros."""
    d = text.shape[1]
    head = classifier.data[:d]

    def pullback(g: np.ndarray):
        g_classifier = np.zeros(classifier.shape)
        g_classifier[:d] = g @ text.data
        return np.outer(g, head) if text.requires_grad else None, g_classifier

    return ad.record(np.sum(text.data * head, axis=1), (text, classifier), pullback)


def mean_cross_entropy(logits: Tensor, starts: np.ndarray, targets: list[int]) -> Tensor:
    """Mean over questions of -log softmax(question's logits)[target]: flat
    (C,) logits, each question's choices a segment given by its start
    offset, targets indexing within their segment. One tape node."""
    if logits.data.ndim != 1:
        raise ValueError("mean_cross_entropy: logits must be 1-D")
    counts = ad._segment_counts(starts, logits.shape[0])
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != counts.shape:
        raise ValueError(f"mean_cross_entropy: {targets.size} targets for {counts.size} segments")
    if np.any(targets < 0) or np.any(targets >= counts):
        raise IndexError("mean_cross_entropy: target out of range for its segment")
    z = logits.data
    zmax = np.maximum.reduceat(z, starts)
    lse = zmax + np.log(np.add.reduceat(np.exp(z - np.repeat(zmax, counts)), starts))
    picked = starts + targets
    probs = np.exp(z - np.repeat(lse, counts))

    def pullback(g: np.ndarray):
        grad = probs.copy()
        grad[picked] -= 1.0
        return (grad * (g / counts.size),)

    return ad.record(np.mean(lse - z[picked]), (logits,), pullback)


def score_batch(
    questions: list[PreparedQuestion],
    params: ModelParams,
    weights: np.ndarray,
    config: TrainConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Logits of every choice of a stack of questions, flat in question
    order: (n_choices,), plus the start offset of each question's choices.

    One encoder pass (encode_batch) and one classifier product (classify).
    weights holds one weight per question, scaling that question's graph
    and knowledge features before the classifier product; 1 is the plain
    model and 0 reduces it to text-only.
    """
    feats = encode_batch(questions, params, config, train, rng)
    return classify(feats, params.classifier, weights), feats.starts


def score_question(
    pq: PreparedQuestion,
    params: ModelParams,
    weights: float,
    config: TrainConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Logit vector over one question's choices: score_batch on one
    question, whose one weight is `weights`. Nothing in the package calls
    it; it stays as the hook the traced benchmark wraps (bench/layers.py,
    pinned by tests/test_bench_hooks.py) until the tracer counts
    score_batch calls instead."""
    return score_batch([pq], params, [weights], config, train, rng)[0]


def _tables(logits: np.ndarray, counts: np.ndarray):
    """Flat per-choice logits as (questions × choices) tables, one per
    distinct choice count, in increasing count: yields (rows, table), rows
    the boolean mask of the questions whose logits the table holds.

    A table is never padded: a row reduced along axis 1 takes the same
    steps as the question's vector alone, so the results are bit-equal.
    Padding a short row up to a width of 8 or more would change numpy's
    pairwise summation order, and its last bits."""
    for count in sorted(set(counts.tolist())):
        rows = counts == count
        yield rows, logits[np.repeat(rows, counts)].reshape(-1, count)


def question_entropies(logits: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Shannon entropy (natural log) of softmax over each question's
    choices: logits flat in question order, counts the choices of each."""
    if counts.size == 0 or counts.min() < 1:
        raise ValueError("question_entropies: every question needs at least one logit")
    out = np.empty(len(counts))
    for rows, table in _tables(logits, counts):
        shifted = table - table.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
        out[rows] = -np.sum(np.exp(log_probs) * log_probs, axis=1)
    return out


# ---------------------------------------------------------------------------
# evaluation

# Caps on one evaluate() chunk, fixed by measurement on the bundled tasks
# (2 vCPUs, one BLAS thread). Most of a chunk's cost is fixed per-call work
# in the encoders and numpy dispatch, so a chunk takes up to 128 choices.
# gcn_forward pads every subgraph of a chunk to the largest one, so a chunk
# also holds at most 1,280 padded node rows, about 0.65 MB of (rows x 64)
# float64 stack. Caps of 1,920 and 2,560 rows ran slower on the noisy task
# at node budget 60, and chunks of 32 questions with no row cap raised its
# peak memory by about 10%.
EVAL_CHUNK_CHOICES = 128
EVAL_CHUNK_ROWS = 1280


def eval_chunks(questions: list[PreparedQuestion]) -> Iterator[list[PreparedQuestion]]:
    """Consecutive runs of `questions`, the chunks evaluate() scores
    together. A chunk grows while it holds at most EVAL_CHUNK_CHOICES
    choices and at most EVAL_CHUNK_ROWS padded node rows, its choices times
    its largest subgraph's node count; a question alone may exceed either
    cap. So the chunks depend only on the questions' order and subgraph
    sizes, and a chunk of questions without subgraphs is bounded by its
    choices alone."""
    chunk: list[PreparedQuestion] = []
    choices = largest = 0
    for pq in questions:
        nodes = max((c.subgraph.n_nodes for c in pq.choices if c.subgraph is not None), default=0)
        grown, widest = choices + len(pq.choices), max(largest, nodes)
        if chunk and (grown > EVAL_CHUNK_CHOICES or grown * widest > EVAL_CHUNK_ROWS):
            yield chunk
            chunk, grown, widest = [], len(pq.choices), nodes
        chunk.append(pq)
        choices, largest = grown, widest
    if chunk:
        yield chunk


def evaluate(
    questions: list[PreparedQuestion],
    params: ModelParams,
    config: TrainConfig,
    with_details: bool = False,
) -> tuple[float, list[dict]]:
    """Accuracy plus one record per question, scored a chunk of questions
    at a time (eval_chunks: at most 128 choices and 1,280 padded node rows,
    whatever config.batch_size is). Ties resolve to the lowest index.

    Each chunk runs the encoders once, then the classifier product with unit
    weights, whose logits give each question's entropy: the entropy a record
    holds, and the one act-know training weights by. act-know then runs a
    second classifier product with the features scaled by that entropy; the
    weights enter only after the encoders, so it shares their pass. A
    chunk's entropies and predictions are row reductions of its logits as
    (questions × choices) tables (question_entropies), bit-equal to one
    question at a time. With details, a record also holds each choice's
    node attention.
    """
    if not questions:
        raise ConfigError("evaluate: empty question list")
    rows = []
    for chunk in eval_chunks(questions):
        feats = encode_batch(chunk, params, config)
        logits = classify(feats, params.classifier, np.ones(len(chunk))).data
        entropies = question_entropies(logits, feats.counts)
        if config.mode == "act-know":
            logits = classify(feats, params.classifier, entropies).data
        predicted = np.empty(len(chunk), dtype=np.intp)
        for sel, table in _tables(logits, feats.counts):
            predicted[sel] = table.argmax(axis=1)
        values = logits.tolist()
        if with_details:
            choices = [c for pq in chunk for c in pq.choices]
            attention: list[dict] = [{} for _ in choices]
            for i, weights in zip(feats.pooled.tolist(), feats.attention):
                nodes = choices[i].subgraph.nodes
                attention[i] = {"node_attention": {int(e): float(x) for e, x in zip(nodes, weights)}}
        for pq, pred, entropy, first, count in zip(chunk, predicted.tolist(), entropies.tolist(),
                                                   feats.starts.tolist(), feats.counts.tolist()):
            row = {
                "id": pq.qid,
                "predicted": pred,
                "gold": pq.answer_index,
                "correct": pred == pq.answer_index,
                "entropy": entropy,
                "logits": values[first : first + count],
            }
            if with_details:
                row["attention"] = attention[first : first + count]
            rows.append(row)
        # the chunk's features go before the next chunk is encoded
        del feats
    return sum(row["correct"] for row in rows) / len(questions), rows


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    best_state: dict[str, np.ndarray]
    best_epoch: int
    best_accuracy: float
    stats: list[dict] = field(default_factory=list)
    # act-know: each master epoch's weights, aligned with the training questions
    entropy_history: list[np.ndarray] = field(default_factory=list)


def _batch_loss(
    batch: list[PreparedQuestion],
    params: ModelParams,
    weights: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
) -> Tensor:
    """Mean over the batch's questions of each question's cross-entropy,
    each question's features scaled by its weight."""
    logits, starts = score_batch(batch, params, weights, config, train=True, rng=rng)
    return mean_cross_entropy(logits, starts, [pq.answer_index for pq in batch])


def _mean_loss(rows: list[dict]) -> float:
    """Mean cross-entropy of the logits in `evaluate`'s rows, each row's
    loss a table row reduction (see _tables) and summed in row order."""
    counts = np.array([len(row["logits"]) for row in rows])
    logits = np.array([v for row in rows for v in row["logits"]])
    gold = np.array([row["gold"] for row in rows])
    losses = np.empty(len(rows))
    for sel, table in _tables(logits, counts):
        z = table - table.max(axis=1, keepdims=True)
        losses[sel] = np.log(np.sum(np.exp(z), axis=1)) - z[np.arange(len(z)), gold[sel]]
    # sequential, as sum() compensates its float additions on Python 3.12+
    total = 0.0
    for loss in losses.tolist():
        total += loss
    return float(total / len(rows))


def train(
    model: ModelParams,
    train_qs: list[PreparedQuestion],
    dev_qs: list[PreparedQuestion] | None,
    config: TrainConfig,
) -> TrainResult:
    """Train `model` in place and keep the state of the master epoch with
    the best dev accuracy (train accuracy without a dev split).

    act-know weights each question by the entropy the last evaluate() of
    the train split recorded for it. The other modes weight every question
    by 1.
    """
    config.validate()
    active = config.mode == "act-know"
    if not train_qs:
        raise ConfigError("no training questions")

    shuffle_rng = _stream(config.seed, 1)
    gumbel_rng = _stream(config.seed, 2)

    def adam(params: list[Tensor]) -> Adam:
        return Adam(params, lr=config.learning_rate, weight_decay=config.weight_decay)

    opt = adam(model.trainable(config))
    unit = np.ones(len(train_qs))

    if config.pretrain_epochs > 0 and config.graph_side:
        # graph-side warm start: text encoder frozen at its random init
        pre_opt = adam(model.trainable(config, with_text=False))
        for _ in range(config.pretrain_epochs):
            _run_updates(train_qs, model, unit, config, pre_opt, shuffle_rng, gumbel_rng)

    result = TrainResult(best_state=model.state_arrays(), best_epoch=0, best_accuracy=-1.0)
    # rows of the last evaluate() on the train split
    entropy_rows = []
    if active:
        entropy_rows = evaluate(train_qs, model, config)[1]

    for master in range(1, config.master_epochs + 1):
        weights = unit
        if active:
            weights = np.array([row["entropy"] for row in entropy_rows])
            result.entropy_history.append(weights)

        epoch_losses = []
        for _ in range(config.sub_epochs):
            sub_loss = _run_updates(train_qs, model, weights, config, opt, shuffle_rng, gumbel_rng)
            epoch_losses.append(sub_loss)

        splits = [("train", train_qs)]
        if dev_qs:
            splits.append(("dev", dev_qs))
        for split, questions in splits:
            accuracy, rows = evaluate(questions, model, config)
            if split == "train":
                loss = float(np.mean(epoch_losses))
                entropy_rows = rows
            else:
                loss = _mean_loss(rows)
            result.stats.append(
                {
                    "epoch": master,
                    "split": split,
                    "accuracy": accuracy,
                    "mean_entropy": float(np.mean([r["entropy"] for r in rows])),
                    "loss": loss,
                }
            )
        # model selection reads the last split: dev when there is one
        if accuracy > result.best_accuracy:
            result.best_accuracy = accuracy
            result.best_epoch = master
            result.best_state = model.state_arrays()

    return result


def _run_updates(
    train_qs: list[PreparedQuestion],
    model: ModelParams,
    weights: np.ndarray,
    config: TrainConfig,
    opt: Adam,
    shuffle_rng: np.random.Generator,
    gumbel_rng: np.random.Generator,
) -> float:
    """One pass over the training questions in shuffled batches, weights
    aligned with them; returns the mean batch loss.

    The optimizer's tensors are the only ones that require a gradient, and
    only while the batches run, so the tape reaches exactly what this phase
    trains. They hold no gradient afterwards."""
    order = shuffle_rng.permutation(len(train_qs))
    losses = []
    for p in opt.params:
        p.requires_grad = True
    try:
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            loss = _batch_loss([train_qs[i] for i in idx], model, weights[idx], config, gumbel_rng)
            value = loss.item()
            if not np.isfinite(value):
                raise FloatingPointError("training loss is not finite")
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
            losses.append(value)
    finally:
        # the last step's gradients go with the marks
        opt.zero_grad()
        for p in opt.params:
            p.requires_grad = False
    return float(np.mean(losses))


def write_stats_csv(path: str, rows: list[dict]) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATS_HEADER)
        for row in rows:
            writer.writerow([row["epoch"], row["split"], repr(float(row["accuracy"])),
                             repr(float(row["mean_entropy"])), repr(float(row["loss"]))])
