"""Independent reference implementations used to cross-check the package.

Everything up to the per-choice scorer is written directly from the
defining formulas with plain loops and dense matrices, deliberately sharing
no code with src/. Sixteen package paths that simpler or faster ones
replaced follow at the end, kept as the references those are compared
against: the dict-loop BM25 `retrieve` that impact scoring replaced, the
per-choice scorer that choice-stacked scoring replaced, the per-question
`cross_entropy` that `segment_cross_entropy` replaced, the `segment_mean`
op and the gather + segment-mean text encoder built on it that the
bag-of-words product replaced, the two-pass act-know prediction that one
encoder pass with two classifier products replaced, the per-question
entropy and dev loss that row reductions of a logit table replaced, the
functional Adam step that the in-place `Adam` replaced, the n-gram mention
scan and neighbor-loop DFS that the label trie and the last-hop membership
test replaced, the KG embedding loop that drew its corruptions per triple
before one draw per epoch replaced it, the masked softmax op that the
pool's row softmax over -inf padding scores replaced, evaluation in
chunks of batch_size questions that chunks sized by their choices and
padded node rows replaced, the graph side as a tape of primitives
(gather, reshape and a batched matmul among them) that the hand-
differentiated GCN hidden stack and attention pool nodes replaced, and the
rest of the training step as a tape of primitives (add, mul, mean,
matmul, concat, relu, row_dot, segment_cross_entropy and the Gumbel
softmax among them) that the text encoder, ER attention, classifier and
loss nodes replaced, and the dense (n, n) normalized adjacency of each
subgraph and the slice-copy fill of the padded stack that edge lists and
one scatter replaced. The second
to fifth, the masked softmax and the composed training step run on the
package's autodiff tape so that gradients can be compared too.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from actknow import autodiff as ad
from actknow.autodiff import Tensor
from actknow.encoders import ERAttentionParams, GCNParams, TextEncoderParams, token_bag
from actknow.errors import ConfigError
from actknow.kg import KnowledgeGraph
from actknow.retrieval import InvertedIndex, bm25_idf, bm25_term_weight, tokenize
from actknow.subgraph import Subgraph
from actknow.training import (
    Features,
    ModelParams,
    PreparedQuestion,
    TrainConfig,
    classify,
    encode_batch,
    question_entropies,
    score_batch,
)

_TOKEN = re.compile(r"\w+")


def simple_tokens(text: str) -> list[str]:
    return [m.group(0).lower() for m in _TOKEN.finditer(text)]


def bm25_scan(sentences: list[str], query: str, k1: float = 1.2, b: float = 0.75) -> list[tuple[int, float]]:
    """Score every sentence against the query with the textbook BM25 form,
    keeping only sentences that share a token with it; descending score,
    ties by ascending sentence id."""
    docs = [simple_tokens(s) for s in sentences]
    n = len(docs)
    avg_len = sum(len(d) for d in docs) / n
    query_terms = sorted(set(simple_tokens(query)))
    df = {}
    for term in query_terms:
        df[term] = sum(1 for d in docs if term in d)
    results = []
    for sid, doc in enumerate(docs):
        score = 0.0
        matched = False
        for term in query_terms:
            tf = doc.count(term)
            if tf == 0 or df[term] == 0:
                continue
            matched = True
            idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
            denom = tf + k1 * (1.0 - b + b * len(doc) / avg_len)
            score += idf * tf * (k1 + 1.0) / denom
        if matched:
            results.append((sid, score))
    results.sort(key=lambda pair: (-pair[1], pair[0]))
    return results


def dense_normalize(c: np.ndarray) -> np.ndarray:
    """D_hat^{-1/2} (C + I) D_hat^{-1/2} computed with explicit matrices."""
    n = c.shape[0]
    c_hat = c + np.eye(n)
    degrees = c_hat.sum(axis=1)
    d_inv_sqrt = np.diag(1.0 / np.sqrt(degrees))
    return d_inv_sqrt @ c_hat @ d_inv_sqrt


def dense_gcn(a_norm: np.ndarray, features: np.ndarray, weights: list[np.ndarray]) -> np.ndarray:
    """Layered A_norm @ H @ W with ReLU between layers, identity after the
    last, evaluated with plain dense products."""
    h = features
    for i, w in enumerate(weights):
        h = a_norm @ h @ w
        if i < len(weights) - 1:
            h = np.maximum(h, 0.0)
    return h


def softmax_direct(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.max(z))
    return e / e.sum()


def entropy_direct(probs: np.ndarray) -> float:
    total = 0.0
    for p in probs:
        if p > 0:
            total -= p * math.log(p)
    return total


def all_simple_paths(adj: dict[int, set[int]], src: int, dst: int, max_edges: int) -> list[list[int]]:
    """Every simple path from src to dst with at most max_edges edges."""
    found: list[list[int]] = []

    def walk(node: int, path: list[int]) -> None:
        if node == dst and len(path) > 1:
            found.append(list(path))
            return
        if len(path) > max_edges:
            return
        for nb in sorted(adj.get(node, ())):
            if nb in path:
                continue
            path.append(nb)
            walk(nb, path)
            path.pop()

    walk(src, [src])
    return found


def fd_gradient(func, array: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. one array,
    entry by entry."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = func()
        flat[i] = orig - step
        down = func()
        flat[i] = orig
        out[i] = (up - down) / (2.0 * step)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(diff / scale))


# ---------------------------------------------------------------------------
# the dict-loop BM25 scorer the package replaced with impact scoring: idf and
# tf saturation recomputed for every posting of every query token. Its float
# sums are the reference impact scoring must match exactly.


def retrieve(index: InvertedIndex, query: str, k: int) -> list[tuple[int, float]]:
    """Top-k (sentence_id, score) for the query; only sentences sharing at
    least one query token are candidates."""
    if k < 1:
        raise ConfigError(f"retrieve: k must be >= 1, got {k}")
    scores: dict[int, float] = {}
    for tok in sorted(set(tokenize(query))):
        plist = index.postings.get(tok)
        if not plist:
            continue
        idf = bm25_idf(index.doc_count, len(plist))
        for sid, tf in plist:
            w = idf * bm25_term_weight(tf, index.doc_lengths[sid], index.avg_doc_length)
            scores[sid] = scores.get(sid, 0.0) + w
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


# ---------------------------------------------------------------------------
# the per-choice scorer the package replaced with choice-stacked scoring:
# one small tape per choice, built from the same autodiff primitives. It is
# the reference the batched forward and backward are compared against.


def encode_text(token_ids: np.ndarray, params: TextEncoderParams) -> Tensor:
    if token_ids.size == 0:
        raise ValueError("encode_text: empty token sequence")
    embedded = gather(params.token_embedding, token_ids)
    pooled = mean(embedded, axis=0)
    return relu(add(matmul(params.projection, pooled), params.bias))


def gcn_forward(sub: Subgraph, params: GCNParams) -> Tensor:
    """Two propagations, A_norm @ relu(A_norm @ X @ W0) @ W1: relu after
    the hidden layer, identity after the last. Returns the (N, d) node
    matrix."""
    if sub.n_nodes == 0:
        raise ValueError("gcn_forward: empty subgraph")
    a_norm = Tensor(dense_adjacency(sub))
    h = gather(params.node_features, np.asarray(sub.nodes, dtype=np.int64))
    h = relu(matmul(matmul(a_norm, h), params.hidden_layer))
    return matmul(matmul(a_norm, h), params.last_layer)


def graph_attention_pool(node_outputs: Tensor, text_vec: Tensor) -> tuple[Tensor, Tensor]:
    """Softmax(text . node_k) weighted sum of node outputs, and the (N,)
    attention weights."""
    if node_outputs.data.ndim != 2 or node_outputs.data.shape[0] == 0:
        raise ValueError("graph_attention_pool: need a non-empty (N, d) matrix")
    scores = matmul(node_outputs, text_vec)
    weights = row_softmax(scores)
    return matmul(weights, node_outputs), weights


def er_attention(
    text_vec: Tensor,
    params: ERAttentionParams,
    train: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Concat of attention-weighted projected entity and relation vectors.

    Entity weights are Gumbel-softmax samples in train mode (rng required)
    and plain softmax at eval; relation weights are always plain softmax.
    """
    projected_entities = matmul(params.entity_table, params.entity_proj)
    entity_scores = matmul(projected_entities, text_vec)
    if train:
        if rng is None:
            raise ValueError("er_attention: train mode needs an rng")
        entity_weights = gumbel_softmax(entity_scores, 1.0, rng)
    else:
        entity_weights = row_softmax(entity_scores)
    entity_vec = matmul(entity_weights, projected_entities)

    projected_relations = matmul(params.relation_table, params.relation_proj)
    relation_weights = row_softmax(matmul(projected_relations, text_vec))
    relation_vec = matmul(relation_weights, projected_relations)
    return concat([entity_vec, relation_vec])


def _zero_vec(n: int) -> Tensor:
    return Tensor(np.zeros(n))


def score_question(
    pq: PreparedQuestion,
    params: ModelParams,
    weight: float,
    config: TrainConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
    details: list | None = None,
) -> Tensor:
    """Logit vector over the question's choices.

    weight scales the graph and knowledge features alike before the
    classifier dot product; 1 is the plain model and 0 reduces it to
    text-only.
    """
    d = params.dim
    graph_side = config.mode != "text-only"
    parts = []
    for choice in pq.choices:
        text_vec = encode_text(choice.token_ids, params.text)
        choice_detail: dict = {}
        if graph_side and choice.subgraph is not None and choice.subgraph.n_nodes > 0:
            graph_vec, attn = graph_attention_pool(gcn_forward(choice.subgraph, params.gcn), text_vec)
            if details is not None:
                choice_detail["node_attention"] = {
                    int(e): float(w) for e, w in zip(choice.subgraph.nodes, attn.data)
                }
        else:
            graph_vec = _zero_vec(d)
        if graph_side:
            knowledge_vec = er_attention(text_vec, params.er, train, rng)
        else:
            knowledge_vec = _zero_vec(2 * d)
        feats = concat(
            [text_vec, scalar_mul(graph_vec, weight), scalar_mul(knowledge_vec, weight)]
        )
        logit = matmul(params.classifier, feats)
        parts.append(reshape(logit, (1,)))
        if details is not None:
            details.append(choice_detail)
    return concat(parts)


def cross_entropy(logits: Tensor, target: int) -> Tensor:
    """-log softmax(logits)[target] for a 1-D logit vector: the per-question
    loss before segment_cross_entropy took every question of a batch at once."""
    if logits.data.ndim != 1:
        raise ValueError("cross_entropy: logits must be 1-D")
    m = logits.data.shape[0]
    if not 0 <= target < m:
        raise IndexError(f"cross_entropy: target {target} out of range for {m} logits")
    zmax = np.max(logits.data)
    lse = zmax + np.log(np.sum(np.exp(logits.data - zmax)))
    probs = np.exp(logits.data - lse)

    def pullback(g: np.ndarray):
        grad = probs.copy()
        grad[target] -= 1.0
        return (grad * g,)

    return ad.record(np.asarray(lse - logits.data[target]), (logits,), pullback)


# ---------------------------------------------------------------------------
# the batched text encoder before the bag-of-words product: token rows
# gathered from the table and averaged per sequence, whose backward
# scatter-adds into the table


def segment_mean(a: Tensor, starts: np.ndarray) -> Tensor:
    """Mean of each segment of rows: (T, ...) -> (n_segments, ...)."""
    if a.data.ndim == 0:
        raise ValueError("segment_mean: input must be at least 1-D")
    counts = ad._segment_counts(starts, a.shape[0])
    scale = counts.reshape((-1,) + (1,) * (a.data.ndim - 1))
    data = np.add.reduceat(a.data, starts, axis=0) / scale
    return ad.record(data, (a,), lambda g: (np.repeat(g / scale, counts, axis=0),))


def encode_text_by_gather(sequences: list[np.ndarray], params: TextEncoderParams) -> Tensor:
    starts = np.cumsum([0] + [ids.size for ids in sequences[:-1]])
    embedded = gather(params.token_embedding, np.concatenate(sequences))
    pooled = segment_mean(embedded, starts)
    return relu(add_row(matmul(pooled, transpose(params.projection)), params.bias))


# ---------------------------------------------------------------------------
# prediction of a stack of questions before the encoders ran once per
# chunk: act-know scored the whole stack twice, once with unit weights for
# the entropies and once with the entropy weights. Each question's entropy,
# prediction and dev loss came from its own logit vector, before one
# (questions × choices) table per chunk replaced those; the per-vector
# forms are the references the table reductions must equal bit for bit


def question_entropy(logits: np.ndarray) -> float:
    """Shannon entropy (natural log) of softmax(logits)."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("question_entropy: logits must be a non-empty 1-D vector")
    shifted = z - np.max(z)
    lse = np.log(np.sum(np.exp(shifted)))
    probs = np.exp(shifted - lse)
    return float(-np.sum(probs * (shifted - lse)))


def mean_loss(rows: list[dict]) -> float:
    """Mean cross-entropy of the logits in `evaluate`'s rows, one row at a
    time."""
    total = 0.0
    for row in rows:
        logits = np.array(row["logits"])
        z = logits - np.max(logits)
        lse = np.log(np.sum(np.exp(z)))
        total += lse - z[row["gold"]]
    return float(total / len(rows))


def _eval_logits(
    questions: list[PreparedQuestion],
    params: ModelParams,
    weights: np.ndarray,
    config: TrainConfig,
) -> list[np.ndarray]:
    """Eval-mode logits of each question, one array per question."""
    logits, starts = score_batch(questions, params, weights, config)
    return np.split(logits.data, starts[1:])


def _entropies(
    questions: list[PreparedQuestion], params: ModelParams, config: TrainConfig
) -> list[float]:
    """Entropy of each question's eval-mode logits under unit weights."""
    ones = np.ones(len(questions))
    return [question_entropy(z) for z in _eval_logits(questions, params, ones, config)]


def predict_batch(
    questions: list[PreparedQuestion], params: ModelParams, config: TrainConfig
) -> list[tuple[int, np.ndarray, float]]:
    """(chosen index, final logits, entropy) of each question of a stack,
    scored together. Ties resolve to the lowest index.

    act-know runs two eval passes: an unweighted one to measure each
    question's entropy, then a pass with features scaled by that entropy.
    """
    if config.mode == "act-know":
        entropies = _entropies(questions, params, config)
        logits = _eval_logits(questions, params, np.array(entropies), config)
    else:
        logits = _eval_logits(questions, params, np.ones(len(questions)), config)
        entropies = [question_entropy(z) for z in logits]
    return [(int(np.argmax(z)), z, h) for z, h in zip(logits, entropies)]


# ---------------------------------------------------------------------------
# the functional Adam step the in-place `optim.Adam` replaced: new arrays for
# the parameters and both moments on every step. Its float expressions are
# the reference the in-place update must match exactly.


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter."""

    step: int
    m: list[np.ndarray]
    v: list[np.ndarray]


def init_adam_state(params: list[np.ndarray]) -> AdamState:
    return AdamState(
        step=0,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.98,
    eps: float = 1e-6,
    weight_decay: float = 0.1,
) -> tuple[list[np.ndarray], AdamState]:
    """One update. Weight decay is decoupled: applied to params, not grads."""
    if lr <= 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    if len(params) != len(grads):
        raise ValueError("adam_step: params and grads length mismatch")
    t = state.step + 1
    new_params: list[np.ndarray] = []
    new_m: list[np.ndarray] = []
    new_v: list[np.ndarray] = []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ValueError(f"adam_step: grad shape {g.shape} does not match param {p.shape}")
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        new_params.append(p - lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(step=t, m=new_m, v=new_v)


# ---------------------------------------------------------------------------
# the mention scan and the DFS path search before the label trie and the
# last-hop membership test: an n-gram re-join for every length up to the
# longest label, looked up in `entity_ids`, and a neighbor loop at every
# depth. The scan computes the graph's longest label, which the graph no
# longer stores; otherwise both are the package code verbatim, the
# references the faster paths must match exactly.


def identify_concepts(tokens: list[str], graph: KnowledgeGraph) -> list[int]:
    """Entity ids of the labels found in a token list, in text order.
    Longest n-grams first, non-overlapping, earliest occurrence wins within
    a length."""
    if isinstance(tokens, str):
        raise TypeError("identify_concepts takes a token list, not a str")
    max_label_tokens = max((label.count(" ") + 1 for label in graph.entities), default=1)
    used = [False] * len(tokens)
    found: list[tuple[int, int]] = []  # (start token, entity)
    for n in range(min(max_label_tokens, len(tokens)), 0, -1):
        for start in range(0, len(tokens) - n + 1):
            if any(used[start : start + n]):
                continue
            entity = graph.entity_ids.get(" ".join(tokens[start : start + n]))
            if entity is None:
                continue
            for i in range(start, start + n):
                used[i] = True
            found.append((start, entity))
    found.sort()
    return [entity for _, entity in found]


def dfs_path(graph: KnowledgeGraph, src: int, dst: int, max_len: int) -> list[int] | None:
    """First simple path src->dst with at most max_len edges, visiting
    neighbors in ascending id order."""
    path = [src]
    on_path = {src}

    def explore(node: int, budget: int) -> bool:
        if budget == 0:
            return False
        for nb in graph.adjacency[node]:
            if nb in on_path:
                continue
            path.append(nb)
            if nb == dst:
                return True
            on_path.add(nb)
            if explore(nb, budget - 1):
                return True
            on_path.discard(nb)
            path.pop()
        return False

    if explore(src, max_len):
        return path
    return None


# ---------------------------------------------------------------------------
# KG embedding training before the corruptions were drawn once per epoch:
# two scalar draws and the whole margin step per triple. The package code
# verbatim, without the memo and the read-only marking; the trainer must
# match it exactly.


def train_kg_embeddings(
    graph: KnowledgeGraph,
    dim: int,
    epochs: int,
    seed: int,
    lr: float = 0.05,
    margin: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """(entity, relation) tables trained with a margin loss against
    uniformly sampled corruptions, drawn one triple at a time."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    ent = rng.normal(0.0, scale, size=(graph.n_entities, dim))
    rel = rng.normal(0.0, scale, size=(graph.n_relations, dim))

    n_ent = graph.n_entities
    for _ in range(epochs):
        order = rng.permutation(len(graph.triples))
        for idx in order:
            t = graph.triples[idx]
            corrupt_head = bool(rng.integers(0, 2))
            repl = int(rng.integers(0, n_ent))
            if corrupt_head and repl == t.head or not corrupt_head and repl == t.tail:
                repl = (repl + 1) % n_ent
            if corrupt_head:
                nh, nt = repl, t.tail
            else:
                nh, nt = t.head, repl

            r = rel[t.relation]
            pos = np.sum(ent[t.head] * r * ent[t.tail])
            neg = np.sum(ent[nh] * r * ent[nt])
            if margin - pos + neg <= 0:
                continue
            # ascend the positive score, descend the negative one
            gh = r * ent[t.tail]
            gt = r * ent[t.head]
            gr_pos = ent[t.head] * ent[t.tail]
            gnh = r * ent[nt]
            gnt = r * ent[nh]
            gr_neg = ent[nh] * ent[nt]
            ent[t.head] += lr * gh
            ent[t.tail] += lr * gt
            ent[nh] -= lr * gnh
            ent[nt] -= lr * gnt
            rel[t.relation] += lr * (gr_pos - gr_neg)
    return ent, rel


def softmax_over_mask(a: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over the last axis of a 2-D tensor, taken only over the
    entries where mask is True; masked-out entries get weight exactly 0.
    Every row needs at least one unmasked entry."""
    mask = np.asarray(mask, dtype=bool)
    if a.data.ndim != 2 or mask.shape != a.shape:
        raise ValueError(f"softmax_over_mask: need a 2-D tensor and a mask of its shape, got {a.shape}, {mask.shape}")
    if not np.all(mask.any(axis=1)):
        raise ValueError("softmax_over_mask: a row has no unmasked entry")
    top = np.max(np.where(mask, a.data, -np.inf), axis=1, keepdims=True)
    e = np.exp(np.where(mask, a.data - top, -np.inf))
    out = e / np.sum(e, axis=1, keepdims=True)

    def pullback(g: np.ndarray):
        dot = np.sum(g * out, axis=1, keepdims=True)
        return (out * (g - dot),)

    return ad.record(out, (a,), pullback)


# ---------------------------------------------------------------------------
# evaluation in chunks of config.batch_size questions, before eval_chunks
# sized each chunk by its choices and its padded GCN stack. A question's
# logits depend on its chunk-mates in the last bits, so the two agree to
# 1e-12, not exactly


def evaluate_by_batch_size(
    questions: list[PreparedQuestion], params: ModelParams, config: TrainConfig
) -> list[dict]:
    """evaluate()'s rows, without details, scored config.batch_size
    questions at a time."""
    rows = []
    for start in range(0, len(questions), config.batch_size):
        chunk = questions[start : start + config.batch_size]
        feats = encode_batch(chunk, params, config)
        logits = classify(feats, params.classifier, np.ones(len(chunk))).data
        entropies = question_entropies(logits, feats.counts)
        if config.mode == "act-know":
            logits = classify(feats, params.classifier, entropies).data
        for pq, first, count, entropy in zip(chunk, feats.starts, feats.counts, entropies.tolist()):
            z = logits[first : first + count]
            pred = int(np.argmax(z))
            rows.append({"id": pq.qid, "predicted": pred, "gold": pq.answer_index,
                         "correct": pred == pq.answer_index, "entropy": entropy, "logits": z.tolist()})
    return rows


# ---------------------------------------------------------------------------
# the graph side as a tape of primitives, before the GCN hidden stack and
# the attention pool each became one node with a hand-written pullback: the
# ops it was built from, which the package no longer runs, and the composed
# forward passes. The fused nodes must match them bit for bit, gradients too


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.data.shape
    return ad.record(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def gather(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[i] = table[ids[i]]. Pullback scatter-adds."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("gather: ids must be a non-empty 1-D integer array")
    if ids.min() < 0 or ids.max() >= table.data.shape[0]:
        raise IndexError("gather: id out of range")
    shape = table.data.shape

    def pullback(g: np.ndarray):
        acc = np.zeros(shape)
        np.add.at(acc, ids, g)
        return (acc,)

    return ad.record(table.data[ids], (table,), pullback)


def batched_matmul(a: Tensor, b: Tensor) -> Tensor:
    """The batched (S, n, k) @ (S, k, m) product of two 3-D stacks."""
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise ValueError(f"batched_matmul: need two 3-D stacks, got {a.shape} @ {b.shape}")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"batched_matmul: batch sizes differ {a.shape} @ {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ValueError(f"batched_matmul: incompatible shapes {a.shape} @ {b.shape}") from exc

    def pullback(g: np.ndarray):
        return (g @ b.data.swapaxes(1, 2) if a.requires_grad else None,
                a.data.swapaxes(1, 2) @ g if b.requires_grad else None)

    return ad.record(data, (a, b), pullback)


def gcn_forward_composed(subgraphs: list[Subgraph], params: GCNParams) -> tuple[Tensor, Tensor, np.ndarray]:
    """encoders.gcn_forward as a tape of primitives: the padded hidden
    layer's output stack, the adjacency stack as a constant Tensor, and
    the mask."""
    adjacency = padded_adjacency(subgraphs)
    n = adjacency.shape[1]
    mask = np.zeros((len(subgraphs), n), dtype=bool)
    for i, sub in enumerate(subgraphs):
        mask[i, : sub.n_nodes] = True
    features = np.zeros(mask.shape + (params.node_features.shape[1],))
    features[mask] = params.node_features.data[np.concatenate([sub.nodes for sub in subgraphs])]
    a_norm, w = Tensor(adjacency), params.hidden_layer
    h = batched_matmul(a_norm, Tensor(features))
    rows = matmul(reshape(h, (-1, h.shape[2])), w)
    return relu(reshape(rows, (len(subgraphs), n, w.shape[1]))), a_norm, mask


def graph_attention_pool_composed(
    hidden: Tensor, adjacency: Tensor, mask: np.ndarray, text_vecs: Tensor, last_layer: Tensor
) -> tuple[Tensor, Tensor]:
    """encoders.graph_attention_pool as a tape of primitives, over the
    (S, d) text rows of the pooled choices: the (S, d) pooled vectors and
    the (S, N) attention weights."""
    s, n, k = hidden.shape
    u = reshape(matmul(text_vecs, transpose(last_layer)), (s, k, 1))
    scores = reshape(batched_matmul(adjacency, batched_matmul(hidden, u)), (s, n))
    weights = row_softmax(add(scores, Tensor(np.where(mask, 0.0, -np.inf))))
    mixed = batched_matmul(batched_matmul(reshape(weights, (s, 1, n)), adjacency), hidden)
    return matmul(reshape(mixed, (s, k)), last_layer), weights


def encode_batch_composed(
    questions: list[PreparedQuestion],
    params: ModelParams,
    config: TrainConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Features:
    """training.encode_batch as a tape of primitives: the composed text
    encoder and ER attention, and the composed graph side, with the pooled
    text rows gathered from the text matrix and the graph features gathered
    from the pooled rows and a zero row."""
    choices = [c for pq in questions for c in pq.choices]
    counts = np.array([len(pq.choices) for pq in questions])
    d = params.dim
    text = encode_text_composed([c.token_ids for c in choices], params.text)
    graph = Tensor(np.zeros((len(choices), d)))
    knowledge = Tensor(np.zeros((len(choices), 2 * d)))
    rows = np.zeros(0, dtype=np.intp)
    attention = np.zeros((0, 0))
    if config.graph_side:
        rows = np.flatnonzero([c.subgraph is not None for c in choices])
        if rows.size:
            hidden, adjacency, mask = gcn_forward_composed([choices[i].subgraph for i in rows], params.gcn)
            pooled, attn = graph_attention_pool_composed(
                hidden, adjacency, mask, gather(text, rows), params.gcn.last_layer
            )
            slot = np.full(len(choices), rows.size)
            slot[rows] = np.arange(rows.size)
            graph = gather(concat([pooled, Tensor(np.zeros((1, d)))]), slot)
            attention = attn.data
        knowledge = er_attention_composed(text, params.er, train, rng)
    return Features(text, graph, knowledge, counts, np.cumsum(counts) - counts, rows, attention)


# ---------------------------------------------------------------------------
# the rest of the training step as a tape of primitives, before the text
# encoder, ER attention, the classifier and the loss each became one node
# with a hand-written pullback: the ops that tape was built from, which the
# package no longer runs, and the composed stages. The fused step must match
# them bit for bit, gradients and the next Gumbel draw too


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")
    return ad.record(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul: shape mismatch {a.shape} vs {b.shape}")

    def pullback(g: np.ndarray):
        return (g * b.data if a.requires_grad else None, g * a.data if b.requires_grad else None)

    return ad.record(a.data * b.data, (a, b), pullback)


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    if a.data.size == 0:
        raise ValueError("mean: empty input")
    if axis is None:
        n = a.data.size
        shape = a.data.shape
        return ad.record(np.mean(a.data), (a,), lambda g: (np.full(shape, g / n),))
    n = a.data.shape[axis]

    def pullback(g: np.ndarray):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return ad.record(np.mean(a.data, axis=axis), (a,), pullback)


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return ad.record(a.data * c, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """numpy matmul semantics for the 1-D/2-D operand combinations."""
    an, bn = a.data.ndim, b.data.ndim
    if not (1 <= an <= 2 and 1 <= bn <= 2):
        raise ValueError(f"matmul: operands must be 1-D or 2-D, got {a.shape} @ {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ValueError(f"matmul: incompatible shapes {a.shape} @ {b.shape}") from exc

    # each pullback computes a gradient only for an operand that needs one
    if an == 2 and bn == 2:
        grad_a = lambda g: g @ b.data.T
        grad_b = lambda g: a.data.T @ g
    elif an == 2 and bn == 1:
        grad_a = lambda g: np.outer(g, b.data)
        grad_b = lambda g: a.data.T @ g
    elif an == 1 and bn == 2:
        grad_a = lambda g: b.data @ g
        grad_b = lambda g: np.outer(a.data, g)
    else:  # 1-D @ 1-D -> scalar
        grad_a = lambda g: g * b.data
        grad_b = lambda g: g * a.data

    def pullback(g: np.ndarray):
        return (grad_a(g) if a.requires_grad else None, grad_b(g) if b.requires_grad else None)

    return ad.record(data, (a, b), pullback)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError("transpose: input must be 2-D")
    return ad.record(a.data.T, (a,), lambda g: (g.T,))


def add_row(a: Tensor, row: Tensor) -> Tensor:
    """(n, d) + (d,): the same row added to every row of a."""
    if a.data.ndim != 2 or row.data.ndim != 1 or a.shape[1] != row.shape[0]:
        raise ValueError(f"add_row: need (n, d) + (d,), got {a.shape} + {row.shape}")
    return ad.record(a.data + row.data, (a, row), lambda g: (g, g.sum(axis=0)))


def row_dot(a: Tensor, v: Tensor) -> Tensor:
    """(n, d) . (d,) -> (n,): each row's dot product with v. Every row is
    summed the same way, so equal rows give bit-equal results wherever they
    sit; a BLAS matrix-vector product does not promise that."""
    if a.data.ndim != 2 or v.data.ndim != 1 or a.shape[1] != v.shape[0]:
        raise ValueError(f"row_dot: need (n, d) . (d,), got {a.shape} . {v.shape}")
    return ad.record(np.sum(a.data * v.data, axis=1), (a, v), lambda g: (np.outer(g, v.data), g @ a.data))


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors of equal rank along `axis`."""
    if not parts:
        raise ValueError("concat: need at least one tensor")
    ndim = parts[0].data.ndim
    if ndim == 0 or any(p.data.ndim != ndim for p in parts) or not 0 <= axis < ndim:
        raise ValueError(f"concat: need tensors of one rank >= 1 and an axis below it, got axis {axis}")
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ValueError(f"concat: shapes {[p.shape for p in parts]} differ off axis {axis}") from exc
    offsets = np.cumsum([0] + [p.data.shape[axis] for p in parts])

    def pullback(g: np.ndarray):
        index = [slice(None)] * ndim
        grads = []
        for i in range(len(parts)):
            index[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(index)])
        return tuple(grads)

    return ad.record(data, tuple(parts), pullback)


def relu(a: Tensor) -> Tensor:
    """max(a, 0), with +0.0 for both signed zeros. The pullback builds the
    a > 0 mask, so an eval pass never does. A NaN input stays NaN, and the
    loss check then raises, where a masked select would have zeroed it."""
    return ad.record(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0),))


def take_distinct_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup for strictly increasing ids: out[i] = table[ids[i]]. No row
    repeats, so the pullback writes g into its rows with no scatter-add."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("take_distinct_rows: ids must be a non-empty 1-D integer array")
    if np.any(ids[1:] <= ids[:-1]):
        raise ValueError("take_distinct_rows: ids must be strictly increasing")
    if ids[0] < 0 or ids[-1] >= table.data.shape[0]:
        raise IndexError("take_distinct_rows: id out of range")
    shape = table.data.shape

    def pullback(g: np.ndarray):
        out = np.zeros(shape)
        out[ids] = g
        return (out,)

    return ad.record(table.data[ids], (table,), pullback)


def row_softmax(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis of a 1-D or 2-D tensor."""
    if a.data.ndim not in (1, 2):
        raise ValueError("row_softmax: input must be 1-D or 2-D")
    if a.data.shape[-1] == 0:
        raise ValueError("row_softmax: empty row")
    out = ad.softmax_last(a.data)
    return ad.record(out, (a,), lambda g: (ad.softmax_last_pullback(out, g),))


def segment_cross_entropy(logits: Tensor, starts: np.ndarray, targets: np.ndarray) -> Tensor:
    """Per-segment -log softmax(segment)[target] of a flat 1-D logit vector:
    (C,) -> (n_segments,). targets index within their segment."""
    if logits.data.ndim != 1:
        raise ValueError("segment_cross_entropy: logits must be 1-D")
    counts = ad._segment_counts(starts, logits.shape[0])
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != counts.shape:
        raise ValueError(f"segment_cross_entropy: {targets.size} targets for {counts.size} segments")
    if np.any(targets < 0) or np.any(targets >= counts):
        raise IndexError("segment_cross_entropy: target out of range for its segment")
    z = logits.data
    zmax = np.maximum.reduceat(z, starts)
    lse = zmax + np.log(np.add.reduceat(np.exp(z - np.repeat(zmax, counts)), starts))
    picked = starts + targets
    probs = np.exp(z - np.repeat(lse, counts))

    def pullback(g: np.ndarray):
        grad = probs.copy()
        grad[picked] -= 1.0
        return (grad * np.repeat(g, counts),)

    return ad.record(lse - z[picked], (logits,), pullback)


def gumbel_softmax_with_noise(logits: Tensor, noise: np.ndarray, temperature: float) -> Tensor:
    """Differentiable part of the Gumbel softmax: softmax((logits + noise) / T)."""
    if temperature <= 0:
        raise ConfigError(f"gumbel temperature must be positive, got {temperature}")
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != logits.shape:
        raise ValueError("gumbel noise shape must match logits")
    return row_softmax(scalar_mul(add(logits, Tensor(noise)), 1.0 / temperature))


def gumbel_softmax(logits: Tensor, temperature: float, rng: np.random.Generator) -> Tensor:
    """Soft sample from a categorical defined by logits (reparameterized)."""
    return gumbel_softmax_with_noise(logits, ad.sample_gumbel(logits.shape, rng), temperature)


def encode_text_composed(sequences: list[np.ndarray], params: TextEncoderParams) -> Tensor:
    """encoders.encode_text as a tape of primitives: the table rows of the
    batch's distinct ids, the bag product, the projection, bias and relu."""
    distinct, bag = token_bag(sequences, params.token_embedding.shape[0])
    pooled = matmul(Tensor(bag), take_distinct_rows(params.token_embedding, distinct))
    return relu(add_row(matmul(pooled, transpose(params.projection)), params.bias))


def er_attention_composed(
    text_vecs: Tensor,
    params: ERAttentionParams,
    train: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """encoders.er_attention as a tape of primitives."""
    projected_entities = matmul(params.entity_table, params.entity_proj)
    entity_scores = matmul(text_vecs, transpose(projected_entities))
    if train:
        if rng is None:
            raise ValueError("er_attention: train mode needs an rng")
        entity_weights = gumbel_softmax(entity_scores, 1.0, rng)
    else:
        entity_weights = row_softmax(entity_scores)
    entity_vecs = matmul(entity_weights, projected_entities)

    projected_relations = matmul(params.relation_table, params.relation_proj)
    relation_weights = row_softmax(matmul(text_vecs, transpose(projected_relations)))
    relation_vecs = matmul(relation_weights, projected_relations)
    return concat([entity_vecs, relation_vecs], axis=1)


def classify_composed(feats: Features, classifier: Tensor, weights: np.ndarray) -> Tensor:
    """training.classify as a tape of primitives."""
    scale = np.repeat(np.asarray(weights, dtype=np.float64), feats.counts)[:, None]
    graph, knowledge = feats.graph, feats.knowledge
    rows = concat(
        [
            feats.text,
            mul(graph, Tensor(np.broadcast_to(scale, graph.shape))),
            mul(knowledge, Tensor(np.broadcast_to(scale, knowledge.shape))),
        ],
        axis=1,
    )
    return row_dot(rows, classifier)


def mean_cross_entropy_composed(logits: Tensor, starts: np.ndarray, targets: list[int]) -> Tensor:
    """training.mean_cross_entropy as a tape of primitives."""
    return mean(segment_cross_entropy(logits, starts, targets))


# the dense path the edge lists replaced: each subgraph held its (n, n)
# normalized adjacency, built from the 0/1 matrix of KG edges among its
# nodes, and gcn_forward filled the padded stack with one slice copy per
# subgraph


def normalize_adjacency(c: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization with self-loops:
    D^-1/2 (C + I) D^-1/2 where D = rowsum(C + I). C must be a float64
    symmetric 0/1 matrix with a zero diagonal; nothing checks it."""
    with_self = c + np.eye(c.shape[0])
    degrees = with_self.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    return with_self * np.outer(inv_sqrt, inv_sqrt)


def zero_one_adjacency(graph: KnowledgeGraph, nodes: list[int]) -> np.ndarray:
    """The 0/1 matrix C of KG edges among `nodes`, as connect_concepts
    built it before normalizing it."""
    index = {e: i for i, e in enumerate(nodes)}
    c = np.zeros((len(nodes), len(nodes)))
    for i, e in enumerate(nodes):
        for nb in graph.adjacency[e]:
            j = index.get(nb)
            if j is not None:
                c[i, j] = 1.0
    return c


def dense_adjacency(sub: Subgraph) -> np.ndarray:
    """The (n, n) normalized adjacency of the subgraph's edge list, +0.0
    off it."""
    a = np.zeros((sub.n_nodes, sub.n_nodes))
    a[tuple(sub.edge_index)] = sub.edge_weight
    return a


def subgraph_from_dense(nodes: list[int], norm: np.ndarray) -> Subgraph:
    """The subgraph holding a dense normalized adjacency's non-zeros, row by
    row, and no paths."""
    nonzero = np.nonzero(norm)
    return Subgraph(nodes=list(nodes), edge_index=np.array(nonzero, dtype=np.int32), edge_weight=norm[nonzero],
                    paths=[])


def padded_adjacency(subgraphs: list[Subgraph]) -> np.ndarray:
    """The (S, N, N) stack of dense adjacencies, zero-padded to the largest
    subgraph by one slice copy per subgraph."""
    n = max(sub.n_nodes for sub in subgraphs)
    adjacency = np.zeros((len(subgraphs), n, n))
    for i, sub in enumerate(subgraphs):
        adjacency[i, : sub.n_nodes, : sub.n_nodes] = dense_adjacency(sub)
    return adjacency
