"""Independent reference implementations used to cross-check the package.

Everything up to the per-choice scorer is written directly from the
defining formulas with plain loops and dense matrices, deliberately sharing
no code with src/. Ten package paths that simpler or faster ones
replaced follow at the end, kept as the references those are compared
against: the dict-loop BM25 `retrieve` that impact scoring replaced, the
per-choice scorer that choice-stacked scoring replaced, the per-question
`cross_entropy` that `segment_cross_entropy` replaced, the `segment_mean`
op and the gather + segment-mean text encoder built on it that the
bag-of-words product replaced, the two-pass act-know prediction that one
encoder pass with two classifier products replaced, the functional Adam
step that the in-place `Adam` replaced, the n-gram mention scan and
neighbor-loop DFS that the label trie and the last-hop membership test
replaced, and the KG embedding loop that drew its corruptions per triple
before one draw per epoch replaced it. The second to fifth run on the
package's autodiff tape so that gradients can be compared too.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from actknow import autodiff as ad
from actknow.autodiff import Tensor
from actknow.encoders import ERAttentionParams, GCNParams, TextEncoderParams
from actknow.errors import ConfigError
from actknow.kg import KnowledgeGraph
from actknow.retrieval import InvertedIndex, bm25_idf, bm25_term_weight, tokenize
from actknow.subgraph import Subgraph
from actknow.training import ModelParams, PreparedQuestion, TrainConfig, question_entropy, score_batch

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
    embedded = ad.gather(params.token_embedding, token_ids)
    pooled = ad.mean(embedded, axis=0)
    return ad.relu(ad.add(ad.matmul(params.projection, pooled), params.bias))


def gcn_forward(sub: Subgraph, params: GCNParams) -> Tensor:
    """Stacked propagation: H' = act(A_norm @ H @ W), relu between layers,
    identity after the last. Returns the (N, d) node matrix."""
    if sub.n_nodes == 0:
        raise ValueError("gcn_forward: empty subgraph")
    a_norm = Tensor(sub.norm_adjacency)
    h = ad.gather(params.node_features, np.asarray(sub.nodes, dtype=np.int64))
    last = len(params.layers) - 1
    for i, w in enumerate(params.layers):
        h = ad.matmul(ad.matmul(a_norm, h), w)
        if i != last:
            h = ad.relu(h)
    return h


def graph_attention_pool(node_outputs: Tensor, text_vec: Tensor) -> tuple[Tensor, Tensor]:
    """Softmax(text . node_k) weighted sum of node outputs, and the (N,)
    attention weights."""
    if node_outputs.data.ndim != 2 or node_outputs.data.shape[0] == 0:
        raise ValueError("graph_attention_pool: need a non-empty (N, d) matrix")
    scores = ad.matmul(node_outputs, text_vec)
    weights = ad.row_softmax(scores)
    return ad.matmul(weights, node_outputs), weights


def er_attention(
    text_vec: Tensor,
    params: ERAttentionParams,
    temperature: float,
    train: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Concat of attention-weighted projected entity and relation vectors.

    Entity weights are Gumbel-softmax samples in train mode (rng required)
    and plain softmax at eval; relation weights are always plain softmax.
    """
    projected_entities = ad.matmul(params.entity_table, params.entity_proj)
    entity_scores = ad.matmul(projected_entities, text_vec)
    if train:
        if rng is None:
            raise ValueError("er_attention: train mode needs an rng")
        entity_weights = ad.gumbel_softmax(entity_scores, temperature, rng)
    else:
        entity_weights = ad.row_softmax(entity_scores)
    entity_vec = ad.matmul(entity_weights, projected_entities)

    projected_relations = ad.matmul(params.relation_table, params.relation_proj)
    relation_weights = ad.row_softmax(ad.matmul(projected_relations, text_vec))
    relation_vec = ad.matmul(relation_weights, projected_relations)
    return ad.concat([entity_vec, relation_vec])


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
    parts = []
    for choice in pq.choices:
        text_vec = encode_text(choice.token_ids, params.text)
        choice_detail: dict = {}
        if config.use_gcn and choice.subgraph is not None and choice.subgraph.n_nodes > 0:
            graph_vec, attn = graph_attention_pool(gcn_forward(choice.subgraph, params.gcn), text_vec)
            if details is not None:
                choice_detail["node_attention"] = {
                    int(e): float(w) for e, w in zip(choice.subgraph.nodes, attn.data)
                }
        else:
            graph_vec = _zero_vec(d)
        if config.use_er:
            knowledge_vec = er_attention(text_vec, params.er, config.gumbel_temperature, train, rng)
        else:
            knowledge_vec = _zero_vec(2 * d)
        feats = ad.concat(
            [text_vec, ad.scalar_mul(graph_vec, weight), ad.scalar_mul(knowledge_vec, weight)]
        )
        logit = ad.matmul(params.classifier, feats)
        parts.append(ad.reshape(logit, (1,)))
        if details is not None:
            details.append(choice_detail)
    return ad.concat(parts)


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

    return ad._result(np.asarray(lse - logits.data[target]), (logits,), pullback)


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
    return ad._result(data, (a,), lambda g: (np.repeat(g / scale, counts, axis=0),))


def encode_text_by_gather(sequences: list[np.ndarray], params: TextEncoderParams) -> Tensor:
    starts = np.cumsum([0] + [ids.size for ids in sequences[:-1]])
    embedded = ad.gather(params.token_embedding, np.concatenate(sequences))
    pooled = segment_mean(embedded, starts)
    return ad.relu(ad.add_row(ad.matmul(pooled, ad.transpose(params.projection)), params.bias))


# ---------------------------------------------------------------------------
# prediction of a stack of questions before the encoders ran once per
# chunk: act-know scored the whole stack twice, once with unit weights for
# the entropies and once with the entropy weights


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


def warmup_lr(lr: float, step: int, warmup_steps: int) -> float:
    """Learning rate of update number `step` (from 1): linear ramp over the
    first warmup_steps updates, then constant."""
    if warmup_steps > 0 and step <= warmup_steps:
        return lr * step / warmup_steps
    return lr


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
