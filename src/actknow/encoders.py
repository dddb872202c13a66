"""Text, graph, and entity/relation encoders built on the autodiff tensors.

Three per-choice representations feed the classifier:
  text_vec       relu(P @ mean(token embeddings) + bias), dim d; the means
                 of a batch are one bag-of-words product over the table
                 rows of the batch's distinct tokens
  graph_vec      text-attention pooling over GCN node outputs, dim d; the
                 last layer's weight is applied after pooling, so its
                 node outputs are never built
  knowledge_vec  concat of attention-pooled projected entity and relation
                 tables, dim 2d; entity attention uses Gumbel softmax while
                 training and plain softmax at eval time

Each forward pass takes a batch of choices at once and returns one row per
choice, so a batch costs a few array ops rather than one small tape per
choice. Each encoder is one tape node with a hand-written pullback: the
text encoder, the GCN's hidden layer, the attention pool and ER
attention, where a tape of primitives takes 38. Each pullback runs the
products that tape would, in the same orientation, and lists a parent
once per gradient term where backward must add the terms as that tape
did, so the gradients have the same bits. A pullback returns
a gradient for every parent, but for the text while graph-side
pretraining freezes it: the phase's trainable set alone decides what
trains (training.ModelParams.trainable), and backward drops the rest.

Allocation rule: a large per-node or per-choice array is allocated once
and then written in place, with the same ufunc on the same operands, so
the bits are those of the fresh-array form: the text encoder's bias and
relu, the padded node-feature stack (one take, then its padding zeroed)
and the hidden layer's product and relu, which share one array, the
Gumbel noise and the pool's node gradient.
A call writes only into arrays it allocated itself, never into its
inputs, the subgraphs' edge lists or the fixed tables, and keeps no
buffer from one call to the next. The GCN's padded adjacency stack is one
scatter of the batch's one-triangle edge lists and one of their mirror
into zeros. Token and node ids arrive in the narrowest unsigned type that
holds them and only index; arithmetic on them widens them first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .kg import EmbeddingTable
from .subgraph import Subgraph

UNK_ID = 0
SEP_ID = 1
_RESERVED = ("<unk>", "<sep>")


@dataclass
class Vocab:
    tokens: list[str]
    ids: dict[str, int]

    def __len__(self) -> int:
        return len(self.tokens)


def build_vocab(token_lists: list[list[str]]) -> Vocab:
    """Sorted-unique token vocabulary with reserved unknown and separator ids."""
    seen: set[str] = set()
    for token_list in token_lists:
        if isinstance(token_list, str):
            raise TypeError("build_vocab takes token lists, not strs")
        seen.update(token_list)
    tokens = list(_RESERVED) + sorted(seen)
    return Vocab(tokens=tokens, ids={t: i for i, t in enumerate(tokens)})


def encode_pair_tokens(vocab: Vocab, premise_tokens: list[str], hypothesis_tokens: list[str]) -> np.ndarray:
    """Token id sequence `premise [SEP] hypothesis`, in np.min_scalar_type
    of the vocabulary's largest id. The premise may be empty (the sequence
    then starts at the separator); the hypothesis may not."""
    if isinstance(premise_tokens, str) or isinstance(hypothesis_tokens, str):
        raise TypeError("encode_pair_tokens takes token lists, not strs")
    if not hypothesis_tokens:
        raise ValueError("hypothesis must be non-empty")
    # one bound dict.get for the call, not an attribute read per token
    lookup = vocab.ids.get
    ids = [lookup(t, UNK_ID) for t in premise_tokens] + [SEP_ID] + [lookup(t, UNK_ID) for t in hypothesis_tokens]
    return np.array(ids, dtype=np.min_scalar_type(len(vocab) - 1))


# ---------------------------------------------------------------------------
# parameter groups


@dataclass
class TextEncoderParams:
    token_embedding: Tensor  # (V, d)
    projection: Tensor       # (d, d)
    bias: Tensor             # (d,)


@dataclass
class GCNParams:
    hidden_layer: Tensor     # (node_dim, hidden)
    last_layer: Tensor       # (hidden, d), applied by graph_attention_pool
    node_features: Tensor    # (n_entities, node_dim), fixed input features


@dataclass
class ERAttentionParams:
    entity_table: Tensor     # (n_entities, kg_dim), fixed
    relation_table: Tensor   # (n_relations, kg_dim), fixed
    entity_proj: Tensor      # (kg_dim, d)
    relation_proj: Tensor    # (kg_dim, d)


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_text_params(vocab_size: int, dim: int, rng: np.random.Generator) -> TextEncoderParams:
    return TextEncoderParams(
        token_embedding=Tensor(rng.normal(0.0, 0.1, size=(vocab_size, dim))),
        projection=Tensor(_xavier(rng, dim, dim)),
        bias=Tensor(np.zeros(dim)),
    )


def init_gcn_params(
    node_dim: int, hidden: int, out: int, node_features: EmbeddingTable, rng: np.random.Generator
) -> GCNParams:
    if node_dim != node_features.dim:
        raise ConfigError(f"gcn input dim {node_dim} does not match node features ({node_features.dim})")
    return GCNParams(hidden_layer=Tensor(_xavier(rng, node_dim, hidden)),
                     last_layer=Tensor(_xavier(rng, hidden, out)), node_features=Tensor(node_features.vectors))


def init_er_params(
    entities: EmbeddingTable, relations: EmbeddingTable, dim: int, rng: np.random.Generator
) -> ERAttentionParams:
    return ERAttentionParams(
        entity_table=Tensor(entities.vectors),
        relation_table=Tensor(relations.vectors),
        entity_proj=Tensor(_xavier(rng, entities.dim, dim)),
        relation_proj=Tensor(_xavier(rng, relations.dim, dim)),
    )


# ---------------------------------------------------------------------------
# forward passes, each over a batch of choices stacked along the first axis


def token_bag(sequences: list[np.ndarray], vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The U distinct ids of a batch of token sequences, in increasing
    order, and the (C, U) bag-of-words matrix whose row c holds
    count(token in c) / len(c)."""
    lengths = np.array([seq.size for seq in sequences], dtype=np.int64)
    if lengths.size == 0 or lengths.min() == 0:
        raise ValueError("encode_text: need at least one sequence, none of them empty")
    ids = np.concatenate(sequences)
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise IndexError("encode_text: token id out of range")
    # the distinct ids and each id's bag column, by counting: a few times
    # faster than np.unique's sort on ~3,000 tokens
    distinct = np.flatnonzero(np.bincount(ids, minlength=vocab_size))
    column = np.zeros(vocab_size, dtype=np.int64)
    column[distinct] = np.arange(distinct.size)
    n_seq, n_distinct = len(sequences), distinct.size
    rows = np.repeat(np.arange(n_seq), lengths)
    weights = np.repeat(1.0 / lengths, lengths)
    bag = np.bincount(rows * n_distinct + column[ids], weights=weights, minlength=n_seq * n_distinct)
    return distinct, bag.reshape(n_seq, n_distinct)


def encode_text(sequences: list[np.ndarray], params: TextEncoderParams) -> Tensor:
    """relu(P @ mean(token embeddings) + bias) per token sequence: (C, d).

    The means are one product bag @ rows (token_bag), where rows are the
    table rows of the batch's distinct ids, so its cost grows with the
    batch's tokens, not the vocabulary. The encoder is one tape node;
    backward writes the rows' gradient bag.T @ g into the table's with no
    scatter-add."""
    table, projection, bias = params.token_embedding, params.projection, params.bias
    distinct, bag = token_bag(sequences, table.shape[0])
    pooled = bag @ table.data[distinct]
    # the bias and relu go into the product in place; max(x, 0) gives +0.0
    # for both signed zeros, and a NaN stays NaN, which the loss check
    # then refuses
    out = pooled @ projection.data.T
    out += bias.data
    np.maximum(out, 0.0, out=out)

    def pullback(g: np.ndarray):
        # relu's mask: the output is > 0 exactly where its input is
        g = g * (out > 0)
        g_table = np.zeros(table.shape)
        g_table[distinct] = bag.T @ (g @ projection.data)
        return g_table, (pooled.T @ g).T, g.sum(axis=0)

    return ad.record(out, (table, projection, bias), pullback)


def gcn_forward(subgraphs: list[Subgraph], params: GCNParams) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Stacked propagation per subgraph through the hidden layer,
    H = relu((A_norm @ X) @ W): the last layer has no activation, so
    graph_attention_pool applies it to what it pools.

    Subgraphs are padded to the largest one: returns the (S, N, hidden)
    stack the last layer reads and the (S, N, N) stack of normalized
    adjacencies, both exact zeros on padding, and the (S, N) mask of real
    nodes. The hidden layer is one tape node."""
    if not subgraphs or any(sub.n_nodes == 0 for sub in subgraphs):
        raise ValueError("gcn_forward: need at least one subgraph, none of them empty")
    sizes = np.array([sub.n_nodes for sub in subgraphs])
    s, n = len(subgraphs), int(sizes.max())
    mask = np.arange(n) < sizes[:, None]
    # one scatter of every subgraph's edge list into its block of the
    # stack, each weight at (row, col) and at (col, row). The ids are
    # widened to int32 first: a uint8 or uint16 row * n keeps its narrow
    # dtype and wraps, while the offsets row * n + col reach n * n - 1 and
    # fit in int32 for any block that fits in memory
    rows, cols = np.concatenate([sub.edge_index for sub in subgraphs], axis=1).astype(np.int32)
    block = np.repeat(np.arange(0, s * n * n, n * n), [sub.edge_weight.size for sub in subgraphs])
    weight = np.concatenate([sub.edge_weight for sub in subgraphs])
    adjacency = np.zeros((s, n, n))
    flat = adjacency.reshape(-1)
    flat[block + (rows * n + cols)] = weight
    flat[block + (cols * n + rows)] = weight
    # node features are fixed inputs, so the padded stack is a constant:
    # one take over a padded index, whose padding rows are then zeroed. It
    # is taken into the front of the array that the hidden layer's product
    # then fills, once A_norm @ X has read it (mode="clip" writes straight
    # into it; every index is in range)
    index = np.zeros(mask.shape, dtype=np.intp)
    index[mask] = np.concatenate([sub.nodes for sub in subgraphs])
    w = params.hidden_layer
    k, width = params.node_features.shape[1], w.shape[1]
    first = np.empty((s * n, max(k, width)))
    x = first.reshape(-1)[: s * n * k].reshape(s, n, k)
    np.take(params.node_features.data, index, axis=0, out=x, mode="clip")
    x[~mask] = 0.0
    # the (S*N, k) rows A_norm @ X that meet W, and the relu output,
    # written into the product; it is > 0 exactly where its input is
    rows = np.matmul(adjacency, x).reshape(-1, k)
    h = np.matmul(rows, w.data, out=first.reshape(-1)[: s * n * width].reshape(-1, width))
    np.maximum(h, 0.0, out=h)

    def pullback(g: np.ndarray):
        return (rows.T @ (g.reshape(h.shape) * (h > 0)),)

    return ad.record(h.reshape(s, n, width), (w,), pullback), adjacency, mask


def graph_attention_pool(
    hidden: Tensor, adjacency: np.ndarray, mask: np.ndarray, text: Tensor, rows: np.ndarray, last_layer: Tensor
) -> tuple[Tensor, np.ndarray]:
    """Text-attention pooling of the subgraphs of choices `rows` of a (C, d)
    text matrix: returns the (C, d) graph features, zero on every other row,
    and the (S, N) attention weights, 0 on padding. Subgraph i is pooled
    against text row rows[i] as the softmax(text . node_k) weighted sum of the
    last GCN layer's node outputs A_norm @ H @ W.

    The node outputs are never built. The scores are A_norm @ (H @ u) with
    u = W @ text, and the pooled vector is ((weights @ A_norm) @ H) @ W:
    products of one row per subgraph, not of the (S*N, k) node stack. The
    pool is one tape node. Its pullback runs the products a tape of those
    steps would, except that the two outer products of a column and a row
    are broadcasts; each gradient it sums has two terms."""
    if hidden.data.ndim != 3 or hidden.shape[0] == 0:
        raise ValueError("graph_attention_pool: need a non-empty (S, N, k) stack")
    s, n, k = hidden.shape
    if last_layer.data.ndim != 2 or last_layer.shape[0] != k:
        raise ValueError(f"graph_attention_pool: last layer {last_layer.shape} does not take width {k}")
    d = last_layer.shape[1]
    if adjacency.shape != (s, n, n):
        raise ValueError(f"graph_attention_pool: adjacency {adjacency.shape} does not match ({s}, {n}, {n})")
    if text.data.ndim != 2 or text.shape[1] != d:
        raise ValueError(f"graph_attention_pool: text {text.shape} is not (C, {d})")
    rows = np.asarray(rows, dtype=np.intp)
    if rows.shape != (s,) or rows[0] < 0 or rows[-1] >= text.shape[0] or np.any(rows[1:] <= rows[:-1]):
        raise ValueError(f"graph_attention_pool: need {s} increasing text rows below {text.shape[0]}")
    if mask.shape != (s, n) or not mask.any(axis=1).all():
        raise ValueError(f"graph_attention_pool: need a ({s}, {n}) mask with a real node in every row")
    w, nodes, t = last_layer.data, hidden.data, text.data[rows]
    u = (t @ w.T).reshape(s, k, 1)
    scores = (adjacency @ (nodes @ u)).reshape(s, n)
    # padding scores -inf, so its softmax weight is exactly 0
    weights = ad.softmax_last(scores + np.where(mask, 0.0, -np.inf))
    weighted = weights.reshape(s, 1, n) @ adjacency
    mixed = weighted @ nodes
    out = np.zeros((text.shape[0], d))
    out[rows] = mixed.reshape(s, k) @ w

    def pullback(g: np.ndarray):
        # + 0.0 writes +0.0 for -0.0, as the scatter-add of a row gather does
        g_pooled = g[rows] + 0.0
        g_mixed = (g_pooled @ w.T).reshape(s, 1, k)
        g_weighted = g_mixed @ nodes.swapaxes(1, 2)
        g_scores = ad.softmax_last_pullback(weights, (g_weighted @ adjacency.swapaxes(1, 2)).reshape(s, n))
        g_projected = adjacency.swapaxes(1, 2) @ g_scores.reshape(s, n, 1)
        g_u = (nodes.swapaxes(1, 2) @ g_projected).reshape(s, k)
        g_text = None
        if text.requires_grad:
            g_text = np.zeros(text.shape)
            g_text[rows] = g_u @ w + 0.0
        g_nodes = weighted.swapaxes(1, 2) * g_mixed
        g_nodes += g_projected * u.swapaxes(1, 2)
        return g_text, g_nodes, mixed.reshape(s, k).T @ g_pooled + (t.T @ g_u).T

    return ad.record(out, (text, hidden, last_layer), pullback), weights


def er_attention(
    text_vecs: Tensor,
    params: ERAttentionParams,
    train: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Per text vector, the concat of attention-weighted projected entity and
    relation vectors: (C, d) -> (C, 2d). The tables are projected once.

    Entity weights are Gumbel-softmax samples at temperature 1 in train
    mode, softmax(scores + noise) (rng required; one row of noise per text
    vector, drawn in row order), and plain softmax at eval; relation weights
    are always plain softmax.

    ER attention is one tape node. It lists the text twice, once for each
    term of its gradient, entity scores first, and sums each projection's
    two terms itself, so backward adds the same terms in the same order as
    a tape of the steps above would."""
    if train and rng is None:
        raise ValueError("er_attention: train mode needs an rng")
    t = text_vecs.data
    entity_table, relation_table = params.entity_table.data, params.relation_table.data
    entity_proj, relation_proj = params.entity_proj, params.relation_proj
    entities = entity_table @ entity_proj.data
    entity_scores = t @ entities.T
    if train:
        entity_scores += ad.sample_gumbel(entity_scores.shape, rng)
    entity_weights = ad.softmax_last(entity_scores)
    relations = relation_table @ relation_proj.data
    relation_weights = ad.softmax_last(t @ relations.T)
    d = entities.shape[1]

    def side(weights, projected, g_vecs, table):
        """One side's (text term, projection gradient); the text term is
        None while the text is frozen."""
        g_scores = ad.softmax_last_pullback(weights, g_vecs @ projected.T)
        g_text = g_scores @ projected if text_vecs.requires_grad else None
        return g_text, table.T @ (weights.T @ g_vecs + (t.T @ g_scores).T)

    def pullback(g: np.ndarray):
        g_text_e, g_entity_proj = side(entity_weights, entities, g[:, :d], entity_table)
        g_text_r, g_relation_proj = side(relation_weights, relations, g[:, d:], relation_table)
        return g_text_e, g_text_r, g_entity_proj, g_relation_proj

    out = np.concatenate([entity_weights @ entities, relation_weights @ relations], axis=1)
    return ad.record(out, (text_vecs, text_vecs, entity_proj, relation_proj), pullback)
