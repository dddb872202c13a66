"""Text, graph, and entity/relation encoders built on the autodiff tensors.

Three per-choice representations feed the classifier:
  text_vec       relu(P @ mean(token embeddings) + bias), dim d
  graph_vec      text-attention pooling over GCN node outputs, dim d
  knowledge_vec  concat of attention-pooled projected entity and relation
                 tables, dim 2d; entity attention uses Gumbel softmax while
                 training and plain softmax at eval time
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .kg import EmbeddingTable
from .retrieval import tokenize
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

    def lookup(self, token: str) -> int:
        return self.ids.get(token, UNK_ID)


def build_vocab(texts: list[str]) -> Vocab:
    """Sorted-unique token vocabulary with reserved unknown and separator ids."""
    seen: set[str] = set()
    for text in texts:
        seen.update(tokenize(text))
    tokens = list(_RESERVED) + sorted(seen)
    return Vocab(tokens=tokens, ids={t: i for i, t in enumerate(tokens)})


def encode_pair_tokens(vocab: Vocab, premise: str, hypothesis: str) -> np.ndarray:
    """Token id sequence `premise [SEP] hypothesis`. The premise may be empty
    (the sequence then starts at the separator); the hypothesis may not."""
    hyp = [vocab.lookup(t) for t in tokenize(hypothesis)]
    if not hyp:
        raise ValueError("hypothesis must be non-empty")
    prem = [vocab.lookup(t) for t in tokenize(premise)]
    return np.array(prem + [SEP_ID] + hyp, dtype=np.int64)


# ---------------------------------------------------------------------------
# parameter groups


@dataclass
class TextEncoderParams:
    token_embedding: Tensor  # (V, d)
    projection: Tensor       # (d, d)
    bias: Tensor             # (d,)


@dataclass
class GCNParams:
    layers: list[Tensor]     # weight per layer, chained dims
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
        token_embedding=Tensor(rng.normal(0.0, 0.1, size=(vocab_size, dim)), requires_grad=True),
        projection=Tensor(_xavier(rng, dim, dim), requires_grad=True),
        bias=Tensor(np.zeros(dim), requires_grad=True),
    )


def init_gcn_params(dims: list[int], node_features: EmbeddingTable, rng: np.random.Generator) -> GCNParams:
    if len(dims) < 2:
        raise ConfigError("gcn needs at least one layer (two dims)")
    if dims[0] != node_features.dim:
        raise ConfigError(f"gcn input dim {dims[0]} does not match node features ({node_features.dim})")
    layers = [Tensor(_xavier(rng, dims[i], dims[i + 1]), requires_grad=True) for i in range(len(dims) - 1)]
    return GCNParams(layers=layers, node_features=Tensor(node_features.vectors))


def init_er_params(
    entities: EmbeddingTable, relations: EmbeddingTable, dim: int, rng: np.random.Generator
) -> ERAttentionParams:
    return ERAttentionParams(
        entity_table=Tensor(entities.vectors),
        relation_table=Tensor(relations.vectors),
        entity_proj=Tensor(_xavier(rng, entities.dim, dim), requires_grad=True),
        relation_proj=Tensor(_xavier(rng, relations.dim, dim), requires_grad=True),
    )


# ---------------------------------------------------------------------------
# forward passes


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
