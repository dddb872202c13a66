"""Knowledge-graph triple store and bilinear embedding training.

Triples load from tab-separated files (head, relation, tail per line).
Entity labels are normalized to the tokens free text is split into
(retrieval.tokenize, underscores read as spaces), joined by single spaces,
so a mention in text matches its label token by token.
The typed facts live in `triples`; `adjacency` keeps only each entity's
neighbor ids, which is all subgraph search reads, and `label_trie`, built by
the first mention scan, holds the labels token by token.

Embedding training draws each epoch's corruptions in one call before its
SGD loop, so the loop does only row arithmetic; the tables are
bit-identical to drawing two scalars per triple.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .retrieval import tokenize
from .textfile import read_lines

log = logging.getLogger(__name__)


def normalize_label(raw: str) -> str:
    return " ".join(tokenize(raw.replace("_", " ")))


@dataclass(frozen=True)
class Triple:
    head: int
    relation: int
    tail: int


@dataclass
class KnowledgeGraph:
    entities: list[str]
    relations: list[str]
    triples: list[Triple]
    entity_ids: dict[str, int] = field(repr=False)
    # per entity: the distinct entities sharing a triple with it, ascending ids
    adjacency: list[tuple[int, ...]] = field(repr=False)
    # token trie of the entity labels, filled on the first
    # subgraph.identify_concepts scan: token -> child node, and None -> the
    # entity whose label ends at that node
    label_trie: dict = field(default_factory=dict, repr=False, compare=False)
    # (src, dst, max_len) -> first DFS path or None, filled by subgraph.connect_concepts
    path_memo: dict[tuple[int, int, int], tuple[int, ...] | None] = field(
        default_factory=dict, repr=False, compare=False
    )
    # (dim, epochs, seed) -> read-only (entity, relation) tables,
    # filled by train_kg_embeddings
    embedding_memo: dict[tuple, tuple[EmbeddingTable, EmbeddingTable]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)


def graph_from_triples(raw_triples: list[tuple[str, str, str]], sources: list[str] | None = None) -> KnowledgeGraph:
    """Build a graph from (head, relation, tail) label strings. An empty
    relation, or an entity label with no word token, is a ConfigError naming
    sources[i] for the i-th triple (load_triples passes path:line), or the
    triple itself without sources."""
    entities: list[str] = []
    relations: list[str] = []
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    triples: list[Triple] = []
    seen: set[tuple[int, int, int]] = set()
    skipped_self = 0

    def ent_id(label: str) -> int:
        if label not in entity_ids:
            entity_ids[label] = len(entities)
            entities.append(label)
        return entity_ids[label]

    def rel_id(label: str) -> int:
        if label not in relation_ids:
            relation_ids[label] = len(relations)
            relations.append(label)
        return relation_ids[label]

    for i, (head_raw, rel_raw, tail_raw) in enumerate(raw_triples):
        head, rel, tail = normalize_label(head_raw), rel_raw.strip(), normalize_label(tail_raw)
        if not (head and rel and tail):
            where = sources[i] if sources else repr((head_raw, rel_raw, tail_raw))
            if not rel:
                raise ConfigError(f"{where}: empty relation")
            raise ConfigError(f"{where}: entity label {tail_raw if head else head_raw!r} has no word token")
        if head == tail:
            # the entity stays in the vocabulary, just without the loop edge
            ent_id(head)
            rel_id(rel)
            skipped_self += 1
            continue
        key = (ent_id(head), rel_id(rel), ent_id(tail))
        if key in seen:
            continue
        seen.add(key)
        triples.append(Triple(*key))

    if not triples:
        raise ConfigError("no usable triples")
    if skipped_self:
        log.info("skipped %d self-loop triples", skipped_self)
    partners: list[set[int]] = [set() for _ in entities]
    for t in triples:
        partners[t.head].add(t.tail)
        partners[t.tail].add(t.head)
    return KnowledgeGraph(
        entities=entities,
        relations=relations,
        triples=triples,
        entity_ids=entity_ids,
        adjacency=[tuple(sorted(p)) for p in partners],
    )


def load_triples(path: str) -> KnowledgeGraph:
    """Load a graph from a TSV file of head<TAB>relation<TAB>tail lines."""
    raw: list[tuple[str, str, str]] = []
    sources: list[str] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ConfigError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        if any(not p.strip() for p in parts):
            raise ConfigError(f"{path}:{lineno}: empty field in triple")
        raw.append((parts[0], parts[1], parts[2]))
        sources.append(f"{path}:{lineno}")
    if not raw:
        raise ConfigError(f"{path}: no triples found")
    graph = graph_from_triples(raw, sources)
    log.info(
        "loaded %s: %d entities, %d relations, %d triples",
        path, graph.n_entities, graph.n_relations, len(graph.triples),
    )
    return graph


# ---------------------------------------------------------------------------
# embeddings


@dataclass
class EmbeddingTable:
    dim: int
    vectors: np.ndarray  # (n_items, dim) float64


# the SGD step and the margin of KG embedding training, and the width and
# epochs of the tables a model's ER attention reads (pipeline.build_model)
KG_LR = 0.05
KG_MARGIN = 1.0
KG_DIM = 32
KG_EPOCHS = 20


def train_kg_embeddings(
    graph: KnowledgeGraph, dim: int, epochs: int, seed: int
) -> tuple[EmbeddingTable, EmbeddingTable]:
    """Train entity/relation tables with a margin loss against uniformly
    sampled corruptions. epochs=0 returns the seeded random init unchanged.

    Each epoch draws its triple order, then every corruption coin and
    replacement entity in one `integers` call, the same stream as two scalar
    draws per triple. The SGD step keeps the per-triple loop's operands and
    order, so the tables are bit-identical to it (tests/_oracles.py holds
    that loop).

    The tables are trained once per graph and argument set: later calls
    return the same tables, whose arrays are read-only."""
    if dim < 2:
        raise ConfigError(f"embedding dim must be >= 2, got {dim}")
    if epochs < 0:
        raise ConfigError("epochs must be >= 0")
    key = (dim, epochs, seed)
    if key in graph.embedding_memo:
        return graph.embedding_memo[key]
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    ent = rng.normal(0.0, scale, size=(graph.n_entities, dim))
    rel = rng.normal(0.0, scale, size=(graph.n_relations, dim))

    n_ent = graph.n_entities
    n_triples = len(graph.triples)
    heads = np.array([t.head for t in graph.triples], dtype=np.int64)
    rels = np.array([t.relation for t in graph.triples], dtype=np.int64)
    tails = np.array([t.tail for t in graph.triples], dtype=np.int64)
    # one draw of (coin, replacement) pairs, the same stream as two scalar
    # draws per triple (tests/test_kg.py checks numpy keeps it so)
    highs = np.tile([2, n_ent], n_triples)
    add = np.add.reduce
    # row views and a 0-d step: cheaper to index and to multiply by than
    # ent[i] and a Python float, with the same products
    ent_rows, rel_rows = list(ent), list(rel)
    step = np.asarray(KG_LR, dtype=np.float64)
    for _ in range(epochs):
        order = rng.permutation(n_triples)
        draws = rng.integers(0, highs)
        corrupt_head = draws[0::2] == 1
        repl = draws[1::2]
        h, r_ids, t = heads[order], rels[order], tails[order]
        # a replacement equal to the entity it replaces moves to the next id
        repl = np.where(repl == np.where(corrupt_head, h, t), (repl + 1) % n_ent, repl)
        nh = np.where(corrupt_head, repl, h)
        nt = np.where(corrupt_head, t, repl)

        for hi, ri, ti, nhi, nti in zip(h.tolist(), r_ids.tolist(), t.tolist(), nh.tolist(), nt.tolist()):
            # views: a tail corruption makes nhi == hi, so the writes below
            # must go through in this order
            e_h, e_t, e_nh, e_nt, r = ent_rows[hi], ent_rows[ti], ent_rows[nhi], ent_rows[nti], rel_rows[ri]
            e_h_r = e_h * r
            e_nh_r = e_nh * r
            pos = add(e_h_r * e_t)
            neg = add(e_nh_r * e_nt)
            if KG_MARGIN - pos + neg <= 0:
                continue
            # ascend the positive score, descend the negative one; every
            # gradient is taken before the first write, and the tails'
            # gradients r * e_h and r * e_nh are e_h_r and e_nh_r
            gh = r * e_t
            gr_pos = e_h * e_t
            gnh = r * e_nt
            gr_neg = e_nh * e_nt
            e_h += step * gh
            e_t += step * e_h_r
            e_nh -= step * gnh
            e_nt -= step * e_nh_r
            r += step * (gr_pos - gr_neg)

    if not (np.all(np.isfinite(ent)) and np.all(np.isfinite(rel))):
        raise FloatingPointError("embedding training produced non-finite values")
    ent.flags.writeable = False
    rel.flags.writeable = False
    graph.embedding_memo[key] = (EmbeddingTable(dim, ent), EmbeddingTable(dim, rel))
    return graph.embedding_memo[key]


# ---------------------------------------------------------------------------
# node features for the graph encoder


def random_node_features(graph: KnowledgeGraph, dim: int, seed: int) -> EmbeddingTable:
    """Seeded random per-entity feature table (pretrained-embedding stand-in)."""
    if dim < 1:
        raise ConfigError(f"node feature dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    return EmbeddingTable(dim, rng.normal(0.0, 1.0, size=(graph.n_entities, dim)))


def load_text_embeddings(path: str) -> tuple[dict[str, np.ndarray], int]:
    """Read a `token v1 v2 ... vd` text embedding file, keyed by normalized
    label. A label with no word token, or one that normalizes to an earlier
    line's label, is a ConfigError naming the line."""
    table: dict[str, np.ndarray] = {}
    first_line: dict[str, int] = {}
    dim: int | None = None
    for lineno, line in enumerate(read_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 2:
            raise ConfigError(f"{path}:{lineno}: expected token followed by values")
        try:
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad embedding value") from exc
        if not np.isfinite(vec).all():
            raise ConfigError(f"{path}:{lineno}: non-finite value")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise ConfigError(f"{path}:{lineno}: dimension mismatch ({vec.size} vs {dim})")
        label = normalize_label(parts[0])
        if not label:
            raise ConfigError(f"{path}:{lineno}: label {parts[0]!r} has no word token")
        if label in first_line:
            raise ConfigError(
                f"{path}:{lineno}: label {parts[0]!r} repeats {label!r}, first on line {first_line[label]}"
            )
        first_line[label] = lineno
        table[label] = vec
    if dim is None:
        raise ConfigError(f"{path}: empty embedding file")
    return table, dim


def node_feature_table(
    graph: KnowledgeGraph,
    dim: int,
    seed: int,
    embeddings_path: str | None = None,
) -> EmbeddingTable:
    """Per-entity feature table: seeded random rows, overridden per entity by
    a text embedding file when one is given (matched on normalized label)."""
    base = random_node_features(graph, dim, seed)
    if embeddings_path is None:
        return base
    table, file_dim = load_text_embeddings(embeddings_path)
    if file_dim != dim:
        raise ConfigError(
            f"{embeddings_path}: embedding dim {file_dim} does not match node dim {dim}"
        )
    hits = 0
    for label, idx in graph.entity_ids.items():
        vec = table.get(label)
        if vec is not None:
            base.vectors[idx] = vec
            hits += 1
    log.info("node features: %d/%d entities overridden from %s", hits, graph.n_entities, embeddings_path)
    return base
