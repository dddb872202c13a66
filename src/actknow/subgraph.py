"""Concept mention scanning and bounded question subgraphs.

Mentions are KG entity labels found in a token list: a walk of the graph's
label trie from each token finds every label occurrence, and where
occurrences overlap the longest wins, then the earliest; a scan returns
the mentioned entity ids in text order. A subgraph starts from the
mentioned entities (seeds), adds the first depth-limited DFS path between
each seed pair, then keeps every KG edge among the included nodes. A
subgraph keeps only the non-zeros of the degree-normalized adjacency the
graph encoder reads, as an edge list of O(nodes + edges) size that holds
each entry of the symmetric matrix once, its ids in the narrowest unsigned
type that holds them, and its paths are the graph's memoised tuples,
shared by every subgraph that selects them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .kg import KnowledgeGraph

# the longest seed-to-seed path, in edges, a question's subgraph searches for
MAX_PATH_LEN = 2


@dataclass(slots=True)
class Subgraph:
    """A question's entity ids, the upper triangle of A_norm = D^-1/2 (C+I)
    D^-1/2 as an edge list, C the 0/1 KG edges among the nodes and
    D = rowsum(C+I), and the selected paths. A_norm is symmetric, so each
    non-zero is stored once: row by row, each node's self-loop, then its
    neighbours with a larger local index. Ids take np.min_scalar_type of
    the largest id they can hold: n_entities - 1 for the nodes, n_nodes - 1
    for the edge list."""

    nodes: np.ndarray                     # (n,) entity ids, seeds first
    edge_index: np.ndarray                # (2, nnz) local (row, column), row <= column, of each stored non-zero
    edge_weight: np.ndarray               # (nnz,) float64 A_norm[row, column]
    # selected seed-to-seed paths: graph.path_memo's own tuples, not copies
    paths: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def identify_concepts(tokens: list[str], graph: KnowledgeGraph) -> list[int]:
    """Entity ids of the labels found in a token list, in text order.
    Longest labels first, non-overlapping, earliest occurrence wins within
    a length. Tokens hold no spaces, as retrieval.tokenize makes them."""
    if isinstance(tokens, str):
        raise TypeError("identify_concepts takes a token list, not a str")
    trie = graph.label_trie or _build_label_trie(graph)
    # (length, start, entity) of every label occurrence, in start order
    hits: list[tuple[int, int, int]] = []
    for start, token in enumerate(tokens):
        node = trie.get(token)
        end = start + 1
        while node is not None:
            entity = node.get(None)
            if entity is not None:
                hits.append((end - start, start, entity))
            node = node.get(tokens[end]) if end < len(tokens) else None
            end += 1
    if all(length == 1 for length, _, _ in hits):
        # one-token occurrences never overlap
        return [entity for _, _, entity in hits]
    used = [False] * len(tokens)
    found: list[tuple[int, int]] = []  # (start token, entity)
    for length, start, entity in sorted(hits, key=lambda hit: (-hit[0], hit[1])):
        if any(used[start : start + length]):
            continue
        used[start : start + length] = [True] * length
        found.append((start, entity))
    found.sort()
    return [entity for _, entity in found]


def _build_label_trie(graph: KnowledgeGraph) -> dict:
    """Fill graph.label_trie from the entity labels, whose tokens are
    separated by single spaces (kg.normalize_label)."""
    for label, entity in graph.entity_ids.items():
        node = graph.label_trie
        for token in label.split(" "):
            node = node.setdefault(token, {})
        node[None] = entity
    return graph.label_trie


def _dfs_path(graph: KnowledgeGraph, src: int, dst: int, max_len: int) -> list[int] | None:
    """First simple path src->dst with at most max_len edges, visiting
    neighbors in ascending id order."""
    path = [src]
    on_path = {src}

    def explore(node: int, budget: int) -> bool:
        if budget == 0:
            return False
        if budget == 1:
            # the last hop can only end at dst
            if dst in on_path or dst not in graph.adjacency[node]:
                return False
            path.append(dst)
            return True
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


def connect_concepts(
    graph: KnowledgeGraph,
    seeds: list[int],
    max_path_len: int = MAX_PATH_LEN,
    max_nodes: int = 50,
) -> Subgraph:
    """Build the subgraph for a set of seed entities.

    Seed pairs are processed in sorted order; a pair's path is added only if
    the node budget still fits, and construction stops once it does not.
    Seeds are always included, connected or not. A pair's path depends only
    on the graph, the pair and max_path_len, never on max_nodes, so it is
    searched once per graph and memoised in graph.path_memo. The edge list
    holds each non-zero of the symmetric A_norm once, at row <= column.
    """
    if max_path_len < 1:
        raise ConfigError(f"max_path_len must be >= 1, got {max_path_len}")
    seed_list = sorted(set(seeds))
    for s in seed_list:
        if not 0 <= s < graph.n_entities:
            raise KeyError(f"seed entity id {s} out of range")
    if max_nodes < len(seed_list):
        raise ConfigError(f"max_nodes={max_nodes} is below the {len(seed_list)} seeds")

    nodes: list[int] = list(seed_list)
    node_set = set(nodes)
    paths: list[tuple[int, ...]] = []
    for a, b in itertools.combinations(seed_list, 2):
        if len(nodes) >= max_nodes:
            break
        key = (a, b, max_path_len)
        if key not in graph.path_memo:
            found = _dfs_path(graph, a, b, max_path_len)
            graph.path_memo[key] = None if found is None else tuple(found)
        path = graph.path_memo[key]
        if path is None:
            continue
        new = [p for p in path if p not in node_set]
        if len(nodes) + len(new) > max_nodes:
            break
        for p in new:
            nodes.append(p)
            node_set.add(p)
        paths.append(path)

    # each node's self-loop, then its neighbours among nodes with a larger
    # local index: C is 0/1 and symmetric because every neighbour list holds
    # each partner's id once, with a zero diagonal because
    # graph_from_triples drops self-loops, so this is its upper triangle. A
    # value is the product D^-1/2 (C+I) D^-1/2 takes there, and
    # inv_sqrt[i] * inv_sqrt[j] has the bits of inv_sqrt[j] * inv_sqrt[i],
    # so the mirrored entry has them too
    index = {e: i for i, e in enumerate(nodes)}
    local: list[int] = []
    counts: list[int] = []
    degrees = [1] * len(nodes)
    for i, e in enumerate(nodes):
        start = len(local)
        local.append(i)
        for nb in graph.adjacency[e]:
            j = index.get(nb)
            if j is not None:
                degrees[i] += 1
                if j > i:
                    local.append(j)
        counts.append(len(local) - start)
    width = np.min_scalar_type(len(nodes) - 1)
    edge_index = np.stack([np.repeat(np.arange(len(nodes), dtype=width), counts), np.array(local, dtype=width)])
    inv_sqrt = 1.0 / np.sqrt(np.array(degrees, dtype=np.float64))
    rows, cols = edge_index
    return Subgraph(nodes=np.array(nodes, dtype=np.min_scalar_type(graph.n_entities - 1)), edge_index=edge_index,
                    edge_weight=inv_sqrt[rows] * inv_sqrt[cols], paths=paths)
