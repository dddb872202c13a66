"""Concept mention scanning and bounded question subgraphs.

Mentions are KG entity labels found in a token list: a walk of the graph's
label trie from each token finds every label occurrence, and where
occurrences overlap the longest wins, then the earliest; a scan returns
the mentioned entity ids in text order. A subgraph starts from the
mentioned entities (seeds), adds the first depth-limited DFS path between
each seed pair, then keeps every KG edge among the included nodes. A
subgraph keeps only the degree-normalized adjacency the graph encoder
reads, and its paths are the graph's memoised tuples, shared by every
subgraph that selects them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .kg import KnowledgeGraph


@dataclass
class Subgraph:
    nodes: list[int]                      # entity ids, seeds first
    norm_adjacency: np.ndarray            # D^-1/2 (C+I) D^-1/2, C the 0/1 KG edges among nodes
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
    max_path_len: int = 2,
    max_nodes: int = 50,
) -> Subgraph:
    """Build the subgraph for a set of seed entities.

    Seed pairs are processed in sorted order; a pair's path is added only if
    the node budget still fits, and construction stops once it does not.
    Seeds are always included, connected or not. A pair's path depends only
    on the graph, the pair and max_path_len, never on max_nodes, so it is
    searched once per graph and memoised in graph.path_memo.
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

    index = {e: i for i, e in enumerate(nodes)}
    n = len(nodes)
    adjacency = np.zeros((n, n))
    for i, e in enumerate(nodes):
        for nb in graph.adjacency[e]:
            j = index.get(nb)
            if j is not None:
                adjacency[i, j] = 1.0

    # symmetric because every neighbor list holds its partner's id, 0/1 as
    # built above, with a zero diagonal because graph_from_triples drops
    # self-loops: what normalize_adjacency needs
    norm = normalize_adjacency(adjacency)
    return Subgraph(nodes=nodes, norm_adjacency=norm, paths=paths)


def normalize_adjacency(c: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization with self-loops:
    D^-1/2 (C + I) D^-1/2 where D = rowsum(C + I). C must be a float64
    symmetric 0/1 matrix with a zero diagonal; nothing checks it."""
    with_self = c + np.eye(c.shape[0])
    degrees = with_self.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    return with_self * np.outer(inv_sqrt, inv_sqrt)
