"""Mention scanning, bounded subgraph construction, adjacency normalization."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actknow.errors import ConfigError
from actknow.kg import graph_from_triples, load_triples
from actknow.nli import convert, load_qa_jsonl
from actknow.retrieval import build_index, load_corpus, tokenize
from actknow.subgraph import _dfs_path, connect_concepts, identify_concepts, normalize_adjacency

import _oracles
from _oracles import all_simple_paths, dense_normalize


def adjacency_dict(graph):
    return {e: list(graph.adjacency[e]) for e in range(graph.n_entities)}


def assert_edges(sub, n_edges):
    """The 0/1 edges C behind sub.norm_adjacency, its off-diagonal non-zeros,
    are n_edges undirected edges, symmetric, with a zero diagonal: that
    leaves only the self-loop on the normalized diagonal, 1/rowsum(C + I)."""
    support = (sub.norm_adjacency != 0.0).astype(float)
    np.fill_diagonal(support, 0.0)
    assert np.triu(support).sum() == n_edges
    assert np.array_equal(support, support.T)
    assert np.array_equal(sub.norm_adjacency, sub.norm_adjacency.T)
    diag = np.diag(sub.norm_adjacency)
    assert np.max(np.abs(diag - 1.0 / (support.sum(axis=1) + 1.0))) < 1e-12


def test_identify_concepts_finds_both_mentions(chain_graph):
    mentions = identify_concepts(tokenize("the a touched b today"), chain_graph)
    assert mentions == [chain_graph.entity_ids["a"], chain_graph.entity_ids["b"]]


def test_identify_concepts_prefers_longest_match():
    graph = graph_from_triples([("ice", "r", "water"), ("ice cream", "r", "milk")])
    assert identify_concepts(tokenize("ice cream melts"), graph) == [graph.entity_ids["ice cream"]]


def test_identify_concepts_no_overlap():
    graph = graph_from_triples([("ice cream", "r", "milk"), ("cream soda", "r", "sugar")])
    # "ice cream" claims tokens 0-1, leaving "soda" alone which is no entity
    assert identify_concepts(tokenize("ice cream soda"), graph) == [graph.entity_ids["ice cream"]]


def test_identify_concepts_lists_mentions_in_text_order():
    graph = graph_from_triples([("ice cream", "r", "milk"), ("salt", "r", "sea")])
    # the two-token label is found first, yet "salt" precedes it in the text
    mentions = identify_concepts(tokenize("salt on ice cream and more salt"), graph)
    assert mentions == [graph.entity_ids["salt"], graph.entity_ids["ice cream"], graph.entity_ids["salt"]]


def test_identify_concepts_empty_text(chain_graph):
    assert identify_concepts([], chain_graph) == []
    assert identify_concepts(tokenize("nothing known here"), chain_graph) == []


def test_identify_concepts_keeps_the_longest_overlapping_label():
    graph = graph_from_triples([("a b", "r", "b c d")])
    # a left-to-right greedy scan would keep "a b"; the longest label wins
    assert identify_concepts(["a", "b", "c", "d"], graph) == [graph.entity_ids["b c d"]]
    assert identify_concepts(["a", "b", "c", "d"], graph) == _oracles.identify_concepts(["a", "b", "c", "d"], graph)


def test_label_trie_is_built_by_the_first_scan_and_left_out_of_equality():
    graph = graph_from_triples([("ice cream", "r", "milk")])
    assert graph.label_trie == {}
    assert identify_concepts(["ice", "cream"], graph) == [graph.entity_ids["ice cream"]]
    assert graph.label_trie
    assert graph == graph_from_triples([("ice cream", "r", "milk")])


LABEL_TOKENS = st.sampled_from(["a", "b", "c"])


@settings(max_examples=300, deadline=None)
@given(
    labels=st.lists(st.lists(LABEL_TOKENS, min_size=1, max_size=4).map(" ".join), min_size=1, max_size=8,
                    unique=True),
    data=st.data(),
)
def test_identify_concepts_matches_the_ngram_scan(labels, data):
    """Multi-token labels of different lengths, written next to each other
    so that they overlap, among single tokens: the trie scan returns exactly
    the n-gram scan's ids."""
    others = labels[1:] or ["zz"]
    graph = graph_from_triples([(labels[0], "r", other) for other in others])
    pieces = data.draw(st.lists(st.sampled_from(labels).map(str.split) | LABEL_TOKENS.map(lambda t: [t]),
                                max_size=8))
    tokens = [token for piece in pieces for token in piece]
    assert identify_concepts(tokens, graph) == _oracles.identify_concepts(tokens, graph)


def test_identify_concepts_matches_the_ngram_scan_on_the_bundled_tasks(lowdata_dir, noisy_dir):
    for data_dir in (lowdata_dir, noisy_dir):
        graph = load_triples(os.path.join(data_dir, "kg.tsv"))
        corpus = load_corpus(os.path.join(data_dir, "corpus.txt"))
        texts = list(corpus.tokenized)
        for split in ("train", "dev", "test"):
            for item in load_qa_jsonl(os.path.join(data_dir, f"{split}.jsonl")):
                texts += [tokenize(item.stem), *(tokenize(c) for c in item.choices)]
        assert any(identify_concepts(t, graph) for t in texts)
        for t in texts:
            assert identify_concepts(t, graph) == _oracles.identify_concepts(t, graph)


@settings(max_examples=300, deadline=None)
@given(
    edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=24),
    src=st.integers(0, 7),
    dst=st.integers(0, 7),
    max_len=st.integers(0, 4),
)
def test_dfs_path_matches_the_neighbor_loop(edges, src, dst, max_len):
    """The last-hop membership test finds exactly the path the loop over
    every neighbor at every depth finds, src == dst included (no path)."""
    triples = [(f"e{h}", "r", f"e{t}") for h, t in edges if h != t] or [("e0", "r", "e1")]
    graph = graph_from_triples(triples)
    src, dst = src % graph.n_entities, dst % graph.n_entities
    got = _dfs_path(graph, src, dst, max_len)
    assert got == _oracles.dfs_path(graph, src, dst, max_len)
    if src == dst:
        assert got is None


def test_dfs_path_matches_the_neighbor_loop_on_the_noisy_graph(noisy_dir):
    graph = load_triples(os.path.join(noisy_dir, "kg.tsv"))
    pairs = {(a, b) for seeds in noisy_seed_sets(noisy_dir, graph) for a, b in zip(seeds, seeds[1:])}
    found = 0
    for a, b in sorted(pairs):
        for max_len in (2, 3):
            got = _dfs_path(graph, a, b, max_len)
            assert got == _oracles.dfs_path(graph, a, b, max_len)
            found += got is not None
    assert found


def test_chain_subgraph_nodes_and_edges(chain_graph):
    a = chain_graph.entity_ids["a"]
    c = chain_graph.entity_ids["c"]
    sub = connect_concepts(chain_graph, [a, c], max_path_len=2, max_nodes=10)
    labels = {chain_graph.entities[e] for e in sub.nodes}
    assert labels == {"a", "b", "c"}
    assert_edges(sub, 2)
    assert sub.paths == [(a, chain_graph.entity_ids["b"], c)]


def test_seeds_come_first_and_sorted(chain_graph):
    c = chain_graph.entity_ids["c"]
    a = chain_graph.entity_ids["a"]
    sub = connect_concepts(chain_graph, [c, a], max_path_len=2, max_nodes=10)
    assert sub.nodes[:2] == sorted([a, c])


def test_unreachable_seed_still_included():
    graph = graph_from_triples([("a", "r", "b"), ("x", "r", "y")])
    a, x = graph.entity_ids["a"], graph.entity_ids["x"]
    sub = connect_concepts(graph, [a, x], max_path_len=3, max_nodes=10)
    assert set(sub.nodes) == {a, x}
    assert sub.paths == []


def test_path_respects_max_len():
    graph = graph_from_triples([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d")])
    a, d = graph.entity_ids["a"], graph.entity_ids["d"]
    short = connect_concepts(graph, [a, d], max_path_len=2, max_nodes=10)
    assert short.paths == []
    long = connect_concepts(graph, [a, d], max_path_len=3, max_nodes=10)
    assert len(long.paths) == 1
    assert len(long.paths[0]) == 4


def test_budget_stops_path_growth():
    graph = graph_from_triples([("a", "r", "b"), ("b", "r", "c")])
    a, c = graph.entity_ids["a"], graph.entity_ids["c"]
    sub = connect_concepts(graph, [a, c], max_path_len=2, max_nodes=2)
    # the connecting path needs b, which does not fit
    assert set(sub.nodes) == {a, c}
    assert sub.paths == []


def test_budget_below_seed_count_rejected(chain_graph):
    ids = [chain_graph.entity_ids[x] for x in ("a", "b", "c")]
    with pytest.raises(ConfigError, match="below"):
        connect_concepts(chain_graph, ids, max_path_len=2, max_nodes=2)


def test_bad_path_len_rejected(chain_graph):
    with pytest.raises(ConfigError):
        connect_concepts(chain_graph, [0], max_path_len=0, max_nodes=5)


def test_unknown_seed_rejected(chain_graph):
    with pytest.raises(KeyError):
        connect_concepts(chain_graph, [99], max_path_len=2, max_nodes=5)


def test_duplicate_seeds_collapse(chain_graph):
    a = chain_graph.entity_ids["a"]
    sub = connect_concepts(chain_graph, [a, a, a], max_path_len=2, max_nodes=5)
    assert sub.nodes == [a]
    assert sub.norm_adjacency.shape == (1, 1)
    assert_edges(sub, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_paths_found_match_brute_force(graph_seed):
    """Every selected path is simple, within the hop bound, and present in the
    brute-force enumeration; no path is reported when none exists."""
    rng = np.random.default_rng(graph_seed)
    n = int(rng.integers(4, 10))
    triples = []
    for _ in range(int(rng.integers(n, 3 * n))):
        h, t = rng.integers(0, n, size=2)
        if h == t:
            continue
        triples.append((f"e{h}", f"r{int(rng.integers(0, 3))}", f"e{t}"))
    if not triples:
        triples = [("e0", "r0", "e1")]
    graph = graph_from_triples(triples)
    max_len = int(rng.integers(1, 4))
    seeds = sorted(rng.choice(graph.n_entities, size=2, replace=False).tolist())
    sub = connect_concepts(graph, seeds, max_path_len=max_len, max_nodes=50)
    adj = adjacency_dict(graph)
    expected = all_simple_paths(adj, seeds[0], seeds[1], max_len)
    if sub.paths:
        assert list(sub.paths[0]) in expected
        assert len(sub.paths[0]) - 1 <= max_len
        assert len(set(sub.paths[0])) == len(sub.paths[0])
    else:
        assert expected == []


def test_increasing_path_len_never_loses_connections():
    rng = np.random.default_rng(5)
    triples = [
        (f"e{int(h)}", "r0", f"e{int(t)}")
        for h, t in rng.integers(0, 8, size=(14, 2))
        if h != t
    ]
    graph = graph_from_triples(triples)
    seeds = [0, min(3, graph.n_entities - 1)]
    connected = []
    for max_len in (1, 2, 3, 4):
        sub = connect_concepts(graph, seeds, max_path_len=max_len, max_nodes=50)
        connected.append(bool(sub.paths))
    for shorter, longer in zip(connected, connected[1:]):
        assert longer or not shorter


def test_normalize_two_node_edge():
    out = normalize_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_normalize_three_node_path():
    c = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    out = normalize_adjacency(c)
    s = 1.0 / np.sqrt(2.0 * 3.0)
    expected = np.array([[0.5, s, 0.0], [s, 1.0 / 3.0, s], [0.0, s, 0.5]])
    assert np.max(np.abs(out - expected)) < 1e-12


def test_normalize_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        c = np.triu((rng.random((n, n)) < 0.4).astype(float), k=1)
        c = c + c.T
        out = normalize_adjacency(c)
        assert np.max(np.abs(out - dense_normalize(c))) < 1e-10


def test_normalize_row_sums_bounded():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        c = np.triu((rng.random((n, n)) < 0.5).astype(float), k=1)
        c = c + c.T
        sums = normalize_adjacency(c).sum(axis=1)
        assert np.all(sums > 0.0)
        assert np.all(sums <= np.sqrt(n) + 1e-12)


def test_normalize_symmetric_with_spectral_radius_at_most_one():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        c = np.triu((rng.random((n, n)) < 0.5).astype(float), k=1)
        c = c + c.T
        norm = normalize_adjacency(c)
        assert np.max(np.abs(norm - norm.T)) < 1e-12
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        for _ in range(200):
            nxt = norm @ v
            scale = np.linalg.norm(nxt)
            if scale == 0.0:
                break
            v = nxt / scale
        radius = abs(float(v @ norm @ v))
        assert radius <= 1.0 + 1e-12


def test_subgraph_keeps_all_internal_edges():
    triples = [("a", "r", "b"), ("b", "r", "c"), ("a", "s", "c"), ("c", "r", "d")]
    graph = graph_from_triples(triples)
    a, c = graph.entity_ids["a"], graph.entity_ids["c"]
    sub = connect_concepts(graph, [a, c], max_path_len=2, max_nodes=10)
    # d never enters, so its edge stays out; the other three connect included nodes
    assert_edges(sub, 3)


def noisy_seed_sets(data_dir, graph):
    """Sorted seed entities of every choice of the noisy task, as training prepares them."""
    corpus = load_corpus(os.path.join(data_dir, "corpus.txt"))
    index = build_index(corpus)
    seed_sets = []
    for split in ("train", "dev", "test"):
        for item in load_qa_jsonl(os.path.join(data_dir, f"{split}.jsonl")):
            for pair in convert(item, index, corpus, 5):
                mentions = identify_concepts(pair.premise, graph) + identify_concepts(pair.hypothesis, graph)
                if mentions:
                    seed_sets.append(sorted(set(mentions)))
    return seed_sets


def assert_same_subgraph(got, want):
    assert got.nodes == want.nodes
    assert np.array_equal(got.norm_adjacency, want.norm_adjacency)
    assert got.paths == want.paths


def test_path_memo_matches_a_fresh_graph_in_any_budget_order(noisy_dir):
    kg_path = os.path.join(noisy_dir, "kg.tsv")
    cold = load_triples(kg_path)
    seed_sets = noisy_seed_sets(noisy_dir, cold)
    budgets = (3, 20, 60)

    def build(graph, budget):
        return [connect_concepts(graph, seeds[:budget], 2, budget) for seeds in seed_sets]

    def build_cold(budget):
        out = []
        for seeds in seed_sets:
            cold.path_memo.clear()
            out.append(connect_concepts(cold, seeds[:budget], 2, budget))
        return out

    want = {budget: build_cold(budget) for budget in budgets}
    for order in (budgets, budgets[::-1]):
        warm = load_triples(kg_path)
        for budget in order:
            for got, expected in zip(build(warm, budget), want[budget]):
                assert_same_subgraph(got, expected)
        assert warm.path_memo
        assert warm == load_triples(kg_path)

    # every selected path is the memo's own tuple, shared rather than copied
    shared = 0
    for sub in build(warm, 60):
        for path in sub.paths:
            assert path is warm.path_memo[(path[0], path[-1], 2)]
            shared += 1
    assert shared


def test_unchecked_normalization_matches_the_checked_one(noisy_dir):
    """normalize_adjacency checks nothing; on every choice subgraph of the
    noisy task the 0/1 matrix of KG edges among its nodes is what it needs
    (non-empty, symmetric, 0/1, zero diagonal), and connect_concepts
    normalizes exactly that matrix."""
    graph = load_triples(os.path.join(noisy_dir, "kg.tsv"))
    for seeds in noisy_seed_sets(noisy_dir, graph):
        sub = connect_concepts(graph, seeds[:60], 2, 60)
        index = {e: i for i, e in enumerate(sub.nodes)}
        rebuilt = np.zeros((sub.n_nodes, sub.n_nodes))
        for e in sub.nodes:
            for nb in graph.adjacency[e]:
                if nb in index:
                    rebuilt[index[e], index[nb]] = 1.0
        assert sub.n_nodes > 0
        assert np.array_equal(rebuilt, rebuilt.T)
        assert np.all((rebuilt == 0.0) | (rebuilt == 1.0))
        assert not np.any(np.diag(rebuilt))
        assert np.array_equal(sub.norm_adjacency, normalize_adjacency(rebuilt))


def test_path_memo_keys_on_path_length():
    graph = graph_from_triples([("a", "r", "b"), ("b", "r", "c")])
    a, c = graph.entity_ids["a"], graph.entity_ids["c"]
    assert connect_concepts(graph, [a, c], max_path_len=2).paths == [(a, graph.entity_ids["b"], c)]
    assert connect_concepts(graph, [a, c], max_path_len=1).paths == []
    assert graph.path_memo == {(a, c, 2): (a, graph.entity_ids["b"], c), (a, c, 1): None}
