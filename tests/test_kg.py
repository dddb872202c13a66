import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from actknow import kg
from actknow.errors import ConfigError
from actknow.kg import (
    graph_from_triples,
    load_triples,
    normalize_label,
    train_kg_embeddings,
)
from actknow.scenarios import lowdata_experiment, noisy_experiment
from actknow.subgraph import connect_concepts


def write_kg(tmp_path, lines):
    path = tmp_path / "kg.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_load_counts(tmp_path):
    path = write_kg(tmp_path, ["goat\tIsA\tanimal", "grass\tRelatedTo\tplant"])
    graph = load_triples(path)
    assert graph.n_entities == 4
    assert graph.n_relations == 2
    assert len(graph.triples) == 2


def test_duplicate_lines_stored_once(tmp_path):
    path = write_kg(tmp_path, ["goat\tIsA\tanimal", "goat\tIsA\tanimal"])
    graph = load_triples(path)
    assert len(graph.triples) == 1


def test_malformed_line_reports_number(tmp_path):
    path = write_kg(tmp_path, ["goat IsA animal"])
    with pytest.raises(ConfigError, match=r":1:"):
        load_triples(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_triples(str(path))


def test_label_normalization():
    assert normalize_label("  Ice_Cream  ") == "ice cream"
    assert normalize_label("a\t b") == "a b"
    # the tokens retrieval.tokenize splits text into
    assert normalize_label("T-Shirt") == "t shirt"
    assert normalize_label("Mother's_Day!") == "mother s day"
    assert normalize_label(" -- ") == ""


@pytest.mark.parametrize("head, tail", [("--", "animal"), ("goat", "_._")])
def test_a_label_without_a_word_token_names_its_line(head, tail, tmp_path):
    path = write_kg(tmp_path, ["goat\tIsA\tanimal", f"{head}\tIsA\t{tail}"])
    label = re.escape(tail if head == "goat" else head)
    with pytest.raises(ConfigError, match=rf"kg\.tsv:2: entity label '{label}' has no word token"):
        load_triples(path)


def test_triple_links_both_ends():
    graph = graph_from_triples([("a", "r", "b")])
    b = graph.entity_ids["b"]
    a = graph.entity_ids["a"]
    assert graph.adjacency[a] == (b,)
    assert graph.adjacency[b] == (a,)


def test_isolated_node_empty_neighbors():
    graph = graph_from_triples([("a", "r", "b"), ("c", "r", "c")])
    # self-loop on c is dropped, leaving it isolated
    c = graph.entity_ids["c"]
    assert graph.adjacency[c] == ()


def test_neighbors_sorted_by_id():
    graph = graph_from_triples([("x", "r", "c"), ("x", "r", "a"), ("x", "s", "b")])
    x = graph.entity_ids["x"]
    out = graph.adjacency[x]
    assert len(out) == 3
    assert all(u < v for u, v in zip(out, out[1:]))


def test_pair_joined_by_several_triples_is_one_neighbor():
    """Several triples on one pair, either way round, are one neighbor for
    subgraph search, while every triple stays for embedding training."""
    raw = [("a", "r", "b"), ("b", "r", "a"), ("a", "s", "b"), ("b", "r", "c")]
    graph = graph_from_triples(raw)
    assert len(graph.triples) == 4
    a, b, c = (graph.entity_ids[x] for x in "abc")
    assert graph.adjacency[a] == (b,)

    single = graph_from_triples([("a", "r", "b"), ("b", "r", "c")])
    assert [single.entity_ids[x] for x in "abc"] == [a, b, c]
    got = connect_concepts(graph, [a, c])
    want = connect_concepts(single, [a, c])
    assert got.nodes == want.nodes
    assert got.paths == want.paths
    assert np.array_equal(_oracles.dense_adjacency(got), _oracles.dense_adjacency(want))


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 2), st.integers(0, 6)),
    min_size=1, max_size=20,
))
def test_every_triple_visible_from_both_ends(raw):
    named = [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in raw if h != t]
    if not named:
        return
    graph = graph_from_triples(named)
    partners = [set() for _ in range(graph.n_entities)]
    for triple in graph.triples:
        partners[triple.head].add(triple.tail)
        partners[triple.tail].add(triple.head)
    assert graph.adjacency == [tuple(sorted(p)) for p in partners]


def triple_score(ent: np.ndarray, rel: np.ndarray, triple) -> float:
    """Bilinear-diagonal score: sum_k e_h[k] * r[k] * e_t[k]."""
    return float(np.sum(ent[triple.head] * rel[triple.relation] * ent[triple.tail]))


def test_embedding_margin_positive():
    graph = graph_from_triples([("a", "r", "b")])
    ent, rel = train_kg_embeddings(graph, dim=4, epochs=50, seed=0)
    rng = np.random.default_rng(0)
    margins = []
    for triple in graph.triples:
        true = triple_score(ent.vectors, rel.vectors, triple)
        for _ in range(20):
            corrupt = type(triple)(
                head=int(rng.integers(0, graph.n_entities)),
                relation=triple.relation,
                tail=int(rng.integers(0, graph.n_entities)),
            )
            if corrupt != triple:
                margins.append(true - triple_score(ent.vectors, rel.vectors, corrupt))
    assert np.mean(margins) > 0


def test_zero_epochs_returns_seeded_init():
    triples = [("a", "r", "b"), ("b", "r", "c")]
    # two graphs, so the second call trains rather than reads the first's memo
    first = train_kg_embeddings(graph_from_triples(triples), dim=4, epochs=0, seed=3)
    second = train_kg_embeddings(graph_from_triples(triples), dim=4, epochs=0, seed=3)
    assert np.array_equal(first[0].vectors, second[0].vectors)
    assert np.array_equal(first[1].vectors, second[1].vectors)


def test_embedding_determinism_and_finiteness():
    triples = [("a", "r", "b"), ("b", "s", "c"), ("c", "r", "a")]
    one = train_kg_embeddings(graph_from_triples(triples), dim=6, epochs=30, seed=11)
    two = train_kg_embeddings(graph_from_triples(triples), dim=6, epochs=30, seed=11)
    assert np.array_equal(one[0].vectors, two[0].vectors)
    assert np.array_equal(one[1].vectors, two[1].vectors)
    assert np.all(np.isfinite(one[0].vectors))
    assert np.all(np.isfinite(one[1].vectors))


def test_embedding_dim_validation():
    graph = graph_from_triples([("a", "r", "b")])
    with pytest.raises(ConfigError):
        train_kg_embeddings(graph, dim=1, epochs=1, seed=0)


def test_tables_are_trained_once_per_graph_and_arguments():
    triples = [("a", "r", "b"), ("b", "s", "c"), ("c", "r", "a")]
    graph = graph_from_triples(triples)
    first = train_kg_embeddings(graph, dim=4, epochs=5, seed=1)
    assert train_kg_embeddings(graph, dim=4, epochs=5, seed=1) is first
    others = [
        train_kg_embeddings(graph, dim=4, epochs=5, seed=2),
        train_kg_embeddings(graph, dim=6, epochs=5, seed=1),
        train_kg_embeddings(graph, dim=4, epochs=6, seed=1),
    ]
    assert set(graph.embedding_memo) == {(4, 5, 1), (4, 5, 2), (6, 5, 1), (4, 6, 1)}
    assert all(other is not first for other in others)
    assert not np.array_equal(others[0][0].vectors, first[0].vectors)
    # another graph with the same triples trains its own, equal, tables
    fresh = train_kg_embeddings(graph_from_triples(triples), dim=4, epochs=5, seed=1)
    assert fresh is not first and np.array_equal(fresh[0].vectors, first[0].vectors)


def test_returned_tables_are_read_only():
    graph = graph_from_triples([("a", "r", "b"), ("b", "s", "c")])
    ent, rel = train_kg_embeddings(graph, dim=4, epochs=3, seed=0)
    for table in (ent, rel):
        with pytest.raises(ValueError):
            table.vectors[0, 0] = 1.0
        with pytest.raises(ValueError):
            table.vectors += 1.0


def test_one_array_draw_is_the_stream_of_alternating_scalar_draws():
    """train_kg_embeddings draws an epoch's corruption coins and replacement
    entities in one call; its tables equal the per-triple loop's only while
    numpy keeps this stream, and the state after it, equal."""
    for n in (2, 200, 2**31 - 1, 2**32 + 5):
        for seed in range(3):
            for m in (1, 7, 140):
                batched = np.random.default_rng(seed)
                scalar = np.random.default_rng(seed)
                drawn = batched.integers(0, np.tile([2, n], m))
                expected = []
                for _ in range(m):
                    expected.append(int(scalar.integers(0, 2)))
                    expected.append(int(scalar.integers(0, n)))
                assert drawn.tolist() == expected, (n, seed, m)
                assert batched.integers(0, n) == scalar.integers(0, n), (n, seed, m)


def assert_matches_per_triple_loop(graph, dim, epochs, seed, lr=0.05, margin=1.0):
    """The package's tables, trained with kg.KG_LR and kg.KG_MARGIN set to
    lr and margin (by default their values), equal the per-triple loop's.
    Where that loop overflows (a large step and margin can), the package
    raises instead."""
    with np.errstate(over="ignore", invalid="ignore"):
        want_ent, want_rel = _oracles.train_kg_embeddings(graph, dim, epochs, seed, lr=lr, margin=margin)
    with mock.patch.object(kg, "KG_LR", lr), mock.patch.object(kg, "KG_MARGIN", margin):
        if not (np.all(np.isfinite(want_ent)) and np.all(np.isfinite(want_rel))):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError):
                train_kg_embeddings(graph, dim, epochs, seed)
            return
        ent, rel = train_kg_embeddings(graph, dim, epochs, seed)
    assert np.array_equal(ent.vectors, want_ent)
    assert np.array_equal(rel.vectors, want_rel)


@pytest.mark.parametrize(
    "data_dir, experiment",
    [("lowdata_dir", lowdata_experiment), ("noisy_dir", noisy_experiment)],
)
def test_bundled_graphs_train_the_per_triple_tables(data_dir, experiment, request, tmp_path):
    cfg = experiment(request.getfixturevalue(data_dir), str(tmp_path))
    graph = load_triples(cfg.kg)
    for seed in range(5):
        assert_matches_per_triple_loop(graph, cfg.kg_dim, cfg.kg_epochs, seed)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, 2), st.integers(0, n - 1)),
            min_size=1, max_size=15,
        ),
    )),
    st.sampled_from([2, 5, 32]),
    st.sampled_from([0, 1, 3]),
    st.sampled_from([0.01, 0.05, 0.5]),
    st.sampled_from([0.0, 1.0, 4.0]),
    st.integers(0, 2**32 - 1),
)
# a graph whose tables overflow at this step and margin, in the loop and the package alike
@example((11, [(0, 0, 2), (0, 1, 1), (0, 2, 2), (1, 0, 0), (2, 0, 0)]), 2, 3, 0.5, 4.0, 434)
def test_small_graphs_train_the_per_triple_tables(entities_and_triples, dim, epochs, lr, margin, seed):
    """Random small graphs, every setting of the step. With 2 entities each
    corruption lands on the other entity, half of them by the clash wrap.
    Some settings overflow, and must raise as the loop's tables overflow."""
    n_entities, raw = entities_and_triples
    # every entity appears in the graph, with loops dropped as load_triples does
    named = [(f"e{i}", "r0", f"e{(i + 1) % n_entities}") for i in range(n_entities)]
    named += [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in raw if h != t]
    graph = graph_from_triples(named)
    assert graph.n_entities == n_entities
    assert_matches_per_triple_loop(graph, dim, epochs, seed, lr=lr, margin=margin)
