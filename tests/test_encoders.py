"""Text encoder, graph convolution, attention pooling, entity/relation attention."""

import glob
import os

import numpy as np
import pytest

from actknow import autodiff, encoders
from actknow.autodiff import Tensor, backward
from actknow.encoders import (
    GCNParams,
    SEP_ID,
    UNK_ID,
    build_vocab,
    encode_pair_tokens,
    encode_text,
    er_attention,
    gcn_forward,
    graph_attention_pool,
    init_er_params,
    init_gcn_params,
    init_text_params,
)
from actknow.errors import ConfigError
from actknow.kg import EmbeddingTable, graph_from_triples
from actknow.subgraph import connect_concepts

from _oracles import dense_adjacency, dense_gcn, encode_text_by_gather, fd_gradient, matmul, max_rel_error, reshape
from conftest import mark_leaves

RNG = np.random.default_rng(21)


def make_subgraph(triples, seed_labels, max_nodes=20):
    graph = graph_from_triples(triples)
    seeds = [graph.entity_ids[s] for s in seed_labels]
    return graph, connect_concepts(graph, seeds, max_path_len=3, max_nodes=max_nodes)


def embedding(n, dim, seed):
    return EmbeddingTable(dim=dim, vectors=np.random.default_rng(seed).normal(0.0, 0.5, size=(n, dim)))


# ---------------------------------------------------------------------------
# vocabulary and token sequences


def test_vocab_reserves_special_ids():
    vocab = build_vocab([["b", "a"], ["a", "c"]])
    assert vocab.tokens[:2] == ["<unk>", "<sep>"]
    assert vocab.tokens[2:] == ["a", "b", "c"]
    assert vocab.ids["a"] == 2
    assert list(encode_pair_tokens(vocab, ["zzz"], ["a"])) == [UNK_ID, SEP_ID, 2]


def test_encode_pair_layout():
    vocab = build_vocab([["sun", "warms", "soil"]])
    ids = encode_pair_tokens(vocab, ["sun", "warms"], ["soil", "warms"])
    sep = list(ids).index(SEP_ID)
    assert sep == 2
    assert ids[-2] == vocab.ids["soil"]


def test_encode_pair_empty_premise_ok():
    vocab = build_vocab([["a", "b"]])
    ids = encode_pair_tokens(vocab, [], ["a"])
    assert list(ids) == [SEP_ID, vocab.ids["a"]]


def test_encode_pair_empty_hypothesis_rejected():
    vocab = build_vocab([["a"]])
    with pytest.raises(ValueError):
        encode_pair_tokens(vocab, ["a"], [])


# ---------------------------------------------------------------------------
# text encoder


def test_encode_text_deterministic_for_same_ids():
    params = init_text_params(vocab_size=10, dim=6, rng=np.random.default_rng(0))
    ids = np.array([2, 5, 3])
    a = encode_text([ids], params).data
    b = encode_text([ids.copy()], params).data
    assert np.array_equal(a, b)


def test_encode_text_rejects_empty():
    params = init_text_params(vocab_size=4, dim=3, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        encode_text([np.array([1]), np.array([], dtype=np.int64)], params)
    with pytest.raises(ValueError):
        encode_text([], params)


def test_encode_text_gradient_matches_fd():
    rng = np.random.default_rng(1)
    params = init_text_params(vocab_size=8, dim=5, rng=rng)
    mark_leaves(params.token_embedding, params.projection, params.bias)
    ids = np.array([1, 4, 4, 7])
    w = rng.normal(size=5)

    def loss_value():
        return matmul(reshape(encode_text([ids], params), (-1,)), Tensor(w)).item()

    backward(matmul(reshape(encode_text([ids], params), (-1,)), Tensor(w)))
    for leaf in (params.token_embedding, params.projection, params.bias):
        numeric = fd_gradient(loss_value, leaf.data)
        assert max_rel_error(leaf.grad, numeric) < 1e-5


def test_encode_text_batch_rows_match_single_sequences():
    params = init_text_params(vocab_size=10, dim=6, rng=np.random.default_rng(2))
    sequences = [np.array([2, 5, 3]), np.array([7]), np.array([1, 1, 9, 4, 0])]
    batch = encode_text(sequences, params).data
    assert batch.shape == (3, 6)
    for row, ids in zip(batch, sequences):
        alone = encode_text([ids], params).data[0]
        assert np.max(np.abs(row - alone)) < 1e-12


def _text_loss(out, w):
    return matmul(reshape(out, (-1,)), Tensor(w.reshape(-1)))


def test_bag_product_matches_gather_and_segment_mean():
    rng = np.random.default_rng(5)
    vocab, dim = 13, 6
    last = vocab - 1
    sequences = [
        np.array([UNK_ID]), np.array([SEP_ID]), np.array([last]), np.array([4, 4, 4]),
        np.array([UNK_ID, 3, SEP_ID, 3, last, last, UNK_ID]),
    ]
    sequences += [rng.integers(0, vocab, size=rng.integers(1, 12)) for _ in range(40)]
    for trial in range(3):
        params = init_text_params(vocab, dim, np.random.default_rng(trial))
        ref = init_text_params(vocab, dim, np.random.default_rng(trial))
        for text in (params, ref):
            mark_leaves(text.token_embedding, text.projection, text.bias)
        out, expected = encode_text(sequences, params), encode_text_by_gather(sequences, ref)
        assert out.shape == (len(sequences), dim)
        assert np.max(np.abs(out.data - expected.data)) <= 1e-12
        w = rng.normal(size=out.shape)
        backward(_text_loss(out, w))
        backward(_text_loss(expected, w))
        for name in ("token_embedding", "projection", "bias"):
            got, want = getattr(params, name).grad, getattr(ref, name).grad
            assert np.max(np.abs(got - want)) <= 1e-12, name


def test_encode_text_backward_does_no_scatter():
    # the package has no scatter-add at all: no gather op, no np.add.at
    assert not hasattr(autodiff, "gather")
    for path in glob.glob(os.path.join(os.path.dirname(autodiff.__file__), "*.py")):
        with open(path, encoding="utf-8") as fh:
            assert "add.at" not in fh.read(), path
    params = init_text_params(vocab_size=9, dim=4, rng=np.random.default_rng(3))
    mark_leaves(params.token_embedding, params.projection, params.bias)
    out = encode_text([np.array([2, 8, 2]), np.array([SEP_ID])], params)
    backward(_text_loss(out, np.ones(out.shape)))
    assert params.token_embedding.grad.shape == (9, 4)
    assert np.all(params.token_embedding.grad[[0, 3, 4, 5, 6, 7]] == 0.0)


def test_encode_text_bag_spans_only_the_batch_tokens(monkeypatch):
    """The bag has one column per distinct id in the batch, not per vocabulary
    entry, so a large vocabulary costs nothing beyond the gradient's table."""
    bag_shapes = []
    real_token_bag = encoders.token_bag

    def recording_token_bag(sequences, vocab_size):
        distinct, bag = real_token_bag(sequences, vocab_size)
        bag_shapes.append(bag.shape)
        return distinct, bag

    monkeypatch.setattr(encoders, "token_bag", recording_token_bag)
    params = init_text_params(vocab_size=50_000, dim=4, rng=np.random.default_rng(1))
    mark_leaves(params.token_embedding, params.projection, params.bias)
    out = encode_text([np.array([7, 49_999, 7]), np.array([SEP_ID, 7])], params)
    assert bag_shapes[0] == (2, 3)
    backward(_text_loss(out, np.ones(out.shape)))
    assert params.token_embedding.grad.shape == (50_000, 4)


def test_encode_text_rejects_out_of_range_ids():
    params = init_text_params(vocab_size=4, dim=3, rng=np.random.default_rng(0))
    for bad in (np.array([1, 4]), np.array([-1])):
        with pytest.raises(IndexError):
            encode_text([np.array([2]), bad], params)


# ---------------------------------------------------------------------------
# graph convolution


def node_outputs(subgraphs, params):
    """The last layer's (S, N, d) node outputs A_norm @ H @ W, built from
    gcn_forward's stacks the way graph_attention_pool never builds them,
    and the mask."""
    hidden, adjacency, mask = gcn_forward(subgraphs, params)
    return adjacency @ hidden.data @ params.last_layer.data, mask


def pooled_by_brute_force(nodes, text):
    """softmax(nodes @ text) @ nodes for one (N, d) matrix of real nodes."""
    scores = nodes @ text
    e = np.exp(scores - scores.max())
    weights = e / e.sum()
    return weights @ nodes, weights


def identity_gcn(features):
    """Identity hidden and last layers: the node outputs are
    A_norm @ relu(A_norm @ X)."""
    eye = np.eye(features.shape[1])
    return GCNParams(hidden_layer=Tensor(eye), last_layer=Tensor(eye), node_features=Tensor(features))


def test_gcn_isolated_node_identity_weights():
    graph, sub = make_subgraph([("a", "r", "b"), ("x", "r", "y")], ["a"])
    feats = embedding(graph.n_entities, 3, seed=2)
    out = node_outputs([sub], identity_gcn(feats.vectors))[0][0]
    # single node: normalized adjacency is the 1x1 identity
    assert np.allclose(out, np.maximum(feats.vectors[sub.nodes[0]], 0.0), atol=1e-12)


def test_gcn_two_connected_nodes_average():
    graph, sub = make_subgraph([("a", "r", "b")], ["a", "b"])
    feats = embedding(graph.n_entities, 4, seed=3)
    out = node_outputs([sub], identity_gcn(feats.vectors))[0][0]
    # the first propagation gives both nodes the average, which the second keeps
    expected = np.maximum(0.5 * (feats.vectors[sub.nodes[0]] + feats.vectors[sub.nodes[1]]), 0.0)
    assert np.max(np.abs(out[0] - expected)) < 1e-12
    assert np.max(np.abs(out[1] - expected)) < 1e-12


def test_gcn_matches_dense_oracle():
    triples = [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d"), ("a", "s", "d"), ("b", "s", "e")]
    graph, sub = make_subgraph(triples, ["a", "c", "e"])
    feats = embedding(graph.n_entities, 5, seed=4)
    rng = np.random.default_rng(5)
    params = init_gcn_params(5, 7, 4, feats, rng)
    out = node_outputs([sub], params)[0][0]
    expected = dense_gcn(
        dense_adjacency(sub),
        feats.vectors[np.asarray(sub.nodes)],
        [params.hidden_layer.data, params.last_layer.data],
    )
    assert np.max(np.abs(out - expected)) < 1e-10


PADDED_TRIPLES = [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d"), ("a", "s", "d"), ("b", "s", "e")]
PADDED_SEEDS = (["a", "c", "e"], ["a"], ["b", "d"])


def test_gcn_batch_pads_with_exact_zeros():
    subs = [make_subgraph(PADDED_TRIPLES, seeds)[1] for seeds in PADDED_SEEDS]
    graph = graph_from_triples(PADDED_TRIPLES)
    feats = embedding(graph.n_entities, 5, seed=4)
    params = init_gcn_params(5, 7, 4, feats, np.random.default_rng(5))
    hidden, adjacency, mask = gcn_forward(subs, params)
    out = node_outputs(subs, params)[0]
    n = max(sub.n_nodes for sub in subs)
    assert hidden.shape == (3, n, 7) and adjacency.shape == (3, n, n) and out.shape == (3, n, 4)
    for i, sub in enumerate(subs):
        k = sub.n_nodes
        assert list(mask[i]) == [True] * k + [False] * (n - k)
        assert np.all(hidden.data[i, k:] == 0.0) and np.all(out[i, k:] == 0.0)
        assert np.all(adjacency[i, k:] == 0.0) and np.all(adjacency[i, :, k:] == 0.0)
        expected = dense_gcn(
            dense_adjacency(sub),
            feats.vectors[np.asarray(sub.nodes)],
            [params.hidden_layer.data, params.last_layer.data],
        )
        assert np.max(np.abs(out[i, :k] - expected)) < 1e-10


SECOND_LAYER = np.random.default_rng(60).normal(size=(3, 4))


def test_gcn_pooled_output_permutation_invariant():
    """Relabeling entities must not change the pooled graph vector."""
    triples = [("a", "r", "b"), ("b", "r", "c"), ("a", "s", "c")]
    renamed = [("c", "r", "b"), ("b", "r", "a"), ("c", "s", "a")]
    text = RNG.normal(size=4)
    outputs = []
    for trips, seeds in ((triples, ["a", "c"]), (renamed, ["c", "a"])):
        graph = graph_from_triples(trips)
        sub = connect_concepts(graph, [graph.entity_ids[s] for s in seeds], max_path_len=2, max_nodes=10)
        # same feature per label regardless of id assignment
        base = embedding(3, 3, seed=6).vectors
        feats = np.stack([base[ord(graph.entities[e]) - ord("a")] for e in range(graph.n_entities)])
        params = GCNParams(hidden_layer=Tensor(np.eye(3)), last_layer=Tensor(SECOND_LAYER),
                           node_features=Tensor(feats))
        pooled, _ = graph_attention_pool(*gcn_forward([sub], params), Tensor(text[None]), np.arange(1),
                                         params.last_layer)
        outputs.append(pooled.data[0])
    assert np.max(np.abs(outputs[0] - outputs[1])) < 1e-10


def test_gcn_rejects_empty_and_bad_dims():
    feats = embedding(3, 4, seed=7)
    with pytest.raises(ValueError):
        gcn_forward([], init_gcn_params(4, 3, 4, feats, np.random.default_rng(0)))
    with pytest.raises(ConfigError):
        init_gcn_params(5, 3, 4, feats, np.random.default_rng(0))


def test_gcn_gradient_matches_fd():
    """Finite-difference gradients of both GCN layers and of the text
    vector, through the pool."""
    graph, sub = make_subgraph([("a", "r", "b"), ("b", "r", "c")], ["a", "c"])
    feats = embedding(graph.n_entities, 3, seed=8)
    params = init_gcn_params(3, 4, 3, feats, np.random.default_rng(9))
    text = Tensor(np.random.default_rng(10).normal(size=(1, 3)))
    leaves = mark_leaves(params.hidden_layer, params.last_layer, text)
    w = np.random.default_rng(11).normal(size=3)

    def forward():
        pooled, _ = graph_attention_pool(*gcn_forward([sub], params), text, np.arange(1), params.last_layer)
        return matmul(reshape(pooled, (-1,)), Tensor(w))

    backward(forward())
    for leaf in leaves:
        numeric = fd_gradient(lambda: forward().item(), leaf.data)
        assert max_rel_error(leaf.grad, numeric) < 1e-4


# ---------------------------------------------------------------------------
# attention pooling


def pool_nodes(nodes, mask, text):
    """graph_attention_pool over given (S, N, d) node outputs: with identity
    adjacencies and an identity last layer the stack is its own output."""
    s, n, d = nodes.shape
    adjacency = np.broadcast_to(np.eye(n), (s, n, n)).copy()
    return graph_attention_pool(Tensor(nodes), adjacency, mask, Tensor(text), np.arange(s), Tensor(np.eye(d)))


def test_pool_single_node_returns_it():
    node = RNG.normal(size=(1, 1, 4))
    out, _ = pool_nodes(node, np.ones((1, 1), bool), RNG.normal(size=(1, 4)))
    assert np.allclose(out.data[0], node[0, 0], atol=1e-12)


def test_pool_orthogonal_nodes_average():
    nodes = np.eye(3) * 2.0
    text = np.zeros(3)  # all scores zero, weights uniform
    out, _ = pool_nodes(nodes[None], np.ones((1, 3), bool), text[None])
    assert np.allclose(out.data[0], nodes.mean(axis=0), atol=1e-12)


def test_pool_matches_brute_force():
    nodes = RNG.normal(size=(5, 6))
    text = RNG.normal(size=6)
    out, attn = pool_nodes(nodes[None], np.ones((1, 5), bool), text[None])
    pooled, weights = pooled_by_brute_force(nodes, text)
    assert np.max(np.abs(out.data[0] - pooled)) < 1e-10
    assert np.max(np.abs(attn[0] - weights)) < 1e-10


def test_pool_ignores_padding():
    nodes = RNG.normal(size=(2, 4, 3))
    nodes[1, 2:] = 0.0
    mask = np.array([[True] * 4, [True, True, False, False]])
    text = RNG.normal(size=(2, 3))
    out, attn = pool_nodes(nodes, mask, text)
    assert np.all(attn[1, 2:] == 0.0)
    for i, k in ((0, 4), (1, 2)):
        assert np.max(np.abs(out.data[i] - pooled_by_brute_force(nodes[i, :k], text[i])[0])) < 1e-10


def test_pool_matches_pooling_the_built_node_outputs():
    """Folding the last layer into the pool gives the vectors and weights of
    pooling A_norm @ H @ W, on a padded batch with a real adjacency and a
    non-square last layer; padding gets exactly 0 attention."""
    subs = [make_subgraph(PADDED_TRIPLES, seeds)[1] for seeds in PADDED_SEEDS]
    graph = graph_from_triples(PADDED_TRIPLES)
    params = init_gcn_params(5, 7, 4, embedding(graph.n_entities, 5, seed=4), np.random.default_rng(5))
    text = np.random.default_rng(6).normal(size=(3, 4))
    pooled, attn = graph_attention_pool(*gcn_forward(subs, params), Tensor(text), np.arange(3), params.last_layer)
    nodes, _ = node_outputs(subs, params)
    for i, sub in enumerate(subs):
        k = sub.n_nodes
        want, weights = pooled_by_brute_force(nodes[i, :k], text[i])
        assert np.max(np.abs(pooled.data[i] - want)) < 1e-10
        assert np.max(np.abs(attn[i, :k] - weights)) < 1e-10
        assert np.all(attn[i, k:] == 0.0)


def test_pool_rejects_empty():
    def pool(shape, mask, adjacency=None, last_layer=(3, 3), rows=None):
        s, n, k = shape
        adjacency = np.zeros((s, n, n)) if adjacency is None else adjacency
        rows = np.arange(s) if rows is None else rows
        return graph_attention_pool(Tensor(np.zeros(shape)), adjacency, mask,
                                    Tensor(np.zeros((s, last_layer[1]))), rows, Tensor(np.zeros(last_layer)))

    with pytest.raises(ValueError):
        pool((0, 2, 3), np.zeros((0, 2), bool))
    with pytest.raises(ValueError):
        pool((1, 2, 3), np.zeros((1, 2), bool))
    with pytest.raises(ValueError):  # a mask of the wrong shape
        pool((1, 2, 3), np.ones((1, 3), bool))
    with pytest.raises(ValueError):  # an adjacency of the wrong size
        pool((1, 2, 3), np.ones((1, 2), bool), adjacency=np.zeros((1, 3, 3)))
    with pytest.raises(ValueError):  # a last layer that takes another width
        pool((1, 2, 3), np.ones((1, 2), bool), last_layer=(4, 3))
    with pytest.raises(ValueError):  # a text row past the text matrix
        pool((1, 2, 3), np.ones((1, 2), bool), rows=np.array([1]))
    with pytest.raises(ValueError):  # one text row per subgraph
        pool((1, 2, 3), np.ones((1, 2), bool), rows=np.array([0, 0]))
    with pytest.raises(ValueError):  # rows in increasing order, none repeated
        pool((2, 2, 3), np.ones((2, 2), bool), rows=np.array([1, 0]))


# ---------------------------------------------------------------------------
# entity/relation attention


def make_er_params(n_entities=6, n_relations=3, kg_dim=4, d=5, seed=12):
    rng = np.random.default_rng(seed)
    return init_er_params(
        embedding(n_entities, kg_dim, seed + 1),
        embedding(n_relations, kg_dim, seed + 2),
        d,
        rng,
    )


def test_er_single_entry_tables_get_full_weight():
    params = make_er_params(n_entities=1, n_relations=1)
    out = er_attention(Tensor(RNG.normal(size=(1, 5))), params, train=False)
    proj_e = params.entity_table.data @ params.entity_proj.data
    proj_r = params.relation_table.data @ params.relation_proj.data
    assert np.max(np.abs(out.data[0, :5] - proj_e[0])) < 1e-12
    assert np.max(np.abs(out.data[0, 5:] - proj_r[0])) < 1e-12


def softmax_np(scores):
    e = np.exp(scores - scores.max())
    return e / e.sum()


def test_er_eval_matches_brute_force():
    params = make_er_params(n_entities=7, n_relations=3, kg_dim=4, d=4)
    pe = params.entity_table.data @ params.entity_proj.data
    pr = params.relation_table.data @ params.relation_proj.data
    text = RNG.normal(size=4)
    expected = np.concatenate([softmax_np(pe @ text) @ pe, softmax_np(pr @ text) @ pr])
    out = er_attention(Tensor(text[None]), params, train=False).data[0]
    assert np.max(np.abs(out - expected)) < 1e-10


def test_er_eval_weights_concentrate_on_aligned_entity():
    """Scaling up a text vector aligned with one entity projection pushes
    nearly all attention mass onto that entity."""
    params = make_er_params(n_entities=6, kg_dim=4, d=4, seed=18)
    pe = params.entity_table.data @ params.entity_proj.data
    text = 60.0 * pe[2] / np.linalg.norm(pe[2])
    weights = softmax_np(pe @ text)
    winner = int(weights.argmax())
    assert weights[winner] > 0.99  # the construction gives a decisive margin
    out = er_attention(Tensor(text[None]), params, train=False).data[0]
    assert np.max(np.abs(out[:4] - weights @ pe)) < 1e-9


def test_er_train_mode_is_seeded_and_reproducible():
    params = make_er_params()
    text = Tensor(RNG.normal(size=(1, 5)))
    a = er_attention(text, params, train=True, rng=np.random.default_rng(33)).data
    b = er_attention(text, params, train=True, rng=np.random.default_rng(33)).data
    assert np.array_equal(a, b)
    c = er_attention(text, params, train=True, rng=np.random.default_rng(34)).data
    assert not np.array_equal(a, c)


def test_er_batch_rows_match_single_rows_in_draw_order():
    """A batch draws one row of Gumbel noise per text vector, in row order:
    the same stream as one call per row with a shared rng."""
    params = make_er_params()
    texts = RNG.normal(size=(3, 5))
    for train in (False, True):
        batch = er_attention(Tensor(texts), params, train=train, rng=np.random.default_rng(40)).data
        shared = np.random.default_rng(40)
        for row, text in zip(batch, texts):
            alone = er_attention(Tensor(text[None]), params, train=train, rng=shared).data[0]
            assert np.max(np.abs(row - alone)) < 1e-12


def test_er_train_mode_requires_rng():
    params = make_er_params()
    with pytest.raises(ValueError):
        er_attention(Tensor(np.zeros((1, 5))), params, train=True)


def test_er_output_shape_is_twice_d():
    params = make_er_params(d=5)
    out = er_attention(Tensor(np.zeros((3, 5))), params, train=False)
    assert out.shape == (3, 10)


def test_er_gradient_matches_fd():
    params = make_er_params(n_entities=4, n_relations=2, kg_dim=3, d=3)
    mark_leaves(params.entity_proj, params.relation_proj)
    text = Tensor(np.random.default_rng(14).normal(size=(1, 3)))
    w = np.random.default_rng(15).normal(size=6)

    def forward():
        return matmul(reshape(er_attention(text, params, train=False), (-1,)), Tensor(w))

    backward(forward())
    for leaf in (params.entity_proj, params.relation_proj):
        numeric = fd_gradient(lambda: forward().item(), leaf.data)
        assert max_rel_error(leaf.grad, numeric) < 1e-4
