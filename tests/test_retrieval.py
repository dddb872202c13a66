import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import bm25_scan
from _oracles import retrieve as dict_loop_retrieve
from actknow.errors import ConfigError
from actknow.nli import load_qa_jsonl
from actknow.retrieval import build_index, corpus_from_sentences, has_token, load_corpus, retrieve, tokenize

WORDS = ["ant", "bee", "cat", "dog", "elm", "fox", "gnu", "hen", "ibis", "jay"]


def random_corpus(rng, n_sentences, vocab=WORDS):
    return [
        " ".join(rng.choice(vocab, size=rng.integers(2, 9)))
        for _ in range(n_sentences)
    ]


def test_tokenize_lowercases():
    assert tokenize("The Goat, eats GRASS!") == ["the", "goat", "eats", "grass"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(), max_size=6))
def test_has_token_and_joined_tokens_agree_with_tokenize(texts):
    """has_token(t) says whether tokenize(t) is non-empty, and tokenizing
    texts joined by spaces gives each one's tokens in turn: no token spans a
    space. The question loader and the vocabulary rely on these."""
    assert [has_token(t) for t in texts] == [bool(tokenize(t)) for t in texts]
    assert tokenize(" ".join(texts)) == [tok for t in texts for tok in tokenize(t)]


def test_postings_example():
    index = build_index(corpus_from_sentences(["a b", "b c"]))
    assert index.postings["a"] == [(0, 1)]
    assert index.postings["b"] == [(0, 1), (1, 1)]
    assert index.postings["c"] == [(1, 1)]


def test_term_frequency_counted():
    index = build_index(corpus_from_sentences(["b b"]))
    assert index.postings["b"] == [(0, 2)]


def test_rebuild_identical():
    corpus = corpus_from_sentences(["a b c", "c d"])
    one, two = build_index(corpus), build_index(corpus)
    assert one.postings == two.postings
    assert one.doc_lengths == two.doc_lengths


def test_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        build_index(corpus_from_sentences([]))


def test_full_match_ranks_first():
    sentences = ["ant bee cat", "ant dog", "bee elm", "fox gnu"]
    index = build_index(corpus_from_sentences(sentences))
    results = retrieve(index, "ant bee cat", k=4)
    assert results[0][0] == 0
    oracle = bm25_scan(sentences, "ant bee cat")
    assert [sid for sid, _ in results] == [sid for sid, _ in oracle[:4]]


def test_absent_tokens_empty():
    index = build_index(corpus_from_sentences(["ant bee"]))
    assert retrieve(index, "zebu quokka", k=3) == []


def test_k_larger_than_matches():
    index = build_index(corpus_from_sentences(["ant bee", "cat dog"]))
    assert len(retrieve(index, "ant", k=10)) == 1


def test_k_validation():
    index = build_index(corpus_from_sentences(["ant"]))
    with pytest.raises(ConfigError):
        retrieve(index, "ant", k=0)


def test_scores_match_brute_force():
    rng = np.random.default_rng(5)
    for trial in range(20):
        sentences = random_corpus(rng, int(rng.integers(3, 40)))
        index = build_index(corpus_from_sentences(sentences))
        query = " ".join(rng.choice(WORDS, size=3))
        got = retrieve(index, query, k=len(sentences))
        expected = bm25_scan(sentences, query)
        assert len(got) == len(expected)
        for (sid_a, score_a), (sid_b, score_b) in zip(got, expected):
            assert sid_a == sid_b
            assert abs(score_a - score_b) < 1e-9


def test_ties_broken_by_sentence_id():
    sentences = ["ant bee", "ant bee", "ant bee"]
    index = build_index(corpus_from_sentences(sentences))
    assert [sid for sid, _ in retrieve(index, "ant", k=3)] == [0, 1, 2]


def assert_same_as_dict_loop(index, query, k):
    got = retrieve(index, query, k)
    assert got == dict_loop_retrieve(index, query, k)
    assert all(type(sid) is int and type(score) is float for sid, score in got)


@pytest.mark.parametrize("task", ["lowdata_dir", "noisy_dir"])
def test_bundled_queries_match_dict_loop_exactly(task, request):
    data_dir = request.getfixturevalue(task)
    index = build_index(load_corpus(os.path.join(data_dir, "corpus.txt")))
    for split in ("train", "dev", "test"):
        for item in load_qa_jsonl(os.path.join(data_dir, f"{split}.jsonl")):
            for choice in item.choices:
                for k in (5, index.doc_count):
                    assert_same_as_dict_loop(index, item.stem + " " + choice, k)


def test_random_corpora_match_dict_loop_exactly():
    rng = np.random.default_rng(44)
    for trial in range(40):
        sentences = random_corpus(rng, int(rng.integers(1, 30)))
        sentences += [sentences[0]] * int(rng.integers(1, 4))  # tied documents
        if trial % 2:
            sentences = [s + " kea" for s in sentences]  # df = N, the smallest idf
        index = build_index(corpus_from_sentences(sentences))
        n = len(sentences)
        queries = [
            " ".join(rng.choice(WORDS + ["kea"], size=int(rng.integers(1, 7)))),  # repeats likely
            "ant ant ANT bee",
            "zebu ant quokka",
            "zebu",
            "?! ...",
            "kea",
        ]
        for query in queries:
            for k in (1, 3, n, n + 7):
                assert_same_as_dict_loop(index, query, k)


def test_impacts_are_built_on_first_use():
    index = build_index(corpus_from_sentences(["ant bee", "bee cat"]))
    assert index.impacts == {}
    retrieve(index, "bee zebu", k=2)
    assert sorted(index.impacts) == ["bee"]
    ids, _impacts = index.impacts["bee"]
    assert ids.tolist() == [0, 1]
    assert index == build_index(corpus_from_sentences(["ant bee", "bee cat"]))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_unrelated_sentence_preserves_order(data):
    """Adding an unrelated sentence must not reorder existing results.

    BM25's length normalization is relative to the corpus mean, and growing
    the corpus shifts every idf by a shared constant, so the guarantee is
    exact only when the new sentence leaves the mean length unchanged and the
    query has a single term. The draw is constrained to that case.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    length = int(rng.integers(3, 7))
    sentences = [" ".join(rng.choice(WORDS, size=length)) for _ in range(int(rng.integers(3, 15)))]
    query = str(rng.choice(WORDS))
    before = retrieve(build_index(corpus_from_sentences(sentences)), query, k=len(sentences))
    filler = ["zebu", "quokka", "okapi", "numbat", "hoopoe", "dugong"]
    extended = sentences + [" ".join(filler[:length])]
    after = retrieve(build_index(corpus_from_sentences(extended)), query, k=len(extended))
    assert [sid for sid, _ in before] == [sid for sid, _ in after]


def test_load_corpus_roundtrip(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("ant bee\ncat dog\n", encoding="utf-8")
    corpus = load_corpus(str(path))
    assert corpus.tokenized == [["ant", "bee"], ["cat", "dog"]]
