"""Question-to-hypothesis rewriting and premise retrieval."""

import os

import pytest

from actknow.encoders import build_vocab, encode_pair_tokens
from actknow.errors import ConfigError
from actknow.nli import RETRIEVE_K, QAItem, convert, load_qa_jsonl, make_hypothesis, save_qa_jsonl
from actknow.retrieval import build_index, corpus_from_sentences, load_corpus, retrieve, tokenize
from actknow.subgraph import identify_concepts
from actknow.textfile import read_lines


def test_wh_replacement_mid_sentence():
    out = make_hypothesis("The movement of soil by wind or water is called what ?", "Erosion")
    assert out == "The movement of soil by wind or water is called Erosion"


def test_wh_replacement_second_sentence():
    stem = "A goat gets energy from the grass it eats. Where does the grass get its energy?"
    out = make_hypothesis(stem, "sunlight")
    assert out == "A goat gets energy from the grass it eats. sunlight does the grass get its energy"


def test_only_first_wh_word_replaced():
    out = make_hypothesis("Who knows what lurks where?", "nobody")
    assert out == "nobody knows what lurks where"


def test_wh_match_is_case_insensitive():
    assert make_hypothesis("WHAT floats?", "wood") == "wood floats"
    assert make_hypothesis("What floats?", "wood") == "wood floats"


def test_wh_match_requires_whole_word():
    # "somewhat" and "nowhere" contain WH substrings but are not questions words
    out = make_hypothesis("The somewhat damp cave leads nowhere?", "legend")
    assert out == "The somewhat damp cave leads nowhere legend"


def test_no_wh_word_appends_choice():
    assert make_hypothesis("Plants need ?", "water") == "Plants need water"


def test_trailing_question_mark_dropped_without_wh():
    assert make_hypothesis("Metal conducts electricity?", "yes") == "Metal conducts electricity yes"


def test_interior_question_mark_kept():
    out = make_hypothesis("Really? what comes next?", "rain")
    assert out == "Really? rain comes next"


def test_rewrite_is_idempotent_when_choice_has_no_wh():
    first = make_hypothesis("what melts ice?", "salt")
    assert make_hypothesis(first, "salt") == first + " salt"


def test_convert_one_pair_per_choice_in_order():
    sentences = [
        "soil erosion moves earth",
        "wind carries dust",
        "rocks sit still",
    ]
    corpus = corpus_from_sentences(sentences)
    index = build_index(corpus)
    item = QAItem(
        id="q1",
        stem="what moves soil ?",
        choices=["erosion", "rocks", "glue", "sleep"],
        answer_index=0,
    )
    pairs = convert(item, index, corpus, k=2)
    assert len(pairs) == 4
    assert pairs[0].hypothesis == ["erosion", "moves", "soil"]
    assert pairs[1].hypothesis == ["rocks", "moves", "soil"]
    # "soil erosion moves earth" shares three tokens with the first query
    assert pairs[0].premise[:4] == ["soil", "erosion", "moves", "earth"]


def test_convert_unmatched_query_gives_empty_premise():
    corpus = corpus_from_sentences(["xylophones hum quietly"])
    index = build_index(corpus)
    item = QAItem(id="q", stem="what melts ice ?", choices=["salt", "sand"], answer_index=0)
    pairs = convert(item, index, corpus, k=3)
    assert pairs[0].premise == []
    assert pairs[1].premise == []


def test_convert_premise_concatenates_top_sentences_tokens():
    sentences = ["ice melts fast", "salt melts ice", "dogs bark"]
    corpus = corpus_from_sentences(sentences)
    index = build_index(corpus)
    item = QAItem(id="q", stem="what melts ice ?", choices=["salt"], answer_index=0)
    # dataclass validation lives in the loader, so the 1-choice item is fine here
    pairs = convert(item, index, corpus, k=2)
    assert pairs[0].premise == ["salt", "melts", "ice", "ice", "melts", "fast"]


@pytest.mark.parametrize("data", ["lowdata_dir", "noisy_dir"], ids=["lowdata", "noisy"])
def test_convert_tokens_equal_the_tokens_of_the_joined_text(data, request):
    """Every choice of a bundled task at RETRIEVE_K, plus one question that
    retrieves nothing: the premise is the token list of the retrieved
    sentences joined by spaces, and the hypothesis that of make_hypothesis."""
    data_dir = request.getfixturevalue(data)
    path = os.path.join(data_dir, "corpus.txt")
    sentences = [line for line in read_lines(path) if line.strip()]
    corpus = load_corpus(path)
    index = build_index(corpus)
    items = [item for split in ("train", "dev", "test")
             for item in load_qa_jsonl(os.path.join(data_dir, f"{split}.jsonl"))]
    items.append(QAItem(id="unmatched", stem="what is zqx ?", choices=["vwq", "jxk"], answer_index=0))
    empty = 0
    for item in items:
        pairs = convert(item, index, corpus, RETRIEVE_K)
        assert len(pairs) == len(item.choices)
        for choice, pair in zip(item.choices, pairs):
            hits = retrieve(index, item.stem + " " + choice, RETRIEVE_K)
            assert pair.premise == tokenize(" ".join(sentences[sid] for sid, _ in hits))
            assert pair.hypothesis == tokenize(make_hypothesis(item.stem, choice))
            empty += not pair.premise
    assert empty == 2


def test_token_functions_reject_a_str(chain_graph):
    """A str where tokens are expected would be scanned character by character."""
    vocab = build_vocab([["a", "b"]])
    with pytest.raises(TypeError, match="identify_concepts"):
        identify_concepts("a b", chain_graph)
    with pytest.raises(TypeError, match="encode_pair_tokens"):
        encode_pair_tokens(vocab, "a", ["b"])
    with pytest.raises(TypeError, match="encode_pair_tokens"):
        encode_pair_tokens(vocab, ["a"], "b")
    with pytest.raises(TypeError, match="build_vocab"):
        build_vocab(["a b"])


def test_qa_jsonl_roundtrip(tmp_path):
    items = [
        QAItem(id="a", stem="what floats ?", choices=["wood", "iron"], answer_index=0),
        QAItem(id="b", stem="how do plants eat ?", choices=["sun", "talk", "run"], answer_index=0),
    ]
    path = tmp_path / "qa.jsonl"
    save_qa_jsonl(str(path), items)
    assert load_qa_jsonl(str(path)) == items


def test_qa_jsonl_rejects_bad_json(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"id": "a", "question": broken\n')
    with pytest.raises(ConfigError, match=r":1:"):
        load_qa_jsonl(str(path))


def test_qa_jsonl_rejects_missing_field(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"id": "a", "choices": ["x", "y"], "answer_index": 0}\n')
    with pytest.raises(ConfigError, match=r":1:"):
        load_qa_jsonl(str(path))


def test_qa_jsonl_rejects_out_of_range_answer(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"id": "a", "question": "q ?", "choices": ["x", "y"], "answer_index": 2}\n')
    with pytest.raises(ConfigError, match="out of range"):
        load_qa_jsonl(str(path))


def test_qa_jsonl_rejects_single_choice(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"id": "a", "question": "q ?", "choices": ["x"], "answer_index": 0}\n')
    with pytest.raises(ConfigError, match="at least 2"):
        load_qa_jsonl(str(path))


def test_qa_jsonl_rejects_empty_file(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text("\n\n")
    with pytest.raises(ConfigError, match="no questions"):
        load_qa_jsonl(str(path))
