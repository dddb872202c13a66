"""Question-to-hypothesis rewriting and premise retrieval."""

import pytest

from actknow.errors import ConfigError
from actknow.nli import QAItem, convert, load_qa_jsonl, make_hypothesis, save_qa_jsonl
from actknow.retrieval import build_index, corpus_from_sentences


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
    assert pairs[0].hypothesis == "erosion moves soil"
    assert pairs[1].hypothesis == "rocks moves soil"
    # "soil erosion moves earth" shares three tokens with the first query
    assert "soil erosion moves earth" in pairs[0].premise


def test_convert_unmatched_query_gives_empty_premise():
    corpus = corpus_from_sentences(["xylophones hum quietly"])
    index = build_index(corpus)
    item = QAItem(id="q", stem="what melts ice ?", choices=["salt", "sand"], answer_index=0)
    pairs = convert(item, index, corpus, k=3)
    assert pairs[0].premise == ""
    assert pairs[1].premise == ""


def test_convert_premise_joins_top_sentences_with_spaces():
    sentences = ["ice melts fast", "salt melts ice", "dogs bark"]
    corpus = corpus_from_sentences(sentences)
    index = build_index(corpus)
    item = QAItem(id="q", stem="what melts ice ?", choices=["salt"], answer_index=0)
    # dataclass validation lives in the loader, so the 1-choice item is fine here
    pairs = convert(item, index, corpus, k=2)
    assert pairs[0].premise.count(" melts ") == 2
    assert "dogs bark" not in pairs[0].premise


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
