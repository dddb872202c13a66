"""Synthetic task generation: soundness, determinism, split discipline."""

import dataclasses
import os

import pytest

from actknow import synth
from actknow.errors import ConfigError
from actknow.nli import QAItem, load_qa_jsonl, save_qa_jsonl
from actknow.retrieval import load_corpus, tokenize
from actknow.scenarios import LOWDATA_SPEC, NOISY_SPEC, ensure_generated
from actknow.synth import SyntheticSpec, generate

SMALL = SyntheticSpec(
    n_entities=20,
    n_relations=3,
    n_questions=30,
    distractor_count=3,
    seed=5,
    node_dim=8,
    feature_noise=0.3,
)

FILES = ("kg.tsv", "corpus.txt", "node_features.txt", "train.jsonl", "dev.jsonl", "test.jsonl")


def read_all(out_dir):
    return {name: open(os.path.join(out_dir, name), "rb").read() for name in FILES}


def all_items(out_dir, splits=("train", "dev", "test")):
    items = []
    for split in splits:
        items.extend(load_qa_jsonl(os.path.join(out_dir, f"{split}.jsonl")))
    return items


def test_generated_task_verifies_clean(tmp_path):
    report = generate(SMALL, str(tmp_path))
    assert report["failures"] == []
    assert report["total"] == SMALL.n_questions
    assert report["kg_answerable"] == SMALL.n_questions
    assert report["lexically_answerable"] == 0
    assert report["bait_present"] == SMALL.n_questions
    for name in FILES:
        assert os.path.exists(os.path.join(str(tmp_path), name))


def test_split_sizes_floor_fractions(tmp_path):
    report = generate(SMALL, str(tmp_path))
    assert report["splits"] == {"train": 21, "dev": 3, "test": 6}
    assert sum(report["splits"].values()) == SMALL.n_questions


def test_correct_answers_never_in_corpus(tmp_path):
    generate(SMALL, str(tmp_path))
    corpus = load_corpus(os.path.join(str(tmp_path), "corpus.txt"))
    corpus_tokens = set()
    for toks in corpus.tokenized:
        corpus_tokens.update(toks)
    for item in all_items(str(tmp_path)):
        answer = item.choices[item.answer_index]
        assert not set(tokenize(answer)) & corpus_tokens, item.id


def test_regeneration_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate(SMALL, str(a))
    generate(SMALL, str(b))
    assert read_all(str(a)) == read_all(str(b))


def test_seed_changes_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate(SMALL, str(a))
    generate(dataclasses.replace(SMALL, seed=6), str(b))
    assert read_all(str(a)) != read_all(str(b))


def test_noise_knobs_add_entities_without_breaking_task(tmp_path):
    spec = dataclasses.replace(SMALL, noise_entities=4, noise_edges=6, premise_noise=2)
    report = generate(spec, str(tmp_path))
    assert report["failures"] == []
    assert report["entities"] == SMALL.n_entities + 4
    lines = open(os.path.join(str(tmp_path), "node_features.txt")).read().strip().split("\n")
    assert len(lines) == SMALL.n_entities + 4


def test_chain_split_keeps_entities_disjoint(tmp_path):
    spec = dataclasses.replace(SMALL, split_by_chain=True, dev_fraction=0.2)
    report = generate(spec, str(tmp_path))
    assert report["failures"] == []

    def stems_and_answers(split):
        items = all_items(str(tmp_path), splits=(split,))
        stems = {tokenize(q.stem)[3] for q in items}
        answers = {q.choices[q.answer_index] for q in items}
        return stems, answers

    train_stems, train_answers = stems_and_answers("train")
    test_stems, test_answers = stems_and_answers("test")
    assert train_stems and test_stems
    assert not train_stems & test_stems
    assert not train_answers & test_answers


def test_spec_validation():
    with pytest.raises(ConfigError):
        dataclasses.replace(SMALL, n_entities=8).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(SMALL, noise_edges=2).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(SMALL, premise_noise=1).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(SMALL, feature_noise=-0.1).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(SMALL, train_fraction=0.9, dev_fraction=0.2).validate()


def test_chain_split_needs_enough_chains(tmp_path):
    # six chains at a 0.1 dev fraction floor to zero dev chains
    spec = dataclasses.replace(SMALL, split_by_chain=True)
    with pytest.raises(ConfigError, match="chains"):
        generate(spec, str(tmp_path))


def test_ensure_generated_skips_existing(tmp_path):
    out = str(tmp_path / "task")
    ensure_generated(SMALL, out)
    stamps = {name: os.path.getmtime(os.path.join(out, name)) for name in FILES}
    ensure_generated(SMALL, out)
    assert stamps == {name: os.path.getmtime(os.path.join(out, name)) for name in FILES}


def test_interrupted_generation_leaves_no_partial_file(tmp_path, monkeypatch):
    """A split whose write fails part way is absent, not truncated, so
    ensure_generated generates the task again instead of loading it."""
    out = str(tmp_path / "task")

    def failing_save(path, items):
        # the unserialisable last item fails after the real ones are written
        unserialisable = QAItem(id="bad", stem="s", choices=[object(), "x"], answer_index=0)
        save_qa_jsonl(path, items + [unserialisable] if path.endswith("test.jsonl") else items)

    monkeypatch.setattr(synth, "save_qa_jsonl", failing_save)
    with pytest.raises(TypeError):
        ensure_generated(SMALL, out)
    assert not os.path.exists(os.path.join(out, "test.jsonl"))
    assert not any(name.endswith(".tmp") for name in os.listdir(out))

    monkeypatch.undo()
    assert ensure_generated(SMALL, out) is not None
    fresh = str(tmp_path / "fresh")
    generate(SMALL, fresh)
    assert read_all(out) == read_all(fresh)


def test_bundled_scenario_specs_are_valid():
    LOWDATA_SPEC.validate()
    NOISY_SPEC.validate()
    assert LOWDATA_SPEC.split_by_chain is False
    assert NOISY_SPEC.split_by_chain is True


def test_too_few_chains_for_the_distractors(tmp_path):
    # six chains cannot supply six distractors other than the answer
    with pytest.raises(ConfigError, match="chains"):
        generate(dataclasses.replace(SMALL, distractor_count=7), str(tmp_path))
