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
    n_questions=30,
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
    # 40 entities make 12 chains: 8 train, 1 dev and 3 test
    spec = dataclasses.replace(SMALL, n_entities=40, split_by_chain=True)
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
    # a tenth of 9 questions floors to no dev question
    with pytest.raises(ConfigError, match="9 questions are too few to split"):
        dataclasses.replace(SMALL, n_questions=9).validate()


def test_chain_split_needs_enough_chains(tmp_path):
    # six chains at a 0.1 dev fraction floor to zero dev chains; the spec is
    # refused before any file is written
    spec = dataclasses.replace(SMALL, split_by_chain=True)
    with pytest.raises(ConfigError, match="6 chains are too few to split"):
        generate(spec, str(tmp_path / "task"))
    assert not (tmp_path / "task").exists()


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


def test_the_fewest_chains_supply_the_distractors(tmp_path):
    """validate requires 3 chains, and 3 chains supply every question its
    DISTRACTOR_COUNT - 1 answers of other chains beside the bait."""
    spec = dataclasses.replace(SMALL, n_entities=10, n_questions=12)
    with pytest.raises(ConfigError, match="leaves only 2 chains"):
        dataclasses.replace(spec, n_entities=9).validate()
    report = generate(spec, str(tmp_path))
    assert report["chains"] == 3 and report["failures"] == []
    for item in all_items(str(tmp_path)):
        assert len(set(item.choices)) == synth.DISTRACTOR_COUNT + 1, item.id


@pytest.mark.parametrize("entities, edges", [(0, 1), (1, 1), (3, 4), (5, 11)])
def test_more_noise_edges_than_pairs_are_refused(entities, edges):
    """n noise entities have n(n-1)/2 pairs to place an edge on."""
    spec = dataclasses.replace(SMALL, noise_entities=entities, noise_edges=edges)
    with pytest.raises(ConfigError, match=f"noise_edges={edges} exceeds the {entities * (entities - 1) // 2} pairs"):
        spec.validate()
    dataclasses.replace(spec, noise_edges=edges - 1).validate()


def test_noise_edges_the_draws_fall_short_of_are_refused(tmp_path, monkeypatch):
    """generate draws noise edges at random, a bounded number of draws per
    edge; a task with fewer edges than its spec asks for is refused before
    any file is written."""
    spec = dataclasses.replace(SMALL, noise_entities=3, noise_edges=3)
    monkeypatch.setattr(synth, "NOISE_DRAWS_PER_EDGE", 1)
    with pytest.raises(ConfigError, match=r"noise_edges: placed [0-2] of 3 noise edges in 3 draws"):
        generate(spec, str(tmp_path))
    assert os.listdir(tmp_path) == []
    monkeypatch.undo()
    assert generate(spec, str(tmp_path))["failures"] == []
