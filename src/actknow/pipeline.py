"""End-to-end assembly: load data, build shared structures, train, evaluate.

Shared by the command-line entry points and the experiment scripts so both
run the identical pipeline.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig
from .encoders import Vocab, build_vocab
from .errors import ConfigError
from .kg import KG_DIM, KG_EPOCHS, KnowledgeGraph, load_triples, node_feature_table, train_kg_embeddings
from .nli import QAItem, load_qa_jsonl
from .retrieval import Corpus, InvertedIndex, build_index, load_corpus, tokenize
from .training import (
    ModelParams,
    PreparedQuestion,
    TrainConfig,
    TrainResult,
    init_model,
    prepare_questions,
    train,
)

log = logging.getLogger(__name__)

@dataclass
class Pipeline:
    graph: KnowledgeGraph
    corpus: Corpus
    index: InvertedIndex
    vocab: Vocab
    node_features_path: str | None  # read by build_model
    items: dict[str, list[QAItem]]


def load_pipeline(cfg: ExperimentConfig) -> Pipeline:
    """Load graph, corpus and question splits; build the retrieval index and
    vocabulary shared by every run. Reads input files only, no model
    setting."""
    cfg.require("kg", "corpus")
    graph = load_triples(cfg.kg)
    corpus = load_corpus(cfg.corpus)
    index = build_index(corpus)

    items: dict[str, list[QAItem]] = {}
    for split in ("train", "dev", "test"):
        path = getattr(cfg, split)
        if path:
            items[split] = load_qa_jsonl(path)

    # one tokenize over the stems and choices joined by spaces yields the
    # tokens of each in turn, since no token spans a space (nli.py)
    texts = [text for split_items in items.values() for item in split_items for text in (item.stem, *item.choices)]
    vocab = build_vocab(corpus.tokenized + [tokenize(" ".join(texts))])
    return Pipeline(
        graph=graph,
        corpus=corpus,
        index=index,
        vocab=vocab,
        node_features_path=cfg.node_features,
        items=items,
    )


def prepare_split(pipe: Pipeline, split: str, tc: TrainConfig, indices: list[int] | None = None
                  ) -> list[PreparedQuestion]:
    """The prepared questions of `split` at `indices`, in split order. By
    default all of them, but for "train" only the tc.data_fraction sample
    that training reads."""
    if split not in pipe.items:
        raise ConfigError(f"no {split} split was supplied")
    items = pipe.items[split]
    if indices is not None:
        items = [items[i] for i in indices]
    elif split == "train":
        items = training_sample(items, tc)
    return prepare_questions(items, pipe.corpus, pipe.index, pipe.graph, pipe.vocab, tc)


def training_sample(questions: list, tc: TrainConfig) -> list:
    """The questions at training_indices."""
    return [questions[i] for i in training_indices(questions, tc)]


def training_indices(questions: list, tc: TrainConfig) -> list[int]:
    """The increasing indices of the tc.data_fraction sample of a train
    split: floor(fraction * n) questions, stratified by gold answer index
    with largest-remainder rounding and drawn from tc.seed. It reads only
    answer_index and list order, so it draws the same questions from
    QAItems as from their prepared questions. tc.validate has checked the
    fraction."""
    fraction = tc.data_fraction
    if fraction == 1.0:
        return list(range(len(questions)))
    groups: dict[int, list[int]] = {}
    for i, q in enumerate(questions):
        groups.setdefault(q.answer_index, []).append(i)
    keys = sorted(groups)
    quotas = {k: math.floor(fraction * len(groups[k])) for k in keys}
    remainder = math.floor(fraction * len(questions)) - sum(quotas.values())
    by_frac = sorted(keys, key=lambda k: (-(fraction * len(groups[k]) % 1.0), k))
    for k in by_frac:
        if remainder <= 0:
            break
        if quotas[k] < len(groups[k]):
            quotas[k] += 1
            remainder -= 1
    rng = np.random.default_rng(np.random.SeedSequence([tc.seed, 77]))
    chosen: list[int] = []
    for k in keys:
        perm = rng.permutation(len(groups[k]))
        chosen.extend(groups[k][i] for i in perm[: quotas[k]])
    if not chosen:
        raise ConfigError(f"data_fraction {fraction} selects none of the {len(questions)} train questions")
    chosen.sort()
    log.info("training on %d questions after fraction sampling", len(chosen))
    return chosen


def build_model(pipe: Pipeline, tc: TrainConfig) -> ModelParams:
    """Seeded model init on top of the graph embedding tables and the node
    features: the file's rows, and rows drawn from tc.seed for the entities
    it does not name. The tables are trained for KG_EPOCHS only where ER
    attention, their one reader, runs (tc.graph_side); in text-only they
    are the seeded init of 0 epochs."""
    node_features = node_feature_table(pipe.graph, tc.node_dim, tc.seed, pipe.node_features_path)
    epochs = KG_EPOCHS if tc.graph_side else 0
    ent_table, rel_table = train_kg_embeddings(pipe.graph, KG_DIM, epochs, tc.seed)
    return init_model(len(pipe.vocab.tokens), ent_table, rel_table, node_features, tc)


def run_training(
    pipe: Pipeline,
    tc: TrainConfig,
    train_qs: list[PreparedQuestion],
    dev_qs: list[PreparedQuestion] | None,
) -> tuple[ModelParams, TrainResult]:
    """Build a model and train it on exactly `train_qs`: prepare_split has
    already drawn the tc.data_fraction sample."""
    model = build_model(pipe, tc)
    return model, train(model, train_qs, dev_qs, tc)


def training_config_for(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """A validated copy of cfg with `overrides` applied; cfg is unchanged."""
    tc = replace(cfg, **overrides)
    tc.validate()
    return tc
