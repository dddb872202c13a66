"""Bundled experiment scenarios.

Single source of truth for the two headline experiments, used by both the
scripts and the acceptance tests:

* lowdata: a two-hop synthetic task trained on a 20% fraction, comparing
  text-only, fixed-weight and entropy-weighted training across seeds.
* noisy: the same task family with noise entities mentioned alongside the
  stems and random clutter edges, swept over subgraph node budgets.
"""

from __future__ import annotations

import os

from .config import ExperimentConfig
from .synth import SyntheticSpec, generate

LOWDATA_SPEC = SyntheticSpec(
    n_entities=200,
    n_questions=600,
    seed=7,
    node_dim=32,
    feature_noise=1.4,
)

NOISY_SPEC = SyntheticSpec(
    n_entities=120,
    n_questions=240,
    seed=11,
    noise_entities=80,
    noise_edges=400,
    premise_noise=3,
    node_dim=32,
    feature_noise=2.0,
    split_by_chain=True,
)

_FILES = ("kg.tsv", "corpus.txt", "node_features.txt", "train.jsonl", "dev.jsonl", "test.jsonl")


def ensure_generated(spec: SyntheticSpec, data_dir: str) -> dict | None:
    """Generate the task files unless they are all present already. Each
    file is written atomically, so one that exists is complete."""
    if all(os.path.exists(os.path.join(data_dir, name)) for name in _FILES):
        return None
    return generate(spec, data_dir)


def _base_config(data_dir: str, out_dir: str) -> ExperimentConfig:
    return ExperimentConfig(
        kg=os.path.join(data_dir, "kg.tsv"),
        corpus=os.path.join(data_dir, "corpus.txt"),
        train=os.path.join(data_dir, "train.jsonl"),
        dev=os.path.join(data_dir, "dev.jsonl"),
        test=os.path.join(data_dir, "test.jsonl"),
        node_features=os.path.join(data_dir, "node_features.txt"),
        out_dir=out_dir,
    )


def lowdata_experiment(data_dir: str, out_dir: str) -> ExperimentConfig:
    cfg = _base_config(data_dir, out_dir)
    cfg.fractions = (0.2,)
    cfg.seeds = (0, 1, 2, 3, 4)
    cfg.modes = ("text-only", "base-know", "act-know")
    cfg.master_epochs = 8
    cfg.sub_epochs = 1
    cfg.pretrain_epochs = 1
    cfg.learning_rate = 8e-4
    cfg.max_nodes = 20
    cfg.validate()
    return cfg


def noisy_experiment(data_dir: str, out_dir: str) -> ExperimentConfig:
    cfg = _base_config(data_dir, out_dir)
    cfg.mode = "base-know"
    cfg.node_budgets = (3, 20, 60)
    cfg.seed = 3
    cfg.master_epochs = 5
    cfg.sub_epochs = 2
    cfg.pretrain_epochs = 2
    cfg.learning_rate = 1.5e-3
    cfg.validate()
    return cfg
