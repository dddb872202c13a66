"""The shared experiment module: sign test values, the node features of a
sweep cell, what the cell runner prepares, and the runner scripts."""

import os
import subprocess
import sys

import numpy as np
import pytest

from actknow import experiments, pipeline
from actknow.config import ExperimentConfig
from actknow.experiments import ablate_subgraph, sign_test_p, sweep_fraction
from actknow.kg import node_feature_table
from actknow.nli import load_qa_jsonl
from actknow.synth import SyntheticSpec, generate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("wins, losses, p", [(5, 0, 1 / 32), (4, 1, 6 / 32), (0, 0, 1.0)])
def test_sign_test_p_hand_values(wins, losses, p):
    assert sign_test_p(wins, losses) == p


def tiny_experiment(task_dir, **settings) -> ExperimentConfig:
    """A one-epoch experiment on the task generated into task_dir, with no
    node-features file and no dev split unless `settings` names one."""
    generate(SyntheticSpec(n_entities=20, n_relations=3, n_questions=12, seed=3, node_dim=8), str(task_dir))
    return ExperimentConfig(
        kg=str(task_dir / "kg.tsv"), corpus=str(task_dir / "corpus.txt"), train=str(task_dir / "train.jsonl"),
        test=str(task_dir / "test.jsonl"), out_dir=str(task_dir / "out"), text_dim=8, node_dim=8, kg_dim=4,
        gcn_hidden=8, master_epochs=1, sub_epochs=1, kg_epochs=2, pretrain_epochs=0, **settings,
    )


def test_a_sweep_cell_draws_its_node_features_from_its_own_seed(tmp_path, monkeypatch):
    """With no node-features file every entity's features are drawn at
    random, from the seed of the cell that builds the model."""
    cfg = tiny_experiment(tmp_path, fractions=(1.0,), modes=("base-know",), seeds=(2,))
    built = []
    build_model = pipeline.build_model

    def recording_build_model(pipe, tc):
        model = build_model(pipe, tc)
        built.append((pipe.graph, model.gcn.node_features.data.copy()))
        return model

    monkeypatch.setattr(pipeline, "build_model", recording_build_model)
    sweep_fraction(cfg)
    [(graph, features)] = built
    assert np.array_equal(features, node_feature_table(graph, 8, 2, None).vectors)
    assert not np.array_equal(features, node_feature_table(graph, 8, cfg.seed, None).vectors)


def recorded_preparations(monkeypatch) -> list:
    """(split, config, prepared questions) of every prepare_split call the
    cell runner makes from now on, in call order, and (config, train
    questions) of every cell it trains."""
    calls, cells = [], []
    prepare_split, run_cell = experiments.prepare_split, experiments.run_cell

    def recording_prepare_split(pipe, split, tc, *indices):
        calls.append((split, tc, prepare_split(pipe, split, tc, *indices)))
        return calls[-1][2]

    def recording_run_cell(pipe, tc, train_qs, *rest):
        cells.append((tc, train_qs))
        return run_cell(pipe, tc, train_qs, *rest)

    monkeypatch.setattr(experiments, "prepare_split", recording_prepare_split)
    monkeypatch.setattr(experiments, "run_cell", recording_run_cell)
    return calls, cells


def test_a_sweep_prepares_every_split_once_and_each_cell_trains_its_own_sample(tmp_path, monkeypatch):
    """Dev, test and the union of the cells' train samples are each
    prepared once for the whole sweep, with subgraphs since base-know reads
    them; each cell trains on the sample of its own fraction and seed, the
    questions of that one preparation, so a text-only cell's sample
    carries the subgraphs it never reads."""
    cfg = tiny_experiment(tmp_path, dev=str(tmp_path / "dev.jsonl"), fractions=(0.5, 1.0),
                          modes=("text-only", "base-know"), seeds=(0, 1))
    calls, cells = recorded_preparations(monkeypatch)
    sweep_fraction(cfg)
    prepared = {split: [(tc, qs) for s, tc, qs in calls if s == split] for split in ("train", "dev", "test")}
    assert [len(prepared[split]) for split in ("train", "dev", "test")] == [1, 1, 1]
    assert all(tc.graph_side and all(pq.graph_side for pq in qs) for tc, qs in sum(prepared.values(), []))
    trained = [(tc.data_fraction, tc.mode, tc.seed) for tc, _ in cells]
    assert trained == [(f, m, s) for f in (0.5, 1.0) for m in ("text-only", "base-know") for s in (0, 1)]
    train_items = load_qa_jsonl(cfg.train)
    [(_, whole)] = prepared["train"]
    assert [pq.qid for pq in whole] == [item.id for item in train_items]
    union = set()
    for tc, qs in cells:
        assert [pq.qid for pq in qs] == [item.id for item in pipeline.training_sample(train_items, tc)]
        assert all(any(pq is held for held in whole) for pq in qs)
        union.update(map(id, qs))
    assert union == set(map(id, whole))


def test_an_ablation_prepares_every_split_once_per_budget(tmp_path, monkeypatch):
    """Each node budget changes the subgraphs of every split, so an
    ablation over B budgets prepares each split B times, once at each
    budget."""
    cfg = tiny_experiment(tmp_path, dev=str(tmp_path / "dev.jsonl"), node_budgets=(3, 6, 10))
    calls, _ = recorded_preparations(monkeypatch)
    ablate_subgraph(cfg)
    assert sorted((split, tc.max_nodes) for split, tc, _ in calls) == [
        (split, budget) for split in ("dev", "test", "train") for budget in (3, 6, 10)]


@pytest.mark.parametrize("script", ["run_lowdata.py", "run_ablation.py"])
def test_script_imports_and_parses_help(script):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
