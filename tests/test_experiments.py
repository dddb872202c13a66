"""The shared experiment module: sign test values, the node features of a
sweep cell, and the runner scripts."""

import os
import subprocess
import sys

import numpy as np
import pytest

from actknow import pipeline
from actknow.config import ExperimentConfig
from actknow.experiments import sign_test_p, sweep_fraction
from actknow.kg import node_feature_table
from actknow.synth import SyntheticSpec, generate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("wins, losses, p", [(5, 0, 1 / 32), (4, 1, 6 / 32), (0, 0, 1.0)])
def test_sign_test_p_hand_values(wins, losses, p):
    assert sign_test_p(wins, losses) == p


def test_a_sweep_cell_draws_its_node_features_from_its_own_seed(tmp_path, monkeypatch):
    """With no node-features file every entity's features are drawn at
    random, from the seed of the cell that builds the model."""
    generate(SyntheticSpec(n_entities=20, n_relations=3, n_questions=12, seed=3, node_dim=8), str(tmp_path))
    cfg = ExperimentConfig(
        kg=str(tmp_path / "kg.tsv"), corpus=str(tmp_path / "corpus.txt"), train=str(tmp_path / "train.jsonl"),
        test=str(tmp_path / "test.jsonl"), out_dir=str(tmp_path / "out"), text_dim=8, node_dim=8, kg_dim=4,
        gcn_hidden=8, master_epochs=1, sub_epochs=1, kg_epochs=2, pretrain_epochs=0,
        fractions=(1.0,), modes=("base-know",), seeds=(2,),
    )
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


@pytest.mark.parametrize("script", ["run_lowdata.py", "run_ablation.py"])
def test_script_imports_and_parses_help(script):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
