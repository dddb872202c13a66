import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from actknow import experiments
from actknow.config import ExperimentConfig
from actknow.kg import EmbeddingTable, graph_from_triples
from actknow.scenarios import LOWDATA_SPEC, NOISY_SPEC, ensure_generated, lowdata_experiment, noisy_experiment
from actknow.training import TrainConfig, init_model

# a small task for the command-line tests: `gen-synth` flags, and the model
# flags that train, sweep-fraction and ablate-subgraph all read.
# ablate-subgraph sets max_nodes from --node-budgets, so it takes no
# --max-nodes; sweep-fraction takes its seed from --seeds
GEN_FLAGS = ["--n-entities", "20", "--n-questions", "12", "--seed", "3", "--node-dim", "8"]
ABLATE_FLAGS = ["--text-dim", "8", "--node-dim", "8", "--gcn-hidden", "8",
                "--master-epochs", "1", "--sub-epochs", "1", "--pretrain-epochs", "0",
                "--learning-rate", "0.01"]
TINY_FLAGS = [*ABLATE_FLAGS, "--max-nodes", "10"]

# the width of tiny_model's KG tables, drawn here rather than trained, so
# that the finite-difference suites stay small; a built model's is kg.KG_DIM
TINY_KG_DIM = 4


@pytest.fixture(scope="session")
def lowdata_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("lowdata")
    ensure_generated(LOWDATA_SPEC, str(path))
    return str(path)


@pytest.fixture(scope="session")
def noisy_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("noisy")
    ensure_generated(NOISY_SPEC, str(path))
    return str(path)


@dataclass
class ExperimentRun:
    cfg: ExperimentConfig
    rows: list
    elapsed_s: float  # from building the config to the CSV written
    cell_configs: dict[str, ExperimentConfig]  # the config each cell directory was trained with


def _run_experiment(run, experiment, data_dir: str, out_dir: str) -> ExperimentRun:
    """`run(experiment(data_dir, out_dir))`, recording the config that
    experiments.run_cell trains each cell directory with."""
    cell_configs = {}

    def recording_run_cell(pipe, tc, *splits_and_dir):
        cell_configs[os.path.basename(splits_and_dir[-1])] = tc
        return run_cell(pipe, tc, *splits_and_dir)

    run_cell = experiments.run_cell
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "run_cell", recording_run_cell)
        start = time.monotonic()
        cfg = experiment(data_dir, out_dir)
        rows = run(cfg)
        elapsed_s = time.monotonic() - start
    return ExperimentRun(cfg, rows, elapsed_s, cell_configs)


@pytest.fixture(scope="session")
def lowdata_sweep(lowdata_dir, tmp_path_factory):
    """Criterion 7's sweep on the bundled lowdata task, trained once per
    session: criterion 7 reads its rows and time, tests/test_golden.py
    hashes the files of its two benchmark cells."""
    out = tmp_path_factory.mktemp("lowdata-sweep")
    return _run_experiment(experiments.sweep_fraction, lowdata_experiment, lowdata_dir, str(out))


@pytest.fixture(scope="session")
def noisy_ablation(noisy_dir, tmp_path_factory):
    """Criterion 8's node-budget ablation on the bundled noisy task, trained
    once per session: criterion 8 reads its rows, tests/test_golden.py hashes
    the files of every cell."""
    out = tmp_path_factory.mktemp("noisy-ablation")
    return _run_experiment(experiments.ablate_subgraph, noisy_experiment, noisy_dir, str(out))


@pytest.fixture
def chain_graph():
    """a - r1 -> b - r2 -> c plus a spur d, enough for path tests."""
    return graph_from_triples(
        [("a", "r1", "b"), ("b", "r2", "c"), ("b", "r1", "d")]
    )


def tiny_config(**overrides) -> TrainConfig:
    base = dict(
        mode="base-know",
        master_epochs=2,
        sub_epochs=1,
        learning_rate=1e-2,
        seed=0,
        text_dim=8,
        node_dim=6,
        gcn_hidden=8,
        pretrain_epochs=0,
    )
    base.update(overrides)
    cfg = TrainConfig(**base)
    cfg.validate()
    return cfg


def mark_leaves(*tensors):
    """Mark tensors as gradient leaves and return them in a list. Parameters
    are built inert, and training marks only its optimizer's tensors while
    the updates run, so a test that differentiates through freshly built
    parameters marks the ones it reads itself."""
    for t in tensors:
        t.requires_grad = True
    return list(tensors)


def tiny_model(graph, config: TrainConfig, vocab_size: int = 20):
    rng = np.random.default_rng(7)
    entities = EmbeddingTable(
        dim=TINY_KG_DIM, vectors=rng.normal(0.0, 0.5, (graph.n_entities, TINY_KG_DIM))
    )
    relations = EmbeddingTable(
        dim=TINY_KG_DIM, vectors=rng.normal(0.0, 0.5, (graph.n_relations, TINY_KG_DIM))
    )
    nodes = EmbeddingTable(
        dim=config.node_dim, vectors=rng.normal(0.0, 0.5, (graph.n_entities, config.node_dim))
    )
    return init_model(vocab_size, entities, relations, nodes, config)
