"""build_model trains the KG embedding tables only where ER attention, their
one reader, runs, against the model on trained tables that it replaces.

A text-only cell runs no ER attention and so reads no table row: it trains
and evaluates exactly as on the trained tables; of all the tensors the
model holds, only the two tables differ, and they are the seeded init of 0
epochs. The tables are read from the models, since a text-only state
does not hold them.
"""

from dataclasses import replace

import numpy as np
import pytest

from actknow.kg import node_feature_table, train_kg_embeddings
from actknow.pipeline import build_model, load_pipeline, prepare_split, training_config_for
from actknow.scenarios import lowdata_experiment
from actknow.training import evaluate, init_model, train

TABLES = ["er.entity_table", "er.relation_table"]


@pytest.fixture(scope="module")
def lowdata(lowdata_dir, tmp_path_factory):
    cfg = lowdata_experiment(lowdata_dir, str(tmp_path_factory.mktemp("out")))
    return cfg, load_pipeline(cfg)


def _model_on_trained_tables(pipe, tc):
    """The oracle: the model on tables trained for tc.kg_epochs, as
    build_model built it in every mode before it checked for ER attention."""
    node_features = node_feature_table(pipe.graph, tc.node_dim, tc.seed, pipe.node_features_path)
    ent, rel = train_kg_embeddings(pipe.graph, tc.kg_dim, tc.kg_epochs, tc.seed)
    return init_model(len(pipe.vocab.tokens), ent, rel, node_features, tc)


def _every_tensor(model):
    """Every tensor the model holds, by name: the named tensors of the same
    model viewed as graph-side."""
    return {name: t.data.copy() for name, t in replace(model, graph_side=True).named().items()}


@pytest.mark.parametrize("mode", ["text-only"])
def test_a_cell_without_er_attention_trains_as_on_trained_tables(mode, lowdata):
    cfg, pipe = lowdata
    tc = training_config_for(cfg, data_fraction=0.2, mode=mode)
    assert not tc.graph_side and tc.kg_epochs > 0
    train_qs, dev_qs, test_qs = (prepare_split(pipe, split, tc) for split in ("train", "dev", "test"))

    runs = []
    for model in (build_model(pipe, tc), _model_on_trained_tables(pipe, tc)):
        result = train(model, train_qs, dev_qs, tc)
        model.load_state_arrays(result.best_state)
        runs.append((result, evaluate(test_qs, model, tc, with_details=True), _every_tensor(model)))
    (got, got_eval, got_state), (want, want_eval, want_state) = runs

    assert got.stats == want.stats
    assert got_eval == want_eval
    assert got_state.keys() == want_state.keys()
    assert [n for n in got_state if not np.array_equal(got_state[n], want_state[n])] == TABLES
    for name, table in zip(TABLES, train_kg_embeddings(pipe.graph, tc.kg_dim, 0, tc.seed)):
        assert np.array_equal(got_state[name], table.vectors)


def test_an_act_know_cell_reads_the_trained_tables(lowdata):
    cfg, pipe = lowdata
    tc = training_config_for(cfg, mode="act-know")
    model = build_model(pipe, tc)
    ent, rel = train_kg_embeddings(pipe.graph, tc.kg_dim, tc.kg_epochs, tc.seed)
    assert model.er.entity_table.data is ent.vectors
    assert model.er.relation_table.data is rel.vectors
