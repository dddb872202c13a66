"""Text checkpoint round trips, and model state restored into a model built
as train and eval build it."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from actknow.checkpoint import load_checkpoint, save_checkpoint
from actknow.config import parse_setting, stored_train_config, train_settings
from actknow.encoders import build_vocab
from actknow.errors import ConfigError
from actknow.kg import graph_from_triples
from actknow.pipeline import Pipeline, build_model
from actknow.training import TrainConfig

from conftest import tiny_config
from test_config import _setting


def sample_state():
    rng = np.random.default_rng(1)
    return {
        "alpha": rng.normal(size=(3, 2)),
        "beta": rng.normal(size=(4,)),
        "gamma": np.array(2.5),
    }


SETTINGS = {"mode": "act-know", "seed": "3", "blank": "", "spaced": " a = b "}


def test_roundtrip_is_exact(tmp_path):
    state = sample_state()
    # make sure awkward values survive the text encoding
    state["alpha"][0, 0] = 1e-300
    state["alpha"][0, 1] = -0.1
    state["beta"][1] = 1.0 / 3.0
    path = str(tmp_path / "ck.txt")
    save_checkpoint(path, state, SETTINGS)
    stored, loaded = load_checkpoint(path)
    assert list(stored.items()) == list(SETTINGS.items())
    assert set(loaded) == set(state)
    for name, arr in state.items():
        assert loaded[name].shape == np.asarray(arr).shape
        assert np.array_equal(loaded[name], arr), name


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
def test_every_finite_value_loads_back_exactly(tmp_path, values):
    """load_checkpoint reads values only in the form repr() writes them, and
    every form repr() writes is one of them."""
    path = str(tmp_path / "ck.txt")
    save_checkpoint(path, {"w": np.array(values)})
    loaded = load_checkpoint(path)[1]["w"]
    assert loaded.tolist() == values and np.array_equal(np.signbit(loaded), np.signbit(values))


def test_rewrite_is_byte_identical(tmp_path):
    state = sample_state()
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    save_checkpoint(str(a), state, SETTINGS)
    stored, loaded = load_checkpoint(str(a))
    save_checkpoint(str(b), loaded, stored)
    assert a.read_bytes() == b.read_bytes()


def test_rejects_whitespace_in_name(tmp_path):
    with pytest.raises(ValueError):
        save_checkpoint(str(tmp_path / "x.txt"), {"bad name": np.zeros(2)})


@pytest.mark.parametrize("name, text", [("", "1"), ("a b", "1"), ("a\tb", "1"), ("a", "1\n2"), ("a", "1\r2")])
def test_save_rejects_a_setting_that_would_not_load_back(tmp_path, name, text):
    path = tmp_path / "x.txt"
    with pytest.raises(ValueError, match="would not load back"):
        save_checkpoint(str(path), {"w": np.zeros(2)}, {name: text})
    assert not path.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_rejects_non_finite_value(tmp_path, value):
    path = tmp_path / "x.txt"
    with pytest.raises(ValueError, match="tensor w has a non-finite value"):
        save_checkpoint(str(path), {"v": np.zeros(2), "w": np.array([1.0, value])})
    assert not path.exists()


@pytest.mark.parametrize("bad", [{"w": np.array([1.0, np.nan])}, {"bad name": np.zeros(2)}])
def test_rejected_later_tensor_keeps_the_old_file(tmp_path, bad):
    """The tensors before the rejected one are already written to the
    temporary file; the old checkpoint stays and no temporary file is left."""
    path = tmp_path / "ck.txt"
    save_checkpoint(str(path), sample_state())
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save_checkpoint(str(path), {**sample_state(), **bad})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.txt"]


def test_rejects_non_checkpoint_file(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("hello\n")
    with pytest.raises(ConfigError, match="header"):
        load_checkpoint(str(path))


def test_rejects_truncated_file(tmp_path):
    path = tmp_path / "x.txt"
    save_checkpoint(str(path), {"w": np.arange(4.0)})
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ConfigError):
        load_checkpoint(str(path))


def test_rejects_wrong_value_count(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("settings 0\ntensors 1\nw 1 3\n1.0 2.0\n")
    with pytest.raises(ConfigError, match="expected 3"):
        load_checkpoint(str(path))


def test_rejects_bad_value(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("settings 0\ntensors 1\nw 1 2\n1.0 oops\n")
    with pytest.raises(ConfigError, match=r"x\.txt:4: bad value in tensor w"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_rejects_non_finite_value(tmp_path, value):
    path = tmp_path / "x.txt"
    path.write_text(f"settings 0\ntensors 2\nv 1 1\n0.5\nw 1 2\n1.0 {value}\n")
    with pytest.raises(ConfigError, match=r"x\.txt:6: non-finite value in tensor w"):
        load_checkpoint(str(path))


def test_rejects_lines_after_the_counted_tensors(tmp_path):
    path = tmp_path / "x.txt"
    save_checkpoint(str(path), {"w": np.arange(2.0)})
    path.write_text(path.read_text() + "junk\n")
    with pytest.raises(ConfigError, match=r"x\.txt:5: unexpected line after the 1 tensors"):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "text, line",
    [
        ("hello\n", 1),
        ("tensors two\n", 1),
        ("tensors -1\n", 1),
        ("tensors 2\nw 1 1\n1.0\n", 4),
        ("tensors 1\nw\n1.0\n", 2),
        ("tensors 1\nw 2 3\n1.0\n", 2),
        ("tensors 1\nw 1 2\n", 3),
        ("tensors 1\nw 1 3\n1.0 2.0\n", 3),
        ("tensors 2\nw 1 1\n1.0\nw 1 1\n2.0\n", 4),
        # only the form save_checkpoint writes: no trailing header field, no
        # dimension past ndim, no number that float() or int() reads loosely
        ("tensors 1 junk\nw 1 2\n1.0 2.0\n", 1),
        ("tensors 1\nw 1 2 99 7\n1.0 20.0\n", 2),
        ("tensors 1\nw 1 2\n1.0 2_0\n", 3),
        ("tensors 01\nw 1 1\n1.0\n", 1),
        ("tensors 1\nw 1 +1\n1.0\n", 2),
        ("tensors 1\nw 1 1\n1e0\n", 3),
    ],
)
def test_every_load_error_names_its_line(tmp_path, text, line):
    """Each text is the tensor part of a checkpoint whose settings block,
    on line 1, is empty."""
    path = tmp_path / "x.txt"
    path.write_text("settings 0\n" + text)
    with pytest.raises(ConfigError, match=rf"x\.txt:{line + 1}: "):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "text, line",
    [
        ("tensors 1\nw 1 1\n1.0\n", 1),  # written before checkpoints held settings
        ("settings\ntensors 0\n", 1),
        ("settings 2\na = 1\na = 2\ntensors 0\n", 3),
        ("settings 1\na=1\ntensors 0\n", 2),
        ("settings 1\n = 1\ntensors 0\n", 2),
        ("settings 2\na = 1\ntensors 0\n", 3),
        ("settings 1\na = 1\n", 3),
    ],
)
def test_every_settings_error_names_its_line(tmp_path, text, line):
    path = tmp_path / "x.txt"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"x\.txt:{line}: "):
        load_checkpoint(str(path))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_every_train_config_round_trips_through_a_checkpoint(tmp_path, data):
    """Any TrainConfig, in range or not, saved as the settings block reads
    back exactly by parse_setting, the typing stored_train_config applies."""
    fields = dataclasses.fields(TrainConfig)
    tc = TrainConfig(**{f.name: data.draw(_setting(f.default))[0] for f in fields})
    path = str(tmp_path / "ck.txt")
    save_checkpoint(path, {}, train_settings(tc))
    stored, _ = load_checkpoint(path)
    assert list(stored) == [f.name for f in fields]
    assert TrainConfig(**{name: parse_setting(TrainConfig, name, text) for name, text in stored.items()}) == tc


def test_stored_train_config_reads_back_the_config_it_was_saved_with(tmp_path):
    tc = tiny_config(mode="act-know", learning_rate=1 / 3, data_fraction=0.2)
    path = str(tmp_path / "ck.txt")
    save_checkpoint(path, {}, train_settings(tc))
    assert stored_train_config(path, load_checkpoint(path)[0]) == tc


def build_pipeline():
    graph = graph_from_triples([("a", "r", "b"), ("b", "r", "c")])
    vocab = build_vocab([[f"w{i}" for i in range(10)]])
    return Pipeline(graph=graph, corpus=None, index=None, vocab=vocab, node_features_path=None, items={})


def fresh_model(seed=0):
    """A model built by pipeline.build_model, as train and eval build theirs:
    text_dim 8, node_dim 6, kg_dim 4, gcn_hidden 8, 3 entities."""
    return build_model(build_pipeline(), tiny_config(seed=seed))


def test_model_state_roundtrip(tmp_path):
    model = fresh_model()
    path = tmp_path / "model.txt"
    save_checkpoint(str(path), model.state_arrays())
    rebuilt = fresh_model(seed=1)
    rebuilt.load_state_arrays(load_checkpoint(str(path))[1])
    for name, tensor in model.named().items():
        assert np.array_equal(tensor.data, rebuilt.named()[name].data), name


def test_model_from_state_requires_all_tensors():
    state = fresh_model().state_arrays()
    del state["classifier"]
    with pytest.raises(ConfigError, match=re.escape("differing tensors: ['classifier']")):
        fresh_model().load_state_arrays(state)


@pytest.mark.parametrize("extra, dropped", [("mystery", None), ("gcn.layer_extra", None), (None, "gcn.layer0")])
def test_model_from_state_rejects_a_tensor_no_model_has(extra, dropped):
    """A model loaded from a state names each tensor the built model lacks,
    or that the state lacks."""
    state = fresh_model().state_arrays()
    if extra:
        state[extra] = np.zeros(2)
    if dropped:
        del state[dropped]
    with pytest.raises(ConfigError, match=re.escape(f"differing tensors: {[extra or dropped]}")):
        fresh_model().load_state_arrays(state)


UNCHAINED = [("classifier", (31,)), ("gcn.layer1", (7, 8)), ("gcn.layer0", (5, 8)), ("text.projection", (8, 7)),
             ("text.token_embedding", (12, 9)), ("gcn.node_features", (2, 6)), ("er.entity_proj", (5, 8)),
             ("er.relation_proj", (4,))]


@pytest.mark.parametrize("name, shape", UNCHAINED, ids=[name for name, _ in UNCHAINED])
def test_model_from_state_checks_that_shapes_chain(name, shape):
    """Each tensor cut to a shape that does not chain with the others
    differs from the built model's, and loading it names the tensor."""
    state = fresh_model().state_arrays()
    state[name] = np.zeros(shape)
    with pytest.raises(ConfigError, match=rf"checkpoint tensor {re.escape(name)} has shape"):
        fresh_model().load_state_arrays(state)


def test_load_state_arrays_rejects_mismatches():
    model = fresh_model()
    state = model.state_arrays()
    extra = dict(state)
    extra["mystery"] = np.zeros(2)
    with pytest.raises(ConfigError, match="mystery"):
        model.load_state_arrays(extra)
    wrong_shape = dict(state)
    wrong_shape["classifier"] = np.zeros(3)
    with pytest.raises(ConfigError, match="classifier"):
        model.load_state_arrays(wrong_shape)


def test_load_state_arrays_copies_data():
    model = fresh_model()
    state = model.state_arrays()
    state["classifier"][:] = 7.0
    model.load_state_arrays(state)
    assert np.all(model.classifier.data == 7.0)
    state["classifier"][:] = 9.0
    assert np.all(model.classifier.data == 7.0)
