"""Text checkpoint round trips and model state restoration."""

import re

import numpy as np
import pytest

from actknow.checkpoint import load_checkpoint, save_checkpoint
from actknow.errors import ConfigError
from actknow.kg import graph_from_triples
from actknow.training import model_from_state

from conftest import tiny_config, tiny_model


def sample_state():
    rng = np.random.default_rng(1)
    return {
        "alpha": rng.normal(size=(3, 2)),
        "beta": rng.normal(size=(4,)),
        "gamma": np.array(2.5),
    }


def test_roundtrip_is_exact(tmp_path):
    state = sample_state()
    # make sure awkward values survive the text encoding
    state["alpha"][0, 0] = 1e-300
    state["alpha"][0, 1] = -0.1
    state["beta"][1] = 1.0 / 3.0
    path = str(tmp_path / "ck.txt")
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(state)
    for name, arr in state.items():
        assert loaded[name].shape == np.asarray(arr).shape
        assert np.array_equal(loaded[name], arr), name


def test_rewrite_is_byte_identical(tmp_path):
    state = sample_state()
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    save_checkpoint(str(a), state)
    save_checkpoint(str(b), load_checkpoint(str(a)))
    assert a.read_bytes() == b.read_bytes()


def test_rejects_whitespace_in_name(tmp_path):
    with pytest.raises(ValueError):
        save_checkpoint(str(tmp_path / "x.txt"), {"bad name": np.zeros(2)})


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
    path.write_text("tensors 1\nw 1 3\n1.0 2.0\n")
    with pytest.raises(ConfigError, match="expected 3"):
        load_checkpoint(str(path))


def test_rejects_bad_value(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("tensors 1\nw 1 2\n1.0 oops\n")
    with pytest.raises(ConfigError, match=r"x\.txt:3: bad value in tensor w"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_rejects_non_finite_value(tmp_path, value):
    path = tmp_path / "x.txt"
    path.write_text(f"tensors 2\nv 1 1\n0.5\nw 1 2\n1.0 {value}\n")
    with pytest.raises(ConfigError, match=r"x\.txt:5: non-finite value in tensor w"):
        load_checkpoint(str(path))


def test_rejects_lines_after_the_counted_tensors(tmp_path):
    path = tmp_path / "x.txt"
    save_checkpoint(str(path), {"w": np.arange(2.0)})
    path.write_text(path.read_text() + "junk\n")
    with pytest.raises(ConfigError, match=r"x\.txt:4: unexpected line after the 1 tensors"):
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
    ],
)
def test_every_load_error_names_its_line(tmp_path, text, line):
    path = tmp_path / "x.txt"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"x\.txt:{line}: "):
        load_checkpoint(str(path))


def build_model():
    graph = graph_from_triples([("a", "r", "b"), ("b", "r", "c")])
    config = tiny_config()
    return tiny_model(graph, config, vocab_size=12)


def test_model_state_roundtrip(tmp_path):
    model = build_model()
    path = tmp_path / "model.txt"
    save_checkpoint(str(path), model.state_arrays())
    rebuilt = model_from_state(load_checkpoint(str(path)))
    for name, tensor in model.named().items():
        assert np.array_equal(tensor.data, rebuilt.named()[name].data), name


def test_model_from_state_requires_all_tensors():
    state = build_model().state_arrays()
    del state["classifier"]
    with pytest.raises(ConfigError, match="classifier"):
        model_from_state(state)


@pytest.mark.parametrize("extra, dropped", [("mystery", None), ("gcn.layer_extra", None), (None, "gcn.layer0")])
def test_model_from_state_rejects_a_tensor_no_model_has(extra, dropped):
    """GCN layers are read from gcn.layer0 up, so a layer after a gap is as
    unknown as any other stray tensor."""
    state = build_model().state_arrays()
    if extra:
        state[extra] = np.zeros(2)
    if dropped:
        del state[dropped]
    unknown = [extra] if extra else ["gcn.layer1"]
    with pytest.raises(ConfigError, match=re.escape(f"tensors no model has: {unknown}")):
        model_from_state(state)


UNCHAINED = [("classifier", (31,)), ("gcn.layer1", (7, 8)), ("gcn.layer0", (5, 8)), ("text.projection", (8, 7)),
             ("text.token_embedding", (12, 9)), ("gcn.node_features", (2, 6)), ("er.entity_proj", (5, 8)),
             ("er.relation_proj", (4,))]


@pytest.mark.parametrize("name, shape", UNCHAINED, ids=[name for name, _ in UNCHAINED])
def test_model_from_state_checks_that_shapes_chain(name, shape):
    """text_dim 8, node_dim 6, kg_dim 4, gcn_hidden 8, 3 entities: each
    tensor cut to a shape that does not chain with the others is named."""
    state = build_model().state_arrays()
    state[name] = np.zeros(shape)
    with pytest.raises(ConfigError, match=rf"checkpoint tensor {re.escape(name)} has shape"):
        model_from_state(state)


def test_load_state_arrays_rejects_mismatches():
    model = build_model()
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
    model = build_model()
    state = model.state_arrays()
    state["classifier"][:] = 7.0
    model.load_state_arrays(state)
    assert np.all(model.classifier.data == 7.0)
    state["classifier"][:] = 9.0
    assert np.all(model.classifier.data == 7.0)
