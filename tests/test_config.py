"""Config file parsing, setting parsing, and setting precedence."""

import dataclasses
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from actknow.cli import READS, _flag_values, build_parser, main
from actknow.config import ExperimentConfig, parse_config_file, parse_setting, resolve_config
from actknow.errors import ConfigError
from actknow.pipeline import training_config_for
from actknow.synth import SyntheticSpec


def write_config(tmp_path, text):
    path = tmp_path / "run.conf"
    path.write_text(text)
    return str(path)


def resolve(path, command="train", flag_values=None):
    """resolve_config as `command` calls it: the settings it reads, flag
    values over the file at path."""
    return resolve_config(ExperimentConfig, flag_values or {}, path, command, READS[command])


def resolve_spec(path):
    """resolve_config as gen-synth calls it, on the file at path."""
    return resolve_config(SyntheticSpec, {}, path, "gen-synth", [f.name for f in dataclasses.fields(SyntheticSpec)])


def test_parse_key_value_lines(tmp_path):
    path = write_config(
        tmp_path,
        """
        # comment line
        seed = 7
        mode = act-know  # trailing comment
        learning_rate = 0.5

        node_budgets = 3, 20
        """,
    )
    values = parse_config_file(ExperimentConfig, path, "ablate-subgraph", READS["ablate-subgraph"])
    assert values == {
        "seed": 7,
        "mode": "act-know",
        "learning_rate": 0.5,
        "node_budgets": (3, 20),
    }


def test_parse_rejects_unknown_key(tmp_path):
    for line in ("bogus = 1", "warmup_steps = 3", "use_er = false"):
        path = write_config(tmp_path, line + "\n")
        with pytest.raises(ConfigError, match=rf":1: unknown setting '{line.split()[0]}'"):
            parse_config_file(ExperimentConfig, path, "train", READS["train"])


def test_parse_rejects_a_repeated_key(tmp_path, capsys):
    """A repeated key is refused, as in a checkpoint's settings block,
    rather than the last line winning."""
    path = write_config(tmp_path, "seed = 1\n# a comment\nlearning_rate = 0.5\n\nseed = 1\n")
    message = f"{path}:5: setting 'seed' repeats line 1"
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        parse_config_file(ExperimentConfig, path, "train", READS["train"])
    assert main(["train", "--config", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_parse_rejects_missing_equals(tmp_path):
    path = write_config(tmp_path, "seed 7\n")
    with pytest.raises(ConfigError, match=r":1:"):
        parse_config_file(ExperimentConfig, path, "train", READS["train"])


def test_parse_rejects_empty_value(tmp_path):
    path = write_config(tmp_path, "seed =\n")
    with pytest.raises(ConfigError, match=r":1:"):
        parse_config_file(ExperimentConfig, path, "train", READS["train"])


def test_parse_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(ExperimentConfig, "/nonexistent/run.conf", "train", READS["train"])


def test_coercion_types(tmp_path):
    cfg = resolve(write_config(tmp_path, "seed = 3\nlearning_rate = 0.25\nnode_budgets = 2,8\n"), "ablate-subgraph")
    assert cfg.seed == 3
    assert cfg.learning_rate == 0.25
    assert cfg.node_budgets == (2, 8)
    assert resolve_spec(write_config(tmp_path, "split_by_chain = yes\n")).split_by_chain is True
    assert resolve_spec(write_config(tmp_path, "split_by_chain = false\n")).split_by_chain is False
    cfg = resolve(write_config(tmp_path, "fractions = 0.5,1.0\nseeds = 4, 5\nmodes = text-only\n"), "sweep-fraction")
    assert cfg.fractions == (0.5, 1.0)
    assert cfg.seeds == (4, 5)
    assert cfg.modes == ("text-only",)


def test_coercion_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        resolve(write_config(tmp_path, "seed = seven\n"))
    with pytest.raises(ConfigError):
        resolve_spec(write_config(tmp_path, "split_by_chain = maybe\n"))
    with pytest.raises(ConfigError):
        resolve(write_config(tmp_path, "seeds = 1,x\n"), "sweep-fraction")


def test_bad_value_names_its_line_and_setting_once(tmp_path):
    path = write_config(tmp_path, "seed = 1\nsplit_by_chain = maybe\n")
    with pytest.raises(ConfigError) as info:
        resolve_spec(path)
    assert str(info.value).startswith(f"{path}:2: setting split_by_chain: expected a boolean")
    assert str(info.value).count("split_by_chain") == 1


@pytest.mark.parametrize("raw, value", [*[(t, True) for t in ("true", "1", "yes", "on", "TRUE", "On")],
                                        *[(t, False) for t in ("false", "0", "no", "off", "FALSE", "Off")]])
def test_boolean_spellings(raw, value):
    assert parse_setting(SyntheticSpec, "split_by_chain", raw) is value


# every character a config-file value may hold: a line ends at "\r" or "\n",
# a comment at "#", and the value is stripped
_TEXT = st.text(st.characters(codec="utf-8", exclude_characters="#\r\n"), min_size=1).map(str.strip).filter(bool)


def _setting(default):
    """A strategy of (value, the text that writes it) for a setting with
    this default."""
    if isinstance(default, tuple):
        element = _setting(default[0]).filter(lambda pair: "," not in pair[1])
        return st.lists(element, min_size=1, max_size=4).map(
            lambda pairs: (tuple(v for v, _ in pairs), ",".join(t for _, t in pairs)))
    if isinstance(default, bool):
        return st.booleans().map(lambda v: (v, str(v).lower()))
    if isinstance(default, int):
        return st.integers().map(lambda v: (v, str(v)))
    if isinstance(default, float):
        return st.floats(allow_nan=False).map(lambda v: (v, repr(v)))
    return _TEXT.map(lambda v: (v, v))


def _flag(name, value, text):
    """The command-line argument that sets name: a bool by its flag's form,
    any other setting by its text."""
    if isinstance(value, bool):
        return ("--" if value else "--no-") + name.replace("_", "-")
    return f"--{name.replace('_', '-')}={text}"


# each subcommand with the settings dataclass it reads its flags into
COMMANDS = [(ExperimentConfig, [command]) for command in ("train", "eval", "sweep-fraction", "ablate-subgraph")]
COMMANDS.append((SyntheticSpec, ["gen-synth", "--out-dir=unused"]))


@pytest.mark.parametrize("cls, command", COMMANDS, ids=[c[0] for _, c in COMMANDS])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_every_setting_round_trips_as_flag_and_file_line(tmp_path, cls, command, data):
    """Each setting the command reads, written as text, parses back to its
    value, and the same text gives the same settings as a --flag and as a
    config-file line."""
    reads = build_parser().parse_args(command).reads
    fields = [f for f in dataclasses.fields(cls) if f.name in reads]
    pairs = data.draw(st.tuples(*[_setting(f.default) for f in fields]))
    values = {f.name: value for f, (value, _) in zip(fields, pairs)}
    texts = {f.name: text for f, (_, text) in zip(fields, pairs)}
    for name, text in texts.items():
        assert parse_setting(cls, name, text) == values[name]

    path = tmp_path / "all.conf"
    path.write_text("".join(f"{name} = {text}\n" for name, text in texts.items()), encoding="utf-8")
    from_file = parse_config_file(cls, str(path), command[0], reads)

    flags = [_flag(name, values[name], text) for name, text in texts.items()]
    from_flags = _flag_values(build_parser().parse_args([*command, *flags]))

    assert from_file == from_flags == values
    assert cls(**from_file) == cls(**from_flags) == cls(**values)


def test_a_file_line_the_command_does_not_read_names_its_line(tmp_path):
    path = write_config(tmp_path, "split = dev\nlearning_rate = 0.1\n")
    assert resolve_config(ExperimentConfig, {}, path, "train", ("split", "learning_rate")).split == "dev"
    with pytest.raises(ConfigError) as info:
        resolve_config(ExperimentConfig, {}, path, "eval", ("split",))
    assert str(info.value) == f"{path}:2: eval does not read setting 'learning_rate'"
    with pytest.raises(ConfigError, match=r":1: unknown setting 'bogus'"):
        resolve_config(ExperimentConfig, {}, write_config(tmp_path, "bogus = 1\n"), "eval", ("split",))


def test_flags_override_file(tmp_path):
    path = write_config(tmp_path, "learning_rate = 0.5\nmode = base-know\n")
    cfg = resolve(path, flag_values={"learning_rate": 0.125})
    assert cfg.learning_rate == 0.125
    assert cfg.mode == "base-know"


def test_resolved_config_is_validated(tmp_path):
    with pytest.raises(ConfigError):
        resolve(write_config(tmp_path, "mode = sideways\n"))
    with pytest.raises(ConfigError):
        resolve(write_config(tmp_path, "fractions = 0.0\n"), "sweep-fraction")
    with pytest.raises(ConfigError):
        resolve(write_config(tmp_path, "node_budgets = 0\n"), "ablate-subgraph")
    with pytest.raises(ConfigError):
        resolve(write_config(tmp_path, "split = validation\n"), "eval")
    with pytest.raises(ConfigError):
        resolve(write_config(tmp_path, "modes = nonsense\n"), "sweep-fraction")


def test_require_names_the_flag():
    cfg = ExperimentConfig()
    with pytest.raises(ConfigError, match=r"--kg"):
        cfg.require("kg")
    with pytest.raises(ConfigError, match=r"--node-features"):
        cfg.require("node_features")


def test_training_config_for_overrides_a_copy():
    cfg = ExperimentConfig(mode="act-know", learning_rate=0.75, max_nodes=9, kg="x.tsv")
    tc = training_config_for(cfg, max_nodes=4, seed=3)
    assert (tc.mode, tc.learning_rate, tc.max_nodes, tc.seed, tc.kg) == ("act-know", 0.75, 4, 3, "x.tsv")
    assert (cfg.max_nodes, cfg.seed) == (9, 0)
    with pytest.raises(ConfigError):
        training_config_for(cfg, max_nodes=0)


# settings that are module constants now: a config line that sets one is
# refused as an unknown setting, whatever its value
REMOVED = ("gumbel_temperature", "adam_beta1", "adam_beta2", "adam_eps", "weight_decay")


def rejection(name):
    return f"unknown setting '{name}'" if name in REMOVED else name


@pytest.mark.parametrize("line", ["adam_beta1 = 1.0", "adam_beta2 = 1.0", "adam_eps = 0"])
def test_rejects_adam_settings_whose_first_step_is_nan(tmp_path, line):
    """Adam's betas and eps are fixed in optim, so a config can no longer set
    a value whose first step is nan: the line is refused."""
    name = line.split()[0]
    with pytest.raises(ConfigError, match=rejection(name)):
        resolve(write_config(tmp_path, line + "\n"))


@pytest.mark.parametrize("name, value", [
    *[(name, value) for name in ("learning_rate", "gumbel_temperature", "adam_eps") for value in ("nan", "inf")],
    ("weight_decay", "nan"), ("weight_decay", "inf"), ("weight_decay", "-0.1"),
])
def test_rejects_a_non_finite_or_negative_rate(tmp_path, name, value):
    """nan compares false with every bound, so each check is a range it must lie in."""
    with pytest.raises(ConfigError, match=rejection(name)):
        resolve(write_config(tmp_path, f"{name} = {value}\n"))
