"""Command-line behavior: subcommands, outputs, exit codes, determinism."""

import dataclasses
import json
import logging
import math
import os
import shutil
import subprocess
import sys

import pytest

from actknow.cli import READS, _resolved, build_parser, main
from actknow.config import ExperimentConfig
from actknow.experiments import ABLATION_HEADER, SWEEP_HEADER, sweep_fraction
from actknow.pipeline import training_config_for
from actknow.scenarios import NOISY_SPEC
from actknow.training import STATS_HEADER

TASK_FILES = ("kg.tsv", "corpus.txt", "node_features.txt", "train.jsonl", "dev.jsonl", "test.jsonl")

GEN_FLAGS = ["--n-entities", "20", "--n-relations", "3", "--n-questions", "12",
             "--seed", "3", "--node-dim", "8"]

# ablate-subgraph sets max_nodes from --node-budgets, so it takes no --max-nodes
ABLATE_FLAGS = ["--text-dim", "8", "--node-dim", "8", "--kg-dim", "4", "--gcn-hidden", "8",
                "--gcn-layers", "2", "--master-epochs", "1", "--sub-epochs", "1",
                "--kg-epochs", "2", "--pretrain-epochs", "0", "--batch-size", "4",
                "--retrieve-k", "3", "--weight-decay", "0.01", "--learning-rate", "0.01"]
TINY_FLAGS = [*ABLATE_FLAGS, "--max-nodes", "10"]


def data_flags(task_dir, with_features=True):
    flags = [
        "--kg", f"{task_dir}/kg.tsv",
        "--corpus", f"{task_dir}/corpus.txt",
        "--train", f"{task_dir}/train.jsonl",
        "--dev", f"{task_dir}/dev.jsonl",
        "--test", f"{task_dir}/test.jsonl",
    ]
    if with_features:
        flags += ["--node-features", f"{task_dir}/node_features.txt"]
    return flags


@pytest.fixture(scope="module")
def task_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("clitask"))
    assert main(["gen-synth", "--out-dir", out, *GEN_FLAGS]) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(task_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("trained"))
    rc = main(["train", *data_flags(task_dir), *TINY_FLAGS, "--seed", "0", "--out-dir", out])
    assert rc == 0
    return out


def test_gen_synth_writes_task_files(task_dir, capsys):
    for name in TASK_FILES:
        assert os.path.exists(os.path.join(task_dir, name)), name


def test_gen_synth_is_deterministic(task_dir, tmp_path):
    again = str(tmp_path / "again")
    assert main(["gen-synth", "--out-dir", again, *GEN_FLAGS]) == 0
    for name in ("kg.tsv", "corpus.txt", "train.jsonl"):
        a = open(os.path.join(task_dir, name), "rb").read()
        b = open(os.path.join(again, name), "rb").read()
        assert a == b, name


def test_gen_synth_flags_reproduce_the_noisy_task(noisy_dir, tmp_path):
    """Every field of NOISY_SPEC given as a gen-synth flag writes the bundled
    noisy task byte for byte."""
    flags = []
    for f in dataclasses.fields(NOISY_SPEC):
        value = getattr(NOISY_SPEC, f.name)
        flag = f.name.replace("_", "-")
        flags.append((f"--{flag}" if value else f"--no-{flag}") if isinstance(value, bool) else f"--{flag}={value}")
    out = tmp_path / "noisy"
    assert main(["gen-synth", "--out-dir", str(out), *flags]) == 0
    for name in TASK_FILES:
        assert (out / name).read_bytes() == open(os.path.join(noisy_dir, name), "rb").read(), name


def test_train_writes_checkpoint_and_stats(trained_dir):
    assert os.path.exists(os.path.join(trained_dir, "checkpoint.txt"))
    stats = open(os.path.join(trained_dir, "stats.csv")).read().strip().split("\n")
    assert stats[0] == ",".join(STATS_HEADER)
    # one master epoch, train and dev rows
    assert len(stats) == 3
    assert stats[1].split(",")[1] == "train"
    assert stats[2].split(",")[1] == "dev"


def test_train_missing_kg_exits_one(tmp_path, capsys):
    rc = main(["train", "--train", "x.jsonl", "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "--kg" in captured.err


def test_unknown_flag_exits_one(capsys):
    rc = main(["train", "--no-such-flag", "1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_subcommand_exits_one(capsys):
    assert main(["fly"]) == 1


def test_each_subcommand_takes_only_the_settings_it_reads():
    """29 + 8 + 29 + 29 (subcommand, setting) pairs, each an ExperimentConfig
    field named once."""
    assert {command: len(names) for command, names in READS.items()} == {
        "train": 29, "eval": 8, "sweep-fraction": 29, "ablate-subgraph": 29}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for names in READS.values():
        assert len(set(names)) == len(names) and set(names) <= fields


@pytest.mark.parametrize("command, flag", [
    ("train", "--fractions=0.5"), ("train", "--checkpoint=x"),
    ("eval", "--gcn-layers=3"), ("eval", "--learning-rate=0.1"), ("eval", "--seed=1"),
    ("sweep-fraction", "--seed=9"), ("sweep-fraction", "--mode=text-only"),
    ("sweep-fraction", "--data-fraction=0.5"), ("ablate-subgraph", "--max-nodes=5"),
    ("ablate-subgraph", "--split=dev"), ("train", "--entropy-split=dev"),
    ("sweep-fraction", "--warmup-steps=3"), ("eval", "--dataset-name=arc-easy"),
    ("train", "--use-gcn"), ("eval", "--no-use-er"), ("sweep-fraction", "--use-er"),
    ("eval", "--mode=act-know"), ("eval", "--batch-size=4"), ("eval", "--max-nodes=10"),
])
def test_a_setting_the_command_does_not_read_exits_one(command, flag, capsys):
    assert main([command, flag]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--learning-rate", "nan"), ("--gumbel-temperature", "inf"),
                                         ("--weight-decay", "-0.1"), ("--seed", "-1")])
def test_non_finite_or_negative_setting_exits_one(flag, value, task_dir, tmp_path, capsys, caplog):
    rc = main(["train", *data_flags(task_dir), *TINY_FLAGS, flag, value, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert f"error: {flag[2:].replace('-', '_')} must be" in err
    assert "Traceback" not in err and not any(r.exc_info for r in caplog.records)


def test_eval_reports_accuracy(task_dir, trained_dir, tmp_path, capsys):
    out = str(tmp_path / "eval")
    rc = main([
        "eval", *data_flags(task_dir, with_features=False),
        "--checkpoint", os.path.join(trained_dir, "checkpoint.txt"),
        "--split", "test", "--out-dir", out,
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "test accuracy" in captured.out
    rows = open(os.path.join(out, "eval.jsonl")).read().strip().split("\n")
    test_rows = open(os.path.join(task_dir, "test.jsonl")).read().strip().split("\n")
    assert len(rows) == len(test_rows)


def test_eval_scores_the_whole_split_under_any_data_fraction(task_dir, trained_dir, tmp_path, capsys):
    """data_fraction draws the questions training reads; eval takes no
    --data-fraction and scores every question of its split."""
    out = str(tmp_path / "eval")
    argv = lambda *fraction: [
        "eval", *data_flags(task_dir, with_features=False), *fraction,
        "--checkpoint", os.path.join(trained_dir, "checkpoint.txt"),
        "--split", "train", "--out-dir", out,
    ]
    assert main(argv("--data-fraction", "0.5")) == 1
    assert "unrecognized arguments: --data-fraction 0.5" in capsys.readouterr().err
    rc = main(argv())
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    train_rows = open(os.path.join(task_dir, "train.jsonl")).read().strip().split("\n")
    rows = open(os.path.join(out, "eval.jsonl")).read().strip().split("\n")
    assert [json.loads(row)["id"] for row in rows] == [json.loads(row)["id"] for row in train_rows]
    assert f"over {len(train_rows)} questions" in captured.out


@pytest.mark.parametrize("command", [["train"], ["sweep-fraction", "--fractions", "1.0,0.1"]])
def test_a_fraction_that_selects_no_question_exits_one(command, task_dir, tmp_path, capsys, caplog):
    n_train = len(open(os.path.join(task_dir, "train.jsonl")).read().strip().split("\n"))
    fraction = ["--data-fraction", "0.1"] if command == ["train"] else []
    rc = main([*command, *data_flags(task_dir), *TINY_FLAGS, *fraction, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert f"error: data_fraction 0.1 selects none of the {n_train} train questions" in err
    assert "Traceback" not in err and not any(r.exc_info for r in caplog.records)


def test_eval_rejects_mismatched_checkpoint(task_dir, trained_dir, tmp_path, capsys):
    other = str(tmp_path / "other_task")
    assert main(["gen-synth", "--out-dir", other, "--n-entities", "23",
                 "--n-relations", "3", "--n-questions", "12", "--seed", "8",
                 "--node-dim", "8"]) == 0
    rc = main([
        "eval", *data_flags(other, with_features=False),
        "--checkpoint", os.path.join(trained_dir, "checkpoint.txt"),
        "--out-dir", str(tmp_path / "evalx"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_eval_rejects_non_finite_checkpoint(task_dir, trained_dir, tmp_path, capsys):
    lines = open(os.path.join(trained_dir, "checkpoint.txt")).read().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("tensors ")) + 2  # the first tensor's values
    values = lines[at].split()
    lines[at] = " ".join(["nan"] + values[1:])
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    rc = main([
        "eval", *data_flags(task_dir, with_features=False),
        "--checkpoint", str(bad), "--out-dir", str(tmp_path / "evalbad"),
    ])
    assert rc == 1
    assert f"{bad}:{at + 1}: non-finite value" in capsys.readouterr().err


@pytest.mark.parametrize("name, shape", [("classifier", (31,)), ("gcn.layer1", (7, 8))],
                         ids=["short-classifier", "broken-gcn-chain"])
def test_eval_rejects_a_checkpoint_whose_shapes_do_not_chain(name, shape, task_dir, trained_dir, tmp_path,
                                                             capsys, caplog):
    """A checkpoint that parses but holds `name` cut to `shape` exits 1
    naming the file and the tensor, before any product runs."""
    lines = open(os.path.join(trained_dir, "checkpoint.txt")).read().splitlines()
    at = next(i for i, line in enumerate(lines) if line.split()[0] == name)
    lines[at] = f"{name} {len(shape)} " + " ".join(map(str, shape))
    lines[at + 1] = " ".join(lines[at + 1].split()[: math.prod(shape)])
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    rc = main([
        "eval", *data_flags(task_dir, with_features=False),
        "--checkpoint", str(bad), "--out-dir", str(tmp_path / "evalbad"),
    ])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert f"error: {bad}: checkpoint tensor {name} has shape {shape}, expected" in err
    assert "Traceback" not in err and not any(r.exc_info for r in caplog.records)


def _edit_second_question(edit):
    """Corrupt a .jsonl file by applying edit(question, first question) to its
    second question."""
    def corrupt(data):
        lines = data.decode("utf-8").splitlines(keepends=True)
        question = json.loads(lines[1])
        edit(question, json.loads(lines[0]))
        lines[1] = json.dumps(question) + "\n"
        return "".join(lines).encode("utf-8")
    return corrupt


def _bad_byte_on_line_two(data):
    start = data.index(b"\n") + 1
    return data[:start] + b"\xff" + data[start:]


def _nan_on_line_two(data):
    lines = data.split(b"\n")
    token, _, values = lines[1].partition(b" ")
    lines[1] = token + b" nan" + values[values.index(b" "):]
    return b"\n".join(lines)


def _wordless_label_on_line_two(data):
    lines = data.split(b"\n")
    lines[1] = b"--\t" + lines[1].split(b"\t", 1)[1]
    return b"\n".join(lines)


def _feature_labels(second, first=None):
    """Corrupt a node features file by relabeling its second line, and its
    first too when a label for it is given."""
    def corrupt(data):
        lines = data.split(b"\n")
        for i, label in enumerate((first, second)):
            if label is not None:
                lines[i] = label + b" " + lines[i].split(b" ", 1)[1]
        return b"\n".join(lines)
    return corrupt


# eval reads every input file but the node features, which train reads
INPUT_FLAGS = ("--kg", "--corpus", "train --node-features", "--train", "--dev", "--test", "--checkpoint", "--config")

# (case, flag, corrupt the file's bytes, None to remove the file or the
# flag's own text, what follows "error: <path>:" on stderr for a file and
# "error: " for a text); a flag is eval's unless written "<command> --flag"
BAD_INPUTS = [
    ("duplicate-id", "--train", _edit_second_question(lambda q, first: q.update(id=first["id"])),
     "2: duplicate id"),
    ("fractional-answer", "--train", _edit_second_question(lambda q, _: q.update(answer_index=1.7)),
     "2: answer_index must be an integer"),
    ("boolean-answer", "--test", _edit_second_question(lambda q, _: q.update(answer_index=True)),
     "2: answer_index must be an integer"),
    ("string-choices", "--train", _edit_second_question(lambda q, _: q.update(choices="pq")),
     "2: choices must be a list"),
    ("integer-id", "--train", _edit_second_question(lambda q, _: q.update(id=7)),
     "2: id must be a string"),
    ("null-choice", "--test", _edit_second_question(lambda q, _: q.update(choices=[*q["choices"][:-1], None])),
     "2: choices must be strings"),
    ("wordless-question", "--train",
     _edit_second_question(lambda q, _: q.update(question="", choices=["?", "!"], answer_index=0)),
     "2: question has no word token"),
    ("wordless-choice", "--test", _edit_second_question(lambda q, _: q.update(choices=[*q["choices"][:-1], "?"])),
     "2: every choice needs a word token"),
    ("non-finite-feature", "train --node-features", _nan_on_line_two, "2: non-finite value"),
    ("wordless-feature-label", "train --node-features", _feature_labels(b"--"),
     "2: label '--' has no word token"),
    ("duplicate-feature-label", "train --node-features", _feature_labels(b"T_shirt", first=b"t-shirt"),
     "2: label 'T_shirt' repeats 't shirt', first on line 1"),
    ("wordless-label", "--kg", _wordless_label_on_line_two, "2: entity label '--' has no word token"),
    ("config-bad-seed", "train --config", lambda _: b"seed = abc\n", "1: setting seed:"),
    ("config-unread-setting", "--config", lambda _: b"learning_rate = 0.1\n",
     "1: eval does not read setting 'learning_rate'"),
    ("eval-node-features", "--node-features", "node_features.txt",
     "unrecognized arguments: --node-features=node_features.txt"),
    # the checkpoint of TINY_FLAGS: 'settings 22' on line 1, TrainConfig's
    # fields in order on lines 2-23 (learning_rate on 5, batch_size on 6, seed
    # on 7), 'tensors 11' on 24, then text.token_embedding, text.projection
    # and text.bias, each on a header line and a values line
    ("checkpoint-without-settings", "--checkpoint", lambda data: data.split(b"\n", 23)[23],
     "1: expected the header 'settings <n>', got 'tensors 11'"),
    ("checkpoint-missing-setting", "--checkpoint",
     lambda data: data.replace(b"settings 22\n", b"settings 21\n").replace(b"batch_size = 4\n", b""),
     "1: the settings block lacks batch_size"),
    ("checkpoint-unknown-setting", "--checkpoint",
     lambda data: data.replace(b"batch_size = 4\n", b"warmup_steps = 4\n"), "6: unknown setting 'warmup_steps'"),
    ("checkpoint-repeated-setting", "--checkpoint", lambda data: data.replace(b"seed = 0\n", b"batch_size = 4\n"),
     "7: repeated setting batch_size"),
    ("checkpoint-untyped-setting", "--checkpoint",
     lambda data: data.replace(b"batch_size = 4\n", b"batch_size = x\n"), "6: setting batch_size: "),
    ("checkpoint-out-of-range-setting", "--checkpoint",
     lambda data: data.replace(b"learning_rate = 0.01\n", b"learning_rate = nan\n"),
     "5: learning_rate must be positive and finite"),
    ("checkpoint-header-field", "--checkpoint", lambda data: data.replace(b"tensors 11\n", b"tensors 11 junk\n"),
     "24: expected the header 'tensors <n>'"),
    ("checkpoint-dims-past-ndim", "--checkpoint",
     lambda data: data.replace(b"\ntext.projection 2 8 8\n", b"\ntext.projection 2 8 8 99 7\n"),
     "27: bad tensor header"),
    ("checkpoint-loose-value", "--checkpoint",
     lambda data: data.replace(b"\ntext.bias 1 8\n", b"\ntext.bias 1 8\n2_0 "),
     "30: bad value in tensor text.bias"),
    *[(f"{flag.split()[-1][2:]}-not-utf8", flag, _bad_byte_on_line_two, "2: not valid UTF-8") for flag in INPUT_FLAGS],
    *[(f"{flag.split()[-1][2:]}-missing", flag, None, " cannot read") for flag in INPUT_FLAGS],
    ("kg-dashes", "--kg", "--", "--: cannot read"),
    ("seeds-dashes", "sweep-fraction --seeds", "--", "setting seeds: "),
    ("negative-seeds", "sweep-fraction --seeds", "0,-1", "seeds must be one or more integers >= 0"),
    ("gen-synth-negative-seed", "gen-synth --seed", "-1", "seed must be >= 0"),
    ("gen-synth-nan-feature-noise", "gen-synth --feature-noise", "nan", "feature_noise must be finite"),
    ("gen-synth-inf-feature-noise", "gen-synth --feature-noise", "inf", "feature_noise must be finite"),
    ("gen-synth-text-n-entities", "gen-synth --n-entities", "x", "setting n_entities: "),
]


@pytest.mark.parametrize("flag, corrupt, message", [case[1:] for case in BAD_INPUTS],
                         ids=[case[0] for case in BAD_INPUTS])
def test_bad_input_file_exits_one_naming_it(flag, corrupt, message, task_dir, trained_dir, tmp_path, capsys,
                                            caplog):
    """Every input file `eval` reads, its settings file too, and the node
    features `train` reads: a malformed, non-UTF-8 or missing file exits 1
    with a message naming the file (and the line), and no traceback. So does
    a flag text that its setting rejects, a flag the command does not read,
    and a settings-file line naming a setting it does not read."""
    command, _, flag = flag.rpartition(" ")
    if command == "gen-synth":
        argv = ["gen-synth", "--out-dir", str(tmp_path / "out"), *GEN_FLAGS]
    else:
        copy = tmp_path / "task"
        shutil.copytree(task_dir, copy)
        shutil.copy(os.path.join(trained_dir, "checkpoint.txt"), copy)
        setting = "batch_size = 4" if command else "split = test"
        (copy / "run.conf").write_text(f"# a valid settings file\n{setting}\n")
        if command:
            argv = [command, *data_flags(str(copy)), *TINY_FLAGS]
        else:
            argv = ["eval", *data_flags(str(copy), with_features=False), "--checkpoint",
                    str(copy / "checkpoint.txt")]
        argv += ["--config", str(copy / "run.conf"), "--out-dir", str(tmp_path / "out")]
    if isinstance(corrupt, str):
        argv.append(f"{flag}={corrupt}")
        expected = message
    else:
        path = argv[argv.index(flag) + 1]
        if corrupt is None:
            os.remove(path)
        else:
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(corrupt(data))
        expected = path + ":" + message
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1, err
    assert f"error: {expected}" in err
    assert "Traceback" not in err and not any(r.exc_info for r in caplog.records)


def test_sweep_fraction_csv(task_dir, tmp_path, capsys):
    out = str(tmp_path / "sweep")
    argv = [
        "sweep-fraction", *data_flags(task_dir), *TINY_FLAGS,
        "--fractions", "1.0", "--modes", "text-only", "--seeds", "0,1",
        "--out-dir", out,
    ]
    assert main(argv) == 0
    lines = open(os.path.join(out, "sweep.csv")).read().strip().split("\n")
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert len(lines) == 3
    for line in lines[1:]:
        fraction, mode, seed, acc = line.split(",")
        assert fraction == "1.0"
        assert mode == "text-only"
        assert 0.0 <= float(acc) <= 1.0


def test_sweep_rerun_is_byte_identical(task_dir, tmp_path):
    argv = lambda out: [
        "sweep-fraction", *data_flags(task_dir), *TINY_FLAGS,
        "--fractions", "0.5,1.0", "--modes", "base-know", "--seeds", "1",
        "--out-dir", out,
    ]
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert main(argv(a)) == 0
    assert main(argv(b)) == 0
    assert open(f"{a}/sweep.csv", "rb").read() == open(f"{b}/sweep.csv", "rb").read()


CELL_FILES = ["checkpoint.txt", "stats.csv", "test_predictions.jsonl"]


@pytest.fixture(scope="module")
def swept_dir(task_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("swept"))
    # three epochs, so that a cell's best state need not be its last
    assert main(["sweep-fraction", *data_flags(task_dir), *TINY_FLAGS, "--master-epochs", "3", "--fractions",
                 "0.5,1.0", "--modes", "text-only,base-know,act-know", "--seeds", "1", "--out-dir", out]) == 0
    return out


def test_each_command_writes_its_csv_and_one_directory_per_cell(task_dir, swept_dir, tmp_path):
    """sweep-fraction and ablate-subgraph write their CSV and one directory
    per cell holding exactly the cell's checkpoint, stats and test rows;
    train writes those three files into its out dir, the test rows only
    when a test split is given."""
    sweep_cells = [f"fraction-{f}-{m}-seed-1" for f in ("0.5", "1.0") for m in ("act-know", "base-know", "text-only")]
    assert sorted(os.listdir(swept_dir)) == [*sweep_cells, "sweep.csv"]
    ablated = tmp_path / "ablate"
    assert main(["ablate-subgraph", *data_flags(task_dir), *ABLATE_FLAGS, "--node-budgets", "3,6",
                 "--out-dir", str(ablated)]) == 0
    assert sorted(os.listdir(ablated)) == ["ablation.csv", "max-nodes-3", "max-nodes-6"]
    for cell_dir in [os.path.join(swept_dir, c) for c in sweep_cells] + [ablated / f"max-nodes-{b}" for b in (3, 6)]:
        assert sorted(os.listdir(cell_dir)) == CELL_FILES, cell_dir

    with_test = data_flags(task_dir)
    at = with_test.index("--test")
    for flags, files in ((with_test, CELL_FILES), (with_test[:at] + with_test[at + 2:], CELL_FILES[:2])):
        out = tmp_path / f"train-{len(files)}"
        assert main(["train", *flags, *TINY_FLAGS, "--out-dir", str(out)]) == 0
        assert sorted(os.listdir(out)) == files


@pytest.mark.parametrize("mode", ["act-know", "base-know", "text-only"])
def test_eval_of_a_sweep_cell_checkpoint_reproduces_its_test_predictions(mode, task_dir, swept_dir, tmp_path):
    """A sweep cell's checkpoint, evaluated by `eval` given only the data
    files, scores every test question exactly as the cell's own
    test_predictions.jsonl records: the checkpoint carries the cell's mode,
    its preparation settings and its batch size (a question's logits depend
    on its chunk-mates)."""
    cell_dir = os.path.join(swept_dir, f"fraction-0.5-{mode}-seed-1")
    out = tmp_path / "eval"
    assert main(["eval", *data_flags(task_dir, with_features=False),
                 "--checkpoint", os.path.join(cell_dir, "checkpoint.txt"), "--split", "test",
                 "--out-dir", str(out)]) == 0
    fields = lambda path: [{k: row[k] for k in ("id", "predicted", "gold", "entropy", "logits")}
                           for row in map(json.loads, open(path, encoding="utf-8"))]
    want = fields(os.path.join(cell_dir, "test_predictions.jsonl"))
    assert want and fields(out / "eval.jsonl") == want


def _cli_config(argv):
    """The ExperimentConfig that the command line `argv` resolves to."""
    return _resolved(build_parser().parse_args(argv))


def test_sweep_prepares_the_whole_train_split_under_any_data_fraction(task_dir, tmp_path, caplog, capsys):
    """Each sweep cell draws its own fraction from one preparation of the
    whole train split, so a data_fraction in the sweep's config changes
    neither the sample sizes logged nor the CSV. The command line cannot
    set one."""
    caplog.set_level(logging.INFO, logger="actknow.pipeline")
    argv = lambda out, *fraction: [
        "sweep-fraction", *data_flags(task_dir), *TINY_FLAGS, *fraction,
        "--fractions", "0.5,1.0", "--modes", "text-only", "--seeds", "0",
        "--out-dir", out,
    ]
    assert main(argv(str(tmp_path / "x"), "--data-fraction", "0.5")) == 1
    assert "unrecognized arguments: --data-fraction 0.5" in capsys.readouterr().err
    runs = []
    for name, fraction in (("a", 0.5), ("b", None)):
        caplog.clear()
        cfg = _cli_config(argv(str(tmp_path / name)))
        sweep_fraction(cfg if fraction is None else training_config_for(cfg, data_fraction=fraction))
        sampled = [r.getMessage() for r in caplog.records if "fraction sampling" in r.getMessage()]
        runs.append((sampled, (tmp_path / name / "sweep.csv").read_bytes()))
    assert runs[0][0] == ["training on 4 questions after fraction sampling"]
    assert runs[0] == runs[1]


def test_sweep_prepares_subgraphs_when_any_mode_reads_them(task_dir, tmp_path, capsys):
    """The sweep prepares its splits once for every mode. Prepared under a
    text-only mode in the sweep's config they must still carry the subgraphs
    that the base-know cells' GCN reads, so the CSV matches the default
    mode's. The command line cannot set a mode."""
    argv = lambda out, *mode: [
        "sweep-fraction", *data_flags(task_dir), *TINY_FLAGS, *mode,
        "--fractions", "1.0", "--modes", "text-only,base-know", "--seeds", "0",
        "--out-dir", out,
    ]
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert main(argv(a, "--mode", "text-only")) == 1
    assert "unrecognized arguments: --mode text-only" in capsys.readouterr().err
    sweep_fraction(training_config_for(_cli_config(argv(a)), mode="text-only"))
    assert main(argv(b)) == 0
    assert open(f"{a}/sweep.csv", "rb").read() == open(f"{b}/sweep.csv", "rb").read()


def test_ablate_subgraph_csv(task_dir, tmp_path):
    out = str(tmp_path / "ablate")
    argv = [
        "ablate-subgraph", *data_flags(task_dir), *ABLATE_FLAGS,
        "--node-budgets", "3,6", "--out-dir", out,
    ]
    assert main(argv) == 0
    lines = open(os.path.join(out, "ablation.csv")).read().strip().split("\n")
    assert lines[0] == ",".join(ABLATION_HEADER)
    assert [line.split(",")[0] for line in lines[1:]] == ["3", "6"]


def test_ablate_rejects_zero_budget(task_dir, tmp_path, capsys):
    rc = main([
        "ablate-subgraph", *data_flags(task_dir), *ABLATE_FLAGS,
        "--node-budgets", "0", "--out-dir", str(tmp_path),
    ])
    assert rc == 1
    assert "node_budgets" in capsys.readouterr().err


def test_train_rejects_a_beta_of_one(task_dir, tmp_path, capsys):
    config = tmp_path / "adam.cfg"
    config.write_text("adam_beta1 = 1.0\n")
    rc = main(["train", *data_flags(task_dir), *TINY_FLAGS, "--config", str(config),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "adam_beta1" in capsys.readouterr().err


def test_module_entry_point(task_dir, tmp_path):
    out = str(tmp_path / "module_gen")
    # the child finds the package the way this process does, from a checkout too
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "actknow", "gen-synth", "--out-dir", out, *GEN_FLAGS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out, "kg.tsv"))
