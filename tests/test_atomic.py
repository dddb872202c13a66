"""Output files are replaced whole or not at all."""

import os

import numpy as np
import pytest

from actknow.atomic import atomic_write
from actknow.checkpoint import save_checkpoint
from actknow.training import write_stats_csv


def test_failing_write_leaves_existing_file_intact(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(str(path)) as fh:
            fh.write("new, half written")
            raise RuntimeError("disk full")
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failing_stats_write_keeps_previous_stats(tmp_path):
    path = str(tmp_path / "stats.csv")
    row = {"epoch": 1, "split": "train", "accuracy": 0.5, "mean_entropy": 1.0, "loss": 0.7}
    write_stats_csv(path, [row])
    before = open(path, "rb").read()
    with pytest.raises(KeyError):
        write_stats_csv(path, [row, {"epoch": 2, "split": "train"}])  # second row lacks fields
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["stats.csv"]


def test_writes_the_same_bytes_as_a_plain_write(tmp_path):
    save_checkpoint(str(tmp_path / "ckpt.txt"), {"w": np.array([[1.5, -2.0]])})
    assert (tmp_path / "ckpt.txt").read_bytes() == b"tensors 1\nw 2 1 2\n1.5 -2.0\n"
    with atomic_write(str(tmp_path / "rows.csv"), newline="") as fh:
        fh.write("a\r\nb\n")
    assert (tmp_path / "rows.csv").read_bytes() == b"a\r\nb\n"
    assert sorted(os.listdir(tmp_path)) == ["ckpt.txt", "rows.csv"]
