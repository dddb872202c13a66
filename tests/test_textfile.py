"""The one reader behind every input loader."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actknow.errors import ConfigError
from actknow.textfile import read_lines


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["a", "b c", "\t", " ", "\n", "\r\n", "\r", "é", " ", "\x0c"]), max_size=12))
def test_lines_split_as_text_mode_open_splits_them(tmp_path_factory, pieces):
    path = tmp_path_factory.mktemp("lines") / "f.txt"
    path.write_bytes("".join(pieces).encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        expected = [line.removesuffix("\n") for line in fh]
    assert read_lines(str(path)) == expected


def test_bad_byte_names_its_line(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"one\ntwo\nth\xe9ree\n")
    with pytest.raises(ConfigError, match=rf"^{path}:3: not valid UTF-8 \(byte 0xe9\)$"):
        read_lines(str(path))


def test_missing_file_names_its_path(tmp_path):
    with pytest.raises(ConfigError, match=rf"^{tmp_path / 'nope.txt'}: cannot read: No such file or directory$"):
        read_lines(str(tmp_path / "nope.txt"))
