"""`actknow --help` and each subcommand's `--help` at 80 columns, against
the committed text in help.txt. A change to a command, a flag or a help
string shows up as a diff of that file.

The text was taken with Python 3.11.7. argparse may lay help out
differently in another Python version, so a mismatch there can come from
the interpreter rather than the code. Rewrite the file with
`PYTHONPATH=src python tests/test_help.py`.
"""

import contextlib
import io
import os
import platform

import pytest

from actknow.cli import main

PINNED_PYTHON = "3.11.7"

HELP_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "help.txt")

# the subcommand of each help text, none for the top-level one
COMMANDS = [[], ["train"], ["eval"], ["sweep-fraction"], ["ablate-subgraph"], ["gen-synth"]]


def _header(command: list[str]) -> str:
    return "$ " + " ".join(["actknow", *command, "--help"]) + "\n"


def render(command: list[str]) -> str:
    """What `actknow [command] --help` prints; COLUMNS sets the width."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main([*command, "--help"])
        except SystemExit as exc:
            assert exc.code == 0, exc.code
    return out.getvalue()


def committed() -> dict[str, str]:
    """help.txt split into each command's text, keyed by its header line."""
    sections: dict[str, str] = {}
    with open(HELP_FILE, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("$ actknow "):
                header = line
                sections[header] = ""
            else:
                sections[header] += line
    return sections


@pytest.mark.parametrize("command", COMMANDS, ids=[" ".join(c) or "actknow" for c in COMMANDS])
def test_help_matches_the_committed_text(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    sections = committed()
    assert list(sections) == [_header(c) for c in COMMANDS]
    running = platform.python_version()
    assert render(command) == sections[_header(command)], (
        f"help moved (pinned with Python {PINNED_PYTHON}, running {running})")


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with open(HELP_FILE, "w", encoding="utf-8") as fh:
        fh.writelines(_header(c) + render(c) for c in COMMANDS)
