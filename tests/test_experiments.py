"""The shared experiment module: sign test values and the runner scripts."""

import os
import subprocess
import sys

import pytest

from actknow.experiments import sign_test_p

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("wins, losses, p", [(5, 0, 1 / 32), (4, 1, 6 / 32), (0, 0, 1.0)])
def test_sign_test_p_hand_values(wins, losses, p):
    assert sign_test_p(wins, losses) == p


@pytest.mark.parametrize("script", ["run_lowdata.py", "run_ablation.py"])
def test_script_imports_and_parses_help(script):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
