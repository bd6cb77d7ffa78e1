"""The listing of tools/golden_outputs.py, pinned in tests/golden.txt: the
sha256 of every file the CLI commands write, of each line they print on
stdout and of each command's whole stderr, so its progress lines are pinned
too. All of them must match byte for byte, except the float64 gradient-check
lines, whose errors move with the BLAS kernel: those are checked for PASS
only.

The listing starts with a header naming the numpy and OpenBLAS versions it
was made with; on other versions the test fails naming both. A change that
alters output bits on purpose says so in CHANGES.md and renews the file:

    PYTHONPATH=src python3 tools/golden_outputs.py OUT > tests/golden.txt
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hsinet.cli import main

ROOT = Path(__file__).resolve().parent.parent
GRADCHECK = "  stdout/gradcheck/"


def pinned(listing):
    """The listing's lines, each gradient-check line cut to its name."""
    return [line[line.index(GRADCHECK):] if GRADCHECK in line else line for line in listing]


def test_outputs_match_the_golden_listing(tmp_path, capsys):
    header, *want = (ROOT / "tests" / "golden.txt").read_text().splitlines()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "golden_outputs.py"),
                          str(tmp_path / "golden")], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    this, *got = run.stdout.splitlines()
    if header != this:
        pytest.fail(f"tests/golden.txt was made with {header[2:]}, this is {this[2:]}")
    assert pinned(got) == pinned(want)
    assert main(["gradcheck", "--seeds", "2"]) == 0  # the listing's gradient checks
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == sum(GRADCHECK in line for line in want)
    assert all(line.startswith("PASS ") for line in lines)
