"""Byte-identity gate: the JSON of every ``verify`` suite at ``--seed 0``
and the stdout of every demo.

Each run is a fresh interpreter, as a user would start it: the CLI as
``python -m steenrips verify SUITE --seed 0`` and each demo as
``python demos/NAME.py``.  Their sha256 digests in output_digests.json
were recorded from the code before the stored columns of the F2
reduction got one writer; a refactor or speedup that changes no output
keeps them.  Re-record only when outputs change on purpose:

    PYTHONPATH=src python tests/test_output_digests.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from steenrips.verify import SUITES

ROOT = Path(__file__).parents[1]
DIGESTS = Path(__file__).with_name("output_digests.json")
RUNS = {**{f"verify {suite}": ["-m", "steenrips", "verify", suite, "--seed", "0"]
           for suite in SUITES},
        **{path.name: [str(path)] for path in sorted((ROOT / "demos").glob("*.py"))}}


def run_digest(args: list[str]) -> str:
    """sha256 of the stdout of ``python args`` with src on the path."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, check=True)
    return hashlib.sha256(done.stdout).hexdigest()


def test_every_run_has_a_digest():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_byte_identical_to_recorded_digest(name):
    assert run_digest(RUNS[name]) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({name: run_digest(args) for name, args in RUNS.items()},
                                  indent=1, sort_keys=True) + "\n")
