"""Which commands load numpy and the process pool.

Most verdicts use no arrays, so importing the package, the CLI, or running
an exact suite must not pay for numpy (about 30 ms) or for
`concurrent.futures.process` (about 10 ms); a Monte Carlo run on a numpy
batch kernel must load numpy. Each case runs in a fresh interpreter with
`-X importtime`, which lists every module the interpreter imports.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainlab

SRC = str(Path(chainlab.__file__).resolve().parents[1])
HEAVY = {"numpy", "concurrent.futures.process"}


def imported_modules(*args):
    """Every module a fresh `python -X importtime <args>` imports."""
    run = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert run.returncode == 0, run.stderr
    return {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines() if line.startswith("import time:")}


@pytest.mark.parametrize("args", [
    ["-c", "import chainlab"],
    ["-c", "import chainlab.cli"],
    ["-m", "chainlab", "verify", "--suite", "chain-entropy"],
    ["-m", "chainlab", "verify", "--suite", "conditional-independence"],
    ["-m", "chainlab", "verify", "--suite", "distribution-identity"],
], ids=["import-chainlab", "import-cli", "verify-chain-entropy", "verify-conditional-independence",
        "verify-distribution-identity"])
def test_command_loads_neither_numpy_nor_the_process_pool(args):
    modules = imported_modules(*args)
    assert "chainlab" in modules
    assert not modules & HEAVY


def test_simulate_on_a_numpy_kernel_loads_numpy():
    modules = imported_modules("-m", "chainlab", "simulate", "--protocol", "truncation", "--n", "8", "--k", "2",
                               "--param", "t=2", "--trials", "100", "--workers", "1")
    assert "numpy" in modules
    assert "concurrent.futures.process" not in modules
