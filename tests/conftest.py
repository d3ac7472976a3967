import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import spantree

# address-space cap for children handed a graph of 10^9 vertices
CAP_BYTES = 512 * 2**20


@pytest.fixture()
def capped_python():
    """Run ``python <args>`` on this run's sources with its address space capped.

    A regression that allocates by the vertex count then fails fast with
    MemoryError instead of exhausting the host's memory.
    """
    src = str(Path(spantree.__file__).resolve().parents[1])

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=cap,
            timeout=60,
        )

    return run
