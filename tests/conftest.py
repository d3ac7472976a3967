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

    def run(
        *args: str, timeout: float = 60, head: int | None = None
    ) -> subprocess.CompletedProcess:
        """The child's exit code and output, killed after ``timeout`` seconds.

        With ``head``, stdout is closed after that many lines, as a pipe into
        ``head -n <head>`` closes it, and those lines are its stdout.
        """
        with subprocess.Popen(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=cap,
        ) as proc:
            try:
                lines = ""
                if head is not None:
                    lines = "".join(proc.stdout.readline() for _ in range(head))
                    proc.stdout.close()
                out, err = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        return subprocess.CompletedProcess(proc.args, proc.returncode, lines + (out or ""), err)

    return run
