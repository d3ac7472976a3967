"""Exact combinatorics of realizable spanning-tree counts.

The library answers one family of questions exactly: which integers occur
as the number of spanning trees of a connected graph on n vertices, how
many such integers a partition-based construction guarantees, and how the
guaranteed count grows.  Everything exact runs in arbitrary-precision
integers; growth formulas live in log-space.

Each module's ``__all__`` is its public surface; the package re-exports
all of them, so a public name is listed in one place.
"""

from . import asymptotics, atlas, graphs, partitions, spanning, witness
from .asymptotics import *  # noqa: F403
from .atlas import *  # noqa: F403
from .graphs import *  # noqa: F403
from .partitions import *  # noqa: F403
from .spanning import *  # noqa: F403
from .witness import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *asymptotics.__all__,
    *atlas.__all__,
    *graphs.__all__,
    *partitions.__all__,
    *spanning.__all__,
    *witness.__all__,
]
