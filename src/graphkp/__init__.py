"""Exact graph polynomial invariants, their automorphism-weighted generating
functions, and KP tau-function checks.  Everything is computed over exact
rationals; there is no floating point anywhere in the package.

Importing the package loads only ``errors`` and ``series``.  ``Graph`` is
served on first access (PEP 562), so ``python -m graphkp.cli`` does not load
``graphs`` for a command that never touches a graph; the CLI likewise imports
each subcommand's modules when that subcommand runs."""

from graphkp.errors import Graph6ParseError, SizeLimitError
from graphkp.series import DEFAULT_ORDER, MAX_ORDER, TruncSeries, mono

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ORDER",
    "Graph",
    "Graph6ParseError",
    "MAX_ORDER",
    "SizeLimitError",
    "TruncSeries",
    "mono",
    "__version__",
]


def __getattr__(name):
    if name == "Graph":
        from graphkp.graphs import Graph

        return Graph
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
