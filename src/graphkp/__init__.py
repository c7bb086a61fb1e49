"""Exact graph polynomial invariants, their automorphism-weighted generating
functions, and KP tau-function checks.  Everything is computed over exact
rationals; there is no floating point anywhere in the package.

Importing the package loads only ``errors``.  ``Graph``, ``TruncSeries`` and
``mono`` are served on first access (PEP 562), so ``python -m graphkp.cli``
loads ``graphs`` only for a command that touches a graph, and ``series``, with
``fractions``, only for one that does series arithmetic; the CLI likewise
imports each subcommand's modules when that subcommand runs."""

from graphkp.errors import DEFAULT_ORDER, LIMITS, Graph6ParseError, SizeLimitError

MAX_ORDER = LIMITS["order"].cap

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
    if name in ("TruncSeries", "mono"):
        from graphkp import series

        return getattr(series, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
