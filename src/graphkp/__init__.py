"""Exact graph polynomial invariants, their automorphism-weighted generating
functions, and KP tau-function checks.  Everything is computed over exact
rationals; there is no floating point anywhere in the package."""

from graphkp.errors import Graph6ParseError, SizeLimitError
from graphkp.graphs import Graph
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
