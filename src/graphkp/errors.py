"""Shared exception types, and the one table of size caps."""

from typing import NamedTuple


class SizeLimitError(ValueError):
    """An input exceeds a documented size cap (vertex count, truncation order, ...)."""


class Graph6ParseError(ValueError):
    """Malformed graph6 input.  ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class Limit(NamedTuple):
    cap: int
    what: str


#: Every user-facing size cap; ``graphkp --help`` prints it.  A cap stays only where one
#: size more takes over 1 s, or a representation fixes it.  Beside each: the slowest of K_n,
#: edgeless and seeded random graphs at the cap and one above (Python 3.11, 2-core Xeon).
LIMITS = {
    # W 0.24 s, A 0.30-0.34 s; 13 vertices: W 0.84 s, A 1.01-1.04 s
    "vertices": Limit(12, "vertex count"),
    # kp-check --series W|A|S, series --rescaled, rescale: at most 0.63 s; 26: up to
    # 0.78 s (rescale --format json, series --rescaled --format json, kp-check)
    "order": Limit(25, "truncation order"),
    # n = 7: 0.60 s; n = 8: 10.2 s
    "all_graphs": Limit(7, "vertex count for all_graphs"),
    # --max-n 6: 0.23 s; 7: 2.8 s
    "tables": Limit(6, "tables --max-n"),
    # 10 vertices: 0.34 s; 11: 1.7 s
    "primitive_projection": Limit(10, "vertex count for hopf --op primitive"),
    # 9 vertices: 0.14 s (21,147 lines); 10: 0.36-0.66 s
    "expand_in_primitives": Limit(9, "vertex count for hopf --op expand"),
}


def check_limit(name: str, value: int, low: int = 0) -> int:
    """Return ``value`` if it lies in [low, LIMITS[name].cap], else raise SizeLimitError."""
    cap, what = LIMITS[name]
    if not low <= value <= cap:
        raise SizeLimitError(f"{what} must be in [{low}, {cap}], got {value}")
    return value
