"""Shared exception types, the one table of sizes (the caps and the default
truncation order) and the one rule for a size, and the one table of the
invariant family with its one lookup.  It imports only ``typing``:
``import graphkp`` and ``import graphkp.cli`` load no other graphkp module."""

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
    # W 0.12-0.18 s, A 0.13-0.17 s; 13 vertices: W 0.38-0.48 s, A 0.40-0.64 s
    "vertices": Limit(12, "vertex count"),
    # kp-check --series W|A|S, series --rescaled, rescale: at most 0.58 s; 27: up to
    # 1.03 s (series --rescaled --format json 0.60-1.03 s, kp-check --series S 0.42-0.63 s)
    "order": Limit(26, "truncation order"),
    # n = 7: 0.60 s; n = 8: 10.2 s
    "all_graphs": Limit(7, "vertex count for all_graphs"),
    # --max-n 6: 0.23 s; 7: 2.8 s
    "tables": Limit(6, "tables --max-n"),
    # 10 vertices: 0.34 s; 11: 1.7 s
    "primitive_projection": Limit(10, "vertex count for hopf --op primitive"),
    # 10 vertices: 0.51-0.76 s (115,975 lines); 11: 3.1-4.3 s
    "expand_in_primitives": Limit(10, "vertex count for hopf --op expand"),
}

#: The truncation order a command or constructor uses when none is given.
DEFAULT_ORDER = 7


def check_limit(name: str, value: int, low: int = 0) -> int:
    """The rule for a size: ``value`` if it is an int, not a bool, in [low, LIMITS[name].cap];
    any other type raises TypeError, and an int outside the range SizeLimitError."""
    cap, what = LIMITS[name]
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, got {value!r}")
    if not low <= value <= cap:
        bound = f"in [{low}, {cap}]" if low <= cap else f"at least {low}, above its cap {cap}"
        raise SizeLimitError(f"{what} must be {bound}, got {value}")
    return value


#: The umbral invariants, one row (x, rooted, what) each: b(S) = |S|^rooted T_G[S](1, x)
#: (``invariants``) and the constants of that row (``ensemble``); the CLI's choices list
#: the names in order, and its ``--which`` help each ``what``.
FAMILY = {
    "W": (0, False, "weighted chromatic"),
    "A": (1, True, "Abel"),
}


def family_row(which: str) -> tuple[int, bool, str]:
    """The row of the invariant named ``which``; any other name raises ValueError."""
    if which not in FAMILY:
        raise ValueError(f"unknown invariant {which!r}, expected one of {sorted(FAMILY)}")
    return FAMILY[which]
