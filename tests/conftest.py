import random

import pytest

from graphkp.errors import FAMILY


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240901)


@pytest.fixture
def third_row(monkeypatch) -> str:
    """A third invariant, inserted only into the family table: x = 2 and
    unrooted, so b(S) = T_G[S](1, 2) counts the connected spanning subgraphs
    of G[S]."""
    monkeypatch.setitem(FAMILY, "C", (2, False, "connected spanning subgraphs"))
    return "C"
