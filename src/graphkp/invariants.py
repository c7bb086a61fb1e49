"""Graph polynomial invariants with exact rational coefficients.

The invariants here are *umbral*: each is fixed by one primitive coefficient
b per connected graph, zero on disconnected ones, and combined over the set
partitions pi of the vertex set,

      U_G(q) = sum over pi of product over blocks B of pi of b(G[B]) q_|B|,

homogeneous of weight |V(G)| when q_i has weight i.
:func:`graphkp.graphs.assemble_partitions` evaluates this sum by a dynamic
program over vertex subsets (Bjorklund-Husfeldt-Koivisto, "Set partitioning
via inclusion-exclusion"), with block labels |B| and weights from a table of
b indexed by vertex bitmask S:

* weighted chromatic polynomial W (the edge-subset expansion
  sum over E' of (-1)^(|E'| - |V| + k(E')) q_{v_1} ... q_{v_k}):
  b(S) = (-1)^(|S|-1) c(S), c(S) the sum of (-1)^|E'| over the connected
  spanning subgraphs of G[S].  Summed over all spanning subgraphs that sign
  is [G[S] edgeless], so splitting off the block that holds min S gives

      c(S) = [G[S] edgeless] - sum over min S in T, T a proper subset of S,
             of c(T) * [G[S \\ T] edgeless];

* Abel polynomial A (the sum over spanning forests of the product of
  size * q_size over their trees): b(S) = |S| * tau(G[S]), tau the number
  of spanning trees by the matrix-tree theorem;

* :func:`umbral_from_b`: b(S) looked up from a table for canonical graphs,
  one lookup per entry of :func:`graphkp.graphs.induced_forms`.

The independent checks, deletion-contraction on vertex-weighted graphs and
brute-force colorings ((-1)^n W_G(q_j = -k) = #colorings with k colors),
share no code with the assembly and live in ``tests/helpers.py``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from graphkp.errors import SizeLimitError
from graphkp.graphs import (Graph, assemble_partitions, connected_graphs,
                            induced_forms, is_connected)
from graphkp.series import DEFAULT_ORDER, TruncSeries, mono


def _check_weight(g: Graph, order: int) -> None:
    if g.n > order:
        raise SizeLimitError(f"graph weight {g.n} exceeds truncation order {order}")


def _assemble(b, order: int) -> TruncSeries:
    """sum over set partitions of V of prod over blocks B of b[B] q_|B|."""
    sizes = [s.bit_count() for s in range(len(b))]
    return TruncSeries(order, "q", {mono(Counter(key)): val
                                    for key, val in assemble_partitions(sizes, b).items()})


def _b_chromatic(g: Graph) -> list[int]:
    """b[S] = (-1)^(|S|-1) c(S) for every vertex bitmask S (see module doc)."""
    masks = g.adjacency_masks()
    edgeless = [True] * (1 << g.n)
    c = [0] * (1 << g.n)
    for s in range(1, 1 << g.n):
        low = s & -s
        rest = s ^ low
        edgeless[s] = edgeless[rest] and not masks[low.bit_length() - 1] & rest
        total = int(edgeless[s])
        r = rest
        while r:
            if edgeless[r]:
                total -= c[s ^ r]
            r = (r - 1) & rest
        c[s] = total
    return [ci if s.bit_count() & 1 else -ci for s, ci in enumerate(c)]


def _det_psd(m: list[list[int]]) -> int:
    """Determinant of a positive semidefinite integer matrix by fraction-free
    (Bareiss) elimination, in place.  A zero leading minor of such a matrix
    makes the whole determinant zero, so no pivoting is needed."""
    prev = 1
    for i, top in enumerate(m):
        pivot = top[i]
        if not pivot:
            return 0
        for row in m[i + 1:]:
            lead = row[i]
            for j in range(i + 1, len(m)):
                row[j] = (pivot * row[j] - lead * top[j]) // prev
        prev = pivot
    return prev


def _b_abel(g: Graph) -> list[int]:
    """b[S] = |S| * tau(G[S]) for every vertex bitmask S, tau by the
    matrix-tree theorem: the determinant of the Laplacian of G[S] with the
    row and column of its last vertex removed."""
    masks = g.adjacency_masks()
    b = [0] * (1 << g.n)
    for s in range(1, 1 << g.n):
        vs = [v for v in range(g.n) if s >> v & 1]
        kept = vs[:-1]
        lap = [[(masks[u] & s).bit_count() if u == v else -(masks[u] >> v & 1)
                for v in kept] for u in kept]
        b[s] = len(vs) * _det_psd(lap)
    return b


def weighted_chromatic(g: Graph, order: int = DEFAULT_ORDER) -> TruncSeries:
    """Weighted chromatic polynomial, assembled from b = (-1)^(|S|-1) c(S)."""
    _check_weight(g, order)
    return _assemble(_b_chromatic(g), order)


def abel(g: Graph, order: int = DEFAULT_ORDER) -> TruncSeries:
    """Abel polynomial: sum over spanning forests of prod (size * q_size),
    assembled from b = |S| * tau(G[S])."""
    _check_weight(g, order)
    return _assemble(_b_abel(g), order)


INVARIANTS = {
    "W": weighted_chromatic,
    "A": abel,
}

_B_TABLES = {
    "W": _b_chromatic,
    "A": _b_abel,
}


def extract_b(which: str, g: Graph) -> Fraction:
    """Primitive coefficient of a connected graph: the coefficient of q_n in
    the invariant, which is b of the full vertex set."""
    if which not in _B_TABLES:
        raise ValueError(f"unknown invariant {which!r}, expected one of {sorted(_B_TABLES)}")
    if g.n > 7:
        raise SizeLimitError(f"primitive coefficients capped at 7 vertices, got {g.n}")
    if not is_connected(g):
        raise ValueError("primitive coefficients are defined for connected graphs only")
    return Fraction(_B_TABLES[which](g)[-1])


class UmbralCoefficients(NamedTuple):
    """Primitive coefficients b_G for connected canonical graphs up to a vertex
    bound; by convention b is zero on disconnected graphs."""

    values: dict[Graph, Fraction]
    bound: int

    @classmethod
    def from_invariant(cls, which: str, bound: int) -> "UmbralCoefficients":
        values = {}
        for n in range(1, bound + 1):
            for g in connected_graphs(n):
                values[g] = extract_b(which, g)
        return cls(values, bound)

    def lookup(self, g: Graph) -> Fraction:
        """b for a canonical connected graph; zero if disconnected."""
        if g.n == 0 or not is_connected(g):
            return Fraction(0)
        try:
            return self.values[g]
        except KeyError:
            raise ValueError(
                f"no primitive coefficient for a connected graph on {g.n} vertices"
            ) from None


def umbral_from_b(g: Graph, coeffs: UmbralCoefficients,
                  order: int = DEFAULT_ORDER) -> TruncSeries:
    """Reconstruct an umbral invariant from primitive coefficients by the set
    partition assembly; partitions with a disconnected block contribute 0."""
    if g.n > 7:
        raise SizeLimitError(f"umbral reconstruction capped at 7 vertices, got {g.n}")
    _check_weight(g, order)
    return _assemble([coeffs.lookup(h) for h in induced_forms(g)], order)
