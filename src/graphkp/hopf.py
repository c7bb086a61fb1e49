"""Hopf-algebra operations on the vector space spanned by graphs.

The product of two graphs is their disjoint union; the coproduct of a graph G
is the sum of G(V1) (x) G(V2) over all ordered splits V(G) = V1 u V2 into
induced subgraphs.  The empty graph is the unit.  A linear combination is
returned as :class:`HopfTerms`: a plain dict from canonical keys (graphs, or
pairs of graphs for the coproduct) to nonzero integer coefficients, so
identities between combinations reduce to dict equality.

All three operations read the canonical induced subgraphs G(S) from one
table, :func:`graphkp.graphs.induced_forms`, indexed by vertex bitmask S.
``primitive_projection`` sends a graph to the primitive subspace (elements x
with coproduct x (x) 1 + 1 (x) x) along the decomposables:

    pi(G) = sum over set partitions B of V(G) of
            (-1)^(|B|-1) (|B|-1)! * product of G(V_beta).

The product depends only on the multiset of block graphs, so
:func:`graphkp.graphs.assemble_partitions`, the subset recursion that also
assembles the umbral invariants, counts the partitions per multiset with
every block weighted 1.  ``expand_in_primitives`` is the inverse expansion:
G = sum over partitions B of the product of pi(G(V_beta)).
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from math import factorial

from graphkp.errors import check_limit
from graphkp.graphs import (Graph, assemble_partitions, canonical_form,
                            disjoint_union, emit_graph6, induced_forms)

UNIT_GRAPH = Graph(0, 0)


class HopfTerms:
    """``terms``, a dict from canonical keys to nonzero int coefficients, and
    its text: the terms in key order, each key rendered by ``label``."""

    __slots__ = ("terms", "_label")

    def __init__(self, terms: dict, label):
        self.terms = terms
        self._label = label

    def text(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{self.terms[key]} {self._label(key)}"
                          for key in sorted(self.terms))


def _pair_label(pair: tuple[Graph, Graph]) -> str:
    return f"{emit_graph6(pair[0])}|{emit_graph6(pair[1])}"


# -- the three structural operations ------------------------------------------


def coproduct(g: Graph) -> HopfTerms:
    """Sum of G(V1) (x) G(V2) over all 2**n ordered vertex splits; the split
    of the mask S is (S, full ^ S), and full ^ S = full - S."""
    forms = induced_forms(g)
    return HopfTerms(dict(Counter(zip(forms, reversed(forms)))), _pair_label)


def primitive_projection(g: Graph) -> HopfTerms:
    """Projection onto the primitive subspace along the decomposables."""
    check_limit("primitive_projection", g.n)
    out: Counter = Counter()
    if g.n:  # the unit is not primitive
        for blocks, count in assemble_partitions(induced_forms(g), [1] * (1 << g.n)).items():
            k = len(blocks)
            key = canonical_form(reduce(disjoint_union, blocks))
            out[key] += (-1) ** (k - 1) * factorial(k - 1) * count
    return HopfTerms({key: c for key, c in out.items() if c}, emit_graph6)


def expand_in_primitives(g: Graph) -> tuple[tuple[Graph, ...], ...]:
    """Expansion of a graph as a sum over set partitions of products of
    primitive projections.

    Each entry is one partition's factor list: the canonical induced subgraphs
    of its blocks, sorted.  Replacing each factor H by pi(H) and multiplying
    out recovers the graph; pushing each factor H through an umbral invariant
    as b_H * q_{|V(H)|} evaluates the invariant on ``g``.

    Blocks are vertex bitmasks; vertex v joins each block in turn, then opens
    its own, so the partitions come in lex order of restricted growth strings.
    """
    check_limit("expand_in_primitives", g.n)
    forms = induced_forms(g)
    out = []

    def grow(v, blocks):
        if v == g.n:
            out.append(tuple(sorted([forms[block] for block in blocks])))
            return
        bit = 1 << v
        for i, block in enumerate(blocks):
            grow(v + 1, (*blocks[:i], block | bit, *blocks[i + 1:]))
        grow(v + 1, (*blocks, bit))

    grow(0, ())
    return tuple(out)
