"""Hopf-algebra operations on the vector space spanned by graphs.

The product of two graphs is their disjoint union; the coproduct of a graph G
is the sum of G(V1) (x) G(V2) over all ordered splits V(G) = V1 u V2 into
induced subgraphs.  The empty graph is the unit.  Graphs are stored by
canonical form, so identities between linear combinations reduce to plain
map equality.

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

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import factorial

from graphkp.errors import check_limit
from graphkp.graphs import (Graph, assemble_partitions, canonical_form,
                            disjoint_union, emit_graph6, induced_forms)
from graphkp.series import _fraction

UNIT_GRAPH = Graph(0, 0)


def _accumulate(pairs) -> dict:
    """Sum the coefficients of equal keys, dropping the zero sums."""
    out: dict = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


class _LinearSum:
    """Finite rational linear combination of canonical keys.  Subclasses
    give the key's canonical form and its text label; keys sort as tuples."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _accumulate((self._canonical(key), _fraction(c))
                                 for key, c in (terms or {}).items())

    @classmethod
    def _raw(cls, terms: dict):
        out = object.__new__(cls)
        out.terms = terms
        return out

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._raw(_accumulate(chain(self.terms.items(), other.terms.items())))

    def __neg__(self):
        return self._raw({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Scalar multiple."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self._raw({key: other * v for key, v in self.terms.items()} if other else {})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def text(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{self.terms[key]} {self._label(key)}"
                          for key in sorted(self.terms))

    def __repr__(self):
        return f"{type(self).__name__}<{self.text()}>"


class GraphSum(_LinearSum):
    """Finite rational linear combination of canonical graphs."""

    __slots__ = ()
    _canonical = staticmethod(canonical_form)
    _label = staticmethod(emit_graph6)

    @classmethod
    def from_graph(cls, g: Graph) -> "GraphSum":
        return cls({g: Fraction(1)})

    def __mul__(self, other):
        """Scalar multiple, or the disjoint-union product of two sums."""
        if not isinstance(other, GraphSum):
            return super().__mul__(other)
        return GraphSum._raw(_accumulate(
            (canonical_form(disjoint_union(g1, g2)), c1 * c2)
            for g1, c1 in self.terms.items() for g2, c2 in other.terms.items()))


class TensorSum(_LinearSum):
    """Finite rational linear combination of ordered pairs of canonical graphs."""

    __slots__ = ()

    @staticmethod
    def _canonical(pair: tuple[Graph, Graph]) -> tuple[Graph, Graph]:
        return canonical_form(pair[0]), canonical_form(pair[1])

    @staticmethod
    def _label(pair: tuple[Graph, Graph]) -> str:
        return f"{emit_graph6(pair[0])}|{emit_graph6(pair[1])}"


# -- the three structural operations ------------------------------------------


def coproduct(g: Graph) -> TensorSum:
    """Sum of G(V1) (x) G(V2) over all 2**n ordered vertex splits."""
    forms = induced_forms(g)
    full = len(forms) - 1
    return TensorSum(_accumulate(((forms[s], forms[full ^ s]), 1) for s in range(len(forms))))


def primitive_projection(g: Graph) -> GraphSum:
    """Projection onto the primitive subspace along the decomposables."""
    check_limit("primitive_projection", g.n)
    if not g.n:
        return GraphSum()  # the unit is not primitive
    out: dict = {}
    for blocks, count in assemble_partitions(induced_forms(g), [1] * (1 << g.n)).items():
        k = len(blocks)
        key = reduce(disjoint_union, blocks)
        out[key] = out.get(key, 0) + (-1) ** (k - 1) * factorial(k - 1) * count
    return GraphSum(out)


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
