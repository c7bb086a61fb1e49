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

The product is the disjoint union of the blocks' components, and the Hopf
algebra is polynomial on connected graphs (Chmutov-Kazarian-Lando), so a
term depends only on |B| and the multiset of those components.
:func:`graphkp.graphs.assemble_partitions`, the subset recursion that also
assembles the umbral invariants, counts the partitions per such key with
every block weighted 1 and labelled P0 = 2 times one prime per connected
form of its components: a key is P0^|B| times the primes of the union's
components.  So partitions with as many blocks and isomorphic unions meet
inside the assembly, and each distinct union is factored and canonicalized
once.  ``expand_in_primitives`` is the inverse expansion: G = sum over
partitions B of the product of pi(G(V_beta)).
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from math import factorial

from graphkp.errors import check_limit, first_primes
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
    if not g.n:  # the unit is not primitive
        return HopfTerms({}, emit_graph6)
    forms, size = induced_forms(g), 1 << g.n
    # around[S]: S and its neighbours; comp[S]: the component of G[S] that
    # holds the lowest vertex of S, grown from that vertex; key[S]: the
    # product of the primes of the components of G[S]
    around, comp, key = [0] * size, [0] * size, [1] * size
    for v, nbrs in enumerate(g.adjacency_masks()):
        bit = 1 << v
        for s in range(bit, 2 * bit):
            around[s] = around[s ^ bit] | nbrs | bit
    for s in range(1, size):
        c = s & -s
        while (grown := around[c] & s) != c:
            c = grown
        comp[s] = c
    # after P0 = 2, one prime per connected form, fewest vertices first
    connected = sorted({forms[s] for s in range(1, size) if comp[s] == s})
    primes = first_primes(len(connected) + 1)[1:]
    prime, form = dict(zip(connected, primes)), dict(zip(primes, connected))
    for s in range(1, size):
        key[s] = prime[forms[comp[s]]] * key[s ^ comp[s]]
    unions: dict[int, Graph] = {}
    out: Counter = Counter()
    for total, count in assemble_partitions([2 * x for x in key], [1] * size).items():
        k = (total & -total).bit_length() - 1  # total = 2^k times the union's primes
        union = total >> k
        if union not in unions:
            # largest component first: the canonical search is faster on that labelling
            parts = _factors(union, primes, form)[::-1]
            unions[union] = canonical_form(reduce(disjoint_union, parts))
        out[unions[union]] += (-1) ** (k - 1) * factorial(k - 1) * count
    return HopfTerms({h: c for h, c in out.items() if c}, emit_graph6)


def _factors(key: int, primes: tuple[int, ...], form: dict[int, Graph]) -> list[Graph]:
    """The components whose primes multiply to ``key``, by trial division in
    increasing order until one prime is left: a union of two or more
    components has one with at most half its vertices, whose prime is small."""
    out = []
    for p in primes:
        if key == 1 or key in form:
            break
        while not key % p:
            key //= p
            out.append(form[p])
    return out + [form[key]] if key > 1 else out


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
