"""Labeled simple graphs with bitset edge storage, plus the enumeration
primitives the rest of the package consumes: connected components,
canonical forms, automorphism counts and the isomorphism classes built on
them, the table of canonical induced subgraphs and the set-partition
assembly over vertex subsets, which keys each partition by the product of
its blocks' integer labels, and graph6 parsing/emission.

Edge slots.  The vertex pairs (i, j) with i < j are numbered in colex order

    (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), (0,4), ...

so ``slot(i, j) = j*(j-1)//2 + i``.  This single slot order is shared by the
edge bitsets, graph6 encoding, canonical forms and subset enumeration, so
bitsets move between all of them without translation.  One branch and bound
with twin classes finds the canonical form, the least bitset over all
relabelings, and counts the relabelings that reach it, |Aut|; the
isomorphism classes are enumerated by extending and canonicalizing.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from typing import Iterator, Sequence

from graphkp.errors import LIMITS, Graph6ParseError, SizeLimitError, check_limit

MAX_VERTICES = LIMITS["vertices"].cap

#: slot -> (i, j) with i < j, colex order, for every slot of K_12.
SLOT_ENDPOINTS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for j in range(MAX_VERTICES) for i in range(j))


def edge_slot(u: int, v: int) -> int:
    """Bit position of the edge {u, v} in the fixed colex slot order."""
    if u == v:
        raise ValueError(f"loops are not allowed (vertex {u})")
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


class Graph(namedtuple("Graph", "n edges")):
    """Simple graph on vertices {0..n-1}; ``edges`` is a bitset over slots.

    A tuple (n, edges): equality, hashing and ordering compare (n, edges),
    giving a deterministic total order."""

    __slots__ = ()

    def __new__(cls, n: int, edges: int = 0):
        check_limit("vertices", n)
        if type(edges) is not int:
            raise TypeError(f"edge bitset must be an int, got {edges!r}")
        if not 0 <= edges < 1 << (n * (n - 1) // 2):
            raise ValueError("edge bitset out of range for vertex count")
        return tuple.__new__(cls, (n, edges))

    @classmethod
    def from_edges(cls, n: int, pairs: Sequence[tuple[int, int]]) -> "Graph":
        bits = 0
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            bits |= 1 << edge_slot(u, v)
        return cls(n, bits)

    @property
    def num_edges(self) -> int:
        return self.edges.bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.edges >> edge_slot(u, v) & 1)

    def edge_list(self) -> tuple[tuple[int, int], ...]:
        return tuple(SLOT_ENDPOINTS[s] for s in _bit_indices(self.edges))

    def adjacency_masks(self) -> list[int]:
        masks = [0] * self.n
        for u, v in self.edge_list():
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph on ``vertices``, relabeled 0..k-1 in sorted order."""
        vs = sorted(vertices)
        if len(set(vs)) != len(vs) or (vs and not 0 <= vs[0] <= vs[-1] < self.n):
            raise ValueError("vertex subset must be distinct vertices of the graph")
        index = {v: i for i, v in enumerate(vs)}
        bits = 0
        for a, b in itertools.combinations(vs, 2):
            if self.has_edge(a, b):
                bits |= 1 << edge_slot(index[a], index[b])
        return Graph(len(vs), bits)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image under the vertex permutation v -> perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"relabel needs a permutation of 0..{self.n - 1}, got {list(perm)}")
        bits = 0
        for u, v in self.edge_list():
            bits |= 1 << edge_slot(perm[u], perm[v])
        return Graph(self.n, bits)

    def __str__(self):
        return emit_graph6(self)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; left factor keeps its labels, right factor shifts up."""
    bits = a.edges
    for u, v in b.edge_list():
        bits |= 1 << edge_slot(u + a.n, v + a.n)
    return Graph(a.n + b.n, bits)


def _bit_indices(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


# -- connectivity -------------------------------------------------------------


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by minimum vertex."""
    masks = g.adjacency_masks()
    unseen = (1 << g.n) - 1
    out = []
    while unseen:
        start = unseen & -unseen
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            for v in _bit_indices(frontier):
                nxt |= masks[v]
            frontier = nxt & ~comp
            comp |= frontier
        out.append(tuple(_bit_indices(comp)))
        unseen &= ~comp
    return out


def is_connected(g: Graph) -> bool:
    """True iff the graph has exactly one component.  The empty graph does not
    count as connected and is rejected."""
    if g.n == 0:
        raise ValueError("connectivity of the empty graph is undefined here")
    return len(components(g)) == 1


# -- isomorphism: canonical forms and automorphism counts --------------------


def _search(g: Graph) -> tuple[int, int]:
    """The least edge bitset over all relabelings, and the number of
    relabelings that reach it, i.e. |Aut(g)|, by one branch and bound.

    Row r_j (slots (i, j), i < j) weighs r_j << C(j,2), so labels go out from
    n-1 down.  The unlabeled vertices sit in cells that are label intervals,
    top cell first.  Label j goes to a top-cell vertex y whose neighbours take
    the low end of each cell: its row is the sum of (2**k - 1) << lo over
    cells holding k of them.  Each least-row y splits every cell into
    non-neighbours (above) and neighbours (below).  Twins (N(u) - v ==
    N(v) - u) form classes, and swapping two fixes every label so far, so
    only the first of a class is tried and its leaves count class-size
    times.  Branches whose rows exceed the best leaf are cut; ties are not,
    so the leaves that reach the least bitset count every automorphism."""
    n = g.n
    if not n:
        return 0, 1
    adj = g.adjacency_masks()
    # twin[v]: first vertex of v's twin class.  Twins share their open or
    # their closed neighbourhood, and an open one never equals a closed one.
    first: dict[int, int] = {}
    twin = []
    for v, a in enumerate(adj):
        rep = first.get(a, first.get(a | 1 << v, v))
        first[a] = first[a | 1 << v] = rep
        twin.append(rep)
    best = 1 << n * (n - 1) // 2
    count = 0

    def search(cells: list, j: int, bits: int, mult: int) -> None:
        # cells: (lowest label, vertex mask), top cell first
        nonlocal best, count
        if not j:
            if bits < best:
                best, count = bits, 0
            count += mult
            return
        rows: dict[int, dict[int, list[int]]] = {}
        for y in _bit_indices(cells[0][1]):
            row = 0
            for lo, cell in cells:
                row |= ((1 << (adj[y] & cell).bit_count()) - 1) << lo
            rows.setdefault(row, {}).setdefault(twin[y], []).append(y)
        least = min(rows)
        shift = j * (j - 1) // 2
        bits |= least << shift
        if bits >> shift > best >> shift:
            return
        for y, *twins in rows[least].values():
            split = []
            for lo, cell in cells:
                cell &= ~(1 << y)
                below = cell & adj[y]
                if cell ^ below:
                    split.append((lo + below.bit_count(), cell ^ below))
                if below:
                    split.append((lo, below))
            search(split, j - 1, bits, mult * (1 + len(twins)))

    search([(0, (1 << n) - 1)], n - 1, 0, 1)
    return best, count


def aut_order(g: Graph) -> int:
    """Order of the automorphism group, counted by the canonical search."""
    return _search(g)[1]


@lru_cache(maxsize=None)
def canonical_form(g: Graph) -> Graph:
    """Isomorphism-invariant representative: the relabeling minimizing the edge
    bitset, found by the branch and bound of :func:`_search`."""
    return Graph(g.n, _search(g)[0])


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """Canonical representatives of every isomorphism class on n vertices,
    in increasing bitset order.

    Deleting vertex n-1 leaves an (n-1)-vertex graph, and vertex n-1 owns the
    top n-1 colex slots, so every class is the canonical form of some g in
    all_graphs(n-1) with a row of edges to the new vertex on top: extend,
    then deduplicate (the plain form of McKay, "Isomorph-free exhaustive
    generation").  The extensions go to the search directly and leave
    canonical_form's cache alone.
    """
    check_limit("all_graphs", n)
    if not n:
        return (Graph(0),)
    shift = (n - 1) * (n - 2) // 2
    forms = {_search(Graph(n, g.edges | row << shift))[0]
             for g in all_graphs(n - 1) for row in range(1 << (n - 1))}
    return tuple(Graph(n, bits) for bits in sorted(forms))


def connected_graphs(n: int) -> tuple[Graph, ...]:
    if n == 0:
        return ()
    return tuple(g for g in all_graphs(n) if is_connected(g))


# -- vertex-subset tables -----------------------------------------------------


def induced_forms(g: Graph) -> list[Graph]:
    """``canonical_form(g.induced(S))`` for every vertex bitmask S, indexed by S.

    Relabeled in sorted order, the top vertex of S is the last vertex of G[S],
    so its edges fill the top colex slots: the bitset of S is that of S minus
    its top vertex, plus the top's adjacency mask compressed to the ranks of
    the other vertices, shifted up by C(|S| - 1, 2)."""
    adj = g.adjacency_masks()
    bits = [0] * (1 << g.n)
    for s in range(1, 1 << g.n):
        top = s.bit_length() - 1
        rest = s ^ 1 << top
        k = rest.bit_count()
        row = 0
        for v in _bit_indices(adj[top] & rest):
            row |= 1 << (rest & ((1 << v) - 1)).bit_count()
        bits[s] = bits[rest] | row << k * (k - 1) // 2
    return [canonical_form(Graph(s.bit_count(), b)) for s, b in enumerate(bits)]


def assemble_partitions(labels: Sequence[int], weights: Sequence[int]) -> dict[int, int]:
    """Sum over the set partitions of V of the product of weights[B] over the
    blocks B, grouped by the product of the blocks' integer labels.

    ``labels`` and the integer ``weights`` are indexed by vertex bitmask and
    have 2**n entries each, V being the full mask.  Labels that are products
    of primes key each partition by a multiset, as the series keys its
    monomials: prime keys of q_|B| key it by block sizes, and a prime per
    connected graph keys it by the components of its blocks.  Blocks of zero
    weight are skipped and keys whose sum is zero dropped.  Splitting off the
    block that holds top(S), the highest vertex of S, gives the subset
    recursion

        F(S) = sum over B <= S with top(S) in B of weights[B] * F(S \\ B)

    (Bjorklund-Husfeldt-Koivisto, "Set partitioning via inclusion-exclusion").
    From V it reaches only V and the subsets of V minus its top vertex, i.e.
    the bitmasks below 2**(n-1), so only those are stored.
    """
    n = len(weights).bit_length() - 1
    if not n:
        return {1: 1}

    def part(s: int) -> dict:
        top = 1 << (s.bit_length() - 1)
        rest = s ^ top
        acc: dict = {}
        get = acc.get
        sub = rest
        while True:
            block = sub | top
            w = weights[block]
            if w:
                label = labels[block]
                for key, val in table[rest ^ sub].items():
                    key *= label
                    acc[key] = get(key, 0) + w * val
            if not sub:
                break
            sub = (sub - 1) & rest
        return {key: val for key, val in acc.items() if val}

    table = [{1: 1}]
    for s in range(1, 1 << (n - 1)):
        table.append(part(s))
    return part((1 << n) - 1)


# -- graph6 -------------------------------------------------------------------


def parse_graph6(text: str) -> Graph:
    """Parse a single graph6 value (optionally with the ``>>graph6<<`` header)."""
    data = text.rstrip("\n")
    base = 0
    if data.startswith(">>graph6<<"):
        base = 10
        data = data[10:]
    if not data:
        raise Graph6ParseError("empty graph6 string", base)
    c0 = ord(data[0])
    if c0 == 126:
        raise SizeLimitError("graph6 long-form vertex counts (>62) are not supported")
    if not 63 <= c0 <= 125:
        raise Graph6ParseError(f"invalid vertex-count byte {data[0]!r}", base)
    n = check_limit("vertices", c0 - 63)
    m = n * (n - 1) // 2
    need = (m + 5) // 6
    body = data[1:]
    if len(body) != need:
        raise Graph6ParseError(
            f"expected {need} edge bytes for {n} vertices, got {len(body)}",
            base + 1 + min(len(body), need))
    bits = 0
    for k, ch in enumerate(body):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6ParseError(f"invalid edge byte {ch!r}", base + 1 + k)
        for off in range(6):
            s = 6 * k + off
            if val >> (5 - off) & 1:
                if s >= m:
                    raise Graph6ParseError("nonzero padding bits", base + 1 + k)
                bits |= 1 << s
    return Graph(n, bits)


def emit_graph6(g: Graph) -> str:
    """Encode as graph6; inverse of :func:`parse_graph6`."""
    m = g.n * (g.n - 1) // 2
    out = [chr(63 + g.n)]
    for k in range((m + 5) // 6):
        val = 0
        for off in range(6):
            s = 6 * k + off
            if s < m and g.edges >> s & 1:
                val |= 1 << (5 - off)
        out.append(chr(63 + val))
    return "".join(out)

