"""Shared test utilities and the oracles: second algorithms for quantities
the package computes one way, kept here only to check it.

* Builders and generators: small graph families, a polynomial text parser
  for frozen expected values, random series and graph6 strategies.
* Per-graph oracles for the umbral assembly: the edge-subset expansion of W,
  the spanning-forest sum of A, deletion-contraction of W on vertex-weighted
  graphs, and brute-force proper colorings.
* The set-partition sum, the oracle for the primitive projection.
* Isomorphism by brute force: the minimum over all relabelings, the oracle
  for the canonical-form search, and the orbit sweep over all labeled graphs,
  the oracle for the class enumeration.
* Graph-level oracles for the ensemble pieces: the edge-subset sweep over
  K_k and the sums over isomorphism classes.
* Schur oracles for the character-based Schur functions and Schur
  expansion: the one-part sum over p_mu / z_mu, the Jacobi-Trudi
  determinant, and an exact linear solve over it."""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import factorial, prod
from typing import Iterator

from hypothesis import strategies as st

from graphkp.errors import SizeLimitError
from graphkp.graphs import (MAX_VERTICES, SLOT_ENDPOINTS, Graph, _bit_indices,
                            all_graphs, aut_order, canonical_form, components,
                            edge_slot, emit_graph6, set_partitions)
from graphkp.hopf import GraphSum
from graphkp.invariants import INVARIANTS
from graphkp.schurkp import _p_monomial, _z, partitions_of
from graphkp.series import DEFAULT_ORDER, TruncSeries, exp, mono


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """One center (vertex 0) joined to n - 1 leaves."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def parse_poly(text: str, order: int, var: str = "q") -> TruncSeries:
    """Parse '" q1^4 + 6 q1^2 q2 - 1/2 q3"' style text into a series.

    Independent of TruncSeries.text() so the two cannot share a bug: this is
    a from-scratch tokenizer used only to transcribe expected values.
    """
    terms: dict = {}
    normalized = text.replace("-", "+-").replace(" ", "")
    for chunk in normalized.split("+"):
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        coeff = Fraction(1)
        exps: dict[int, int] = {}
        i = 0
        if chunk and chunk[0] not in ("q", "p"):
            j = i
            while j < len(chunk) and chunk[j] not in ("q", "p"):
                j += 1
            coeff = Fraction(chunk[i:j])
            i = j
        while i < len(chunk):
            assert chunk[i] == var, f"unexpected variable letter in {chunk!r}"
            i += 1
            j = i
            while j < len(chunk) and chunk[j].isdigit():
                j += 1
            idx = int(chunk[i:j])
            i = j
            exp = 1
            if i < len(chunk) and chunk[i] == "^":
                i += 1
                j = i
                while j < len(chunk) and chunk[j].isdigit():
                    j += 1
                exp = int(chunk[i:j])
                i = j
            exps[idx] = exps.get(idx, 0) + exp
        key = mono(exps)
        terms[key] = terms.get(key, 0) + sign * coeff
    return TruncSeries(order, var, terms)


def random_series(rng: random.Random, order: int, var: str = "q",
                  max_terms: int = 6, constant=None) -> TruncSeries:
    """Random sparse series; ``constant`` pins the constant term if given."""
    terms: dict = {}
    for _ in range(rng.randint(0, max_terms)):
        exps: dict[int, int] = {}
        budget = rng.randint(1, order)
        while budget:
            i = rng.randint(1, budget)
            exps[i] = exps.get(i, 0) + 1
            budget -= i
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        key = mono(exps)
        terms[key] = terms.get(key, 0) + coeff
    s = TruncSeries(order, var, terms)
    if constant is not None:
        base = {m: c for m, c in s.terms.items() if m}
        if constant:
            base[()] = Fraction(constant)
        s = TruncSeries(order, var, base)
    return s


def random_rational(rng: random.Random, lo: int = -9, hi: int = 9,
                    nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(lo, hi), rng.randint(1, 9))
        if value or not nonzero:
            return value


# -- per-graph oracles ----------------------------------------------------------


def _submasks(bits: int):
    sub = bits
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & bits


@cache
def subset_w(g: Graph, order: int) -> TruncSeries:
    """W by the edge-subset expansion: sum over E' <= E(g) of
    (-1)^(|E'| - |V| + k(E')) * prod q_{component sizes of (V, E')}.
    Walks 2^|E| subsets, so keep |E| small."""
    acc: Counter = Counter()
    for sub in _submasks(g.edges):
        comps = components(Graph(g.n, sub))
        sign = (-1) ** (sub.bit_count() - g.n + len(comps))
        acc[mono(Counter(len(c) for c in comps))] += sign
    return TruncSeries(order, "q", acc)


def spanning_forests(g: Graph) -> Iterator[int]:
    """Yield every acyclic edge subset of ``g`` exactly once, as edge bitsets.

    The empty forest is included.  Enumeration is by recursive edge
    inclusion/exclusion with union-find cycle rejection, so the work is
    proportional to the number of forests rather than 2**|E|.
    """
    edge_slots = tuple(_bit_indices(g.edges))
    m = len(edge_slots)
    parent = list(range(g.n))
    size = [1] * g.n

    def rec(i: int, bits: int) -> Iterator[int]:
        if i == m:
            yield bits
            return
        yield from rec(i + 1, bits)
        slot = edge_slots[i]
        u, v = SLOT_ENDPOINTS[slot]
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u == v:
            return
        if size[u] < size[v]:
            u, v = v, u
        parent[v] = u
        size[u] += size[v]
        yield from rec(i + 1, bits | 1 << slot)
        size[u] -= size[v]
        parent[v] = v

    yield from rec(0, 0)


@cache
def forest_a(g: Graph, order: int) -> TruncSeries:
    """A by the spanning-forest sum: sum over forests F of g of
    prod (size * q_size) over the trees of F."""
    acc: Counter = Counter()
    for forest in spanning_forests(g):
        sizes = [len(c) for c in components(Graph(g.n, forest))]
        acc[mono(Counter(sizes))] += prod(sizes)
    return TruncSeries(order, "q", acc)


class WeightedGraph(namedtuple("WeightedGraph", "graph weights")):
    """Graph with positive integer vertex weights; total weight is the grading."""

    __slots__ = ()

    def __new__(cls, graph: Graph, weights: tuple[int, ...]):
        if len(weights) != graph.n:
            raise ValueError("one weight per vertex required")
        if any(w < 1 for w in weights):
            raise ValueError("vertex weights must be positive integers")
        return tuple.__new__(cls, (graph, weights))

    @classmethod
    def from_graph(cls, g: Graph) -> "WeightedGraph":
        return cls(g, (1,) * g.n)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)


def contract_edge(wg: WeightedGraph, edge: tuple[int, int]) -> WeightedGraph:
    """Contract an edge of a weighted graph.

    The endpoints merge into the lower-labeled vertex, whose weight becomes
    the sum of the endpoint weights; parallel edges collapse; vertices above
    the removed endpoint shift down by one.  Total weight is preserved.
    """
    u, v = edge
    if u > v:
        u, v = v, u
    g = wg.graph
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not present")

    def newlabel(x: int) -> int:
        if x == v:
            return u
        return x - 1 if x > v else x

    bits = 0
    for a, b in g.edge_list():
        na, nb = newlabel(a), newlabel(b)
        if na != nb:
            bits |= 1 << edge_slot(na, nb)
    weights = list(wg.weights)
    weights[u] += weights[v]
    del weights[v]
    return WeightedGraph(Graph(g.n - 1, bits), tuple(weights))


def weighted_chromatic_dc(wg: WeightedGraph | Graph,
                          order: int = DEFAULT_ORDER) -> TruncSeries:
    """Weighted chromatic polynomial by deletion-contraction.

    Always splits on the lowest-numbered present edge slot; an edgeless
    weighted graph with vertex weights w_1..w_k maps to q_{w_1} ... q_{w_k}.
    On simple graphs (all weights 1) this agrees with the umbral assembly.
    """
    if isinstance(wg, Graph):
        wg = WeightedGraph.from_graph(wg)
    if wg.total_weight > order:
        raise SizeLimitError(
            f"total weight {wg.total_weight} exceeds truncation order {order}")
    if wg.graph.num_edges > 24:
        raise SizeLimitError("deletion-contraction capped at 24 edges")
    acc: dict[tuple[int, ...], int] = {}
    stack = [wg]
    while stack:
        cur = stack.pop()
        bits = cur.graph.edges
        if bits == 0:
            key = tuple(sorted(cur.weights))
            acc[key] = acc.get(key, 0) + 1
            continue
        slot = (bits & -bits).bit_length() - 1
        stack.append(WeightedGraph(Graph(cur.graph.n, bits ^ (1 << slot)),
                                   cur.weights))
        stack.append(contract_edge(cur, SLOT_ENDPOINTS[slot]))
    return TruncSeries(order, "q", {mono(Counter(weights)): val
                                    for weights, val in acc.items()})


def chromatic_oracle(g: Graph, colors: int) -> int:
    """Count proper colorings with colors {1..k} by scanning all k**n maps.

    Deliberately naive: no deletion-contraction, no shared code with the
    polynomial invariants, so it can act as an independent oracle.
    """
    if g.n > 8 or colors > 8:
        raise SizeLimitError("coloring oracle capped at 8 vertices and 8 colors")
    if colors < 0:
        raise ValueError("color count must be nonnegative")
    if g.n == 0:
        return 1
    if colors == 0:
        return 0
    edges = g.edge_list()
    count = 0
    for coloring in product(range(colors), repeat=g.n):
        if all(coloring[u] != coloring[v] for u, v in edges):
            count += 1
    return count


def partition_primitive(g: Graph) -> GraphSum:
    """pi(G) by its definition: sum over the set partitions B of V(G) of
    (-1)^(|B|-1) (|B|-1)! times G with every edge between distinct blocks
    removed.  Walks all Bell(n) partitions, canonicalizing each."""
    terms: Counter = Counter()
    for blocks in set_partitions(g.n):
        within = 0
        for block in blocks:
            for a, b in combinations(block, 2):
                within |= 1 << edge_slot(a, b)
        key = canonical_form(Graph(g.n, g.edges & within))
        terms[key] += (-1) ** (len(blocks) - 1) * factorial(len(blocks) - 1)
    return GraphSum(terms)


def brute_canonical_form(g: Graph) -> Graph:
    """Isomorphism-invariant representative: the relabeling minimizing the edge
    bitset.  Brute force over all vertex permutations with a monotone early
    abort (the bitset only grows while it is being assembled)."""
    n = g.n
    if n > 8:
        raise SizeLimitError(f"canonical form capped at 8 vertices, got {n}")
    m = n * (n - 1) // 2
    if n <= 2 or g.edges == 0 or g.edges == (1 << m) - 1:
        return g
    el = g.edge_list()
    best = g.edges
    for perm in permutations(range(n)):
        bits = 0
        ok = True
        for u, v in el:
            a, b = perm[u], perm[v]
            bits |= 1 << (b * (b - 1) // 2 + a if a < b else a * (a - 1) // 2 + b)
            if bits >= best:
                ok = False
                break
        if ok and bits < best:
            best = bits
    return Graph(n, best)


@cache
def brute_all_graphs(n: int) -> tuple[Graph, ...]:
    """Canonical representatives of every isomorphism class on n vertices.

    Sweeps the 2**C(n,2) labeled bitsets in increasing order and marks whole
    orbits, so each first-unseen bitset is the minimum of its orbit, i.e. the
    canonical form.  Capped at n = 7 (2**21 bitsets).
    """
    if n > 7:
        raise SizeLimitError(f"exhaustive enumeration capped at 7 vertices, got {n}")
    m = n * (n - 1) // 2
    perms = tuple(permutations(range(n)))
    seen = bytearray(1 << m)
    reps = []
    for bits in range(1 << m):
        if seen[bits]:
            continue
        reps.append(Graph(n, bits))
        el = tuple(SLOT_ENDPOINTS[s] for s in _bit_indices(bits))
        for perm in perms:
            image = 0
            for u, v in el:
                a, b = perm[u], perm[v]
                image |= 1 << (b * (b - 1) // 2 + a if a < b else a * (a - 1) // 2 + b)
            seen[image] = 1
    return tuple(reps)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Each of the C(n,2) edges present independently with probability p."""
    m = n * (n - 1) // 2
    return Graph(n, sum(1 << s for s in range(m) if rng.random() < p))


# -- graph6 strategies -----------------------------------------------------------

#: any graph the package accepts, up to the vertex cap
GRAPHS = st.integers(0, MAX_VERTICES).flatmap(lambda n: st.builds(
    Graph, st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1)))

#: text aimed at every branch of parse_graph6: arbitrary text, text over the
#: graph6 byte range and a little beyond, and valid values with an optional
#: header and a short random tail
GRAPH6_TEXT = (
    st.text(max_size=16)
    | st.text(alphabet=st.characters(min_codepoint=60, max_codepoint=128), max_size=16)
    | st.tuples(st.sampled_from(["", ">>graph6<<"]), GRAPHS.map(emit_graph6),
                st.text(max_size=2)).map("".join))


# -- ensemble oracles: edge-subset sweep and iso-class sums ----------------------


@cache
def _sweep(k: int, forests_only: bool) -> dict[int, int]:
    """Sweep all edge subsets of K_k (forests only with ``forests_only``).

    Keys pack the component-size multiset in 4-bit counts (sizes 1..k);
    values accumulate sign * 2^(C(k,2) - |E'|) as exact ints, where the
    2-power counts the supergraphs E >= E'.  With ``forests_only`` the
    cycle-closing branch is pruned and every sign is +1.  Callers must not
    mutate the cached result.
    """
    m = k * (k - 1) // 2
    eu = [SLOT_ENDPOINTS[s][0] for s in range(m)]
    ev = [SLOT_ENDPOINTS[s][1] for s in range(m)]
    parent = list(range(k))
    size = [1] * k
    acc: dict[int, int] = {}

    def rec(i: int, sign: int, ecount: int, key: int) -> None:
        if i == m:
            acc[key] = acc.get(key, 0) + (sign << (m - ecount))
            return
        rec(i + 1, sign, ecount, key)
        u = eu[i]
        while parent[u] != u:
            u = parent[u]
        v = ev[i]
        while parent[v] != v:
            v = parent[v]
        if u == v:
            if not forests_only:
                rec(i + 1, -sign, ecount + 1, key)
            return
        a, b = size[u], size[v]
        if a < b:
            u, v = v, u
            a, b = b, a
        parent[v] = u
        size[u] = a + b
        rec(i + 1, sign, ecount + 1,
            key + (1 << 4 * (a + b - 1)) - (1 << 4 * (a - 1)) - (1 << 4 * (b - 1)))
        parent[v] = v
        size[u] = a

    rec(0, 1, 0, k)  # k singleton components: count of size 1 lives in the low nibble
    return {key: val for key, val in acc.items() if val}


def _key_counts(key: int, k: int) -> dict[int, int]:
    return {s: key >> 4 * (s - 1) & 0xF for s in range(1, k + 1)
            if key >> 4 * (s - 1) & 0xF}


def swept_piece(which: str, k: int, order: int) -> TruncSeries:
    """Weight-k part of sum over k-vertex graphs of I_G / |Aut(G)|, by
    summing I over every labeled graph on k vertices:

    * W: (1/k!) * sum over E' <= E(K_k) of
      2^(C(k,2) - |E'|) * (-1)^(|E'| - k + c(E')) * prod q_{component sizes};
    * A: (1/k!) * sum over forests F <= E(K_k) of
      2^(C(k,2) - |F|) * prod (size * q_size) over trees of F.

    Walks 2^C(k,2) subsets for W, so keep k <= 7.
    """
    kfact = factorial(k)
    terms = {}
    for key, val in _sweep(k, forests_only=which == "A").items():
        counts = _key_counts(key, k)
        if which == "A":
            for sz, cnt in counts.items():
                val *= sz ** cnt
        terms[mono(counts)] = Fraction(val, kfact)
    return TruncSeries(order, "q", terms)


def swept_constants(which: str, n_max: int) -> list[Fraction]:
    """i_n = n! * [q_n] piece_n for n = 1..n_max, read off the sweep."""
    return [factorial(n) * swept_piece(which, n, n_max).coefficient({n: 1})
            for n in range(1, n_max + 1)]


def isoclass_series(which: str, k: int, order: int = DEFAULT_ORDER) -> TruncSeries:
    """Weight-k piece computed the definitional way: sum I_G / |Aut(G)| over
    the isomorphism classes of k-vertex graphs from :func:`all_graphs`.
    Deliberately independent of the partition formula; capped at k = 5."""
    if not 1 <= k <= 5:
        raise SizeLimitError(f"iso-class sums capped at 5 vertices, got {k}")
    invariant = INVARIANTS[which]
    total = TruncSeries.zero(order, "q")
    for g in all_graphs(k):
        total = total + invariant(g, order) * Fraction(1, aut_order(g))
    return total


# -- Schur oracles ---------------------------------------------------------------


def schur_one_part(n: int, order: int = DEFAULT_ORDER) -> TruncSeries:
    """s_n = sum_{mu |- n} p_mu / z_mu in power-sum variables."""
    if n > order:
        raise ValueError(f"s_{n} does not fit truncation order {order}")
    return TruncSeries(order, "p", {m: Fraction(1, _z(m))
                                    for m in map(_p_monomial, partitions_of(n))})


@cache
def _complete_homogeneous(order: int) -> TruncSeries:
    """sum_n h_n = exp(sum_k p_k / k), truncated at the order."""
    return exp(TruncSeries(order, "p", {mono({k: 1}): Fraction(1, k)
                                        for k in range(1, order + 1)}))


def schur_jacobi_trudi(lam, order: int) -> TruncSeries:
    """s_lambda = det(h_{lambda_i - i + j}) with h_0 = 1 and h_m = 0 for
    m < 0, each h_n the weight-n part of exp(sum p_k / k); the determinant
    is expanded along rows, memoized on the remaining columns."""
    lam = tuple(lam)
    if sum(lam) > order:
        raise ValueError(f"|lambda| = {sum(lam)} exceeds truncation order {order}")
    l = len(lam)
    one = TruncSeries.one(order, "p")
    zero = TruncSeries.zero(order, "p")
    h = _complete_homogeneous(order)

    def entry(i: int, j: int) -> TruncSeries:
        idx = lam[i] - i + j
        return zero if idx < 0 else h.homogeneous_part(idx)

    memo: dict[int, TruncSeries] = {}

    def minor(colmask: int) -> TruncSeries:
        if colmask == 0:
            return one
        if colmask not in memo:
            row = l - colmask.bit_count()
            total = zero
            sign = 1
            for j in range(l):
                if colmask >> j & 1:
                    e = entry(row, j)
                    if e:
                        total = total + e * minor(colmask ^ 1 << j) * sign
                    sign = -sign
            memo[colmask] = total
        return memo[colmask]

    return minor((1 << l) - 1)


def _solve_exact(matrix: list[list[Fraction]], ncols: int) -> list[Fraction]:
    """Gauss-Jordan elimination over Fractions for a square augmented system."""
    rows = len(matrix)
    assert rows == ncols, "expected a square system"
    for col in range(ncols):
        pivot = next(r for r in range(col, rows) if matrix[r][col])
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        inv = 1 / matrix[col][col]
        matrix[col] = [x * inv for x in matrix[col]]
        for r in range(rows):
            if r != col and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[col])]
    return [matrix[r][-1] for r in range(ncols)]


def elimination_expand(tau: TruncSeries) -> dict:
    """Schur coefficients of a p-series by one exact linear solve per
    weight w: the Jacobi-Trudi s_lambda with |lambda| = w are the columns,
    the monomials p_mu with |mu| = w the rows, and tau's weight-w part the
    right-hand side.  Zero coefficients are omitted."""
    out = {}
    for w in range(tau.order + 1):
        parts = partitions_of(w)
        index = {mono(Counter(mu)): r for r, mu in enumerate(parts)}
        matrix = [[Fraction(0)] * (len(parts) + 1) for _ in parts]
        for col, lam in enumerate(parts):
            for m, c in schur_jacobi_trudi(lam, w).terms.items():
                matrix[index[m]][col] = c
        for m, c in tau.homogeneous_part(w).terms.items():
            matrix[index[m]][-1] = c
        for lam, c in zip(parts, _solve_exact(matrix, len(parts))):
            if c:
                out[lam] = c
    return out


def hook_length_count(lam) -> int:
    """f^lambda, the number of standard Young tableaux of shape lambda, by
    the hook length formula n! / prod of the hook lengths."""
    conjugate = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    hooks = prod(lam[i] - j + conjugate[j] - i - 1
                 for i in range(len(lam)) for j in range(lam[i]))
    return factorial(sum(lam)) // hooks
