"""Graph polynomial invariants with exact rational coefficients.

The invariants here are *umbral*: each is fixed by one primitive coefficient
b per connected graph, zero on disconnected ones, and combined over the set
partitions pi of the vertex set,

      U_G(q) = sum over pi of product over blocks B of pi of b(G[B]) q_|B|,

homogeneous of weight |V(G)| when q_i has weight i.
:func:`graphkp.graphs.assemble_partitions` evaluates this sum by a dynamic
program over vertex subsets (Bjorklund-Husfeldt-Koivisto, "Set partitioning
via inclusion-exclusion"), with block labels |B| and weights from a table of
b indexed by vertex bitmask S.

The b-tables of W and A come from one recursion.  Let s(S) = T_G[S](1, x),
the sum over the connected spanning subgraphs of G[S] of (x - 1)^nullity
(0 if G[S] is disconnected).  Such a subgraph minus the top vertex t of S is
one on each block B of a set partition of S \\ t, joined to t by a nonempty
subset of its d = |N(t) & B| edges to t, which sum to [d]_x = 1 + x + ...
+ x^(d-1).  So s(S) = h_t(S \\ t), h_t(empty) = 1 and

      h_t(U) = sum over min U in B <= U of [|N(t) & B|]_x s(B) h_t(U \\ B),

about 3^n / 4 multiply-adds per table.  It gives

* the weighted chromatic polynomial W (the edge-subset expansion
  sum over E' of (-1)^(|E'| - |V| + k(E')) q_{v_1} ... q_{v_k}) at x = 0,
  [d]_0 = [d > 0]: b(S) = T_G[S](1, 0);
* the Abel polynomial A (the sum over spanning forests of the product of
  size * q_size over their trees) at x = 1, [d]_1 = d:
  b(S) = |S| T_G[S](1, 1) = |S| tau(S), tau(S) the number of spanning
  trees of G[S].

:func:`umbral_from_b` reads b(S) from a map over connected canonical graphs,
once per distinct form in :func:`graphkp.graphs.induced_forms`.  Every
b-table is assembled on the integers D^|B| b(B) over D^|V|, D the lcm of its
denominators (1 for W and A).

The independent checks share no code with the assembly and live in
``tests/helpers.py``: W's b-table by the inverse recurrence over edgeless
blocks (``edgeless_recurrence_b``), A's by matrix-tree determinants
(``matrix_tree_b``), deletion-contraction, and brute-force colorings
((-1)^n W_G(q_j = -k) = #colorings with k colors).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm

from graphkp.errors import check_limit
from graphkp.graphs import Graph, assemble_partitions, induced_forms, is_connected
from graphkp.series import DEFAULT_ORDER, TruncSeries, _fraction, _from_parts


def _assemble(b, order: int) -> TruncSeries:
    """sum over set partitions of V of prod over blocks B of b[B] q_|B|, on
    the integers D^|B| b[B] over D^|V|, D the lcm of the denominators; each
    key of the assembly is the partition of its monomial."""
    den = lcm(*[x.denominator for x in b])
    sizes = [s.bit_count() for s in range(len(b))]
    scaled = [int(x * den ** k) for x, k in zip(b, sizes)]
    return _from_parts(order, "q", assemble_partitions(sizes, scaled), den ** sizes[-1])


def _tutte_table(g: Graph, weight) -> list[int]:
    """s[S] = T_G[S](1, x) if G[S] is connected, else 0, for every vertex
    bitmask S, from weight[d] = [d]_x = 1 + x + ... + x^(d-1) (see module doc)."""
    masks = g.adjacency_masks()
    s = [0] * (1 << g.n)
    for t, nbrs in enumerate(masks):
        top = 1 << t
        # w[B] = [|N(t) & B|]_x s(B), h[U] = s(U + t), for the masks U, B below t
        w = [weight[(nbrs & blk).bit_count()] * s[blk] for blk in range(top)]
        h = [1] * top
        for u in range(1, top):
            low = u & -u
            rest = u ^ low
            total = w[low] * h[rest]
            r = rest
            while r:
                wb = w[low | r]
                if wb:
                    total += wb * h[rest ^ r]
                r = (r - 1) & rest
            h[u] = total
        s[top:2 * top] = h
    return s


def _b_chromatic(g: Graph) -> list[int]:
    """b[S] = T_G[S](1, 0) for every vertex bitmask S: weight [d]_0 = [d > 0]."""
    return _tutte_table(g, [0] + [1] * g.n)


def _b_abel(g: Graph) -> list[int]:
    """b[S] = |S| T_G[S](1, 1) = |S| tau(S) for every vertex bitmask S, tau(S)
    the number of spanning trees of G[S]: weight [d]_1 = d."""
    return [s.bit_count() * x for s, x in enumerate(_tutte_table(g, range(g.n + 1)))]


def weighted_chromatic(g: Graph, order: int = DEFAULT_ORDER) -> TruncSeries:
    """Weighted chromatic polynomial, assembled from b = T_G[S](1, 0)."""
    check_limit("order", order, low=g.n)
    return _assemble(_b_chromatic(g), order)


def abel(g: Graph, order: int = DEFAULT_ORDER) -> TruncSeries:
    """Abel polynomial: sum over spanning forests of prod (size * q_size),
    assembled from b = |S| * tau(G[S])."""
    check_limit("order", order, low=g.n)
    return _assemble(_b_abel(g), order)


INVARIANTS = {
    "W": weighted_chromatic,
    "A": abel,
}

_B_TABLES = {"W": _b_chromatic, "A": _b_abel}


def extract_b(which: str, g: Graph) -> Fraction:
    """Primitive coefficient of a connected graph: the coefficient of q_n in
    the invariant, the last entry of its b-table (b of the full vertex set)."""
    if which not in _B_TABLES:
        raise ValueError(f"unknown invariant {which!r}, expected one of {sorted(_B_TABLES)}")
    if not is_connected(g):
        raise ValueError("primitive coefficients are defined for connected graphs only")
    return Fraction(_B_TABLES[which](g)[-1])


def _primitive(b: Mapping[Graph, Fraction], h: Graph) -> Fraction:
    """b[h] for a canonical graph h; zero, unread, if h is empty or disconnected."""
    if not h.n or not is_connected(h):
        return Fraction(0)
    if h not in b:
        raise ValueError(f"no primitive coefficient for a connected graph on {h.n} vertices")
    return _fraction(b[h])


def umbral_from_b(g: Graph, b: Mapping[Graph, Fraction],
                  order: int = DEFAULT_ORDER) -> TruncSeries:
    """Reconstruct an umbral invariant by the set partition assembly from its
    primitive coefficients ``b``, a map over connected canonical graphs.  Each
    distinct induced form is read once; partitions with a disconnected block
    contribute 0."""
    check_limit("order", order, low=g.n)
    forms = induced_forms(g)
    values = {h: _primitive(b, h) for h in set(forms)}
    return _assemble([values[h] for h in forms], order)
