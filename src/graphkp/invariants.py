"""Graph polynomial invariants with exact rational coefficients.

The invariants here are *umbral*: each is fixed by one primitive coefficient
b per connected graph, zero on disconnected ones, and combined over the set
partitions pi of the vertex set,

      U_G(q) = sum over pi of product over blocks B of pi of b(G[B]) q_|B|,

homogeneous of weight |V(G)| when q_i has weight i.
:func:`graphkp.graphs.assemble_partitions` evaluates this sum by a dynamic
program over vertex subsets (Bjorklund-Husfeldt-Koivisto, "Set partitioning
via inclusion-exclusion"), with weights from a table of b indexed by vertex
bitmask S and block labels the series keys of q_|B|, so that it keys each
partition by the series key of its monomial and its sums are the store of
the result.

Every b-table comes from one recursion, read at the invariant's row
(x, rooted) of the family table :data:`graphkp.errors.FAMILY`: b(S) =
|S|^rooted s(S), where s(S) = T_G[S](1, x) is the sum over the connected
spanning subgraphs of G[S] of (x - 1)^nullity (0 if G[S] is disconnected).
Such a subgraph minus the top vertex t of S is one on each block B of a set
partition of S \\ t, joined to t by a nonempty subset of its d = |N(t) & B|
edges to t, which sum to [d]_x = 1 + x + ... + x^(d-1).  So
s(S) = h_t(S \\ t), h_t(empty) = 1 and

      h_t(U) = sum over min U in B <= U of [|N(t) & B|]_x s(B) h_t(U \\ B),

about 3^n / 4 multiply-adds per table.  The rows are

* the weighted chromatic polynomial W (the edge-subset expansion
  sum over E' of (-1)^(|E'| - |V| + k(E')) q_{v_1} ... q_{v_k}) at x = 0,
  [d]_0 = [d > 0], unrooted: b(S) = T_G[S](1, 0);
* the Abel polynomial A (the sum over spanning forests of the product of
  size * q_size over their trees) at x = 1, [d]_1 = d, rooted:
  b(S) = |S| T_G[S](1, 1) = |S| tau(S), tau(S) the number of spanning
  trees of G[S].

:func:`umbral_from_b` reads b(S) from a map over connected canonical graphs,
once per distinct form in :func:`graphkp.graphs.induced_forms`, and
assembles the integers D^|B| b(B) over D^|V|, D the lcm of their
denominators; the b-tables of W and A are integers already.

The independent checks share no code with the assembly and live in
``tests/helpers.py``: W's b-table by the inverse recurrence over edgeless
blocks (``edgeless_recurrence_b``), A's by matrix-tree determinants
(``matrix_tree_b``), deletion-contraction, and brute-force colorings
((-1)^n W_G(q_j = -k) = #colorings with k colors).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm

from graphkp.errors import FAMILY, check_limit, family_row
from graphkp.graphs import Graph, assemble_partitions, induced_forms, is_connected
from graphkp.series import DEFAULT_ORDER, TruncSeries, _fraction, _variable_key


@lru_cache(maxsize=None)
def _size_keys(n: int) -> tuple[int, ...]:
    """The series key of q_|S| for every bitmask S of n vertices (1 for S empty)."""
    keys = (1, *map(_variable_key, range(1, n + 1)))
    return tuple([keys[s.bit_count()] for s in range(1 << n)])


def _assemble(b: list[int], order: int, den: int = 1) -> TruncSeries:
    """sum over set partitions of V of prod over blocks B of b[B] q_|B|,
    over den^|V|: each key of the assembly is the prime key of its monomial,
    so its sums are the numerators of the series."""
    n = len(b).bit_length() - 1
    return TruncSeries._reduced(order, "q", assemble_partitions(_size_keys(n), b), den ** n)


def b_table(which: str, g: Graph) -> list[int]:
    """b[S] = |S|^rooted s[S] for every vertex bitmask S, (x, rooted) the family
    row of ``which``: s[S] = T_G[S](1, x) if G[S] is connected, else 0, from
    weight[d] = [d]_x = 1 + x + ... + x^(d-1) (see module doc)."""
    x, rooted, _ = family_row(which)
    weight = [sum(x ** j for j in range(d)) for d in range(g.n + 1)]
    s = [0] * (1 << g.n)
    for t, nbrs in enumerate(g.adjacency_masks()):
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
    return [mask.bit_count() ** rooted * v for mask, v in enumerate(s)]


def invariant(which: str, g: Graph, order: int = DEFAULT_ORDER) -> TruncSeries:
    """The invariant named ``which``, assembled from its b-table."""
    check_limit("order", order, low=g.n)
    return _assemble(b_table(which, g), order)


def weighted_chromatic(g: Graph, order: int = DEFAULT_ORDER) -> TruncSeries:
    """Weighted chromatic polynomial, assembled from b = T_G[S](1, 0)."""
    return invariant("W", g, order)


def abel(g: Graph, order: int = DEFAULT_ORDER) -> TruncSeries:
    """Abel polynomial: sum over spanning forests of prod (size * q_size),
    assembled from b = |S| * tau(G[S])."""
    return invariant("A", g, order)


class _Invariants(Mapping):
    """The invariant of each family row, by name, read from the family table
    on every access, so a row added to it later is here too."""

    def __getitem__(self, which: str):
        if which not in FAMILY:
            raise KeyError(which)
        return partial(invariant, which)

    def __iter__(self):
        return iter(FAMILY)

    def __len__(self) -> int:
        return len(FAMILY)


#: The invariant of each family row, by name: a read-only view of the family table.
INVARIANTS = _Invariants()


def extract_b(which: str, g: Graph) -> Fraction:
    """Primitive coefficient of a connected graph: the coefficient of q_n in
    the invariant, the last entry of its b-table (b of the full vertex set)."""
    b = b_table(which, g)
    if not is_connected(g):
        raise ValueError("primitive coefficients are defined for connected graphs only")
    return Fraction(b[-1])


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
    den = lcm(*[x.denominator for x in values.values()])
    scaled = {h: int(x * den ** h.n) for h, x in values.items()}
    return _assemble([scaled[h] for h in forms], order, den)
