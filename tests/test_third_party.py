"""Oracles written outside this package: networkx's graph6 codec, its atlas of
every graph on at most 7 vertices (Read and Wilson, *An Atlas of Graphs*),
one graph per isomorphism class, its VF2 isomorphism matcher, and its Tutte
and chromatic polynomials, which it computes as sympy expressions."""

import random
from collections import Counter

import networkx as nx
import sympy
from networkx.algorithms.isomorphism import GraphMatcher

from graphkp.graphs import (Graph, all_graphs, aut_order, canonical_form, connected_graphs,
                            emit_graph6, parse_graph6)
from graphkp.invariants import _b_abel, _b_chromatic, extract_b, weighted_chromatic
from helpers import evaluate, random_graph

#: all 1,253 graphs of the atlas, the empty graph on 0 vertices first
ATLAS = nx.graph_atlas_g()


def to_graph(h: nx.Graph) -> Graph:
    assert list(h) == list(range(len(h)))
    return Graph.from_edges(len(h), list(h.edges()))


def test_graph6_matches_networkx_both_ways():
    for h in ATLAS[1:]:
        g = to_graph(h)
        theirs = nx.to_graph6_bytes(h, header=False).decode().rstrip("\n")
        assert emit_graph6(g) == theirs, theirs
        assert parse_graph6(theirs) == g, theirs
        back = nx.from_graph6_bytes(emit_graph6(g).encode())
        assert len(back) == g.n and to_graph(back) == g, theirs


def test_canonical_forms_split_the_atlas_into_its_classes():
    by_order = Counter(len(h) for h in ATLAS)
    assert [by_order[n] for n in range(8)] == [1, 1, 2, 4, 11, 34, 156, 1044]
    for n in range(8):
        forms = {canonical_form(to_graph(h)) for h in ATLAS if len(h) == n}
        assert len(forms) == by_order[n] == len(all_graphs(n)), n
        assert forms == set(all_graphs(n)), n


def test_aut_order_counts_vf2_self_isomorphisms():
    for h in random.Random(11).sample(ATLAS[1:], 150):
        count = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
        assert aut_order(to_graph(h)) == count, nx.to_graph6_bytes(h, header=False)


# -- the invariants against networkx's Tutte and chromatic polynomials (sympy) --

#: the 31 connected graphs on 1 to 5 vertices, one per class
CONNECTED = [g for n in range(1, 6) for g in connected_graphs(n)]
X, Y = sympy.symbols("x y")


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edge_list())
    return h


def test_primitive_coefficients_are_tutte_evaluations():
    # b_W(G) = T_G(1, 0), and b_A(G) = n T_G(1, 1), n times the spanning trees
    for g in CONNECTED:
        tutte = nx.tutte_polynomial(to_networkx(g))
        assert extract_b("W", g) == int(tutte.subs({X: 1, Y: 0})), emit_graph6(g)
        assert extract_b("A", g) == g.n * int(tutte.subs({X: 1, Y: 1})), emit_graph6(g)


def test_b_tables_are_tutte_evaluations_on_every_subset():
    # b_W[S] = T_G[S](1, 0) and b_A[S] = |S| T_G[S](1, 1) when G[S] is
    # connected, both 0 when it is not, on every vertex subset of two G(6, p)
    rng = random.Random(6)  # 91 connected and 35 disconnected subsets
    for g in (random_graph(rng, 6, 0.5), random_graph(rng, 6, 0.8)):
        h, b_w, b_a = to_networkx(g), _b_chromatic(g), _b_abel(g)
        for s in range(1, 1 << g.n):
            sub = h.subgraph(v for v in range(g.n) if s >> v & 1)
            if nx.is_connected(sub):
                tutte = nx.tutte_polynomial(sub)
                assert b_w[s] == int(tutte.subs({X: 1, Y: 0})), (emit_graph6(g), s)
                assert b_a[s] == len(sub) * int(tutte.subs({X: 1, Y: 1})), (emit_graph6(g), s)
            else:
                assert b_w[s] == b_a[s] == 0, (emit_graph6(g), s)


def test_weighted_chromatic_specializes_to_the_chromatic_polynomial():
    # (-1)^n W_G(q_j = -k) = P_G(k), the proper colorings with k colors
    for g in CONNECTED:
        w = weighted_chromatic(g, g.n)
        chromatic = nx.chromatic_polynomial(to_networkx(g))
        for k in range(g.n + 2):
            value = (-1) ** g.n * evaluate(w, {j: -k for j in range(1, g.n + 1)})
            assert value == int(chromatic.subs(X, k)), (emit_graph6(g), k)
