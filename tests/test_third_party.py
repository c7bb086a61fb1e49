"""Oracles written outside this package: networkx's graph6 codec, its atlas of
every graph on at most 7 vertices (Read and Wilson, *An Atlas of Graphs*),
one graph per isomorphism class, and its VF2 isomorphism matcher."""

import random
from collections import Counter

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

from graphkp.graphs import Graph, all_graphs, aut_order, canonical_form, emit_graph6, parse_graph6

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
