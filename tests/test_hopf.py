"""Hopf-algebra structure: coproduct, primitive projection, reconstruction."""

import ast
import random
from itertools import chain
from pathlib import Path

import pytest

import graphkp
from graphkp import graphs, invariants, schurkp, series
from graphkp.graphs import Graph, all_graphs, canonical_form, connected_graphs
from graphkp.hopf import UNIT_GRAPH, coproduct, expand_in_primitives, primitive_projection
from helpers import (add_sums, assembled_primitive, coproduct_sum, cycle_graph, flatten_expansion,
                     partition_expand, partition_primitive, path_graph, random_graph, tensor,
                     union_product)

VERTEX = Graph(1)
EDGE = Graph.from_edges(2, [(0, 1)])
TWO_POINTS = Graph(2)
ONE = {UNIT_GRAPH: 1}


class TestCoproduct:
    def test_single_vertex_is_primitive(self):
        expected = {(VERTEX, UNIT_GRAPH): 1, (UNIT_GRAPH, VERTEX): 1}
        assert coproduct(VERTEX).terms == expected

    def test_single_edge(self):
        expected = {
            (EDGE, UNIT_GRAPH): 1,
            (UNIT_GRAPH, EDGE): 1,
            (VERTEX, VERTEX): 2,
        }
        assert coproduct(EDGE).terms == expected

    def test_triangle(self):
        tri = cycle_graph(3)
        expected = {
            (canonical_form(tri), UNIT_GRAPH): 1,
            (UNIT_GRAPH, canonical_form(tri)): 1,
            (EDGE, VERTEX): 3,
            (VERTEX, EDGE): 3,
        }
        assert coproduct(tri).terms == expected

    def test_total_mass_and_grading(self):
        for n in range(0, 5):
            for g in all_graphs(n):
                delta = coproduct(g)
                assert sum(delta.terms.values()) == 2 ** n
                assert all(a.n + b.n == n for a, b in delta.terms)

    def test_cocommutativity(self):
        for n in range(0, 5):
            for g in all_graphs(n):
                delta = coproduct(g).terms
                assert {(b, a): c for (a, b), c in delta.items()} == delta

    def test_counit_axiom(self):
        # collapsing the left factor against the counit returns the graph
        for n in range(0, 5):
            for g in all_graphs(n):
                left_unit = {b: c for (a, b), c in coproduct(g).terms.items()
                             if a == UNIT_GRAPH}
                assert left_unit == {canonical_form(g): 1}


class TestPrimitiveProjection:
    def test_single_vertex_fixed(self):
        assert primitive_projection(VERTEX).terms == {VERTEX: 1}

    def test_single_edge(self):
        assert primitive_projection(EDGE).terms == {EDGE: 1, TWO_POINTS: -1}

    def test_empty_graph_projects_to_zero(self):
        # the unit is not primitive; the empty partition must not be weighted
        assert primitive_projection(UNIT_GRAPH).terms == {}

    def test_matches_partition_oracle(self):
        # every graph through 6 vertices, then seeded graphs with 6-9
        for n in range(1, 7):
            for g in all_graphs(n):
                assert primitive_projection(g).terms == partition_primitive(g), g
        rng = random.Random(2024)
        for n in (6, 6, 6, 7, 7, 8, 9):
            g = random_graph(rng, n, 0.5)
            assert primitive_projection(g).terms == partition_primitive(g), g

    @pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
    def test_matches_block_form_assembly_at_the_cap(self, density):
        # keyed by components, the projection equals the sum over the
        # multisets of block forms of the tuple-keyed assembly, at 10 vertices
        g = random_graph(random.Random(int(density * 100)), 10, density)
        assert primitive_projection(g).terms == assembled_primitive(g), g

    def test_projection_lands_in_primitives(self):
        # coproduct(pi(g)) == pi(g) (x) 1 + 1 (x) pi(g), on every connected
        # graph through 5 vertices and on seeded graphs with 8 and 9
        rng = random.Random(2026)
        seeded = [random_graph(rng, n, 0.5) for n in (8, 8, 9)]
        for g in chain(*map(connected_graphs, range(1, 6)), seeded):
            pi = primitive_projection(g).terms
            assert coproduct_sum(pi) == add_sums(tensor(pi, ONE), tensor(ONE, pi)), g

    def test_returned_projection_is_not_shared(self):
        # each call builds its own sum: clearing one leaves the next call,
        # and the flattening that projects its factors, intact
        primitive_projection(EDGE).terms.clear()
        assert primitive_projection(EDGE).terms == {EDGE: 1, TWO_POINTS: -1}
        p3 = path_graph(3)
        assert flatten_expansion(expand_in_primitives(p3)) == {canonical_form(p3): 1}

    def test_p3_projection_is_primitive(self):
        pi = primitive_projection(path_graph(3)).terms
        # weight-1 coefficient on the path itself, plus corrections
        assert pi[canonical_form(path_graph(3))] == 1
        assert coproduct_sum(pi) == add_sums(tensor(pi, ONE), tensor(ONE, pi))


class TestExpansion:
    def test_single_vertex(self):
        assert expand_in_primitives(VERTEX) == ((VERTEX,),)

    def test_single_edge(self):
        expansion = expand_in_primitives(EDGE)
        assert sorted(expansion) == sorted(((EDGE,), (VERTEX, VERTEX)))

    def test_triangle_partition_pattern(self):
        tri = canonical_form(cycle_graph(3))
        expansion = expand_in_primitives(cycle_graph(3))
        assert sorted(expansion).count((tri,)) == 1
        assert sorted(expansion).count((VERTEX, EDGE)) == 3
        assert sorted(expansion).count((VERTEX, VERTEX, VERTEX)) == 1

    def test_flattening_recovers_the_graph(self):
        for n in range(0, 6):
            for g in all_graphs(n):
                flattened = flatten_expansion(expand_in_primitives(g))
                assert flattened == {canonical_form(g): 1}, g

    @pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
    def test_matches_vertex_tuple_oracle(self, density):
        # same factor lists in the same partition order as set_partitions
        rng = random.Random(int(density * 10))
        for n in range(10):
            g = random_graph(rng, n, density)
            assert expand_in_primitives(g) == partition_expand(g), g


class TestGraphSumAlgebra:
    """The sums and products that the identities above are written in."""

    def test_product_is_disjoint_union(self):
        assert union_product({VERTEX: 1}, {VERTEX: 1}) == {TWO_POINTS: 1}

    def test_unit_element(self):
        s = {EDGE: 2, VERTEX: -1}
        assert union_product(ONE, s) == s

    def test_zero_coefficients_dropped(self):
        assert not add_sums({EDGE: 1}, {EDGE: -1})

    def test_text_rendering_deterministic(self):
        assert primitive_projection(EDGE).text() == "-1 A? + 1 A_"
        assert primitive_projection(UNIT_GRAPH).text() == "0"
        assert coproduct(EDGE).text() == "1 ?|A_ + 2 @|@ + 1 A_|?"


class TestResultContract:
    """Both maps hold only canonical keys and nonzero int coefficients."""

    def test_keys_canonical_and_coefficients_nonzero_ints(self):
        # every labelled graph through 5 vertices, then seeded G(n, 1/2)
        rng = random.Random(21)
        labelled = (Graph(n, e) for n in range(6) for e in range(1 << n * (n - 1) // 2))
        for g in chain(labelled, (random_graph(rng, n, 0.5) for n in range(6, 10))):
            delta = coproduct(g).terms
            pi = primitive_projection(g).terms
            assert type(delta) is dict and type(pi) is dict
            assert all(canonical_form(a) == a and canonical_form(b) == b for a, b in delta), g
            assert all(canonical_form(h) == h for h in pi), g
            for c in chain(delta.values(), pi.values()):
                assert type(c) is int and c != 0, g


#: every lru_cache in the package, with a sample call
CACHED = {
    "canonical_form": lambda: graphs.canonical_form(path_graph(3)),
    "all_graphs": lambda: graphs.all_graphs(3),
    "partitions_of": lambda: schurkp.partitions_of(4),
    "_prime_keys": lambda: series._prime_keys(4),
    "_decoded": lambda: series._decoded(2 * 2 * 5),
    "character": lambda: schurkp.character((2, 1), (1, 1, 1)),
    "_character_rows": lambda: schurkp._character_rows(((2, 1), (1, 1, 1))),
    "_derivative_plan": lambda: series._derivative_plan(4, 8, (1, 1)),
    "_size_keys": lambda: invariants._size_keys(3),
}


def test_caches_hand_out_immutable_values():
    # a cache hands one value to every caller, so the value must not be
    # mutable: the cached functions are exactly these, and each returns a
    # hashable value
    cached = []
    for path in sorted(Path(graphkp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    "lru_cache" in ast.unparse(d) for d in node.decorator_list):
                cached.append(node.name)
    assert sorted(cached) == sorted(CACHED)
    for call in CACHED.values():
        hash(call())
