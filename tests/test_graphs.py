"""Graph primitives: slots, components, induced forms, partitions and their assembly,
automorphisms, canonical forms and isomorphism classes, graph6; and the
spanning-forest and edge-contraction helpers the oracles use."""

import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphkp.errors import Graph6ParseError, SizeLimitError
from graphkp.graphs import (Graph, all_graphs, assemble_partitions, aut_order,
                            canonical_form, components,
                            connected_graphs, disjoint_union, edge_slot,
                            emit_graph6, induced_forms, is_connected, parse_graph6)
from graphkp.invariants import _size_keys, b_table
from helpers import (GRAPH6_TEXT, GRAPHS, WeightedGraph, brute_all_graphs,
                     brute_aut_order, brute_canonical_form, complete_graph, contract_edge,
                     cycle_graph, induced_subset_forms, path_graph, random_graph,
                     set_partitions, spanning_forests, star_graph, trial_division_decode,
                     tuple_assemble_partitions)

BELL = [1, 1, 2, 5, 15, 52, 203, 877]
INTEGER_PARTITIONS = [1, 1, 2, 3, 5, 7, 11, 15]


def copies(h: Graph, k: int) -> Graph:
    g = Graph(0)
    for _ in range(k):
        g = disjoint_union(g, h)
    return g


def complement(g: Graph) -> Graph:
    return Graph(g.n, complete_graph(g.n).edges ^ g.edges)


def icosahedron() -> Graph:
    """Apex 0, pentagon 1..5, antiprism band to pentagon 6..10, apex 11."""
    ring = [(i, i % 5 + 1) for i in range(1, 6)]
    return Graph.from_edges(12, [(0, i) for i in range(1, 6)] + ring
                            + [(i, i + 5) for i in range(1, 6)]
                            + [(i, i % 5 + 6) for i in range(1, 6)]
                            + [(a + 5, b + 5) for a, b in ring]
                            + [(11, i) for i in range(6, 11)])


def symmetric_twelve_vertex_graphs() -> list[tuple[Graph, int]]:
    """Pairwise non-isomorphic 12-vertex graphs with large automorphism
    groups, each with |Aut|: 6K2, 4K3, 3C4, 2C6, C12, the 3x4 rook graph,
    the icosahedron, then their complements (same groups)."""
    rook = Graph.from_edges(12, [(a, b) for a in range(12) for b in range(a + 1, 12)
                                 if a // 4 == b // 4 or a % 4 == b % 4])
    family = [(copies(complete_graph(2), 6), 46080), (copies(complete_graph(3), 4), 31104),
              (copies(cycle_graph(4), 3), 3072), (copies(cycle_graph(6), 2), 288),
              (cycle_graph(12), 24), (rook, 144), (icosahedron(), 120)]
    return family + [(complement(g), aut) for g, aut in family]


class TestSlots:
    def test_colex_slot_order(self):
        assert [edge_slot(*e) for e in [(0, 1), (0, 2), (1, 2), (0, 3)]] == [0, 1, 2, 3]
        assert edge_slot(2, 1) == edge_slot(1, 2)

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            edge_slot(2, 2)

    @pytest.mark.parametrize("perm", [[0, 2, 2], [0, 1], [0, 0, 1]])
    def test_relabel_needs_a_permutation(self, perm):
        # a repeat would merge edges, a short list index out of range, and
        # [0, 0, 1] would report a loop
        with pytest.raises(ValueError, match="permutation"):
            Graph.from_edges(3, [(0, 1), (0, 2)]).relabel(perm)

    def test_from_edges_bitset(self):
        assert Graph.from_edges(4, [(0, 1)]).edges == 1
        assert Graph.from_edges(4, [(2, 3)]).edges == 1 << 5

    @pytest.mark.parametrize("make", [
        lambda: Graph(3, 1 << 3), lambda: Graph(3, -1),
        lambda: Graph.from_edges(3, [(0, 3)]), lambda: Graph.from_edges(3, [(-1, 0)]),
        lambda: Graph(3).induced([0, 0]), lambda: Graph(3).induced([0, 3]),
        lambda: Graph(3).induced([-1, 1]),
    ], ids=["bitset above", "bitset negative", "edge vertex n", "edge vertex -1",
            "induced repeat", "induced vertex n", "induced vertex -1"])
    def test_out_of_range_edges_and_vertices_rejected(self, make):
        with pytest.raises(ValueError, match="out of range|distinct vertices"):
            make()

    @pytest.mark.parametrize("edges", [1.0, True])
    def test_edge_bitset_must_be_an_int(self, edges):
        # 1.0 would fail later in num_edges and graph6; True would read as edge 0
        with pytest.raises(TypeError):
            Graph(3, edges)


class TestComponents:
    def test_empty_graph_on_three_vertices(self):
        assert components(Graph(3)) == [(0,), (1,), (2,)]

    def test_path_is_one_component(self):
        assert components(path_graph(3)) == [(0, 1, 2)]

    def test_two_disjoint_edges(self):
        g = Graph.from_edges(4, [(0, 2), (1, 3)])
        assert components(g) == [(0, 2), (1, 3)]

    def test_is_connected(self):
        assert is_connected(Graph(1))
        assert not is_connected(Graph(2))
        assert is_connected(cycle_graph(3))

    def test_empty_graph_connectivity_undefined(self):
        with pytest.raises(ValueError):
            is_connected(Graph(0))


class TestForests:
    def test_small_counts(self):
        assert len(list(spanning_forests(Graph.from_edges(2, [(0, 1)])))) == 2
        assert len(list(spanning_forests(path_graph(3)))) == 4
        assert len(list(spanning_forests(cycle_graph(3)))) == 7

    def test_forests_are_unique_and_acyclic(self):
        g = complete_graph(4)
        seen = list(spanning_forests(g))
        assert len(seen) == len(set(seen))
        for forest in seen:
            sub = Graph(4, forest)
            assert sub.num_edges + len(components(sub)) == 4

    def test_cayley_spanning_tree_counts(self):
        for n in range(2, 8):
            trees = sum(1 for f in spanning_forests(complete_graph(n))
                        if f.bit_count() == n - 1)
            assert trees == n ** (n - 2)


class TestSetPartitions:
    @pytest.mark.parametrize("n", range(8))
    def test_counts_are_bell_numbers(self, n):
        assert sum(1 for _ in set_partitions(n)) == BELL[n]

    def test_blocks_are_canonical(self):
        for blocks in set_partitions(4):
            flat = sorted(v for block in blocks for v in block)
            assert flat == [0, 1, 2, 3]
            mins = [block[0] for block in blocks]
            assert mins == sorted(mins)
            assert all(list(block) == sorted(block) for block in blocks)

    def test_empty_set_has_one_partition(self):
        assert list(set_partitions(0)) == [()]

    @pytest.mark.parametrize("n", range(8))
    def test_order_is_restricted_growth_lex(self, n):
        # hopf --op expand prints in this order.  The oracle filters the
        # strings s with s[v] <= v, in lex order, down to the restricted
        # growth strings (each entry at most one above every one before it)
        # and reads block b off as the vertices v with s[v] == b.
        rgs = [s for s in itertools.product(*(range(v + 1) for v in range(n)))
               if all(b <= max(s[:v], default=-1) + 1 for v, b in enumerate(s))]
        expected = [tuple(tuple(v for v in range(n) if s[v] == b)
                          for b in range(max(s, default=-1) + 1)) for s in rgs]
        assert list(set_partitions(n)) == expected

    @pytest.mark.parametrize("n", range(8))
    def test_assembly_counts_partitions_by_block_sizes(self, n):
        # n! / (prod lambda_i! prod m_j!) set partitions have block sizes lambda;
        # each block is labelled by the prime key of q_|B|, so a key decodes
        # to the partition lambda (by trial division, not the key table)
        keyed = assemble_partitions(_size_keys(n), [1] * (1 << n))
        counts = {trial_division_decode(key)[1]: count for key, count in keyed.items()}
        assert len(counts) == len(keyed) == INTEGER_PARTITIONS[n]
        for lam, count in counts.items():
            assert list(lam) == sorted(lam, reverse=True) and sum(lam) == n
            denom = math.prod(math.factorial(m) for m in lam + tuple(Counter(lam).values()))
            assert count * denom == math.factorial(n), lam
        assert sum(counts.values()) == BELL[n]

    def test_prime_keys_match_tuple_oracle(self, rng):
        # labelled by the prime keys of q_|B| and weighted by the b-tables of
        # W and A, the assembly decodes to the tuple-keyed oracle's sums, on
        # every graph with at most 6 vertices and on seeded graphs with 7-10
        seeded = [random_graph(rng, n, p) for n in range(7, 11) for p in (0.3, 0.7)]
        for g in itertools.chain(*map(all_graphs, range(7)), seeded):
            sizes = [s.bit_count() for s in range(1 << g.n)]
            for which in ("W", "A"):
                b = b_table(which, g)
                keyed = assemble_partitions(_size_keys(g.n), b)
                decoded = {trial_division_decode(key)[1]: total for key, total in keyed.items()}
                assert decoded == tuple_assemble_partitions(sizes, b), (which, g)


class TestInducedForms:
    def test_matches_induced_subgraphs_through_five_vertices(self):
        for n in range(6):
            for bits in range(1 << n * (n - 1) // 2):
                g = Graph(n, bits)
                assert induced_forms(g) == induced_subset_forms(g), g

    def test_matches_induced_subgraphs_on_seeded_graphs(self, rng):
        for n in range(6, 11):
            for p in (0.2, 0.5, 0.8):
                g = random_graph(rng, n, p)
                assert induced_forms(g) == induced_subset_forms(g), g


class TestAutomorphisms:
    def test_known_orders(self):
        assert aut_order(path_graph(4)) == 2
        assert aut_order(star_graph(4)) == 6
        assert aut_order(complete_graph(4)) == 24
        assert aut_order(cycle_graph(4)) == 8
        assert aut_order(Graph(3)) == 6

    def test_petersen_graph(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        assert aut_order(Graph.from_edges(10, outer + inner + spokes)) == 120

    def test_orbit_stabilizer_on_samples(self, rng):
        for n in range(2, 8):
            for _ in range(4):
                bits = rng.randrange(1 << (n * (n - 1) // 2))
                g = Graph(n, bits)
                orbit = {g.relabel(p).edges for p in itertools.permutations(range(n))}
                assert len(orbit) * aut_order(g) == math.factorial(n)

    def test_symmetric_twelve_vertex_graphs(self):
        for g, aut in symmetric_twelve_vertex_graphs():
            assert aut_order(g) == aut, g
        assert aut_order(complete_graph(12)) == aut_order(Graph(12)) == math.factorial(12)

    def test_labeled_graphs_counted_by_classes(self):
        # each class holds n! / |Aut| labeled graphs, and there are 2**C(n,2)
        for n in range(8):
            total = sum(math.factorial(n) // aut_order(g) for g in all_graphs(n))
            assert total == 2 ** (n * (n - 1) // 2), n


class TestCanonicalForm:
    def test_relabelings_collapse(self):
        tri1 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert canonical_form(tri1) == canonical_form(cycle_graph(3))
        p1 = Graph.from_edges(3, [(0, 1), (1, 2)])
        p2 = Graph.from_edges(3, [(0, 2), (2, 1)])
        assert canonical_form(p1) == canonical_form(p2)
        q1 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        q2 = Graph.from_edges(4, [(2, 0), (0, 1), (1, 3)])
        assert canonical_form(q1) == canonical_form(q2)

    def test_idempotent_and_invariant_under_random_relabeling(self, rng):
        for n in range(2, 8):
            for _ in range(3):
                g = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
                canon = canonical_form(g)
                assert canonical_form(canon) == canon
                for _ in range(50):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    assert canonical_form(g.relabel(perm)) == canon

    def test_class_counts(self):
        # numbers of isomorphism classes of simple graphs on n vertices
        assert [len(all_graphs(n)) for n in range(8)] == [1, 1, 2, 4, 11, 34, 156, 1044]
        assert [len(connected_graphs(n)) for n in range(8)] == [0, 1, 1, 2, 6, 21, 112, 853]

    def test_classes_match_orbit_sweep(self):
        for n in range(7):
            assert all_graphs(n) == brute_all_graphs(n)

    def test_enumeration_leaves_canonical_cache_empty(self):
        all_graphs.cache_clear()
        canonical_form.cache_clear()
        all_graphs(6)
        assert canonical_form.cache_info().currsize == 0

    def test_class_enumeration_cap(self):
        for n in (-1, 8):
            with pytest.raises(SizeLimitError):
                all_graphs(n)

    def test_matches_brute_force_through_five_vertices(self):
        for n in range(6):
            for bits in range(1 << n * (n - 1) // 2):
                g = Graph(n, bits)
                assert canonical_form(g) == brute_canonical_form(g)
                assert aut_order(g) == brute_aut_order(g)

    def test_matches_brute_force_on_seeded_graphs(self, rng):
        graphs = [random_graph(rng, n, p) for n in range(6, 9)
                  for p in (0.15, 0.3, 0.5, 0.7, 0.85) for _ in range(2)]
        graphs += [copies(h, k) for h, k in (
            (complete_graph(2), 3), (complete_graph(2), 4), (path_graph(3), 2),
            (cycle_graph(3), 2), (cycle_graph(4), 2), (star_graph(4), 2),
            (random_graph(rng, 4, 0.5), 2), (random_graph(rng, 3, 0.5), 2))]
        graphs.append(disjoint_union(Graph(1), copies(path_graph(3), 2)))
        for g in graphs + [complement(g) for g in graphs]:
            assert canonical_form(g) == brute_canonical_form(g)

    def test_class_representatives_are_fixed_points(self):
        # all_graphs returns canonical forms, so each is its own form
        for n in range(7):
            for g in all_graphs(n):
                assert canonical_form(g) == g

    def test_symmetric_twelve_vertex_graphs(self, rng):
        family = [g for g, _ in symmetric_twelve_vertex_graphs()]
        forms = set()
        for g in family:
            canon = canonical_form(g)
            assert canonical_form(canon) == canon
            assert (canon.n, canon.num_edges) == (12, g.num_edges)
            for _ in range(3):
                perm = list(range(12))
                rng.shuffle(perm)
                assert canonical_form(g.relabel(perm)) == canon
            forms.add(canon)
        assert len(forms) == len(family)  # pairwise non-isomorphic
        # each new label's neighbour takes the least free label
        assert canonical_form(family[0]) == Graph.from_edges(12, [(i, 11 - i) for i in range(6)])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_properties(self, data):
        g = data.draw(GRAPHS)
        perm = data.draw(st.permutations(range(g.n)))
        canon = canonical_form(g)
        assert (canon.n, canon.num_edges) == (g.n, g.num_edges)
        assert canonical_form(canon) == canon
        assert canonical_form(g.relabel(perm)) == canon
        aut = aut_order(g)
        assert aut_order(g.relabel(perm)) == aut
        if g.n <= 7:
            assert canon == brute_canonical_form(g)
            assert aut == brute_aut_order(g)


class TestContraction:
    def test_single_edge_to_weight_two_vertex(self):
        wg = WeightedGraph.from_graph(Graph.from_edges(2, [(0, 1)]))
        out = contract_edge(wg, (0, 1))
        assert out.graph == Graph(1)
        assert out.weights == (2,)

    def test_triangle_edge_contraction(self):
        wg = WeightedGraph.from_graph(cycle_graph(3))
        out = contract_edge(wg, (0, 1))
        assert out.graph == Graph.from_edges(2, [(0, 1)])
        assert sorted(out.weights) == [1, 2]

    def test_weighted_endpoints_sum(self):
        wg = WeightedGraph(Graph.from_edges(2, [(0, 1)]), (2, 3))
        assert contract_edge(wg, (0, 1)).weights == (5,)

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError):
            contract_edge(WeightedGraph.from_graph(Graph(3)), (0, 1))

    def test_total_weight_and_components_preserved(self, rng):
        for _ in range(20):
            n = rng.randint(2, 7)
            g = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
            if not g.edges:
                continue
            wg = WeightedGraph(g, tuple(rng.randint(1, 3) for _ in range(n)))
            edge = g.edge_list()[rng.randrange(g.num_edges)]
            out = contract_edge(wg, edge)
            assert out.total_weight == wg.total_weight
            assert len(components(out.graph)) == len(components(g))


class TestGraph6:
    def test_known_encodings(self):
        assert parse_graph6("@") == Graph(1)
        assert parse_graph6("A_") == Graph.from_edges(2, [(0, 1)])
        assert parse_graph6("Bw") == cycle_graph(3)

    def test_triangle_encoding_by_hand(self):
        # slots (0,1), (0,2), (1,2) all set -> bits 111, padded to 111000,
        # so the edge byte is 63 + 0b111000 = 119 = 'w'
        assert emit_graph6(cycle_graph(3)) == "Bw"

    def test_round_trip_random(self, rng):
        for _ in range(80):
            n = rng.randint(0, 9)
            g = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)) if n > 1 else 0)
            assert parse_graph6(emit_graph6(g)) == g

    def test_header_prefix_accepted(self):
        assert parse_graph6(">>graph6<<Bw") == cycle_graph(3)

    def test_malformed_inputs_report_offsets(self):
        with pytest.raises(Graph6ParseError) as err:
            parse_graph6("B")  # missing edge byte
        assert err.value.offset == 1
        with pytest.raises(Graph6ParseError) as err:
            parse_graph6("A" + chr(1))  # edge byte below printable range
        assert err.value.offset == 1
        with pytest.raises(Graph6ParseError):
            parse_graph6("@@")  # trailing garbage
        with pytest.raises(Graph6ParseError):
            parse_graph6("A~")  # nonzero padding bits
        with pytest.raises(Graph6ParseError):
            parse_graph6("")

    def test_vertex_cap(self):
        with pytest.raises(SizeLimitError):
            parse_graph6(chr(63 + 13))
        with pytest.raises(SizeLimitError):
            parse_graph6("~??")  # long-form count

    @settings(max_examples=300, deadline=None)
    @given(text=GRAPH6_TEXT)
    def test_parse_any_text(self, text):
        """Any text parses to a Graph or raises one of the two input errors."""
        try:
            g = parse_graph6(text)
        except (Graph6ParseError, SizeLimitError):
            return
        assert isinstance(g, Graph)
        assert parse_graph6(emit_graph6(g)) == g

    @settings(max_examples=200, deadline=None)
    @given(g=GRAPHS)
    def test_emit_parse_round_trip(self, g):
        assert parse_graph6(emit_graph6(g)) == g


class TestUnion:
    def test_disjoint_union_shifts_right_factor(self):
        g = disjoint_union(Graph.from_edges(2, [(0, 1)]), Graph.from_edges(2, [(0, 1)]))
        assert g == Graph.from_edges(4, [(0, 1), (2, 3)])
