"""Invariant computations: frozen small-graph values, the umbral assembly
against deletion-contraction and the definitional expansions, the binomial
property, oracles, and umbral reconstruction."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphkp.errors import SizeLimitError
from graphkp.graphs import (MAX_VERTICES, Graph, all_graphs, canonical_form,
                            connected_graphs, disjoint_union, induced_forms, is_connected)
from graphkp.hopf import primitive_projection
from graphkp.invariants import (INVARIANTS, _b_abel, _b_chromatic, abel, extract_b,
                                umbral_from_b, weighted_chromatic)
from graphkp.series import TruncSeries, mono
from helpers import (NOT_EXACT, WeightedGraph, chromatic_oracle, complete_graph, cycle_graph,
                     edgeless_recurrence_b, evaluate, forest_a, matrix_tree_b, parse_poly,
                     partition_umbral, path_graph, random_graph, random_rational, star_graph,
                     subset_w, weighted_chromatic_dc)

EDGE = Graph.from_edges(2, [(0, 1)])

# the six connected graphs on four vertices
P4 = path_graph(4)
CLAW = star_graph(4)
PAW = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
C4 = cycle_graph(4)
DIAMOND = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)])
K4 = complete_graph(4)

W_TABLE = {
    EDGE: "q1^2 + q2",
    path_graph(3): "q1^3 + 2 q1 q2 + q3",
    cycle_graph(3): "q1^3 + 3 q1 q2 + 2 q3",
    P4: "q1^4 + 3 q1^2 q2 + q2^2 + 2 q1 q3 + q4",
    CLAW: "q1^4 + 3 q1^2 q2 + 3 q1 q3 + q4",
    PAW: "q1^4 + 4 q1^2 q2 + q2^2 + 4 q1 q3 + 2 q4",
    C4: "q1^4 + 4 q1^2 q2 + 2 q2^2 + 4 q1 q3 + 3 q4",
    DIAMOND: "q1^4 + 5 q1^2 q2 + 2 q2^2 + 6 q1 q3 + 4 q4",
    K4: "q1^4 + 6 q1^2 q2 + 3 q2^2 + 8 q1 q3 + 6 q4",
}

A_TABLE = {
    EDGE: "q1^2 + 2 q2",
    path_graph(3): "q1^3 + 4 q1 q2 + 3 q3",
    cycle_graph(3): "q1^3 + 6 q1 q2 + 9 q3",
    P4: "q1^4 + 6 q1^2 q2 + 4 q2^2 + 6 q1 q3 + 4 q4",
    CLAW: "q1^4 + 6 q1^2 q2 + 9 q1 q3 + 4 q4",
    PAW: "q1^4 + 8 q1^2 q2 + 4 q2^2 + 15 q1 q3 + 12 q4",
    C4: "q1^4 + 8 q1^2 q2 + 8 q2^2 + 12 q1 q3 + 16 q4",
    DIAMOND: "q1^4 + 10 q1^2 q2 + 8 q2^2 + 24 q1 q3 + 32 q4",
    K4: "q1^4 + 12 q1^2 q2 + 12 q2^2 + 36 q1 q3 + 64 q4",
}

AUT_TABLE = {P4: 2, CLAW: 6, PAW: 2, C4: 8, DIAMOND: 4, K4: 24}


class TestWeightedChromatic:
    @pytest.mark.parametrize("g,text", W_TABLE.items(), ids=str)
    def test_subset_formula_table(self, g, text):
        assert weighted_chromatic(g, 4) == parse_poly(text, 4)
        assert subset_w(g, 4) == parse_poly(text, 4)

    def test_single_vertex_and_empty_graph(self):
        assert weighted_chromatic(Graph(1), 4) == parse_poly("q1", 4)
        assert weighted_chromatic(Graph(0), 4) == 1

    def test_dc_edgeless_base_case(self):
        wg = WeightedGraph(Graph(1), (3,))
        assert weighted_chromatic_dc(wg, 4) == parse_poly("q3", 4)

    def test_dc_single_edge(self):
        assert weighted_chromatic_dc(EDGE, 4) == parse_poly("q1^2 + q2", 4)

    def test_dc_path(self):
        assert weighted_chromatic_dc(path_graph(3), 4) == parse_poly(
            "q1^3 + 2 q1 q2 + q3", 4)

    def test_algorithms_agree_through_five_vertices(self):
        for n in range(0, 6):
            for g in all_graphs(n):
                w = weighted_chromatic(g, 6)
                assert w == weighted_chromatic_dc(g, 6), g
                assert w == subset_w(g, 6), g

    def test_table_matches_edgeless_recurrence(self, rng):
        # the Tutte recursion at x = 0 against the inverse recurrence over
        # edgeless blocks: A's matrix-tree graphs, and K_n, whose top vertex
        # meets blocks of every size up to n - 1
        graphs = [Graph(n, bits) for n in range(6) for bits in range(1 << n * (n - 1) // 2)]
        graphs += [Graph(n) for n in range(6, MAX_VERTICES + 1)]
        graphs += [random_graph(rng, n, p) for n in range(6, MAX_VERTICES + 1)
                   for p in (0.2, 0.5, 0.8)]
        graphs += [complete_graph(n) for n in range(6, MAX_VERTICES + 1)]
        for g in graphs:
            assert _b_chromatic(g) == edgeless_recurrence_b(g), g

    def test_homogeneity(self):
        for g in (PAW, C4, K4):
            w = weighted_chromatic(g, 6)
            assert w.homogeneous_part(4) == w

    def test_size_caps(self):
        # the graph's weight must fit the truncation order; Graph's own
        # 12-vertex cap bounds the rest
        with pytest.raises(SizeLimitError):
            weighted_chromatic(complete_graph(12), 11)
        with pytest.raises(SizeLimitError):
            weighted_chromatic(complete_graph(5), 4)
        with pytest.raises(SizeLimitError):
            abel(complete_graph(5), 4)


class TestAbel:
    @pytest.mark.parametrize("g,text", A_TABLE.items(), ids=str)
    def test_forest_sum_table(self, g, text):
        assert abel(g, 4) == parse_poly(text, 4)
        assert forest_a(g, 4) == parse_poly(text, 4)

    def test_empty_and_single_vertex(self):
        assert abel(Graph(0), 4) == 1
        assert abel(Graph(1), 4) == parse_poly("q1", 4)

    def test_top_coefficient_counts_rooted_trees(self):
        for n in range(1, 8):
            a = abel(complete_graph(n), max(n, 1))
            assert a.coefficient({n: 1}) == n ** (n - 1)

    def test_table_matches_matrix_tree(self, rng):
        # the subset recursion against one Laplacian-minor determinant per
        # subset: every labelled graph through five vertices (n = 0 and 1
        # included), the edgeless graphs and seeded G(n, p) through the cap
        graphs = [Graph(n, bits) for n in range(6) for bits in range(1 << n * (n - 1) // 2)]
        graphs += [Graph(n) for n in range(6, MAX_VERTICES + 1)]
        graphs += [random_graph(rng, n, p) for n in range(6, MAX_VERTICES + 1)
                   for p in (0.2, 0.5, 0.8)]
        for g in graphs:
            assert _b_abel(g) == matrix_tree_b(g), g

    def test_complete_graph_tables_count_cayley_trees(self):
        # every k-subset of K_n spans k^(k-2) trees (Cayley), so b = k^(k-1)
        for n in range(1, MAX_VERTICES + 1):
            sizes = [s.bit_count() for s in range(1 << n)]
            assert _b_abel(complete_graph(n)) == [k ** (k - 1) if k else 0 for k in sizes], n

    def test_single_variable_specialization(self):
        # A_{K_n}(x, x, ...) = x (x + n)^(n-1), checked at n + 2 points
        for n in range(1, 7):
            a = abel(complete_graph(n), n)
            for x in range(n + 2):
                x = Fraction(x)
                value = evaluate(a, {i: x for i in range(1, n + 1)})
                assert value == x * (x + n) ** (n - 1)


class TestMultiplicativityAndBinomial:
    def test_disjoint_union_multiplicative(self):
        for n1 in range(0, 4):
            for n2 in range(0, 4):
                if n1 + n2 > 6 or n1 + n2 == 0:
                    continue
                for g1 in all_graphs(n1):
                    for g2 in all_graphs(n2):
                        g = disjoint_union(g1, g2)
                        for fn in (weighted_chromatic, abel):
                            assert fn(g, 6) == fn(g1, 6) * fn(g2, 6)

    @pytest.mark.parametrize("which", ["W", "A"])
    def test_binomial_property(self, which, rng):
        from graphkp.invariants import INVARIANTS
        fn = INVARIANTS[which]
        for n in range(1, 5):
            for g in all_graphs(n):
                poly = {(): fn(Graph(0), n if n else 1)}
                for k in range(20):
                    xs = {i: random_rational(rng) for i in range(1, n + 1)}
                    ys = {i: random_rational(rng) for i in range(1, n + 1)}
                    lhs = evaluate(fn(g, n), {i: xs[i] + ys[i] for i in xs})
                    rhs = Fraction(0)
                    for mask in range(1 << n):
                        left = [v for v in range(n) if mask >> v & 1]
                        right = [v for v in range(n) if not mask >> v & 1]
                        rhs += evaluate(fn(g.induced(left), n), xs) \
                            * evaluate(fn(g.induced(right), n), ys)
                    assert lhs == rhs


class TestAgainstOracles:
    def test_seeded_seven_and_eight_vertex_graphs(self, rng):
        # W against deletion-contraction and the edge-subset expansion, A
        # against the spanning-forest sum, on sparse-to-medium random graphs
        for i in range(24):
            g = random_graph(rng, 7 + i % 2, 0.35)
            w = weighted_chromatic(g, 8)
            assert w == weighted_chromatic_dc(g, 8), g
            assert w == subset_w(g, 8), g
            assert abel(g, 8) == forest_a(g, 8), g

    def test_complete_graph_k12(self):
        # at the vertex cap: [q12] A = 12^11 rooted spanning trees, and the
        # coloring specialization of W is the falling factorial k (k-1) ... (k-11)
        n = 12
        assert abel(complete_graph(n), n).coefficient({n: 1}) == n ** (n - 1)
        w = weighted_chromatic(complete_graph(n), n)
        for k in range(n + 3):
            point = {i: Fraction(-k) for i in range(1, n + 1)}
            falling = 1
            for j in range(n):
                falling *= k - j
            assert (-1) ** n * evaluate(w, point) == falling, k


class TestChromaticOracle:
    def test_trivial_counts(self):
        assert chromatic_oracle(cycle_graph(3), 3) == 6
        assert chromatic_oracle(EDGE, 2) == 2
        assert chromatic_oracle(path_graph(3), 2) == 2
        assert chromatic_oracle(Graph(0), 5) == 1
        assert chromatic_oracle(Graph(2), 0) == 0

    def test_specialization_small(self):
        # (-1)^n W_G(q_j = -k) counts proper colorings with k colors
        for n in range(1, 5):
            for g in all_graphs(n):
                w = weighted_chromatic(g, n)
                for k in range(0, 6):
                    point = {i: Fraction(-k) for i in range(1, n + 1)}
                    assert (-1) ** n * evaluate(w, point) == chromatic_oracle(g, k)

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            chromatic_oracle(Graph(9), 2)


def _primitive_image(invariant, g: Graph, order: int) -> TruncSeries:
    """The invariant extended linearly to the primitive projection of g."""
    total = TruncSeries.zero(order)
    for h, c in primitive_projection(g).terms.items():
        total = total + invariant(h, order) * c
    return total


def _vertex_degree_product(g: Graph, order: int) -> TruncSeries:
    """Prod_v q_(deg v + 1): multiplicative on disjoint unions, not umbral."""
    out = TruncSeries.one(order)
    for adj in g.adjacency_masks():
        out = out * TruncSeries.variable(adj.bit_count() + 1, order)
    return out


class TestUmbral:
    @staticmethod
    def _certificate_failures(invariant, b):
        # the umbrality certificate I(pi(G)) = b_G q_n for connected G and 0
        # for disconnected G, over the 208 classes with 1 to 6 vertices
        graphs = [g for n in range(1, 7) for g in all_graphs(n)]
        assert len(graphs) == 208
        return sum(_primitive_image(invariant, g, 6)
                   != TruncSeries.variable(g.n, 6) * (b(g) if is_connected(g) else 0)
                   for g in graphs)

    @pytest.mark.parametrize("which", ["W", "A"])
    def test_invariant_of_primitive_projection_is_b_q_n(self, which):
        assert self._certificate_failures(INVARIANTS[which], lambda g: extract_b(which, g)) == 0

    def test_non_umbral_control_fails_the_certificate(self):
        # b_G read off as the control's own coefficient of q_n
        def b(g):
            return _vertex_degree_product(g, 6).coefficient(((g.n, 1),))
        assert self._certificate_failures(_vertex_degree_product, b) == 142

    def test_single_vertex(self):
        assert umbral_from_b(Graph(1), {Graph(1): Fraction(1)}, 4) == parse_poly("q1", 4)

    def test_single_edge_reproduces_w_and_a(self):
        w_b = {Graph(1): Fraction(1), canonical_form(EDGE): Fraction(1)}
        assert umbral_from_b(EDGE, w_b, 4) == parse_poly("q1^2 + q2", 4)
        a_b = {Graph(1): 1, canonical_form(EDGE): 2}  # int values read as Fractions
        assert umbral_from_b(EDGE, a_b, 4) == parse_poly("q1^2 + 2 q2", 4)

    def test_missing_coefficient_raises(self):
        with pytest.raises(ValueError):
            umbral_from_b(cycle_graph(3), {Graph(1): Fraction(1)}, 4)

    @pytest.mark.parametrize("value", NOT_EXACT.values(), ids=list(NOT_EXACT))
    def test_float_coefficient_raises(self, value):
        # b is read only on connected forms: a disconnected one counts as 0,
        # whatever the map holds for it
        b = {Graph(1): Fraction(1), Graph(2): value, canonical_form(EDGE): Fraction(1)}
        assert umbral_from_b(EDGE, b, 4) == parse_poly("q1^2 + q2", 4)
        with pytest.raises(TypeError):
            umbral_from_b(EDGE, {**b, Graph(1): value}, 4)

    def test_extract_b_values(self):
        assert extract_b("W", EDGE) == 1
        assert extract_b("A", cycle_graph(3)) == 9
        assert extract_b("A", Graph(1)) == 1
        # at the vertex cap: b_W(K_n) = (n-1)!, b_A(K_n) = n^(n-1) rooted trees
        assert extract_b("W", complete_graph(12)) == factorial(11)
        assert extract_b("A", complete_graph(12)) == 12 ** 11

    def test_extract_b_rejects_disconnected(self):
        with pytest.raises(ValueError):
            extract_b("W", Graph(2))

    @pytest.mark.parametrize("which", ["W", "A"])
    def test_reconstruction_through_five_vertices(self, which):
        fn = {"W": subset_w, "A": forest_a}[which]
        b = {h: extract_b(which, h) for n in range(1, 6) for h in connected_graphs(n)}
        for n in range(1, 6):
            for g in all_graphs(n):
                assert umbral_from_b(g, b, 5) == fn(g, 5), g

    @staticmethod
    def _reconstructs(g):
        # b of every connected induced subgraph, read off by extract_b
        forms = {h for h in induced_forms(g) if h.n and is_connected(h)}
        for which, fn in INVARIANTS.items():
            b = {h: extract_b(which, h) for h in forms}
            assert umbral_from_b(g, b, g.n) == fn(g, g.n), which

    def test_reconstruction_on_ten_vertices(self, rng):
        self._reconstructs(random_graph(rng, 10, 0.5))

    @pytest.mark.parametrize("graph", ["K12", "G(12, 1/2)"])
    def test_reconstruction_on_twelve_vertices(self, graph, rng):
        self._reconstructs(complete_graph(12) if graph == "K12" else random_graph(rng, 12, 0.5))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rational_b_matches_partition_sum(self, data):
        # b drawn on every graph through n vertices, disconnected ones too,
        # which the reconstruction must read as zero
        n = data.draw(st.integers(0, 6))
        g = data.draw(st.sampled_from(all_graphs(n)))
        rational = st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99))
        values = data.draw(st.fixed_dictionaries(
            {h: rational for k in range(1, n + 1) for h in all_graphs(k)}))
        order = data.draw(st.integers(n, n + 2))
        assert umbral_from_b(g, values, order) == partition_umbral(g, values, order)

    def test_reconstruction_matches_primitive_expansion(self):
        # pushing each expansion factor H to b_H * q_{|V(H)|} evaluates the
        # invariant, tying the partition sum to the Hopf expansion
        from graphkp.hopf import expand_in_primitives
        b = {h: extract_b("A", h) for n in range(1, 5) for h in connected_graphs(n)}
        for n in range(1, 5):
            for g in all_graphs(n):
                terms: dict = {}
                for factors in expand_in_primitives(g):
                    coeff = Fraction(1)
                    counts: dict[int, int] = {}
                    for h in factors:
                        coeff *= b.get(h, 0)
                        if not coeff:
                            break
                        counts[h.n] = counts.get(h.n, 0) + 1
                    if coeff:
                        key = mono(counts)
                        terms[key] = terms.get(key, 0) + coeff
                from graphkp.series import TruncSeries
                assert TruncSeries(5, "q", terms) == forest_a(g, 5)
