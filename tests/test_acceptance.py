"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Everything here is exact arithmetic; the only "tolerance" anywhere is exact
equality of term maps.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from graphkp import series
from graphkp.ensemble import ensemble_a, ensemble_w, full_series, make_plan
from graphkp.graphs import (Graph, all_graphs, aut_order, canonical_form,
                            connected_graphs, disjoint_union)
from graphkp.hopf import UNIT_GRAPH, expand_in_primitives, primitive_projection
from graphkp.invariants import (INVARIANTS, abel, extract_b, umbral_from_b,
                                weighted_chromatic)
from graphkp.schurkp import (kp1_residual, kp2_residual, schur_combination,
                             target_series)
from graphkp.series import TruncSeries
from helpers import (abel_constants, add_sums, c_recursion, chromatic_oracle, complete_graph,
                     coproduct_sum, cycle_graph, evaluate, flatten_expansion, forest_a,
                     fraction_partial, isoclass_series, parse_poly, path_graph, random_rational,
                     star_graph, subset_w, swept_constants, swept_piece, tensor,
                     weighted_chromatic_dc)

ORDER = 7

P4 = path_graph(4)
CLAW = star_graph(4)
PAW = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
C4 = cycle_graph(4)
DIAMOND = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)])
K4 = complete_graph(4)

FOUR_VERTEX_ROWS = [
    # graph, W_G, A_G, |Aut|
    (P4, "q1^4 + 3 q1^2 q2 + q2^2 + 2 q1 q3 + q4",
     "q1^4 + 6 q1^2 q2 + 4 q2^2 + 6 q1 q3 + 4 q4", 2),
    (CLAW, "q1^4 + 3 q1^2 q2 + 3 q1 q3 + q4",
     "q1^4 + 6 q1^2 q2 + 9 q1 q3 + 4 q4", 6),
    (PAW, "q1^4 + 4 q1^2 q2 + q2^2 + 4 q1 q3 + 2 q4",
     "q1^4 + 8 q1^2 q2 + 4 q2^2 + 15 q1 q3 + 12 q4", 2),
    (C4, "q1^4 + 4 q1^2 q2 + 2 q2^2 + 4 q1 q3 + 3 q4",
     "q1^4 + 8 q1^2 q2 + 8 q2^2 + 12 q1 q3 + 16 q4", 8),
    (DIAMOND, "q1^4 + 5 q1^2 q2 + 2 q2^2 + 6 q1 q3 + 4 q4",
     "q1^4 + 10 q1^2 q2 + 8 q2^2 + 24 q1 q3 + 32 q4", 4),
    (K4, "q1^4 + 6 q1^2 q2 + 3 q2^2 + 8 q1 q3 + 6 q4",
     "q1^4 + 12 q1^2 q2 + 12 q2^2 + 36 q1 q3 + 64 q4", 24),
]


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS  {description}")


def _swept_full(which: str):
    total = TruncSeries.one(ORDER, "q")
    for k in range(1, ORDER + 1):
        total = total + swept_piece(which, k, ORDER)
    return total


@pytest.fixture(scope="module")
def order7():
    """Order-7 artifacts shared by the end-to-end criteria, built from the
    edge-subset sweep so that criteria 5 and 6 rest on graph-level sums
    rather than on the partition formula, which takes the constants as
    input."""
    full_w = _swept_full("W")
    full_a = _swept_full("A")
    plan_w = make_plan(swept_constants("W", ORDER))
    plan_a = make_plan(swept_constants("A", ORDER))
    return {
        "full_w": full_w,
        "full_a": full_a,
        "plan_w": plan_w,
        "plan_a": plan_a,
        "target": target_series(ORDER),
    }


def test_criterion_01_weighted_chromatic_tables():
    with criterion(1, "weighted chromatic table for the six connected 4-vertex graphs"):
        enumerated = set(connected_graphs(4))
        seen = set()
        for g, w_text, _, aut in FOUR_VERTEX_ROWS:
            assert weighted_chromatic(g, 4) == parse_poly(w_text, 4)
            assert subset_w(g, 4) == parse_poly(w_text, 4)
            assert aut_order(g) == aut
            seen.add(canonical_form(g))
        assert seen == enumerated


def test_criterion_02_abel_tables():
    with criterion(2, "Abel table for the six connected 4-vertex graphs"):
        for g, _, a_text, _ in FOUR_VERTEX_ROWS:
            assert abel(g, 4) == parse_poly(a_text, 4)


def test_criterion_03_series_through_weight_four():
    with criterion(3, "generating series through weight 4"):
        w_connected = parse_poly(
            "q1 + 1/2 q1^2 + 1/2 q2 + 2/3 q1^3 + 3/2 q1 q2 + 5/6 q3"
            " + 19/12 q1^4 + 6 q1^2 q2 + 15/8 q2^2 + 35/6 q1 q3 + 79/24 q4", 4)
        w_all = parse_poly(
            "1 + q1 + q1^2 + 1/2 q2 + 4/3 q1^3 + 2 q1 q2 + 5/6 q3"
            " + 8/3 q1^4 + 8 q1^2 q2 + 2 q2^2 + 20/3 q1 q3 + 79/24 q4", 4)
        a_connected = parse_poly(
            "q1 + 1/2 q1^2 + q2 + 2/3 q1^3 + 3 q1 q2 + 3 q3"
            " + 19/12 q1^4 + 12 q1^2 q2 + 15/2 q2^2 + 21 q1 q3 + 64/3 q4", 4)
        full_w = full_series("W", 4)
        assert full_w == w_all
        assert series.log(full_w) == w_connected
        assert series.log(full_series("A", 4)) == a_connected


def test_criterion_04_rescaling_constants():
    with criterion(4, "rescaling constants: swept values vs. recursion/closed form, n <= 7"):
        swept_w = swept_constants("W", ORDER)
        assert swept_w[:5] == [1, 1, 5, 79, 3377]
        assert swept_w == c_recursion(ORDER)
        assert swept_constants("A", ORDER) == abel_constants(ORDER)
        assert abel_constants(5) == [1, 2, 18, 512, 40000]


def test_criterion_05_all_graphs_series_rescales_to_target(order7):
    with criterion(5, "rescaled all-graphs series equals the one-part Schur series at order 7"):
        rescaled = series.substitute(order7["full_w"], order7["plan_w"])
        assert rescaled == order7["target"]


def test_criterion_06_universality_of_connected_series(order7):
    with criterion(6, "both rescaled connected series equal the log of the target"):
        f_w = series.substitute(series.log(order7["full_w"]), order7["plan_w"])
        f_a = series.substitute(series.log(order7["full_a"]), order7["plan_a"])
        assert f_w == f_a
        assert f_w == series.log(order7["target"])
        # per-graph weight-4 cross-check: the individual rescaled polynomials
        # differ, but the Aut-weighted sums of the p4 coefficients agree at 16
        w_coeffs = []
        a_coeffs = []
        for g, _, _, aut in FOUR_VERTEX_ROWS:
            wr = series.substitute(weighted_chromatic(g, 4), order7["plan_w"])
            ar = series.substitute(abel(g, 4), order7["plan_a"])
            w_coeffs.append((wr.coefficient({4: 1}), aut))
            a_coeffs.append((ar.coefficient({4: 1}), aut))
        assert [c for c, _ in w_coeffs] == [Fraction(x, 79) for x in
                                            (384, 384, 768, 1152, 1536, 2304)]
        assert [c for c, _ in a_coeffs] == [3, 3, 9, 12, 24, 48]
        for coeffs in (w_coeffs, a_coeffs):
            assert sum(c / aut for c, aut in coeffs) == 16
        assert f_w.coefficient({4: 1}) == 16


def test_criterion_07_kp_residuals_of_log_target(order7):
    with criterion(7, "KP residuals of the log of the target series at order 7"):
        f = series.log(order7["target"])
        r1 = kp1_residual(f)
        r2 = kp2_residual(f)
        assert r1.order == 3 and not r1
        assert r2.order == 2 and not r2
        # constant-term breakdown of the first equation: 56/3 - 1/2 - 19/6 = 15
        assert fraction_partial(f, 2, 2).constant_term == 15
        d13 = fraction_partial(fraction_partial(f, 1), 3).constant_term
        d11sq = fraction_partial(f, 1, 2).constant_term ** 2
        d1111 = fraction_partial(f, 1, 4).constant_term
        assert d13 == Fraction(56, 3)
        assert Fraction(1, 2) * d11sq == Fraction(1, 2)
        assert Fraction(1, 12) * d1111 == Fraction(19, 6)
        assert d13 - Fraction(1, 2) * d11sq - Fraction(1, 12) * d1111 == 15


def test_criterion_08_invariant_property_suite(rng):
    with criterion(8, "umbral assembly vs. deletion-contraction, subset and forest "
                      "expansions, binomial property, multiplicativity"):
        for n in range(0, 7):
            for g in all_graphs(n):
                w = weighted_chromatic(g, 6)
                assert w == weighted_chromatic_dc(g, 6), g
                assert w == subset_w(g, 6), g
                assert abel(g, 6) == forest_a(g, 6), g
        for which in ("W", "A"):
            fn = INVARIANTS[which]
            for n in range(1, 6):
                for g in all_graphs(n):
                    splits = []
                    for mask in range(1 << n):
                        left = [v for v in range(n) if mask >> v & 1]
                        right = [v for v in range(n) if not mask >> v & 1]
                        splits.append((fn(g.induced(left), n), fn(g.induced(right), n)))
                    whole = fn(g, n)
                    for _ in range(20):
                        xs = {i: random_rational(rng) for i in range(1, n + 1)}
                        ys = {i: random_rational(rng) for i in range(1, n + 1)}
                        lhs = evaluate(whole, {i: xs[i] + ys[i] for i in xs})
                        rhs = sum((evaluate(fl, xs) * evaluate(fr, ys)
                                   for fl, fr in splits), Fraction(0))
                        assert lhs == rhs, (which, g)
        for n1 in range(0, 4):
            for n2 in range(0, 4):
                if not 1 <= n1 + n2 <= 6:
                    continue
                for g1 in all_graphs(n1):
                    for g2 in all_graphs(n2):
                        g = disjoint_union(g1, g2)
                        for fn in (weighted_chromatic, abel):
                            assert fn(g, 6) == fn(g1, 6) * fn(g2, 6)


def test_criterion_09_hopf_suite():
    with criterion(9, "primitivity, reconstruction from primitives, umbral reconstruction"):
        one = {UNIT_GRAPH: 1}
        for n in range(1, 6):
            for g in connected_graphs(n):
                pi = primitive_projection(g).terms
                assert coproduct_sum(pi) == add_sums(tensor(pi, one), tensor(one, pi)), g
        for n in range(0, 6):
            for g in all_graphs(n):
                assert flatten_expansion(expand_in_primitives(g)) == {canonical_form(g): 1}, g
        b = {which: {h: extract_b(which, h) for n in range(1, 7) for h in connected_graphs(n)}
             for which in ("W", "A")}
        for n in range(1, 7):
            for g in all_graphs(n):
                assert umbral_from_b(g, b["W"], 6) == weighted_chromatic_dc(g, 6), g
                assert umbral_from_b(g, b["A"], 6) == forest_a(g, 6), g


def test_criterion_10_oracle_suite():
    with criterion(10, "coloring-count specialization and Abel spanning-tree identities"):
        for n in range(1, 7):
            for g in all_graphs(n):
                w = weighted_chromatic(g, 6)
                for k in range(0, 6):
                    point = {i: Fraction(-k) for i in range(1, n + 1)}
                    assert (-1) ** n * evaluate(w, point) == chromatic_oracle(g, k), (g, k)
        for n in range(1, 7):
            a = abel(complete_graph(n), 6)
            assert a.coefficient({n: 1}) == n ** (n - 1)
            for x in range(n + 2):
                x = Fraction(x)
                assert evaluate(a, {i: x for i in range(1, n + 1)}) == \
                    x * (x + n) ** (n - 1)


def test_criterion_11_double_counting():
    with criterion(11, "partition-formula and swept pieces equal direct isomorphism-class sums, k <= 5"):
        for k in range(1, 6):
            for which, piece in (("W", ensemble_w), ("A", ensemble_a)):
                direct = isoclass_series(which, k, 5)
                assert piece(k, 5) == direct, (which, k)
                assert swept_piece(which, k, 5) == direct, (which, k)


def test_criterion_12_tau_membership_randomized(rng):
    with criterion(12, "random one-part combinations solve both equations; two-row injections fail"):
        for trial in range(50):
            coeffs = {(): Fraction(1)}
            for n in range(1, ORDER + 1):
                coeffs[(n,)] = random_rational(rng)
            f = series.log(schur_combination(coeffs, ORDER))
            assert not kp1_residual(f), trial
            assert not kp2_residual(f), trial
        two_row = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1),
                   (4, 2), (4, 3), (5, 1), (5, 2)]
        for trial, lam in enumerate(two_row):
            coeffs = {(): Fraction(1)}
            for n in range(1, ORDER + 1):
                coeffs[(n,)] = random_rational(rng)
            coeffs[lam] = random_rational(rng, nonzero=True)
            f = series.log(schur_combination(coeffs, ORDER))
            assert kp1_residual(f) or kp2_residual(f), (trial, lam)
