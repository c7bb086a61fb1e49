"""Generating-function assembly: the graphical-exponential series vs. the
closed form per partition, the edge-subset sweep and iso-class sums,
constants, rescale plans, the rescaled all-graphs series against the
reference tau, and the universality of the rescaled series."""

from fractions import Fraction
from math import factorial

import pytest

from graphkp import series
from graphkp.ensemble import (_piece, connected_series, ensemble_a, ensemble_w,
                              full_series, make_plan, rescale_constants)
from graphkp.errors import SizeLimitError
from graphkp.graphs import Graph, all_graphs, aut_order
from graphkp.invariants import INVARIANTS, b_table, extract_b, invariant
from graphkp.schurkp import kp1_residual, kp2_residual, target_series
from graphkp.series import MAX_ORDER, TruncSeries, mono
from helpers import (CONSTANTS, NOT_EXACT, abel_constants, c_recursion, first_weight,
                     isoclass_series, parse_poly, summed_full_series, swept_constants,
                     swept_piece)


class TestPieces:
    def test_weight_one_and_two(self):
        assert ensemble_w(1, 4) == parse_poly("q1", 4)
        assert ensemble_w(2, 4) == parse_poly("q1^2 + 1/2 q2", 4)
        assert ensemble_a(2, 4) == parse_poly("q1^2 + q2", 4)

    def test_weight_four_w_piece(self):
        expected = parse_poly(
            "8/3 q1^4 + 8 q1^2 q2 + 2 q2^2 + 20/3 q1 q3 + 79/24 q4", 4)
        assert ensemble_w(4, 4) == expected

    def test_connected_a_parts(self):
        a = series.log(full_series("A", 4))
        assert a.homogeneous_part(3) == parse_poly(
            "2/3 q1^3 + 3 q1 q2 + 3 q3", 4)
        assert a.homogeneous_part(4) == parse_poly(
            "19/12 q1^4 + 12 q1^2 q2 + 15/2 q2^2 + 21 q1 q3 + 64/3 q4", 4)

    def test_homogeneity(self):
        for k in range(1, 6):
            w = ensemble_w(k, 6)
            a = ensemble_a(k, 6)
            assert w.homogeneous_part(k) == w
            assert a.homogeneous_part(k) == a

    def test_k_out_of_range(self):
        with pytest.raises(SizeLimitError):
            ensemble_w(MAX_ORDER + 1, MAX_ORDER)
        with pytest.raises(SizeLimitError):
            ensemble_w(0, 4)
        with pytest.raises(ValueError):
            ensemble_w(5, 4)

    def test_log_of_one_is_zero(self):
        assert not series.log(TruncSeries.one(4))

    @pytest.mark.parametrize("which", ["W", "A"])
    @pytest.mark.parametrize("order", range(MAX_ORDER + 1))
    def test_full_series_matches_summed_pieces(self, which, order):
        assert full_series(which, order) == summed_full_series(which, order)


class TestDoubleCounting:
    @pytest.mark.parametrize("which", ["W", "A"])
    def test_swept_sums_match_isoclass_sums(self, which):
        fn = ensemble_w if which == "W" else ensemble_a
        for k in range(1, 8):
            assert fn(k, 7) == isoclass_series(which, k, 7), (which, k)

    def test_isoclass_cap(self):
        with pytest.raises(SizeLimitError):
            isoclass_series("W", 8, 8)


class TestConstants:
    def test_weighted_chromatic_constants(self):
        assert rescale_constants("W", 5) == (1, 1, 5, 79, 3377)

    def test_abel_constants_table(self):
        assert rescale_constants("A", 5) == (1, 2, 18, 512, 40000)
        assert abel_constants(5) == [1, 2, 18, 512, 40000]

    def test_recursion_matches_swept_constants(self):
        assert swept_constants("W", 6) == c_recursion(6)

    def test_recursion_prefix(self):
        assert c_recursion(5) == [1, 1, 5, 79, 3377]

    def test_alternating_exponential_characterization(self):
        # exp(sum (-1)^(i-1) c_i x^i / (i! 2^C(i,2))) must have x^k
        # coefficient 1 / (k! 2^C(k,2)); a second, independent oracle for c_n
        n = 6
        cs = c_recursion(n)
        x = {mono({1: i}): Fraction((-1) ** (i - 1) * cs[i - 1],
                                    _fact(i) * 2 ** (i * (i - 1) // 2))
             for i in range(1, n + 1)}
        expo = series.exp(TruncSeries(n, "q", x))
        for k in range(n + 1):
            assert expo.coefficient({1: k} if k else {}) == \
                Fraction(1, _fact(k) * 2 ** (k * (k - 1) // 2))

    @pytest.mark.parametrize("which", ["W", "A"])
    def test_constants_are_the_summed_tutte_recursion(self, which):
        # the b-table recursion summed over every labelled graph on [n], at
        # the family row, against W's alternating recursion and Cayley's formula
        assert tuple(CONSTANTS[which](MAX_ORDER)) == rescale_constants(which, MAX_ORDER)

    def test_third_row_constants_are_its_isoclass_sums(self, third_row):
        # the recurrence at x = 2, a row inserted only into the family table:
        # n! [q_n] of its iso-class sums, and unlike W's and A's from n = 3 on
        constants = rescale_constants(third_row, 6)
        assert constants == (1, 1, 7, 201, 19545, 5887659)
        for n in range(1, 7):
            assert factorial(n) * isoclass_series(third_row, n, 6).coefficient({n: 1}) == \
                constants[n - 1], n
        for which in ("W", "A"):
            assert all(c != i for c, i in zip(constants[2:], rescale_constants(which, 6)[2:]))

    def test_abel_closed_form_values(self):
        assert abel_constants(7) == [1, 2, 18, 512, 40000, 7962624, 3855122432]

    @pytest.mark.parametrize("call", [
        lambda which: full_series(which, 4), lambda which: connected_series(which, 4),
        lambda which: rescale_constants(which, 4), lambda which: _piece(which, 2, 4),
        lambda which: extract_b(which, Graph(2, 1)), lambda which: b_table(which, Graph(2, 1)),
        lambda which: invariant(which, Graph(2, 1), 4),
    ], ids=["full_series", "connected_series", "rescale_constants", "_piece", "extract_b",
            "b_table", "invariant"])
    def test_unknown_invariant_is_one_error(self, call):
        with pytest.raises(ValueError, match=r"^unknown invariant 'X', expected one of \['A', 'W'\]$"):
            call("X")


class TestPlans:
    def test_weighted_chromatic_plan(self):
        plan = make_plan(rescale_constants("W", 4))
        assert plan == {1: 1, 2: 2, 3: Fraction(16, 5), 4: Fraction(384, 79)}
        ints = make_plan((1, 1, 5, 79))
        assert ints == plan and all(type(f) is Fraction for f in ints.values())

    def test_abel_plan(self):
        plan = make_plan(rescale_constants("A", 4))
        assert plan == {1: 1, 2: 1, 3: Fraction(8, 9), 4: Fraction(3, 4)}

    def test_lambda_one_is_always_one(self):
        for which in ("W", "A"):
            assert make_plan(rescale_constants(which, 3))[1] == 1

    def test_degenerate_plan_rejected(self):
        with pytest.raises(ValueError):
            make_plan((Fraction(1), Fraction(0)))

    @pytest.mark.parametrize("value", NOT_EXACT.values(), ids=list(NOT_EXACT))
    def test_inexact_constants_rejected(self, value):
        with pytest.raises(TypeError):
            make_plan([value, 2])


def _blocks(which: str, order: int, bump: int = 0) -> TruncSeries:
    """sum_n i_n q_n / n!, with ``bump`` added to i_3."""
    return TruncSeries(order, "q", {
        ((n, 1),): (i + bump * (n == 3)) / _fact(n)
        for n, i in enumerate(rescale_constants(which, order), 1)})


class TestTauIdentity:
    """The rescaled all-graphs series is the reference tau term for term."""

    @pytest.mark.parametrize("which", ["W", "A"])
    @pytest.mark.parametrize("order", range(MAX_ORDER + 1))
    def test_rescaled_all_graphs_series_is_target(self, which, order):
        plan = make_plan(rescale_constants(which, order))
        assert series.substitute(full_series(which, order), plan) == target_series(order)

    @pytest.mark.parametrize("which", ["W", "A"])
    def test_perturbations_fail_at_their_first_weight(self, which):
        order = 8
        plan = make_plan(rescale_constants(which, order))
        target = target_series(order)

        def gap(tau, factors=plan):
            return first_weight(series.substitute(tau, factors) - target)

        assert gap(series._exp(_blocks(which, order), 2)) is None
        # 3 per edge between blocks in place of 2: q1^2 is the first term
        # with an edge between two blocks
        assert gap(series._exp(_blocks(which, order), 3)) == 2
        # one constant off, with the true plan: q3 is the first term it reaches
        assert gap(series._exp(_blocks(which, order, bump=1), 2)) == 3
        # the same constant off in the plan too leaves the identity true, so
        # it checks the edge weighting, exp and substitute, and the constants
        # only together with the plan; their graph-level evidence is the
        # edge-subset sweep and the iso-class sums, for k <= 7
        constants = list(rescale_constants(which, order))
        constants[2] += 1
        assert gap(series._exp(_blocks(which, order, bump=1), 2), make_plan(constants)) is None

    @pytest.mark.parametrize("which", ["W", "A"])
    def test_isoclass_sums_rescale_to_target(self, which):
        # graph-level evidence through weight 7: tau summed over the
        # isomorphism classes, rescaled by the constants i_n = n! [q_n] read
        # off the same sums, is the reference tau
        order = 7
        pieces = [isoclass_series(which, k, order) for k in range(1, order + 1)]

        def gap(extra=None):
            summed = list(pieces)
            if extra is not None:  # one class counted twice: weight 2 / |Aut|
                weight = Fraction(1, aut_order(extra))
                summed[extra.n - 1] += INVARIANTS[which](extra, order) * weight
            constants = [factorial(n) * p.coefficient(((n, 1),)) for n, p in enumerate(summed, 1)]
            tau = sum(summed, TruncSeries.one(order))
            return first_weight(series.substitute(tau, make_plan(constants)) - target_series(order))

        assert gap() is None
        for n, index in [(3, 0), (3, 3), (5, 10), (7, 500)]:
            assert gap(all_graphs(n)[index]) == n, (n, index)


class TestUniversality:
    def test_rescaled_series_coincide(self):
        order = 5
        w = series.substitute(connected_series("W", order),
                              make_plan(rescale_constants("W", order)))
        a = series.substitute(connected_series("A", order),
                              make_plan(rescale_constants("A", order)))
        assert w == a

    @pytest.mark.parametrize("which", ["W", "A"])
    def test_pieces_equal_sweep(self, which):
        fn = ensemble_w if which == "W" else ensemble_a
        for k in range(1, 8):
            assert fn(k, 7) == swept_piece(which, k, 7), (which, k)

    def test_rescaled_series_at_the_cap_equal_log_target(self):
        order = MAX_ORDER
        expected = series.log(target_series(order))
        for which in ("W", "A"):
            f = series.substitute(connected_series(which, order),
                                  make_plan(rescale_constants(which, order)))
            assert f == expected, which
            assert not kp1_residual(f) and not kp2_residual(f), which


def _fact(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out
