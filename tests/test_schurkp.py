"""Schur machinery and the residual operators for the first two KP equations."""

import sys
from collections import Counter
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphkp import ensemble, series
from graphkp.schurkp import (character, kp1_residual, kp2_residual, partitions_of,
                             schur_combination, schur_expand, schur_polynomial, target_series)
from graphkp.series import MAX_ORDER, TruncSeries, mono
from helpers import (_derivative, elimination_expand, first_weight, fraction_partial,
                     hirota_kp1, hirota_kp2, hook_length_count, pairwise_schur_expand,
                     parse_poly, partial_kp1_residual,
                     partial_kp2_residual, random_rational, random_series, schur_jacobi_trudi,
                     schur_one_part, tuple_kp1_residual, tuple_kp2_residual)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (the benchmark's seeded tau-function candidates)


class TestOnePartSchur:
    def test_low_weights(self):
        assert schur_one_part(0, 4) == 1
        assert schur_one_part(1, 4) == parse_poly("p1", 4, "p")
        assert schur_one_part(2, 4) == parse_poly("1/2 p1^2 + 1/2 p2", 4, "p")
        assert schur_one_part(3, 4) == parse_poly(
            "1/6 p1^3 + 1/2 p1 p2 + 1/3 p3", 4, "p")

    def test_weight_must_fit_order(self):
        with pytest.raises(ValueError):
            schur_one_part(5, 4)


class TestJacobiTrudi:
    def test_one_row_equals_one_part(self):
        for n in range(0, 7):
            assert schur_jacobi_trudi((n,) if n else (), 7) == schur_one_part(n, 7)

    def test_column_of_two(self):
        assert schur_jacobi_trudi((1, 1), 4) == parse_poly(
            "1/2 p1^2 - 1/2 p2", 4, "p")

    def test_hook_two_one(self):
        assert schur_jacobi_trudi((2, 1), 4) == parse_poly(
            "1/3 p1^3 - 1/3 p3", 4, "p")

    def test_rejects_non_partitions(self):
        with pytest.raises(ValueError):
            schur_polynomial((1, 2), 4)
        with pytest.raises(ValueError):
            schur_polynomial((3, 3), 4)

    @pytest.mark.parametrize("lam", [(2.7, 1.2), ("2", True), (2, True), (2.0, 1)])
    def test_rejects_parts_that_are_not_ints(self, lam):
        with pytest.raises(ValueError):
            schur_combination({lam: 1}, 3)

    def test_characters_give_the_determinant(self):
        for w in range(8):
            for lam in partitions_of(w):
                assert schur_polynomial(lam, 7) == schur_jacobi_trudi(lam, 7), lam

    def test_partitions_of(self):
        assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
        assert partitions_of(0) == ((),)


class TestCharacters:
    def test_s3_table(self):
        classes = ((1, 1, 1), (2, 1), (3,))
        table = {lam: [character(lam, mu) for mu in classes] for lam in partitions_of(3)}
        assert table == {(3,): [1, 1, 1], (2, 1): [2, 0, -1], (1, 1, 1): [1, -1, 1]}

    def test_identity_class_gives_hook_length_count(self):
        for n in range(11):
            for lam in partitions_of(n):
                assert character(lam, (1,) * n) == hook_length_count(lam), lam

    def test_column_orthogonality(self):
        for n in range(11):
            parts = partitions_of(n)
            for mu in parts:
                z = prod(i ** mu.count(i) * factorial(mu.count(i)) for i in set(mu))
                for nu in parts:
                    total = sum(character(lam, mu) * character(lam, nu) for lam in parts)
                    assert total == (z if mu == nu else 0), (mu, nu)

    def test_weights_must_agree(self):
        assert character((2, 1), (2,)) == 0
        assert character((), (1,)) == 0
        assert character((1,), ()) == 0

    @pytest.mark.parametrize("lam,mu", [((2.5,), (2.5,)), ((2,), (0, 2)), ((1, 2), (3,))])
    def test_arguments_must_be_partitions(self, lam, mu):
        with pytest.raises(ValueError, match="not a partition"):
            character(lam, mu)


class TestTargetSeries:
    def test_low_weight_terms(self):
        t = target_series(4)
        assert t.homogeneous_part(0) == 1
        assert t.homogeneous_part(1) == parse_poly("p1", 4, "p")
        assert t.homogeneous_part(2) == parse_poly("p1^2 + p2", 4, "p")

    def test_log_weight_three(self):
        f = series.log(target_series(4))
        assert f.homogeneous_part(3) == parse_poly(
            "2/3 p1^3 + 3 p1 p2 + 8/3 p3", 4, "p")

    def test_matches_one_part_sum(self):
        # tau, built as a graphical exponential, against its definition as the
        # direct sum of p_mu / z_mu, term for term at every order: the one
        # check of tau that does not go through _exp (TestTauIdentity has
        # _exp on both sides)
        for order in range(MAX_ORDER + 1):
            expected = sum((2 ** (n * (n - 1) // 2) * schur_one_part(n, order)
                            for n in range(order + 1)), TruncSeries.zero(order, "p"))
            assert target_series(order) == expected, order


class TestSchurExpand:
    def test_constant(self):
        assert schur_expand(TruncSeries.one(4, "p")) == {(): Fraction(1)}

    def test_target_is_one_part_only(self):
        expansion = schur_expand(target_series(5))
        assert expansion == {(): 1, (1,): 1, (2,): 2, (3,): 8, (4,): 64, (5,): 1024}

    def test_round_trip(self, rng):
        for _ in range(10):
            order = rng.randint(2, 6)
            coeffs = {}
            for w in range(order + 1):
                for lam in partitions_of(w):
                    if rng.random() < 0.4:
                        coeffs[lam] = random_rational(rng)
            tau = schur_combination(coeffs, order)
            expansion = schur_expand(tau)
            assert expansion == {lam: c for lam, c in coeffs.items() if c}
            assert expansion == elimination_expand(tau)
            assert schur_combination(expansion, order) == tau

    def test_target_at_order_12(self):
        assert schur_expand(target_series(12)) == {
            (n,) if n else (): 2 ** (n * (n - 1) // 2) for n in range(13)}

    def test_requires_p_variables(self):
        with pytest.raises(ValueError):
            schur_expand(TruncSeries.one(4, "q"))

    def test_rescaled_generating_function_expands_one_part_only(self):
        from graphkp.ensemble import full_series, make_plan, rescale_constants
        rescaled = series.substitute(full_series("W", 5),
                                     make_plan(rescale_constants("W", 5)))
        assert schur_expand(rescaled) == {
            (): 1, (1,): 1, (2,): 2, (3,): 8, (4,): 64, (5,): 1024}


class TestKPResiduals:
    def test_zero_series(self):
        zero = TruncSeries.zero(7, "p")
        assert not kp1_residual(zero)
        assert not kp2_residual(zero)

    def test_linear_series_solves_both(self):
        f = TruncSeries.variable(1, 7, "p")
        assert not kp1_residual(f)
        assert not kp2_residual(f)

    def test_reliable_weights(self):
        f = TruncSeries.zero(7, "p")
        assert kp1_residual(f).order == 3
        assert kp2_residual(f).order == 2

    def test_order_preconditions(self):
        with pytest.raises(ValueError):
            kp1_residual(TruncSeries.zero(3, "p"))
        with pytest.raises(ValueError):
            kp2_residual(TruncSeries.zero(4, "p"))
        with pytest.raises(ValueError):
            kp1_residual(TruncSeries.zero(7, "q"))

    def test_log_target_solves_both(self):
        f = series.log(target_series(7))
        assert not kp1_residual(f)
        assert not kp2_residual(f)

    def test_first_equation_constant_terms(self):
        f = series.log(target_series(7))
        assert fraction_partial(f, 2, 2).constant_term == 15
        assert fraction_partial(fraction_partial(f, 1), 3).constant_term == Fraction(56, 3)
        sq = fraction_partial(f, 1, 2)
        assert (Fraction(1, 2) * sq * sq).constant_term == Fraction(1, 2)
        assert (Fraction(1, 12) * fraction_partial(f, 1, 4)).constant_term == Fraction(19, 6)

    def test_nonsolution_detected(self):
        f = TruncSeries(7, "p", {((2, 2),): Fraction(1)})  # p2^2 alone
        assert kp1_residual(f).constant_term == 2

    def test_random_one_part_combinations_are_tau_functions(self, rng):
        for _ in range(10, 0, -1):
            order = 6
            coeffs = {(): Fraction(1)}
            for n in range(1, order + 1):
                coeffs[(n,)] = random_rational(rng)
            f = series.log(schur_combination(coeffs, order))
            assert not kp1_residual(f)
            assert not kp2_residual(f)

    def test_two_row_injection_breaks_tau_property(self, rng):
        hits = 0
        for lam in ((2, 2), (3, 1), (3, 2), (4, 2)):
            coeffs = {(): Fraction(1)}
            for n in range(1, 7):
                coeffs[(n,)] = random_rational(rng)
            coeffs[lam] = random_rational(rng, nonzero=True)
            f = series.log(schur_combination(coeffs, 6))
            if kp1_residual(f) or kp2_residual(f):
                hits += 1
        assert hits == 4


_RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def perturbed_logs(draw):
    """log of a random one-part tau-function 1 + sum c_n s_n, exact through
    a weight of at most 9, at a drawn order in 4..MAX_ORDER, with one to
    three coefficients of weight at most that order perturbed."""
    order = draw(st.integers(4, MAX_ORDER))
    exact = draw(st.integers(4, min(order, 9)))
    coeffs = {(n,) if n else (): draw(_RATIONALS) if n else 1 for n in range(exact + 1)}
    terms = dict(series.log(schur_combination(coeffs, exact)).terms)
    for _ in range(draw(st.integers(1, 3))):
        mu = draw(st.sampled_from(partitions_of(draw(st.integers(1, order)))))
        m = mono(Counter(mu))
        terms[m] = terms.get(m, 0) + draw(_RATIONALS.filter(bool))
    return TruncSeries(order, "p", terms)


class TestKernelsMatchOracles:
    """The coefficient-lookup residuals and the column-wise Schur expansion
    equal the partial-derivative and per-pair oracles exactly."""

    @staticmethod
    def _same(got, want):
        assert (got.order, got.var, got.terms) == (want.order, want.var, want.terms)
        assert bool(got) == bool(want)

    @settings(max_examples=60, deadline=None)
    @given(F=perturbed_logs())
    def test_residuals_and_expansion(self, F):
        self._same(kp1_residual(F), partial_kp1_residual(F))
        if F.order >= 5:
            self._same(kp2_residual(F), partial_kp2_residual(F))
        else:
            with pytest.raises(ValueError):
                kp2_residual(F)
        expansion = schur_expand(F)
        assert list(expansion.items()) == list(pairwise_schur_expand(F).items())

    @pytest.mark.parametrize("monomial, v, mu, value", [
        ((2, 1, 1, 1), (1, 1), (2, 1), 6),         # d^2/dp1^2 p1^3 p2 = 6 p1 p2
        ((3, 3, 2, 1), (3, 2), (3, 1), 2),         # d/dp3 d/dp2 p3^2 p2 p1 = 2 p3 p1
        ((2, 2, 2, 1, 1), (2, 1), (2, 2, 1), 6),   # d/dp2 d/dp1 p2^3 p1^2 = 6 p2^2 p1
        ((1, 1, 1, 1), (1, 1, 1, 1), (), 24),      # d^4/dp1^4 p1^4 = 24
        ((4, 1), (2,), None, 0),                   # no p2 to differentiate
    ])
    def test_derivative_lookup(self, monomial, v, mu, value):
        weight = sum(monomial) - sum(v)
        pieces = _derivative({monomial: 1}, v, weight)
        assert [w for w, piece in enumerate(pieces) if piece] == ([weight] if value else [])
        assert pieces[weight] == ({mu: value} if value else {})
        # the prime-key kernel reads [p_mu p_v] G at key(mu) key(v), times the
        # factor its plan lists
        key = {m: k for pairs in series._prime_keys(sum(monomial)) for m, k in pairs}
        plan = series._derivative_plan(weight, v)
        pieces = series._derivative({key[monomial]: 1}, plan)
        assert pieces == [{key[mu]: value} if value and w == weight else {}
                          for w in range(weight + 1)]
        d = TruncSeries(sum(monomial), "p", {mono(Counter(monomial)): 1})
        for i, t in Counter(v).items():
            d = fraction_partial(d, i, t)
        assert d.terms == ({mono(Counter(mu)): value} if value else {})


class TestCachedPlans:
    """The derivative plans, cached per order, and the character rows,
    cached per support, serve each later call in one process exactly."""

    def test_residuals_at_orders_8_12_8_26(self):
        # a plan built at one order must not serve another; at 26 the Hirota
        # form on tau itself is the oracle
        candidates = gen.tau_candidates(0)[:3]  # two tau-functions, one control
        bump = {mono({1: 1, 2: 1, 3: 1}): Fraction(1, 3)}
        for order in (8, 12, 8):
            for terms, _, _ in candidates:
                logged = series.log(TruncSeries(order, "p", terms))
                for F in (logged, logged + TruncSeries(order, "p", bump)):
                    TestKernelsMatchOracles._same(kp1_residual(F), partial_kp1_residual(F))
                    TestKernelsMatchOracles._same(kp2_residual(F), partial_kp2_residual(F))
        for terms, _, is_tau in candidates:
            tau = TruncSeries(26, "p", terms)
            F = series.log(tau)
            firsts = [first_weight(kp1_residual(F)), first_weight(kp2_residual(F))]
            assert firsts == [first_weight(hirota_kp1(tau)), first_weight(hirota_kp2(tau))]
            assert (firsts == [None, None]) == is_tau

    def test_expansion_of_sparse_and_dense_series_of_one_weight(self):
        # the same weights with all their partitions, then a few, then all again
        dense = target_series(9)
        sparse = TruncSeries(9, "p", {(): 1, mono({2: 1}): Fraction(-2, 3),
                                      mono({1: 3, 2: 3}): 5, mono({9: 1}): 7})
        for tau in (dense, sparse, dense):
            assert list(schur_expand(tau).items()) == list(pairwise_schur_expand(tau).items())


def _same_residuals(F):
    for got, want in ((kp1_residual(F), tuple_kp1_residual(F)),
                      (kp2_residual(F), tuple_kp2_residual(F))):
        assert (got.order, got.var, got.terms) == (want.order, want.var, want.terms)


class TestResidualsMatchTupleOracles:
    """The prime-key residuals equal the tuple-merge residuals they replaced,
    term for term."""

    def test_random_series(self, rng):
        for order in range(5, 15):
            for _ in range(6):
                _same_residuals(random_series(rng, order, "p", max_terms=12,
                                              constant=random_rational(rng)))

    @pytest.mark.parametrize("which", ["W", "A", "S"])
    def test_generating_series_through_the_cap(self, which):
        for order in range(20, MAX_ORDER + 1):
            if which == "S":
                F = series.log(target_series(order))
            else:
                plan = ensemble.make_plan(ensemble.rescale_constants(which, order))
                F = series.substitute(ensemble.connected_series(which, order), plan)
            _same_residuals(F)

    @pytest.mark.parametrize("seed", range(3))
    def test_tau_candidates(self, seed):
        for terms, _, _ in gen.tau_candidates(seed):
            _same_residuals(series.log(TruncSeries(gen.TAU_ORDER, "p", terms)))


def _rescaled_all_graphs(which, order):
    """The rescaled all-graphs series of W or A; for S the reference tau,
    which both equal."""
    if which == "S":
        return target_series(order)
    plan = ensemble.make_plan(ensemble.rescale_constants(which, order))
    return series.substitute(ensemble.full_series(which, order), plan)


class TestHirotaOracle:
    """KP in Hirota's bilinear form on tau itself, built from
    ``fraction_partial`` and ``fraction_mul`` with no log and no F-form
    equation, is zero, or first nonzero, at the weight where the residual
    of log tau is."""

    @pytest.mark.parametrize("which", ["W", "A", "S"])
    @pytest.mark.parametrize("order", [8, 12, 16])
    def test_rescaled_all_graphs_series(self, which, order):
        tau = _rescaled_all_graphs(which, order)
        assert not hirota_kp1(tau) and not hirota_kp2(tau)

    def test_perturbation_fails_at_its_first_weight(self):
        # p3 p2 p1 has weight 6; the forms lower weight by 4 and by 5
        tau = _rescaled_all_graphs("W", 8) + TruncSeries(8, "p", {mono({1: 1, 2: 1, 3: 1}): 1})
        F = series.log(tau)
        assert (first_weight(hirota_kp1(tau)), first_weight(hirota_kp2(tau))) == (2, 1)
        assert (first_weight(kp1_residual(F)), first_weight(kp2_residual(F))) == (2, 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_tau_candidates(self, seed):
        for terms, _, is_tau in gen.tau_candidates(seed):
            tau = TruncSeries(gen.TAU_ORDER, "p", terms)
            F = series.log(tau)
            firsts = [first_weight(hirota_kp1(tau)), first_weight(hirota_kp2(tau))]
            assert firsts == [first_weight(kp1_residual(F)), first_weight(kp2_residual(F))]
            assert (firsts == [None, None]) == is_tau
