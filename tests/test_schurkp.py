"""Schur machinery and the residual operators for the first two KP equations."""

from fractions import Fraction
from math import factorial, prod

import pytest

from graphkp import series
from graphkp.schurkp import (character, kp1_residual, kp2_residual,
                             partitions_of, schur_combination, schur_expand,
                             schur_polynomial, target_series)
from graphkp.series import TruncSeries, partial
from helpers import (elimination_expand, hook_length_count, parse_poly,
                     random_rational, schur_jacobi_trudi, schur_one_part)


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
        assert partial(f, 2, 2).constant_term == 15
        assert partial(partial(f, 1), 3).constant_term == Fraction(56, 3)
        sq = partial(f, 1, 2)
        assert (Fraction(1, 2) * sq * sq).constant_term == Fraction(1, 2)
        assert (Fraction(1, 12) * partial(f, 1, 4)).constant_term == Fraction(19, 6)

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
