"""Truncated-series arithmetic: frozen examples and randomized ring laws."""

import ast
import json
import operator
import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphkp
from graphkp.ensemble import full_series, make_plan, rescale_constants
from graphkp.schurkp import (kp1_residual, kp2_residual, partitions_of, schur_combination,
                             target_series)
from graphkp.series import (MAX_ORDER, TruncSeries, _decoded, _exp, _from_parts, _parts,
                            _prime_keys, exp, log, mono, substitute)
from helpers import (NOT_EXACT, evaluate, fraction_exp, fraction_log, fraction_mul,
                     fraction_partial, fraction_substitute, mono_key_json_obj, mono_key_text,
                     parse_poly, random_rational, random_series, scaled_fraction_exp, tuple_exp,
                     tuple_log, tuple_mul)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (the benchmark's seeded tau-function candidates)


def q(i, order=7):
    return TruncSeries.variable(i, order)


class TestConstruction:
    def test_zero_series_is_empty_map(self):
        assert TruncSeries.zero(4).terms == {}
        assert TruncSeries.zero(4).text() == "0"

    def test_orders_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TruncSeries(MAX_ORDER + 1)
        with pytest.raises(ValueError):
            TruncSeries(-1)

    @pytest.mark.parametrize("order", ["3", None, 2.0])
    def test_order_type_is_checked_before_its_sign(self, order):
        with pytest.raises(TypeError, match="truncation order must be an int"):
            TruncSeries(order)

    @pytest.mark.parametrize("value", NOT_EXACT.values(), ids=list(NOT_EXACT))
    def test_floats_rejected(self, value):
        with pytest.raises(TypeError):
            TruncSeries(4, "q", {mono({1: 1}): value})
        with pytest.raises(TypeError):
            TruncSeries.constant(value, 4)

    @pytest.mark.parametrize("value", NOT_EXACT.values(), ids=list(NOT_EXACT))
    def test_floats_rejected_in_schur_combinations(self, value):
        with pytest.raises(TypeError):
            schur_combination({(1,): value}, 2)

    def test_equality_compares_order(self):
        assert TruncSeries.one(3, "q") != TruncSeries.one(7, "q")
        assert TruncSeries.one(7, "q") == TruncSeries.one(7, "q")
        assert TruncSeries.one(3, "q") == 1
        assert TruncSeries.constant(Fraction(1, 2), 3) == Fraction(1, 2)

    def test_overweight_terms_dropped_at_construction(self):
        s = TruncSeries(2, "q", {mono({3: 1}): 1, mono({1: 1}): 1})
        assert s == parse_poly("q1", 2)

    def test_mono_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mono({0: 1})
        with pytest.raises(ValueError):
            mono({1: -1})

    def test_keys_are_canonical(self):
        swapped = TruncSeries(4, "q", {((2, 1), (1, 1)): 1})
        assert swapped == TruncSeries(4, "q", {((1, 1), (2, 1)): 1})
        assert swapped.terms == {((1, 1), (2, 1)): 1}
        assert swapped.text() == "q1 q2"
        assert swapped.coefficient(((2, 1), (1, 1))) == 1
        power_zero = TruncSeries(4, "q", {((1, 0),): 1})
        assert power_zero == 1
        assert power_zero.text() == "1"
        assert power_zero.terms == {(): 1}

    def test_spellings_of_one_monomial_are_summed(self):
        assert TruncSeries(4, "q", {((2, 1), (1, 1)): 1, ((1, 1), (2, 1)): 2}) == \
            parse_poly("3 q1 q2", 4)
        assert TruncSeries(4, "q", {((2, 1), (1, 1)): 1, ((1, 1), (2, 1)): -1}).terms == {}

    @pytest.mark.parametrize("key", [((0, 1),), ((1, -1),), ((2, 1), (0, 0)),
                                     ((True, 2),), ((1.5, 1),), ((1, 2.0),), ((1, True),)])
    def test_bad_keys_rejected(self, key):
        with pytest.raises(ValueError):
            TruncSeries(4, "q", {key: 1})
        with pytest.raises(ValueError):
            TruncSeries.one(4).coefficient(key)
        with pytest.raises(ValueError):
            mono(key)

    @pytest.mark.parametrize("key", [((1, 2 ** 63),), ((1, 2 ** 64), (2, 1)), ((2 ** 64, 1),)])
    def test_heavy_keys_weighed_before_expansion(self, key):
        # a monomial above the order is dropped by the constructor and
        # refused by coefficient and mono, without building its parts
        assert TruncSeries(8, "p", {key: 1, ((2, 1),): 3}) == parse_poly("3 p2", 8, "p")
        with pytest.raises(ValueError):
            TruncSeries.one(8).coefficient(key)
        with pytest.raises(ValueError):
            mono(key)

    def test_terms_view_cannot_mutate_the_series(self):
        s = TruncSeries.one(4)
        s.terms[()] = Fraction(2)
        assert s == 1
        assert s.text() == "1"
        w = parse_poly("q1^2 + 1/2 q2", 4)
        w.terms.clear()
        assert w == parse_poly("q1^2 + 1/2 q2", 4)
        assert w.text() == "q1^2 + 1/2 q2"


def test_key_format_stays_in_series():
    # the (variable, exponent) monomial is series' boundary format; every
    # other module reads and builds partition keys.  The package __init__
    # re-exports the public mono.
    # The store's prime keys stay inside series.py too: _PRIMES holds the
    # primes, _key encodes a monomial, _decoded decodes a key, _prime_keys
    # lists the keys by weight, _graded and _ungraded grade a store and
    # _add_product multiplies; other modules go through the partition-keyed
    # _from_parts and _parts.
    hidden = {"_key", "_decoded", "_PRIMES", "_first_primes", "mono", "Monomial",
              "_add_product", "_prime_keys", "_graded", "_ungraded"}
    leaks = []
    for path in sorted(Path(graphkp.__file__).parent.glob("*.py")):
        if path.name in ("series.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                leaks += [(path.name, a.name) for a in node.names if a.name in hidden]
    assert leaks == []


class TestAdd:
    def test_additive_inverse(self):
        assert (q(1) + (-q(1))).terms == {}

    def test_merges_matching_monomials(self):
        a = parse_poly("q1^2 + q2", 4)
        b = parse_poly("q1^2", 4)
        assert a + b == parse_poly("2 q1^2 + q2", 4)

    def test_connected_series_low_weights(self):
        # weight-2 plus weight-3 parts of the connected W series
        part2 = parse_poly("1/2 q1^2 + 1/2 q2", 4)
        part3 = parse_poly("2/3 q1^3 + 3/2 q1 q2 + 5/6 q3", 4)
        total = part2 + part3
        assert total == parse_poly("1/2 q1^2 + 1/2 q2 + 2/3 q1^3 + 3/2 q1 q2 + 5/6 q3", 4)

    def test_order_mismatch_raises(self):
        with pytest.raises(ValueError):
            q(1, 3) + q(1, 4)

    def test_var_mismatch_raises(self):
        with pytest.raises(ValueError):
            TruncSeries.variable(1, 4, "q") + TruncSeries.variable(1, 4, "p")

    def test_scalar_addition(self):
        assert q(1) + 2 == 2 + q(1) == parse_poly("2 + q1", 7)
        assert q(1) + Fraction(1, 3) == parse_poly("1/3 + q1", 7)


class TestMul:
    def test_square_of_variable(self):
        assert q(1) * q(1) == parse_poly("q1^2", 7)

    def test_truncation_drops_heavy_products(self):
        a = parse_poly("q1 + q2", 2)
        assert a * q(1, 2) == parse_poly("q1^2", 2)  # q1 q2 has weight 3

    def test_cancelled_terms_are_dropped(self):
        product = (1 + q(1)) * (1 - q(1))
        assert product.terms == parse_poly("1 - q1^2", 7).terms

    def test_s1_squared_in_p_vars(self):
        s1 = TruncSeries.variable(1, 2, "p")
        assert s1 * s1 == parse_poly("p1^2", 2, "p")

    def test_scalar_multiplication(self):
        assert 2 * q(1) == parse_poly("2 q1", 7)
        assert q(1) * Fraction(1, 3) == parse_poly("1/3 q1", 7)


@pytest.mark.parametrize("value", NOT_EXACT.values(), ids=list(NOT_EXACT))
def test_inexact_scalars_rejected(value):
    # scalar +, -, * and == take what the constructor takes; the series is
    # the constant the value would read as, were it coerced
    s = TruncSeries.constant(Fraction(value), 3)
    for op in (operator.add, operator.sub, operator.mul, operator.eq, operator.ne):
        with pytest.raises(TypeError):
            op(s, value)
        with pytest.raises(TypeError):
            op(value, s)


class TestExpLog:
    def test_exp_of_zero(self):
        assert exp(TruncSeries.zero(4)) == 1

    def test_exp_of_single_variable(self):
        assert exp(q(1, 3)) == parse_poly("1 + q1 + 1/2 q1^2 + 1/6 q1^3", 3)

    def test_exp_of_connected_series_matches_all_graphs_series(self):
        w = parse_poly("q1 + 1/2 q1^2 + 1/2 q2 + 2/3 q1^3 + 3/2 q1 q2 + 5/6 q3", 3)
        expected = parse_poly("1 + q1 + q1^2 + 1/2 q2 + 4/3 q1^3 + 2 q1 q2 + 5/6 q3", 3)
        assert exp(w) == expected

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            exp(TruncSeries.one(4))

    def test_log_of_one(self):
        assert log(TruncSeries.one(4)).terms == {}

    def test_log_exp_round_trip(self):
        a = parse_poly("q1 + q2", 4)
        assert log(exp(a)) == a

    def test_log_recovers_connected_part_through_weight_4(self):
        wo = parse_poly(
            "1 + q1 + q1^2 + 1/2 q2 + 4/3 q1^3 + 2 q1 q2 + 5/6 q3"
            " + 8/3 q1^4 + 8 q1^2 q2 + 2 q2^2 + 20/3 q1 q3 + 79/24 q4", 4)
        w = parse_poly(
            "q1 + 1/2 q1^2 + 1/2 q2 + 2/3 q1^3 + 3/2 q1 q2 + 5/6 q3"
            " + 19/12 q1^4 + 6 q1^2 q2 + 15/8 q2^2 + 35/6 q1 q3 + 79/24 q4", 4)
        assert log(wo) == w

    def test_log_requires_constant_one(self):
        with pytest.raises(ValueError):
            log(TruncSeries.zero(4))


class TestSubstitute:
    def test_single_variable_factors(self):
        assert substitute(q(2, 4), {2: Fraction(2)}) == parse_poly("2 p2", 4, "p")
        assert substitute(q(3, 4), {3: Fraction(16, 5)}) == parse_poly("16/5 p3", 4, "p")
        assert substitute(q(3, 4), {3: Fraction(8, 9)}) == parse_poly("8/9 p3", 4, "p")
        assert substitute(q(2, 4), {2: 3}) == parse_poly("3 p2", 4, "p")

    def test_missing_factor_raises(self):
        with pytest.raises(ValueError):
            substitute(q(2, 4), {1: Fraction(1)})

    def test_zero_factor_raises(self):
        with pytest.raises(ValueError):
            substitute(q(2, 4), {2: Fraction(0)})

    @pytest.mark.parametrize("value", NOT_EXACT.values(), ids=list(NOT_EXACT))
    def test_inexact_factors_and_points_rejected(self, value):
        # a value is checked whether or not the series uses its variable
        for used in (1, 2):
            with pytest.raises(TypeError):
                substitute(q(1, 4), {1: Fraction(1), used: value})
            with pytest.raises(TypeError):
                evaluate(q(1, 4), {1: Fraction(1), used: value})


_NONZERO = st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 12))


@st.composite
def q_series(draw):
    """A q series of a drawn order in 0..MAX_ORDER with up to ten terms of
    any weight it holds and nonzero rational coefficients."""
    order = draw(st.integers(0, MAX_ORDER))
    terms = {}
    for _ in range(draw(st.integers(0, 10))):
        mu = draw(st.sampled_from(partitions_of(draw(st.integers(0, order)))))
        terms[mono(Counter(mu))] = draw(_NONZERO)
    return TruncSeries(order, "q", terms)


@settings(max_examples=80, deadline=None)
@given(a=q_series(), values=st.lists(_NONZERO, min_size=MAX_ORDER, max_size=MAX_ORDER),
       zeros=st.sets(st.integers(1, MAX_ORDER), max_size=3))
def test_rescaling_matches_fraction_oracle(a, values, zeros):
    """substitute equals the Fraction-power oracle term for term; evaluate
    is the sum of the oracle's terms, and at a point with zeros the terms
    through a zero-valued variable vanish."""
    factors = dict(enumerate(values, start=1))
    got, want = substitute(a, factors), fraction_substitute(a, factors)
    assert (got.order, got.var, got.terms) == (want.order, want.var, want.terms)
    assert evaluate(a, factors) == sum(want.terms.values())
    live = TruncSeries(a.order, "q", {m: c for m, c in a.terms.items()
                                      if not any(i in zeros for i, _ in m)})
    point = {i: 0 if i in zeros else f for i, f in factors.items()}
    assert evaluate(a, point) == sum(fraction_substitute(live, factors).terms.values())


@st.composite
def spelled_series(draw, order: int, var: str):
    """A series of up to eight terms, each monomial spelled as its pairs in
    a drawn order, with an index split over two pairs, or with a zero
    exponent; so two terms may spell one monomial."""
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        pairs = list(Counter(draw(st.sampled_from(
            partitions_of(draw(st.integers(0, order)))))).items())
        pairs = draw(st.permutations(pairs)) if pairs else pairs
        if pairs and pairs[0][1] > 1 and draw(st.booleans()):
            (i, e), *rest = pairs
            pairs = [(i, 1), *rest, (i, e - 1)]
        if draw(st.booleans()):
            pairs.append((draw(st.integers(1, order + 3)), 0))
        terms[tuple(pairs)] = draw(_NONZERO)
    return TruncSeries(order, var, terms)


def _canonical(s: TruncSeries) -> TruncSeries:
    """The store invariant: one denominator D >= 1 in lowest terms with the
    numerators, no zero numerator, and no key of a weight above the order."""
    keys = {k for pairs in _prime_keys(s.order) for _, k in pairs}
    assert type(s._den) is int and s._den >= 1
    assert gcd(s._den, *s._nums.values()) == 1
    assert all(type(n) is int and n for n in s._nums.values())
    assert set(s._nums) <= keys
    return s


@settings(max_examples=60, deadline=None)
@given(data=st.data(), order=st.integers(0, 10), var=st.sampled_from("qp"))
def test_every_operation_keeps_the_store_canonical(data, order, var):
    a = data.draw(spelled_series(order, var))
    b = data.draw(spelled_series(order, var))
    scalar = data.draw(st.one_of(st.just(0), _NONZERO))
    factors = dict(enumerate(data.draw(st.lists(_NONZERO, min_size=order, max_size=order)),
                             start=1))
    tail = a - a.constant_term
    results = [a, b, a + b, a - b, a - a, -a, a * scalar, scalar * b, a * b, exp(tail),
               log(tail + 1), substitute(a, factors),
               TruncSeries.from_json_obj(json.loads(json.dumps(a.to_json_obj())))]
    results += [a.homogeneous_part(w) for w in range(order + 1)]
    if var == "p" and order >= 4:
        results.append(kp1_residual(log(tail + 1)))
    if var == "p" and order >= 5:
        results.append(kp2_residual(log(tail + 1)))
    for s in results:
        _canonical(s)
    # two spellings of one monomial are one term, with the sum of their
    # coefficients
    if a:
        m, c = next(iter(a.terms.items()))
        two = TruncSeries(order, var, {m: c, m[::-1] + ((1, 0),): c})
        assert _canonical(two) == TruncSeries(order, var, {m: 2 * c})
    # == holds exactly when the public views agree
    for x in results[:8]:
        for y in results[:8] + [(a + b) - b]:
            if x.order == y.order:
                assert (x == y) == ((x.var, x.terms) == (y.var, y.terms))


class TestCoefficient:
    def test_stored_and_absent_monomials(self):
        w_k4 = parse_poly("q1^4 + 6 q1^2 q2 + 3 q2^2 + 8 q1 q3 + 6 q4", 4)
        assert w_k4.coefficient({4: 1}) == 6
        a_k3 = parse_poly("q1^3 + 6 q1 q2 + 9 q3", 4)
        assert a_k3.coefficient({1: 1, 2: 1}) == 6

    def test_zero_above_content_but_within_order(self):
        s = parse_poly("q1^4 + 6 q4", 7)
        assert s.coefficient({5: 1}) == 0

    def test_query_beyond_order_raises(self):
        s = parse_poly("q1^4 + 6 q4", 4)
        with pytest.raises(ValueError):
            s.coefficient({5: 1})


class TestRingLaws:
    def test_commutativity_associativity_distributivity(self, rng):
        for _ in range(40):
            order = rng.randint(2, 6)
            a = random_series(rng, order)
            b = random_series(rng, order)
            c = random_series(rng, order)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_exp_log_mutually_inverse(self, rng):
        cases = [(rng.randint(2, 8), "q") for _ in range(25)]
        cases += [(MAX_ORDER, var) for var in ("q", "p") for _ in range(5)]
        for order, var in cases:
            a = random_series(rng, order, var, max_terms=10, constant=0)
            assert log(exp(a)) == a
            assert exp(log(1 + a)) == 1 + a

    def test_substitute_is_ring_homomorphism(self, rng):
        for _ in range(25):
            order = rng.randint(2, 6)
            a = random_series(rng, order)
            b = random_series(rng, order)
            factors = {i: random_rational(rng, nonzero=True)
                       for i in range(1, order + 1)}
            assert substitute(a * b, factors) == substitute(a, factors) * substitute(b, factors)
            assert substitute(a + b, factors) == substitute(a, factors) + substitute(b, factors)

    def test_partial_satisfies_leibniz(self, rng):
        for _ in range(25):
            order = rng.randint(2, 6)
            a = random_series(rng, order)
            b = random_series(rng, order)
            v = rng.randint(1, order)
            lhs = fraction_partial(a * b, v)
            cut = lhs.order
            rhs = (fraction_partial(a, v) * TruncSeries(cut, b.var, b.terms)
                   + TruncSeries(cut, a.var, a.terms) * fraction_partial(b, v))
            assert lhs == rhs

    def test_results_stay_canonical_fractions(self, rng):
        a = random_series(rng, 5)
        b = random_series(rng, 5)
        for coeff in (a * b + a).terms.values():
            assert isinstance(coeff, Fraction)
            assert coeff.denominator > 0


def _same(got, want):
    assert (got.order, got.var, got.terms) == (want.order, want.var, want.terms)


class TestKernelsMatchFractionOracles:
    """The integer-numerator kernels equal the per-term Fraction versions
    exactly, term for term and in their truncation order."""

    @staticmethod
    def _cases(rng, order, var):
        # random_series draws constant terms only when pinned, so the
        # fractional constants that a product must not scale away are drawn here
        yield TruncSeries.zero(order, var)
        yield TruncSeries.constant(Fraction(-7, 3), order, var)
        for _ in range(4):
            yield random_series(rng, order, var, max_terms=8,
                                constant=random_rational(rng, nonzero=True))

    @pytest.mark.parametrize("var", ["q", "p"])
    def test_every_order(self, rng, var):
        for order in range(MAX_ORDER + 1):
            cases = list(self._cases(rng, order, var))
            for a in cases:
                for b in cases:
                    _same(a * b, fraction_mul(a, b))
                shifted = a - a.constant_term
                _same(exp(shifted), fraction_exp(shifted))
                _same(log(shifted + 1), fraction_log(shifted + 1))
                for base in (1, 2, 3):
                    _same(_exp(shifted, base), scaled_fraction_exp(shifted, base))


class TestKernelsMatchTupleOracles:
    """The kernels in exponential grading on prime keys equal the tuple-merge
    kernels they replaced (D^w grading, keys merged as sorted tuples), term
    for term."""

    def test_random_series(self, rng):
        for order in range(15):
            for _ in range(6):
                # a fractional constant term for the product, zero for exp,
                # one for log
                a = random_series(rng, order, rng.choice("qp"), max_terms=10,
                                  constant=random_rational(rng, nonzero=True))
                b = random_series(rng, order, a.var, max_terms=10, constant=random_rational(rng))
                _same(a * b, tuple_mul(a, b))
                _same(a * a, tuple_mul(a, a))
                shifted = a - a.constant_term
                _same(exp(shifted), tuple_exp(shifted))
                _same(log(shifted + 1), tuple_log(shifted + 1))

    @pytest.mark.parametrize("which", ["W", "A", "S"])
    def test_generating_series_through_the_cap(self, which):
        # the oracle runs once, at the cap: at each lower order tau is the
        # cap's tau and log(tau) the oracle's log, both truncated to that order;
        # exp is checked against its oracle at 20 and, at the cap, against tau
        # itself, since log(tau) has just matched the oracle's log there
        def series(order):
            return target_series(order) if which == "S" else full_series(which, order)

        top = series(MAX_ORDER)
        oracle = tuple_log(top)
        for order in range(20, MAX_ORDER + 1):
            tau = series(order)
            _same(tau, TruncSeries(order, top.var, top.terms))
            connected = log(tau)
            _same(connected, TruncSeries(order, oracle.var, oracle.terms))
            if order in (20, MAX_ORDER):
                _same(exp(connected), tuple_exp(connected) if order == 20 else tau)
                _same(tau * tau, tuple_mul(tau, tau))

    @pytest.mark.parametrize("seed", range(3))
    def test_tau_candidates(self, seed):
        for terms, _, _ in gen.tau_candidates(seed):
            tau = TruncSeries(gen.TAU_ORDER, "p", terms)
            connected = log(tau)
            _same(connected, tuple_log(tau))
            _same(exp(connected), tuple_exp(connected))
            _same(tau * connected, tuple_mul(tau, connected))

    def test_keys_decode_every_partition(self):
        # key(mu) = prod_j prime(mu_j) is one distinct integer per partition,
        # _decoded reads its weight, parts and monomial back, and the
        # partition-keyed entry point and reader carry every partition
        # through the store and back
        primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
        table = _prime_keys(MAX_ORDER)
        assert [[mu for mu, _ in pairs] for pairs in table] == [
            list(partitions_of(w)) for w in range(MAX_ORDER + 1)]
        keys = [k for pairs in table for mu, k in pairs]
        assert keys == [prod([primes[part - 1] for part in mu])
                        for pairs in table for mu, _ in pairs]
        assert len(set(keys)) == len(keys)
        assert [_decoded(k) for k in keys] == [
            (sum(mu), mu, tuple(sorted(Counter(mu).items())))
            for pairs in table for mu, _ in pairs]
        every = {mu: 1 for pairs in table for mu, _ in pairs}
        decoded = _from_parts(MAX_ORDER, "q", every, 1)
        assert decoded.terms == {mono(Counter(mu)): 1 for w in range(MAX_ORDER + 1)
                                 for mu in partitions_of(w)}
        assert _parts(decoded) == ([dict.fromkeys(partitions_of(w), 1)
                                    for w in range(MAX_ORDER + 1)], 1)


class TestRendering:
    def test_text_canonical_order_and_signs(self):
        s = TruncSeries(4, "q", {mono({1: 3}): 1, mono({1: 1, 2: 1}): 3,
                                 mono({3: 1}): -2})
        assert s.text() == str(s) == "q1^3 + 3 q1 q2 - 2 q3"
        assert repr(s) == "TruncSeries(order=4, var='q', <q1^3 + 3 q1 q2 - 2 q3>)"

    def test_constant_rendering(self):
        assert TruncSeries.constant(Fraction(-3, 2), 4).text() == "-3/2"

    def test_json_round_trip(self):
        s = parse_poly("q1^2 + 1/2 q2 - 7/3 q1 q3", 4)
        assert TruncSeries.from_json_obj(s.to_json_obj()) == s

    @pytest.mark.parametrize("var", ["q", "p"])
    def test_json_round_trip_at_every_order(self, var):
        for order in range(MAX_ORDER + 1):
            terms = {(): -7, **{((i, 1),): Fraction(1, i) for i in range(1, order + 1)}}
            s = TruncSeries(order, var, terms)
            assert TruncSeries.from_json_obj(json.loads(json.dumps(s.to_json_obj()))) == s

    @pytest.mark.parametrize("field,value", [
        ("order", 4.0), ("order", "4"), ("order", True),
        ("exponents", {"1": 1.5}), ("exponents", {"1": "2"}), ("exponents", {"1": False}),
        ("exponents", {"1.0": 1}), ("exponents", {" 1": 1}), ("exponents", {"-1": 1}),
        ("exponents", {"01": 1}), ("exponents", {"00": 1}),
        ("numerator", 1.5), ("numerator", "1"), ("numerator", True),
        ("denominator", 2.0), ("denominator", "2"), ("denominator", 0),
        ("terms", {"0": {}}), ("terms", "q1"), ("exponents", []),
    ])
    def test_json_rejects_non_integers(self, field, value):
        obj = parse_poly("q1^2", 4).to_json_obj()
        if field in ("order", "terms"):
            obj[field] = value
        else:
            obj["terms"][0][field] = value
        with pytest.raises(ValueError):
            TruncSeries.from_json_obj(obj)

    def test_evaluate_exact(self):
        s = parse_poly("q1^2 + q2", 4)
        assert evaluate(s, {1: Fraction(2), 2: Fraction(-3)}) == 1
        assert evaluate(s, {1: 2, 2: -3}) == 1
        with pytest.raises(ValueError):
            evaluate(s, {1: Fraction(2)})


def _renders_like_oracle(s: TruncSeries) -> None:
    assert s.text() == mono_key_text(s)
    assert json.dumps(s.to_json_obj()) == json.dumps(mono_key_json_obj(s))


class TestRenderingMatchesMonoKeyOracle:
    @pytest.mark.parametrize("var, offset", [("q", 0), ("p", 1)])
    def test_every_partition_through_the_cap(self, var, offset):
        # mixed signs, integer and fractional coefficients; the offset makes
        # the p series open with a negative constant term
        coeffs = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3, 7),
                  Fraction(-5), Fraction(-12, 5)]
        parts = [mu for w in range(MAX_ORDER + 1) for mu in partitions_of(w)]
        terms = {mono(Counter(mu)): coeffs[(i + offset) % len(coeffs)]
                 for i, mu in enumerate(parts)}
        s = TruncSeries(MAX_ORDER, var, terms)
        # the oracle reads the .terms view, so check the view against Counter
        assert set(s.terms) == {tuple(sorted(Counter(mu).items())) for mu in parts}
        _renders_like_oracle(s)

    @pytest.mark.parametrize("var", ["q", "p"])
    def test_random_and_zero_series(self, var):
        rng = random.Random(var)
        _renders_like_oracle(TruncSeries.zero(4, var))
        for _ in range(60):
            _renders_like_oracle(random_series(rng, rng.randint(0, MAX_ORDER), var, max_terms=12))

    @pytest.mark.parametrize("order", [7, 25, MAX_ORDER])
    @pytest.mark.parametrize("which", ["W", "A", "S"])
    def test_generating_series(self, which, order):
        if which == "S":
            tau = target_series(order)
            shown = [tau, log(tau)]
        else:
            tau = full_series(which, order)
            connected = log(tau)
            plan = make_plan(rescale_constants(which, order))
            shown = [tau, connected, substitute(connected, plan)]
        for s in shown:
            _renders_like_oracle(s)
