"""Schur functions in power-sum variables, the Schur expansion, and the first
two KP equations.

The power sums p_mu = p_mu1 p_mu2 ... are orthogonal for the Hall inner
product, <p_mu, p_nu> = z_mu if mu = nu and 0 otherwise, with
z_mu = prod_i i^(m_i) m_i! for m_i parts equal to i.  The Schur functions are
orthonormal, and the change of basis between the two is the character table
of the symmetric group (Macdonald, *Symmetric Functions and Hall
Polynomials*, I.4 and I.7):

    s_lambda = sum_{mu |- |lambda|} chi^lambda_mu p_mu / z_mu.

So the coefficient of s_lambda in a series tau is one inner product,

    c_lambda = <tau, s_lambda> = sum_{mu |- |lambda|} chi^lambda_mu [p_mu] tau,

a sum of integer characters times coefficients of tau, with no linear solve.
The characters come from the Murnaghan-Nakayama rule (Macdonald I.7, Ex. 5),
on the beta-numbers beta_i = lambda_i + l - i of lambda with l parts.
Removing a border strip of length r moves one bead b to a free position
b - r >= 0 and is signed by (-1)^(number of beads strictly between them), and
chi^lambda_mu sums these signs times chi^(lambda - strip)_(mu minus mu_1).
The characters are computed on demand and cached.  :func:`schur_expand` also
caches one column [chi^lambda_mu for lambda |- |mu|] per mu; the columns at
the mu where tau has a term, read row by row, give each c_lambda as one dot
product with tau's coefficients of that weight, as integers over their common
denominator.  Only those columns are computed, so a sparse series never
pays for a whole character table.  One-part Schur functions
(complete homogeneous symmetric functions) are the case chi = 1:
s_n = sum_{mu |- n} p_mu / z_mu, with the weight of p_i taken to be i.

``target_series`` builds the reference tau-function

    1 + 2^0 s_1 + 2^1 s_2 + ... + 2^(n(n-1)/2) s_n + ...

which every rescaled generating function in :mod:`graphkp.ensemble` must
match.  Any series 1 + sum c_n s_n with one-part Schur polynomials only is a
tau-function, so its log solves the KP hierarchy; the two residual operators
here check the first two equations:

    kp1: F_{2,2} - F_{1,3} + 1/2 (F_{1,1})^2 + 1/12 F_{1,1,1,1}
    kp2: F_{2,3} - F_{1,4} + F_{1,1} F_{1,2} + 1/6 F_{1,1,1,2}

(subscripts are repeated partial derivatives).  Every term of kp1 lowers
weight by exactly 4 and every term of kp2 by exactly 5, so the residual of
an order-N series is reliable through weight N - 4 resp. N - 5; the
returned residual carries that reduced order and never claims more.

The residuals never differentiate the whole series.  On G = D F, D the lcm
of F's denominators, :func:`graphkp.series._derivative_form` reads each
coefficient of a derivative by one lookup,

    [p_mu] d/dp_v1 ... d/dp_vk G = [p_mu p_v] G * prod_i (m_i + 1) ... (m_i + t_i),

m_i and t_i the multiplicities of i in mu and v (d^2/dp_1^2 p_1^3 p_2 =
6 p_1 p_2), with [p_mu p_v] G read at the prime key key(mu) key(v).  So

    12 D^2 kp1 = 12 D G_{2,2} - 12 D G_{1,3} + 6 (G_{1,1})^2 + D G_{1,1,1,1},
     6 D^2 kp2 =  6 D G_{2,3} -  6 D G_{1,4} + 6 G_{1,1} G_{1,2} + D G_{1,1,1,2}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from operator import mul

from graphkp.errors import check_limit
from graphkp.series import (DEFAULT_ORDER, Partition, TruncSeries, _derivative_form, _fraction,
                            partitions_of)


def _validate_partition(lam) -> Partition:
    lam = tuple(lam)
    # parts are never coerced: int() would turn 2.7 into 2 and True into 1
    if any(type(a) is not int or a < 1 for a in lam) or lam != tuple(sorted(lam)[::-1]):
        raise ValueError(f"not a partition: {lam}")
    return lam


@lru_cache(maxsize=None)
def character(lam: Partition, mu: Partition) -> int:
    """chi^lambda_mu: the irreducible character of S_n indexed by lambda on
    the permutations of cycle type mu, by the Murnaghan-Nakayama rule.

    Both arguments are weakly decreasing tuples of positive ints, else
    ValueError; the value is 0 when their weights differ."""
    lam, mu = _validate_partition(lam), _validate_partition(mu)
    if not mu:
        return 0 if lam else 1
    r, rest = mu[0], mu[1:]
    l = len(lam)
    beta = [part + l - 1 - i for i, part in enumerate(lam)]  # strictly decreasing
    total = 0
    for i, b in enumerate(beta):
        t = b - r
        if t < 0:
            break
        # the beads strictly between t and b follow b in beta
        height = 0
        while i + 1 + height < l and beta[i + 1 + height] > t:
            height += 1
        if i + 1 + height < l and beta[i + 1 + height] == t:
            continue  # position t is taken: no strip of length r ends here
        moved = beta[:i] + beta[i + 1:i + 1 + height] + [t] + beta[i + 1 + height:]
        smaller = [x - (l - 1 - j) for j, x in enumerate(moved)]
        while smaller and not smaller[-1]:
            smaller.pop()
        chi = character(tuple(smaller), rest)
        total += -chi if height & 1 else chi
    return total


# Tuples on the hot paths are built from lists, never from generators:
# tuple(generator) and f(*generator) allocate a spare-size tuple and shrink
# it, which shifts it between CPython's per-size tuple free lists, so those
# lists, and the peak memory of a long run, grow with every call until full.


def _z(mu: Partition) -> int:
    """z_mu = prod_i i^(m_i) m_i!, the size of the centralizer of a
    permutation of cycle type mu."""
    return prod(part ** mu.count(part) * factorial(mu.count(part)) for part in set(mu))


def schur_combination(coeffs, order: int = DEFAULT_ORDER) -> TruncSeries:
    """sum c_lambda s_lambda from a coefficient map {lambda: c_lambda}, with
    s_lambda = sum_mu chi^lambda_mu p_mu / z_mu."""
    check_limit("order", order)
    terms: dict[Partition, Fraction] = {}
    for lam, c in coeffs.items():
        lam = _validate_partition(lam)
        check_limit("order", order, low=sum(lam))
        c = _fraction(c)
        for mu in partitions_of(sum(lam)):
            chi = character(lam, mu)
            if chi and c:
                terms[mu] = terms.get(mu, 0) + c * Fraction(chi, _z(mu))
    return TruncSeries._raw(order, "p", {mu: c for mu, c in terms.items() if c})


def schur_polynomial(lam, order: int = DEFAULT_ORDER) -> TruncSeries:
    """s_lambda in power-sum variables, exact through its own weight."""
    return schur_combination({tuple(lam): 1}, order)


#: s_lambda under its earlier name; perfbench/test_oracles.py imports it.
schur_jacobi_trudi = schur_polynomial


def target_series(order: int = DEFAULT_ORDER) -> TruncSeries:
    """1 + sum_{n>=1} 2^(n(n-1)/2) s_n, truncated at the order, summed
    directly as sum_n 2^(n(n-1)/2) sum_{mu |- n} p_mu / z_mu."""
    check_limit("order", order)
    return TruncSeries._raw(order, "p", {mu: Fraction(2 ** (n * (n - 1) // 2), _z(mu))
                                         for n in range(order + 1)
                                         for mu in partitions_of(n)})


@lru_cache(maxsize=None)
def _character_column(mu: Partition) -> tuple[int, ...]:
    """chi^lambda_mu for every lambda |- |mu|, in the order of :func:`partitions_of`."""
    return tuple([character(lam, mu) for lam in partitions_of(sum(mu))])


def schur_expand(tau: TruncSeries) -> dict[Partition, Fraction]:
    """Coefficients c_lambda with tau = sum c_lambda s_lambda, |lambda| <= order.

    Each is the Hall inner product c_lambda = sum_mu chi^lambda_mu [p_mu] tau
    over the partitions mu of |lambda|.  Zero coefficients are omitted; the
    rest are listed by weight, then in the order of :func:`partitions_of`.
    """
    if tau.var != "p":
        raise ValueError("Schur expansion expects a series in p-variables")
    by_weight: list[dict[Partition, Fraction]] = [{} for _ in range(tau.order + 1)]
    for mu, c in tau._terms.items():
        by_weight[sum(mu)][mu] = c
    out: dict[Partition, Fraction] = {}
    for w, coeffs in enumerate(by_weight):
        if not coeffs:
            continue
        # integer arithmetic over one common denominator per weight (the
        # list, not a generator, keeps the tuple free lists flat; see above)
        den = lcm(*[a.denominator for a in coeffs.values()])
        nums = [a.numerator * (den // a.denominator) for a in coeffs.values()]
        # zip(*columns) gives each lambda's row of characters at tau's mu
        rows = zip(*[_character_column(mu) for mu in coeffs])
        for lam, row in zip(partitions_of(w), rows):
            c = sum(map(mul, row, nums))
            if c:
                out[lam] = Fraction(c, den)
    return out


# -- KP residuals ---------------------------------------------------------------

#: Each equation as (weight drop, scale, linear, bilinear): scale D^2 times the
#: residual is sum_v a_v D G_v + sum_(u, v) b_uv G_u G_v over its rows v -> a_v
#: and (u, v) -> b_uv, where G_v is the derivative of G = D F by p_v1 ... p_vk.
_KP1 = (4, 12, {(2, 2): 12, (3, 1): -12, (1, 1, 1, 1): 1}, {((1, 1), (1, 1)): 6})
_KP2 = (5, 6, {(3, 2): 6, (4, 1): -6, (2, 1, 1, 1): 1}, {((1, 1), (2, 1)): 6})


def _residual(F: TruncSeries, drop: int, scale: int, linear: dict, bilinear: dict) -> TruncSeries:
    """The residual of one KP equation given as a row (see ``_KP1``), of
    order F.order - drop >= 0."""
    if F.var != "p":
        raise ValueError("KP residuals expect a series in p-variables")
    check_limit("order", F.order, low=drop)
    return _derivative_form(F, F.order - drop, scale, linear, bilinear)


def kp1_residual(F: TruncSeries) -> TruncSeries:
    """Residual of the first KP equation; its order is the weight through
    which a zero residual is actually certified (F.order - 4)."""
    return _residual(F, *_KP1)


def kp2_residual(F: TruncSeries) -> TruncSeries:
    """Residual of the second KP equation, reliable through F.order - 5."""
    return _residual(F, *_KP2)


#: The equations ``kp-check`` certifies, as (name, residual, weight drop).
KP_EQUATIONS = (("kp1", kp1_residual, _KP1[0]), ("kp2", kp2_residual, _KP2[0]))
