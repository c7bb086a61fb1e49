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
The characters are computed on demand and cached.  One-part Schur functions
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
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from graphkp.series import DEFAULT_ORDER, Monomial, TruncSeries, partial

Partition = tuple[int, ...]


@lru_cache(maxsize=None)
def partitions_of(w: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """Weakly decreasing partitions of w, largest first part first."""
    if w == 0:
        return ((),)
    if max_part is None:
        max_part = w
    out = []
    for first in range(min(w, max_part), 0, -1):
        for rest in partitions_of(w - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def character(lam: Partition, mu: Partition) -> int:
    """chi^lambda_mu: the irreducible character of S_n indexed by lambda on
    the permutations of cycle type mu, by the Murnaghan-Nakayama rule.

    Both arguments are weakly decreasing tuples of positive parts; the value
    is 0 when their weights differ."""
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


def _p_monomial(mu: Partition) -> Monomial:
    """The monomial of p_mu: (part, multiplicity) pairs by increasing part."""
    return tuple([(part, mu.count(part)) for part in sorted(set(mu))])


def _partition(m: Monomial) -> Partition:
    parts: list[int] = []
    for part, mult in reversed(m):
        parts += [part] * mult
    return tuple(parts)


def _z(m: Monomial) -> int:
    """z_mu = prod_i i^(m_i) m_i!, the size of the centralizer of a
    permutation of cycle type mu."""
    out = 1
    for part, mult in m:
        out *= part ** mult * factorial(mult)
    return out


def _validate_partition(lam) -> Partition:
    lam = tuple(int(x) for x in lam)
    if any(a < 1 for a in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"not a partition: {lam}")
    return lam


def schur_combination(coeffs, order: int = DEFAULT_ORDER) -> TruncSeries:
    """sum c_lambda s_lambda from a coefficient map {lambda: c_lambda}, with
    s_lambda = sum_mu chi^lambda_mu p_mu / z_mu."""
    terms: dict[Monomial, Fraction] = {}
    for lam, c in coeffs.items():
        lam = _validate_partition(lam)
        weight = sum(lam)
        if weight > order:
            raise ValueError(f"|lambda| = {weight} exceeds truncation order {order}")
        c = Fraction(c)
        for mu in partitions_of(weight):
            chi = character(lam, mu)
            if chi and c:
                m = _p_monomial(mu)
                terms[m] = terms.get(m, 0) + c * Fraction(chi, _z(m))
    return TruncSeries(order, "p", terms)


def schur_polynomial(lam, order: int = DEFAULT_ORDER) -> TruncSeries:
    """s_lambda in power-sum variables, exact through its own weight."""
    return schur_combination({tuple(lam): 1}, order)


#: s_lambda under its earlier name; perfbench/test_oracles.py imports it.
schur_jacobi_trudi = schur_polynomial


def target_series(order: int = DEFAULT_ORDER) -> TruncSeries:
    """1 + sum_{n>=1} 2^(n(n-1)/2) s_n, truncated at the order."""
    return schur_combination({(n,) if n else (): 2 ** (n * (n - 1) // 2)
                              for n in range(order + 1)}, order)


def schur_expand(tau: TruncSeries) -> dict[Partition, Fraction]:
    """Coefficients c_lambda with tau = sum c_lambda s_lambda, |lambda| <= order.

    Each is the Hall inner product c_lambda = sum_mu chi^lambda_mu [p_mu] tau
    over the partitions mu of |lambda|.  Zero coefficients are omitted; the
    rest are listed by weight, then in the order of :func:`partitions_of`.
    """
    if tau.var != "p":
        raise ValueError("Schur expansion expects a series in p-variables")
    by_weight: list[dict[Partition, Fraction]] = [{} for _ in range(tau.order + 1)]
    for m, c in tau.terms.items():
        mu = _partition(m)
        by_weight[sum(mu)][mu] = c
    out: dict[Partition, Fraction] = {}
    for w, coeffs in enumerate(by_weight):
        if not coeffs:
            continue
        # integer arithmetic over one common denominator per weight (the
        # list, not a generator, keeps the tuple free lists flat; see above)
        den = lcm(*[a.denominator for a in coeffs.values()])
        nums = [(mu, a.numerator * (den // a.denominator)) for mu, a in coeffs.items()]
        for lam in partitions_of(w):
            c = sum(character(lam, mu) * x for mu, x in nums)
            if c:
                out[lam] = Fraction(c, den)
    return out


# -- KP residuals ---------------------------------------------------------------


def kp1_residual(F: TruncSeries) -> TruncSeries:
    """Residual of the first KP equation; its order is the weight through
    which a zero residual is actually certified (F.order - 4)."""
    if F.var != "p":
        raise ValueError("KP residuals expect a series in p-variables")
    if F.order < 4:
        raise ValueError(f"first KP equation needs order >= 4, got {F.order}")
    m = F.order - 4
    d22 = partial(F, 2, 2).truncate(m)
    d13 = partial(partial(F, 1), 3).truncate(m)
    d11 = partial(F, 1, 2).truncate(m)
    d1111 = partial(F, 1, 4).truncate(m)
    return d22 - d13 + (d11 * d11) * Fraction(1, 2) + d1111 * Fraction(1, 12)


def kp2_residual(F: TruncSeries) -> TruncSeries:
    """Residual of the second KP equation, reliable through F.order - 5."""
    if F.var != "p":
        raise ValueError("KP residuals expect a series in p-variables")
    if F.order < 5:
        raise ValueError(f"second KP equation needs order >= 5, got {F.order}")
    m = F.order - 5
    d23 = partial(partial(F, 2), 3).truncate(m)
    d14 = partial(partial(F, 1), 4).truncate(m)
    d11 = partial(F, 1, 2).truncate(m)
    d12 = partial(partial(F, 1), 2).truncate(m)
    d1112 = partial(partial(F, 1, 3), 2).truncate(m)
    return d23 - d14 + d11 * d12 + d1112 * Fraction(1, 6)
