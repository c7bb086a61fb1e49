"""Automorphism-weighted generating functions and their rescaling constants.

For an invariant I, the all-graphs generating function collects
sum over graphs G of I_G / |Aut(G)|, and its weight-k homogeneous part can be
computed without ever touching isomorphism classes: summing I over all
2**C(k,2) labeled graphs on k vertices counts each class exactly
k!/|Aut| times, so

    piece_k = (1/k!) * sum over E <= E(K_k) of I_{(K_k)|E}.

Expanding I's own subset/forest sum and swapping the two summations gives one
sum over E' <= E(K_k) (all subsets for the weighted chromatic polynomial,
forests for Abel) of 2^(C(k,2) - |E'|) times a weight that is a product over
the connected blocks of E'.  The 2-power factorizes too: the edges of K_k
that join two different blocks lie outside E' whatever E' does inside the
blocks, so they contribute only the fixed power 2^(C(k,2) - sum_j C(n_j,2)),
and each block of size n keeps its own 2^(C(n,2) - |E'_block|).  Summed over
the connected spanning edge sets of a block, a block's factor is i_n q_n / n!
up to that outer power, where

    i_n = n! * [q_n] piece_n

is the rescaling constant.  Grouping the set partitions of the k vertices by
their block sizes, k! / (prod_j lambda_j! * prod_m mult_m(lambda)!) of each
type lambda, leaves a sum over integer partitions (the exponential formula):

    piece_k = sum over lambda |- k of
              2^(C(k,2) - sum_j C(lambda_j, 2))
              * prod_j (i_{lambda_j} / lambda_j!) / prod_m mult_m(lambda)!
              * q_lambda.

For the weighted chromatic polynomial the i_n satisfy the recursion in
:func:`c_recursion`; for the Abel polynomial Cayley's formula gives the
closed form in :func:`abel_constants`.  The graph-level evidence for both
(the edge-subset sweep and the iso-class sums) lives in the tests.

The per-variable rescaling factor derived from the constants is
lambda_n = 2^(n(n-1)/2) * (n-1)! / i_n.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, factorial

from graphkp import series
from graphkp.errors import SizeLimitError
from graphkp.schurkp import partitions_of
from graphkp.series import DEFAULT_ORDER, MAX_ORDER, TruncSeries, mono

# -- rescaling constants -------------------------------------------------------


def c_recursion(n_max: int) -> list[int]:
    """Constants for the weighted chromatic rescaling, by the recursion

        c_n = (-1)^(n+1) * [1 + sum_{k=1}^{n-1} (-1)^k 2^(k(n-k))
                                C(n-1, k-1) c_k],

    starting from c_1 = 1.  Gives 1, 1, 5, 79, 3377, ...
    """
    cs: list[int] = []
    for n in range(1, n_max + 1):
        if n == 1:
            cs.append(1)
            continue
        total = 1 + sum((-1) ** k * 2 ** (k * (n - k)) * comb(n - 1, k - 1) * cs[k - 1]
                        for k in range(1, n))
        cs.append((-1) ** (n + 1) * total)
    return cs


def abel_constants(n_max: int) -> list[int]:
    """Constants for the Abel rescaling: a_n = 2^((n-1)(n-2)/2) * n^(n-1).

    The n^(n-1) counts rooted spanning trees of K_n (Cayley), and every tree
    lies in 2^((n-1)(n-2)/2) connected spanning supergraphs.
    """
    return [2 ** ((n - 1) * (n - 2) // 2) * n ** (n - 1) for n in range(1, n_max + 1)]


#: i_1..i_N for each invariant, i_n = n! * [q_n] piece_n.
_CONSTANTS = {"W": c_recursion, "A": abel_constants}


# -- ensemble pieces -----------------------------------------------------------


def _piece(which: str, k: int, order: int) -> TruncSeries:
    if not 1 <= k <= MAX_ORDER:
        raise SizeLimitError(f"ensemble pieces supported for 1 <= k <= {MAX_ORDER}, got {k}")
    if k > order:
        raise ValueError(f"weight-{k} piece does not fit truncation order {order}")
    consts = _CONSTANTS[which](k)
    terms = {}
    for lam in partitions_of(k):
        mult = Counter(lam)
        num = 2 ** (comb(k, 2) - sum(comb(part, 2) for part in lam))
        den = 1
        for part in lam:
            num *= consts[part - 1]
            den *= factorial(part)
        for count in mult.values():
            den *= factorial(count)
        terms[mono(mult)] = Fraction(num, den)
    return TruncSeries(order, "q", terms)


def ensemble_w(k: int, order: int = DEFAULT_ORDER) -> TruncSeries:
    """Weight-k part of sum over all k-vertex graphs of W_G / |Aut(G)|."""
    return _piece("W", k, order)


def ensemble_a(k: int, order: int = DEFAULT_ORDER) -> TruncSeries:
    """Weight-k part of sum over all k-vertex graphs of A_G / |Aut(G)|."""
    return _piece("A", k, order)


def full_series(which: str, order: int = DEFAULT_ORDER) -> TruncSeries:
    """All-graphs generating function through the truncation order: constant
    term 1 from the empty graph plus one homogeneous piece per weight."""
    total = TruncSeries.one(order, "q")
    for k in range(1, order + 1):
        total = total + _piece(which, k, order)
    return total


def connected_part(full: TruncSeries) -> TruncSeries:
    """Connected-graphs generating function: the log of the all-graphs one."""
    return series.log(full)


def connected_series(which: str, order: int = DEFAULT_ORDER) -> TruncSeries:
    return connected_part(full_series(which, order))


# -- rescale plans -------------------------------------------------------------


def rescale_constants(which: str, order: int = DEFAULT_ORDER) -> tuple[Fraction, ...]:
    """(i_1, ..., i_order), i_n = n! * [q_n] piece_n, the automorphism-weighted
    count of the q_n coefficients over all connected n-vertex graphs."""
    return tuple(Fraction(i) for i in _CONSTANTS[which](order))


def make_plan(constants) -> dict[int, Fraction]:
    """{n: lambda_n} with lambda_n = 2^(n(n-1)/2) * (n-1)! / i_n, for the
    constants (i_1, i_2, ...)."""
    factors = {}
    for n, i_n in enumerate(constants, start=1):
        if not i_n:
            raise ValueError(f"degenerate plan: i_{n} is zero")
        factors[n] = Fraction(2 ** (n * (n - 1) // 2) * factorial(n - 1)) / i_n
    return factors

