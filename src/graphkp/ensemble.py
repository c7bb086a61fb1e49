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
blocks, so each such edge contributes a factor 2, and each block of size n
keeps its own 2^(C(n,2) - |E'_block|).  Summed over the connected spanning
edge sets of a block, a block's factor is i_n q_n / n!, where

    i_n = n! * [q_n] piece_n

is the rescaling constant.  Summing over the set partitions of the k
vertices into blocks is then the exponential formula (Stanley, *EC2* 5.1)
over the blocks i_n q_n / n!, each term weighted by 2 per edge between its
blocks: the graphical exponential formula (Gessel 1995), exp conjugated by
the scaling of weight n by 2^C(n,2).  The block that holds one fixed
vertex, of size k out of n, has C(n-1, k-1) choices of its other vertices
and meets the rest across k(n-k) edges of K_n, so with e_n = n! piece_n
and b_k = i_k q_k,

    e_n = sum_{k=1}^{n} C(n-1, k-1) 2^(k(n-k)) b_k e_(n-k),   e_0 = 1:

the Euler recurrence of exp with one more factor per term
(:func:`graphkp.series._exp` with base 2).

For the weighted chromatic polynomial the i_n satisfy the recursion in
:func:`c_recursion`; for the Abel polynomial Cayley's formula gives the
closed form in :func:`abel_constants`.  The graph-level evidence for both
(the edge-subset sweep and the iso-class sums) lives in the tests.

The per-variable rescaling factor derived from the constants is
lambda_n = 2^(n(n-1)/2) * (n-1)! / i_n, which turns each block i_n q_n / n!
into (i_n / n!) lambda_n p_n = 2^(n(n-1)/2) p_n / n: the blocks of the
reference tau of :func:`graphkp.schurkp.target_series`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from graphkp import series
from graphkp.errors import check_limit
from graphkp.series import DEFAULT_ORDER, TruncSeries, _fraction, _from_parts, _parts

# -- rescaling constants -------------------------------------------------------


def c_recursion(n_max: int) -> list[int]:
    """Constants for the weighted chromatic rescaling, by the recursion

        c_n = (-1)^(n+1) * [1 + sum_{k=1}^{n-1} (-1)^k 2^(k(n-k))
                                C(n-1, k-1) c_k],

    whose empty sum gives c_1 = 1.  Gives 1, 1, 5, 79, 3377, ...
    """
    cs: list[int] = []
    for n in range(1, n_max + 1):
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


def _constants(which: str, n_max: int) -> list[int]:
    """i_1..i_n_max of the invariant named ``which``."""
    if which not in _CONSTANTS:
        raise ValueError(f"unknown invariant {which!r}, expected one of {sorted(_CONSTANTS)}")
    return _CONSTANTS[which](check_limit("order", n_max))


# -- ensemble pieces -----------------------------------------------------------


def _piece(which: str, k: int, order: int) -> TruncSeries:
    check_limit("order", order, low=check_limit("order", k, low=1))
    pieces, den = _parts(full_series(which, k))
    return _from_parts(order, "q", pieces[k], den)


def ensemble_w(k: int, order: int = DEFAULT_ORDER) -> TruncSeries:
    """Weight-k part of sum over all k-vertex graphs of W_G / |Aut(G)|."""
    return _piece("W", k, order)


def ensemble_a(k: int, order: int = DEFAULT_ORDER) -> TruncSeries:
    """Weight-k part of sum over all k-vertex graphs of A_G / |Aut(G)|."""
    return _piece("A", k, order)


def full_series(which: str, order: int = DEFAULT_ORDER) -> TruncSeries:
    """All-graphs generating function through the truncation order: the
    graphical exponential of the blocks i_n q_n / n!, each term of weight n
    with the block of size k split off times 2 to the k(n-k) edges of K_n
    between them."""
    return series._exp(TruncSeries(order, "q", {
        ((n, 1),): Fraction(i, factorial(n)) for n, i in enumerate(_constants(which, order), 1)}), 2)


def connected_series(which: str, order: int = DEFAULT_ORDER) -> TruncSeries:
    """Connected-graphs generating function: the log of the all-graphs one."""
    return series.log(full_series(which, order))


# -- rescale plans -------------------------------------------------------------


def rescale_constants(which: str, order: int = DEFAULT_ORDER) -> tuple[Fraction, ...]:
    """(i_1, ..., i_order), i_n = n! * [q_n] piece_n, the automorphism-weighted
    count of the q_n coefficients over all connected n-vertex graphs."""
    return tuple(Fraction(i) for i in _constants(which, order))


def make_plan(constants) -> dict[int, Fraction]:
    """{n: lambda_n} with lambda_n = 2^(n(n-1)/2) * (n-1)! / i_n, for the
    exact constants (i_1, i_2, ...)."""
    factors = {}
    for n, i_n in enumerate(constants, start=1):
        if not _fraction(i_n):
            raise ValueError(f"degenerate plan: i_{n} is zero")
        factors[n] = Fraction(2 ** (n * (n - 1) // 2) * factorial(n - 1)) / i_n
    return factors

