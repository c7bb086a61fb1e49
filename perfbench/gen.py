"""Seeded input generators for the benchmark.

Everything here is the benchmark's own code: it never imports graphkp, so the
package under test only ever sees the generated inputs (graph6 strings and
exact p-variable series), never the generator's internals.

Polynomials are dicts ``{monomial: Fraction}``; a monomial is a tuple of
``(variable index, exponent)`` pairs sorted by index, the empty tuple being
the constant.  That is the same shape graphkp's ``TruncSeries`` takes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

TAU_ORDER = 8


# -- graphs and graph6 -------------------------------------------------------


def slot(i: int, j: int) -> int:
    """Bit position of the edge {i, j}, i < j, in graph6's column order."""
    return j * (j - 1) // 2 + i


def encode_graph6(n: int, edges) -> str:
    bits = 0
    for i, j in edges:
        bits |= 1 << slot(min(i, j), max(i, j))
    m = n * (n - 1) // 2
    out = [chr(63 + n)]
    for k in range(0, m, 6):
        val = 0
        for off in range(6):
            if k + off < m and bits >> (k + off) & 1:
                val |= 1 << (5 - off)
        out.append(chr(63 + val))
    return "".join(out)


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, sorted edge list) of a short-form graph6 value."""
    n = ord(text[0]) - 63
    pairs = [(i, j) for j in range(n) for i in range(j)]
    edges = []
    for k, ch in enumerate(text[1:]):
        val = ord(ch) - 63
        for off in range(6):
            if val >> (5 - off) & 1:
                edges.append(pairs[6 * k + off])
    return n, sorted(edges)


def connected_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A connected graph on n vertices with exactly m edges: a random
    spanning tree plus m - (n - 1) random extra edges, randomly labelled."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = set()
    for i in range(1, n):
        u, v = labels[i], labels[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    rest = sorted({(i, j) for j in range(n) for i in range(j)} - edges)
    edges.update(rng.sample(rest, m - len(edges)))
    return sorted(edges)


def spread(lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers spread evenly from lo to hi inclusive."""
    return [lo + round(k * (hi - lo) / (count - 1)) for k in range(count)]


#: (vertices, edges) of the corpus-7 graphs: 6- and 7-vertex graphs with
#: edge counts spread evenly up to 17.  A 19-edge graph alone costs the
#: subset expansion 2^19 subsets, over 2 s; with it one W call took 4-6 s,
#: and over so long a call the machine's speed drifts more than the
#: calibration around the call can correct (spread 0.19-0.29 over seeds).
CORPUS_SHAPE = ([(6, m) for m in spread(5, 15, 12)]
                + [(7, m) for m in spread(6, 17, 13)])

#: Edge counts of the hopf-7 graphs: the first half sparser, the second denser.
HOPF_EDGES = (8, 9, 10, 12, 15, 16, 17, 19)


def relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


# The graphs' shapes are drawn once, from a fixed stream, and are the same
# for every seed.  Measured on 2 cores, the work of one graph depends on its
# shape far more than run-to-run noise allows a bound to absorb: spanning
# forests of a 19-edge graph, which set the Abel time, vary by +-20% between
# random shapes, and the primitive projection of a sparse graph by +-35%.
# With fixed shapes every seed asks for the same work, so the seeds' spread
# measures the program, not the draw.


def corpus_graphs(seed: int) -> list[str]:
    """The corpus, in a labelling drawn from the seed."""
    shapes = random.Random("corpus-7/shapes")
    rng = random.Random(f"corpus-7/{seed}")
    return [encode_graph6(n, relabel(rng, n, connected_graph(shapes, n, m)))
            for n, m in CORPUS_SHAPE]


def hopf_graphs(seed: int) -> list[str]:
    """The hopf-7 graphs.  Their labelling is fixed too, because graphkp's
    canonical-form search prunes by comparing against the input's own edge
    bitset, so a relabelling alone moves one graph's time by up to 50%; the
    seed only orders the operations (see run.py)."""
    shapes = random.Random("hopf-7/shapes")
    return [encode_graph6(7, connected_graph(shapes, 7, m)) for m in HOPF_EDGES]


# -- symmetric functions in power sums ---------------------------------------


def partitions(n: int, max_part: int | None = None):
    """Weakly decreasing partitions of n."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def p_monomial(lam) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((i, lam.count(i)) for i in set(lam)))


def z(lam) -> int:
    """z_lambda = prod_i i^{m_i} m_i!, the centralizer size."""
    out = 1
    for i in set(lam):
        m = lam.count(i)
        out *= i ** m * factorial(m)
    return out


def h(n: int) -> dict:
    """Complete homogeneous h_n = sum over partitions of n of p_lambda / z_lambda."""
    return {p_monomial(lam): Fraction(1, z(lam)) for lam in partitions(n)}


def weight(mono) -> int:
    return sum(i * e for i, e in mono)


def add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + scale * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def mul(a: dict, b: dict, order: int) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if weight(m1) + weight(m2) > order:
                continue
            e = dict(m1)
            for i, k in m2:
                e[i] = e.get(i, 0) + k
            key = tuple(sorted(e.items()))
            out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def h_or_unit(n: int) -> dict:
    return {(): Fraction(1)} if n == 0 else h(n)


def schur_two_row(a: int, b: int) -> dict:
    """s_(a,b) = h_a h_b - h_(a+1) h_(b-1), the 2x2 Jacobi-Trudi determinant."""
    return add(mul(h(a), h_or_unit(b), a + b), mul(h(a + 1), h_or_unit(b - 1), a + b), -1)


#: Two-row shapes injected into the negative controls: every (a, b) with
#: a + b <= 7.  Paired with the one-part terms, each breaks a Pluecker
#: relation of weight at most 8, so a nonzero KP residual shows within the
#: weights certified at order 8.  Weight-8 shapes such as (7, 1) do not.
TWO_ROW = tuple((a, b) for a in range(1, 7) for b in range(1, a + 1) if a + b <= 7)


def tau_candidates(seed: int, count: int = 24) -> list[tuple[dict, dict, bool]]:
    """``count`` candidates ``(series terms, expected Schur coefficients,
    is_tau)``.  Each is 1 + sum_n c_n h_n through weight 8 with nonzero
    integer c_n; every third one also gets d * s_lambda for a two-row
    lambda, which makes it a negative control (not a KP tau-function)."""
    rng = random.Random(f"tau-order8/{seed}")
    out = []
    for index in range(count):
        terms = {(): Fraction(1)}
        coeffs = {(): Fraction(1)}
        for n in range(1, TAU_ORDER + 1):
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6))
            coeffs[(n,)] = c
            terms = add(terms, h(n), c)
        is_tau = index % 3 != 2
        if not is_tau:
            lam = rng.choice(TWO_ROW)
            d = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6))
            coeffs[lam] = d
            terms = add(terms, schur_two_row(*lam), d)
        out.append((terms, coeffs, is_tau))
    return out


def rescaled_all_target(order: int) -> dict:
    """sum over partitions lambda with |lambda| <= order of
    2^C(|lambda|,2) p_lambda / z_lambda: the rescaled all-graphs series,
    i.e. 1 + sum_n 2^C(n,2) h_n."""
    out = {}
    for n in range(order + 1):
        for lam in partitions(n):
            out[p_monomial(lam)] = Fraction(2 ** (n * (n - 1) // 2), z(lam))
    return out
