"""Independent oracles for the benchmark's outputs.

None of these imports graphkp or shares an algorithm with the path being
timed.  Each ``check_*`` returns ``None`` when the output is right and a
one-line reason when it is wrong; the driver counts every reason as a
failed operation.

* W (edge-subset expansion in graphkp): (-1)^n W_G(q_j = -p_j(x)) must equal
  X_G(x), Stanley's chromatic symmetric function, which a DP over vertex
  subsets computes as a sum over proper colourings.
* A (forest enumeration in graphkp): A_G(y) must equal the sum over set
  partitions of V into blocks S of prod |S| * tau(G[S]) * y_|S|, with the
  spanning-tree count tau from an exact matrix-tree determinant.
* primitive projection (set partitions plus canonical forms in graphkp):
  sum_H c_H det(xI + L_H) must equal n * tau(G) * x for x = 0..n+1 (the
  matrix-forest theorem makes det(xI + L) a character of the graph Hopf
  algebra, so it sends the primitive part of G to its primitive term).
* Series and Schur expansions are compared with what the generator built.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

from gen import decode_graph6

KP_OK = ("kp1: residual zero through weight {}", "kp2: residual zero through weight {}")


# -- parsing graphkp's output --------------------------------------------------


def parse_poly(text: str) -> dict:
    """Parse graphkp's canonical plain-text series, e.g. ``q1^2 - 1/2 q2``."""
    text = text.strip()
    if text == "0":
        return {}
    pieces = re.split(r" ([+-]) ", text)
    signs = ["-" if pieces[0].startswith("-") else "+"] + pieces[1::2]
    bodies = [pieces[0].lstrip("-")] + pieces[2::2]
    out: dict = {}
    for sign, body in zip(signs, bodies):
        tokens = body.split(" ")
        coeff = Fraction(1)
        if not tokens[0][0].isalpha():
            coeff = Fraction(tokens.pop(0))
        exps: dict[int, int] = {}
        for tok in tokens:
            var, _, exp = tok[1:].partition("^")
            exps[int(var)] = exps.get(int(var), 0) + int(exp or 1)
        key = tuple(sorted(exps.items()))
        out[key] = out.get(key, 0) + (-coeff if sign == "-" else coeff)
    return out


def parse_series_json(text: str) -> tuple[str, int, dict]:
    obj = json.loads(text)
    terms = {}
    for t in obj["terms"]:
        key = tuple(sorted((int(k), int(v)) for k, v in t["exponents"].items()))
        terms[key] = Fraction(t["numerator"], t["denominator"])
    return obj["var"], obj["order"], terms


def evaluate(poly: dict, values) -> Fraction:
    total = Fraction(0)
    for mono, c in poly.items():
        for i, e in mono:
            c *= values[i] ** e
        total += c
    return total


# -- graph quantities ----------------------------------------------------------


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def determinant(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in matrix]
    size = len(a)
    if size == 0:
        return 1
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def laplacian(n: int, edges, shift: int = 0) -> list[list[int]]:
    """shift * I + L for the graph's Laplacian L."""
    lap = [[0] * n for _ in range(n)]
    for i in range(n):
        lap[i][i] = shift
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    return lap


def spanning_trees(n: int, edges) -> int:
    """Matrix-tree theorem: any cofactor of the Laplacian."""
    if n == 1:
        return 1
    lap = laplacian(n, edges)
    return determinant([row[1:] for row in lap[1:]])


def induced(edges, subset: int) -> tuple[int, list[tuple[int, int]]]:
    """Induced subgraph on the vertex bitmask, relabelled 0..k-1."""
    verts = [v for v in range(subset.bit_length()) if subset >> v & 1]
    index = {v: i for i, v in enumerate(verts)}
    return len(verts), [(index[u], index[v]) for u, v in edges
                        if subset >> u & 1 and subset >> v & 1]


def chromatic_symmetric(n: int, edges, x: list[int]) -> int:
    """X_G(x_1..x_r): sum over proper colourings c of prod_v x_{c(v)}.

    A colouring is a sequence of disjoint independent sets, one per colour;
    f[S] accumulates the colourings of the vertex set S with the colours
    seen so far."""
    adj = adjacency(n, edges)
    full = (1 << n) - 1
    independent = [all(not (adj[v] & s) for v in range(n) if s >> v & 1)
                   for s in range(full + 1)]
    f = [0] * (full + 1)
    f[0] = 1
    for xi in x:
        powers = [xi ** k for k in range(n + 1)]
        g = [0] * (full + 1)
        for s in range(full + 1):
            sub = s
            total = 0
            while True:
                if independent[sub]:
                    total += f[s ^ sub] * powers[sub.bit_count()]
                if sub == 0:
                    break
                sub = (sub - 1) & s
            g[s] = total
        f = g
    return f[full]


def block_partition_sum(n: int, weight_of) -> int | Fraction:
    """sum over set partitions of {0..n-1} of the product of
    ``weight_of(block)`` over its blocks (blocks as vertex bitmasks)."""
    full = (1 << n) - 1
    g = {0: 1}
    for s in range(1, full + 1):
        low = s & -s
        rest = s ^ low
        total = 0
        sub = rest
        while True:
            total += weight_of(sub | low) * g[rest ^ sub]
            if sub == 0:
                break
            sub = (sub - 1) & rest
        g[s] = total
    return g[full]


def abel_value(n: int, edges, y: dict[int, int]) -> int:
    """sum over set partitions of |S| * tau(G[S]) * y_|S| over the blocks S."""
    taus = {}

    def weight_of(block: int) -> int:
        if block not in taus:
            k, sub_edges = induced(edges, block)
            taus[block] = k * spanning_trees(k, sub_edges)
        return taus[block] * y[block.bit_count()]

    return block_partition_sum(n, weight_of)


# -- per-workload expectations and checks --------------------------------------


def sample_points(seed: str, n: int, count: int = 2, size: int = 10 ** 6) -> list[list[int]]:
    """Large seeded integer points: a wrong polynomial of degree <= n agrees
    with the right one at such a point with probability at most n / 2e6."""
    rng = random.Random(seed)
    return [[rng.randint(-size, size) for _ in range(n)] for _ in range(count)]


class CorpusOracle:
    """Expected values of W and A on every corpus graph at seeded points."""

    def __init__(self, graph6s: list[str], seed: int):
        self.graph6s = graph6s
        self.expected = {"W": [], "A": []}
        for index, g6 in enumerate(graph6s):
            n, edges = decode_graph6(g6)
            xs = sample_points(f"W/{seed}/{index}", n)
            ys = sample_points(f"A/{seed}/{index}", n)
            self.expected["W"].append([(x, chromatic_symmetric(n, edges, x)) for x in xs])
            self.expected["A"].append(
                [(y, abel_value(n, edges, dict(enumerate(y, 1)))) for y in ys])

    @staticmethod
    def value(which: str, poly: dict, n: int, point: list[int]) -> Fraction:
        if which == "A":
            return evaluate(poly, dict(enumerate(point, 1)))
        # (-1)^n W_G(q_j = -p_j(x))
        neg_power_sums = {j: -sum(xi ** j for xi in point) for j in range(1, n + 1)}
        return (-1) ** n * evaluate(poly, neg_power_sums)

    def check(self, which: str, stdout: str) -> str | None:
        lines = stdout.splitlines()
        if len(lines) != len(self.graph6s):
            return f"{which}: expected {len(self.graph6s)} lines, got {len(lines)}"
        for index, (line, g6) in enumerate(zip(lines, self.graph6s)):
            head, _, body = line.partition("\t")
            if head != g6:
                return f"{which}: line {index} is for {head!r}, expected {g6!r}"
            poly = parse_poly(body)
            n = decode_graph6(g6)[0]
            for point, want in self.expected[which][index]:
                if self.value(which, poly, n, point) != want:
                    return f"{which}: wrong polynomial for {g6}"
        return None


class HopfOracle:
    """n * tau(G) for every hopf-7 graph, and det(xI + L_H) on demand."""

    def __init__(self, graph6s: list[str]):
        self.primitive_term = {}
        for g6 in graph6s:
            n, edges = decode_graph6(g6)
            self.primitive_term[g6] = n * spanning_trees(n, edges)
        self._char: dict[str, list[int]] = {}

    def character(self, g6: str) -> list[int]:
        """det(xI + L_H) for x = 0..n+1."""
        if g6 not in self._char:
            n, edges = decode_graph6(g6)
            self._char[g6] = [determinant(laplacian(n, edges, x)) for x in range(n + 2)]
        return self._char[g6]

    def check(self, g6: str, stdout: str) -> str | None:
        text = stdout.strip()
        n = decode_graph6(g6)[0]
        totals = [Fraction(0)] * (n + 2)
        if text != "0":
            for term in text.split(" + "):
                coeff, _, h6 = term.partition(" ")
                if decode_graph6(h6)[0] != n:
                    return f"primitive of {g6}: term {h6!r} has the wrong vertex count"
                for x, value in enumerate(self.character(h6)):
                    totals[x] += Fraction(coeff) * value
        want = self.primitive_term[g6]
        if totals != [want * x for x in range(n + 2)]:
            return f"primitive of {g6}: matrix-forest identity fails"
        return None


def check_kp_report(stdout: str, order: int) -> str | None:
    """Both residuals must be reported zero through the weights order 7
    certifies; extra lines are allowed, a NONZERO verdict is not."""
    lines = stdout.splitlines()
    if any("NONZERO" in line for line in lines):
        return "kp-check reports a nonzero residual"
    for wanted in (KP_OK[0].format(order - 4), KP_OK[1].format(order - 5)):
        if wanted not in lines:
            return f"kp-check report lacks {wanted!r}"
    return None


def check_rescaled_all(text: str, target: dict, order: int) -> str | None:
    var, got_order, terms = parse_series_json(text)
    if (var, got_order) != ("p", order):
        return f"rescaled series in {var!r} at order {got_order}, expected 'p' at {order}"
    if terms != target:
        return "rescaled all-graphs series differs from sum 2^C(|l|,2) p_l / z_l"
    return None


def check_certificate(is_tau: bool, residual_nonzero: bool, expansion: dict,
                      expected: dict) -> str | None:
    if expansion != expected:
        return "schur_expand differs from the constructed coefficients"
    if is_tau and residual_nonzero:
        return "a one-part combination got a nonzero KP residual"
    if not is_tau and not residual_nonzero:
        return "a negative control passed both KP equations"
    return None
