"""Shared test utilities and the oracles: second algorithms for quantities
the package computes one way, kept here only to check it.

* Builders and generators: small graph families, a polynomial text parser
  for frozen expected values, random series and graph6 strategies, and one
  number of each kind that is not exact.
* Rendering oracles: ``text`` and ``to_json_obj`` from the ``.terms``
  monomial view sorted on dense exponent vectors (``mono_key``), the
  oracles for rendering straight from the stored partitions.
* Series kernel oracles: the product, exp, log, rescaling and partial
  derivative with one Fraction operation per coefficient step and their own
  dict-merge monomial product, the oracles for the integer kernels and for
  the coefficient-lookup derivative of the KP residuals; and exp conjugated
  by the scaling of weight w by base^C(w,2), the oracle for the extra
  factor of the graphical exponential.
* Tuple-merge kernel oracles: the product, exp, log and both KP residuals
  with weight w scaled by D^w, D the lcm of every denominator, and monomial
  products merged as sorted partitions, the oracles for the kernels on
  prime keys: the plain truncated product of the stored numerators, and
  exp and log in exponential grading.
* Per-graph oracles for the umbral assembly: the edge-subset expansion of W,
  the spanning-forest sum of A, W's b-table by the inverse recurrence over
  edgeless blocks, A's b-table by matrix-tree determinants,
  deletion-contraction of W on vertex-weighted graphs, and brute-force
  proper colorings.
* Set partitions as vertex tuples, the order oracle for the expansion in
  primitives, and the expansion over them; set-partition sums by their
  definitions: the oracles for the primitive projection and for the umbral
  assembly of b-tables of any denominator.
* Isomorphism by brute force: a backtracker over vertex images, the oracle
  for the automorphism count; the minimum over all relabelings, the oracle
  for the canonical-form search; and the orbit sweep over all labeled
  graphs, the oracle for the class enumeration.
* Hopf checks on linear combinations held as dicts from canonical keys to
  coefficients: the sum, the tensor product, the disjoint-union product,
  the coproduct of a sum, and the flattening of an expansion in primitives
  back to its graph.
* Graph-level oracles for the ensemble pieces: the edge-subset sweep over
  K_k and the sums over isomorphism classes; the all-graphs series summed
  piece by piece, the oracle for its one-dict assembly; and the constants
  of W by their alternating recursion and of A by Cayley's formula, the
  oracles for the one recurrence over the family row.
* Schur oracles for the character-based Schur functions and Schur
  expansion: the one-part sum over p_mu / z_mu, the Jacobi-Trudi
  determinant, an exact linear solve over it, and the expansion by one
  character lookup per (lambda, mu) pair.
* KP residual oracles: the two equations by differentiating the whole
  series with ``fraction_partial``, then truncating, the oracles for the
  coefficient-lookup residuals; and the same equations in Hirota's bilinear
  form on tau itself, with no log, from ``fraction_partial`` and
  ``fraction_mul`` only."""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from decimal import Decimal
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, combinations, permutations, product
from math import comb, factorial, lcm, perm, prod
from typing import Iterator

from hypothesis import strategies as st

from graphkp.errors import SizeLimitError, check_limit
from graphkp.graphs import (MAX_VERTICES, SLOT_ENDPOINTS, Graph, _bit_indices,
                            all_graphs, aut_order, canonical_form, components,
                            disjoint_union, edge_slot, emit_graph6, induced_forms)
from graphkp.hopf import UNIT_GRAPH, coproduct, primitive_projection
from graphkp.invariants import invariant
from graphkp.schurkp import _KP1, _KP2, _z, character, partitions_of
from graphkp.series import (DEFAULT_ORDER, Monomial, Partition, TruncSeries, _fraction, exp,
                            mono)


def complete_graph(n: int) -> Graph:
    return Graph(n, (1 << (n * (n - 1) // 2)) - 1)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """One center (vertex 0) joined to n - 1 leaves."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


#: One value of each kind the exactness rule refuses, by kind: a float, a
#: numeric string, a Decimal and a bool.  Use with
#: ``pytest.mark.parametrize("value", NOT_EXACT.values(), ids=list(NOT_EXACT))``.
NOT_EXACT = {"float": 0.5, "str": "1/2", "Decimal": Decimal("0.5"), "bool": True}


def parse_poly(text: str, order: int, var: str = "q") -> TruncSeries:
    """Parse '" q1^4 + 6 q1^2 q2 - 1/2 q3"' style text into a series.

    Independent of TruncSeries.text() so the two cannot share a bug: this is
    a from-scratch tokenizer used only to transcribe expected values.
    """
    terms: dict = {}
    normalized = text.replace("-", "+-").replace(" ", "")
    for chunk in normalized.split("+"):
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        coeff = Fraction(1)
        exps: dict[int, int] = {}
        i = 0
        if chunk and chunk[0] not in ("q", "p"):
            j = i
            while j < len(chunk) and chunk[j] not in ("q", "p"):
                j += 1
            coeff = Fraction(chunk[i:j])
            i = j
        while i < len(chunk):
            assert chunk[i] == var, f"unexpected variable letter in {chunk!r}"
            i += 1
            j = i
            while j < len(chunk) and chunk[j].isdigit():
                j += 1
            idx = int(chunk[i:j])
            i = j
            exp = 1
            if i < len(chunk) and chunk[i] == "^":
                i += 1
                j = i
                while j < len(chunk) and chunk[j].isdigit():
                    j += 1
                exp = int(chunk[i:j])
                i = j
            exps[idx] = exps.get(idx, 0) + exp
        key = mono(exps)
        terms[key] = terms.get(key, 0) + sign * coeff
    return TruncSeries(order, var, terms)


def random_series(rng: random.Random, order: int, var: str = "q",
                  max_terms: int = 6, constant=None) -> TruncSeries:
    """Random sparse series; ``constant`` pins the constant term if given.
    At order 0 no monomial fits, so the series is empty or constant-only."""
    terms: dict = {}
    for _ in range(rng.randint(0, max_terms) if order else 0):
        exps: dict[int, int] = {}
        budget = rng.randint(1, order)
        while budget:
            i = rng.randint(1, budget)
            exps[i] = exps.get(i, 0) + 1
            budget -= i
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        key = mono(exps)
        terms[key] = terms.get(key, 0) + coeff
    s = TruncSeries(order, var, terms)
    if constant is not None:
        base = {m: c for m, c in s.terms.items() if m}
        if constant:
            base[()] = Fraction(constant)
        s = TruncSeries(order, var, base)
    return s


def random_rational(rng: random.Random, lo: int = -9, hi: int = 9,
                    nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(lo, hi), rng.randint(1, 9))
        if value or not nonzero:
            return value


# -- rendering oracles: the monomial view sorted on dense exponents ---------------


def mono_weight(m: Monomial) -> int:
    return sum(var * exp for var, exp in m)


def first_weight(s: TruncSeries) -> int | None:
    """The least weight of a nonzero term of ``s``, or None for the zero series."""
    return min((mono_weight(m) for m in s.terms), default=None)


def mono_key(m: Monomial):
    """Canonical sort key: graded, then lex on dense exponents, x1-heavy first."""
    top = m[-1][0] if m else 0
    dense = [0] * top
    for var, exp in m:
        dense[var - 1] = -exp
    return (mono_weight(m), dense)


def _mono_text(m: Monomial, var: str) -> str:
    return " ".join(f"{var}{i}" if e == 1 else f"{var}{i}^{e}" for i, e in m)


def mono_key_text(self: TruncSeries) -> str:
    """``TruncSeries.text`` from the ``.terms`` monomial view sorted by ``mono_key``."""
    terms = self.terms
    if not terms:
        return "0"
    pieces = []
    for m in sorted(terms, key=mono_key):
        c = terms[m]
        body = _mono_text(m, self.var)
        mag = abs(c)
        if body and mag == 1:
            term = body
        elif body:
            term = f"{mag} {body}"
        else:
            term = str(mag)
        pieces.append(("-" if c < 0 else "+", term))
    sign, first = pieces[0]
    out = ("-" if sign == "-" else "") + first
    for sign, term in pieces[1:]:
        out += f" {sign} {term}"
    return out


def mono_key_json_obj(self: TruncSeries) -> dict:
    """``TruncSeries.to_json_obj`` from the ``.terms`` monomial view sorted by ``mono_key``."""
    terms = self.terms
    return {"var": self.var, "order": self.order, "terms": [
        {"exponents": {str(var): exp for var, exp in m},
         "numerator": terms[m].numerator, "denominator": terms[m].denominator}
        for m in sorted(terms, key=mono_key)]}


# -- series kernel oracles ------------------------------------------------------


def _merge_product(acc: dict, x: dict, y: dict) -> None:
    """acc += x * y for homogeneous pieces keyed by (variable, exponent)
    monomials, merging the exponents of each pair in a dict."""
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            e = dict(m1)
            for var, power in m2:
                e[var] = e.get(var, 0) + power
            key = tuple(sorted(e.items()))
            acc[key] = acc.get(key, 0) + c1 * c2


def _fraction_graded(a: TruncSeries) -> list[dict]:
    pieces = [{} for _ in range(a.order + 1)]
    for m, c in a.terms.items():
        pieces[mono_weight(m)][m] = c
    return pieces


def fraction_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """a * b by products of homogeneous pieces, one Fraction per term product."""
    assert (a.order, a.var) == (b.order, b.var)
    right = _fraction_graded(b)
    out = {}
    for w, piece in enumerate(_fraction_graded(a)):
        for y in right[:a.order - w + 1]:
            _merge_product(out, piece, y)
    return TruncSeries(a.order, a.var, out)


def fraction_exp(a: TruncSeries) -> TruncSeries:
    """exp(a) by n E_n = sum_k k A_k E_{n-k} on Fraction coefficients."""
    assert not a.constant_term
    scaled = [{m: k * c for m, c in piece.items()}
              for k, piece in enumerate(_fraction_graded(a))]
    out = [{(): Fraction(1)}]
    for n in range(1, a.order + 1):
        acc = {}
        for k in range(1, n + 1):
            _merge_product(acc, scaled[k], out[n - k])
        out.append({m: c / n for m, c in acc.items() if c})
    return TruncSeries(a.order, a.var, {m: c for piece in out for m, c in piece.items()})


def scaled_fraction_exp(a: TruncSeries, base: int) -> TruncSeries:
    """exp conjugated by the scaling of weight w by base^C(w,2): each term of
    weight w divided by base^C(w,2), ``fraction_exp`` applied, and each term
    of weight w multiplied back; base 2 is the graphical exponential."""
    def scaled(s: TruncSeries, sign: int) -> TruncSeries:
        return TruncSeries(s.order, s.var, {
            m: c * Fraction(base) ** (sign * comb(mono_weight(m), 2)) for m, c in s.terms.items()})

    return scaled(fraction_exp(scaled(a, -1)), 1)


def fraction_log(a: TruncSeries) -> TruncSeries:
    """log(a) by n L_n = n A_n - sum_k k L_k A_{n-k} on Fraction coefficients."""
    assert a.constant_term == 1
    pieces = _fraction_graded(a)
    minus = [{m: -c for m, c in piece.items()} for piece in pieces]
    scaled = [{}]  # n L_n
    for n in range(1, a.order + 1):
        acc = {m: n * c for m, c in pieces[n].items()}
        for k in range(1, n):
            _merge_product(acc, scaled[k], minus[n - k])
        scaled.append({m: c for m, c in acc.items() if c})
    return TruncSeries(a.order, a.var, {m: c / n for n, piece in enumerate(scaled)
                                        for m, c in piece.items()})


def fraction_substitute(a: TruncSeries, factors) -> TruncSeries:
    """x_i -> factor_i * p_i with one Fraction power and one Fraction
    product per (variable, exponent) run of every term."""
    out = {}
    for m, c in a.terms.items():
        for i, e in m:
            f = factors.get(i)
            if f is None or f == 0:
                raise ValueError(f"no nonzero rescale factor for variable {i}")
            c = c * Fraction(f) ** e
        out[m] = c
    return TruncSeries(a.order, "p", out)


def evaluate(a: TruncSeries, values) -> Fraction:
    """Evaluate at a rational point; every variable present needs a value.
    Every value passes the package's exactness rule, used or not."""
    point = {i: _fraction(v).as_integer_ratio() for i, v in values.items()}
    total = Fraction(0)
    for m, c in a.terms.items():
        num, den = c.as_integer_ratio()
        for i, e in m:
            if i not in point:
                raise ValueError(f"no value supplied for variable {i}")
            num, den = num * point[i][0] ** e, den * point[i][1] ** e
        total += Fraction(num, den)
    return total


def fraction_partial(a: TruncSeries, var_index: int, times: int = 1) -> TruncSeries:
    """d^times/d(x_var_index)^times, one falling-factorial step at a time."""
    out = {}
    for m, c in a.terms.items():
        exps = dict(m)
        e = exps.get(var_index, 0)
        if e < times:
            continue
        for t in range(times):
            c = c * (e - t)
        if e > times:
            exps[var_index] = e - times
        else:
            del exps[var_index]
        out[tuple(sorted(exps.items()))] = c
    return TruncSeries(max(0, a.order - times * var_index), a.var, out)


# -- tuple-merge kernel oracles --------------------------------------------------


def _part(m: Monomial) -> Partition:
    """The partition of a monomial: each index repeated by its exponent, largest first."""
    return tuple(sorted([i for i, e in m for _ in range(e)], reverse=True))


def from_partitions(order: int, var: str, terms: dict) -> TruncSeries:
    """The series with coefficient terms[mu] at each partition mu, built
    through the public constructor from (index, multiplicity) monomials."""
    return TruncSeries(order, var, {tuple(sorted(Counter(mu).items())): c
                                    for mu, c in terms.items()})


def _graded(shift: int, *series: TruncSeries) -> tuple[int, list]:
    """D, the lcm of every denominator, and each series' pieces by weight
    0..order, piece w as the integers D^(w + shift) A_w keyed by partitions."""
    den = lcm(*[c.denominator for a in series for c in a.terms.values()])
    graded = [[{} for _ in range(a.order + 1)] for a in series]
    for a, pieces in zip(series, graded):
        for m, c in a.terms.items():
            mu = _part(m)
            w = sum(mu)
            pieces[w][mu] = c.numerator * den ** (w + shift) // c.denominator
    return den, graded


def _add_product(acc: dict, x: dict, y: dict) -> None:
    """acc += x * y for pieces keyed by partitions (zeros may be left in acc):
    the product of two monomials is the merge of their partitions."""
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            key = tuple(sorted(m1 + m2, reverse=True))
            acc[key] = acc.get(key, 0) + c1 * c2


def _graded_product(left: list[dict], right: list[dict], order: int) -> dict:
    """The product, through weight ``order``, of two series given as pieces
    by weight keyed by partitions (zeros may be left in the result)."""
    out: dict[Partition, int] = {}
    for w, piece in enumerate(left):
        for y in right[:order - w + 1]:
            _add_product(out, piece, y)
    return out


def tuple_exp(a: TruncSeries) -> TruncSeries:
    """Exponential of a series with zero constant term.

    Weight by weight from the Euler recurrence: applying the weight operator
    to E = exp(A) gives n E_n = sum_{k=1}^{n} k A_k E_{n-k}, where X_n is
    the weight-n part of X and E_0 = 1.  Each step multiplies homogeneous
    pieces and builds only the terms of weight exactly n, on the integers
    e_n = n! D^n E_n = sum_k k (n-1)!/(n-k)! a_k e_{n-k} with a_k = D^k A_k.
    """
    if a.constant_term:
        raise ValueError("exp requires a zero constant term")
    den, (pieces,) = _graded(0, a)
    out = [{(): 1}]  # e_n, keyed by partitions
    for n in range(1, a.order + 1):
        acc = {}
        for k in range(1, n + 1):
            f = k * perm(n - 1, k - 1)
            _add_product(acc, {m: f * c for m, c in pieces[k].items()}, out[n - k])
        out.append({m: c for m, c in acc.items() if c})
    return from_partitions(a.order, a.var, {mu: Fraction(c, factorial(n) * den ** n)
                                            for n, piece in enumerate(out)
                                            for mu, c in piece.items()})


def tuple_log(a: TruncSeries) -> TruncSeries:
    """Logarithm of a series with constant term 1; inverse of :func:`tuple_exp`.

    Weight by weight from the same recurrence solved for L = log(A):
    n L_n = n A_n - sum_{k=1}^{n-1} k L_k A_{n-k}, with L_0 = 0.  Each step
    multiplies homogeneous pieces and builds only the terms of weight
    exactly n, on the integers l_n = D^n n L_n = n a_n - sum_{k<n} l_k a_{n-k}
    with a_k = D^k A_k.
    """
    if a.constant_term != 1:
        raise ValueError("log requires constant term 1")
    den, (pieces,) = _graded(0, a)
    out = [{}]  # l_n, with l_0 = 0
    for n in range(1, a.order + 1):
        acc = {m: -n * c for m, c in pieces[n].items()}  # -l_n
        for k in range(1, n):
            _add_product(acc, out[k], pieces[n - k])
        out.append({m: -c for m, c in acc.items() if c})
    return from_partitions(a.order, a.var, {mu: Fraction(c, n * den ** n)
                                            for n, piece in enumerate(out)
                                            for mu, c in piece.items()})


def tuple_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """a * b with weight w scaled by D^(w + 1) and monomials multiplied by
    merging their partitions."""
    assert (a.order, a.var) == (b.order, b.var)
    den, (left, right) = _graded(1, a, b)
    out = _graded_product(left, right, a.order)
    return from_partitions(a.order, a.var, {
        mu: Fraction(c, den ** (sum(mu) + 2)) for mu, c in out.items() if c})


def _derivative(G: dict, v: Partition, order: int) -> list[dict]:
    """The pieces of weight 0..order of d/dp_v1 ... d/dp_vk G, keyed by
    partitions, each coefficient looked up in G (see the module docstring)."""
    times = [(i, v.count(i)) for i in set(v)]
    pieces = [{} for _ in range(order + 1)]
    for w, piece in enumerate(pieces):
        for mu in partitions_of(w):
            x = G.get(tuple(sorted(mu + v, reverse=True)))
            if x:
                for i, t in times:
                    x *= perm(mu.count(i) + t, t)
                piece[mu] = x
    return pieces


def _residual(F: TruncSeries, name: str, drop: int, scale: int, linear: dict,
              bilinear: dict) -> TruncSeries:
    """The residual of one KP equation given as a row (see ``_KP1``), of order
    F.order - drop: each term reads coefficients of F of weight at most F.order."""
    if F.var != "p":
        raise ValueError("KP residuals expect a series in p-variables")
    if F.order < drop:
        raise ValueError(f"{name} KP equation needs order >= {drop}, got {F.order}")
    order = F.order - drop
    terms = F.terms
    den = lcm(*[c.denominator for c in terms.values()])
    G = {_part(m): c.numerator * (den // c.denominator) for m, c in terms.items()}
    acc: dict[Partition, int] = {}
    for v, a in linear.items():
        a *= den
        for piece in _derivative(G, v, order):
            for mu, x in piece.items():
                acc[mu] = acc.get(mu, 0) + a * x
    for (u, v), b in bilinear.items():
        left = _derivative(G, u, order)
        right = left if u == v else _derivative(G, v, order)
        for mu, x in _graded_product(left, right, order).items():
            acc[mu] = acc.get(mu, 0) + b * x
    den = scale * den * den
    return from_partitions(order, "p", {mu: Fraction(c, den) for mu, c in acc.items() if c})


def tuple_kp1_residual(F: TruncSeries) -> TruncSeries:
    return _residual(F, "first", *_KP1)


def tuple_kp2_residual(F: TruncSeries) -> TruncSeries:
    return _residual(F, "second", *_KP2)


# -- per-graph oracles ----------------------------------------------------------


def _submasks(bits: int):
    sub = bits
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & bits


@cache
def subset_w(g: Graph, order: int) -> TruncSeries:
    """W by the edge-subset expansion: sum over E' <= E(g) of
    (-1)^(|E'| - |V| + k(E')) * prod q_{component sizes of (V, E')}.
    Walks 2^|E| subsets, so keep |E| small."""
    acc: Counter = Counter()
    for sub in _submasks(g.edges):
        comps = components(Graph(g.n, sub))
        sign = (-1) ** (sub.bit_count() - g.n + len(comps))
        acc[mono(Counter(len(c) for c in comps))] += sign
    return TruncSeries(order, "q", acc)


def spanning_forests(g: Graph) -> Iterator[int]:
    """Yield every acyclic edge subset of ``g`` exactly once, as edge bitsets.

    The empty forest is included.  Enumeration is by recursive edge
    inclusion/exclusion with union-find cycle rejection, so the work is
    proportional to the number of forests rather than 2**|E|.
    """
    edge_slots = tuple(_bit_indices(g.edges))
    m = len(edge_slots)
    parent = list(range(g.n))
    size = [1] * g.n

    def rec(i: int, bits: int) -> Iterator[int]:
        if i == m:
            yield bits
            return
        yield from rec(i + 1, bits)
        slot = edge_slots[i]
        u, v = SLOT_ENDPOINTS[slot]
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u == v:
            return
        if size[u] < size[v]:
            u, v = v, u
        parent[v] = u
        size[u] += size[v]
        yield from rec(i + 1, bits | 1 << slot)
        size[u] -= size[v]
        parent[v] = v

    yield from rec(0, 0)


@cache
def forest_a(g: Graph, order: int) -> TruncSeries:
    """A by the spanning-forest sum: sum over forests F of g of
    prod (size * q_size) over the trees of F."""
    acc: Counter = Counter()
    for forest in spanning_forests(g):
        sizes = [len(c) for c in components(Graph(g.n, forest))]
        acc[mono(Counter(sizes))] += prod(sizes)
    return TruncSeries(order, "q", acc)


def _det_psd(m: list[list[int]]) -> int:
    """Determinant of a positive semidefinite integer matrix by fraction-free
    (Bareiss) elimination, in place.  A zero leading minor of such a matrix
    makes the whole determinant zero, so no pivoting is needed."""
    prev = 1
    for i, top in enumerate(m):
        pivot = top[i]
        if not pivot:
            return 0
        for row in m[i + 1:]:
            lead = row[i]
            for j in range(i + 1, len(m)):
                row[j] = (pivot * row[j] - lead * top[j]) // prev
        prev = pivot
    return prev


def _abel_entry(masks: list[int], s: int) -> int:
    """b[S] = |S| * tau(G[S]) for the vertex bitmask S of a graph with these
    adjacency masks, tau by the matrix-tree theorem: the determinant of the
    Laplacian of G[S] with the row and column of its last vertex removed."""
    vs = [v for v in range(len(masks)) if s >> v & 1]
    kept = vs[:-1]
    lap = [[(masks[u] & s).bit_count() if u == v else -(masks[u] >> v & 1)
            for v in kept] for u in kept]
    return len(vs) * _det_psd(lap)


def matrix_tree_b(g: Graph) -> list[int]:
    """A's b-table by the matrix-tree theorem: one Laplacian-minor
    determinant per vertex bitmask S, the oracle for the subset recursion."""
    masks = g.adjacency_masks()
    return [_abel_entry(masks, s) for s in range(1 << g.n)]


def edgeless_recurrence_b(g: Graph) -> list[int]:
    """W's b-table by the inverse recurrence over edgeless blocks, the oracle
    for the Tutte recursion at x = 0: b[S] = (-1)^(|S|-1) c(S), c(S) the sum
    of (-1)^|E'| over the connected spanning subgraphs of G[S].  Summed over
    all spanning subgraphs that sign is [G[S] edgeless], so splitting off the
    block that holds min S gives

        c(S) = [G[S] edgeless] - sum over min S in T, T a proper subset of S,
               of c(T) * [G[S \\ T] edgeless]."""
    masks = g.adjacency_masks()
    edgeless = [True] * (1 << g.n)
    c = [0] * (1 << g.n)
    for s in range(1, 1 << g.n):
        low = s & -s
        rest = s ^ low
        edgeless[s] = edgeless[rest] and not masks[low.bit_length() - 1] & rest
        total = int(edgeless[s])
        r = rest
        while r:
            if edgeless[r]:
                total -= c[s ^ r]
            r = (r - 1) & rest
        c[s] = total
    return [ci if s.bit_count() & 1 else -ci for s, ci in enumerate(c)]


class WeightedGraph(namedtuple("WeightedGraph", "graph weights")):
    """Graph with positive integer vertex weights; total weight is the grading."""

    __slots__ = ()

    def __new__(cls, graph: Graph, weights: tuple[int, ...]):
        if len(weights) != graph.n:
            raise ValueError("one weight per vertex required")
        if any(w < 1 for w in weights):
            raise ValueError("vertex weights must be positive integers")
        return tuple.__new__(cls, (graph, weights))

    @classmethod
    def from_graph(cls, g: Graph) -> "WeightedGraph":
        return cls(g, (1,) * g.n)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)


def contract_edge(wg: WeightedGraph, edge: tuple[int, int]) -> WeightedGraph:
    """Contract an edge of a weighted graph.

    The endpoints merge into the lower-labeled vertex, whose weight becomes
    the sum of the endpoint weights; parallel edges collapse; vertices above
    the removed endpoint shift down by one.  Total weight is preserved.
    """
    u, v = edge
    if u > v:
        u, v = v, u
    g = wg.graph
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not present")

    def newlabel(x: int) -> int:
        if x == v:
            return u
        return x - 1 if x > v else x

    bits = 0
    for a, b in g.edge_list():
        na, nb = newlabel(a), newlabel(b)
        if na != nb:
            bits |= 1 << edge_slot(na, nb)
    weights = list(wg.weights)
    weights[u] += weights[v]
    del weights[v]
    return WeightedGraph(Graph(g.n - 1, bits), tuple(weights))


def weighted_chromatic_dc(wg: WeightedGraph | Graph,
                          order: int = DEFAULT_ORDER) -> TruncSeries:
    """Weighted chromatic polynomial by deletion-contraction.

    Always splits on the lowest-numbered present edge slot; an edgeless
    weighted graph with vertex weights w_1..w_k maps to q_{w_1} ... q_{w_k}.
    On simple graphs (all weights 1) this agrees with the umbral assembly.
    """
    if isinstance(wg, Graph):
        wg = WeightedGraph.from_graph(wg)
    if wg.total_weight > order:
        raise SizeLimitError(
            f"total weight {wg.total_weight} exceeds truncation order {order}")
    if wg.graph.num_edges > 24:
        raise SizeLimitError("deletion-contraction capped at 24 edges")
    acc: dict[tuple[int, ...], int] = {}
    stack = [wg]
    while stack:
        cur = stack.pop()
        bits = cur.graph.edges
        if bits == 0:
            key = tuple(sorted(cur.weights))
            acc[key] = acc.get(key, 0) + 1
            continue
        slot = (bits & -bits).bit_length() - 1
        stack.append(WeightedGraph(Graph(cur.graph.n, bits ^ (1 << slot)),
                                   cur.weights))
        stack.append(contract_edge(cur, SLOT_ENDPOINTS[slot]))
    return TruncSeries(order, "q", {mono(Counter(weights)): val
                                    for weights, val in acc.items()})


def chromatic_oracle(g: Graph, colors: int) -> int:
    """Count proper colorings with colors {1..k} by scanning all k**n maps.

    Deliberately naive: no deletion-contraction, no shared code with the
    polynomial invariants, so it can act as an independent oracle.
    """
    if g.n > 8 or colors > 8:
        raise SizeLimitError("coloring oracle capped at 8 vertices and 8 colors")
    if colors < 0:
        raise ValueError("color count must be nonnegative")
    if g.n == 0:
        return 1
    if colors == 0:
        return 0
    edges = g.edge_list()
    count = 0
    for coloring in product(range(colors), repeat=g.n):
        if all(coloring[u] != coloring[v] for u, v in edges):
            count += 1
    return count


SetPartition = tuple[tuple[int, ...], ...]


def set_partitions(n: int) -> Iterator[SetPartition]:
    """All Bell(n) set partitions of {0..n-1}, blocks ordered by minimum
    element.  Vertex v joins each existing block in turn, then opens its own,
    so the partitions come in lexicographic order of restricted growth strings.
    """
    check_limit("vertices", n)

    def grow(v: int, blocks: SetPartition) -> Iterator[SetPartition]:
        if v == n:
            yield blocks
            return
        for i, block in enumerate(blocks):
            yield from grow(v + 1, (*blocks[:i], (*block, v), *blocks[i + 1:]))
        yield from grow(v + 1, (*blocks, (v,)))

    return grow(0, ())


def induced_subset_forms(g: Graph) -> list[Graph]:
    """``graphs.induced_forms`` by :meth:`Graph.induced` on each vertex subset."""
    verts = range(g.n)
    return [canonical_form(g.induced([v for v in verts if s >> v & 1]))
            for s in range(1 << g.n)]


def partition_expand(g: Graph) -> tuple[tuple[Graph, ...], ...]:
    """``hopf.expand_in_primitives`` over the vertex tuples of
    :func:`set_partitions`, each block's bitmask rebuilt from its vertices."""
    check_limit("expand_in_primitives", g.n)
    forms = induced_forms(g)
    return tuple(tuple(sorted(forms[sum(1 << v for v in block)] for block in blocks))
                 for blocks in set_partitions(g.n))


def partition_primitive(g: Graph) -> dict[Graph, int]:
    """pi(G) by its definition: sum over the set partitions B of V(G) of
    (-1)^(|B|-1) (|B|-1)! times G with every edge between distinct blocks
    removed.  Walks all Bell(n) partitions, canonicalizing each."""
    terms: Counter = Counter()
    for blocks in set_partitions(g.n):
        within = 0
        for block in blocks:
            for a, b in combinations(block, 2):
                within |= 1 << edge_slot(a, b)
        key = canonical_form(Graph(g.n, g.edges & within))
        terms[key] += (-1) ** (len(blocks) - 1) * factorial(len(blocks) - 1)
    return {key: c for key, c in terms.items() if c}


def partition_umbral(g: Graph, values: dict[Graph, Fraction], order: int) -> TruncSeries:
    """U_G by its definition: sum over the set partitions of V(G) of the
    product over blocks B of b(G[B]) q_|B|, with b read from ``values`` by
    canonical form and zero on disconnected blocks.  Walks all Bell(n)
    partitions with one Fraction product per block."""
    terms: Counter = Counter()
    for blocks in set_partitions(g.n):
        coeff = Fraction(1)
        for block in blocks:
            h = g.induced(block)
            coeff *= values.get(canonical_form(h), 0) if len(components(h)) == 1 else 0
        terms[mono(Counter(len(block) for block in blocks))] += coeff
    return TruncSeries(order, "q", terms)


def brute_aut_order(g: Graph) -> int:
    """Order of the automorphism group, by backtracking over vertex images
    with degree pruning."""
    n = g.n
    if n > 10:
        raise SizeLimitError(f"automorphism counting capped at 10 vertices, got {n}")
    if n <= 1:
        return 1
    masks = g.adjacency_masks()
    deg = [m.bit_count() for m in masks]
    perm = [0] * n
    used = [False] * n
    count = 0

    def place(i: int) -> None:
        nonlocal count
        if i == n:
            count += 1
            return
        row = masks[i]
        for v in range(n):
            if used[v] or deg[v] != deg[i]:
                continue
            vrow = masks[v]
            if all((row >> j & 1) == (vrow >> perm[j] & 1) for j in range(i)):
                used[v] = True
                perm[i] = v
                place(i + 1)
                used[v] = False

    place(0)
    return count


def brute_canonical_form(g: Graph) -> Graph:
    """Isomorphism-invariant representative: the relabeling minimizing the edge
    bitset.  Brute force over all vertex permutations with a monotone early
    abort (the bitset only grows while it is being assembled)."""
    n = g.n
    if n > 8:
        raise SizeLimitError(f"canonical form capped at 8 vertices, got {n}")
    m = n * (n - 1) // 2
    if n <= 2 or g.edges == 0 or g.edges == (1 << m) - 1:
        return g
    el = g.edge_list()
    best = g.edges
    for perm in permutations(range(n)):
        bits = 0
        ok = True
        for u, v in el:
            a, b = perm[u], perm[v]
            bits |= 1 << (b * (b - 1) // 2 + a if a < b else a * (a - 1) // 2 + b)
            if bits >= best:
                ok = False
                break
        if ok and bits < best:
            best = bits
    return Graph(n, best)


@cache
def brute_all_graphs(n: int) -> tuple[Graph, ...]:
    """Canonical representatives of every isomorphism class on n vertices.

    Sweeps the 2**C(n,2) labeled bitsets in increasing order and marks whole
    orbits, so each first-unseen bitset is the minimum of its orbit, i.e. the
    canonical form.  Capped at n = 7 (2**21 bitsets).
    """
    if n > 7:
        raise SizeLimitError(f"exhaustive enumeration capped at 7 vertices, got {n}")
    m = n * (n - 1) // 2
    perms = tuple(permutations(range(n)))
    seen = bytearray(1 << m)
    reps = []
    for bits in range(1 << m):
        if seen[bits]:
            continue
        reps.append(Graph(n, bits))
        el = tuple(SLOT_ENDPOINTS[s] for s in _bit_indices(bits))
        for perm in perms:
            image = 0
            for u, v in el:
                a, b = perm[u], perm[v]
                image |= 1 << (b * (b - 1) // 2 + a if a < b else a * (a - 1) // 2 + b)
            seen[image] = 1
    return tuple(reps)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Each of the C(n,2) edges present independently with probability p."""
    m = n * (n - 1) // 2
    return Graph(n, sum(1 << s for s in range(m) if rng.random() < p))


# -- Hopf checks ----------------------------------------------------------------


def _accumulate(pairs) -> dict:
    """Sum the coefficients of equal keys, dropping the zero sums."""
    out: dict = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def add_sums(*sums: dict) -> dict:
    """Sum of linear combinations given as dicts from keys to coefficients."""
    return _accumulate(chain.from_iterable(s.items() for s in sums))


def tensor(a: dict, b: dict) -> dict:
    """a (x) b for two combinations of graphs, keyed by pairs of graphs."""
    return {(g1, g2): c1 * c2 for g1, c1 in a.items() for g2, c2 in b.items()}


def union_product(a: dict, b: dict) -> dict:
    """The product of two combinations of canonical graphs: disjoint union,
    canonicalized."""
    return _accumulate((canonical_form(disjoint_union(g1, g2)), c1 * c2)
                       for g1, c1 in a.items() for g2, c2 in b.items())


def coproduct_sum(terms: dict) -> dict:
    """Linear extension of the coproduct to a combination of graphs."""
    return _accumulate((pair, c * m) for g, c in terms.items()
                       for pair, m in coproduct(g).terms.items())


def flatten_expansion(expansion) -> dict:
    """Substitute ``primitive_projection`` into an expansion and multiply out,
    projecting each distinct factor once."""
    pis = {h: primitive_projection(h).terms for h in set(chain.from_iterable(expansion))}
    return add_sums(*(reduce(union_product, [pis[h] for h in factors], {UNIT_GRAPH: 1})
                      for factors in expansion))


# -- graph6 strategies -----------------------------------------------------------

#: any graph the package accepts, up to the vertex cap
GRAPHS = st.integers(0, MAX_VERTICES).flatmap(lambda n: st.builds(
    Graph, st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1)))

#: text aimed at every branch of parse_graph6: arbitrary text, text over the
#: graph6 byte range and a little beyond, and valid values with an optional
#: header and a short random tail
GRAPH6_TEXT = (
    st.text(max_size=16)
    | st.text(alphabet=st.characters(min_codepoint=60, max_codepoint=128), max_size=16)
    | st.tuples(st.sampled_from(["", ">>graph6<<"]), GRAPHS.map(emit_graph6),
                st.text(max_size=2)).map("".join))


# -- ensemble oracles: edge-subset sweep and iso-class sums ----------------------


@cache
def _sweep(k: int, forests_only: bool) -> dict[int, int]:
    """Sweep all edge subsets of K_k (forests only with ``forests_only``).

    Keys pack the component-size multiset in 4-bit counts (sizes 1..k);
    values accumulate sign * 2^(C(k,2) - |E'|) as exact ints, where the
    2-power counts the supergraphs E >= E'.  With ``forests_only`` the
    cycle-closing branch is pruned and every sign is +1.  Callers must not
    mutate the cached result.
    """
    m = k * (k - 1) // 2
    eu = [SLOT_ENDPOINTS[s][0] for s in range(m)]
    ev = [SLOT_ENDPOINTS[s][1] for s in range(m)]
    parent = list(range(k))
    size = [1] * k
    acc: dict[int, int] = {}

    def rec(i: int, sign: int, ecount: int, key: int) -> None:
        if i == m:
            acc[key] = acc.get(key, 0) + (sign << (m - ecount))
            return
        rec(i + 1, sign, ecount, key)
        u = eu[i]
        while parent[u] != u:
            u = parent[u]
        v = ev[i]
        while parent[v] != v:
            v = parent[v]
        if u == v:
            if not forests_only:
                rec(i + 1, -sign, ecount + 1, key)
            return
        a, b = size[u], size[v]
        if a < b:
            u, v = v, u
            a, b = b, a
        parent[v] = u
        size[u] = a + b
        rec(i + 1, sign, ecount + 1,
            key + (1 << 4 * (a + b - 1)) - (1 << 4 * (a - 1)) - (1 << 4 * (b - 1)))
        parent[v] = v
        size[u] = a

    rec(0, 1, 0, k)  # k singleton components: count of size 1 lives in the low nibble
    return {key: val for key, val in acc.items() if val}


def _key_counts(key: int, k: int) -> dict[int, int]:
    return {s: key >> 4 * (s - 1) & 0xF for s in range(1, k + 1)
            if key >> 4 * (s - 1) & 0xF}


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


#: the constants oracle of each invariant, independent of ``ensemble``'s recurrence
CONSTANTS = {"W": c_recursion, "A": abel_constants}


def counter_piece(which: str, k: int, order: int) -> TruncSeries:
    """The independent closed-form oracle for ``ensemble_w``/``ensemble_a``:
    piece_k summed partition by partition, each term
    2^(C(k,2) - sum_j C(lambda_j, 2)) prod_j (i_lambda_j / lambda_j!) /
    prod_m mult_m(lambda)!, the power of 2 counting the edges of K_k between
    blocks, with the constants recomputed per weight and the multiplicities
    counted by a ``Counter``; the package reaches the same terms through the
    graphical exponential ``series._exp(blocks, 2)``, whose recurrence puts
    in one factor 2 per edge between the block it splits off and the rest."""
    check_limit("order", k, low=1)
    check_limit("order", order)
    if k > order:
        raise ValueError(f"weight-{k} piece does not fit truncation order {order}")
    consts = CONSTANTS[which](k)
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
        terms[lam] = Fraction(num, den)
    return from_partitions(order, "q", terms)


def summed_full_series(which: str, order: int = DEFAULT_ORDER) -> TruncSeries:
    """``ensemble.full_series`` as 1 plus the sum of the pieces, one ``+`` each."""
    total = TruncSeries.one(order, "q")
    for k in range(1, order + 1):
        total = total + counter_piece(which, k, order)
    return total


def swept_piece(which: str, k: int, order: int) -> TruncSeries:
    """Weight-k part of sum over k-vertex graphs of I_G / |Aut(G)|, by
    summing I over every labeled graph on k vertices:

    * W: (1/k!) * sum over E' <= E(K_k) of
      2^(C(k,2) - |E'|) * (-1)^(|E'| - k + c(E')) * prod q_{component sizes};
    * A: (1/k!) * sum over forests F <= E(K_k) of
      2^(C(k,2) - |F|) * prod (size * q_size) over trees of F.

    Walks 2^C(k,2) subsets for W, so keep k <= 7.
    """
    kfact = factorial(k)
    terms = {}
    for key, val in _sweep(k, forests_only=which == "A").items():
        counts = _key_counts(key, k)
        if which == "A":
            for sz, cnt in counts.items():
                val *= sz ** cnt
        terms[mono(counts)] = Fraction(val, kfact)
    return TruncSeries(order, "q", terms)


def swept_constants(which: str, n_max: int) -> list[Fraction]:
    """i_n = n! * [q_n] piece_n for n = 1..n_max, read off the sweep."""
    return [factorial(n) * swept_piece(which, n, n_max).coefficient({n: 1})
            for n in range(1, n_max + 1)]


def isoclass_series(which: str, k: int, order: int = DEFAULT_ORDER) -> TruncSeries:
    """Weight-k piece computed the definitional way: sum I_G / |Aut(G)| over
    the isomorphism classes of k-vertex graphs from :func:`all_graphs`.
    Deliberately independent of the partition formula; capped at k = 7."""
    if not 1 <= k <= 7:
        raise SizeLimitError(f"iso-class sums capped at 7 vertices, got {k}")
    total = TruncSeries.zero(order, "q")
    for g in all_graphs(k):
        total = total + invariant(which, g, order) * Fraction(1, aut_order(g))
    return total


# -- Schur oracles ---------------------------------------------------------------


def schur_one_part(n: int, order: int = DEFAULT_ORDER) -> TruncSeries:
    """s_n = sum_{mu |- n} p_mu / z_mu in power-sum variables."""
    if n > order:
        raise ValueError(f"s_{n} does not fit truncation order {order}")
    return TruncSeries(order, "p", {mono(Counter(mu)): Fraction(1, _z(mu))
                                    for mu in partitions_of(n)})


@cache
def _complete_homogeneous(order: int) -> TruncSeries:
    """sum_n h_n = exp(sum_k p_k / k), truncated at the order."""
    return exp(TruncSeries(order, "p", {mono({k: 1}): Fraction(1, k)
                                        for k in range(1, order + 1)}))


def schur_jacobi_trudi(lam, order: int) -> TruncSeries:
    """s_lambda = det(h_{lambda_i - i + j}) with h_0 = 1 and h_m = 0 for
    m < 0, each h_n the weight-n part of exp(sum p_k / k); the determinant
    is expanded along rows, memoized on the remaining columns."""
    lam = tuple(lam)
    if sum(lam) > order:
        raise ValueError(f"|lambda| = {sum(lam)} exceeds truncation order {order}")
    l = len(lam)
    one = TruncSeries.one(order, "p")
    zero = TruncSeries.zero(order, "p")
    h = _complete_homogeneous(order)

    def entry(i: int, j: int) -> TruncSeries:
        idx = lam[i] - i + j
        return zero if idx < 0 else h.homogeneous_part(idx)

    memo: dict[int, TruncSeries] = {}

    def minor(colmask: int) -> TruncSeries:
        if colmask == 0:
            return one
        if colmask not in memo:
            row = l - colmask.bit_count()
            total = zero
            sign = 1
            for j in range(l):
                if colmask >> j & 1:
                    e = entry(row, j)
                    if e:
                        total = total + e * minor(colmask ^ 1 << j) * sign
                    sign = -sign
            memo[colmask] = total
        return memo[colmask]

    return minor((1 << l) - 1)


def _solve_exact(matrix: list[list[Fraction]], ncols: int) -> list[Fraction]:
    """Gauss-Jordan elimination over Fractions for a square augmented system."""
    rows = len(matrix)
    assert rows == ncols, "expected a square system"
    for col in range(ncols):
        pivot = next(r for r in range(col, rows) if matrix[r][col])
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        inv = 1 / matrix[col][col]
        matrix[col] = [x * inv for x in matrix[col]]
        for r in range(rows):
            if r != col and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[col])]
    return [matrix[r][-1] for r in range(ncols)]


def elimination_expand(tau: TruncSeries) -> dict:
    """Schur coefficients of a p-series by one exact linear solve per
    weight w: the Jacobi-Trudi s_lambda with |lambda| = w are the columns,
    the monomials p_mu with |mu| = w the rows, and tau's weight-w part the
    right-hand side.  Zero coefficients are omitted."""
    out = {}
    for w in range(tau.order + 1):
        parts = partitions_of(w)
        index = {mono(Counter(mu)): r for r, mu in enumerate(parts)}
        matrix = [[Fraction(0)] * (len(parts) + 1) for _ in parts]
        for col, lam in enumerate(parts):
            for m, c in schur_jacobi_trudi(lam, w).terms.items():
                matrix[index[m]][col] = c
        for m, c in tau.homogeneous_part(w).terms.items():
            matrix[index[m]][-1] = c
        for lam, c in zip(parts, _solve_exact(matrix, len(parts))):
            if c:
                out[lam] = c
    return out


def pairwise_schur_expand(tau: TruncSeries) -> dict:
    """Schur coefficients c_lambda = sum_mu chi^lambda_mu [p_mu] tau, one
    ``character`` lookup per (lambda, mu) pair that tau has a term at."""
    if tau.var != "p":
        raise ValueError("Schur expansion expects a series in p-variables")
    by_weight: list[dict] = [{} for _ in range(tau.order + 1)]
    for m, c in tau.terms.items():
        mu = _part(m)
        by_weight[sum(mu)][mu] = c
    out: dict = {}
    for w, coeffs in enumerate(by_weight):
        if not coeffs:
            continue
        den = lcm(*[a.denominator for a in coeffs.values()])
        nums = [(mu, a.numerator * (den // a.denominator)) for mu, a in coeffs.items()]
        for lam in partitions_of(w):
            c = sum(character(lam, mu) * x for mu, x in nums)
            if c:
                out[lam] = Fraction(c, den)
    return out


def hook_length_count(lam) -> int:
    """f^lambda, the number of standard Young tableaux of shape lambda, by
    the hook length formula n! / prod of the hook lengths."""
    conjugate = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    hooks = prod(lam[i] - j + conjugate[j] - i - 1
                 for i in range(len(lam)) for j in range(lam[i]))
    return factorial(sum(lam)) // hooks


# -- KP residual oracles -----------------------------------------------------------


def _cut(a: TruncSeries, order: int) -> TruncSeries:
    return TruncSeries(order, a.var, {m: c for m, c in a.terms.items() if mono_weight(m) <= order})


def partial_kp1_residual(F: TruncSeries) -> TruncSeries:
    """F_{2,2} - F_{1,3} + 1/2 (F_{1,1})^2 + 1/12 F_{1,1,1,1}, each
    derivative of the whole series by ``fraction_partial``, truncated at
    F.order - 4, the square by ``fraction_mul``."""
    if F.var != "p":
        raise ValueError("KP residuals expect a series in p-variables")
    if F.order < 4:
        raise ValueError(f"first KP equation needs order >= 4, got {F.order}")
    m = F.order - 4
    d22 = _cut(fraction_partial(F, 2, 2), m)
    d13 = _cut(fraction_partial(fraction_partial(F, 1), 3), m)
    d11 = _cut(fraction_partial(F, 1, 2), m)
    d1111 = _cut(fraction_partial(F, 1, 4), m)
    return d22 - d13 + fraction_mul(d11, d11) * Fraction(1, 2) + d1111 * Fraction(1, 12)


def partial_kp2_residual(F: TruncSeries) -> TruncSeries:
    """F_{2,3} - F_{1,4} + F_{1,1} F_{1,2} + 1/6 F_{1,1,1,2} by
    ``fraction_partial`` and ``fraction_mul``, truncated at F.order - 5."""
    if F.var != "p":
        raise ValueError("KP residuals expect a series in p-variables")
    if F.order < 5:
        raise ValueError(f"second KP equation needs order >= 5, got {F.order}")
    m = F.order - 5
    d23 = _cut(fraction_partial(fraction_partial(F, 2), 3), m)
    d14 = _cut(fraction_partial(fraction_partial(F, 1), 4), m)
    d11 = _cut(fraction_partial(F, 1, 2), m)
    d12 = _cut(fraction_partial(fraction_partial(F, 1), 2), m)
    d1112 = _cut(fraction_partial(fraction_partial(F, 1, 3), 2), m)
    return d23 - d14 + fraction_mul(d11, d12) + d1112 * Fraction(1, 6)


def _hirota(tau: TruncSeries, drop: int, rows) -> TruncSeries:
    """sum of c tau_u tau_v over the rows (c, u, v) through weight
    tau.order - drop, tau_v the derivative by p_v1 ... p_vk from
    ``fraction_partial``, every factor truncated there, products by
    ``fraction_mul``."""
    m = tau.order - drop

    def derivative(v: tuple) -> TruncSeries:
        out = tau
        for i in v:
            out = fraction_partial(out, i)
        return _cut(out, m)

    total = TruncSeries.zero(m, "p")
    for c, u, v in rows:
        total = total + fraction_mul(derivative(u), derivative(v)) * c
    return total


def hirota_kp1(tau: TruncSeries) -> TruncSeries:
    """(D_1^4 + 3 D_2^2 - 4 D_1 D_3) tau.tau / 2 in p-variables, where
    d/dt_k = k d/dp_k:
    tau tau_1111 - 4 tau_1 tau_111 + 3 tau_11^2 + 12 (tau tau_22 - tau_2^2)
    - 12 (tau tau_31 - tau_1 tau_3), through weight tau.order - 4.  It is
    12 tau^2 times the first KP residual of log tau, so for tau with
    constant term 1 it is zero, or first nonzero, where that residual is."""
    return _hirota(tau, 4, [(1, (), (1, 1, 1, 1)), (-4, (1,), (1, 1, 1)), (3, (1, 1), (1, 1)),
                            (12, (), (2, 2)), (-12, (2,), (2,)),
                            (-12, (), (3, 1)), (12, (1,), (3,))])


def hirota_kp2(tau: TruncSeries) -> TruncSeries:
    """(D_1^3 D_2 + 2 D_2 D_3 - 3 D_1 D_4) tau.tau / 4 in p-variables:
    tau tau_2111 - tau_2 tau_111 - 3 tau_1 tau_211 + 3 tau_11 tau_21
    + 6 (tau tau_32 - tau_2 tau_3) - 6 (tau tau_41 - tau_1 tau_4), through
    weight tau.order - 5; 6 tau^2 times the second KP residual of log tau."""
    return _hirota(tau, 5, [(1, (), (2, 1, 1, 1)), (-1, (2,), (1, 1, 1)), (-3, (1,), (2, 1, 1)),
                            (3, (1, 1), (2, 1)), (6, (), (3, 2)), (-6, (2,), (3,)),
                            (-6, (), (4, 1)), (6, (1,), (4,))])
