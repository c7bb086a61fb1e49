"""Exact truncated power series in weighted variables.

Series live in Q[x_1, x_2, ...] where the variable x_i carries weight i; they
are printed as ``q1, q2, ...`` or ``p1, p2, ...`` depending on the series'
variable family.  A :class:`TruncSeries` keeps the terms of weighted degree at
most ``order`` as a sparse map from partitions to ``fractions.Fraction``
coefficients: a monomial is stored as its partition, each variable index
repeated by its exponent, largest first (x_1^2 x_3 is (3, 1, 1), the
constant is ()), so p_mu is keyed by mu itself and its weight is sum(mu).
All arithmetic is exact: one rule, :func:`_fraction`, admits an ``int`` that
is not a ``bool``, or a ``Fraction``, and every coefficient, scalar of ``+``,
``-``, ``*`` or ``==``, factor and point passes through it, so a float, a
numeric string, a ``Decimal`` or ``True`` raises TypeError.  The product, exp
and log run on integers in the exponential grading of :func:`_graded`,
weight w held as w! E^w times its part (E is 1 for the all-graphs
series), where exp and log are binomial convolutions (Stanley, *EC2* 5.1).
There and in the KP residuals, p_mu is keyed by the integer
prod_j prime(mu_j), so a monomial product is one integer product.  Each
result term becomes one Fraction.  :func:`substitute` (a p series) and
:func:`evaluate` scale each term's numerator and denominator by the factor
of each of its parts.

The public API speaks monomials: tuples of ``(variable index, exponent)``
pairs sorted by index, zero exponents omitted, () the constant.  The
constructor and :meth:`TruncSeries.coefficient` accept the pairs in any
order, or a {variable index: exponent} map of ints; one heavier than the
order is dropped by the constructor and refused by ``coefficient`` before
it is expanded.  :attr:`TruncSeries.terms` is a fresh dict keyed that way
on every access.  Rendering sorts the stored partitions mu by weight
sum(mu), then lexicographically on mu read from its smallest part, which
puts higher powers of x_1 first, then of x_2, and so on; each term's
exponents are the run lengths of its equal parts.

Series are never mutated after construction; every operation returns a fresh
value, so results can be shared freely across threads and summed in any
association order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, perm
from typing import Iterable, Mapping

from graphkp.errors import LIMITS, check_limit

MAX_ORDER = LIMITS["order"].cap
DEFAULT_ORDER = 7

Monomial = tuple[tuple[int, int], ...]
Partition = tuple[int, ...]

#: The constant monomial, and the empty partition that stores it.
UNIT: Monomial = ()


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


def _fraction(value) -> Fraction:
    """The exactness rule: an int that is not a bool, or a Fraction, as a
    Fraction; anything else raises TypeError."""
    if type(value) is not int and not isinstance(value, Fraction):
        raise TypeError(f"not an exact number (int or Fraction): {value!r}")
    return value if isinstance(value, Fraction) else Fraction(value)


def _json_int(value, what: str) -> int:
    # bool is an int subclass, but true/false are not JSON integers
    if type(value) is not int:
        raise ValueError(f"malformed series object: {what} must be an integer, got {value!r}")
    return value


def _partition(m, order: int) -> Partition | None:
    """The stored key of a monomial given as (variable index, exponent) pairs
    in any order or as a {variable index: exponent} map: each index repeated
    by its exponent, largest first, or None if its weight exceeds ``order``
    (parts are built only while the weight fits).  A non-int, an index below
    1 or a negative exponent raises ValueError."""
    if not isinstance(m, tuple) and isinstance(m, Mapping):
        m = m.items()
    weight = 0
    parts: list[int] = []
    for var, exp in m:
        if type(var) is not int or type(exp) is not int or var < 1 or exp < 0:
            raise ValueError(f"bad monomial x{var!r}^{exp!r}: needs int index >= 1, exponent >= 0")
        weight += var * exp
        if weight <= order:
            parts += [var] * exp
    if weight > order:
        return None
    parts.sort(reverse=True)
    return tuple(parts)


def _monomial(mu: Partition) -> Monomial:
    """Inverse of :func:`_partition`: (part, multiplicity) pairs by increasing
    part, read off the runs of equal parts from the end of ``mu``."""
    pairs = []
    end = len(mu)
    while end:
        start = mu.index(mu[end - 1])
        pairs.append((mu[end - 1], end - start))
        end = start
    return tuple(pairs)


def mono(exponents: Mapping[int, int] | Iterable[tuple[int, int]]) -> Monomial:
    """Build a canonical monomial from {variable index: exponent} pairs."""
    mu = _partition(exponents, MAX_ORDER)
    if mu is None:
        raise ValueError(f"monomial weight exceeds the largest order {MAX_ORDER}")
    return _monomial(mu)


def _print_order(mu: Partition):
    """Rendering sort key: by weight, then lex on the parts from the smallest,
    which puts higher powers of x_1 first, then of x_2, and so on."""
    return sum(mu), mu[::-1]


def _mono_text(m: Monomial, var: str) -> str:
    return " ".join(f"{var}{i}" if e == 1 else f"{var}{i}^{e}" for i, e in m)


class TruncSeries:
    """Sparse exact multivariate series truncated at a weighted degree."""

    __slots__ = ("order", "var", "_terms")

    def __init__(self, order: int = DEFAULT_ORDER, var: str = "q", terms=None):
        if order < 0:
            raise ValueError(f"truncation order must be nonnegative, got {order}")
        check_limit("order", order)
        if var not in ("q", "p"):
            raise ValueError(f"variable family must be 'q' or 'p', got {var!r}")
        clean: dict[Partition, Fraction] = {}
        if terms:
            for m, c in terms.items():
                mu = _partition(m, order)
                c = _fraction(c)
                if c and mu is not None:
                    if mu in clean:  # two spellings of one monomial
                        c += clean.pop(mu)
                    if c:
                        clean[mu] = c
        self.order = order
        self.var = var
        self._terms = clean

    @classmethod
    def _raw(cls, order: int, var: str, terms: dict) -> "TruncSeries":
        # internal fast path: terms must already be clean (keyed by partitions,
        # no zeros, weights <= order)
        s = object.__new__(cls)
        s.order = order
        s.var = var
        s._terms = terms
        return s

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER, var: str = "q") -> "TruncSeries":
        return cls(order, var)

    @classmethod
    def constant(cls, value, order: int = DEFAULT_ORDER, var: str = "q") -> "TruncSeries":
        return cls(order, var, {UNIT: value})

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER, var: str = "q") -> "TruncSeries":
        return cls.constant(1, order, var)

    @classmethod
    def variable(cls, index: int, order: int = DEFAULT_ORDER, var: str = "q") -> "TruncSeries":
        return cls(order, var, {((index, 1),): Fraction(1)})

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The terms as a fresh {(variable, exponent) monomial: coefficient} dict."""
        return {_monomial(mu): c for mu, c in self._terms.items()}

    @property
    def constant_term(self) -> Fraction:
        return self._terms.get(UNIT, Fraction(0))

    def coefficient(self, m) -> Fraction:
        """Coefficient of a monomial; querying beyond the order is an error."""
        mu = _partition(m, self.order)
        if mu is None:
            raise ValueError(f"monomial weight exceeds truncation order {self.order}")
        return self._terms.get(mu, Fraction(0))

    def homogeneous_part(self, weight: int) -> "TruncSeries":
        return TruncSeries._raw(
            self.order, self.var,
            {mu: c for mu, c in self._terms.items() if sum(mu) == weight})

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} vs {other.order}")
        if self.var != other.var:
            raise ValueError(f"variable family mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            other = TruncSeries.constant(other, self.order, self.var)
        self._check_compatible(other)
        out = dict(self._terms)
        for mu, c in other._terms.items():
            s = out.get(mu, 0) + c
            if s:
                out[mu] = s
            elif mu in out:
                del out[mu]
        return TruncSeries._raw(self.order, self.var, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._raw(self.order, self.var,
                                {mu: -c for mu, c in self._terms.items()})

    def __sub__(self, other):
        return -(-self + other)  # -other would turn True into the int -1

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            other = _fraction(other)
            return TruncSeries._raw(self.order, self.var,
                                    {mu: other * v for mu, v in self._terms.items() if other})
        self._check_compatible(other)
        # shift 1 scales a fractional constant term to an integer, so the
        # weight-n part of the product is held as n! E^(n + 2), E = scales[0]
        scales, (left, right) = _graded(1, self, other)
        out = [{} for _ in left]
        for w, piece in enumerate(left):
            for j, y in enumerate(right[:self.order - w + 1]):
                _add_product(out[w + j], piece, y, comb(w + j, w))
        return _ungraded(self.order, self.var, out, [scales[0] * s for s in scales])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            other = TruncSeries.constant(other, self.order, self.var)
        return (self.order == other.order and self.var == other.var
                and self._terms == other._terms)

    def __bool__(self):
        return bool(self._terms)

    # -- rendering ---------------------------------------------------------

    def text(self) -> str:
        """Canonical plain-text rendering, e.g. ``q1^3 + 3 q1 q2 + 2 q3``."""
        if not self._terms:
            return "0"
        out = []
        for mu in sorted(self._terms, key=_print_order):
            coeff = str(self._terms[mu])
            mag = coeff.lstrip("-")
            body = _mono_text(_monomial(mu), self.var)
            term = f"{mag} {body}" if body and mag != "1" else body or mag
            out.append((" - " if coeff[0] == "-" else " + ") + term)
        # every term carries its sign as " + " or " - "; the first keeps only "-"
        text = "".join(out)
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def to_json_obj(self) -> dict:
        return {"var": self.var, "order": self.order, "terms": [
            {"exponents": {str(var): exp for var, exp in _monomial(mu)},
             "numerator": self._terms[mu].numerator, "denominator": self._terms[mu].denominator}
            for mu in sorted(self._terms, key=_print_order)]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "TruncSeries":
        """Inverse of :meth:`to_json_obj`.  Every number must be a JSON
        integer and every exponent key the canonical decimal spelling of an
        integer ("1", not "01"), so no two keys name one variable; anything
        else raises ValueError rather than being coerced."""
        if not isinstance(obj, Mapping):
            raise ValueError("malformed series object: expected a JSON object")
        try:
            order = _json_int(obj["order"], "order")
            var = obj["var"]
            raw_terms = obj["terms"]
            if not isinstance(raw_terms, list):
                raise ValueError("malformed series object: 'terms' must be a list")
            terms = {}
            for t in raw_terms:
                exps = t["exponents"]
                if not isinstance(exps, Mapping):
                    raise ValueError("malformed series object: 'exponents' must be an object")
                for key in exps:
                    if not (isinstance(key, str) and key.isascii() and key.isdigit()
                            and str(int(key)) == key):
                        raise ValueError(f"malformed series object: exponent key {key!r}")
                m = tuple({int(k): _json_int(v, "exponent") for k, v in exps.items()}.items())
                den = _json_int(t["denominator"], "denominator")
                if not den:
                    raise ValueError("malformed series object: zero denominator")
                c = Fraction(_json_int(t["numerator"], "numerator"), den)
                terms[m] = terms.get(m, 0) + c
        except (KeyError, TypeError) as err:
            raise ValueError(f"malformed series object: {err}") from err
        return cls(order, var, terms)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"TruncSeries(order={self.order}, var={self.var!r}, <{self.text()}>)"


# -- calculus ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _prime_keys(order: int) -> tuple[tuple[tuple[Partition, int], ...], ...]:
    """Per weight w <= order, each partition mu of w paired with its prime
    key prod_j prime(mu_j), in the order of :func:`partitions_of`."""
    primes: list[int] = []
    p = 1
    while len(primes) < order:
        p += 1
        if all(map(p.__mod__, primes)):
            primes.append(p)
    keys = {(): 1}
    table = [(((), 1),)]
    for w in range(1, order + 1):
        pairs = []
        for mu in partitions_of(w):
            keys[mu] = k = primes[mu[0] - 1] * keys[mu[1:]]
            pairs.append((mu, k))
        table.append(tuple(pairs))
    return tuple(table)


def _graded(shift: int, *series: TruncSeries) -> tuple[list, list]:
    """scales[w] = w! E^(w + shift) for w <= order, E the lcm of the
    denominators of w! c over the terms c of weight w, and each series'
    pieces by weight, piece w the integers scales[w] A_w by prime key."""
    E = 1
    for a in series:
        for mu, c in a._terms.items():
            E = lcm(E, c.denominator // gcd(c.denominator, factorial(sum(mu))))
    scales = [factorial(w) * E ** (w + shift) for w in range(series[0].order + 1)]
    graded = []
    for a in series:
        pieces = []
        for scale, pairs in zip(scales, _prime_keys(a.order)):
            piece = {}
            for mu, k in pairs:
                c = a._terms.get(mu)
                if c:
                    piece[k] = c.numerator * (scale // c.denominator)
            pieces.append(piece)
        graded.append(pieces)
    return scales, graded


def _ungraded(order: int, var: str, pieces: list[dict], dens: list[int]) -> TruncSeries:
    """The series whose weight-w part is pieces[w] / dens[w], its keys
    decoded from prime keys to partitions."""
    terms = {}
    for piece, den, pairs in zip(pieces, dens, _prime_keys(order)):
        if piece:
            for mu, k in pairs:
                c = piece.get(k)
                if c:
                    terms[mu] = Fraction(c, den)
    return TruncSeries._raw(order, var, terms)


def _add_product(acc: dict, x: dict, y: dict, f: int = 1) -> None:
    """acc += f x y for pieces keyed by prime keys (zeros may be left in
    acc): the key of a product of monomials is the product of their keys."""
    get = acc.get
    for k1, c1 in x.items():
        c1 *= f
        for k2, c2 in y.items():
            k = k1 * k2
            acc[k] = get(k, 0) + c1 * c2


def exp(a: TruncSeries) -> TruncSeries:
    """Exponential of a series with zero constant term.

    Weight by weight from the Euler recurrence n E_n = sum_k k A_k E_{n-k}
    for E = exp(A), X_n the weight-n part of X: in the grading of
    :func:`_graded`, e_n = sum_{k=1}^{n} C(n-1, k-1) a_k e_{n-k}.
    """
    if a.constant_term:
        raise ValueError("exp requires a zero constant term")
    scales, (pieces,) = _graded(0, a)
    out = [{1: 1}]
    for n in range(1, a.order + 1):
        acc = {}
        for k in range(1, n + 1):
            _add_product(acc, pieces[k], out[n - k], comb(n - 1, k - 1))
        out.append(acc)
    return _ungraded(a.order, a.var, out, scales)


def log(a: TruncSeries) -> TruncSeries:
    """Logarithm of a series with constant term 1; inverse of :func:`exp`.

    The same recurrence solved for L = log(A) is, in the same grading,
    l_n = a_n - sum_{k=1}^{n-1} C(n-1, k-1) l_k a_{n-k}.
    """
    if a.constant_term != 1:
        raise ValueError("log requires constant term 1")
    scales, (pieces,) = _graded(0, a)
    out = [{}]
    for n in range(1, a.order + 1):
        acc = dict(pieces[n])
        for k in range(1, n):
            _add_product(acc, out[k], pieces[n - k], -comb(n - 1, k - 1))
        out.append(acc)
    return _ungraded(a.order, a.var, out, scales)


def _derivative(G: dict, table: tuple, v: Partition, order: int) -> list[dict]:
    """The pieces of weight 0..order of d/dp_v1 ... d/dp_vk G, keyed by prime
    keys like G, each coefficient one lookup (see :mod:`graphkp.schurkp`)."""
    kv = dict(table[sum(v)])[v]
    times = [(i, v.count(i)) for i in set(v)]
    pieces = []
    for pairs in table[:order + 1]:
        piece = {}
        for mu, k in pairs:
            x = G.get(k * kv)
            if x:
                for i, t in times:
                    x *= perm(mu.count(i) + t, t)
                piece[k] = x
        pieces.append(piece)
    return pieces


def _derivative_form(F: TruncSeries, order: int, scale: int, linear: dict,
                     bilinear: dict) -> TruncSeries:
    """(sum_v a_v D G_v + sum_(u, v) b_uv G_u G_v) / (scale D^2) through
    weight ``order``, for G = D F, D the lcm of F's denominators, G_v the
    derivative of G by p_v1 ... p_vk, and rows v -> a_v, (u, v) -> b_uv."""
    table = _prime_keys(F.order)
    den = lcm(*[c.denominator for c in F._terms.values()])
    G = {}
    for pairs in table:
        for mu, k in pairs:
            c = F._terms.get(mu)
            if c:
                G[k] = c.numerator * (den // c.denominator)
    out = [{} for _ in range(order + 1)]
    for v, a in linear.items():
        for acc, piece in zip(out, _derivative(G, table, v, order)):
            _add_product(acc, {1: a * den}, piece)  # times the constant a_v D
    for (u, v), b in bilinear.items():
        left = _derivative(G, table, u, order)
        right = left if u == v else _derivative(G, table, v, order)
        for w, piece in enumerate(left):
            for j, y in enumerate(right[:order - w + 1]):
                _add_product(out[w + j], piece, y, b)
    return _ungraded(order, "p", out, [scale * den * den] * (order + 1))


def _rescaled(a: TruncSeries, values: Mapping, missing: str):
    """Each term of ``a`` as (partition, coefficient times values[i] for every
    part i), on integers; ``missing`` describes a part without a value."""
    ratios = {i: _fraction(v).as_integer_ratio() for i, v in values.items()}
    for mu, c in a._terms.items():
        num, den = c.numerator, c.denominator
        for i in mu:
            if i not in ratios:
                raise ValueError(f"{missing} for variable {i}")
            n, d = ratios[i]
            num *= n
            den *= d
        yield mu, Fraction(num, den)


def substitute(a: TruncSeries, factors) -> TruncSeries:
    """Rescale variables, x_i -> factor_i * p_i, keeping weights unchanged.

    ``factors`` maps variable indices to nonzero rationals, as a rescaling
    plan does.  Every variable appearing in ``a`` must have a factor.
    """
    nonzero = {i: f for i, f in factors.items() if _fraction(f)}
    return TruncSeries._raw(a.order, "p", dict(_rescaled(a, nonzero, "no nonzero rescale factor")))


def evaluate(a: TruncSeries, values: Mapping[int, Fraction]) -> Fraction:
    """Evaluate at a rational point; every variable present needs a value."""
    return sum([c for _, c in _rescaled(a, values, "no value supplied")], Fraction(0))
