"""Exact truncated power series in weighted variables.

Series live in Q[x_1, x_2, ...] where the variable x_i carries weight i; they
are printed as ``q1, q2, ...`` or ``p1, p2, ...`` depending on the series'
variable family.  A :class:`TruncSeries` keeps the terms of weighted degree at
most ``order`` in one integer store: the prime key prod_i prime(i)^e_i of
each monomial x_1^e_1 x_2^e_2 ... (1 for the constant) mapped to a nonzero
integer numerator, over one denominator D >= 1 with gcd(D, *numerators) = 1.
So the store is canonical, ``==`` compares it plainly, and a monomial
product is one integer product.  One cached table, :func:`_decoded`, reads
each key's weight, partition (x_1^2 x_3 is (3, 1, 1), the constant ()) and
monomial off its factors, :func:`_prime_keys` lists the keys by weight for
the kernels, and other modules build and read series by partition through
:func:`_from_parts` and :func:`_parts`.  All arithmetic is exact: one rule,
:func:`_fraction`, admits an ``int`` that is not a ``bool``, or a
``Fraction``, and every coefficient, scalar of ``+``, ``-``, ``*`` or ``==``
and factor passes through it, so a float, a numeric string, a ``Decimal`` or
``True`` raises TypeError.  The product, exp and log run on the numerators in
the exponential grading of :func:`_graded`, weight w held as w! E^w times its
part (E is 1 for the all-graphs series), where exp and log are binomial
convolutions (Stanley, *EC2* 5.1), and end with one lcm over the weights'
scales and one gcd; :func:`_exp` is exp's recurrence with a power of a base
per term, the graphical exponential of :mod:`graphkp.ensemble` at base 2.
A ``Fraction`` per term is built only at the public edge: ``terms``,
``coefficient``, ``constant_term``, ``text`` and ``to_json_obj``.

The public API speaks monomials: tuples of ``(variable index, exponent)``
pairs sorted by index, zero exponents omitted, () the constant.  The
constructor and :meth:`TruncSeries.coefficient` accept the pairs in any
order, or a {variable index: exponent} map of ints; one heavier than the
order is dropped by the constructor and refused by ``coefficient`` before
its key is built.  :attr:`TruncSeries.terms` is a fresh dict keyed that way
on every access.  Rendering goes by weight, then lexicographically on the
partition read from its smallest part, which puts higher powers of x_1
first, then of x_2, and so on.

Series are never mutated after construction; every operation returns a fresh
value, so results can be shared freely across threads and summed in any
association order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, perm
from typing import Iterable, Mapping

from graphkp.errors import DEFAULT_ORDER, LIMITS, check_limit

MAX_ORDER = LIMITS["order"].cap

Monomial = tuple[tuple[int, int], ...]
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


def _first_primes(n: int) -> tuple[int, ...]:
    primes, p = [], 1
    while len(primes) < n:
        p += 1
        if all(map(p.__mod__, primes)):
            primes.append(p)
    return tuple(primes)


#: prime(i) at index i - 1: x_i^e contributes prime(i)^e to a prime key.
_PRIMES = _first_primes(MAX_ORDER)


@lru_cache(maxsize=None)
def _prime_keys(order: int) -> tuple[tuple[tuple[Partition, int], ...], ...]:
    """Per weight w <= order, each partition mu of w paired with its prime
    key prod_j prime(mu_j), in the order of :func:`partitions_of`."""
    keys = {(): 1}
    table = [(((), 1),)]
    for w in range(1, order + 1):
        pairs = []
        for mu in partitions_of(w):
            keys[mu] = k = _PRIMES[mu[0] - 1] * keys[mu[1:]]
            pairs.append((mu, k))
        table.append(tuple(pairs))
    return tuple(table)


@lru_cache(maxsize=None)
def _decoded(key: int) -> tuple[int, Partition, Monomial]:
    """The weight, the partition and the monomial of a prime key, read off
    its prime factors: the one table that decodes keys."""
    up: list[int] = []
    for i, p in enumerate(_PRIMES, start=1):
        while not key % p:
            key //= p
            up.append(i)
    return sum(up), tuple(up[::-1]), tuple([(i, up.count(i)) for i in sorted(set(up))])


def _key(m, order: int) -> int | None:
    """The prime key of a monomial given as (variable index, exponent) pairs
    in any order or as a {variable index: exponent} map, or None if it is
    heavier than ``order`` (primes go in only while the weight fits).  A
    non-int, an index below 1 or a negative exponent raises ValueError."""
    if not isinstance(m, tuple) and isinstance(m, Mapping):
        m = m.items()
    weight, key = 0, 1
    for var, exp in m:
        if type(var) is not int or type(exp) is not int or var < 1 or exp < 0:
            raise ValueError(f"bad monomial x{var!r}^{exp!r}: needs int index >= 1, exponent >= 0")
        weight += var * exp
        if exp and weight <= order:
            key *= _PRIMES[var - 1] ** exp
    return key if weight <= order else None


def mono(exponents: Mapping[int, int] | Iterable[tuple[int, int]]) -> Monomial:
    """Build a canonical monomial from {variable index: exponent} pairs."""
    key = _key(exponents, MAX_ORDER)
    if key is None:
        raise ValueError(f"monomial weight exceeds the largest order {MAX_ORDER}")
    return _decoded(key)[2]


def _mono_text(m: Monomial, var: str) -> str:
    return " ".join(f"{var}{i}" if e == 1 else f"{var}{i}^{e}" for i, e in m)


class TruncSeries:
    """Sparse exact multivariate series truncated at a weighted degree."""

    __slots__ = ("order", "var", "_nums", "_den")

    def __init__(self, order: int = DEFAULT_ORDER, var: str = "q", terms=None):
        if type(order) is int and order < 0:  # the gate refuses other types
            raise ValueError(f"truncation order must be nonnegative, got {order}")
        check_limit("order", order)
        if var not in ("q", "p"):
            raise ValueError(f"variable family must be 'q' or 'p', got {var!r}")
        ratios = []
        for m, c in (terms or {}).items():
            k = _key(m, order)
            n, d = _fraction(c).as_integer_ratio()
            if k is not None:  # zeros go with the reduction
                ratios.append((k, n, d))
        den = lcm(*[d for _, _, d in ratios])
        nums: dict[int, int] = {}
        for k, n, d in ratios:  # two spellings of one monomial share a key
            nums[k] = nums.get(k, 0) + n * (den // d)
        self._store(order, var, nums, den)

    def _store(self, order: int, var: str, nums: dict, den: int) -> "TruncSeries":
        # nums maps prime keys of weight <= order to integers over den >= 1;
        # zeros are dropped and the fraction is reduced
        nums = {k: n for k, n in nums.items() if n}
        g = gcd(den, *nums.values())
        self.order, self.var, self._den = order, var, den // g
        self._nums = {k: n // g for k, n in nums.items()} if g > 1 else nums
        return self

    @classmethod
    def _reduced(cls, order: int, var: str, nums: dict, den: int) -> "TruncSeries":
        return object.__new__(cls)._store(order, var, nums, den)  # a fast path past validation

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER, var: str = "q") -> "TruncSeries":
        return cls(order, var)

    @classmethod
    def constant(cls, value, order: int = DEFAULT_ORDER, var: str = "q") -> "TruncSeries":
        return cls(order, var, {(): value})

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER, var: str = "q") -> "TruncSeries":
        return cls.constant(1, order, var)

    @classmethod
    def variable(cls, index: int, order: int = DEFAULT_ORDER, var: str = "q") -> "TruncSeries":
        return cls(order, var, {((index, 1),): 1})

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The terms as a fresh {(variable, exponent) monomial: coefficient} dict."""
        return {_decoded(k)[2]: Fraction(n, self._den) for k, n in self._nums.items()}

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._nums.get(1, 0), self._den)

    def coefficient(self, m) -> Fraction:
        """Coefficient of a monomial; querying beyond the order is an error."""
        k = _key(m, self.order)
        if k is None:
            raise ValueError(f"monomial weight exceeds truncation order {self.order}")
        return Fraction(self._nums.get(k, 0), self._den)

    def homogeneous_part(self, weight: int) -> "TruncSeries":
        """The terms of one weight; a weight above the order is an error."""
        check_limit("order", self.order, low=check_limit("order", weight))
        get = self._nums.get
        return TruncSeries._reduced(self.order, self.var, {
            k: n for _, k in _prime_keys(self.order)[weight] if (n := get(k))}, self._den)

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"truncation order mismatch: {self.order} vs {other.order}")
        if self.var != other.var:
            raise ValueError(f"variable family mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            other = TruncSeries.constant(other, self.order, self.var)
        self._check_compatible(other)
        den = lcm(self._den, other._den)
        f = den // self._den
        out = {k: n * f for k, n in self._nums.items()}
        f = den // other._den
        for k, n in other._nums.items():
            out[k] = out.get(k, 0) + n * f
        return TruncSeries._reduced(self.order, self.var, out, den)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._reduced(self.order, self.var,
                                    {k: -n for k, n in self._nums.items()}, self._den)

    def __sub__(self, other):
        return -(-self + other)  # -other would turn True into the int -1

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            other = _fraction(other)
            return TruncSeries._reduced(self.order, self.var, {
                k: n * other.numerator for k, n in self._nums.items()},
                self._den * other.denominator)
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
                and self._den == other._den and self._nums == other._nums)

    def __bool__(self):
        return bool(self._nums)

    # -- rendering ---------------------------------------------------------

    def _printed(self):
        """(monomial, coefficient) per term in rendering order (see the module doc)."""
        for _, _, m, n in sorted([(w, mu[::-1], m, n) for k, n in self._nums.items()
                                  for w, mu, m in [_decoded(k)]]):
            yield m, Fraction(n, self._den)

    def text(self) -> str:
        """Canonical plain-text rendering, e.g. ``q1^3 + 3 q1 q2 + 2 q3``."""
        if not self._nums:
            return "0"
        out = []
        for m, c in self._printed():
            coeff = str(c)
            mag = coeff.lstrip("-")
            body = _mono_text(m, self.var)
            term = f"{mag} {body}" if body and mag != "1" else body or mag
            out.append((" - " if coeff[0] == "-" else " + ") + term)
        # every term carries its sign as " + " or " - "; the first keeps only "-"
        text = "".join(out)
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def to_json_obj(self) -> dict:
        return {"var": self.var, "order": self.order, "terms": [
            {"exponents": {str(var): exp for var, exp in m},
             "numerator": c.numerator, "denominator": c.denominator}
            for m, c in self._printed()]}

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


def _parts(s: TruncSeries) -> tuple[list[dict[Partition, int]], int]:
    """The partition-keyed reader: the numerators of ``s`` as one
    {partition: numerator} dict per weight 0..order, and their one denominator."""
    pieces: list[dict[Partition, int]] = [{} for _ in range(s.order + 1)]
    for k, n in s._nums.items():
        w, mu, _ = _decoded(k)
        pieces[w][mu] = n
    return pieces, s._den


def _from_parts(order: int, var: str, parts: Mapping[Partition, int], den: int) -> TruncSeries:
    """The partition-keyed entry point: sum_mu parts[mu] x_mu / den, den >= 1;
    a zero, or a partition heavier than the order, is dropped."""
    get = parts.get
    return TruncSeries._reduced(order, var, {
        k: n for pairs in _prime_keys(order) for mu, k in pairs if (n := get(mu))}, den)


def _graded(shift: int, *series: TruncSeries) -> tuple[list, list]:
    """scales[w] = w! E^(w + shift) for w <= order, E the least integer
    making every w! E A_w integral, and each series' pieces by weight, piece
    w the integers scales[w] A_w by prime key."""
    table = _prime_keys(series[0].order)
    E, read = 1, []
    for a in series:
        get = a._nums.get
        read.append(pieces := [{k: n for _, k in pairs if (n := get(k))} for pairs in table])
        E = lcm(E, *[a._den // gcd(a._den, factorial(w) * gcd(*piece.values()))
                     for w, piece in enumerate(pieces) if piece])
    scales = [factorial(w) * E ** (w + shift) for w in range(len(table))]
    return scales, [[{k: n * scale // a._den for k, n in piece.items()}
                     for scale, piece in zip(scales, pieces)] for a, pieces in zip(series, read)]


def _ungraded(order: int, var: str, pieces: list[dict], dens: list[int]) -> TruncSeries:
    """The series whose weight-w part is pieces[w] / dens[w] (zeros may be
    left in the pieces), over the lcm of those dens, reduced once."""
    den = lcm(*[d for piece, d in zip(pieces, dens) if piece])
    nums = {}
    for piece, d in zip(pieces, dens):
        f = den // d
        nums.update({k: c * f for k, c in piece.items()} if f > 1 else piece)
    return TruncSeries._reduced(order, var, nums, den)


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
    return _exp(a, 1)


def _exp(a: TruncSeries, base: int) -> TruncSeries:
    """:func:`exp` with each term k of e_n times base^(k(n-k)); base 2
    gives the graphical exponential, weight n scaled by 2^C(n,2) around
    exp, since C(n,2) = C(k,2) + C(n-k,2) + k(n-k)."""
    if a.constant_term:
        raise ValueError("exp requires a zero constant term")
    scales, (pieces,) = _graded(0, a)
    out = [{1: 1}]
    for n in range(1, a.order + 1):
        acc = {}
        for k in range(1, n + 1):
            _add_product(acc, pieces[k], out[n - k], comb(n - 1, k - 1) * base ** (k * (n - k)))
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
    weight ``order``, for G = D F the stored numerators of F over its one
    denominator D, G_v the derivative of G by p_v1 ... p_vk, and rows
    v -> a_v, (u, v) -> b_uv."""
    table = _prime_keys(F.order)
    G, den = F._nums, F._den
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


def substitute(a: TruncSeries, factors) -> TruncSeries:
    """Rescale variables, x_i -> factor_i * p_i, keeping weights unchanged.

    ``factors`` maps variable indices to nonzero rationals, as a rescaling
    plan does.  Every variable appearing in ``a`` must have a factor.  Each
    term's numerator and denominator are scaled by the factor of each of its
    parts and reduced, on integers.
    """
    ratios = {i: _fraction(f).as_integer_ratio() for i, f in factors.items()}
    terms = {}
    for mu, k in [pair for pairs in _prime_keys(a.order) for pair in pairs if pair[1] in a._nums]:
        num, den = a._nums[k], a._den
        for i in mu:
            n, d = ratios.get(i, (0, 1))
            if not n:
                raise ValueError(f"no nonzero rescale factor for variable {i}")
            num, den = num * n, den * d
        g = gcd(num, den)
        terms[k] = num // g, den // g
    den = lcm(*[d for _, d in terms.values()])
    return TruncSeries._reduced(a.order, "p", {k: n * (den // d) for k, (n, d) in terms.items()},
                                den)
