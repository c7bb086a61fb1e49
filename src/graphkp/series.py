"""Exact truncated power series in weighted variables.

Series live in Q[x_1, x_2, ...] where the variable x_i carries weight i; they
are printed as ``q1, q2, ...`` or ``p1, p2, ...`` depending on the series'
variable family.  A :class:`TruncSeries` keeps the terms of weighted degree at
most ``order`` in one integer store: the prime key prod_i prime(i)^e_i of
each monomial x_1^e_1 x_2^e_2 ... (1 for the constant) mapped to a nonzero
integer numerator, over one denominator D >= 1 with gcd(D, *numerators) = 1.
So the store is canonical, ``==`` compares it plainly, and a monomial
product is one integer product.  :func:`_prime_keys`, the one partition
enumerator and the one map between keys and partitions (no key is
factored), lists the keys by weight, order N's table being order N - 1's
plus one row: :func:`partitions_of` reads a row, every kernel reads keys
from it through :func:`_pieces` (the numerators by weight), and so does the
partition-keyed reader :func:`_parts`; both stop at the heaviest term, and
``homogeneous_part``, :func:`_from_parts` and :func:`substitute` build only
the rows they read.  Other modules go through :func:`_from_parts` and
:func:`_parts`, or multiply keys of :func:`_variable_key`.  :func:`_monomial`
spells a partition (x_1^2 x_3 is (3, 1, 1)) for ``terms``, rendering and
:func:`mono`.  All arithmetic
is exact: one rule, :func:`_fraction`, admits an ``int`` that is not a
``bool``, or a ``Fraction``, and every coefficient,
scalar of ``+``, ``-``, ``*`` or ``==`` and factor passes through it, so a
float, a numeric string, a ``Decimal`` or ``True`` raises TypeError.  The
product is the plain truncated product :func:`_product` of the stored
numerators over D_1 D_2, the double loop that the KP residuals of
:func:`_derivative_form` run too; they read each derivative through one
cached plan per order and row, :func:`_derivative_plan`: columns of key,
source key and factor.  :func:`substitute` builds each partition's factor product
from its prefix in the key table and reduces once.  Only exp and log use
the exponential grading of :func:`_graded`, weight w held as w! E^w times
its part (E is 1 for the all-graphs series), where they are binomial
convolutions (Stanley, *EC2* 5.1); :func:`_exp` is exp's recurrence with a
power of a base per term, at base 2 the graphical exponential that builds
both the all-graphs series of :mod:`graphkp.ensemble` and the reference tau
of :mod:`graphkp.schurkp`.  One lcm-sum, :func:`_sum`, ends ``+``, exp and
log: one lcm over the parts' denominators and one gcd.  Only ``terms``,
``coefficient`` and ``constant_term`` build a ``Fraction``.

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
from itertools import islice
from math import comb, factorial, gcd, lcm, perm, prod
from typing import Iterable, Mapping

from graphkp.errors import DEFAULT_ORDER, LIMITS, check_limit, first_primes

MAX_ORDER = LIMITS["order"].cap

Monomial = tuple[tuple[int, int], ...]
Partition = tuple[int, ...]


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


#: prime(i) at index i - 1: x_i^e contributes prime(i)^e to a prime key.
_PRIMES = first_primes(MAX_ORDER)


def _variable_key(i: int) -> int:
    return _PRIMES[i - 1]  # the prime key of x_i


@lru_cache(maxsize=None)
def _prime_keys(order: int) -> tuple[tuple[tuple[Partition, int], ...], ...]:
    """Per weight w <= order, each weakly decreasing partition mu of w,
    largest first part first, paired with its prime key prod_j prime(mu_j):
    the one partition enumerator.  It is the table of order - 1 plus the row
    of weight ``order``, where the partitions with first part f are (f, *nu)
    keyed prime(f) key(nu), for each nu of weight order - f with no part
    above f; so every order shares its rows with every lower one."""
    if not order:
        return ((((), 1),),)
    table = _prime_keys(order - 1)
    return table + (tuple([((f, *nu), _PRIMES[f - 1] * k) for f in range(order, 0, -1)
                           for nu, k in table[order - f] if not nu or nu[0] <= f]),)


def partitions_of(w: int) -> tuple[Partition, ...]:
    """Weakly decreasing partitions of w, largest first part first: row w
    of :func:`_prime_keys`."""
    return tuple([mu for mu, _ in _prime_keys(check_limit("order", w))[w]])


@lru_cache(maxsize=None)
def _monomial(mu: Partition) -> Monomial:
    """The monomial of a partition: (3, 1, 1) is x_1^2 x_3, ((1, 2), (3, 1))."""
    return tuple([(i, mu.count(i)) for i in sorted(set(mu))])


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
    pairs = list(exponents.items() if isinstance(exponents, Mapping) else exponents)
    if _key(pairs, MAX_ORDER) is None:
        raise ValueError(f"monomial weight exceeds the largest order {MAX_ORDER}")
    return _monomial(tuple(sorted([i for i, e in pairs for _ in range(e)], reverse=True)))


def _ratio(n: int, den: int) -> Fraction:
    return Fraction(n, den) if den > 1 else Fraction(n)


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
        return {_monomial(mu): _ratio(n, self._den) for part in _parts(self)[0]
                for mu, n in part.items()}

    @property
    def constant_term(self) -> Fraction:
        return _ratio(self._nums.get(1, 0), self._den)

    def coefficient(self, m) -> Fraction:
        """Coefficient of a monomial; querying beyond the order is an error."""
        k = _key(m, self.order)
        if k is None:
            raise ValueError(f"monomial weight exceeds truncation order {self.order}")
        return _ratio(self._nums.get(k, 0), self._den)

    def homogeneous_part(self, weight: int) -> "TruncSeries":
        """The terms of one weight; a weight above the order is an error."""
        check_limit("order", self.order, low=check_limit("order", weight))
        get = self._nums.get
        return TruncSeries._reduced(self.order, self.var, {
            k: n for _, k in _prime_keys(weight)[weight] if (n := get(k))}, self._den)

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
        return _sum(self.order, self.var, [self._nums, other._nums], [self._den, other._den])

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
        out = {}
        _product(out, _pieces(self), _pieces(other), self.order)
        return TruncSeries._reduced(self.order, self.var, out, self._den * other._den)

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
        """(monomial, numerator, denominator) per term, reduced, in rendering order."""
        parts, den = _parts(self)
        for part in parts:
            for mu in sorted(part, key=lambda mu: mu[::-1]):
                g = gcd(n := part[mu], den)
                yield _monomial(mu), n // g, den // g

    def text(self) -> str:
        """Canonical plain-text rendering, e.g. ``q1^3 + 3 q1 q2 + 2 q3``."""
        if not self._nums:
            return "0"
        out = []
        for m, n, d in self._printed():
            mag = f"{abs(n)}/{d}" if d > 1 else str(abs(n))
            body = _mono_text(m, self.var)
            term = f"{mag} {body}" if body and mag != "1" else body or mag
            out.append((" - " if n < 0 else " + ") + term)
        # every term carries its sign as " + " or " - "; the first keeps only "-"
        text = "".join(out)
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def to_json_obj(self) -> dict:
        return {"var": self.var, "order": self.order, "terms": [
            {"exponents": {str(var): exp for var, exp in m},
             "numerator": n, "denominator": d} for m, n, d in self._printed()]}

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
    """The partition-keyed reader: :func:`_pieces` keyed by partition, and
    the one denominator."""
    get, left, parts = s._nums.get, len(s._nums), []
    for w in range(s.order + 1):
        parts.append({mu: n for mu, k in _prime_keys(w)[w] if (n := get(k))} if left else {})
        left -= len(parts[-1])
    return parts, s._den


def _from_parts(order: int, var: str, parts: Mapping[Partition, int], den: int) -> TruncSeries:
    """The partition-keyed entry point: sum_mu parts[mu] x_mu / den, den >= 1;
    a zero, or a partition heavier than the order, is dropped."""
    get, top = parts.get, min(order, max(map(sum, parts), default=0))
    return TruncSeries._reduced(order, var, {
        k: n for pairs in _prime_keys(top) for mu, k in pairs if (n := get(mu))}, den)


def _pieces(a: TruncSeries) -> list[dict[int, int]]:
    """The numerators of ``a`` by weight 0..order, keyed by prime key: the one
    per-weight reader of the store.  It reads rows 0, 1, ... of the key table
    only until it has found every key, and pads the heavier weights with {}."""
    get, left, pieces = a._nums.get, len(a._nums), []
    for w in range(a.order + 1):
        pieces.append({k: n for _, k in _prime_keys(w)[w] if (n := get(k))} if left else {})
        left -= len(pieces[-1])
    return pieces


def _graded(a: TruncSeries) -> tuple[list[int], list[dict[int, int]]]:
    """The exponential grading of ``a`` for :func:`_exp` and :func:`log`:
    scales[w] = w! E^w for w <= order, E the least integer making every
    w! E A_w integral, and piece w the integers scales[w] A_w by prime key."""
    pieces = _pieces(a)
    E = lcm(*[a._den // gcd(a._den, factorial(w) * gcd(*piece.values()))
              for w, piece in enumerate(pieces) if piece])
    scales = [factorial(w) * E ** w for w in range(a.order + 1)]
    return scales, [{k: n * scale // a._den for k, n in piece.items()}
                    for scale, piece in zip(scales, pieces)]


def _sum(order: int, var: str, pieces: list[dict], dens: list[int]) -> TruncSeries:
    """The series sum_i pieces[i] / dens[i] (zeros may be left in the
    pieces), over the lcm of the dens of the nonempty pieces, reduced once:
    the one lcm-sum, which ends ``+``, :func:`_exp` and :func:`log`."""
    den = lcm(*[d for piece, d in zip(pieces, dens) if piece])
    nums: dict[int, int] = {}
    get = nums.get
    for piece, d in zip(pieces, dens):
        f = den // d
        for k, c in piece.items():
            nums[k] = get(k, 0) + c * f
    return TruncSeries._reduced(order, var, nums, den)


def _product(acc: dict, left: list[dict], right: list[dict], order: int, f: int = 1) -> None:
    """acc += f L R through weight ``order``, for L and R given as pieces by
    weight 0, 1, ... keyed by prime keys: the one truncated product, of the
    store's own numerators (no grading), for ``*`` and the KP residuals."""
    for w, x in enumerate(left):
        for y in right[:order - w + 1]:
            _add_product(acc, x, y, f)


def _add_product(acc: dict, x: dict, y: dict, f: int) -> None:
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
    exp, since C(n,2) = C(k,2) + C(n-k,2) + k(n-k): the all-graphs series
    from its blocks, and the reference tau from 2^C(n,2) p_n / n."""
    if a.constant_term:
        raise ValueError("exp requires a zero constant term")
    scales, pieces = _graded(a)
    out = [{1: 1}]
    for n in range(1, a.order + 1):
        acc = {}
        for k in range(1, n + 1):
            _add_product(acc, pieces[k], out[n - k], comb(n - 1, k - 1) * base ** (k * (n - k)))
        out.append(acc)
    return _sum(a.order, a.var, out, scales)


def log(a: TruncSeries) -> TruncSeries:
    """Logarithm of a series with constant term 1; inverse of :func:`exp`.

    The same recurrence solved for L = log(A) is, in the same grading,
    l_n = a_n - sum_{k=1}^{n-1} C(n-1, k-1) l_k a_{n-k}.
    """
    if a.constant_term != 1:
        raise ValueError("log requires constant term 1")
    scales, pieces = _graded(a)
    out = [{}]
    for n in range(1, a.order + 1):
        acc = dict(pieces[n])
        for k in range(1, n):
            _add_product(acc, out[k], pieces[n - k], -comb(n - 1, k - 1))
        out.append(acc)
    return _sum(a.order, a.var, out, scales)


@lru_cache(maxsize=None)
def _derivative_plan(order: int, v: Partition) -> tuple[tuple, ...]:
    """The derivative by p_v1 ... p_vk as columns over every mu of weight <= order,
    in the order of the key table: key(mu), the source key key(mu) key(v) and
    the factor prod_i (m_i + 1) ... (m_i + t_i), m_i and t_i the multiplicities
    of i in mu and v (see :mod:`graphkp.schurkp`); then the number of mu of
    each weight.  Columns, not a tuple per mu: a plan at order 26 then makes
    no objects per mu for the garbage collector."""
    table = _prime_keys(order)
    pairs = [pair for row in table for pair in row]
    keys = tuple([k for _, k in pairs])
    factors = [1] * len(pairs)
    for i in set(v):
        t = v.count(i)
        rising = [perm(m + t, t) for m in range(order + 1)]
        factors = [f * rising[mu.count(i)] for f, (mu, _) in zip(factors, pairs)]
    kv = prod([_PRIMES[i - 1] for i in v])
    return keys, tuple(map(kv.__mul__, keys)), tuple(factors), tuple(map(len, table))


def _derivative(G: dict, plan: tuple) -> list[dict]:
    """The pieces by weight of the derivative of G that ``plan`` lists, keyed
    by prime keys like G, each coefficient one lookup times its factor."""
    keys, sources, factors, sizes = plan
    get, terms = G.get, zip(keys, sources, factors)
    return [{k: x * f for k, src, f in islice(terms, n) if (x := get(src))} for n in sizes]


def _derivative_form(F: TruncSeries, order: int, scale: int, linear: dict,
                     bilinear: dict) -> TruncSeries:
    """(sum_v a_v D G_v + sum_(u, v) b_uv G_u G_v) / (scale D^2) through
    weight ``order``, for G = D F the stored numerators of F over its one
    denominator D, G_v the derivative of G by p_v1 ... p_vk, and rows
    v -> a_v, (u, v) -> b_uv.  The linear rows are one pass over their
    plans, times D once; each bilinear row is one :func:`_product` of two
    derivatives read from the same plans; the sum is reduced once."""
    G, den = F._nums, F._den
    get = G.get
    lin: dict[int, int] = {}
    put = lin.get
    for v, a in linear.items():
        keys, sources, factors, _ = _derivative_plan(order, v)
        for k, src, f in zip(keys, sources, factors):
            if x := get(src):
                lin[k] = put(k, 0) + a * f * x
    out = {k: x * den for k, x in lin.items()}
    for (u, v), b in bilinear.items():
        left = _derivative(G, _derivative_plan(order, u))
        right = left if u == v else _derivative(G, _derivative_plan(order, v))
        _product(out, left, right, order, b)
    return TruncSeries._reduced(order, "p", out, scale * den * den)


def substitute(a: TruncSeries, factors) -> TruncSeries:
    """Rescale variables, x_i -> factor_i * p_i, keeping weights unchanged.

    ``factors`` maps variable indices to nonzero rationals, as a rescaling
    plan does.  Every variable appearing in ``a`` must have a factor.  Each
    partition's factor N/M is built once, up to the heaviest term, from its
    prefix mu[1:], listed first by :func:`_prime_keys`, whose rows it reads
    only that far; a numerator x that M divides becomes (x / M) N, any other
    x N over M, and all are reduced once.
    """
    ratios = {i: _fraction(f).as_integer_ratio() for i, f in factors.items()}
    pieces, fac = _pieces(a), {1: (1, 1)}
    for w in range(1, max([w for w, piece in enumerate(pieces) if piece], default=0) + 1):
        for mu, k in _prime_keys(w)[w]:
            n, d = ratios.get(mu[0], (0, 1))
            fn, fd = fac[k // _PRIMES[mu[0] - 1]]
            fac[k] = fn, fd = n * fn, d * fd
            if not fn and k in pieces[w]:
                i = next(i for i in mu if not ratios.get(i, (0, 1))[0])
                raise ValueError(f"no nonzero rescale factor for variable {i}")
    terms = {}
    for k, x in a._nums.items():
        n, d = fac[k]
        q, r = divmod(x, d)
        terms[k] = (x * n, d) if r else (q * n, 1)
    den = lcm(*[d for _, d in terms.values()])
    return TruncSeries._reduced(a.order, "p", {k: n * (den // d) for k, (n, d) in terms.items()},
                                a._den * den)
