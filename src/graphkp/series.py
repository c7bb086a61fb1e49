"""Exact truncated power series in weighted variables.

Series live in Q[x_1, x_2, ...] where the variable x_i carries weight i; they
are printed as ``q1, q2, ...`` or ``p1, p2, ...`` depending on the series'
variable family.  A :class:`TruncSeries` keeps the terms of weighted degree at
most ``order`` as a sparse map from monomials to ``fractions.Fraction``
coefficients.  All arithmetic is exact; floats are rejected outright.

A monomial is a tuple of ``(variable index, exponent)`` pairs sorted by
variable index, with zero exponents never stored; the empty tuple is the
constant monomial.  The canonical term order is graded (by weighted degree),
then lexicographic on dense exponent vectors with higher powers of x_1 first.
Rendering follows that order, which makes printed output byte-stable.

Derivatives shrink the truncation order: differentiating a series of order N
with respect to x_i leaves terms that are only reliable through weight N - i,
and the returned series carries that reduced order.  Nothing in this module
ever pads a series back up to a higher order.

Series are never mutated after construction; every operation returns a fresh
value, so results can be shared freely across threads and summed in any
association order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

MAX_ORDER = 12
DEFAULT_ORDER = 7

Monomial = tuple[tuple[int, int], ...]

#: The constant monomial.
UNIT: Monomial = ()


def _fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floating-point coefficients are not allowed")
    return value if isinstance(value, Fraction) else Fraction(value)


def _json_int(value, what: str) -> int:
    # bool is an int subclass, but true/false are not JSON integers
    if type(value) is not int:
        raise ValueError(f"malformed series object: {what} must be an integer, got {value!r}")
    return value


def mono(exponents: Mapping[int, int] | Iterable[tuple[int, int]]) -> Monomial:
    """Build a canonical monomial from {variable index: exponent} pairs."""
    items = exponents.items() if isinstance(exponents, Mapping) else exponents
    out = []
    for var, exp in sorted(items):
        var = int(var)
        exp = int(exp)
        if var < 1:
            raise ValueError(f"variable index must be >= 1, got {var}")
        if exp < 0:
            raise ValueError(f"negative exponent on variable {var}")
        if exp:
            out.append((var, exp))
    return tuple(out)


def mono_weight(m: Monomial) -> int:
    return sum(var * exp for var, exp in m)


def mono_key(m: Monomial):
    """Canonical sort key: graded, then lex on dense exponents, x1-heavy first."""
    top = m[-1][0] if m else 0
    dense = [0] * top
    for var, exp in m:
        dense[var - 1] = -exp
    return (mono_weight(m), dense)


def _mono_text(m: Monomial, var: str) -> str:
    return " ".join(f"{var}{i}" if e == 1 else f"{var}{i}^{e}" for i, e in m)


class TruncSeries:
    """Sparse exact multivariate series truncated at a weighted degree."""

    __slots__ = ("order", "var", "terms")

    def __init__(self, order: int = DEFAULT_ORDER, var: str = "q", terms=None):
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"truncation order must be in [0, {MAX_ORDER}], got {order}")
        if var not in ("q", "p"):
            raise ValueError(f"variable family must be 'q' or 'p', got {var!r}")
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if not isinstance(m, tuple):
                    m = mono(m)
                c = _fraction(c)
                if c and mono_weight(m) <= order:
                    clean[m] = c
        self.order = order
        self.var = var
        self.terms = clean

    @classmethod
    def _raw(cls, order: int, var: str, terms: dict) -> "TruncSeries":
        # internal fast path: terms must already be clean (no zeros, weights <= order)
        s = object.__new__(cls)
        s.order = order
        s.var = var
        s.terms = terms
        return s

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER, var: str = "q") -> "TruncSeries":
        return cls(order, var)

    @classmethod
    def constant(cls, value, order: int = DEFAULT_ORDER, var: str = "q") -> "TruncSeries":
        return cls(order, var, {UNIT: _fraction(value)})

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER, var: str = "q") -> "TruncSeries":
        return cls.constant(1, order, var)

    @classmethod
    def variable(cls, index: int, order: int = DEFAULT_ORDER, var: str = "q") -> "TruncSeries":
        return cls(order, var, {mono({index: 1}): Fraction(1)})

    # -- structure ---------------------------------------------------------

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get(UNIT, Fraction(0))

    def coefficient(self, m) -> Fraction:
        """Coefficient of a monomial; querying beyond the order is an error."""
        if not isinstance(m, tuple):
            m = mono(m)
        w = mono_weight(m)
        if w > self.order:
            raise ValueError(f"monomial weight {w} exceeds truncation order {self.order}")
        return self.terms.get(m, Fraction(0))

    def homogeneous_part(self, weight: int) -> "TruncSeries":
        return TruncSeries._raw(
            self.order, self.var,
            {m: c for m, c in self.terms.items() if mono_weight(m) == weight})

    def truncate(self, order: int) -> "TruncSeries":
        """Lower the truncation order, dropping heavier terms.  Never raises it."""
        if order > self.order:
            raise ValueError(f"cannot raise truncation order {self.order} to {order}")
        if order == self.order:
            return self
        return TruncSeries._raw(
            order, self.var,
            {m: c for m, c in self.terms.items() if mono_weight(m) <= order})

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} vs {other.order}")
        if self.var != other.var:
            raise ValueError(f"variable family mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.constant(other, self.order, self.var)
        elif not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return TruncSeries._raw(self.order, self.var, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._raw(self.order, self.var,
                                {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.constant(other, self.order, self.var)
        elif not isinstance(other, TruncSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _fraction(other)
            if not c:
                return TruncSeries._raw(self.order, self.var, {})
            return TruncSeries._raw(self.order, self.var,
                                    {m: c * v for m, v in self.terms.items()})
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_compatible(other)
        right = _graded(other)
        out = {}
        for w, piece in enumerate(_graded(self)):
            for y in right[:self.order - w + 1]:
                _add_product(out, piece, y)
        return TruncSeries._raw(self.order, self.var, {m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("series powers must be nonnegative integers")
        result = TruncSeries.one(self.order, self.var)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _fraction(other)
            return self.terms == ({UNIT: c} if c else {})
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.order == other.order and self.var == other.var
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    # -- rendering ---------------------------------------------------------

    def text(self) -> str:
        """Canonical plain-text rendering, e.g. ``q1^3 + 3 q1 q2 + 2 q3``."""
        if not self.terms:
            return "0"
        pieces = []
        for m in sorted(self.terms, key=mono_key):
            c = self.terms[m]
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

    def to_json_obj(self) -> dict:
        terms = []
        for m in sorted(self.terms, key=mono_key):
            c = self.terms[m]
            terms.append({
                "exponents": {str(var): exp for var, exp in m},
                "numerator": c.numerator,
                "denominator": c.denominator,
            })
        return {"var": self.var, "order": self.order, "terms": terms}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "TruncSeries":
        """Inverse of :meth:`to_json_obj`.  Every number must be a JSON
        integer and every exponent key a decimal integer string; anything
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
                    if not (isinstance(key, str) and key.isascii() and key.isdigit()):
                        raise ValueError(f"malformed series object: exponent key {key!r}")
                m = mono({int(k): _json_int(v, "exponent") for k, v in exps.items()})
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


def _graded(a: TruncSeries) -> list[dict[Monomial, Fraction]]:
    """The homogeneous pieces of a series, indexed by weight 0..order."""
    pieces = [{} for _ in range(a.order + 1)]
    for m, c in a.terms.items():
        pieces[mono_weight(m)][m] = c
    return pieces


def _add_product(acc: dict, x: dict, y: dict) -> None:
    """acc += x * y for homogeneous pieces x and y (zeros may be left in acc)."""
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            e = dict(m1)
            for var, exp in m2:
                e[var] = e.get(var, 0) + exp
            key = tuple(sorted(e.items()))
            acc[key] = acc.get(key, 0) + c1 * c2


def exp(a: TruncSeries) -> TruncSeries:
    """Exponential of a series with zero constant term.

    Weight by weight from the Euler recurrence: applying the weight operator
    to E = exp(A) gives n E_n = sum_{k=1}^{n} k A_k E_{n-k}, where X_n is
    the weight-n part of X and E_0 = 1.  Each step multiplies homogeneous
    pieces and builds only the terms of weight exactly n.
    """
    if a.constant_term:
        raise ValueError("exp requires a zero constant term")
    scaled = [{m: k * c for m, c in piece.items()} for k, piece in enumerate(_graded(a))]
    out = [{UNIT: Fraction(1)}]
    for n in range(1, a.order + 1):
        acc = {}
        for k in range(1, n + 1):
            _add_product(acc, scaled[k], out[n - k])
        out.append({m: c / n for m, c in acc.items() if c})
    return TruncSeries._raw(a.order, a.var, {m: c for piece in out for m, c in piece.items()})


def log(a: TruncSeries) -> TruncSeries:
    """Logarithm of a series with constant term 1; inverse of :func:`exp`.

    Weight by weight from the same recurrence solved for L = log(A):
    n L_n = n A_n - sum_{k=1}^{n-1} k L_k A_{n-k}, with L_0 = 0.  Each step
    multiplies homogeneous pieces and builds only the terms of weight
    exactly n.
    """
    if a.constant_term != 1:
        raise ValueError("log requires constant term 1")
    pieces = _graded(a)
    minus = [{m: -c for m, c in piece.items()} for piece in pieces]
    scaled = [{}]  # n L_n
    for n in range(1, a.order + 1):
        acc = {m: n * c for m, c in pieces[n].items()}
        for k in range(1, n):
            _add_product(acc, scaled[k], minus[n - k])
        scaled.append({m: c for m, c in acc.items() if c})
    return TruncSeries._raw(a.order, a.var, {m: c / n for n, piece in enumerate(scaled)
                                             for m, c in piece.items()})


def partial(a: TruncSeries, var_index: int, times: int = 1) -> TruncSeries:
    """Iterated formal derivative d^times/d(x_var_index)^times.

    The result's order is the weight through which it is reliable,
    ``a.order - times * var_index`` (floored at 0).
    """
    if var_index < 1:
        raise ValueError(f"variable index must be >= 1, got {var_index}")
    if times < 1:
        raise ValueError(f"derivative count must be >= 1, got {times}")
    new_order = max(0, a.order - times * var_index)
    out: dict[Monomial, Fraction] = {}
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
    return TruncSeries._raw(new_order, a.var, out)


def substitute(a: TruncSeries, factors, var: str = "p") -> TruncSeries:
    """Rescale variables, x_i -> factor_i * y_i, keeping weights unchanged.

    ``factors`` maps variable indices to nonzero rationals, as a rescaling
    plan does.  Every variable appearing in ``a`` must have a factor.
    """
    out: dict[Monomial, Fraction] = {}
    for m, c in a.terms.items():
        for i, e in m:
            f = factors.get(i)
            if f is None or f == 0:
                raise ValueError(f"no nonzero rescale factor for variable {i}")
            c = c * _fraction(f) ** e
        out[m] = c
    return TruncSeries._raw(a.order, var, out)


def evaluate(a: TruncSeries, values: Mapping[int, Fraction]) -> Fraction:
    """Evaluate at a rational point; every variable present needs a value."""
    total = Fraction(0)
    for m, c in a.terms.items():
        for i, e in m:
            if i not in values:
                raise ValueError(f"no value supplied for variable {i}")
            c = c * _fraction(values[i]) ** e
        total += c
    return total
