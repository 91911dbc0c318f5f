"""Exact arithmetic in the field Q(q) of rational functions in one variable q.

Scalars are ratios of Laurent polynomials with rational coefficients.  A
coefficient is stored as an ``int`` when it is integral and as a
``Fraction`` otherwise; a ``float`` coefficient is refused with
``TypeError``.  Sums and products may leave an integral ``Fraction`` in place,
which is harmless because ``2 == Fraction(2)`` and both hash alike.  The
evaluation backend evaluates exact scalars at seeded rational points q = p
(see :func:`eval_points`) with :meth:`QScalar.eval_at`.  No floating point
is used anywhere.

A scalar is kept in canonical form (see :class:`QScalar`).  The reduction to
it, a gcd over Q[q], is memoised per unreduced ``(num, den)`` pair in a
bounded LRU cache (:func:`_canonical`), because the scalars of one
computation repeat a few hundred quotients many thousand times.  A product
with a unit factor ``c*q^k`` skips the reduction: a unit of Q[q, 1/q]
changes neither the gcd of numerator and denominator nor the denominator,
so the product of a unit and a canonical scalar is canonical.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class DivisionByZero(ZeroDivisionError):
    pass


class PoleAtPoint(ArithmeticError):
    """Raised when a scalar is evaluated at a zero of its denominator."""


def _norm(v):
    """An exact coefficient: ``int`` if integral, else ``Fraction``."""
    if type(v) is int:
        return v
    if isinstance(v, float):
        raise TypeError(f"inexact coefficient {v!r}: use an int or a Fraction")
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _div(a, b):
    """The exact quotient of two coefficients (a bare ``/`` of ints is a float)."""
    return _norm(Fraction(a, b))


class LaurentPoly:
    """A Laurent polynomial sum(c_k * q^k) stored as {k: c_k}, no zero c_k.

    Instances are immutable by convention: no method mutates self after
    construction, and every ``c`` is assigned before the value is used, so
    the hash is computed on first use and kept in ``_hash``.
    """

    __slots__ = ("c", "_hash")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                v = _norm(v)
                if v:
                    c[k] = v
        self.c = c

    @staticmethod
    def const(v) -> "LaurentPoly":
        return LaurentPoly({0: v})

    @staticmethod
    def q_power(k: int, coeff=1) -> "LaurentPoly":
        return LaurentPoly({k: coeff})

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.c == other.c

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(frozenset(self.c.items()))
            return h

    def __add__(self, other):
        c = dict(self.c)
        for k, v in other.c.items():
            w = c.get(k, 0) + v
            if w:
                c[k] = w
            else:
                c.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.c = c
        return out

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.c = {k: -v for k, v in self.c.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.c or not other.c:
            return LaurentPoly()
        c = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = k1 + k2
                w = c.get(k, 0) + v1 * v2
                if w:
                    c[k] = w
                else:
                    c.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.c = c
        return out

    def scale(self, v) -> "LaurentPoly":
        v = _norm(v)
        if not v:
            return LaurentPoly()
        out = LaurentPoly.__new__(LaurentPoly)
        out.c = {k: _norm(cv * v) for k, cv in self.c.items()}
        return out

    def shift(self, d: int) -> "LaurentPoly":
        """Multiply by q^d."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.c = {k + d: v for k, v in self.c.items()}
        return out

    def min_exp(self) -> int:
        return min(self.c)

    def max_exp(self) -> int:
        return max(self.c)

    def eval_at(self, x: Fraction) -> Fraction:
        total = Fraction(0)
        for k, v in self.c.items():
            total += v * x**k
        return total

    def __str__(self):
        if not self.c:
            return "0"
        parts = []
        for k in sorted(self.c, reverse=True):
            v = self.c[k]
            sign = "-" if v < 0 else "+"
            av = -v if v < 0 else v
            if k == 0:
                body = str(av)
            else:
                qp = "q" if k == 1 else f"q^{k}"
                body = qp if av == 1 else f"{av}*{qp}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    __repr__ = __str__


def _poly_divmod(a: LaurentPoly, b: LaurentPoly):
    """Division with remainder for ordinary polynomials (min_exp >= 0)."""
    r = dict(a.c)
    db = b.max_exp()
    lb = b.c[db]
    quo = {}
    while r:
        dr = max(r)
        if dr < db:
            break
        f = _div(r[dr], lb)
        quo[dr - db] = f
        for k, v in b.c.items():
            kk = k + dr - db
            w = r.get(kk, 0) - f * v
            if w:
                r[kk] = w
            else:
                r.pop(kk, None)
    return LaurentPoly(quo), LaurentPoly(r)


def lp_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd over Q[q] of the polynomial parts (units q^k discarded)."""
    a = a.shift(-a.min_exp()) if a else a
    b = b.shift(-b.min_exp()) if b else b
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, (r.shift(-r.min_exp()) if r else r)
    if not a:
        return LaurentPoly.const(1)
    return a.scale(_div(1, a.c[a.max_exp()]))


_ONE_LP = LaurentPoly.const(1)


@lru_cache(maxsize=4096)
def _canonical(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """The canonical ``(num, den)`` of ``num/den`` (nonzero num, den not 1).

    Memoised per unreduced pair in a bounded cache that holds only
    LaurentPoly values, which no method mutates.
    """
    d0 = den.min_exp()
    if len(den.c) == 1:
        # unit denominator c*q^d0
        return num.shift(-d0).scale(_div(1, den.c[d0])), _ONE_LP
    n0 = num.min_exp()
    a = num.shift(-n0)
    b = den.shift(-d0)
    g = lp_gcd(a, b)
    if g.c != _ONE_LP.c:
        a, _ = _poly_divmod(a, g)
        b, _ = _poly_divmod(b, g)
    num = a.shift(n0 - d0)
    den = b
    lo = den.c[den.min_exp()]
    if lo != 1:
        inv = _div(1, lo)
        num = num.scale(inv)
        den = den.scale(inv)
    if den.c == _ONE_LP.c:
        den = _ONE_LP
    return num, den


class QScalar:
    """Element of Q(q) in canonical form.

    Canonical form: gcd(num, den) = 1 over Q[q, 1/q], the denominator has
    minimal exponent 0 and its lowest coefficient is 1.  Equality is then
    plain structural comparison.  A denominator of 1 embeds LaurentPoly and
    enables fast-path arithmetic.  Any other pair is reduced by
    :func:`_canonical`, which is memoised per unreduced ``(num, den)`` pair
    in a bounded LRU cache.  A product with a unit factor ``c*q^k`` is not
    reduced at all, since a unit changes neither gcd(num, den) nor the
    denominator (see :meth:`__mul__`).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = _ONE_LP):
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if den.c == _ONE_LP.c or num.is_zero():
            self.num, self.den = num, _ONE_LP
            return
        self.num, self.den = _canonical(num, den)

    @staticmethod
    def from_poly(p: LaurentPoly) -> "QScalar":
        out = QScalar.__new__(QScalar)
        out.num, out.den = p, _ONE_LP
        return out

    @staticmethod
    def const(v) -> "QScalar":
        return QScalar.from_poly(LaurentPoly.const(v))

    @staticmethod
    def q_power(k: int, coeff=1) -> "QScalar":
        return QScalar.from_poly(LaurentPoly.q_power(k, coeff))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if self.den is _ONE_LP and other.den is _ONE_LP:
            return QScalar.from_poly(self.num + other.num)
        if self.den == other.den:
            return QScalar(self.num + other.num, self.den)
        return QScalar(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other):
        if self.den is _ONE_LP and other.den is _ONE_LP:
            return QScalar.from_poly(self.num - other.num)
        if self.den == other.den:
            return QScalar(self.num - other.num, self.den)
        return QScalar(self.num * other.den - other.num * self.den,
                       self.den * other.den)

    def __neg__(self):
        out = QScalar.__new__(QScalar)
        out.num, out.den = -self.num, self.den
        return out

    def __mul__(self, other):
        """The product; a unit factor c*q^k skips the reduction.

        If one factor is a unit u = c*q^k of Q[q, 1/q] (denominator 1, one
        term) and the other is a nonzero canonical num/den, the product
        (u*num)/den is already canonical: u changes neither gcd(num, den)
        nor the denominator, so den keeps minimal exponent 0 and lowest
        coefficient 1.
        """
        if self.den is _ONE_LP and other.den is _ONE_LP:
            return QScalar.from_poly(self.num * other.num)
        # a factor whose den is not 1 is nonzero, as canonical zero has den 1
        if self.den is _ONE_LP and len(self.num.c) == 1:
            den = other.den
        elif other.den is _ONE_LP and len(other.num.c) == 1:
            den = self.den
        else:
            return QScalar(self.num * other.num, self.den * other.den)
        out = QScalar.__new__(QScalar)
        out.num, out.den = self.num * other.num, den
        return out

    def __truediv__(self, other):
        if other.is_zero():
            raise DivisionByZero("division by zero scalar")
        return QScalar(self.num * other.den, self.den * other.num)

    def invert(self) -> "QScalar":
        if self.is_zero():
            raise DivisionByZero("cannot invert zero")
        return QScalar(self.den, self.num)

    def eval_at(self, point: "EvalPoint") -> Fraction:
        x = point.value
        d = self.den.eval_at(x)
        if d == 0:
            raise PoleAtPoint(f"denominator vanishes at q={x}")
        return self.num.eval_at(x) / d

    def __str__(self):
        if self.den is _ONE_LP or self.den == _ONE_LP:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


ZERO = QScalar.from_poly(LaurentPoly())
ONE = QScalar.const(1)
MINUS_ONE = QScalar.const(-1)
Q = QScalar.q_power(1)
QINV = QScalar.q_power(-1)


def qpow(k: int, coeff=1) -> QScalar:
    return QScalar.q_power(k, coeff)


def qint(n: int) -> QScalar:
    """The q-integer [n] = (q^n - q^-n)/(q - q^-1), antisymmetric in n."""
    if n == 0:
        return ZERO
    sign = 1 if n > 0 else -1
    n = abs(n)
    # q^(n-1) + q^(n-3) + ... + q^(1-n)
    return QScalar.from_poly(LaurentPoly({n - 1 - 2 * i: sign for i in range(n)}))


class EvalPoint:
    """A generic rational evaluation point q = value with value not in {0, 1, -1}."""

    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, float):
            raise TypeError(f"inexact evaluation point {value!r}: use a Fraction")
        value = Fraction(value)
        if value == 0 or value == 1 or value == -1:
            raise ValueError("evaluation point must avoid 0 and |value| = 1")
        self.value = value

    def __repr__(self):
        return f"EvalPoint({self.value})"

    def __eq__(self, other):
        return isinstance(other, EvalPoint) and self.value == other.value

    def __hash__(self):
        return hash(self.value)


def eval_points(seed: int, count: int = 3) -> list[EvalPoint]:
    """Seeded generic rational points p/p' with 2 <= p, p' <= 97, |value| != 1."""
    import random

    rng = random.Random(seed)
    points = []
    seen = set()
    while len(points) < count:
        p = rng.randint(2, 97)
        pp = rng.randint(2, 97)
        v = Fraction(p, pp)
        if v == 1 or v in seen:
            continue
        seen.add(v)
        points.append(EvalPoint(v))
    return points
