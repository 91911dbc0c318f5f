from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mixedchain.qarith import (
    MINUS_ONE,
    ONE,
    Q,
    QINV,
    ZERO,
    DivisionByZero,
    EvalPoint,
    LaurentPoly,
    PoleAtPoint,
    QScalar,
    _div,
    _ONE_LP,
    _poly_divmod,
    eval_points,
    lp_gcd,
    qint,
    qpow,
)


def test_qint_small_values():
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert qint(2) == Q + QINV
    assert qint(-3) == -(qpow(2) + ONE + qpow(-2))
    assert qint(-5) == -qint(5)


def test_qint_closed_form():
    for n in range(1, 9):
        expected = ZERO
        for i in range(n):
            expected = expected + qpow(n - 1 - 2 * i)
        assert qint(n) == expected


def test_telescoping_product():
    assert (Q - QINV) * qint(2) == qpow(2) - qpow(-2)


def test_reduction_to_canonical_form():
    num = LaurentPoly({2: 1, 0: -1})   # q^2 - 1
    den = LaurentPoly({1: 1, 0: -1})   # q - 1
    assert QScalar(num, den) == Q + ONE


def test_x_over_x_is_one():
    x = qint(7) * qpow(-3) - QScalar.const(Fraction(2, 5))
    assert x / x == ONE


def test_scalar_ops_inverse_pairs():
    x = qint(3) * qpow(-2) + QScalar.const(Fraction(3, 7))
    y = Q + qpow(-3)
    assert x - x == ZERO
    assert -(-x) == x
    assert (x / y) * y == x
    assert y.invert() * y == ONE
    assert x + ZERO == x and x * ONE == x


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ONE / ZERO
    with pytest.raises(DivisionByZero):
        ZERO.invert()


def test_eval_at_examples():
    p2 = EvalPoint(2)
    assert qint(2).eval_at(p2) == Fraction(5, 2)
    assert qpow(3).eval_at(EvalPoint(Fraction(3, 2))) == Fraction(27, 8)
    pole = (ONE / (Q - QScalar.const(2)))
    with pytest.raises(PoleAtPoint):
        pole.eval_at(p2)


def test_eval_point_guards():
    for bad in (0, 1, -1):
        with pytest.raises(ValueError):
            EvalPoint(bad)


def test_eval_points_seeded_and_generic():
    pts = eval_points(seed=7)
    assert pts == eval_points(seed=7)
    assert len({p.value for p in pts}) == 3
    for p in pts:
        assert p.value not in (0, 1, -1)


def test_qint_addition_identity():
    # [n+m](q - 1/q) = q^m [n](q - 1/q) + q^-n [m](q - 1/q)
    d = Q - QINV
    for n in range(-20, 21):
        for m in range(-20, 21):
            lhs = qint(n + m) * d
            rhs = qpow(m) * qint(n) * d + qpow(-n) * qint(m) * d
            assert lhs == rhs


scalars = st.builds(
    lambda c, e, d: qpow(e, c) + qpow(0, d),
    st.fractions(min_value=-5, max_value=5),
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-5, max_value=5),
)


@settings(max_examples=300, deadline=None)
@given(scalars, scalars, st.integers(min_value=0, max_value=2))
def test_eval_is_ring_homomorphism(a, b, pidx):
    point = eval_points(seed=13)[pidx]
    assert (a + b).eval_at(point) == a.eval_at(point) + b.eval_at(point)
    assert (a * b).eval_at(point) == a.eval_at(point) * b.eval_at(point)


@settings(max_examples=200, deadline=None)
@given(scalars, scalars)
def test_canonical_form_idempotent(a, b):
    if b.is_zero():
        b = ONE
    x = a / b
    again = QScalar(x.num, x.den)
    assert again.num == x.num and again.den == x.den
    if not x.is_zero():
        assert x.den.min_exp() == 0
        assert x.den.c[0] == 1


def test_rendering():
    assert str(qpow(2) + ONE + qpow(-2)) == "q^2 + 1 + q^-2"
    assert str(-qint(2)) == "-q - q^-1"
    assert str(QScalar.const(Fraction(1, 2)) * Q) == "1/2*q"
    assert str(ZERO) == "0"
    x = ONE / (Q + ONE)
    assert str(x) == "(1)/(q + 1)"


def test_minus_one_constant():
    assert MINUS_ONE * MINUS_ONE == ONE


def _coefficients(*values):
    for v in values:
        polys = (v.num, v.den) if isinstance(v, QScalar) else (v,)
        for p in polys:
            yield from p.c.values()


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        LaurentPoly({0: 0.1})
    with pytest.raises(TypeError):
        QScalar.const(0.1)
    with pytest.raises(TypeError):
        qpow(2, 0.5)
    with pytest.raises(TypeError):
        EvalPoint(0.5)


def test_integral_coefficients_are_ints():
    assert type(LaurentPoly({0: Fraction(4, 2)}).c[0]) is int
    assert type(QScalar.const(Fraction(-6, 3)).num.c[0]) is int
    x = QScalar(LaurentPoly({1: 2, 0: 4}), LaurentPoly({0: 2}))
    assert all(type(c) is int for c in _coefficients(x))


def test_int_and_integral_fraction_coefficients_agree():
    # sums and products may leave an integral Fraction in place of an int
    half = LaurentPoly({0: Fraction(1, 2), 3: Fraction(-5, 2)})
    made = half + half
    assert made.c == {0: 1, 3: -5} and type(made.c[0]) is Fraction
    for k in (-4, -1, 1, 2, 5):
        for e in (-2, 0, 3):
            as_int = LaurentPoly({e: k, e + 1: 1})
            as_frac = LaurentPoly.__new__(LaurentPoly)
            as_frac.c = {e: Fraction(k), e + 1: Fraction(1)}
            assert as_int == as_frac and hash(as_int) == hash(as_frac)
            assert str(as_int) == str(as_frac)
            a, b = QScalar.from_poly(as_int), QScalar.from_poly(as_frac)
            assert a == b and hash(a) == hash(b) and str(a) == str(b)
            den = LaurentPoly({0: 1, 1: 1})
            a, b = QScalar(as_int, den), QScalar(as_frac, den)
            assert a == b and hash(a) == hash(b) and str(a) == str(b)


exact_coeffs = st.one_of(st.integers(min_value=-6, max_value=6),
                         st.fractions(min_value=-5, max_value=5, max_denominator=7))
polys = st.dictionaries(st.integers(min_value=-4, max_value=4), exact_coeffs,
                        min_size=1, max_size=4).map(LaurentPoly).filter(bool)


@settings(max_examples=200, deadline=None)
@given(polys, polys, polys)
def test_coefficients_stay_exact(a, b, c):
    # QScalar(num, den) canonicalises through lp_gcd whenever den is not a unit
    x = QScalar(a, b)
    y = QScalar(c, b + c) if b + c else QScalar.from_poly(c)
    values = [x, y, x + y, x - y, x * y, -x, x / y, y.invert(),
              lp_gcd(b, c), lp_gcd(a, b * c)]
    for v in _coefficients(*values):
        assert type(v) in (int, Fraction), v


def _reference_canonical(num, den):
    """The reduction of QScalar(num, den) as it was before it was memoised."""
    if den.c == _ONE_LP.c:
        return num, _ONE_LP
    if num.is_zero():
        return num, _ONE_LP
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


def _assert_matches_reference(x, num, den):
    ref_num, ref_den = _reference_canonical(num, den)
    assert x.num.c == ref_num.c and x.den.c == ref_den.c, (x, ref_num, ref_den)
    for v in _coefficients(x):
        assert type(v) in (int, Fraction), v


# a small pool of common factors makes repeated (num, den) pairs likely,
# so memo hits are exercised as well as misses
common = st.sampled_from([LaurentPoly({0: 1}), LaurentPoly({1: 1, 0: -1}),
                          LaurentPoly({2: 1, 0: 1, -2: 1}),
                          LaurentPoly({1: Fraction(2, 3), -1: 3})])
unit_polys = st.builds(lambda c, k: LaurentPoly({k: c}),
                       exact_coeffs.filter(bool), st.integers(min_value=-5, max_value=5))


@settings(max_examples=300, deadline=None)
@given(polys, st.one_of(polys, unit_polys), common)
@example(LaurentPoly({2: 1, 0: -1}), LaurentPoly({1: 1, 0: -1}), LaurentPoly({0: 1}))
@example(LaurentPoly({-3: Fraction(1, 2)}), LaurentPoly({2: Fraction(-4, 3)}),
         LaurentPoly({0: 1}))
def test_memoised_reduction_matches_reference(a, b, g):
    num, den = a * g, b * g
    for _ in range(2):  # the second round is a memo hit
        _assert_matches_reference(QScalar(num, den), num, den)
    # an equal pair built afresh hits the memo through equality
    again = (LaurentPoly(dict(num.c)), LaurentPoly(dict(den.c)))
    _assert_matches_reference(QScalar(*again), *again)


def test_zero_denominator_raises_after_memo():
    num = LaurentPoly({3: 2, -1: Fraction(1, 5)})
    den = LaurentPoly({1: 1, 0: 2})
    QScalar(num, den)
    QScalar(num, den)
    with pytest.raises(DivisionByZero):
        QScalar(num, LaurentPoly())


@settings(max_examples=300, deadline=None)
@given(unit_polys, polys, st.one_of(polys, unit_polys), st.booleans())
@example(LaurentPoly({2: 3}), LaurentPoly({0: 1}), LaurentPoly({1: 1, 0: 1}), False)
def test_unit_factor_product_is_canonical(u, a, b, zero):
    # c*q^k times a canonical scalar equals the reduced generic product
    unit = QScalar.from_poly(u)
    x = ZERO if zero else QScalar(a, b)
    for got in (unit * x, x * unit):
        _assert_matches_reference(got, unit.num * x.num, unit.den * x.den)


@settings(max_examples=300, deadline=None)
@given(polys, polys, polys, common)
@example(LaurentPoly({0: 1}), LaurentPoly({1: 1}), LaurentPoly({2: 1, 0: -1}),
         LaurentPoly({0: 1}))
def test_equal_denominator_sums_match_cross_multiplied(a, c, d, g):
    # (a + c)/d, e.g. 1/(q^2-1) + q/(q^2-1) = 1/(q-1), equals the reduced
    # cross-multiplied form (a*d + c*d)/(d*d)
    x, y = QScalar(a, d * g), QScalar(c, d * g)
    assume(x.den == y.den and x.den is not _ONE_LP)
    _assert_matches_reference(x + y, x.num * y.den + y.num * x.den, x.den * y.den)
    _assert_matches_reference(x - y, x.num * y.den - y.num * x.den, x.den * y.den)
