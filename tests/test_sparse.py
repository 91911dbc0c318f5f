from fractions import Fraction

import pytest

from mixedchain.qarith import ONE, Q, QINV, ZERO, QScalar, qint, qpow
from mixedchain.sparse import DiagonalMatrix, SparseMatrix


def _plain(diag: list) -> SparseMatrix:
    return SparseMatrix(len(diag), len(diag), {(i, i): v for i, v in enumerate(diag)})


DIAGONALS = {
    "qscalar": [qpow(2), ZERO, QINV, qint(3), ZERO, (Q - QINV).invert()],
    "fraction": [Fraction(1, 2), Fraction(0), Fraction(-3), Fraction(0), Fraction(5, 7)],
    "all-zero": [ZERO, ZERO, ZERO],
}


def _others(n: int, one) -> list[SparseMatrix]:
    """Plain matrices with n rows: square, wide, zero and the identity;
    their transposes have n columns."""
    two = one + one
    square = SparseMatrix(n, n, {(0, 1): one, (1, 1): two, (n - 1, 0): -one, (2, 2): one})
    wide = SparseMatrix(n, n + 2, {(0, n + 1): two, (1, 0): one, (n - 1, n): one})
    return [square, wide, SparseMatrix(n, n), SparseMatrix.identity(n, one)]


@pytest.mark.parametrize("kind", sorted(DIAGONALS))
def test_diagonal_matrix_reads_like_the_plain_matrix(kind):
    diag = DIAGONALS[kind]
    n = len(diag)
    one = ONE if isinstance(diag[0], QScalar) else Fraction(1)
    d, p = DiagonalMatrix(list(diag)), _plain(diag)
    assert (d.nrows, d.ncols) == (p.nrows, p.ncols) == (n, n)
    assert sorted(d.entries()) == sorted(p.entries())
    assert d.diagonal() == p.diagonal()
    assert d.nnz() == p.nnz() and d.is_zero() == p.is_zero()
    assert [d.get(r, c) for r in range(-1, n + 1) for c in range(n)] \
        == [p.get(r, c) for r in range(-1, n + 1) for c in range(n)]
    assert d._rows is None  # no reader above built the row dicts
    assert d == p and p == d and d == DiagonalMatrix(list(diag))
    assert -d == -p
    for s in (qint(2) if one is ONE else Fraction(2, 3), one - one):
        assert d.scale(s) == p.scale(s)
    for x in _others(n, one):
        assert d * x == p * x
        tall = SparseMatrix(x.ncols, x.nrows, {(c, r): v for r, c, v in x.entries()})
        assert tall * d == tall * p
        if x.ncols == n:
            assert x * d == x * p and d - x == p - x and x - d == x - p and d + x == p + x
    assert d * d == p * p and d * DiagonalMatrix([one] * n) == p
    assert d.rows == p.rows


def test_diagonal_matrix_is_immutable():
    d = DiagonalMatrix([ONE, Q])
    with pytest.raises(TypeError):
        d.set(0, 0, Q)
    with pytest.raises(TypeError):
        d.add_to(1, 1, ONE)
    with pytest.raises(TypeError):
        d.set(0, 1, ZERO)
    assert d.diag == [ONE, Q]



@pytest.mark.parametrize("other", [
    SparseMatrix(3, 3, {(2, 2): ONE}),
    SparseMatrix(2, 3, {(0, 2): ONE}),
    SparseMatrix(3, 2),
    DiagonalMatrix([ONE, Q, ONE]),
], ids=["larger", "wide", "tall", "diagonal"])
def test_sum_of_mismatched_shapes_is_refused(other):
    square = SparseMatrix(2, 2, {(0, 1): Q})
    for left, right in ((square, other), (other, square)):
        with pytest.raises(ValueError, match="shape mismatch"):
            left + right
        with pytest.raises(ValueError, match="shape mismatch"):
            left - right
    assert square + SparseMatrix(2, 2) == square == square - SparseMatrix(2, 2)
