"""Sparse matrices over an exact scalar type (QScalar or Fraction).

Entries are stored row-indexed as {row: {col: value}} with no stored zeros.
The scalar type only needs +, -, *, and truthiness; both QScalar and
fractions.Fraction qualify.  The chain checks multiply QScalar matrices;
Fraction matrices come from evaluating one at a rational point.

A `DiagonalMatrix` keeps a square diagonal matrix as the list of its
diagonal values (zeros allowed) and builds the row dicts only when `rows`
is read; its entry readers work on the list, and it cannot be edited.
"""

from __future__ import annotations


class SparseMatrix:
    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, object]] = {}
        if entries:
            for (r, c), v in entries.items():
                if v:
                    self.rows.setdefault(r, {})[c] = v

    @staticmethod
    def identity(n: int, one) -> "SparseMatrix":
        m = SparseMatrix(n, n)
        for i in range(n):
            m.rows[i] = {i: one}
        return m

    def set(self, r: int, c: int, v) -> None:
        if v:
            self.rows.setdefault(r, {})[c] = v
        else:
            row = self.rows.get(r)
            if row and c in row:
                del row[c]
                if not row:
                    del self.rows[r]

    def add_to(self, r: int, c: int, v) -> None:
        row = self.rows.setdefault(r, {})
        w = row[c] + v if c in row else v
        if w:
            row[c] = w
        else:
            del row[c]
            if not row:
                del self.rows[r]

    def get(self, r: int, c: int):
        row = self.rows.get(r)
        return row.get(c) if row else None

    def nnz(self) -> int:
        return sum(len(row) for row in self.rows.values())

    def is_zero(self) -> bool:
        return not self.rows

    def entries(self):
        for r, row in self.rows.items():
            for c, v in row.items():
                yield r, c, v

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return self.rows == other.rows

    def _sum(self, other, negate: bool):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")
        out = SparseMatrix(self.nrows, self.ncols)
        out.rows = {r: dict(row) for r, row in self.rows.items()}
        for r, row in other.rows.items():
            for c, v in row.items():
                out.add_to(r, c, -v if negate else v)
        return out

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def __neg__(self):
        out = SparseMatrix(self.nrows, self.ncols)
        out.rows = {r: {c: -v for c, v in row.items()} for r, row in self.rows.items()}
        return out

    def scale(self, s) -> "SparseMatrix":
        out = SparseMatrix(self.nrows, self.ncols)
        if not s:
            return out
        out.rows = {r: {c: v * s for c, v in row.items()} for r, row in self.rows.items()}
        return out

    def __mul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        out = SparseMatrix(self.nrows, other.ncols)
        orows = other.rows
        for r, row in self.rows.items():
            acc: dict[int, object] = {}
            for k, v in row.items():
                orow = orows.get(k)
                if not orow:
                    continue
                for c, w in orow.items():
                    p = v * w
                    if c in acc:
                        acc[c] = acc[c] + p
                    else:
                        acc[c] = p
            acc = {c: v for c, v in acc.items() if v}
            if acc:
                out.rows[r] = acc
        return out

    def map_values(self, f) -> "SparseMatrix":
        out = SparseMatrix(self.nrows, self.ncols)
        for r, row in self.rows.items():
            new = {c: f(v) for c, v in row.items()}
            new = {c: v for c, v in new.items() if v}
            if new:
                out.rows[r] = new
        return out

    def diagonal(self) -> list:
        return [self.get(i, i) for i in range(min(self.nrows, self.ncols))]

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


class DiagonalMatrix(SparseMatrix):
    """diag(values) as its list of diagonal values; the row dicts are built
    on first read of `rows`.  Immutable: `set` and `add_to` raise."""

    __slots__ = ("diag", "_rows")

    def __init__(self, diag: list):
        self.nrows = self.ncols = len(diag)
        self.diag = diag
        self._rows = None

    @property
    def rows(self) -> dict[int, dict[int, object]]:
        if self._rows is None:
            self._rows = {i: {i: v} for i, v in enumerate(self.diag) if v}
        return self._rows

    def set(self, r: int, c: int, v) -> None:
        raise TypeError("a DiagonalMatrix cannot be edited")

    add_to = set

    def get(self, r: int, c: int):
        if r != c or not 0 <= r < self.nrows:
            return None
        return self.diag[r] or None

    def nnz(self) -> int:
        return sum(1 for v in self.diag if v)

    def is_zero(self) -> bool:
        return not any(self.diag)

    def entries(self):
        for i, v in enumerate(self.diag):
            if v:
                yield i, i, v

    def diagonal(self) -> list:
        return [v or None for v in self.diag]


def embed_factor(op: SparseMatrix, left_dim: int, right_dim: int) -> SparseMatrix:
    """1_left (x) op (x) 1_right as a Kronecker embedding."""
    n = op.nrows
    out = SparseMatrix(left_dim * n * right_dim, left_dim * op.ncols * right_dim)
    for r, c, v in op.entries():
        for x in range(left_dim):
            base_r = (x * n + r) * right_dim
            base_c = (x * op.ncols + c) * right_dim
            for y in range(right_dim):
                out.rows.setdefault(base_r + y, {})[base_c + y] = v
    return out


def embed_with_diags(op: SparseMatrix, left_diag: list, right_diag: list) -> SparseMatrix:
    """diag(left) (x) op (x) diag(right), diagonals given as plain value lists."""
    n = op.nrows
    ld, rd = len(left_diag), len(right_diag)
    out = SparseMatrix(ld * n * rd, ld * op.ncols * rd)
    for r, c, v in op.entries():
        for x, lv in enumerate(left_diag):
            if not lv:
                continue
            base_r = (x * n + r) * rd
            base_c = (x * op.ncols + c) * rd
            vl = lv * v
            row_map = {}
            for y, rv in enumerate(right_diag):
                if rv:
                    row_map[y] = vl * rv
            for y, w in row_map.items():
                out.rows.setdefault(base_r + y, {})[base_c + y] = w
    return out
