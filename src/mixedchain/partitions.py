"""Integer partitions, bipartitions and the index combinatorics of the chain.

Partitions are tuples of weakly decreasing positive integers; a bipartition
is a pair (left, right) of partitions.  This module owns the defect of a
bipartition in the index sets Lambda_{m,n}(f) (`lambda_f`), the cross
test and the cross labels of a context (`cross_labels`), the box moves of
the restriction rules, and the swap involution that exchanges the two
sides of every bipartition.  It also sorts the cross labels of a context
into their classes (`label_classes`), in one pass over the barred (t, r)
of their quantum labels (`_barred`, the rule of `bimod.quantum_label`):
the typical labels are the cells of the semisimple part, and the atypical
ones are the columns of the zig-zag, in order, and its extra vertex.  The
atypical set is read off those classes, so the locus is enumerated in one
place, and an atypical label is its bipartition.  The classes are a field
of the context's record (`labelctx`), shared by every caller, who must
only read them.
"""

from __future__ import annotations

from .labelctx import field
from .tagged import TaggedTuple

Partition = tuple[int, ...]
Bipartition = tuple[Partition, Partition]

EMPTY: Partition = ()


class NotInLambda(ValueError):
    pass


def size(mu: Partition) -> int:
    return sum(mu)


def lambda_f(lam: Bipartition, m: int, n: int) -> int:
    """The defect f of lam inside Lambda_{m,n}; raises if lam is not there."""
    f = m - size(lam[0])
    if f != n - size(lam[1]) or not (0 <= f <= min(m, n)):
        raise NotInLambda(f"{lam!r} not in Lambda_({m},{n})")
    return f


def add_boxes(mu: Partition) -> list[Partition]:
    """All partitions obtained from mu by adding a single box."""
    out = []
    k = len(mu)
    for i in range(k + 1):
        cur = mu[i] if i < k else 0
        prev = mu[i - 1] if i > 0 else None
        if prev is None or cur + 1 <= prev:
            out.append(mu[:i] + (cur + 1,) + mu[i + 1:])
    return out


def rem_boxes(mu: Partition) -> list[Partition]:
    """All partitions obtained from mu by removing a single box."""
    out = []
    k = len(mu)
    for i in range(k):
        nxt = mu[i + 1] if i + 1 < k else 0
        if mu[i] - 1 >= nxt:
            if mu[i] == 1:
                out.append(mu[:i] + mu[i + 1:])
            else:
                out.append(mu[:i] + (mu[i] - 1,) + mu[i + 1:])
    return out


def _wide(mu: Partition) -> int:
    """Number of parts >= 2."""
    return len(mu) - mu.count(1)


def is_cross21(lam: Bipartition) -> bool:
    """(2,1)-cross test: the two halves are (p_i,q_i)-hooks, with no box at
    (p_i+1, q_i+1), for some p1+p2 <= 2 and q1+q2 <= 1.

    A (p,0)-hook has at most p parts and a (p,1)-hook at most p parts >= 2,
    so the test is the closed form below.
    """
    left, right = lam
    return len(left) + _wide(right) <= 2 or _wide(left) + len(right) <= 2


def _one_way(p: int, q: int) -> list[Bipartition]:
    """The bipartitions of (p, q) boxes with len(left) + wide(right) <= 2:
    right has w <= 2 parts >= 2, then ones, and left at most 2 - w rows."""
    row = (p,) if p else EMPTY
    out = [(left, (1,) * q) for left in [row] + [(p - j, j) for j in range(1, p // 2 + 1)]]
    out += [(row, (i,) + (1,) * (q - i)) for i in range(2, q + 1)]
    if not p:
        out += [(EMPTY, (i, j) + (1,) * (q - i - j)) for i in range(2, q)
                for j in range(2, min(i, q - i) + 1)]
    return out


def cross_labels(m: int, n: int) -> list[Bipartition]:
    """The cross labels of Lambda_{m,n}, each once and unsorted: by defect,
    the pairs with len(left) + wide(right) <= 2, then the mirrors of the
    (n, m) ones that fail that test here."""
    out = []
    for f in range(min(m, n) + 1):
        out += _one_way(m - f, n - f)
        out += [(left, right) for right, left in _one_way(n - f, m - f)
                if len(left) + _wide(right) > 2]
    return out


# ---------------------------------------------------------------------------
# the classes of the cross labels of a context
# ---------------------------------------------------------------------------

def _barred(lam: Bipartition, a: int) -> tuple[int, int]:
    """The barred (t, r) of the quantum label of lam at m - n = a >= 0; see
    `bimod.quantum_label`."""
    left, right = lam
    l1 = left[0] if left else 0
    l2 = left[1] if len(left) > 1 else 0
    r1 = right[0] if right else 0
    t = l1 - a
    if l1 == 1 and len(left) >= 3 and len(right) == 2:
        t -= right[1]
    r = r1 + a
    if r1 <= 1 and l2 >= 1:
        r -= l2 - 1 + (len(left) == 2 and len(right) > 0)
    if t * r == 0 and (t or r) and (r1 >= 2 or len(right) != l2):
        return (t - 1, r) if t else (t, r - 1)
    return t, r


class LabelClasses(TaggedTuple, fields="cells atypical columns extra host"):
    """The cross labels of a context, classified by their barred (t, r).

    `cells` holds (t, r, lam) for each typical lam (t*r != 0), sorted: the
    semisimple part.  The others are `atypical`: the extra vertex `extra`,
    the one with R empty, and the `columns` of the zig-zag, in order; the
    column of index `host`, of largest defect, holds the extra vertex
    (None when there are no columns)."""

    __slots__ = ()


def _classes(m: int, n: int) -> LabelClasses:
    """The classes of `label_classes`, uncached; a mirror context (m < n)
    swaps the sides of the classes of (n, m), whose (t, r) it keeps."""
    if m < n:
        _tag, cells, atypical, columns, extra, host = _classes(n, m)
        return LabelClasses(tuple((t, r, (right, left)) for t, r, (left, right) in cells),
                            frozenset(map(gswap, atypical)), tuple(map(gswap, columns)),
                            gswap(extra), host)
    a = m - n
    cells, order, extra = [], [], []
    for lam in cross_labels(m, n):
        t, r = _barred(lam, a)
        if t * r:
            cells.append((t, r, lam))
        elif lam[1]:  # along t = 0 with r descending, then along r = 0 with t ascending
            order.append((r == 0, t - r, lam))
        else:
            extra.append(lam)
    if len(extra) != 1:
        raise AssertionError(f"atypical labels {extra} of ({m},{n}) have R empty, not one")
    order.sort()
    if any(x[:2] == y[:2] for x, y in zip(order, order[1:])):
        raise AssertionError(f"two columns of ({m},{n}) share their barred (t, r)")
    columns = tuple(lam for _r0, _key, lam in order)
    defects = [m - size(left) for left, _right in columns]
    host = defects.index(max(defects)) if columns else None
    if columns and defects.count(defects[host]) > 1:
        raise AssertionError(f"the largest defect of a column of ({m},{n}) is not unique")
    cells.sort()
    return LabelClasses(tuple(cells), frozenset(columns + (extra[0],)), columns, extra[0], host)


@field
def label_classes(m: int, n: int) -> LabelClasses:
    """The cross labels of the (m,n) context in their classes: the
    semisimple cells, the atypical set, and the zig-zag's columns and extra
    vertex.  Shared; read only."""
    return _classes(m, n)


def atypical_set(m: int, n: int) -> frozenset[Bipartition]:
    """The atypical cross labels of the (m,n) context: the column labels of
    the zig-zag and its extra vertex.  Shared; read only."""
    return label_classes(m, n).atypical


def gswap(lam: Bipartition) -> Bipartition:
    """The involution exchanging left and right halves."""
    return (lam[1], lam[0])


# rendering ------------------------------------------------------------------

def part_str(mu: Partition) -> str:
    """Exponent notation, e.g. (3,1,1,1) -> "3,1^3" and () -> "-"."""
    if not mu:
        return "-"
    out = []
    i = 0
    while i < len(mu):
        j = i
        while j < len(mu) and mu[j] == mu[i]:
            j += 1
        mult = j - i
        out.append(str(mu[i]) if mult == 1 else f"{mu[i]}^{mult}")
        i = j
    return ",".join(out)


def bip_str(lam: Bipartition) -> str:
    return f"[{part_str(lam[0])} | {part_str(lam[1])}]"
