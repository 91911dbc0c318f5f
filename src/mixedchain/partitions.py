"""Integer partitions, bipartitions and the index combinatorics of the chain.

Partitions are tuples of weakly decreasing positive integers; a bipartition
is a pair (left, right) of partitions.  This module owns the index sets
Lambda_{m,n}(f), the cross test, the three atypical label families
with their mirror images, and the swap involution that exchanges the two
sides of every bipartition.  It also owns the column layout of the atypical
locus: the order in which the atypical labels of a context chain into the
zig-zag, plus the extra vertex.  The atypical set of a context is read off
that layout, so the locus is enumerated in one place.  Both are memoised
per context in bounded LRU caches and shared by every caller, who must only
read them.

Atypical labels are `tagged.TaggedTuple`s, like the module labels of
`labels`: immutable, hashed and compared in C, ordered by
(family, bar, a, s), and never equal to a label of another class.
"""

from __future__ import annotations

from functools import lru_cache

from .tagged import TaggedTuple

Partition = tuple[int, ...]
Bipartition = tuple[Partition, Partition]

EMPTY: Partition = ()


class InvalidF(ValueError):
    pass


class NotInLambda(ValueError):
    pass


def size(mu: Partition) -> int:
    return sum(mu)


@lru_cache(maxsize=None)
def partitions_of(k: int) -> tuple[Partition, ...]:
    """All partitions of k, lexicographically ordered."""
    if k < 0:
        return ()
    if k == 0:
        return (EMPTY,)
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, maxpart), 0, -1):
            acc.append(p)
            rec(rest - p, p, acc)
            acc.pop()

    rec(k, k, [])
    return tuple(sorted(out))


def count_partitions(k: int) -> int:
    return len(partitions_of(k))


def lambda_set(m: int, n: int, f: int) -> list[Bipartition]:
    """All bipartitions with |left| = m - f and |right| = n - f, lex ordered."""
    if not (0 <= f <= min(m, n)):
        raise InvalidF(f"f={f} out of range for (m,n)=({m},{n})")
    return sorted(
        (lam, rho)
        for lam in partitions_of(m - f)
        for rho in partitions_of(n - f)
    )


def lambda_all(m: int, n: int) -> list[Bipartition]:
    out = []
    for f in range(min(m, n) + 1):
        out.extend(lambda_set(m, n, f))
    return sorted(set(out))


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


def cross_set(m: int, n: int) -> list[Bipartition]:
    return [lam for lam in lambda_all(m, n) if is_cross21(lam)]


# ---------------------------------------------------------------------------
# Atypical families.  Unbarred labels live on the m >= n side:
#   delta(a,s)   = ((a,1^s), (s))
#   delta1(a,s)  = ((a,s), (1^s))
#   delta2(a,s)  = ((s+1,a+1), (1^(s+2)))
# and barred labels are their mirror images (left/right swapped).
# ---------------------------------------------------------------------------

FAMILIES = ("delta", "delta1", "delta2")


class AtypicalLabel(TaggedTuple, fields="family bar a s"):
    __slots__ = ()

    def __repr__(self):
        mark = {"delta": "d", "delta1": "d'", "delta2": "d''"}[self.family]
        barmark = "~" if self.bar else ""
        return f"{barmark}{mark}[{self.a},{self.s}]"


_new = tuple.__new__
_ATYP_TAG = AtypicalLabel._tag


def atyp(family: str, bar: bool, a: int, s: int) -> AtypicalLabel:
    """Construct an atypical label in canonical form.

    delta1(a,1) is identified with delta(a,1), delta2(0,0) with its mirror,
    and delta(0,0) with its mirror.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == "delta1" and s == 1:
        family = "delta"
    if family == "delta2" and (a, s) == (0, 0):
        bar = False
    if family == "delta" and (a, s) == (0, 0):
        bar = False
    return _new(AtypicalLabel, (_ATYP_TAG, family, bar, a, s))


def _row(k: int) -> Partition:
    return (k,) if k > 0 else EMPTY


def _column(k: int) -> Partition:
    return (1,) * k


def atypical_bipartition(label: AtypicalLabel) -> Bipartition:
    a, s = label.a, label.s
    if label.family == "delta":
        if a == 0 and s == 0:
            pair = (EMPTY, EMPTY)
        else:
            pair = ((a,) + _column(s), _row(s))
    elif label.family == "delta1":
        pair = ((a, s) if s else (a,), _column(s))
    else:
        pair = ((s + 1, a + 1), _column(s + 2))
    if label.bar:
        pair = (pair[1], pair[0])
    return pair


# A label sweep visits the contexts column by column, so the layout of a
# context is read by that context and the next one only: 4 contexts keep a
# sweep at one miss per context.  A mirror context (m < n) is built from the
# uncached layout of (n, m), which no later context of the sweep reads.

def _columns(m: int, n: int):
    """The column layout of `atypical_columns`, uncached."""
    if m < n:
        cols, extra, host = _columns(n, m)
        return [gswap_label(c) for c in cols], gswap_label(extra), host
    a = m - n
    if n == 0:
        return [], atyp("delta", False, m, 0), None
    if m == n:
        if m == 1:
            return [], atyp("delta", False, 0, 0), None
        cols = [atyp("delta2", True, 0, s) for s in range(m - 2, 0, -1)]
        cols += [atyp("delta2", False, 0, s) for s in range(0, m - 1)]
        return cols, atyp("delta", False, 0, 0), m - 2
    cols = [atyp("delta", False, a, s) for s in range(n, 0, -1)]
    cols += [atyp("delta1", False, a, s) for s in range(2, min(a, n) + 1)]
    cols += [atyp("delta2", False, a, s) for s in range(a, n - 1)]
    return cols, atyp("delta", False, a, 0), n - 1


@lru_cache(maxsize=4)
def atypical_columns(m: int, n: int):
    """Ordered column labels of the atypical part, plus the extra vertex.

    Returns (columns, extra, host): `columns` is the ordered list of
    atypical labels whose projective covers chain into the zig-zag,
    `extra` is the lone label glued into column `host` (None when there
    are no columns; then `extra` stands alone).
    """
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    return _columns(m, n)


@lru_cache(maxsize=4)
def atypical_set(m: int, n: int) -> dict[Bipartition, AtypicalLabel]:
    """The atypical bipartitions of the (m,n) context, keyed by bipartition:
    the column labels of the zig-zag and its extra vertex.  Shared; read only."""
    cols, extra, _host = atypical_columns(m, n)
    out = {}
    for lab in cols + [extra]:
        bp = atypical_bipartition(lab)
        if out.get(bp, lab) != lab:
            raise AssertionError(f"{out[bp]} and {lab} share the bipartition {bp!r}")
        out[bp] = lab
    return out


def classify_atypical(lam: Bipartition, m: int, n: int) -> AtypicalLabel | None:
    lambda_f(lam, m, n)  # raises NotInLambda when out of context
    return atypical_set(m, n).get(lam)


def gswap(lam: Bipartition) -> Bipartition:
    """The involution exchanging left and right halves."""
    return (lam[1], lam[0])


def gswap_label(label: AtypicalLabel) -> AtypicalLabel:
    return atyp(label.family, not label.bar, label.a, label.s)


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
