"""Oracles that only the tests read: label enumerations, dimension and
flattening helpers, the Loewy graph of a projective cover, the paper's
three atypical label families and its column layout of the zig-zag, its
tables of quantum labels (the semisimple (t, r)-table, the column tops and
the extra vertex) and its restriction displays: the D displays of atypical
labels, the re-gluing rows of typical labels and the K displays of
projective labels.

The library computes none of these, because no command, `verify` suite or
benchmark operation needs them.  The tests enumerate their inputs with
them and compare the library against them.  This file is not a test
module, so pytest does not collect it; the tests import it by name.
"""

from functools import lru_cache

import mixedchain.bimod as bm
import mixedchain.xcat as xc
from mixedchain.bimod import SemisimplePair, _bar
from mixedchain.fusion import GrothVector
from mixedchain.labels import BarLabel, ZLabel, bar, dual
from mixedchain.partitions import (
    Bipartition,
    NotInLambda,
    Partition,
    add_boxes,
    gswap,
    is_cross21,
    lambda_f,
    rem_boxes,
)
from mixedchain.tagged import TaggedTuple
from mixedchain.uqmod import ExplicitRep, weight_multiset

# ---------------------------------------------------------------------------
# partitions and the index sets Lambda_{m,n}(f)
# ---------------------------------------------------------------------------


class InvalidF(ValueError):
    pass


@lru_cache(maxsize=None)
def partitions_of(k: int) -> tuple[Partition, ...]:
    """All partitions of k, lexicographically ordered."""
    if k < 0:
        return ()
    if k == 0:
        return ((),)
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


def cross_set(m: int, n: int) -> list[Bipartition]:
    return [lam for lam in lambda_all(m, n) if is_cross21(lam)]


# ---------------------------------------------------------------------------
# the paper's atypical families and its column layout of the zig-zag.
# Unbarred labels live on the m >= n side:
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
    return AtypicalLabel(family, bar, a, s)


def atypical_bipartition(label: AtypicalLabel) -> Bipartition:
    a, s = label.a, label.s
    if label.family == "delta":
        pair = ((a,) + _col(s), _row(s)) if a or s else ((), ())
    elif label.family == "delta1":
        pair = ((a, s) if s else (a,), _col(s))
    else:
        pair = ((s + 1, a + 1), _col(s + 2))
    return gswap(pair) if label.bar else pair


def gswap_label(label: AtypicalLabel) -> AtypicalLabel:
    return atyp(label.family, not label.bar, label.a, label.s)


def _columns(m: int, n: int):
    """The paper's layout of the zig-zag, family by family: (columns,
    extra, host), the ordered column labels, the extra vertex and the index
    of the column that holds it (None when there are no columns); the
    oracle for `partitions.label_classes`.  A mirror context (m < n) is
    built from the layout of (n, m)."""
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


@lru_cache(maxsize=None)
def _family_labels(m: int, n: int) -> dict:
    """The family label of each atypical bipartition of the (m,n) context."""
    cols, extra, _host = _columns(m, n)
    return {atypical_bipartition(lab): lab for lab in cols + [extra]}


def classify_atypical(lam: Bipartition, m: int, n: int) -> AtypicalLabel | None:
    """The family label of lam in the (m,n) context, None when lam is
    typical there."""
    lambda_f(lam, m, n)  # raises NotInLambda when out of context
    return _family_labels(m, n).get(lam)


def is_atypical(z: ZLabel) -> bool:
    return z.r in (0, z.s)


# ---------------------------------------------------------------------------
# the paper's tables of quantum labels, as transcribed
# ---------------------------------------------------------------------------

_new = tuple.__new__
_Z_TAG = ZLabel._tag


def _hook(k: int, ones: int) -> tuple:
    return (k,) + (1,) * ones


def semisimple_table(m: int, n: int) -> tuple[SemisimplePair, ...]:
    """The semisimple part as transcribed: the oracle for
    `bimod.semisimple_part`, which reads it off `bimod.quantum_label`.  A
    mirror context (m < n) is built from the pairs of (n, m)."""
    if m < n:
        return tuple((gswap(lam), dual(z)) for lam, z in _semisimple_pairs(n, m))
    return _semisimple_pairs(m, n)


def _semisimple_pairs(m: int, n: int) -> tuple[SemisimplePair, ...]:
    """The pairs of `semisimple_table` for m >= n."""
    if m + n == 0:
        return ()
    # (bipartition, p, t, r) of each simple, given as the barred label Zbar[p; t, r]
    cells: list[tuple[Bipartition, int, int, int]] = []
    a = m - n
    for s in range(1, n + 1):
        for k in range(1, a + s + 1):
            if k == a:
                continue
            cells.append(((_hook(k, s - k + a), (s,)),
                          s + k + a + 1, k - a, s + a))
    for s in range(a + 2, m + 1):
        for k in range(1, s - a):
            cells.append((((s,), _hook(k, s - k - a)),
                          s + k + a + 1, s - a, k + a))
    for s in range(1, n):
        for k in range(1, min(s, n - s) + 1):
            if k == 1 - a:  # t = 0 is atypical; happens only at m == n
                continue
            cells.append((((1,) * (s + k + a), (s, k)),
                          s + k + a, 1 - k - a, s + a))
    for s in range(a + 1, m):
        for k in range(1, min(s, m - s) + 1):
            if k == a + 1:
                continue
            cells.append((((s, k), (1,) * (s + k - a)),
                          s + k + a, s - a, 1 - k + a))
    for k in range(1, a // 2 + 1):
        for s in range(k, a - k + 1):
            cells.append((((s, k) + (1,) * (a - s - k), ()),
                          s + k + a, s - a, 1 - k + a))
    for s in range(a // 2 + 1, a):
        for k in range(1 - s + a, min(s, m - s) + 1):
            cells.append((((s, k), (1,) * (s + k - a)),
                          s + k + a, s - a, 1 - k + a))
    cells.sort(key=lambda c: (c[2], c[3], c[0]))  # by (t, r), then bipartition
    # a typical Zbar[p; t, r] (t, r != 0) is Z[1, (-1)^p; t + r, r]; the
    # ranges above give t + r >= 1 only, so `Z` need not check the label
    pairs = tuple((lam, _new(ZLabel, (_Z_TAG, 1, -1 if p % 2 else 1, t + r, r)))
                  for lam, p, t, r in cells)
    for lam, z in pairs:
        if is_atypical(z):
            raise AssertionError(f"atypical label {z} in the semisimple part")
    return pairs


def column_top_label(lab: AtypicalLabel, m: int, n: int) -> ZLabel:
    """Quantum-group label at the head of an atypical column."""
    if m < n:
        return dual(column_top_label(gswap_label(lab), n, m))
    a, s = lab.a, lab.s
    if m == n:
        if lab.family != "delta2":
            raise AssertionError(f"unexpected column {lab} at ({m},{n})")
        return _bar("Z", s - 1, 0, s) if lab.bar else _bar("Z", s - 1, s, 0)
    if lab.family == "delta":
        return _bar("Z", s, 0, s + a - 1)
    if lab.family == "delta1":
        return _bar("Z", s, 0, a - s + 1)
    return _bar("Z", s + 1, s - a, 0)


def extra_vertex_label(m: int, n: int) -> ZLabel:
    """Quantum-group label of the lone vertex glued into the zig-zag."""
    if m >= n:
        return _bar("Z", 1, 0, m - n)
    return dual(extra_vertex_label(n, m))


def weight_diagram_label(lam: Bipartition, m: int, n: int) -> ZLabel:
    """The quantum label of the cross label lam of the (m,n) context, read
    off its weight diagram, with no mirror branch: the derivation that
    `bimod.quantum_label` puts in closed form.

    The diagram of lam = (L, R) at delta = 2 - 1 (Comes-Wilson) has an up
    end at each L_i - i + 1 and a down end at each i - 1 - R_i, i >= 1.  A
    vertex with both ends is a cross, one with neither a circle.  The
    vertices of a gl(2|1) highest weight (l1, l2 | mu) are {l1, l2 - 1}
    and {-1 - mu}.  A typical lam has two crosses and one circle, which are
    those vertices.  An atypical lam has one cross and no circle; its
    atypical vertex, in both sets, is the left end of its one cap (a lone
    down end matched with the next unmatched lone up end to its right), or
    the last lone up end when it has no cap.  The barred coordinates are
    the rho-shifted pairings with the odd roots, t = -(l2 + mu) and
    r = l1 + mu + 1, with r one less when t = 0.
    """
    left, right = lam
    lo = -max(right[0] if right else 0, len(left)) - 1
    hi = max(left[0] if left else 0, len(right)) + 2
    ups = {(left[j] if j < len(left) else 0) - j for j in range(hi - lo)}
    downs = {j - (right[j] if j < len(right) else 0) for j in range(hi - lo)}
    window = range(lo, hi)
    crosses = [x for x in window if x in ups and x in downs]
    circles = [x for x in window if x not in ups and x not in downs]
    if circles:
        if (len(crosses), len(circles)) != (2, 1):
            raise AssertionError(f"{lam} at ({m},{n}): crosses {crosses}, circles {circles}")
        (v,) = circles
    else:
        if len(crosses) != 1:
            raise AssertionError(f"{lam} at ({m},{n}): crosses {crosses}, no circle")
        open_downs, caps, last_up = [], [], None
        for x in window:
            if x in ups and x not in downs:
                last_up = x
                if open_downs:
                    caps.append(open_downs.pop())
            elif x in downs and x not in ups:
                open_downs.append(x)
        if len(caps) > 1:
            raise AssertionError(f"{lam} at ({m},{n}): caps at {caps}")
        v = caps[0] if caps else last_up
        crosses = sorted(crosses + [v])
    l1, l2, mu = crosses[1], crosses[0] + 1, -1 - v
    if l1 + l2 + mu != m - n:
        raise AssertionError(f"{lam} at ({m},{n}): weight ({l1}, {l2} | {mu})")
    t, r = -(l2 + mu), l1 + mu + 1
    if t == 0:
        r -= 1
    return _bar("Z", 1 + m - n + t + r, t, r)


# ---------------------------------------------------------------------------
# module labels
# ---------------------------------------------------------------------------

def gbar(b: BarLabel) -> BarLabel:
    """Mirror image of a barred label: swaps its (t, r) coordinates."""
    return bar(b.kind, b.p, b.r, b.t)


def weight_multiset_tensor(rep1: ExplicitRep, rep2: ExplicitRep):
    """Weights of the tensor product: K and k are group-like."""
    out = {}
    w1 = weight_multiset(rep1)
    w2 = weight_multiset(rep2)
    for (a1, b1), m1 in w1.items():
        for (a2, b2), m2 in w2.items():
            key = (a1 * a2, b1 * b2)
            out[key] = out.get(key, 0) + m1 * m2
    return out


# ---------------------------------------------------------------------------
# the X-side category
# ---------------------------------------------------------------------------

def loewy_graph(cover: tuple[Bipartition, ...]):
    """The Loewy graph of a projective cover given as `xcat.proj_structure`
    gives it: (vertices, edges), the vertices as (layer, label) pairs and
    the edges as (upper, lower) vertex indices.

    A cover of one vertex has no edge, a chain of two has an edge from head
    to socle, and a longer cover has its middles between head and socle.
    Raises unless a chain of two has a socle other than its head and a
    cover with a middle layer has its head as socle.
    """
    head = cover[0]
    if len(cover) == 1:
        return (("top", head),), ()
    if len(cover) == 2:
        if cover[1] == head:
            raise AssertionError(f"two-step chain {cover!r} has its head as socle")
        return (("top", head), ("bot", cover[1])), ((0, 1),)
    if cover[-1] != head:
        raise AssertionError(f"cover {cover!r} with a middle layer has another socle")
    last = len(cover) - 1
    vertices = (("top", head),) + tuple(("mid", mu) for mu in cover[1:last]) + (("bot", head),)
    edges = tuple((0, i) for i in range(1, last)) + tuple((i, last) for i in range(1, last))
    return vertices, edges


def q_expand(v: GrothVector, m: int, n: int) -> GrothVector:
    """Flatten every projective term of v into its simple factors."""
    out = GrothVector()
    for term, mult in v.items():
        for flat, fm in xc.q_functor(term, m, n).items():
            out.add(flat, fm * mult)
    return out


def res_right_s(lam: Bipartition, m: int, n: int) -> GrothVector:
    """Restriction of a Specht label one step down on the right side: the
    walled-Brauer Pieri rule, remove a box on the right or, when the defect
    is positive, add one on the left where the label stays cross."""
    if n < 1:
        raise xc.NIsZero("right restriction needs n >= 1")
    f, _lab = xc._classify_cross(lam, m, n)
    left, right = lam
    out = GrothVector()
    for mu in rem_boxes(right):
        out.add((left, mu))
    if f > 0:
        for nu in add_boxes(left):
            if is_cross21((nu, right)):
                out.add((nu, right))
    return out


# ---------------------------------------------------------------------------
# the paper's restriction displays, as transcribed
# ---------------------------------------------------------------------------

def _row(k: int):
    return (k,) if k > 0 else () if k == 0 else None


def _col(k: int):
    return (1,) * k if k >= 0 else None


def _hookp(a: int, s: int):
    """(a, 1^s), with non-positive arm or negative leg invalid."""
    if a <= 0 or s < 0:
        return None
    return (a,) + (1,) * s


def _pair(left, right) -> Bipartition | None:
    """(left, right), or None if either half is.  Every half comes from
    `_row`, `_col`, `_hookp` or `_two_row`, or is (), so it is a partition
    or None."""
    if left is None or right is None:
        return None
    return (left, right)


def _two_row(a: int, b: int):
    """(a, b) with trailing zeros dropped; None when invalid."""
    if b < 0 or a < b:
        return None
    if b == 0:
        return _row(a)
    if a <= 0:
        return None
    return (a, b)


def _in_lambda(lam: Bipartition | None, m: int, n: int) -> bool:
    if lam is None:
        return False
    try:
        lambda_f(lam, m, n)
    except NotInLambda:
        return False
    return True


class _Rows:
    """Collector for restriction displays with drop-invalid semantics."""

    def __init__(self, m: int, n: int):
        self.m, self.n = m, n  # target context
        self.hits: list[tuple[str, GrothVector]] = []

    def row(self, name: str, *terms):
        """terms: (kind, bipartition-or-None, mult); invalid D terms drop."""
        out = GrothVector()
        for kind, lam, mult in terms:
            if lam is None or not _in_lambda(lam, self.m, self.n):
                if kind == "K":
                    raise AssertionError(f"display {name}: projective output invalid {lam!r}")
                continue
            if kind == "K":
                if classify_atypical(lam, self.m, self.n) is None:
                    raise AssertionError((name, lam))
                out.add(("K", lam), mult)
            else:
                out.add(("D", lam), mult)
        self.hits.append((name, out))

    def unique(self, what) -> GrothVector:
        if len(self.hits) != 1:
            names = [h[0] for h in self.hits]
            raise AssertionError(f"restriction of {what}: {len(self.hits)} displays matched {names}")
        return self.hits[0][1]


def res_d_table(lab: AtypicalLabel, m: int, n: int) -> GrothVector:
    """The paper's restriction displays for simple atypical labels, as
    transcribed: the oracle for `xcat._d_row` on atypical labels.  Each
    display is guarded by the labels it covers, and exactly one must match.
    """
    a, s = lab.a, lab.s
    bip = atypical_bipartition
    rows = _Rows(m, n - 1)
    fam, barred = lab.family, lab.bar
    if not barred:
        if fam == "delta":
            if a >= 1 and 1 <= s <= n - 1:
                rows.row("D.d.mid", ("D", bip(atyp("delta", False, a + 1, s)), 1),
                         ("D", _pair(_hookp(a, s), _row(s - 1)), 1))
            if a >= 1 and s == n and n >= 1:
                rows.row("D.d.end", ("D", _pair(_hookp(a, n), _row(n - 1)), 1))
            if s == 0 and a >= 0:
                rows.row("D.d.zero", ("D", bip(atyp("delta", False, a + 1, 0)), 1))
        elif fam == "delta1":
            if 1 <= s <= n - 1 and s <= a:
                rows.row("D.d1.mid", ("D", bip(atyp("delta1", False, a + 1, s)), 1),
                         ("D", _pair(_two_row(a, s), _col(s - 1)), 1))
            if s == n and 1 <= n <= a:
                rows.row("D.d1.end", ("D", _pair(_two_row(a, n), _col(n - 1)), 1))
        else:
            if a + 1 <= s <= n - 3:
                rows.row("D.d2.mid", ("D", bip(atyp("delta2", False, a + 1, s)), 1),
                         ("D", _pair(_two_row(s + 1, a + 1), _col(s + 1)), 1))
            if s == n - 2 and 0 <= a <= n - 3:
                rows.row("D.d2.end", ("D", _pair(_two_row(n - 1, a + 1), _col(n - 1)), 1))
            if s == a and 0 <= a <= n - 2:
                rows.row("D.d2.corner", ("D", bip(atyp("delta1", False, a + 1, a + 1)), 1))
    else:
        if fam == "delta":
            if a >= 2 and 1 <= s <= m:
                rows.row("D.bd.mid", ("D", bip(atyp("delta", True, a - 1, s)), 1),
                         ("D", _pair(_row(s), _hookp(a, s - 1)), 1))
            if a >= 1 and s == 0:
                rows.row("D.bd.zero", ("D", bip(atyp("delta", True, a - 1, 0)), 1))
            if a == 1 and 1 <= s <= m - 1:
                rows.row("D.bd.wall", ("D", bip(atyp("delta2", False, 0, s - 1)), 1),
                         ("D", _pair(_row(s), _col(s)), 1))
            if a == 1 and s == m and m >= 1:
                rows.row("D.bd.end", ("D", _pair(_row(m), _col(m)), 1))
        elif fam == "delta1":
            if 2 <= s <= m and s < a:
                rows.row("D.bd1.mid", ("D", bip(atyp("delta1", True, a - 1, s)), 1),
                         ("D", _pair(_col(s), _two_row(a, s - 1)), 1))
            if s == a and 2 <= a <= m - 1:
                rows.row("D.bd1.corner", ("D", bip(atyp("delta2", True, a - 1, a - 1)), 1),
                         ("D", _pair(_col(a), _two_row(a, a - 1)), 1))
            if s == a == m and m >= 1:
                rows.row("D.bd1.end", ("D", _pair(_col(m), _two_row(m, m - 1)), 1))
        else:
            if a >= 1 and a + 1 <= s <= m - 2:
                rows.row("D.bd2.mid", ("D", bip(atyp("delta2", True, a - 1, s)), 1),
                         ("D", _pair(_col(s + 2), _two_row(s, a + 1)), 1))
            if a >= 1 and s == a and 1 <= a <= m - 2:
                rows.row("D.bd2.corner", ("D", bip(atyp("delta2", True, a - 1, a)), 1))
            if a == 0 and 1 <= s <= m - 2:
                rows.row("D.bd2.wall", ("D", bip(atyp("delta", False, 1, s + 1)), 1),
                         ("D", _pair(_col(s + 2), _two_row(s, 1)), 1))
    return rows.unique(f"D({lab}) at ({m},{n})")


@lru_cache(maxsize=2)
def _exceptional_rows(m: int, n: int) -> tuple:
    """The re-gluing rows of the (m,n) context, as transcribed family by
    family: (name, key, terms), each keyed by the typical label it
    re-glues.  A key with an invalid half matches no label."""
    ap = abs(m - n + 1)
    bip = atypical_bipartition
    rows = []

    def row(name, key, *terms):
        rows.append((name, key, terms))

    # ((a',1^(s-1)), (s))
    if ap >= 1:
        for s in range(1, n):
            row("X.d", (_hookp(ap, s - 1), _row(s)),
                ("K", bip(atyp("delta", False, ap, s)), 1),
                ("D", _pair(_hookp(ap + 1, s - 1), _row(s)), 1))
    # ((a',s), (1^(s+1)))
    if ap >= 1:
        for s in range(1, min(ap - 1, n - 2) + 1):
            row("X.d1", (_two_row(ap, s), _col(s + 1)),
                ("K", bip(atyp("delta1", False, ap, s + 1)), 1),
                ("D", _pair(_two_row(ap + 1, s), _col(s + 1)), 1))
    # ((s,a'+1), (1^(s+2)))
    for s in range(ap + 2, n - 2):
        row("X.d2", (_two_row(s, ap + 1), _col(s + 2)),
            ("K", bip(atyp("delta2", False, ap, s)), 1),
            ("D", _pair(_two_row(s, ap + 2), _col(s + 2)), 1))
    # ((a'+1,a'+1), (1^(a'+3)))
    if ap <= n - 4:
        row("X.d2c", (_two_row(ap + 1, ap + 1), _col(ap + 3)),
            ("K", bip(atyp("delta2", False, ap, ap + 1)), 1))
    # ((s), (a',1^(s+1)))
    if ap >= 2:
        for s in range(0, m):
            row("X.bd", (_row(s), _hookp(ap, s + 1)),
                ("K", bip(atyp("delta", True, ap, s + 1)), 1),
                ("D", _pair(_row(s), _hookp(ap - 1, s + 1)), 1))
    # ((s), (1^(s+2)))
    for s in range(1, m):
        row("X.bd.wall", (_row(s), _col(s + 2)),
            ("K", bip(atyp("delta", True, 1, s + 1)), 1),
            ("D", _pair(_two_row(s, 1), _col(s + 2)), 1))
    # ((1^(s-1)), (a',s))
    for s in range(2, min(ap - 1, m) + 1):
        row("X.bd1", (_col(s - 1), _two_row(ap, s)),
            ("K", bip(atyp("delta1", True, ap, s)), 1),
            ("D", _pair(_col(s - 1), _two_row(ap - 1, s)), 1))
    # ((1^(a'-1)), (a',a'))
    if 1 <= ap <= m:
        row("X.bd1c", (_col(ap - 1), _two_row(ap, ap)),
            ("K", bip(atyp("delta1", True, ap, ap)), 1))
    # ((1^s), (s,a'+1)); at s = a'+1 the key would be the atypical label
    # ((1^(a'+1)), (a'+1,a'+1)), so the family starts at a'+2
    for s in range(ap + 2, m):
        row("X.bd2", (_col(s), _two_row(s, ap + 1)),
            ("K", bip(atyp("delta2", True, ap, s - 1)), 1),
            ("D", _pair(_col(s), _two_row(s, ap)), 1))
    return tuple(rows)


def exceptional_d_table(lam: Bipartition, m: int, n: int) -> GrothVector | None:
    """The re-gluing row of a typical label whose restriction meets
    atypicals: the oracle for `xcat._d_row` on typical labels.  Every row of
    the context is probed; None when none keys lam, and exactly one may."""
    rows = _Rows(m, n - 1)
    for name, key, terms in _exceptional_rows(m, n):
        if key == lam:
            rows.row(name, *terms)
    if not rows.hits:
        return None
    return rows.unique(f"exceptional D({lam}) at ({m},{n})")


def exceptional_keys(m: int, n: int) -> set:
    """The labels that the re-gluing rows of the (m,n) context key."""
    return {key for _name, key, _terms in _exceptional_rows(m, n)}


def res_k_table(lab: AtypicalLabel, m: int, n: int) -> GrothVector:
    """The paper's restriction displays for projective atypical labels, as
    transcribed: the oracle for `xcat._res_k_atypical`, which derives them.

    Each display is guarded by the labels it covers, and exactly one must
    match.  A cover that is its label alone is written ("K", mu) here,
    where the library writes ("D", mu).
    """
    a, s = lab.a, lab.s
    bip = atypical_bipartition
    rows = _Rows(m, n - 1)
    fam, barred = lab.family, lab.bar
    K, D = "K", "D"
    if not barred:
        if fam == "delta":
            if 2 <= s <= n - 1 and a >= 1:
                rows.row("K.d.mid", (K, bip(atyp("delta", False, a + 1, s)), 1),
                         (D, _pair(_hookp(a, s + 1), _row(s)), 1),
                         (D, _pair(_hookp(a, s), _row(s - 1)), 2),
                         (D, _pair(_hookp(a, s - 1), _row(s - 2)), 1))
            if s == 1 and a >= 2 and n >= 2:
                # multiplicity 2 on the middle term is forced by the ledger
                rows.row("K.d.one", (K, bip(atyp("delta", False, a + 1, 1)), 1),
                         (D, _pair(_hookp(a, 2), _row(1)), 1),
                         (D, _pair(_hookp(a, 1), ()), 2),
                         (D, _pair(_two_row(a, 2), _row(1)), 1))
            if s == 1 and a == 1 and n >= 2:
                rows.row("K.d.one1", (K, bip(atyp("delta", False, 2, 1)), 1),
                         (D, _pair(_col(3), _row(1)), 1),
                         (D, _pair(_col(2), ()), 2))
            if s == n and n >= 1 and a >= 1:
                rows.row("K.d.end", (D, bip(atyp("delta", False, a + 1, n - 1)), 1),
                         (D, _pair(_hookp(a, n), _row(n - 1)), 2),
                         (D, _pair(_hookp(a, n - 1), _row(n - 2)), 1))
            if s == 0 and a >= 1 and n >= 1:
                rows.row("K.d.zero", (K, bip(atyp("delta", False, a + 1, 0)), 1),
                         (D, _pair(_hookp(a, 1), ()), 1))
            if s == 0 and a == 0 and n >= 1:
                rows.row("K.d.origin", (K, bip(atyp("delta", False, 1, 0)), 1))
        elif fam == "delta1":
            if 2 <= s <= min(a, n) - 1:
                rows.row("K.d1.mid", (K, bip(atyp("delta1", False, a + 1, s)), 1),
                         (D, _pair(_two_row(a, s + 1), _col(s)), 1),
                         (D, _pair(_two_row(a, s), _col(s - 1)), 2),
                         (D, _pair(_two_row(a, s - 1), _col(s - 2)), 1))
            if s == a and 2 <= a <= n - 1:
                rows.row("K.d1.corner", (K, bip(atyp("delta1", False, a + 1, a)), 1),
                         (D, _pair(_two_row(a, a), _col(a - 1)), 2),
                         (D, _pair(_two_row(a, a - 1), _col(a - 2)), 1))
            if s == n and 2 <= n <= a:
                rows.row("K.d1.end", (D, bip(atyp("delta1", False, a + 1, n - 1)), 1),
                         (D, _pair(_two_row(a, n), _col(n - 1)), 2),
                         (D, _pair(_two_row(a, n - 1), _col(n - 2)), 1))
        else:
            if a + 2 <= s <= n - 3:
                rows.row("K.d2.mid", (K, bip(atyp("delta2", False, a + 1, s)), 1),
                         (D, _pair(_two_row(s + 2, a + 1), _col(s + 2)), 1),
                         (D, _pair(_two_row(s + 1, a + 1), _col(s + 1)), 2),
                         (D, _pair(_two_row(s, a + 1), _col(s)), 1))
            if s == a and 2 <= a <= n - 3:
                rows.row("K.d2.corner", (K, bip(atyp("delta1", False, a + 1, a + 1)), 1),
                         (D, _pair(_two_row(a + 2, a + 1), _col(a + 2)), 1),
                         (D, _pair(_two_row(a, a), _col(a - 1)), 1))
            if s == a + 1 and a <= n - 4:
                rows.row("K.d2.next", (K, bip(atyp("delta2", False, a + 1, a + 1)), 1),
                         (D, _pair(_two_row(a + 3, a + 1), _col(a + 3)), 1),
                         (D, _pair(_two_row(a + 2, a + 1), _col(a + 2)), 2))
            if s == n - 2 and 0 <= a <= n - 4:
                rows.row("K.d2.end", (D, bip(atyp("delta2", False, a + 1, n - 3)), 1),
                         (D, _pair(_two_row(n - 1, a + 1), _col(n - 1)), 2),
                         (D, _pair(_two_row(n - 2, a + 1), _col(n - 2)), 1))
            if s == n - 2 and a == n - 3 and n >= 3:
                rows.row("K.d2.preend", (D, bip(atyp("delta1", False, n - 2, n - 2)), 1),
                         (D, _pair(_two_row(n - 1, n - 2), _col(n - 1)), 2))
            if s == a == n - 2 and n >= 3:
                rows.row("K.d2.top", (K, bip(atyp("delta1", False, n - 1, n - 1)), 1),
                         (D, _pair(_two_row(n - 2, n - 2), _col(n - 3)), 1))
            if s == a == 1 and n >= 4:
                rows.row("K.d2.low", (K, bip(atyp("delta1", False, 2, 2)), 1),
                         (D, _pair(_two_row(3, 2), _col(3)), 1),
                         (D, _pair(_col(2), ()), 1))
            if s == a == 0 and n >= 2:
                rows.row("K.d2.origin", (K, bip(atyp("delta", False, 1, 1)), 1),
                         (D, _pair(_two_row(2, 1), _col(2)), 1),
                         (D, _pair(_col(3), _col(2)), 1))
    else:
        if fam == "delta":
            if 2 <= s <= m - 1 and a >= 2:
                rows.row("K.bd.mid", (K, bip(atyp("delta", True, a - 1, s)), 1),
                         (D, _pair(_row(s + 1), _hookp(a, s)), 1),
                         (D, _pair(_row(s), _hookp(a, s - 1)), 2),
                         (D, _pair(_row(s - 1), _hookp(a, s - 2)), 1))
            if s == 1 and a >= 2 and m >= 2:
                rows.row("K.bd.one", (K, bip(atyp("delta", True, a - 1, 1)), 1),
                         (D, _pair(_row(2), _hookp(a, 1)), 1),
                         (D, _pair(_row(1), _row(a)), 2),
                         (D, _pair(_col(2), _hookp(a, 1)), 1))
            if s == m and m >= 1 and a >= 2:
                rows.row("K.bd.end", (K, bip(atyp("delta", True, a - 1, m)), 1),
                         (D, _pair(_row(m), _hookp(a, m - 1)), 2),
                         (D, _pair(_row(m - 1), _hookp(a, m - 2)), 1))
            if 2 <= s <= m - 1 and a == 1:
                rows.row("K.bd.wall", (K, bip(atyp("delta2", False, 0, s - 1)), 1),
                         (D, _pair(_row(s + 1), _col(s + 1)), 1),
                         (D, _pair(_row(s), _col(s)), 2),
                         (D, _pair(_row(s - 1), _col(s - 1)), 1))
            if s == m and a == 1 and m >= 2:
                rows.row("K.bd.wallend", (D, bip(atyp("delta2", False, 0, m - 2)), 1),
                         (D, _pair(_row(m), _col(m)), 2),
                         (D, _pair(_row(m - 1), _col(m - 1)), 1))
            if s == 1 and a == 1 and m >= 2:
                rows.row("K.bd.wallone", (K, bip(atyp("delta2", False, 0, 0)), 1),
                         (D, _pair(_row(2), _col(2)), 1),
                         (D, _pair(_row(1), _row(1)), 2))
            if s == 1 and a == 1 and m == 1:
                rows.row("K.bd.tiny", (D, bip(atyp("delta", False, 0, 0)), 1),
                         (D, _pair(_row(1), _row(1)), 2))
            if s == 0 and a >= 1 and m >= 0:
                rows.row("K.bd.zero", (K, bip(atyp("delta", True, a - 1, 0)), 1),
                         (D, _pair(_row(1), _row(a)), 1))
        elif fam == "delta1":
            if 2 <= s <= min(a, m) - 1:
                rows.row("K.bd1.mid", (K, bip(atyp("delta1", True, a - 1, s)), 1),
                         (D, _pair(_col(s + 1), _two_row(a, s)), 1),
                         (D, _pair(_col(s), _two_row(a, s - 1)), 2),
                         (D, _pair(_col(s - 1), _two_row(a, s - 2)), 1))
            if s == a and 2 <= a <= m - 1:
                rows.row("K.bd1.corner", (K, bip(atyp("delta2", True, a - 1, a - 1)), 1),
                         (D, _pair(_col(a), _two_row(a, a - 1)), 2),
                         (D, _pair(_col(a - 1), _two_row(a, a - 2)), 1))
            if s == m and 2 <= m < a:
                rows.row("K.bd1.end", (K, bip(atyp("delta1", True, a - 1, m)), 1),
                         (D, _pair(_col(m), _two_row(a, m - 1)), 2),
                         (D, _pair(_col(m - 1), _two_row(a, m - 2)), 1))
            if s == a == m and m >= 2:
                rows.row("K.bd1.top", (D, bip(atyp("delta1", True, m - 1, m - 1)), 1),
                         (D, _pair(_col(m), _two_row(m, m - 1)), 2),
                         (D, _pair(_col(m - 1), _two_row(m, m - 2)), 1))
        else:
            if a + 2 <= s <= m - 3 and a >= 1:
                rows.row("K.bd2.mid", (K, bip(atyp("delta2", True, a - 1, s)), 1),
                         (D, _pair(_col(s + 3), _two_row(s + 1, a + 1)), 1),
                         (D, _pair(_col(s + 2), _two_row(s, a + 1)), 2),
                         (D, _pair(_col(s + 1), _two_row(s - 1, a + 1)), 1))
            if a == 0 and 2 <= s <= m - 3:
                rows.row("K.bd2.wall", (K, bip(atyp("delta", False, 1, s + 1)), 1),
                         (D, _pair(_col(s + 3), _two_row(s + 1, 1)), 1),
                         (D, _pair(_col(s + 2), _two_row(s, 1)), 2),
                         (D, _pair(_col(s + 1), _two_row(s - 1, 1)), 1))
            if s == a and 1 <= a <= m - 3:
                rows.row("K.bd2.corner", (K, bip(atyp("delta2", True, a - 1, a)), 1),
                         (D, _pair(_col(a + 3), _two_row(a + 1, a + 1)), 1),
                         (D, _pair(_col(a), _two_row(a, a - 1)), 1))
            if s == a + 1 and 1 <= a <= m - 4:
                rows.row("K.bd2.next", (K, bip(atyp("delta2", True, a - 1, a + 1)), 1),
                         (D, _pair(_col(a + 4), _two_row(a + 2, a + 1)), 1),
                         (D, _pair(_col(a + 3), _two_row(a + 1, a + 1)), 2))
            if s == m - 2 and 1 <= a <= m - 4:
                rows.row("K.bd2.end", (K, bip(atyp("delta2", True, a - 1, m - 2)), 1),
                         (D, _pair(_col(m), _two_row(m - 2, a + 1)), 2),
                         (D, _pair(_col(m - 1), _two_row(m - 3, a + 1)), 1))
            if a == 0 and s == 1 and m >= 4:
                rows.row("K.bd2.low", (K, bip(atyp("delta", False, 1, 2)), 1),
                         (D, _pair(_col(4), _two_row(2, 1)), 1),
                         (D, _pair(_col(3), _two_row(1, 1)), 2))
            if a == 0 and s == m - 2 and m >= 4:
                rows.row("K.bd2.wallend", (K, bip(atyp("delta", False, 1, m - 1)), 1),
                         (D, _pair(_col(m), _two_row(m - 2, 1)), 2),
                         (D, _pair(_col(m - 1), _two_row(m - 3, 1)), 1))
            if a == 0 and s == 1 and m == 3:
                # small-context end of the mirrored ladder (degenerate terms gone)
                rows.row("K.bd2.small", (K, bip(atyp("delta", False, 1, 2)), 1),
                         (D, _pair(_col(3), _col(2)), 2))
            if s == a + 1 and a == m - 3 and m >= 4:
                rows.row("K.bd2.preend", (K, bip(atyp("delta2", True, m - 4, m - 2)), 1),
                         (D, _pair(_col(m), _two_row(m - 2, m - 2)), 2))
            if s == a == m - 2 and m >= 3:
                rows.row("K.bd2.top", (K, bip(atyp("delta2", True, m - 3, m - 2)), 1),
                         (D, _pair(_col(m - 2), _two_row(m - 2, m - 3)), 1))
    return rows.unique(f"K({lab}) at ({m},{n})")


# ---------------------------------------------------------------------------
# the bimodule: dimension ledger and flattened bimodules
# ---------------------------------------------------------------------------

class LabelNotInBimodule(KeyError):
    pass


def dim_simple_x(lam: Bipartition, m: int, n: int) -> int:
    ledger = bm.dims_for(m, n)
    if lam not in ledger:
        raise LabelNotInBimodule(f"{lam!r} does not occur at ({m},{n})")
    return ledger[lam]


def dim_term(term, m: int, n: int) -> int:
    kind, lam = term
    if kind == "D":
        return dim_simple_x(lam, m, n)
    return sum(dim_simple_x(v, m, n) for v in xc.proj_structure(lam, m, n))


def _assembled(m: int, n: int, atypical: tuple) -> GrothVector:
    """The semisimple part, each simple boxed once, plus a flattened
    atypical part."""
    out = GrothVector(((("D", lam), z), 1) for lam, z in bm.semisimple_part(m, n))
    for key, mult in atypical:
        out.add(key, mult)
    return out


def q_flattened(m: int, n: int) -> GrothVector:
    """The fully assembled bimodule after centralizer-side flattening."""
    return _assembled(m, n, bm._q_atypical_items(m, n))


def p_flattened(m: int, n: int) -> GrothVector:
    """The fully assembled bimodule after quantum-side flattening."""
    return _assembled(m, n, bm._p_atypical_items(m, n))
