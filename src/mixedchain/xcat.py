"""Label-level module category of the chain centralizer.

Specht modules S, simple heads D and projective covers K are labelled by
cross bipartitions; atypical labels additionally carry a Loewy structure.
This module derives the projective structures from the column layout of
the atypical locus, which `partitions.atypical_columns` owns.  It encodes
the restriction rules for S, D, K down one right strand (the left strand is
its mirror under the swap involution), the flattening functor that replaces
a projective by its simple subquotients, and the dimension ledger read off
the chain.

The atypical restriction tables are dispatched through explicit
per-display guards with a unique-match assertion, so a transcription slip
fails loudly instead of silently picking a neighbouring case.  The
exceptional rows of typical labels are indexed once per context by the
label each re-glues (`_exceptional_rows`); a lookup validates the rows
stored under its label and asserts that exactly one matched, so both
checks fire for the same labels as a row-by-row probe.  A handful of displays
extend the source tables to small contexts the original guards leave out;
each such extension is pinned by the dimension-consistency and
bimodule-projection tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fusion import GrothVector, chain_content
from .labels import bar, bar_cover, bar_to_plain, gbar
from .partitions import (
    AtypicalLabel,
    Bipartition,
    NotInLambda,
    add_boxes,
    atyp,
    atypical_bipartition,
    atypical_columns,
    atypical_set,
    classify_atypical,
    gswap_label,
    is_cross21,
    is_partition,
    lambda_f,
    rem_boxes,
)


class NotCross(ValueError):
    pass


class NIsZero(ValueError):
    pass


class LabelNotInBimodule(KeyError):
    pass


# X-side Grothendieck entries: ("D", bip) or ("K", bip); "K" only for
# atypical labels (typical projectives coincide with their simples).
XTerm = tuple[str, Bipartition]


def _classify_cross(lam: Bipartition, m: int, n: int) -> tuple[int, AtypicalLabel | None]:
    """The defect of a cross label of the (m,n) context and its atypical
    label, None when it is typical; raises when lam is not a cross label
    there.  The one validation of a restriction's input."""
    f = lambda_f(lam, m, n)
    if not is_cross21(lam):
        raise NotCross(f"{lam!r} is not a cross bipartition")
    return f, atypical_set(m, n).get(lam)


# ---------------------------------------------------------------------------
# projective structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoewyGraph:
    label: Bipartition
    vertices: tuple[tuple[str, Bipartition], ...]  # (layer, label)
    edges: tuple[tuple[int, int], ...]


def _graph_single(lam: Bipartition) -> LoewyGraph:
    return LoewyGraph(lam, (("top", lam),), ())


def _graph_chain2(lam: Bipartition, bot: Bipartition) -> LoewyGraph:
    return LoewyGraph(lam, (("top", lam), ("bot", bot)), ((0, 1),))


def _graph_mids(lam: Bipartition, mids) -> LoewyGraph:
    vertices = [("top", lam)] + [("mid", mu) for mu in mids] + [("bot", lam)]
    last = len(vertices) - 1
    edges = tuple((0, i) for i in range(1, last)) + tuple((i, last) for i in range(1, last))
    return LoewyGraph(lam, tuple(vertices), edges)


def proj_structure(lam: Bipartition, m: int, n: int) -> LoewyGraph:
    """Loewy graph of the projective cover K(lam) in the (m,n) context.

    Read off the column layout: the cover of the extra vertex is a two-step
    chain over its host column's label (a single vertex when there are no
    columns); the cover of a column label has its neighbouring columns, and
    the extra vertex when the column hosts it, as middle layer between two
    copies of its head.
    """
    _f, lab = _classify_cross(lam, m, n)
    if lab is None:
        return _graph_single(lam)
    cols, extra, host = atypical_columns(m, n)
    bip = atypical_bipartition
    if lab == extra:
        if host is None:
            return _graph_single(lam)
        return _graph_chain2(lam, bip(cols[host]))
    i = cols.index(lab)
    mids = []
    if i > 0:
        mids.append(bip(cols[i - 1]))
    if host == i:
        mids.append(bip(extra))
    if i + 1 < len(cols):
        mids.append(bip(cols[i + 1]))
    return _graph_mids(lam, mids)


def q_functor(term: XTerm, m: int, n: int) -> GrothVector:
    """Flatten a projective into its simple factors; identity on simples."""
    kind, lam = term
    if kind == "D":
        out = GrothVector()
        out.add(("D", lam))
        return out
    graph = proj_structure(lam, m, n)
    out = GrothVector()
    for _, v in graph.vertices:
        out.add(("D", v))
    return out


def q_expand(v: GrothVector, m: int, n: int) -> GrothVector:
    out = GrothVector()
    for term, mult in v.items():
        out.add_all(q_functor(term, m, n), mult)
    return out


# ---------------------------------------------------------------------------
# restriction functors
# ---------------------------------------------------------------------------

def _generic_restriction(lam: Bipartition, f: int) -> list[Bipartition]:
    """Remove a box on the right or, when the defect f is positive, add one
    on the left; the caller has already checked that lam is a cross label."""
    left, right = lam
    out = [(left, mu) for mu in rem_boxes(right)]
    if f > 0:
        out += [(nu, right) for nu in add_boxes(left) if is_cross21((nu, right))]
    return out


def res_right_s(lam: Bipartition, m: int, n: int) -> GrothVector:
    """Restriction of a Specht label one step down on the right side."""
    if n < 1:
        raise NIsZero("right restriction needs n >= 1")
    f, _lab = _classify_cross(lam, m, n)
    out = GrothVector()
    for mu in _generic_restriction(lam, f):
        out.add(mu)
    return out


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
    if left is None or right is None:
        return None
    if not is_partition(left) or not is_partition(right):
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


def _res_d_atypical(lab: AtypicalLabel, m: int, n: int) -> GrothVector:
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


class _KeyedRows:
    """The exceptional rows of one context, keyed by the typical label each
    re-glues; a key with an invalid half matches no label and is skipped.
    Terms are stored raw and validated by `_Rows.row` on lookup."""

    def __init__(self):
        self.by_key: dict[Bipartition, list[tuple[str, tuple]]] = {}

    def row(self, name: str, key, *terms):
        if key[0] is not None and key[1] is not None:
            self.by_key.setdefault(key, []).append((name, terms))


@lru_cache(maxsize=2)
def _exceptional_rows(m: int, n: int) -> dict[Bipartition, list[tuple[str, tuple]]]:
    """The re-gluing rows for typical labels whose restriction meets atypicals,
    indexed once per context; the restriction sweep reads one context at a time."""
    ap = abs(m - n + 1)
    rows = _KeyedRows()
    bip = atypical_bipartition

    # ((a',1^(s-1)), (s))
    if ap >= 1:
        for s in range(1, n):
            rows.row("X.d", (_hookp(ap, s - 1), _row(s)),
                     ("K", bip(atyp("delta", False, ap, s)), 1),
                     ("D", _pair(_hookp(ap + 1, s - 1), _row(s)), 1))
    # ((a',s), (1^(s+1)))
    if ap >= 1:
        for s in range(1, min(ap - 1, n - 2) + 1):
            rows.row("X.d1", (_two_row(ap, s), _col(s + 1)),
                     ("K", bip(atyp("delta1", False, ap, s + 1)), 1),
                     ("D", _pair(_two_row(ap + 1, s), _col(s + 1)), 1))
    # ((s,a'+1), (1^(s+2)))
    for s in range(ap + 2, n - 2):
        rows.row("X.d2", (_two_row(s, ap + 1), _col(s + 2)),
                 ("K", bip(atyp("delta2", False, ap, s)), 1),
                 ("D", _pair(_two_row(s, ap + 2), _col(s + 2)), 1))
    # ((a'+1,a'+1), (1^(a'+3)))
    if ap <= n - 4:
        rows.row("X.d2c", (_two_row(ap + 1, ap + 1), _col(ap + 3)),
                 ("K", bip(atyp("delta2", False, ap, ap + 1)), 1))
    # ((s), (a',1^(s+1)))
    if ap >= 2:
        for s in range(0, m):
            rows.row("X.bd", (_row(s), _hookp(ap, s + 1)),
                     ("K", bip(atyp("delta", True, ap, s + 1)), 1),
                     ("D", _pair(_row(s), _hookp(ap - 1, s + 1)), 1))
    # ((s), (1^(s+2)))
    for s in range(1, m):
        rows.row("X.bd.wall", (_row(s), _col(s + 2)),
                 ("K", bip(atyp("delta", True, 1, s + 1)), 1),
                 ("D", _pair(_two_row(s, 1), _col(s + 2)), 1))
    # ((1^(s-1)), (a',s))
    for s in range(2, min(ap - 1, m) + 1):
        rows.row("X.bd1", (_col(s - 1), _two_row(ap, s)),
                 ("K", bip(atyp("delta1", True, ap, s)), 1),
                 ("D", _pair(_col(s - 1), _two_row(ap - 1, s)), 1))
    # ((1^(a'-1)), (a',a'))
    if 1 <= ap <= m:
        rows.row("X.bd1c", (_col(ap - 1), _two_row(ap, ap)),
                 ("K", bip(atyp("delta1", True, ap, ap)), 1))
    # ((1^s), (s,a'+1))
    for s in range(ap + 1, m):
        rows.row("X.bd2", (_col(s), _two_row(s, ap + 1)),
                 ("K", bip(atyp("delta2", True, ap, s - 1)), 1),
                 ("D", _pair(_col(s), _two_row(s, ap)), 1))
    return rows.by_key


def _match_exceptional_d(lam: Bipartition, m: int, n: int) -> GrothVector | None:
    """The exceptional row of a typical label, or None when no row re-glues it."""
    found = _exceptional_rows(m, n).get(lam)
    if found is None:
        return None
    rows = _Rows(m, n - 1)
    for name, terms in found:
        rows.row(name, *terms)
    return rows.unique(f"exceptional D({lam}) at ({m},{n})")


def res_right_d(lam: Bipartition, m: int, n: int) -> GrothVector:
    """Restriction of a simple label; entries are ("D"|"K", bipartition)."""
    if n < 1:
        raise NIsZero("right restriction needs n >= 1")
    f, lab = _classify_cross(lam, m, n)
    return _res_d(lam, f, lab, m, n)


def _res_d(lam: Bipartition, f: int, lab: AtypicalLabel | None, m: int, n: int) -> GrothVector:
    """`res_right_d` past its validation, given the defect and the atypical
    label that `_classify_cross` read off lam."""
    if lab is not None:
        return _res_d_atypical(lab, m, n)
    special = _match_exceptional_d(lam, m, n)
    if special is not None:
        return special
    out = GrothVector()
    for mu in _generic_restriction(lam, f):
        out.add(("D", mu))
    return out


def _res_k_atypical(lab: AtypicalLabel, m: int, n: int) -> GrothVector:
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


def res_right_k(lam: Bipartition, m: int, n: int) -> GrothVector:
    """Restriction of a projective label; ("K", mu) entries stay projective."""
    if n < 1:
        raise NIsZero("right restriction needs n >= 1")
    f, lab = _classify_cross(lam, m, n)
    if lab is None:
        return _res_d(lam, f, None, m, n)
    return _res_k_atypical(lab, m, n)


# ---------------------------------------------------------------------------
# dimension ledger
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def dims_for(m: int, n: int) -> dict[Bipartition, int]:
    """Dimensions of all simple labels at (m,n), read off the chain content.

    The dict is memoised and shared by every caller, who must only read it.
    """
    from .bimod import semisimple_part  # local import to avoid a cycle

    chain = chain_content(m, n)
    out: dict[Bipartition, int] = {}
    for lam, zbar in semisimple_part(m, n):
        out[lam] = chain.get(bar_to_plain(zbar), 0)
    cols, extra, _host = atypical_columns(m, n)
    for lab in cols:
        zbar = column_top_label(lab, m, n)
        out[atypical_bipartition(lab)] = chain.get(bar_to_plain(bar_cover(zbar)), 0)
    zext = extra_vertex_label(m, n)
    out[atypical_bipartition(extra)] = chain.get(bar_to_plain(zext), 0)
    return out


def column_top_label(lab: AtypicalLabel, m: int, n: int):
    """Quantum-group label at the head of an atypical column."""
    if m < n:
        return gbar(column_top_label(gswap_label(lab), n, m))
    a, s = lab.a, lab.s
    if m == n:
        if lab.family != "delta2":
            raise AssertionError(f"unexpected column {lab} at ({m},{n})")
        return bar("Z", s - 1, 0, s) if lab.bar else bar("Z", s - 1, s, 0)
    if lab.family == "delta":
        return bar("Z", s, 0, s + a - 1)
    if lab.family == "delta1":
        return bar("Z", s, 0, a - s + 1)
    return bar("Z", s + 1, s - a, 0)


def extra_vertex_label(m: int, n: int):
    """Quantum-group label of the lone vertex glued into the zig-zag."""
    if m >= n:
        return bar("Z", 1, 0, m - n)
    return gbar(extra_vertex_label(n, m))


def dim_simple_x(lam: Bipartition, m: int, n: int) -> int:
    ledger = dims_for(m, n)
    if lam not in ledger:
        raise LabelNotInBimodule(f"{lam!r} does not occur at ({m},{n})")
    return ledger[lam]


def dim_term(term: XTerm, m: int, n: int) -> int:
    kind, lam = term
    if kind == "D":
        return dim_simple_x(lam, m, n)
    graph = proj_structure(lam, m, n)
    return sum(dim_simple_x(v, m, n) for _, v in graph.vertices)
