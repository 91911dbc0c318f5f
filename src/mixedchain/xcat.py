"""Label-level module category of the chain centralizer.

Simple heads D and projective covers K are labelled by cross
bipartitions.  The cover of an atypical label is written, as in the paper,
as its ordered simple subquotients: head, middle layer, socle
(`proj_structure`), read off the column layout of the atypical locus,
which `partitions.atypical_columns` owns.  This module encodes the
restriction rules for simple labels D down one right strand (the left
strand is its mirror under the swap involution), derives from them the
restriction of a projective K (`_res_k_atypical`: restriction is exact),
and holds the flattening functor that replaces a projective by its simple
subquotients.  It is the X-side category alone: the quantum-group labels
paired with these, and the dimension ledger read off the chain through
them, belong to `bimod`.

The atypical D rows are dispatched through explicit per-display guards
with a unique-match assertion, so a transcription slip fails loudly
instead of silently picking a neighbouring case.  The covers and the D
rows of a context's atypical labels are fields of its record (`labelctx`),
built once.  The exceptional rows of typical labels are indexed the same
way, by the label each re-glues (`_exceptional_rows`); a lookup validates
the rows stored under its label and asserts that exactly one matched, so
both checks fire for the same labels as a row-by-row probe.  The induction
identities restrict the labels of a bimodule through `restriction_items`,
which checks a label against the atypical set and the exceptional rows
first, so a generic typical label builds no vector; `restrict_simples`
does the same for a whole semisimple part, reading the two tables of its
context once.  A handful of displays extend the source tables to small
contexts the original guards leave out; each such extension is pinned by
the dimension-consistency and bimodule-projection tests.
"""

from __future__ import annotations

from .fusion import GrothVector
from .labelctx import field
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
    is_cross21,
    lambda_f,
    rem_boxes,
)


class NotCross(ValueError):
    pass


class NIsZero(ValueError):
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

def proj_structure(lam: Bipartition, m: int, n: int) -> tuple[Bipartition, ...]:
    """The simple subquotients of the projective cover K(lam) in the (m,n)
    context, head first, then the middle layer in column order, then the
    socle; a typical label is its own cover (lam,).  See `_covers`."""
    _f, lab = _classify_cross(lam, m, n)
    return (lam,) if lab is None else _covers(m, n)[lam]


@field
def _covers(m: int, n: int) -> dict[Bipartition, tuple[Bipartition, ...]]:
    """The cover of every atypical label of the context, read off the column
    layout: the columns in order, then the extra vertex.

    The cover of the extra vertex is a two-step chain (lam, bot) over its
    host column's label, or (lam,) when there are no columns.  The cover of
    a column label is (lam, *mids, lam): its neighbouring columns, and the
    extra vertex when the column hosts it, as middle layer between two
    copies of its head.  So the length of a cover fixes its Loewy edges:
    the head lies over every middle, and every middle over the socle, or
    the head over the socle when there is no middle.
    """
    cols, extra, host = atypical_columns(m, n)
    heads = [atypical_bipartition(c) for c in cols]
    top = atypical_bipartition(extra)
    out = {}
    for i, lam in enumerate(heads):
        mids = heads[max(i - 1, 0):i] + [top] * (host == i) + heads[i + 1:i + 2]
        out[lam] = (lam, *mids, lam)
    out[top] = (top,) if host is None else (top, heads[host])
    return out


def q_functor(term: XTerm, m: int, n: int) -> GrothVector:
    """Flatten a projective into its simple factors; identity on simples."""
    kind, lam = term
    out = GrothVector()
    for v in (lam,) if kind == "D" else proj_structure(lam, m, n):
        out.add(("D", v))
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


@field
def _atypical_d_rows(m: int, n: int) -> dict[Bipartition, GrothVector]:
    """The D row of every atypical label of the context (n >= 1), keyed by
    bipartition: the restrictions of its simples, and the terms that its
    projectives' restrictions are derived from."""
    return {lam: _res_d_atypical(lab, m, n) for lam, lab in atypical_set(m, n).items()}


class _KeyedRows:
    """The exceptional rows of one context, keyed by the typical label each
    re-glues; a key with an invalid half matches no label and is skipped.
    Terms are stored raw and validated by `_Rows.row` on lookup."""

    def __init__(self):
        self.by_key: dict[Bipartition, list[tuple[str, tuple]]] = {}

    def row(self, name: str, key, *terms):
        if key[0] is not None and key[1] is not None:
            self.by_key.setdefault(key, []).append((name, terms))


@field
def _exceptional_rows(m: int, n: int) -> dict[Bipartition, list[tuple[str, tuple]]]:
    """The re-gluing rows for typical labels whose restriction meets atypicals,
    indexed by the label each re-glues."""
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


def _exceptional_d(lam: Bipartition, found, m: int, n: int) -> GrothVector:
    """Validate the rows `found` stored under lam; exactly one must match."""
    rows = _Rows(m, n - 1)
    for name, terms in found:
        rows.row(name, *terms)
    return rows.unique(f"exceptional D({lam}) at ({m},{n})")


def res_right_d(lam: Bipartition, m: int, n: int) -> GrothVector:
    """Restriction of a simple label; entries are ("D"|"K", bipartition)."""
    if n < 1:
        raise NIsZero("right restriction needs n >= 1")
    _classify_cross(lam, m, n)
    return GrothVector(restriction_items(("D", lam), m, n))


def restriction_items(term: XTerm, m: int, n: int):
    """Restriction of an X-term down one right strand, as (term, mult)
    items: `res_right_d` of a "D" term, `res_right_k` of a "K" term.

    The label is checked against the atypical set and the exceptional rows
    first, and only those labels go through their displays.  A generic
    typical label gives its ("D", mu) items with multiplicity one, since
    the generic rule never yields a label twice, and builds no vector.  The
    caller vouches for the term: `res_right_d` and `res_right_k` validate
    it first, and the induction identities pass the bimodule's own terms.
    """
    kind, lam = term
    return _restrict(kind, lam, m, n, atypical_set(m, n), _exceptional_rows(m, n))


def restrict_simples(lams, m: int, n: int):
    """`restriction_items(("D", lam), m, n)` of each lam in turn, reading
    the context's atypical set and exceptional rows once for all of them:
    the induction identities restrict a whole semisimple part this way."""
    atypical, rows = atypical_set(m, n), _exceptional_rows(m, n)
    for lam in lams:
        yield _restrict("D", lam, m, n, atypical, rows)


def _restrict(kind: str, lam: Bipartition, m: int, n: int, atypical: dict, rows: dict):
    lab = atypical.get(lam)
    if lab is not None:
        return (_res_k_atypical(lab, m, n) if kind == "K" else _atypical_d_rows(m, n)[lam]).items()
    found = rows.get(lam)
    if found is not None:
        return _exceptional_d(lam, found, m, n).items()
    return [(("D", mu), 1) for mu in _generic_restriction(lam, lambda_f(lam, m, n))]


def _res_k_atypical(lab: AtypicalLabel, m: int, n: int) -> GrothVector:
    """Restriction of the projective cover of an atypical label, derived
    from the D rows.

    Restriction is exact, so the class of Res K(lam) is the sum of the D
    rows of the subquotients of K(lam), the head twice when it is also the
    socle.  That class is then split into covers of the (m, n-1) context:
    first every column cover that the sum contains, in any order, then the
    extra vertex's two-step chain if the sum still contains it; what is
    left are simples.  The split is not unique: at (2,1) the class
    2 d[1,1] + d[1,0] is both K(d[1,1]) and K(d[1,0]) + D(d[1,1]).
    Columns first is the choice the paper's displays make.  A cover that
    is its label alone is never peeled, so it is written ("D", mu).
    """
    rows = _atypical_d_rows(m, n)
    rest = GrothVector()
    for nu in _covers(m, n)[atypical_bipartition(lab)]:
        for term, mult in rows[nu].items():
            rest.add(term, mult)
    out = GrothVector()
    for mu, cover in _covers(m, n - 1).items():  # the columns, then the extra vertex
        if len(cover) > 1 and all(rest.get(("D", v), 0) >= cover.count(v) for v in cover):
            for v in cover:
                rest.add(("D", v), -1)
            out.add(("K", mu))
    for term, mult in rest.items():
        out.add(term, mult)
    return out


def res_right_k(lam: Bipartition, m: int, n: int) -> GrothVector:
    """Restriction of a projective label; ("K", mu) entries stay projective."""
    if n < 1:
        raise NIsZero("right restriction needs n >= 1")
    _classify_cross(lam, m, n)
    return GrothVector(restriction_items(("K", lam), m, n))
