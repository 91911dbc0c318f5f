"""Label-level module category of the chain centralizer.

Simple heads D and projective covers K are labelled by cross
bipartitions.  The cover of an atypical label is written, as in the paper,
as its ordered simple subquotients: head, middle layer, socle
(`proj_structure`), read off the zig-zag's columns and extra vertex, which
`partitions.label_classes` sorts out of the cross labels.  An atypical
label is its bipartition.  This module holds the
restriction of a simple label D down one right strand (the left strand is
its mirror under the swap involution), derives from it the restriction of
a projective K (`_res_k_atypical`: restriction is exact), and holds the
flattening functor that replaces a projective by its simple subquotients.
It is the X-side category alone: the quantum-group labels paired with
these, and the dimension ledger read off the chain through them, belong to
`bimod`.

A simple label restricts by one rule (`_d_row`) on its walled-Brauer
Pieri terms: an atypical label keeps its remove-box terms and the add-box
terms that are atypical one strand down, and a typical label glues each
such add-box term with the remove-box term in its cover into a projective.
The rule reads the atypical set of the context and the
covers one strand down, both fields of their contexts' records
(`labelctx`); `restriction_items` reads them per term and
`restrict_simples` once for a whole semisimple part, which is how the
induction identities restrict the labels of a bimodule.  The paper's
displays, which the rule replaces, are test oracles.
"""

from __future__ import annotations

from .fusion import GrothVector
from .labelctx import field
from .partitions import (
    Bipartition,
    add_boxes,
    atypical_set,
    is_cross21,
    label_classes,
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


def _classify_cross(lam: Bipartition, m: int, n: int) -> tuple[int, bool]:
    """The defect of a cross label of the (m,n) context and whether it is
    atypical; raises when lam is not a cross label there.  The one
    validation of a restriction's input."""
    f = lambda_f(lam, m, n)
    if not is_cross21(lam):
        raise NotCross(f"{lam!r} is not a cross bipartition")
    return f, lam in atypical_set(m, n)


# ---------------------------------------------------------------------------
# projective structure
# ---------------------------------------------------------------------------

def proj_structure(lam: Bipartition, m: int, n: int) -> tuple[Bipartition, ...]:
    """The simple subquotients of the projective cover K(lam) in the (m,n)
    context, head first, then the middle layer in column order, then the
    socle; a typical label is its own cover (lam,).  See `_covers`."""
    _f, atypical = _classify_cross(lam, m, n)
    return _covers(m, n)[lam] if atypical else (lam,)


@field
def _covers(m: int, n: int) -> dict[Bipartition, tuple[Bipartition, ...]]:
    """The cover of every atypical label of the context, read off its
    classes: the columns in order, then the extra vertex.

    The cover of the extra vertex is a two-step chain (lam, bot) over its
    host column's label, or (lam,) when there are no columns.  The cover of
    a column label is (lam, *mids, lam): its neighbouring columns, and the
    extra vertex when the column hosts it, as middle layer between two
    copies of its head.  So the length of a cover fixes its Loewy edges:
    the head lies over every middle, and every middle over the socle, or
    the head over the socle when there is no middle.
    """
    classes = label_classes(m, n)
    heads, top, host = classes.columns, classes.extra, classes.host
    out = {}
    for i, lam in enumerate(heads):
        mids = heads[max(i - 1, 0):i] + (top,) * (host == i) + heads[i + 1:i + 2]
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

def _d_row(lam: Bipartition, f: int, atypical: frozenset, below: dict) -> list:
    """The restriction of the simple D(lam), of defect f in the (m,n)
    context, down one right strand, as (term, 1) items; `atypical` is the
    atypical set of the context and `below` the covers of (m, n-1), keyed
    by its atypical labels.

    The rule starts from the walled-Brauer Pieri terms of lam: remove a box
    on the right or, when f is positive, add one on the left so that the
    result is a cross label.  An atypical lam keeps every remove-box term
    and only the add-box terms that are atypical below.  For a typical lam
    each add-box term nu that is atypical below glues with the remove-box
    term that lies in its cover into ("K", nu); every other term is a
    ("D", mu).  No term repeats, so every multiplicity is one.

    The rule reproduces the paper's D displays and the re-gluing rows of
    typical labels (the test oracles `res_d_table` and
    `exceptional_d_table`) for every cross label with m+n <= 34, and at
    contexts as far as (75,75), (100,50) and (1,149); there each atypical
    add-box term of a typical label has exactly one remove-box term in its
    cover.
    """
    left, right = lam
    removed = [(left, mu) for mu in rem_boxes(right)]
    added = [(nu, right) for nu in add_boxes(left) if is_cross21((nu, right))] if f > 0 else ()
    if lam in atypical:
        return [(("D", mu), 1) for mu in removed + [nu for nu in added if nu in below]]
    out = []
    for nu in added:
        cover = below.get(nu, ())
        glued = [mu for mu in removed if mu in cover]
        if glued:
            removed.remove(glued[0])
            out.append((("K", nu), 1))
        else:
            out.append((("D", nu), 1))
    return [(("D", mu), 1) for mu in removed] + out


def res_right_d(lam: Bipartition, m: int, n: int) -> GrothVector:
    """Restriction of a simple label; entries are ("D"|"K", bipartition)."""
    if n < 1:
        raise NIsZero("right restriction needs n >= 1")
    _classify_cross(lam, m, n)
    return GrothVector(restriction_items(("D", lam), m, n))


def restriction_items(term: XTerm, m: int, n: int):
    """Restriction of an X-term down one right strand, as (term, mult)
    items: `res_right_d` of a "D" term, `res_right_k` of a "K" term.

    A simple label, and a typical projective, gives its `_d_row` and builds
    no vector.  The caller vouches for the term: `res_right_d` and
    `res_right_k` validate it first, and the induction identities pass the
    bimodule's own terms.
    """
    kind, lam = term
    return _restrict(kind, lam, m, n, atypical_set(m, n), _covers(m, n - 1))


def restrict_simples(lams, m: int, n: int):
    """`restriction_items(("D", lam), m, n)` of each lam in turn, reading
    the context's atypical set and the covers below it once for all of
    them: the induction identities restrict a whole semisimple part this
    way."""
    atypical, below = atypical_set(m, n), _covers(m, n - 1)
    for lam in lams:
        yield _restrict("D", lam, m, n, atypical, below)


def _restrict(kind: str, lam: Bipartition, m: int, n: int, atypical: frozenset, below: dict):
    if kind == "K" and lam in atypical:
        return _res_k_atypical(lam, m, n).items()
    return _d_row(lam, lambda_f(lam, m, n), atypical, below)


def _res_k_atypical(lam: Bipartition, m: int, n: int) -> GrothVector:
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
    atypical, below = atypical_set(m, n), _covers(m, n - 1)
    rest = GrothVector()
    for nu in _covers(m, n)[lam]:
        for term, mult in _d_row(nu, lambda_f(nu, m, n), atypical, below):
            rest.add(term, mult)
    out = GrothVector()
    for mu, cover in below.items():  # the columns, then the extra vertex
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
