"""The chain as a bimodule: semisimple part, atypical zig-zag, verifications.

The chain splits into a semisimple part (simples boxed with typical
quantum-group modules, arranged in a (t,r)-table of bipartitions) and one
indecomposable atypical part whose Loewy graph is a zig-zag of diamonds,
one column per atypical label, plus a lone extra vertex.  Flattening the
quantum-group side (p_*) or the centralizer side (q_*) of the atypical part
reproduces closed-form sums, and the whole decomposition satisfies two
induction identities tying tensoring with the dual fundamental module to
restriction; these are the headline checks of the artifact.

`verify_identities` checks both identities of a context in one pass: the
two flattenings share the semisimple part, so each of its simples is fused
and restricted once into one signed remainder, and only the projective
terms and the atypical parts are added per identity.  Each sum is a
`GrothVector` built by its `add`, one call per item.  The fusion of each
barred label is memoised in an LRU cache of 8192 labels (`_fused`), like
`labels.bar_to_plain`, which holds every label of a sweep to m+n = 25; it
reads the fusion rule table uncached, so a label's fusion is kept once.
The per-context tables (`semisimple_part`, `atypical_part` and the flattened
atypical parts) are fields of the context's record (`labelctx`).  The dims
check of a context (`bimodule_audit`) reads the ledger `xcat.dims_for` and
builds the semisimple content once for both audits, and compares the
flattened atypical parts of the record with their closed forms.  The
vertices and the graph of the atypical part are `TaggedTuple` records, so
this layer imports no `dataclasses`.
"""

from __future__ import annotations

from functools import lru_cache

from .fusion import GrothVector, chain_content, fuse_with_v
from .labelctx import field
from .labels import (
    BarLabel,
    RLabel,
    bar,
    bar_cover,
    bar_subquotients,
    bar_to_plain,
    dim_bar,
    gbar,
    is_atypical,
    proj_subquotients,
    simple_subquotients,
)
from .partitions import (
    Bipartition,
    atyp,
    atypical_bipartition,
    atypical_columns,
    bip_str,
    gswap,
)
from .tagged import TaggedTuple
from .xcat import (
    column_top_label,
    dims_for,
    extra_vertex_label,
    proj_structure,
    q_functor,
    restrict_simples,
    restriction_items,
)

SemisimplePair = tuple[Bipartition, BarLabel]

_new = tuple.__new__
_BAR_TAG = BarLabel._tag


def _hook(k: int, ones: int) -> tuple:
    return (k,) + (1,) * ones


@field
def semisimple_part(m: int, n: int) -> tuple[SemisimplePair, ...]:
    """All (bipartition, typical quantum label) pairs of the semisimple part.
    A mirror context (m < n) is built from the uncached pairs of (n, m)."""
    if m < n:
        return tuple((gswap(lam), gbar(z)) for lam, z in _semisimple_pairs(n, m))
    return _semisimple_pairs(m, n)


def _semisimple_pairs(m: int, n: int) -> tuple[SemisimplePair, ...]:
    """The pairs of `semisimple_part` for m >= n, uncached."""
    if m + n == 0:
        return ()
    # (bipartition, p, t, r) of each simple barred label Zbar[p; t, r]
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
    # the ranges above give valid labels only, so `bar` need not check them
    pairs = tuple((lam, _new(BarLabel, (_BAR_TAG, "Z", p % 2, t, r)))
                  for lam, p, t, r in cells)
    for lam, z in pairs:
        if is_atypical(bar_to_plain(z)):
            raise AssertionError(f"atypical label {z} in the semisimple part")
    return pairs


# ---------------------------------------------------------------------------
# the atypical part as a graph
# ---------------------------------------------------------------------------

class BimodVertex(TaggedTuple, fields="x z layer col"):
    """A vertex of the atypical part: its bipartition x, its quantum label
    z, its layer ("top", "mid", "bot" or "extra") and its column index
    (-1 for the extra vertex)."""

    __slots__ = ()


class BimoduleGraph(TaggedTuple, fields="m n vertices edges"):
    """The atypical part of the (m,n) context: its vertices, and its edges
    as (src, dst, colour) with colour "uq" or "cent"."""

    __slots__ = ()


def _column_mids(z_top: BarLabel, prev_top, next_top) -> tuple[BarLabel, BarLabel]:
    """Orient the two cover middles toward the previous and next columns."""
    mA, mB = bar_subquotients(bar_cover(z_top))[1:3]
    if prev_top is not None:
        if mA == prev_top:
            pair = mA, mB
        elif mB == prev_top:
            pair = mB, mA
        else:
            raise AssertionError(f"no middle of {z_top} matches previous top {prev_top}")
    elif next_top is not None:
        pair = (mA, mB) if mB == next_top else (mB, mA)
    else:
        return mA, mB
    if next_top is not None and pair[1] != next_top:
        raise AssertionError(f"no middle of {z_top} matches next top {next_top}")
    return pair


@field
def atypical_part(m: int, n: int) -> BimoduleGraph:
    """The indecomposable atypical summand, with both edge colours."""
    cols, extra, host = atypical_columns(m, n)
    xbip = atypical_bipartition
    z_extra = extra_vertex_label(m, n)
    if not cols:
        v = (BimodVertex(xbip(extra), z_extra, "extra", -1),)
        return BimoduleGraph(m, n, v, ())
    tops = [column_top_label(lab, m, n) for lab in cols]
    vertices: list[BimodVertex] = []
    edges: list[tuple[int, int, str]] = []
    idx: dict[tuple[int, str], int] = {}

    def put(v: BimodVertex, key) -> int:
        idx[key] = len(vertices)
        vertices.append(v)
        return idx[key]

    for i, lab in enumerate(cols):
        x = xbip(lab)
        prev_top = tops[i - 1] if i > 0 else None
        next_top = tops[i + 1] if i + 1 < len(cols) else None
        mid_prev, mid_next = _column_mids(tops[i], prev_top, next_top)
        put(BimodVertex(x, tops[i], "top", i), (i, "top"))
        put(BimodVertex(x, mid_prev, "mid", i), (i, "midp"))
        put(BimodVertex(x, mid_next, "mid", i), (i, "midn"))
        put(BimodVertex(x, tops[i], "bot", i), (i, "bot"))
        for mk in ("midp", "midn"):
            edges.append((idx[(i, "top")], idx[(i, mk)], "uq"))
            edges.append((idx[(i, mk)], idx[(i, "bot")], "uq"))
    extra_i = put(BimodVertex(xbip(extra), z_extra, "extra", -1), ("extra",))
    for i in range(len(cols)):
        if i > 0:
            edges.append((idx[(i - 1, "top")], idx[(i, "midp")], "cent"))
            edges.append((idx[(i, "midp")], idx[(i - 1, "bot")], "cent"))
        if i + 1 < len(cols):
            edges.append((idx[(i + 1, "top")], idx[(i, "midn")], "cent"))
            edges.append((idx[(i, "midn")], idx[(i + 1, "bot")], "cent"))
    edges.append((idx[(host, "top")], extra_i, "cent"))
    edges.append((extra_i, idx[(host, "bot")], "cent"))
    return BimoduleGraph(m, n, tuple(vertices), tuple(edges))


def p_atypical(m: int, n: int) -> GrothVector:
    """Quantum-side flattening of the atypical part: (X-term, simple bar) pairs."""
    cols, extra, _host = atypical_columns(m, n)
    xbip = atypical_bipartition
    out = GrothVector()
    if not cols:
        out.add((("D", xbip(extra)), extra_vertex_label(m, n)))
        return out
    tops = [column_top_label(lab, m, n) for lab in cols]
    for i, lab in enumerate(cols):
        out.add((("K", xbip(lab)), tops[i]))
    first_mid, _ = _column_mids(tops[0], None, tops[1] if len(cols) > 1 else None)
    _, last_mid = _column_mids(tops[-1], tops[-2] if len(cols) > 1 else None, None)
    out.add((("D", xbip(cols[0])), first_mid))
    out.add((("D", xbip(cols[-1])), last_mid))
    return out


def q_atypical(m: int, n: int) -> GrothVector:
    """Centralizer-side flattening: (X-term, quantum indecomposable) pairs."""
    cols, extra, _host = atypical_columns(m, n)
    xbip = atypical_bipartition
    out = GrothVector()
    for lab in cols:
        out.add((("D", xbip(lab)), bar_cover(column_top_label(lab, m, n))))
    out.add((("D", xbip(extra)), extra_vertex_label(m, n)))
    return out


def closed_form_q(m: int, n: int) -> GrothVector:
    """The flattened atypical part as displayed in closed form."""
    out = GrothVector()
    if m < n:
        for (term, z), mult in closed_form_q(n, m).items():
            out.add(((term[0], gswap(term[1])), gbar(z)), mult)
        return out
    a = m - n
    xbip = atypical_bipartition
    if n == 0:
        out.add((("D", xbip(atyp("delta", False, m, 0))), bar("Z", 1, 0, m)))
        return out
    if m > n:
        for s in range(1, n + 1):
            out.add((("D", xbip(atyp("delta", False, a, s))), bar("R", s, 0, a + s - 1)))
        for s in range(2, min(a, n) + 1):
            out.add((("D", xbip(atyp("delta1", False, a, s))), bar("R", s, 0, a - s + 1)))
        for s in range(a, n - 1):
            out.add((("D", xbip(atyp("delta2", False, a, s))), bar("R", s + 1, s - a, 0)))
        out.add((("D", xbip(atyp("delta", False, a, 0))), bar("Z", 1, 0, a)))
        return out
    if m == 1:
        out.add((("D", ((), ())), bar("Z", 1, 0, 0)))
        return out
    for s in range(1, m - 1):
        out.add((("D", xbip(atyp("delta2", True, 0, s))), bar("R", s - 1, 0, s)))
    for s in range(0, m - 1):
        out.add((("D", xbip(atyp("delta2", False, 0, s))), bar("R", s - 1, s, 0)))
    out.add((("D", ((), ())), bar("Z", 1, 0, 0)))
    return out


def closed_form_p(m: int, n: int) -> GrothVector:
    out = GrothVector()
    if m < n:
        for (term, z), mult in closed_form_p(n, m).items():
            out.add(((term[0], gswap(term[1])), gbar(z)), mult)
        return out
    a = m - n
    xbip = atypical_bipartition
    if n == 0:
        out.add((("D", xbip(atyp("delta", False, m, 0))), bar("Z", 1, 0, m)))
        return out
    if m > n:
        for s in range(1, n + 1):
            out.add((("K", xbip(atyp("delta", False, a, s))), bar("Z", s, 0, a + s - 1)))
        for s in range(2, min(a, n) + 1):
            out.add((("K", xbip(atyp("delta1", False, a, s))), bar("Z", s, 0, a - s + 1)))
        for s in range(a, n - 1):
            out.add((("K", xbip(atyp("delta2", False, a, s))), bar("Z", s + 1, s - a, 0)))
        out.add((("D", xbip(atyp("delta", False, a, n))), bar("Z", n + 1, 0, m)))
        if 2 * n <= m:
            out.add((("D", xbip(atyp("delta1", False, a, n))), bar("Z", n + 1, 0, m - 2 * n)))
        elif 2 * n == m + 1:
            out.add((("D", xbip(atyp("delta1", False, a, a))), bar("Z", a + 1, 0, 0)))
        else:
            out.add((("D", xbip(atyp("delta2", False, a, n - 2))), bar("Z", n, 2 * n - m - 1, 0)))
        return out
    if m == 1:
        out.add((("D", ((), ())), bar("Z", 1, 0, 0)))
        return out
    for s in range(1, m - 1):
        out.add((("K", xbip(atyp("delta2", True, 0, s))), bar("Z", s - 1, 0, s)))
    for s in range(0, m - 1):
        out.add((("K", xbip(atyp("delta2", False, 0, s))), bar("Z", s - 1, s, 0)))
    out.add((("D", xbip(atyp("delta2", True, 0, m - 2))), bar("Z", m - 2, 0, m - 1)))
    out.add((("D", xbip(atyp("delta2", False, 0, m - 2))), bar("Z", m - 2, m - 1, 0)))
    return out


# ---------------------------------------------------------------------------
# flattened bimodule and the induction identities
# ---------------------------------------------------------------------------

# Only the flattened atypical part, O(m+n) items, is a field of the record:
# the assembled bimodule adds the semisimple part, O((m+n)^2) items.

@field
def _q_atypical_items(m: int, n: int) -> tuple:
    return tuple(q_atypical(m, n).items())


@field
def _p_atypical_items(m: int, n: int) -> tuple:
    return tuple(p_atypical(m, n).items())


def _assembled(m: int, n: int, atypical: tuple) -> GrothVector:
    """The semisimple part, each simple boxed once, plus a flattened
    atypical part."""
    out = GrothVector(((("D", lam), z), 1) for lam, z in semisimple_part(m, n))
    for key, mult in atypical:
        out.add(key, mult)
    return out


def q_flattened(m: int, n: int) -> GrothVector:
    """The fully assembled bimodule after centralizer-side flattening."""
    return _assembled(m, n, _q_atypical_items(m, n))


def p_flattened(m: int, n: int) -> GrothVector:
    """The fully assembled bimodule after quantum-side flattening."""
    return _assembled(m, n, _p_atypical_items(m, n))


@lru_cache(maxsize=8192)
def _fused(z: BarLabel) -> tuple[tuple, tuple, tuple]:
    """z (x) the dual fundamental module as (label, mult) items, split for
    the two identities: its simple summands, its projective summands, and
    the simple subquotients of those projective summands.  Memoised per
    label, the one fusion memo of the identities: a sweep to m+n = 25 fuses
    1,869 barred labels, and 8192 hold them all."""
    simples, covers, subs = [], [], {}
    for w, wm in fuse_with_v(bar_to_plain(z)).items():
        if isinstance(w, RLabel):
            covers.append((w, wm))
            for sub in proj_subquotients(w):
                subs[sub] = subs.get(sub, 0) + wm
        else:
            simples.append((w, wm))
    return tuple(simples), tuple(covers), tuple(subs.items())


def verify_identities(m: int, n: int) -> tuple[bool, bool]:
    """Both induction identities at (m,n), in one pass: (tensor, proj).

    tensor: the q-flattened chain tensored with the dual fundamental module
    matches the restriction of the next chain (m, n+1), flattened again.
    proj: the p-flattened chain tensored with it, each summand replaced by
    its simple subquotients, matches the restricted p-flattened next chain.

    Each identity is checked as one signed difference, left side minus
    right side, that must vanish; every multiplicity of either side is
    positive, so it vanishes exactly when the two sides are equal.  The two
    flattenings share the semisimple part, so each of its simples is fused
    and restricted once.  A simple summand of a fusion counts the same on
    both left sides; only a projective summand differs, kept for tensor and
    expanded into its subquotients for proj.  A simple term of a
    restriction counts the same on both right sides; only the projective
    terms of exceptional rows differ, flattened for tensor and kept for
    proj.  So the shared terms go into one remainder, which mostly cancels;
    each identity then adds its own terms, and its flattening of the
    atypical part, to a copy of that remainder.  Within the semisimple part
    no left key repeats: its bipartitions are distinct, so its entries are
    set, not summed.  Every other term is summed by `GrothVector.add`, one
    call per item, so a repeated key is never overwritten.
    """
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    shared = GrothVector()
    # left side: (m, n) tensored with the dual fundamental module
    split = []
    for lam, z in semisimple_part(m, n):
        term = ("D", lam)
        simples, covers, subs = _fused(z)
        for w, wm in simples:
            shared[(term, w)] = wm
        if covers:
            split.append((term, covers, subs))
    # right side: (m, n+1) restricted down one right strand
    pairs = semisimple_part(m, n + 1)
    projective = []
    add = shared.add
    for (_lam, z), items in zip(pairs, restrict_simples([lam for lam, _z in pairs], m, n + 1)):
        w = bar_to_plain(z)
        for rterm, rm in items:
            if rterm[0] == "D":
                add((rterm, w), -rm)
            else:
                projective.append((rterm, w, rm))

    tensor = GrothVector(shared)
    for term, covers, _subs in split:
        for w, wm in covers:
            tensor.add((term, w), wm)
    for (term, z), mult in _q_atypical_items(m, n):
        simples, covers, _subs = _fused(z)
        for w, wm in simples + covers:
            tensor.add((term, w), mult * wm)
    for rterm, w, rm in projective:
        for dterm, dm in q_functor(rterm, m, n).items():
            tensor.add((dterm, w), -rm * dm)
    for (term, z), mult in _q_atypical_items(m, n + 1):
        w = bar_to_plain(z)
        for rterm, rm in restriction_items(term, m, n + 1):
            # a simple term is its own flattening
            flat = ((rterm, 1),) if rterm[0] == "D" else q_functor(rterm, m, n).items()
            for dterm, dm in flat:
                tensor.add((dterm, w), -mult * rm * dm)

    proj = shared
    for term, _covers, subs in split:
        for w, wm in subs:
            proj.add((term, w), wm)
    for (term, z), mult in _p_atypical_items(m, n):
        simples, _covers, subs = _fused(z)
        for w, wm in simples + subs:
            proj.add((term, w), mult * wm)
    for rterm, w, rm in projective:
        proj.add((rterm, w), -rm)
    for (term, z), mult in _p_atypical_items(m, n + 1):
        w = bar_to_plain(z)
        for rterm, rm in restriction_items(term, m, n + 1):
            proj.add((rterm, w), -mult * rm)
    return not tensor, not proj


def _audits(m: int, n: int) -> tuple[bool, bool]:
    """(`dimension_audit`, `p_weighted_against_chain`) of (m,n), sharing one
    ledger and one semisimple content: each plain label weighted by the
    X-dimension of its bipartition."""
    ledger = dims_for(m, n)
    total = sum(ledger[v.x] * dim_bar(v.z) for v in atypical_part(m, n).vertices)
    semisimple: dict = {}
    for lam, z in semisimple_part(m, n):
        w = bar_to_plain(z)
        semisimple[w] = semisimple.get(w, 0) + ledger[lam]
        total += ledger[lam] * dim_bar(z)
    q_side, p_side = dict(semisimple), semisimple
    for (term, z), mult in _q_atypical_items(m, n):
        w = bar_to_plain(z)
        q_side[w] = q_side.get(w, 0) + mult * ledger[term[1]]
    for ((kind, lam), z), mult in _p_atypical_items(m, n):
        if kind == "D":
            dim = ledger[lam]
        else:
            dim = sum(ledger[v] for _, v in proj_structure(lam, m, n).vertices)
        w = bar_to_plain(z)
        p_side[w] = p_side.get(w, 0) + mult * dim
    content = chain_content(m, n)
    subquotients: dict = {}
    for x, mult in content.items():
        for sub in simple_subquotients(x):
            subquotients[sub] = subquotients.get(sub, 0) + mult
    return total == 3 ** (m + n) and q_side == content, p_side == subquotients


def dimension_audit(m: int, n: int) -> bool:
    """Total bimodule dimension, and quantum content against the chain."""
    return _audits(m, n)[0]


def p_weighted_against_chain(m: int, n: int) -> bool:
    """p-flattened bimodule, weighted by X-dimensions, against the
    subquotient content of the chain."""
    return _audits(m, n)[1]


def projections_match(m: int, n: int) -> bool:
    """The memoised flattened atypical parts against their closed forms."""
    return (dict(_p_atypical_items(m, n)) == closed_form_p(m, n)
            and dict(_q_atypical_items(m, n)) == closed_form_q(m, n))


def bimodule_audit(m: int, n: int) -> bool:
    """The dims check of one context: both audits and the closed forms."""
    dims_ok, p_ok = _audits(m, n)
    return dims_ok and projections_match(m, n) and p_ok


# ---------------------------------------------------------------------------
# the (t, r) tables of the semisimple part
# ---------------------------------------------------------------------------

def table_grid(m: int, n: int):
    cells: dict[tuple[int, int], Bipartition] = {}
    for lam, z in semisimple_part(m, n):
        key = (z.t, z.r)
        if key in cells:
            raise AssertionError(f"duplicate table cell {key}")
        cells[key] = lam
    if not cells:
        return cells, [], []
    ts = sorted({t for t, _ in cells})
    rs = sorted({r for _, r in cells})
    return cells, list(range(ts[0], ts[-1] + 1)), list(range(rs[0], rs[-1] + 1))


def table_csv(m: int, n: int) -> str:
    cells, ts, rs = table_grid(m, n)
    if not cells:
        return "\n"
    lines = ["," + ",".join(f"t={t}" for t in ts)]
    for r in reversed(rs):
        row = [f"r={r}"]
        for t in ts:
            lam = cells.get((t, r))
            row.append(bip_str(lam) if lam is not None else "0")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
