"""The chain as a bimodule: semisimple part, atypical zig-zag, verifications.

The chain splits into a semisimple part (simples boxed with typical
quantum-group modules, arranged in a (t,r)-table of bipartitions) and one
indecomposable atypical part whose Loewy graph is a zig-zag of diamonds,
one column per atypical label, plus a lone extra vertex.  Flattening the
atypical part on the quantum-group side (`p_atypical`) or on the
centralizer side (`q_atypical`) reproduces the paper's closed-form sums
(`closed_form_p`, `closed_form_q`), and the whole decomposition satisfies
two induction identities tying tensoring with the dual fundamental module
to restriction; these are the headline checks of the artifact.

This layer owns the quantum-group side of the bimodule, and computes it in
plain module labels (`ZLabel`, `RLabel`); a mirror context (m < n) maps
them with `labels.dual`.  The paper writes them in barred (p; t, r)
coordinates: its closed forms (`closed_form_p`, `closed_form_q`,
`column_top_label`, `extra_vertex_label`) are read through `bar_to_plain`,
and only `table_grid` and the CLI print them, through `plain_to_bar`.  The
atypical part is derived once from the column layout, as its graph
(`atypical_part`); both flattenings are read off that graph, and the
dimension ledger (`dims_for`) reads the q-flattening against the chain
content.

`verify_identities` checks both identities of a context in one pass: the
two flattenings share the semisimple part, so each of its simples is fused
and restricted once into one signed remainder, and only the projective
terms and the atypical parts are added per identity.  Each sum is a
`GrothVector` built by its `add`, one call per item.  Each label's fusion
is read from `fusion._fused_with_v`, the one fusion memo of the label
layer, and its projective summands are split off where they are read.
The per-context tables (`semisimple_part`, `atypical_part`, the flattened
atypical parts and `dims_for`) are fields of the context's record
(`labelctx`).  The dims check of a context (`bimodule_audit`) computes both
audits from one ledger and one semisimple content (`dimension_audits`),
and compares the flattened atypical parts of the record with their closed
forms.  The vertices and the graph of the atypical part are `TaggedTuple`
records, so this layer imports no `dataclasses`.
"""

from __future__ import annotations

from .fusion import GrothVector, _fused_with_v, chain_content
from .labelctx import field
from .labels import (
    R,
    RLabel,
    ZLabel,
    bar,
    bar_to_plain,
    dim_label,
    dual,
    is_atypical,
    plain_to_bar,
    proj_subquotients,
    simple_subquotients,
)
from .partitions import (
    AtypicalLabel,
    Bipartition,
    atyp,
    atypical_bipartition,
    atypical_columns,
    bip_str,
    gswap,
    gswap_label,
)
from .tagged import TaggedTuple
from .xcat import proj_structure, q_functor, restrict_simples, restriction_items

SemisimplePair = tuple[Bipartition, ZLabel]

_new = tuple.__new__
_Z_TAG = ZLabel._tag


def _hook(k: int, ones: int) -> tuple:
    return (k,) + (1,) * ones


@field
def semisimple_part(m: int, n: int) -> tuple[SemisimplePair, ...]:
    """All (bipartition, typical quantum label) pairs of the semisimple part.
    A mirror context (m < n) is built from the uncached pairs of (n, m)."""
    if m < n:
        return tuple((gswap(lam), dual(z)) for lam, z in _semisimple_pairs(n, m))
    return _semisimple_pairs(m, n)


def _semisimple_pairs(m: int, n: int) -> tuple[SemisimplePair, ...]:
    """The pairs of `semisimple_part` for m >= n, uncached."""
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


def _bar(kind: str, p: int, t: int, r: int):
    """The plain label that the paper writes as the barred label
    kind-bar[p; t, r]."""
    return bar_to_plain(bar(kind, p, t, r))


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


def _cover(z: ZLabel) -> RLabel:
    """The projective cover of an atypical simple, which has its fields."""
    return R(z.alpha, z.beta, z.s, z.r)


def _column_mids(z_top: ZLabel, prev_top, next_top) -> tuple[ZLabel, ZLabel]:
    """Orient the two cover middles toward the previous and next columns."""
    mA, mB = proj_subquotients(_cover(z_top))[1:3]
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
    """The indecomposable atypical summand, with both edge colours.  Column
    i holds the vertices 4i (top), 4i+1 and 4i+2 (its middles toward the
    previous and the next column) and 4i+3 (bottom); the extra vertex is
    the last one."""
    cols, extra, host = atypical_columns(m, n)
    xbip = atypical_bipartition
    tops = [column_top_label(lab, m, n) for lab in cols]
    vertices: list[BimodVertex] = []
    edges: list[tuple[int, int, str]] = []
    for i, lab in enumerate(cols):
        x = xbip(lab)
        prev_top = tops[i - 1] if i > 0 else None
        next_top = tops[i + 1] if i + 1 < len(cols) else None
        mid_prev, mid_next = _column_mids(tops[i], prev_top, next_top)
        vertices += (BimodVertex(x, tops[i], "top", i), BimodVertex(x, mid_prev, "mid", i),
                     BimodVertex(x, mid_next, "mid", i), BimodVertex(x, tops[i], "bot", i))
        top, bot = 4 * i, 4 * i + 3
        for mid in (top + 1, top + 2):
            edges += ((top, mid, "uq"), (mid, bot, "uq"))
    vertices.append(BimodVertex(xbip(extra), extra_vertex_label(m, n), "extra", -1))
    for i in range(len(cols)):
        top = 4 * i
        if i > 0:  # the previous column's head and foot meet this middle
            edges += ((top - 4, top + 1, "cent"), (top + 1, top - 1, "cent"))
        if i + 1 < len(cols):  # and so do the next column's
            edges += ((top + 4, top + 2, "cent"), (top + 2, top + 7, "cent"))
    if cols:
        last = len(vertices) - 1
        edges += ((4 * host, last, "cent"), (last, 4 * host + 3, "cent"))
    return BimoduleGraph(m, n, tuple(vertices), tuple(edges))


def _flattening(m: int, n: int, colour: str, head) -> GrothVector:
    """A flattening of the atypical part, read off its graph: a top vertex
    heads its component of edges of the colour, which flattens to the one
    term head(top), and any other vertex with no edge of that colour is a
    simple."""
    graph = atypical_part(m, n)
    coloured = set()
    for src, dst, c in graph.edges:
        if c == colour:
            coloured.add(src)
            coloured.add(dst)
    out = GrothVector()
    for i, v in enumerate(graph.vertices):
        if v.layer == "top":
            out.add(head(v))
        elif i not in coloured:
            out.add((("D", v.x), v.z))
    return out


def p_atypical(m: int, n: int) -> GrothVector:
    """Quantum-side flattening of the atypical part: each component of
    centralizer edges is the cover K of its top's bipartition, boxed with
    its simple quantum label."""
    return _flattening(m, n, "cent", lambda v: (("K", v.x), v.z))


def q_atypical(m: int, n: int) -> GrothVector:
    """Centralizer-side flattening: each column, a component of
    quantum-group edges, is its simple X-label boxed with the quantum cover
    of its top."""
    return _flattening(m, n, "uq", lambda v: (("D", v.x), _cover(v.z)))


def closed_form_q(m: int, n: int) -> GrothVector:
    """The flattened atypical part as displayed in closed form."""
    out = GrothVector()
    if m < n:
        for (term, z), mult in closed_form_q(n, m).items():
            out.add(((term[0], gswap(term[1])), dual(z)), mult)
        return out
    a = m - n
    xbip = atypical_bipartition
    if n == 0:
        out.add((("D", xbip(atyp("delta", False, m, 0))), _bar("Z", 1, 0, m)))
        return out
    if m > n:
        for s in range(1, n + 1):
            out.add((("D", xbip(atyp("delta", False, a, s))), _bar("R", s, 0, a + s - 1)))
        for s in range(2, min(a, n) + 1):
            out.add((("D", xbip(atyp("delta1", False, a, s))), _bar("R", s, 0, a - s + 1)))
        for s in range(a, n - 1):
            out.add((("D", xbip(atyp("delta2", False, a, s))), _bar("R", s + 1, s - a, 0)))
        out.add((("D", xbip(atyp("delta", False, a, 0))), _bar("Z", 1, 0, a)))
        return out
    if m == 1:
        out.add((("D", ((), ())), _bar("Z", 1, 0, 0)))
        return out
    for s in range(1, m - 1):
        out.add((("D", xbip(atyp("delta2", True, 0, s))), _bar("R", s - 1, 0, s)))
    for s in range(0, m - 1):
        out.add((("D", xbip(atyp("delta2", False, 0, s))), _bar("R", s - 1, s, 0)))
    out.add((("D", ((), ())), _bar("Z", 1, 0, 0)))
    return out


def closed_form_p(m: int, n: int) -> GrothVector:
    out = GrothVector()
    if m < n:
        for (term, z), mult in closed_form_p(n, m).items():
            out.add(((term[0], gswap(term[1])), dual(z)), mult)
        return out
    a = m - n
    xbip = atypical_bipartition
    if n == 0:
        out.add((("D", xbip(atyp("delta", False, m, 0))), _bar("Z", 1, 0, m)))
        return out
    if m > n:
        for s in range(1, n + 1):
            out.add((("K", xbip(atyp("delta", False, a, s))), _bar("Z", s, 0, a + s - 1)))
        for s in range(2, min(a, n) + 1):
            out.add((("K", xbip(atyp("delta1", False, a, s))), _bar("Z", s, 0, a - s + 1)))
        for s in range(a, n - 1):
            out.add((("K", xbip(atyp("delta2", False, a, s))), _bar("Z", s + 1, s - a, 0)))
        out.add((("D", xbip(atyp("delta", False, a, n))), _bar("Z", n + 1, 0, m)))
        if 2 * n <= m:
            out.add((("D", xbip(atyp("delta1", False, a, n))), _bar("Z", n + 1, 0, m - 2 * n)))
        elif 2 * n == m + 1:
            out.add((("D", xbip(atyp("delta1", False, a, a))), _bar("Z", a + 1, 0, 0)))
        else:
            out.add((("D", xbip(atyp("delta2", False, a, n - 2))), _bar("Z", n, 2 * n - m - 1, 0)))
        return out
    if m == 1:
        out.add((("D", ((), ())), _bar("Z", 1, 0, 0)))
        return out
    for s in range(1, m - 1):
        out.add((("K", xbip(atyp("delta2", True, 0, s))), _bar("Z", s - 1, 0, s)))
    for s in range(0, m - 1):
        out.add((("K", xbip(atyp("delta2", False, 0, s))), _bar("Z", s - 1, s, 0)))
    out.add((("D", xbip(atyp("delta2", True, 0, m - 2))), _bar("Z", m - 2, 0, m - 1)))
    out.add((("D", xbip(atyp("delta2", False, 0, m - 2))), _bar("Z", m - 2, m - 1, 0)))
    return out


# ---------------------------------------------------------------------------
# flattened bimodule and the induction identities
# ---------------------------------------------------------------------------

# Only the flattened atypical part, O(m+n) items, is a field of the record:
# the identities add the semisimple part, O((m+n)^2) items, term by term and
# never assemble the flattened bimodule.

@field
def _q_atypical_items(m: int, n: int) -> tuple:
    return tuple(q_atypical(m, n).items())


@field
def _p_atypical_items(m: int, n: int) -> tuple:
    return tuple(p_atypical(m, n).items())


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
    restriction counts the same on both right sides; only the glued K
    terms of typical labels differ, flattened for tensor and kept for
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
    # left side: (m, n) tensored with the dual fundamental module; its
    # projective summands are kept apart
    covers = []
    for lam, z in semisimple_part(m, n):
        term = ("D", lam)
        for w, wm in _fused_with_v(z):
            if isinstance(w, RLabel):
                covers.append((term, w, wm))
            else:
                shared[(term, w)] = wm
    # right side: (m, n+1) restricted down one right strand
    pairs = semisimple_part(m, n + 1)
    projective = []
    add = shared.add
    for (_lam, w), items in zip(pairs, restrict_simples([lam for lam, _w in pairs], m, n + 1)):
        for rterm, rm in items:
            if rterm[0] == "D":
                add((rterm, w), -rm)
            else:
                projective.append((rterm, w, rm))

    tensor = GrothVector(shared)
    for term, w, wm in covers:
        tensor.add((term, w), wm)
    for (term, z), mult in _q_atypical_items(m, n):
        for w, wm in _fused_with_v(z):
            tensor.add((term, w), mult * wm)
    for rterm, w, rm in projective:
        for dterm, dm in q_functor(rterm, m, n).items():
            tensor.add((dterm, w), -rm * dm)
    for (term, w), mult in _q_atypical_items(m, n + 1):
        for rterm, rm in restriction_items(term, m, n + 1):
            # a simple term is its own flattening
            flat = ((rterm, 1),) if rterm[0] == "D" else q_functor(rterm, m, n).items()
            for dterm, dm in flat:
                tensor.add((dterm, w), -mult * rm * dm)

    proj = shared
    for term, w, wm in covers:
        for sub in proj_subquotients(w):
            proj.add((term, sub), wm)
    for (term, z), mult in _p_atypical_items(m, n):
        for w, wm in _fused_with_v(z):
            for sub in simple_subquotients(w):
                proj.add((term, sub), mult * wm)
    for rterm, w, rm in projective:
        proj.add((rterm, w), -rm)
    for (term, w), mult in _p_atypical_items(m, n + 1):
        for rterm, rm in restriction_items(term, m, n + 1):
            proj.add((rterm, w), -mult * rm)
    return not tensor, not proj


# ---------------------------------------------------------------------------
# dimension ledger and audits
# ---------------------------------------------------------------------------

@field
def dims_for(m: int, n: int) -> dict[Bipartition, int]:
    """Dimensions of all simple labels at (m,n), read off the chain content:
    the multiplicity of the quantum label each is boxed with in the
    semisimple part and the q-flattened atypical part.  The dict is shared
    by every caller, who must only read it."""
    chain = chain_content(m, n)
    out = {lam: chain.get(z, 0) for lam, z in semisimple_part(m, n)}
    for (term, z), _mult in _q_atypical_items(m, n):
        out[term[1]] = chain.get(z, 0)
    return out


def dimension_audits(m: int, n: int) -> tuple[bool, bool]:
    """Both dimension audits of (m,n), sharing one ledger and one semisimple
    content, each plain label weighted by the X-dimension of its
    bipartition: (total bimodule dimension, and quantum content against
    the chain; p-flattened bimodule against the subquotient content of the
    chain)."""
    ledger = dims_for(m, n)
    total = sum(ledger[v.x] * dim_label(v.z) for v in atypical_part(m, n).vertices)
    semisimple: dict = {}
    for lam, z in semisimple_part(m, n):
        semisimple[z] = semisimple.get(z, 0) + ledger[lam]
        total += ledger[lam] * dim_label(z)
    q_side, p_side = dict(semisimple), semisimple
    for (term, z), mult in _q_atypical_items(m, n):
        q_side[z] = q_side.get(z, 0) + mult * ledger[term[1]]
    for ((kind, lam), z), mult in _p_atypical_items(m, n):
        if kind == "D":
            dim = ledger[lam]
        else:
            dim = sum(ledger[v] for v in proj_structure(lam, m, n))
        p_side[z] = p_side.get(z, 0) + mult * dim
    content = chain_content(m, n)
    subquotients: dict = {}
    for x, mult in content.items():
        for sub in simple_subquotients(x):
            subquotients[sub] = subquotients.get(sub, 0) + mult
    return total == 3 ** (m + n) and q_side == content, p_side == subquotients


def projections_match(m: int, n: int) -> bool:
    """The memoised flattened atypical parts against their closed forms."""
    return (dict(_p_atypical_items(m, n)) == closed_form_p(m, n)
            and dict(_q_atypical_items(m, n)) == closed_form_q(m, n))


def bimodule_audit(m: int, n: int) -> bool:
    """The dims check of one context: both audits and the closed forms."""
    dims_ok, p_ok = dimension_audits(m, n)
    return dims_ok and projections_match(m, n) and p_ok


# ---------------------------------------------------------------------------
# the (t, r) tables of the semisimple part
# ---------------------------------------------------------------------------

def table_grid(m: int, n: int):
    cells: dict[tuple[int, int], Bipartition] = {}
    for lam, z in semisimple_part(m, n):
        b = plain_to_bar(z)
        key = (b.t, b.r)
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
