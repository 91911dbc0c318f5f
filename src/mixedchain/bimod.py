"""The chain as a bimodule: semisimple part, atypical zig-zag, verifications.

The chain splits into a semisimple part (simples boxed with typical
quantum-group modules, arranged in a (t,r)-table of bipartitions) and one
indecomposable atypical part whose Loewy graph is a zig-zag of diamonds,
one column per atypical label, plus a lone extra vertex.  One rule,
`quantum_label`, reads the quantum label of every cross label off its
first rows: the typical ones make the semisimple part, and the atypical
ones head the columns and label the extra vertex.  The barred (t, r) of
that rule also lays the zig-zag out: `partitions.label_classes` sorts
the cross labels of a context by it in one pass, into the semisimple
cells, the columns in order and the extra vertex.  Flattening the
atypical part on the quantum-group side (`p_atypical`) or on the
centralizer side (`q_atypical`) reproduces the paper's closed-form sums
(`closed_form_p`, `closed_form_q`), and the whole decomposition satisfies
two induction identities tying tensoring with the dual fundamental module
to restriction; these are the headline checks of the artifact.

This layer owns the quantum-group side of the bimodule, and computes it in
plain module labels (`ZLabel`, `RLabel`); a mirror context (m < n) maps
them with `labels.dual`.  The paper writes them in barred (p; t, r)
coordinates: the rule and the paper's closed forms (`closed_form_p`,
`closed_form_q`) are read through `bar_to_plain`, and only `table_grid` and
the CLI print them, through `plain_to_bar`.  The
atypical part is derived once from those classes, as its graph
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
    plain_to_bar,
    proj_subquotients,
    simple_subquotients,
)
from .partitions import Bipartition, _barred, bip_str, gswap, label_classes
from .tagged import TaggedTuple
from .xcat import proj_structure, q_functor, restrict_simples, restriction_items

SemisimplePair = tuple[Bipartition, ZLabel]

_new = tuple.__new__
_Z_TAG = ZLabel._tag


@field
def semisimple_part(m: int, n: int) -> tuple[SemisimplePair, ...]:
    """All (bipartition, typical quantum label) pairs of the semisimple part,
    by barred (t, r), then bipartition; a mirror context (m < n) mirrors
    the pairs of (n, m), in their order."""
    a, mirror = abs(m - n), m < n
    # the typical Zbar[1 + a + t + r; t, r] is Z[1, (-1)^(1+a+t+r); t + r, r],
    # and its dual Z[1, (-1)^(1+a+t+r); t + r, t]
    return tuple((lam, _new(ZLabel, (_Z_TAG, 1, 1 if (a + t + r) % 2 else -1, t + r,
                                     t if mirror else r)))
                 for t, r, lam in label_classes(m, n).cells)


def quantum_label(lam: Bipartition, m: int, n: int) -> ZLabel:
    """The simple quantum label boxed with the cross label lam = (L, R) of
    the (m,n) context.  For m >= n, a = m - n, L_i, R_i the row lengths (0
    past the last) and l(.) the number of rows: t = L_1 - a - (R_2 if
    L_1 = 1, l(L) >= 3 and l(R) = 2), r = R_1 + a - c with c = L_2 - 1 +
    [R nonempty, l(L) = 2] if R_1 <= 1 <= L_2, else 0.  lam is typical iff
    t*r != 0; an atypical lam with (t, r) != (0, 0) lowers the nonzero one
    by 1 if R_1 >= 2 or l(R) != L_2.  The label is Zbar[1 + a + t + r; t, r];
    m < n takes the dual of the (n, m) label of gswap(lam).

    This is the (2|1) weight-diagram map of Comes-Wilson (Represent. Theory
    16 (2012)) in closed form: (t, r) pair the gl(2|1) highest weight read
    off the diagram of lam with the odd roots (the test oracle
    `weight_diagram_label`).  It equals that reading and the paper's tables
    for every cross label with m + n <= 40 and at far contexts up to
    m + n = 150: checked, not proven.  Adding the highest weights of L and
    of R's dual gets s wrong for 2,088 of the 9,225 semisimple pairs with
    m + n <= 18.

    The labels alone lay out the atypical zig-zag (`partitions.label_classes`,
    for m >= n; a mirror context swaps the sides of (n, m)): the extra
    vertex is the one atypical lam with R empty, and the columns are the
    others, along t = 0 with r descending, then along r = 0 with t
    ascending; no two share a (t, r).  The extra vertex hangs in the column
    of largest defect, which is unique.  This equals the paper's family
    layout for every context with m + n <= 40 and at the far contexts
    (75,75), (100,50), (50,100), (1,149) and (149,0): checked, not proven.
    """
    if m < n:
        return dual(quantum_label(gswap(lam), n, m))
    t, r = _barred(lam, m - n)
    return _bar("Z", 1 + m - n + t + r, t, r)


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
    classes = label_classes(m, n)
    cols, extra, host = classes.columns, classes.extra, classes.host
    tops = [quantum_label(lam, m, n) for lam in cols]
    vertices: list[BimodVertex] = []
    edges: list[tuple[int, int, str]] = []
    for i, lam in enumerate(cols):
        prev_top = tops[i - 1] if i > 0 else None
        next_top = tops[i + 1] if i + 1 < len(cols) else None
        mid_prev, mid_next = _column_mids(tops[i], prev_top, next_top)
        vertices += (BimodVertex(lam, tops[i], "top", i), BimodVertex(lam, mid_prev, "mid", i),
                     BimodVertex(lam, mid_next, "mid", i), BimodVertex(lam, tops[i], "bot", i))
        top, bot = 4 * i, 4 * i + 3
        for mid in (top + 1, top + 2):
            edges += ((top, mid, "uq"), (mid, bot, "uq"))
    vertices.append(BimodVertex(extra, quantum_label(extra, m, n), "extra", -1))
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
    if m == n:
        for s in range(1, m - 1):
            out.add((("D", ((1,) * (s + 2), (s + 1, 1))), _bar("R", s - 1, 0, s)))
        for s in range(m - 1):
            out.add((("D", ((s + 1, 1), (1,) * (s + 2))), _bar("R", s - 1, s, 0)))
        out.add((("D", ((), ())), _bar("Z", 1, 0, 0)))
        return out
    for s in range(1, n + 1):
        out.add((("D", ((a,) + (1,) * s, (s,))), _bar("R", s, 0, a + s - 1)))
    for s in range(2, min(a, n) + 1):
        out.add((("D", ((a, s), (1,) * s)), _bar("R", s, 0, a - s + 1)))
    for s in range(a, n - 1):
        out.add((("D", ((s + 1, a + 1), (1,) * (s + 2))), _bar("R", s + 1, s - a, 0)))
    out.add((("D", ((a,), ())), _bar("Z", 1, 0, a)))
    return out


def closed_form_p(m: int, n: int) -> GrothVector:
    out = GrothVector()
    if m < n:
        for (term, z), mult in closed_form_p(n, m).items():
            out.add(((term[0], gswap(term[1])), dual(z)), mult)
        return out
    a = m - n
    if m == n <= 1:
        out.add((("D", ((), ())), _bar("Z", 1, 0, 0)))
        return out
    if m == n:
        for s in range(1, m - 1):
            out.add((("K", ((1,) * (s + 2), (s + 1, 1))), _bar("Z", s - 1, 0, s)))
        for s in range(m - 1):
            out.add((("K", ((s + 1, 1), (1,) * (s + 2))), _bar("Z", s - 1, s, 0)))
        out.add((("D", ((1,) * m, (m - 1, 1))), _bar("Z", m - 2, 0, m - 1)))
        out.add((("D", ((m - 1, 1), (1,) * m)), _bar("Z", m - 2, m - 1, 0)))
        return out
    if n == 0:
        out.add((("D", ((m,), ())), _bar("Z", 1, 0, m)))
        return out
    for s in range(1, n + 1):
        out.add((("K", ((a,) + (1,) * s, (s,))), _bar("Z", s, 0, a + s - 1)))
    for s in range(2, min(a, n) + 1):
        out.add((("K", ((a, s), (1,) * s)), _bar("Z", s, 0, a - s + 1)))
    for s in range(a, n - 1):
        out.add((("K", ((s + 1, a + 1), (1,) * (s + 2))), _bar("Z", s + 1, s - a, 0)))
    out.add((("D", ((a,) + (1,) * n, (n,))), _bar("Z", n + 1, 0, m)))
    if 2 * n <= m:
        out.add((("D", ((a, n), (1,) * n)), _bar("Z", n + 1, 0, m - 2 * n)))
    elif 2 * n == m + 1:
        out.add((("D", ((a, a), (1,) * a)), _bar("Z", a + 1, 0, 0)))
    else:
        out.add((("D", ((n - 1, a + 1), (1,) * n)), _bar("Z", n, 2 * n - m - 1, 0)))
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
