"""The chain as a bimodule: semisimple part, atypical zig-zag, verifications.

The chain splits into a semisimple part (simples boxed with typical
quantum-group modules, arranged in a (t,r)-table of bipartitions) and one
indecomposable atypical part whose Loewy graph is a zig-zag of diamonds,
one column per atypical label, plus a lone extra vertex.  Flattening the
quantum-group side (p_*) or the centralizer side (q_*) of the atypical part
reproduces closed-form sums, and the whole decomposition satisfies two
induction identities tying tensoring with the dual fundamental module to
restriction; these are the headline checks of the artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fusion import GrothVector, chain_content, fuse_with_v, gv
from .labels import (
    BarLabel,
    bar,
    bar_cover,
    bar_subquotients,
    bar_to_plain,
    dim_bar,
    gbar,
    is_atypical,
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
from .xcat import (
    column_top_label,
    dim_simple_x,
    dim_term,
    extra_vertex_label,
    q_functor,
    res_right_d,
    res_right_k,
)

SemisimplePair = tuple[Bipartition, BarLabel]


def _hook(k: int, ones: int) -> tuple:
    return (k,) + (1,) * ones


@lru_cache(maxsize=64)
def semisimple_part(m: int, n: int) -> tuple[SemisimplePair, ...]:
    """All (bipartition, typical quantum label) pairs of the semisimple part."""
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    if m + n == 0:
        return ()
    if m < n:
        return tuple((gswap(lam), gbar(z)) for lam, z in semisimple_part(n, m))
    pairs: list[SemisimplePair] = []
    a = m - n
    for s in range(1, n + 1):
        for k in range(1, a + s + 1):
            if k == a:
                continue
            pairs.append(((_hook(k, s - k + a), (s,)),
                          bar("Z", s + k + a + 1, k - a, s + a)))
    for s in range(a + 2, m + 1):
        for k in range(1, s - a):
            pairs.append((((s,), _hook(k, s - k - a)),
                          bar("Z", s + k + a + 1, s - a, k + a)))
    for s in range(1, n):
        for k in range(1, min(s, n - s) + 1):
            if k == 1 - a:  # t = 0 is atypical; happens only at m == n
                continue
            pairs.append((((1,) * (s + k + a), (s, k)),
                          bar("Z", s + k + a, 1 - k - a, s + a)))
    for s in range(a + 1, m):
        for k in range(1, min(s, m - s) + 1):
            if k == a + 1:
                continue
            pairs.append((((s, k), (1,) * (s + k - a)),
                          bar("Z", s + k + a, s - a, 1 - k + a)))
    for k in range(1, a // 2 + 1):
        for s in range(k, a - k + 1):
            pairs.append((((s, k) + (1,) * (a - s - k), ()),
                          bar("Z", s + k + a, s - a, 1 - k + a)))
    for s in range(a // 2 + 1, a):
        for k in range(1 - s + a, min(s, m - s) + 1):
            pairs.append((((s, k), (1,) * (s + k - a)),
                          bar("Z", s + k + a, s - a, 1 - k + a)))
    for lam, z in pairs:
        if is_atypical(bar_to_plain(z)):
            raise AssertionError(f"atypical label {z} in the semisimple part")
    return tuple(sorted(pairs, key=lambda p: (p[1].t, p[1].r, p[0])))


# ---------------------------------------------------------------------------
# the atypical part as a graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BimodVertex:
    x: Bipartition
    z: BarLabel
    layer: str  # "top" | "mid" | "bot" | "extra"
    col: int    # column index, -1 for the extra vertex


@dataclass(frozen=True)
class BimoduleGraph:
    m: int
    n: int
    vertices: tuple[BimodVertex, ...]
    edges: tuple[tuple[int, int, str], ...]  # (src, dst, "uq" | "cent")


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


@lru_cache(maxsize=2)
def atypical_part(m: int, n: int) -> BimoduleGraph:
    """The indecomposable atypical summand, with both edge colours.  Its
    callers read one context at a time, so two contexts are kept."""
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

def _flattened(m: int, n: int, atypical: tuple):
    """The semisimple part, each simple boxed once, then a flattened atypical
    part, as ((term, z), mult) items.  Every reader sums multiplicities, so
    the items need not be merged: the semisimple part is read off its memo
    and not keyed again into a dict."""
    for lam, z in semisimple_part(m, n):
        yield (("D", lam), z), 1
    yield from atypical


# The identity sweep flattens (m, n+1) on one diagonal and (m, n) again on
# the next, up to 2(m+n) contexts of the same side later; 128 contexts per
# side keep a sweep to 40 at one miss per context (64 do not).  Only the
# atypical part, O(m+n) items, is kept: the semisimple part has O((m+n)^2).

@lru_cache(maxsize=128)
def _q_atypical_items(m: int, n: int) -> tuple:
    return tuple(q_atypical(m, n).items())


@lru_cache(maxsize=128)
def _p_atypical_items(m: int, n: int) -> tuple:
    return tuple(p_atypical(m, n).items())


def _q_flat(m: int, n: int):
    return _flattened(m, n, _q_atypical_items(m, n))


def _p_flat(m: int, n: int):
    return _flattened(m, n, _p_atypical_items(m, n))


def q_flattened(m: int, n: int) -> GrothVector:
    """The fully assembled bimodule after centralizer-side flattening."""
    return gv(*_q_flat(m, n))


def p_flattened(m: int, n: int) -> GrothVector:
    """The fully assembled bimodule after quantum-side flattening."""
    return gv(*_p_flat(m, n))


@lru_cache(maxsize=2)
def _restrictions(m: int, n: int) -> dict:
    """Restrictions of the (m,n) context's X-terms to (m, n-1), filled on
    demand by `_restriction`.  The two identities at (m, n-1) share them;
    a sweep then moves on, so two contexts are held at a time."""
    return {}


def _restriction(term, m: int, n: int) -> tuple:
    """Restriction of an X-term down one right strand, as (term, mult)
    items, read off the xcat tables and not off the flattened bimodule."""
    table = _restrictions(m, n)
    out = table.get(term)
    if out is None:
        res = (res_right_k if term[0] == "K" else res_right_d)(term[1], m, n)
        out = table[term] = tuple(res.items())
    return out


@lru_cache(maxsize=1024)
def _fused(z: BarLabel) -> tuple[tuple, tuple]:
    """z (x) the dual fundamental module, and its simple subquotients, as
    (label, mult) items.  Bounded like the fusion memo it reads: a sweep
    fuses a few hundred labels per context, mostly its neighbours' ones."""
    fused = fuse_with_v(bar_to_plain(z))
    subs: dict = {}
    for w, wm in fused.items():
        for sub in simple_subquotients(w):
            subs[sub] = subs.get(sub, 0) + wm
    return tuple(fused.items()), tuple(subs.items())


def verify_identity_tensor(m: int, n: int) -> bool:
    """Tensoring the q-flattened chain with the dual fundamental module
    matches restriction of the next chain, flattened again.  The right
    side reads the restrictions that `verify_identity_proj` at (m,n) reads,
    computed once."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    lhs: dict = {}
    for (term, z), mult in _q_flat(m, n):
        for w, wm in _fused(z)[0]:
            key = (term, w)
            lhs[key] = lhs.get(key, 0) + mult * wm
    rhs: dict = {}
    for (term, z), mult in _q_flat(m, n + 1):
        w = bar_to_plain(z)
        for rterm, rm in _restriction(term, m, n + 1):
            # a simple term is its own flattening
            flat = ((rterm, 1),) if rterm[0] == "D" else q_functor(rterm, m, n).items()
            for dterm, dm in flat:
                key = (dterm, w)
                rhs[key] = rhs.get(key, 0) + mult * rm * dm
    return GrothVector.from_sums(lhs) == GrothVector.from_sums(rhs)


def verify_identity_proj(m: int, n: int) -> bool:
    """Quantum-side flattening of (chain x dual fundamental) matches the
    restricted p-flattened next chain.  The right side reads the
    restrictions that `verify_identity_tensor` at (m,n) reads, computed
    once."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    lhs: dict = {}
    for (term, z), mult in _p_flat(m, n):
        for sub, sm in _fused(z)[1]:
            key = (term, sub)
            lhs[key] = lhs.get(key, 0) + mult * sm
    rhs: dict = {}
    for (term, z), mult in _p_flat(m, n + 1):
        w = bar_to_plain(z)
        for rterm, rm in _restriction(term, m, n + 1):
            key = (rterm, w)
            rhs[key] = rhs.get(key, 0) + mult * rm
    return GrothVector.from_sums(lhs) == GrothVector.from_sums(rhs)


def dimension_audit(m: int, n: int) -> bool:
    """Total bimodule dimension, and quantum content against the chain."""
    total = 0
    for lam, z in semisimple_part(m, n):
        total += dim_simple_x(lam, m, n) * dim_bar(z)
    for v in atypical_part(m, n).vertices:
        total += dim_simple_x(v.x, m, n) * dim_bar(v.z)
    if total != 3 ** (m + n):
        return False
    expected = GrothVector()
    for (term, z), mult in _q_flat(m, n):
        expected.add(bar_to_plain(z), mult * dim_simple_x(term[1], m, n))
    return expected == chain_content(m, n)


def p_weighted_against_chain(m: int, n: int) -> bool:
    """p-flattened bimodule, weighted by X-dimensions, against the
    subquotient content of the chain."""
    lhs = GrothVector()
    for (term, z), mult in _p_flat(m, n):
        lhs.add(bar_to_plain(z), mult * dim_term(term, m, n))
    rhs = GrothVector()
    for x, mult in chain_content(m, n).items():
        for sub in simple_subquotients(x):
            rhs.add(sub, mult)
    return lhs == rhs


def projections_match(m: int, n: int) -> bool:
    return (p_atypical(m, n) == closed_form_p(m, n)
            and q_atypical(m, n) == closed_form_q(m, n))


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
