import ast
from collections import Counter
from pathlib import Path

import pytest

import mixedchain.bimod as bm
import mixedchain.fusion as fu
import mixedchain.xcat as xc
from mixedchain.bimod import (
    atypical_part,
    bimodule_audit,
    closed_form_p,
    closed_form_q,
    dimension_audits,
    p_atypical,
    projections_match,
    q_atypical,
    quantum_label,
    semisimple_part,
    table_csv,
    verify_identities,
)
from mixedchain.fusion import GrothVector, chain_decompose, fuse_with_v
from mixedchain.partitions import atypical_set, cross_labels, gswap
from mixedchain.labelctx import LabelContext, context
from mixedchain.labels import bar, bar_to_plain, dual, plain_to_bar, simple_subquotients
from mixedchain.xcat import res_right_d, res_right_k
from oracles import (
    _columns,
    atyp,
    atypical_bipartition,
    column_top_label,
    cross_set,
    extra_vertex_label,
    is_atypical,
    p_flattened,
    q_flattened,
    semisimple_table,
    weight_diagram_label,
)

bip = atypical_bipartition


def zbar(p, t, r):
    """The plain label of the barred simple Zbar[p; t, r], as the paper
    writes it."""
    return bar_to_plain(bar("Z", p, t, r))


def test_semisimple_smallest():
    assert semisimple_part(1, 1) == ((((1,), (1,)), zbar(3, 1, 1)),)
    assert semisimple_part(2, 1) == ((((2,), (1,)), zbar(5, 1, 2)),)


def _semisimple_balanced(m):
    """The four families of the m == n semisimple part as once transcribed:
    the oracle for running the m > n families at m == n."""
    def hook(k, ones):
        return (k,) + (1,) * ones

    pairs = []
    for s in range(1, m + 1):
        for k in range(1, s + 1):
            pairs.append(((hook(k, s - k), (s,)), bar("Z", s + k + 1, k, s)))
    for s in range(2, m + 1):
        for k in range(1, s):
            pairs.append((((s,), hook(k, s - k)), bar("Z", s + k + 1, s, k)))
    for s in range(2, m):
        for k in range(2, min(s, m - s) + 1):
            pairs.append((((1,) * (s + k), (s, k)), bar("Z", s + k, 1 - k, s)))
    for s in range(1, m):
        for k in range(2, min(s, m - s) + 1):
            pairs.append((((s, k), (1,) * (s + k)), bar("Z", s + k, s, 1 - k)))
    pairs.sort(key=lambda p: (p[1].t, p[1].r, p[0]))
    return tuple((lam, bar_to_plain(z)) for lam, z in pairs)


def test_semisimple_balanced_matches_transcription():
    for m in range(1, 41):
        assert semisimple_part(m, m) == _semisimple_balanced(m), m


# single contexts far beyond the sweeps' bound of 40: both mirror sides,
# n = 0, m = n and |m-n| = 1
FAR_IDENTITIES = [(75, 75), (76, 74), (74, 76), (149, 0), (1, 149), (100, 50), (50, 100)]
FAR_AUDITS = [(40, 40), (41, 39), (39, 41), (79, 0), (1, 79), (60, 20), (20, 60), (50, 51)]


def test_quantum_label_equals_the_transcribed_tables():
    # every cross label of every context with m+n <= 40, and of the far
    # contexts: the rule gives the transcribed semisimple table, in its
    # order, is typical exactly off the atypical set, and gives the
    # transcribed column tops and extra vertex
    near = [(m, total - m) for total in range(41) for m in range(total + 1)]
    labels = 0
    for m, n in near + FAR_IDENTITIES + FAR_AUDITS:
        table = semisimple_table(m, n)
        assert semisimple_part(m, n) == table, (m, n)
        typical = dict(table)
        atypical = atypical_set(m, n)
        for lam in cross_labels(m, n):
            z = quantum_label(lam, m, n)
            if lam in typical:
                assert z == typical[lam], (m, n, lam)
            else:
                assert is_atypical(z), (m, n, lam)
            labels += 1
        assert set(atypical) == set(cross_labels(m, n)) - set(typical), (m, n)
        cols, extra, _host = _columns(m, n)
        for lab in cols:
            assert quantum_label(bip(lab), m, n) == column_top_label(lab, m, n), (m, n, lab)
        assert quantum_label(bip(extra), m, n) == extra_vertex_label(m, n), (m, n)
    # 229,472 cross labels at m+n <= 40, and 71,434 at the far contexts
    assert labels == 300906


def test_quantum_label_is_the_weight_diagram_reading():
    # the closed form of the rule against the reading of each label's weight
    # diagram, which has no mirror branch: every cross label of every
    # context with m+n <= 30, on both mirror sides, and at n = 0 and m = 1
    # far out
    contexts = [(m, total - m) for total in range(31) for m in range(total + 1)]
    labels = 0
    for m, n in contexts + [(149, 0), (1, 149)]:
        for lam in cross_labels(m, n):
            assert weight_diagram_label(lam, m, n) == quantum_label(lam, m, n), (m, n, lam)
            labels += 1
    assert labels == 74342 + len(cross_labels(149, 0)) + len(cross_labels(1, 149))


def test_semisimple_table_spot_values():
    def table(m, n):
        return {(b.t, b.r): lam for lam, b in
                ((lam, plain_to_bar(z)) for lam, z in semisimple_part(m, n))}

    cells = table(5, 3)
    assert cells[(3, 5)] == ((5,), (3,))
    assert cells[(-2, 4)] == ((1, 1, 1, 1, 1), (2, 1))
    assert cells[(1, 1)] == ((3, 2), (1, 1, 1))
    cells44 = table(4, 4)
    assert cells44[(2, -1)] == ((2, 2), (1, 1, 1, 1))
    assert cells44[(-1, 2)] == ((1, 1, 1, 1), (2, 2))


GOLDEN_5_3 = """\
,t=-2,t=-1,t=0,t=1,t=2,t=3
r=5,0,[1^5 | 3],0,[3,1^2 | 3],[4,1 | 3],[5 | 3]
r=4,[1^5 | 2,1],[1^4 | 2],0,[3,1 | 2],[4 | 2],[5 | 2,1]
r=3,[1^4 | 1^2],[1^3 | 1],0,[3 | 1],[4 | 1^2],[5 | 1^3]
r=2,0,[1^2 | -],0,[3,1 | 1^2],[4,1 | 1^3],0
r=1,0,0,0,[3,2 | 1^3],0,0
"""

GOLDEN_4_4 = """\
,t=-1,t=0,t=1,t=2,t=3,t=4
r=4,0,0,[1^4 | 4],[2,1^2 | 4],[3,1 | 4],[4 | 4]
r=3,0,0,[1^3 | 3],[2,1 | 3],[3 | 3],[4 | 3,1]
r=2,[1^4 | 2^2],0,[1^2 | 2],[2 | 2],[3 | 2,1],[4 | 2,1^2]
r=1,0,0,[1 | 1],[2 | 1^2],[3 | 1^3],[4 | 1^4]
r=0,0,0,0,0,0,0
r=-1,0,0,0,[2^2 | 1^4],0,0
"""


def test_table_goldens():
    assert table_csv(5, 3) == GOLDEN_5_3
    assert table_csv(4, 4) == GOLDEN_4_4


def test_atypical_exceptional_cases():
    g = atypical_part(3, 0)
    assert len(g.vertices) == 1 and not g.edges
    v = g.vertices[0]
    assert v.x == ((3,), ()) and v.z == zbar(1, 0, 3)
    g = atypical_part(1, 1)
    assert len(g.vertices) == 1
    assert g.vertices[0].x == ((), ()) and g.vertices[0].z == zbar(1, 0, 0)


def test_atypical_3_2_matches_worked_example():
    g = atypical_part(3, 2)
    d12, d11, d10 = (bip(atyp("delta", False, 1, s)) for s in (2, 1, 0))
    by_key = {(v.x, v.z, v.layer) for v in g.vertices}
    expect = {
        (d12, zbar(2, 0, 2), "top"),
        (d12, zbar(3, 0, 3), "mid"),
        (d12, zbar(1, 0, 1), "mid"),
        (d12, zbar(2, 0, 2), "bot"),
        (d11, zbar(1, 0, 1), "top"),
        (d11, zbar(2, 0, 2), "mid"),
        (d11, zbar(2, 0, 0), "mid"),
        (d11, zbar(1, 0, 1), "bot"),
        (d10, zbar(1, 0, 1), "extra"),
    }
    assert by_key == expect
    solid = [e for e in g.edges if e[2] == "uq"]
    dashed = [e for e in g.edges if e[2] == "cent"]
    assert len(solid) == 8 and len(dashed) == 6
    # solid edges stay inside a column; dashed edges connect equal quantum labels
    verts = g.vertices
    for a, b, kind in g.edges:
        if kind == "uq":
            assert verts[a].x == verts[b].x
        else:
            assert verts[a].z == verts[b].z


def test_dashed_edges_always_match_quantum_labels():
    for m, n in [(4, 2), (5, 2), (4, 3), (4, 4), (2, 5), (6, 1)]:
        g = atypical_part(m, n)
        for a, b, kind in g.edges:
            if kind == "cent":
                assert g.vertices[a].z == g.vertices[b].z


def test_projections_against_closed_forms():
    # one context per zig-zag regime, then a sweep
    for m, n in [(5, 2), (6, 4), (5, 3), (4, 3), (4, 4), (2, 2), (2, 1), (1, 1),
                 (3, 0), (0, 3), (2, 4), (3, 5)]:
        assert p_atypical(m, n) == closed_form_p(m, n), (m, n)
        assert q_atypical(m, n) == closed_form_q(m, n), (m, n)
    for total in range(1, 11):
        for m in range(0, total + 1):
            assert projections_match(m, total - m)


def test_closed_form_p_right_boundary_cases():
    # half-filled: the right boundary term keeps a hook label
    cf = closed_form_p(5, 2)
    assert (("D", bip(atyp("delta1", False, 3, 2))), zbar(3, 0, 1)) in cf
    # odd middle: the boundary collapses to the (0,0) quantum label
    cf = closed_form_p(5, 3)
    assert (("D", bip(atyp("delta1", False, 2, 2))), zbar(3, 0, 0)) in cf
    # near-balanced: the two-row family ends the ladder
    cf = closed_form_p(4, 3)
    assert (("D", bip(atyp("delta2", False, 1, 1))), zbar(3, 1, 0)) in cf


def test_gswap_duality_of_decomposition():
    for m, n in [(3, 1), (4, 2), (3, 3), (2, 5)]:
        # the mirror reads the quantum labels through `dual`, which is the
        # barred labels' mirror `gbar` of the test oracles
        # (`test_bar_mirror_is_dual`)
        sp = {(gswap(lam), dual(z)) for lam, z in semisimple_part(m, n)}
        assert sp == set(semisimple_part(n, m))
        ga = atypical_part(m, n)
        gb = atypical_part(n, m)
        va = sorted((gswap(v.x), dual(v.z), v.layer) for v in ga.vertices)
        vb = sorted((v.x, v.z, v.layer) for v in gb.vertices)
        assert va == vb


def test_bimodule_labels_cover_cross_set():
    for total in range(1, 11):
        for m in range(0, total + 1):
            n = total - m
            ts = {lam for lam, _ in semisimple_part(m, n)}
            cols, extra, _ = _columns(m, n)
            at = {bip(c) for c in cols} | {bip(extra)}
            assert ts | at == set(cross_set(m, n))
            assert not ts & at


def test_dimension_audit_examples():
    assert dimension_audits(1, 1)[0]
    assert dimension_audits(2, 1)[0]
    assert dimension_audits(4, 3)[0]


def test_identities_small():
    assert verify_identities(1, 0)[0]
    assert verify_identities(2, 1)[0]
    assert verify_identities(1, 1)[1]
    assert verify_identities(3, 2)[1]
    with pytest.raises(ValueError):
        verify_identities(0, 3)


def test_identities_full_reported_range():
    # the induction identities over the full range they were ever reported
    # for: two rows for each of the 820 contexts with m >= 1 and m+n <= 40
    from mixedchain.cli import _sweep

    rows = _sweep("identities", 40)
    assert len(rows) == 1640 and all(row["ok"] for row in rows)


def test_dims_full_reported_range():
    # the bimodule dimension audits over the same range: one row for each
    # of the 860 contexts with 1 <= m+n <= 40
    from mixedchain.cli import _sweep

    rows = _sweep("dims", 40)
    assert len(rows) == 860 and all(row["ok"] for row in rows)


# The two identity checks that the one-pass check replaced, kept as its
# oracle.  Each assembles both of its sides in full, through the public
# flattening, fusion and restriction functions.
def _restricted(term, m, n):
    return (res_right_k if term[0] == "K" else res_right_d)(term[1], m, n).items()


def _nonzero(acc):
    return {key: mult for key, mult in acc.items() if mult}


def oracle_identity_tensor(m, n):
    """Tensoring the q-flattened chain with the dual fundamental module
    matches restriction of the next chain, flattened again."""
    lhs = {}
    for (term, z), mult in q_flattened(m, n).items():
        for w, wm in fuse_with_v(z).items():
            lhs[(term, w)] = lhs.get((term, w), 0) + mult * wm
    rhs = {}
    for (term, w), mult in q_flattened(m, n + 1).items():
        for rterm, rm in _restricted(term, m, n + 1):
            for dterm, dm in xc.q_functor(rterm, m, n).items():
                rhs[(dterm, w)] = rhs.get((dterm, w), 0) + mult * rm * dm
    return _nonzero(lhs) == _nonzero(rhs)


def oracle_identity_proj(m, n):
    """Quantum-side flattening of (chain x dual fundamental) matches the
    restricted p-flattened next chain."""
    lhs = {}
    for (term, z), mult in p_flattened(m, n).items():
        for w, wm in fuse_with_v(z).items():
            for sub in simple_subquotients(w):
                lhs[(term, sub)] = lhs.get((term, sub), 0) + mult * wm
    rhs = {}
    for (term, w), mult in p_flattened(m, n + 1).items():
        for rterm, rm in _restricted(term, m, n + 1):
            rhs[(rterm, w)] = rhs.get((rterm, w), 0) + mult * rm
    return _nonzero(lhs) == _nonzero(rhs)


def _identity_contexts(max_total):
    return [(m, total - m) for total in range(1, max_total + 1) for m in range(1, total + 1)]


def test_identities_and_audits_hold_at_far_contexts():
    # where no transcribed K display reaches, so the derived K rows are
    # checked against fusion there too
    for m, n in FAR_IDENTITIES:
        assert verify_identities(m, n) == (True, True), (m, n)
    for m, n in FAR_AUDITS:
        assert bimodule_audit(m, n), (m, n)


def test_identities_match_the_two_pass_oracle():
    for m, n in _identity_contexts(25):
        want = (oracle_identity_tensor(m, n), oracle_identity_proj(m, n))
        assert want == (True, True), (m, n)
        assert verify_identities(m, n) == want, (m, n)


def _clear_label_memos():
    """Forget every memo that a planted fault could have filled."""
    for memo in (fu._fused_with_v, context):
        memo.cache_clear()


def _drop_generic_term(lam):
    d_row = xc._d_row

    def planted(mu, f, atypical, below):
        out = d_row(mu, f, atypical, below)
        return out[1:] if mu == lam else out
    return "_d_row", planted


def _bump_fusion_mult(x):
    # the rule table read that both the one-pass check and the oracle go through
    dispatch = fu._dispatch

    def planted(label, rules):
        out = dispatch(label, rules)
        if label == x:
            out[next(iter(out))] += 1
        return out
    return "_dispatch", planted


def _unglue_wall_rows():
    # the typical labels ((s), (1^(s+2))) restrict to their Pieri terms, as
    # if no atypical label lay below: what they fell back to when their
    # re-gluing rows were dropped
    d_row = xc._d_row

    def planted(lam, f, atypical, below):
        (left, right) = lam
        wall = len(left) == 1 and right == (1,) * (left[0] + 2) and lam not in atypical
        return d_row(lam, f, atypical, {} if wall else below)
    return "_d_row", planted


def _bump_d_restriction_term(x):
    d_row = xc._d_row

    def planted(lam, f, atypical, below):
        out = d_row(lam, f, atypical, below)
        if lam == x and lam in atypical:
            (term, mult), *rest = out
            out = [(term, mult + 1), *rest]
        return out
    return "_d_row", planted


def _extra_k_restriction_term(x):
    res_k = xc._res_k_atypical

    def planted(lam, m, n):
        out = GrothVector(res_k(lam, m, n))
        if lam == x:
            out.add(("D", ((), ())))
        return out
    return "_res_k_atypical", planted


def _bump_flattening_mult(lam):
    flatten = xc.q_functor

    def planted(term, m, n):
        out = flatten(term, m, n)
        if term == ("K", lam):
            out[next(iter(out))] += 1
        return out
    return "q_functor", planted


@pytest.mark.parametrize("plant, seen_by", [
    (lambda: _drop_generic_term(((2,), (2,))), "both"),
    (lambda: _bump_fusion_mult(semisimple_part(3, 2)[0][1]), "both"),
    (_unglue_wall_rows, "both"),
    (lambda: _bump_d_restriction_term(bip(atyp("delta", False, 2, 2))), "both"),
    (lambda: _extra_k_restriction_term(bip(atyp("delta", True, 2, 1))), "proj"),
    (lambda: _bump_flattening_mult(((1,), (1, 1))), "tensor"),
], ids=["generic-term", "fusion-mult", "exceptional-row", "d-restriction-term",
        "k-restriction-term", "flattening-mult"])
def test_planted_faults_fail_the_same_contexts(monkeypatch, plant, seen_by):
    # each fault is seen by the one-pass check and by the oracle, at the same
    # contexts and for the same identities, and not everywhere; it is
    # planted in every label module that binds the faulty function's name.
    # A fault in a D row is seen by both identities at the same contexts,
    # since the K rows are derived from the D rows; a K row or a flattening
    # is read by one identity only
    contexts = _identity_contexts(15)
    name, planted = plant()
    _clear_label_memos()
    try:
        with monkeypatch.context() as patched:
            for module in (fu, xc, bm):
                if hasattr(module, name):
                    patched.setattr(module, name, planted)
            tensor, proj = [], []
            for m, n in contexts:
                got = verify_identities(m, n)
                assert got == (oracle_identity_tensor(m, n), oracle_identity_proj(m, n)), (m, n)
                for failing, ok in zip((tensor, proj), got):
                    if not ok:
                        failing.append((m, n))
    finally:
        _clear_label_memos()
    if seen_by == "both":
        assert tensor == proj, (tensor, proj)
    else:
        assert not (proj if seen_by == "tensor" else tensor), (tensor, proj)
    failing = tensor or proj
    assert 0 < len(failing) < len(contexts), failing
    assert all(verify_identities(m, n) == (True, True) for m, n in failing)


def test_graph_fault_fails_both_label_suites(monkeypatch):
    # both flattenings of the atypical part are read off its graph, so a
    # graph without the extra vertex's two centralizer edges fails the dims
    # and the identities suites, though not at every context: a context
    # without columns has no such edges to lose
    import mixedchain.labelctx as lc
    from mixedchain.cli import _sweep

    build = lc._BUILDERS["atypical_part"]

    def planted(m, n):
        graph = build(m, n)
        extra = next(i for i, v in enumerate(graph.vertices) if v.layer == "extra")
        edges = tuple(e for e in graph.edges if not (extra in e[:2] and e[2] == "cent"))
        assert len(graph.edges) - len(edges) == (2 if graph.edges else 0)
        return bm.BimoduleGraph(m, n, graph.vertices, edges)

    monkeypatch.setitem(lc._BUILDERS, "atypical_part", planted)
    context.cache_clear()
    try:
        for suite in ("dims", "identities"):
            rows = _sweep(suite, 12)
            contexts = {(row["m"], row["n"]) for row in rows}
            failed = {(row["m"], row["n"]) for row in rows if not row["ok"]}
            assert 0 < len(failed) < len(contexts), (suite, len(failed), len(contexts))
    finally:
        context.cache_clear()


def test_flattened_shapes():
    # q-flattened pairs carry only simple X-labels; p-flattened may carry K
    for (term, z), _ in q_flattened(3, 2).items():
        assert term[0] == "D"
    kinds = {term[0] for (term, z), _ in p_flattened(3, 2).items()}
    assert kinds == {"D", "K"}
    assert dimension_audits(3, 2)[1]


# ---------------------------------------------------------------------------
# memoised label tables
# ---------------------------------------------------------------------------

def test_memoised_results_are_fresh_vectors():
    # a caller may mutate what it gets; the next identical call is unaffected
    from mixedchain.fusion import fuse_with_f, fuse_with_v
    from mixedchain.labels import R, Z
    from mixedchain.xcat import res_right_d, res_right_k

    calls = [
        (fuse_with_v, (Z(1, 1, 3, 1),)),
        (fuse_with_v, (R(1, -1, 2, 0), 1, -1)),
        (fuse_with_f, (Z(1, -1, 2, 2),)),
        (fuse_with_f, (R(1, 1, 1, 1), -1, 1)),
        (res_right_d, (((2,), (2,)), 2, 2)),                # generic rule
        (res_right_d, (((1,), (1,)), 2, 2)),                # exceptional row
        (res_right_d, (bip(atyp("delta", False, 1, 1)), 3, 2)),  # atypical
        (res_right_k, (bip(atyp("delta", False, 1, 2)), 4, 3)),
        (res_right_k, (((2,), (2,)), 2, 2)),
        (chain_decompose, (3, 2)),
    ]
    for fn, args in calls:
        first = fn(*args)
        want = dict(first)
        assert want, (fn.__name__, args)
        first[next(iter(first))] += 5
        first["planted"] = 1
        assert fn(*args) == want, (fn.__name__, args)
        again = fn(*args)
        again.clear()
        assert fn(*args) == want, (fn.__name__, args)


def _count_builds(monkeypatch):
    """Count the label context records built, by (m, n), and the fields
    built on them, by (m, n, field)."""
    records, fields = Counter(), Counter()
    init, build = LabelContext.__init__, LabelContext.__getattr__

    def counted_init(self, m, n):
        records[m, n] += 1
        init(self, m, n)

    def counted_build(self, name):
        fields[self.m, self.n, name] += 1
        return build(self, name)

    monkeypatch.setattr(LabelContext, "__init__", counted_init)
    monkeypatch.setattr(LabelContext, "__getattr__", counted_build)
    return records, fields


def test_dims_check_builds_each_context_once(monkeypatch):
    # the dims check of a context builds its ledger and flattens its atypical
    # part once per side, as fields of its record
    from mixedchain.cli import _sweep

    context.cache_clear()
    _records, fields = _count_builds(monkeypatch)
    rows = _sweep("dims", 12)
    assert rows and all(row["ok"] for row in rows)
    assert set(fields.values()) == {1}, fields
    checked = sorted((row["m"], row["n"]) for row in rows)
    for name in ("dims_for", "_p_atypical_items", "_q_atypical_items"):
        assert sorted((m, n) for m, n, field in fields if field == name) == checked, name


def test_label_context_is_built_once_per_context(monkeypatch):
    # a label sweep computes its contexts column by column, so the record
    # cache keeps 2 contexts and still builds each context it reaches, and
    # each field of it, exactly once, whatever the bound; the one per-label
    # memo, the fusion of each label, is an LRU cache of 8192 labels.  A
    # mirror context (m < n) is built uncached from (n, m), and a column
    # head (m, 0) is fused up from the trivial module, with no record of the
    # contexts (0, k).
    from mixedchain.cli import _sweep

    per_label = [fu._fused_with_v]
    assert context.cache_info().maxsize == 2
    # both flattenings are read off the atypical graph
    per_side = ("label_classes", "semisimple_part", "atypical_part",
                "_q_atypical_items", "_p_atypical_items")

    def want_builds(suite, swept):
        """The contexts the sweep reads, and the fields it builds on them."""
        if suite == "identities":
            # the identities at (m,n) read (m,n) and (m,n+1), all with m >= 1
            reached = {(m, n) for m, n in swept | {(m, n + 1) for m, n in swept} if m >= 1}
            want = {(m, n, field) for m, n in reached for field in per_side}
            # covers are read one strand below each restricted context, which
            # is each swept one, and where a projective is flattened or
            # restricted: wherever the context has columns
            return reached, want | {(m, n, "_covers") for m, n in reached
                                    if (m, n) in swept or _columns(m, n)[0]}
        want = {(m, n, field) for m, n in swept
                  for field in per_side + ("dims_for", "chain_content")}
        # the dims audit reads covers only where the atypical part has
        # columns, and restricts nothing
        want |= {(m, n, "_covers") for m, n in swept if _columns(m, n)[0]}
        # the content of (0, 1) looks up the empty chain (0, 0), which holds none
        return swept | {(0, 0)}, want

    def assert_no_thrash(memo):
        # every label missed once: nothing was evicted and read again
        info = memo.cache_info()
        assert 0 < info.misses == info.currsize < info.maxsize, (memo.__name__, info)

    records, fields = _count_builds(monkeypatch)
    steps = Counter()
    next_content = fu._next_content

    def counted_step(v):
        steps["fusion"] += 1
        return next_content(v)

    monkeypatch.setattr(fu, "_next_content", counted_step)
    currsize = {}
    for suite in ("identities", "dims"):
        for bound in (20, 30):
            for memo in per_label + [context]:
                memo.cache_clear()
            records.clear()
            fields.clear()
            steps.clear()
            rows = _sweep(suite, bound)
            # all (m,n) with 1 <= m+n <= bound; the identities skip m = 0
            swept = {(m, total - m) for total in range(1, bound + 1) for m in range(total + 1)}
            if suite == "identities":
                assert len(rows) == 2 * sum(1 for m, n in swept if m >= 1)
            else:
                assert len(rows) == len(swept)
            assert all(row["ok"] for row in rows)
            reached, want = want_builds(suite, swept)
            assert set(fields) == want, (suite, bound, set(fields) ^ want)
            assert set(fields.values()) == {1}, (suite, bound)
            assert set(records) == reached and set(records.values()) == {1}, (suite, bound)
            if suite == "dims":
                # one fusion step per context off a column head, and m steps to
                # fuse up the head (m, 0), the dual of 3bar^m
                want_steps = sum(1 for m, n in swept if n) + sum(range(bound + 1))
                assert steps["fusion"] == want_steps, (bound, steps)
            else:
                assert not steps, steps  # the identities read no chain content
            info = context.cache_info()
            assert info.misses == len(reached), (suite, bound, info)
            # a wider sweep keeps no more records
            assert 1 <= info.currsize <= currsize.get(suite, info.maxsize), (suite, info)
            currsize[suite] = info.currsize
            for memo in per_label:
                info = memo.cache_info()
                assert info.maxsize == 8192, (memo.__name__, info)
                assert min(1, info.misses) <= info.currsize <= info.maxsize, (memo.__name__, info)

    # a cold chain_content(40, 20) fuses each label of the chains it builds,
    # (0, k) for k < 40 and (40, k) for k < 20, once
    for memo in (fu._fused_with_v, context):
        memo.cache_clear()
    fu.chain_content(40, 20)
    built = [(0, k) for k in range(40)] + [(40, k) for k in range(20)]
    distinct = {x for m, n in built for x in fu.chain_content(m, n)}
    assert fu._fused_with_v.cache_info().misses == len(distinct)
    assert_no_thrash(fu._fused_with_v)

    # an identities sweep to 25 reads no chain content, and fuses each of
    # its labels once through the same memo
    for memo in per_label + [context]:
        memo.cache_clear()
    assert all(row["ok"] for row in _sweep("identities", 25))
    assert_no_thrash(fu._fused_with_v)


_CACHES = {"lru_cache", "cache", "cached_property"}


def _memoised(path: Path) -> tuple[list, int]:
    """The functions of a module decorated with a functools cache, and the
    number of references to a cache decorator in its code."""
    found, uses = [], 0
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and node.id in _CACHES or (
                isinstance(node, ast.Attribute) and node.attr in _CACHES):
            uses += 1
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "id", getattr(target, "attr", None)) in _CACHES:
                    found.append(node.name)
    return found, uses


def test_label_layer_keeps_one_per_context_cache():
    # the per-context tables live in one record cache; the other memo of the
    # label layer is per label
    package = Path(bm.__file__).parent
    found = []
    for module in ("labels", "partitions", "fusion", "xcat", "bimod", "labelctx"):
        names, uses = _memoised(package / f"{module}.py")
        assert uses == len(names), (module, names, uses)
        found += names
    assert sorted(found) == sorted(["context", "_fused_with_v"]), found
