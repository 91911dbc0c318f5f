import pytest

import mixedchain.bimod as bm
import mixedchain.fusion as fu
import mixedchain.xcat as xc
from mixedchain.bimod import (
    atypical_part,
    closed_form_p,
    closed_form_q,
    dimension_audit,
    p_atypical,
    p_flattened,
    p_weighted_against_chain,
    projections_match,
    q_atypical,
    q_flattened,
    semisimple_part,
    table_csv,
    verify_identities,
)
from mixedchain.fusion import chain_decompose, fuse_with_v
from mixedchain.partitions import atyp, atypical_bipartition, atypical_columns, cross_set, gswap
from mixedchain.labels import bar, bar_to_plain, gbar, simple_subquotients
from mixedchain.xcat import q_functor, res_right_d, res_right_k

bip = atypical_bipartition


def test_semisimple_smallest():
    assert semisimple_part(1, 1) == ((((1,), (1,)), bar("Z", 3, 1, 1)),)
    assert semisimple_part(2, 1) == ((((2,), (1,)), bar("Z", 5, 1, 2)),)


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
    return tuple(sorted(pairs, key=lambda p: (p[1].t, p[1].r, p[0])))


def test_semisimple_balanced_matches_transcription():
    for m in range(1, 41):
        assert semisimple_part(m, m) == _semisimple_balanced(m), m


def test_semisimple_table_spot_values():
    cells = {(z.t, z.r): lam for lam, z in semisimple_part(5, 3)}
    assert cells[(3, 5)] == ((5,), (3,))
    assert cells[(-2, 4)] == ((1, 1, 1, 1, 1), (2, 1))
    assert cells[(1, 1)] == ((3, 2), (1, 1, 1))
    cells44 = {(z.t, z.r): lam for lam, z in semisimple_part(4, 4)}
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
    assert v.x == ((3,), ()) and v.z == bar("Z", 1, 0, 3)
    g = atypical_part(1, 1)
    assert len(g.vertices) == 1
    assert g.vertices[0].x == ((), ()) and g.vertices[0].z == bar("Z", 1, 0, 0)


def test_atypical_3_2_matches_worked_example():
    g = atypical_part(3, 2)
    d12, d11, d10 = (bip(atyp("delta", False, 1, s)) for s in (2, 1, 0))
    by_key = {(v.x, v.z, v.layer) for v in g.vertices}
    expect = {
        (d12, bar("Z", 2, 0, 2), "top"),
        (d12, bar("Z", 3, 0, 3), "mid"),
        (d12, bar("Z", 1, 0, 1), "mid"),
        (d12, bar("Z", 2, 0, 2), "bot"),
        (d11, bar("Z", 1, 0, 1), "top"),
        (d11, bar("Z", 2, 0, 2), "mid"),
        (d11, bar("Z", 2, 0, 0), "mid"),
        (d11, bar("Z", 1, 0, 1), "bot"),
        (d10, bar("Z", 1, 0, 1), "extra"),
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
    assert (("D", bip(atyp("delta1", False, 3, 2))), bar("Z", 3, 0, 1)) in cf
    # odd middle: the boundary collapses to the (0,0) quantum label
    cf = closed_form_p(5, 3)
    assert (("D", bip(atyp("delta1", False, 2, 2))), bar("Z", 3, 0, 0)) in cf
    # near-balanced: the two-row family ends the ladder
    cf = closed_form_p(4, 3)
    assert (("D", bip(atyp("delta2", False, 1, 1))), bar("Z", 3, 1, 0)) in cf


def test_gswap_duality_of_decomposition():
    for m, n in [(3, 1), (4, 2), (3, 3), (2, 5)]:
        sp = {(gswap(lam), gbar(z)) for lam, z in semisimple_part(m, n)}
        assert sp == set(semisimple_part(n, m))
        ga = atypical_part(m, n)
        gb = atypical_part(n, m)
        va = sorted((gswap(v.x), gbar(v.z), v.layer) for v in ga.vertices)
        vb = sorted((v.x, v.z, v.layer) for v in gb.vertices)
        assert va == vb


def test_bimodule_labels_cover_cross_set():
    for total in range(1, 11):
        for m in range(0, total + 1):
            n = total - m
            ts = {lam for lam, _ in semisimple_part(m, n)}
            cols, extra, _ = atypical_columns(m, n)
            at = {bip(c) for c in cols} | {bip(extra)}
            assert ts | at == set(cross_set(m, n))
            assert not ts & at


def test_dimension_audit_examples():
    assert dimension_audit(1, 1)
    assert dimension_audit(2, 1)
    assert dimension_audit(4, 3)


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
        for w, wm in fuse_with_v(bar_to_plain(z)).items():
            lhs[(term, w)] = lhs.get((term, w), 0) + mult * wm
    rhs = {}
    for (term, z), mult in q_flattened(m, n + 1).items():
        w = bar_to_plain(z)
        for rterm, rm in _restricted(term, m, n + 1):
            for dterm, dm in q_functor(rterm, m, n).items():
                rhs[(dterm, w)] = rhs.get((dterm, w), 0) + mult * rm * dm
    return _nonzero(lhs) == _nonzero(rhs)


def oracle_identity_proj(m, n):
    """Quantum-side flattening of (chain x dual fundamental) matches the
    restricted p-flattened next chain."""
    lhs = {}
    for (term, z), mult in p_flattened(m, n).items():
        for w, wm in fuse_with_v(bar_to_plain(z)).items():
            for sub in simple_subquotients(w):
                lhs[(term, sub)] = lhs.get((term, sub), 0) + mult * wm
    rhs = {}
    for (term, z), mult in p_flattened(m, n + 1).items():
        w = bar_to_plain(z)
        for rterm, rm in _restricted(term, m, n + 1):
            rhs[(rterm, w)] = rhs.get((rterm, w), 0) + mult * rm
    return _nonzero(lhs) == _nonzero(rhs)


def _identity_contexts(max_total):
    return [(m, total - m) for total in range(1, max_total + 1) for m in range(1, total + 1)]


def test_identities_match_the_two_pass_oracle():
    for m, n in _identity_contexts(25):
        want = (oracle_identity_tensor(m, n), oracle_identity_proj(m, n))
        assert want == (True, True), (m, n)
        assert verify_identities(m, n) == want, (m, n)


def _clear_label_memos():
    """Forget every memo that a planted fault could have filled."""
    for memo in (bm._fused, fu._fused_with_v, fu.chain_content, xc.dims_for):
        memo.cache_clear()


def _drop_generic_term(lam):
    generic = xc._generic_restriction

    def planted(mu, f):
        out = generic(mu, f)
        return out[1:] if mu == lam else out
    return "_generic_restriction", planted


def _bump_fusion_mult(x):
    # the rule table read that both the one-pass check and the oracle go through
    dispatch = fu._dispatch

    def planted(label, rules):
        out = dispatch(label, rules)
        if label == x:
            out[next(iter(out))] += 1
        return out
    return "_dispatch", planted


def _drop_exceptional_row(name):
    rows = xc._exceptional_rows

    def planted(m, n):
        return {key: found for key, found in rows(m, n).items()
                if all(row_name != name for row_name, _terms in found)}
    return "_exceptional_rows", planted


@pytest.mark.parametrize("module, plant", [
    (xc, lambda: _drop_generic_term(((2,), (2,)))),
    (fu, lambda: _bump_fusion_mult(bar_to_plain(semisimple_part(3, 2)[0][1]))),
    (xc, lambda: _drop_exceptional_row("X.bd.wall")),
], ids=["generic-term", "fusion-mult", "exceptional-row"])
def test_planted_faults_fail_the_same_contexts(monkeypatch, module, plant):
    # each fault is seen by the one-pass check and by the oracle, at the same
    # contexts and for the same identities, and not everywhere
    contexts = _identity_contexts(15)
    name, planted = plant()
    _clear_label_memos()
    try:
        with monkeypatch.context() as patched:
            patched.setattr(module, name, planted)
            failing = []
            for m, n in contexts:
                got = verify_identities(m, n)
                assert got == (oracle_identity_tensor(m, n), oracle_identity_proj(m, n)), (m, n)
                if got != (True, True):
                    failing.append((m, n))
    finally:
        _clear_label_memos()
    assert 0 < len(failing) < len(contexts), failing
    assert all(verify_identities(m, n) == (True, True) for m, n in failing)


def test_flattened_shapes():
    # q-flattened pairs carry only simple X-labels; p-flattened may carry K
    for (term, z), _ in q_flattened(3, 2).items():
        assert term[0] == "D"
    kinds = {term[0] for (term, z), _ in p_flattened(3, 2).items()}
    assert kinds == {"D", "K"}
    assert p_weighted_against_chain(3, 2)


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


def test_dims_check_builds_each_context_once(monkeypatch):
    # the dims check of a context reads its ledger once and flattens its
    # atypical part once per side, through the memoised items
    from mixedchain.cli import _sweep

    calls = {}

    def counted(name, fn):
        def wrapper(m, n):
            calls[name] = calls.get(name, 0) + 1
            return fn(m, n)
        monkeypatch.setattr(bm, name, wrapper)

    for name in ("dims_for", "p_atypical", "q_atypical"):
        counted(name, getattr(bm, name))
    for memo in (bm._p_atypical_items, bm._q_atypical_items):
        memo.cache_clear()
    rows = _sweep("dims", 12)
    assert rows and all(row["ok"] for row in rows)
    assert calls == dict.fromkeys(("dims_for", "p_atypical", "q_atypical"), len(rows))


def test_label_memos_stay_bounded():
    # a label sweep computes its contexts column by column, so each
    # per-context memo keeps 4 contexts (the exceptional rows and the
    # atypical graph 2) and still misses exactly once per context it
    # reaches, whatever the bound; per-label memos are LRU caches of 8192
    # labels.  A mirror context (m < n) is built uncached, and a column
    # head (m, 0) is one fusion step from the one before it.
    import mixedchain.labels as la
    import mixedchain.partitions as pa
    from mixedchain.cli import _sweep

    per_label = [fu._fused_with_v, bm._fused, la.bar_to_plain]
    tables = [bm.semisimple_part, bm._q_atypical_items, bm._p_atypical_items,
              pa.atypical_columns]
    per_context = tables + [pa.atypical_set, xc._exceptional_rows, xc.dims_for,
                            fu.chain_content, fu._chain_head, bm.atypical_part]
    maxsize = dict.fromkeys(per_context, 4)
    maxsize[xc._exceptional_rows] = maxsize[bm.atypical_part] = 2

    def misses(suite, swept):
        if suite == "identities":
            # the identities at (m,n) read (m,n) and (m,n+1), all with m >= 1
            reached = {(m, n) for m, n in swept | {(m, n + 1) for m, n in swept} if m >= 1}
            want = dict.fromkeys(tables, len(reached))
            # restrictions classify labels of the contexts with a right strand
            with_strand = sum(1 for m, n in reached if n >= 1)
            want[pa.atypical_set] = want[xc._exceptional_rows] = with_strand
            return want
        want = dict.fromkeys(tables + [xc.dims_for, bm.atypical_part], len(swept))
        want[fu.chain_content] = len(swept) + 1  # the empty chain (0,0) too
        want[fu._chain_head] = max(m for m, n in swept) + 1  # 3bar^m per column m, and 3bar^0
        # the dims audit classifies labels only where the atypical part has columns
        want[pa.atypical_set] = sum(1 for m, n in swept if pa._columns(m, n)[0])
        return want

    def assert_no_thrash(memo):
        # every label missed once: nothing was evicted and read again
        info = memo.cache_info()
        assert 0 < info.misses == info.currsize < info.maxsize, (memo.__name__, info)

    currsize = {}
    for suite in ("identities", "dims"):
        for bound in (20, 30):
            for memo in per_label + per_context:
                memo.cache_clear()
            rows = _sweep(suite, bound)
            # all (m,n) with 1 <= m+n <= bound; the identities skip m = 0
            swept = {(m, total - m) for total in range(1, bound + 1) for m in range(total + 1)}
            if suite == "identities":
                assert len(rows) == 2 * sum(1 for m, n in swept if m >= 1)
            else:
                assert len(rows) == len(swept)
            assert all(row["ok"] for row in rows)
            want = misses(suite, swept)
            for memo in per_context:
                info = memo.cache_info()
                assert info.maxsize == maxsize[memo], (memo.__name__, info)
                assert info.misses == want.get(memo, 0), (suite, bound, memo.__name__, info)
                assert min(1, info.misses) <= info.currsize <= info.maxsize, (memo.__name__, info)
                # a wider sweep keeps no more contexts
                assert info.currsize <= currsize.get((suite, memo), info.maxsize), (
                    suite, memo.__name__, info)
                currsize[suite, memo] = info.currsize
            for memo in per_label:
                info = memo.cache_info()
                assert info.maxsize == 8192, (memo.__name__, info)
                assert min(1, info.misses) <= info.currsize <= info.maxsize, (memo.__name__, info)

    # a cold chain_content(40, 20) fuses each label of the chains it builds,
    # (0, k) for k < 40 and (40, k) for k < 20, once
    for memo in (fu._fused_with_v, fu.chain_content, fu._chain_head):
        memo.cache_clear()
    fu.chain_content(40, 20)
    built = [(0, k) for k in range(40)] + [(40, k) for k in range(20)]
    distinct = {x for m, n in built for x in fu.chain_content(m, n)}
    assert fu._fused_with_v.cache_info().misses == len(distinct)
    assert_no_thrash(fu._fused_with_v)

    # a sweep to 25 fuses and translates each barred label once, and reads
    # the fusion rule table uncached, so the chain content's memo stays empty
    for memo in per_label + per_context:
        memo.cache_clear()
    assert all(row["ok"] for row in _sweep("identities", 25))
    for memo in (bm._fused, la.bar_to_plain):
        assert_no_thrash(memo)
    info = fu._fused_with_v.cache_info()
    assert info.misses == info.hits == info.currsize == 0, info
