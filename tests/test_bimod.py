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
    verify_identity_proj,
    verify_identity_tensor,
)
from mixedchain.fusion import chain_decompose
from mixedchain.partitions import atyp, atypical_bipartition, atypical_columns, cross_set, gswap
from mixedchain.uqmod import bar, gbar

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
    assert verify_identity_tensor(1, 0)
    assert verify_identity_tensor(2, 1)
    assert verify_identity_proj(1, 1)
    assert verify_identity_proj(3, 2)


def test_identities_full_reported_range():
    # the induction identities over the full range they were ever reported for
    for total in range(13, 26):
        for m in range(1, total + 1):
            n = total - m
            assert verify_identity_tensor(m, n), (m, n)
            assert verify_identity_proj(m, n), (m, n)


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
    from mixedchain.uqmod import R, Z
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


def test_label_memos_stay_bounded():
    # the identity sweep holds per-context tables for at most two contexts,
    # and per-label memos are LRU caches of a fixed size, whatever the bound;
    # the per-context ledgers keep 64 contexts, and the sweep memos at most
    # 128, enough for a sweep to compute each context once, the mirror
    # lookups semisimple_part(n, m) included
    import mixedchain.bimod as bm
    import mixedchain.fusion as fu
    import mixedchain.partitions as pa
    import mixedchain.uqmod as uq
    import mixedchain.xcat as xc
    from mixedchain.cli import _verify_dims, _verify_identities

    per_context = [xc._exceptional_rows, bm._restrictions]
    per_label = [fu._fused_with_v, bm._fused, uq.bar_to_plain]
    ledgers = [bm.semisimple_part, xc.dims_for]
    sweep = [pa.atypical_columns, pa.atypical_set, bm._q_atypical_items,
             bm._p_atypical_items, bm.atypical_part, fu.chain_content]
    # all (m,n) with 1 <= m+n <= 20: each is one context of a sweep to 20
    swept = {(m, total - m) for total in range(1, 21) for m in range(total + 1)}
    # the identities at (m,n) read (m,n) and (m,n+1), all with m >= 1
    reached = {(m, n) for m, n in swept | {(m, n + 1) for m, n in swept} if m >= 1}
    contexts = len(swept)
    # the dims audit classifies labels only where the atypical part has columns
    with_columns = sum(1 for m, n in swept if pa.atypical_columns(m, n)[0])

    def assert_bounded(memos, misses, maxsize):
        for memo in memos:
            info = memo.cache_info()
            want = misses.get(memo, 0)
            assert info.maxsize is not None and info.maxsize <= maxsize, (memo.__name__, info)
            assert min(1, want) <= info.currsize <= info.maxsize, (memo.__name__, info)
            assert info.misses == want, (memo.__name__, info)

    for memo in per_context + per_label + ledgers + sweep:
        memo.cache_clear()
    assert all(row["ok"] for row in _verify_identities(20))
    for memo in per_context:
        info = memo.cache_info()
        assert 1 <= info.currsize <= 2 and info.maxsize == 2, (memo.__name__, info)
    for memo in per_label:
        info = memo.cache_info()
        assert info.maxsize is not None and info.maxsize <= 1024, (memo.__name__, info)
        assert 1 <= info.currsize <= info.maxsize, (memo.__name__, info)
    assert_bounded([bm.semisimple_part], {bm.semisimple_part: contexts}, 64)
    # restrictions classify labels of the contexts with a right strand
    one_each = {memo: len(reached) for memo in sweep[:4]}
    one_each[pa.atypical_set] = len({(m, n) for m, n in reached if n >= 1})
    assert_bounded(sweep, one_each, 128)

    for memo in ledgers + sweep:
        memo.cache_clear()
    rows = _verify_dims(20)
    assert len(rows) == contexts and all(row["ok"] for row in rows)
    assert_bounded(ledgers, dict.fromkeys(ledgers, contexts), 64)
    one_each = dict.fromkeys(sweep, contexts)
    one_each[fu.chain_content] = contexts + 1  # the empty chain (0,0) too
    one_each[pa.atypical_set] = with_columns
    assert_bounded(sweep, one_each, 128)
    assert bm.atypical_part.cache_info().maxsize == 2
