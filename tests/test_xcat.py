import pytest

import mixedchain.xcat as xc
from mixedchain.bimod import dims_for
from mixedchain.fusion import GrothVector
from mixedchain.partitions import atypical_set, cross_labels, gswap, label_classes
from mixedchain.xcat import (
    NIsZero,
    NotCross,
    proj_structure,
    q_functor,
    res_right_d,
    res_right_k,
)
from oracles import (
    _col,
    _columns,
    _hookp,
    _in_lambda,
    _pair,
    _row,
    _Rows,
    _two_row,
    atyp,
    atypical_bipartition,
    classify_atypical,
    cross_set,
    dim_simple_x,
    dim_term,
    exceptional_d_table,
    exceptional_keys,
    gswap_label,
    is_atypical,
    loewy_graph,
    partitions_of,
    q_expand,
    res_d_table,
    res_k_table,
    res_right_s,
)

bip = atypical_bipartition


def layers(cover):
    return [layer for layer, _ in loewy_graph(cover)[0]]


def test_proj_structure_shapes():
    # diamond in the generic range: head, the middles in column order, socle
    lam = bip(atyp("delta", False, 2, 2))
    cover = proj_structure(lam, 5, 3)
    assert layers(cover) == ["top", "mid", "mid", "bot"]
    assert sorted(cover).count(bip(atyp("delta", False, 2, 1))) == 1
    assert sorted(cover).count(bip(atyp("delta", False, 2, 3))) == 1
    assert cover == (lam, bip(atyp("delta", False, 2, 3)), bip(atyp("delta", False, 2, 1)), lam)
    # two-step chain under the lone extra label
    cover = proj_structure(bip(atyp("delta", False, 2, 0)), 5, 3)
    assert layers(cover) == ["top", "bot"]
    assert cover[1] == bip(atyp("delta", False, 2, 1))
    # fork at the origin of the balanced case
    cover = proj_structure(bip(atyp("delta2", False, 0, 0)), 3, 3)
    assert layers(cover) == ["top", "mid", "mid", "mid", "bot"]
    assert sorted(cover[1:-1]) == sorted([bip(atyp("delta2", True, 0, 1)), ((), ()),
                                          bip(atyp("delta2", False, 0, 1))])
    # typical labels are their own projective covers
    assert proj_structure(((2,), (1,)), 3, 2) == (((2,), (1,)),)


def test_proj_structure_small_contexts():
    assert proj_structure(((), ()), 1, 1) == (((), ()),)
    assert proj_structure(((3,), ()), 3, 0) == (((3,), ()),)
    cover = proj_structure(((1, 1), (1, 1)), 2, 2)
    assert layers(cover) == ["top", "mid", "bot"]
    assert cover[1] == ((), ())
    # diamond replacing the fork when the third middle does not exist yet
    cover = proj_structure(bip(atyp("delta", False, 1, 1)), 3, 2)
    assert layers(cover) == ["top", "mid", "mid", "bot"]
    assert sorted(cover[1:-1]) == sorted([bip(atyp("delta", False, 1, 2)),
                                          bip(atyp("delta", False, 1, 0))])


# ---------------------------------------------------------------------------
# transcription oracle: the per-display projective-structure table
# ---------------------------------------------------------------------------

def _proj_cases(lab, m, n):
    """Matching displays of the projective-structure table, unbarred side."""
    a, s = lab.a, lab.s
    hits = []

    def mids(name, *labels):
        hits.append((name, [bip(x) for x in labels]))

    if lab.family == "delta" and not lab.bar:
        if m > n and 2 <= s <= n - 1 and a >= 1:
            mids("diamond", atyp("delta", False, a, s - 1), atyp("delta", False, a, s + 1))
        if m > n and s == 1 and a >= 2 and n >= 2:
            mids("fork", atyp("delta", False, a, 2), atyp("delta", False, a, 0),
                 atyp("delta1", False, a, 2))
        if m > n and s == 1 and a == 1 and n >= 3:
            mids("fork", atyp("delta", False, 1, 2), atyp("delta", False, 1, 0),
                 atyp("delta2", False, 1, 1))
        if m > n and s == 1 and a == 1 and n == 2:
            # small-context diamond: the third fork middle does not exist yet
            mids("diamond", atyp("delta", False, 1, 2), atyp("delta", False, 1, 0))
        if m > n and s == n and n >= 1 and a >= 1:
            mids("chain3", atyp("delta", False, a, n - 1))
        if s == 0 and a >= 1 and n >= 1:
            hits.append(("chain2", [bip(atyp("delta", False, a, 1))]))
        if s == 0 and a >= 1 and n == 0:
            hits.append(("single", []))
        if m == n and (a, s) == (0, 0):
            if n >= 2:
                hits.append(("chain2", [bip(atyp("delta2", False, 0, 0))]))
            else:
                hits.append(("single", []))
    elif lab.family == "delta1" and not lab.bar:
        if 2 <= s <= min(a, n) - 1:
            mids("diamond", atyp("delta1", False, a, s - 1), atyp("delta1", False, a, s + 1))
        if s == a and 2 <= a <= n - 2:
            mids("diamond", atyp("delta1", False, a, a - 1), atyp("delta2", False, a, a))
        if s == a == n - 1 and n >= 3:
            mids("chain3", atyp("delta1", False, a, a - 1))
        if s == n and 2 <= n <= a:
            mids("chain3", atyp("delta1", False, a, n - 1))
    elif lab.family == "delta2" and not lab.bar:
        if m > n:
            if a + 1 <= s <= n - 3 and a >= 1:
                mids("diamond", atyp("delta2", False, a, s - 1), atyp("delta2", False, a, s + 1))
            if s == a and 2 <= a <= n - 3:
                mids("diamond", atyp("delta1", False, a, a), atyp("delta2", False, a, a + 1))
            if s == a == 1 and n >= 4:
                mids("diamond", atyp("delta", False, 1, 1), atyp("delta2", False, 1, 2))
            if s == n - 2 and 1 <= a <= n - 3:
                mids("chain3", atyp("delta2", False, a, n - 3))
            if s == a == n - 2 and n >= 3:
                mids("chain3", atyp("delta1", False, n - 2, n - 2))
        else:  # m == n, a == 0
            if s == 0 and n >= 3:
                mids("fork", atyp("delta2", True, 0, 1), atyp("delta", False, 0, 0),
                     atyp("delta2", False, 0, 1))
            if s == 0 and n == 2:
                # small context: only the extra vertex remains in the middle
                mids("chain3", atyp("delta", False, 0, 0))
            if 1 <= s <= n - 3:
                mids("diamond", atyp("delta2", False, 0, s - 1), atyp("delta2", False, 0, s + 1))
            if s == n - 2 and n >= 3:
                mids("chain3", atyp("delta2", False, 0, n - 3))
    return hits


def oracle_graph(lam, m, n):
    """Labelled Loewy graph of atypical K(lam) from the table: (vertices, edges).

    Vertices are (layer, label) pairs; an edge joins two such pairs, so the
    comparison does not depend on the order in which vertices are listed.
    """
    lab = classify_atypical(lam, m, n)
    if lab.bar and not (m < n or (m == n and lab.family == "delta2")):
        raise AssertionError(f"unexpected barred label {lab} at ({m},{n})")
    if m < n:
        vertices, edges = oracle_graph(gswap(lam), n, m)

        def swap(v):
            return v[0], gswap(v[1])

        return sorted(map(swap, vertices)), {(swap(u), swap(v)) for u, v in edges}
    if m == n and lab.bar:
        hits = [(name, [gswap(v) for v in vs])
                for name, vs in _proj_cases(gswap_label(lab), m, n)]
    else:
        hits = _proj_cases(lab, m, n)
    if len(hits) != 1:
        raise AssertionError(f"projective structure of {lab} at ({m},{n}): "
                             f"{len(hits)} displays matched: {[h[0] for h in hits]}")
    name, mids = hits[0]
    top = ("top", lam)
    if name == "single":
        return [top], set()
    if name == "chain2":
        bot = ("bot", mids[0])
        return sorted([top, bot]), {(top, bot)}
    bot = ("bot", lam)
    middle = [("mid", mu) for mu in mids]
    return (sorted([top, bot] + middle),
            {(top, v) for v in middle} | {(v, bot) for v in middle})


def labelled(cover):
    vertices, edges = loewy_graph(cover)
    return sorted(vertices), {(vertices[a], vertices[b]) for a, b in edges}


def test_proj_structure_matches_column_layout():
    # the column-layout derivation against the independently transcribed
    # table, for every atypical label with m+n <= 40: the Loewy graph that
    # the length of the cover fixes, layers and edges
    for total in range(1, 41):
        for m in range(0, total + 1):
            n = total - m
            for lam in atypical_set(m, n):
                assert labelled(proj_structure(lam, m, n)) == oracle_graph(lam, m, n), (m, n, lam)


def test_loewy_graph_rejects_a_cover_of_no_shape():
    lam, mu = ((1,), ()), ((2,), ())
    with pytest.raises(AssertionError, match="head as socle"):
        loewy_graph((lam, lam))
    with pytest.raises(AssertionError, match="another socle"):
        loewy_graph((lam, mu, mu))


def test_proj_structure_gswap_symmetry():
    for total in range(2, 10):
        for m in range(0, total + 1):
            n = total - m
            for lam in atypical_set(m, n):
                c1 = proj_structure(lam, m, n)
                c2 = proj_structure(gswap(lam), n, m)
                assert sorted(gswap(v) for v in c1) == sorted(c2)


def test_not_cross_raises():
    with pytest.raises(NotCross):
        proj_structure(((2, 2), (2, 2)), 4, 4)
    with pytest.raises(NotCross):
        res_right_d(((2, 2), (2, 2)), 4, 4)
    with pytest.raises(NIsZero):
        res_right_d(((1,), ()), 1, 0)


def test_restrictions_validate_their_input_once():
    # each restriction checks its input once, in the old order: out of the
    # context first, then not a cross label
    from mixedchain.partitions import NotInLambda, is_cross21, lambda_f

    cases = {
        (((2,), (1,)), 3, 1): NotInLambda,     # the defects of the two halves differ
        (((3,), (2,)), 2, 1): NotInLambda,     # negative defect
        (((2, 2), (2, 2)), 4, 5): NotInLambda,  # also not a cross label
        (((2, 2), (2, 2)), 4, 4): NotCross,
        (((3, 1, 1), (2, 2)), 5, 4): NotCross,
    }
    fns = (res_right_d, res_right_k, res_right_s)
    for (lam, m, n), exc in cases.items():
        for fn in fns:
            with pytest.raises(exc):
                fn(lam, m, n)
    halves = [mu for k in range(5) for mu in partitions_of(k)]
    for m in range(0, 6):
        for n in range(1, 7 - m):
            for lam in ((left, right) for left in halves for right in halves):
                try:
                    lambda_f(lam, m, n)
                    want = None if is_cross21(lam) else NotCross
                except NotInLambda:
                    want = NotInLambda
                for fn in fns:
                    if want is None:
                        fn(lam, m, n)
                    else:
                        with pytest.raises(want):
                            fn(lam, m, n)


def test_res_right_s_examples():
    assert dict(res_right_s(((2,), (1,)), 2, 1)) == {((2,), ()): 1}
    assert dict(res_right_s(((), ()), 1, 1)) == {(((1,), ())): 1}
    # removals from an empty right half contribute nothing
    out = res_right_s(((1,), ()), 2, 1)
    assert all(mu[1] == () or mu[1] != () for mu in out)
    assert dict(out) == {((2,), ()): 1, ((1, 1), ()): 1}


def test_res_right_d_atypical_rows():
    # hook family, s = 0: a single shifted label
    assert dict(res_right_d(((2,), ()), 3, 1)) == {("D", ((3,), ())): 1}
    # hook family, middle of the ladder
    out = res_right_d(bip(atyp("delta", False, 1, 1)), 3, 2)
    assert dict(out) == {("D", bip(atyp("delta", False, 2, 1))): 1,
                         ("D", ((1, 1), ())): 1}
    # mirrored family crossing the wall
    out = res_right_d(((2,), (1, 1, 1)), 2, 3)
    assert dict(out) == {("D", ((2,), (1, 1))): 1}
    # balanced-case origin
    assert dict(res_right_d(((), ()), 2, 2)) == {("D", ((1,), ())): 1}


def test_res_right_d_generic_and_exceptional():
    # generic rule on a typical label
    out = res_right_d(((2,), (2,)), 2, 2)
    assert dict(out) == {("D", ((2,), (1,))): 1}
    # regluing row: the restriction hits an atypical pair and forms a projective
    out = res_right_d(((1,), (1,)), 2, 2)
    assert dict(out) == {("K", ((1, 1), (1,))): 1, ("D", ((2,), (1,))): 1}
    # at the smallest balanced point the same label follows the generic rule
    out = res_right_d(((1,), (1,)), 1, 1)
    assert dict(out) == {("D", ((1,), ())): 1}


def test_res_right_k_examples():
    assert dict(res_right_k(((), ()), 2, 2)) == {("K", ((1,), ())): 1}
    out = res_right_k(bip(atyp("delta", False, 1, 2)), 4, 3)
    assert dict(out) == {
        ("K", bip(atyp("delta", False, 2, 2))): 1,
        ("D", ((1, 1, 1, 1), (2,))): 1,
        ("D", ((1, 1, 1), (1,))): 2,
        ("D", ((1, 1), ())): 1,
    }
    out = res_right_k(((1, 1), (1, 1)), 3, 3)
    assert dict(out) == {
        ("K", ((1, 1), (1,))): 1,
        ("D", ((2, 1), (1, 1))): 1,
        ("D", ((1, 1, 1), (1, 1))): 1,
    }


def test_res_right_k_spells_a_trivial_cover_as_d():
    # a cover that is its label alone is a simple, so it is written ("D", mu)
    assert dict(res_right_k(((), (1,)), 0, 1)) == {("D", ((), ())): 1}
    assert dict(res_right_k(((), ()), 1, 1)) == {("D", ((1,), ())): 1}
    assert dict(res_right_k(((), (2,)), 0, 2)) == {("D", ((), (1,))): 1}


def k_table_row(lab, m, n):
    """The transcribed K display of an atypical label, a trivial cover, which
    the displays write ("K", mu), spelled ("D", mu) as the library writes it."""
    out = GrothVector()
    for (kind, mu), mult in res_k_table(lab, m, n).items():
        if kind == "K" and proj_structure(mu, m, n - 1) == (mu,):
            kind = "D"
        out.add((kind, mu), mult)
    return out


def test_res_right_k_matches_the_transcribed_displays():
    # the derived K rows equal the paper's displays for every atypical label
    # with 1 <= n and m+n <= 40, once a trivial cover is spelled ("D", mu);
    # 80 rows need that, one in each context whose target has no columns:
    # (m, 0), (0, n-1) and (1, 1)
    labels, respelled = 0, []
    for total in range(1, 41):
        for m in range(total):
            n = total - m
            for lam in atypical_set(m, n):
                lab = classify_atypical(lam, m, n)
                labels += 1
                want = k_table_row(lab, m, n)
                if want != res_k_table(lab, m, n):
                    respelled.append((m, n))
                assert res_right_k(lam, m, n) == want, (m, n, lab)
    assert labels == 10821
    assert len(respelled) == 80
    no_columns = {(m, n) for total in range(1, 41) for m in range(total)
                  for n in [total - m] if not _columns(m, n - 1)[0]}
    assert sorted(respelled) == sorted(no_columns)
    assert no_columns == ({(0, n) for n in range(1, 41)} | {(m, 1) for m in range(1, 40)}
                          | {(1, 2)})


def test_res_right_k_typical_routes_to_d():
    lam = ((2,), (2,))
    assert dict(res_right_k(lam, 2, 2)) == dict(res_right_d(lam, 2, 2))


def test_q_functor():
    lam = bip(atyp("delta", False, 1, 1))
    out = q_functor(("K", lam), 4, 3)
    assert dict(out) == {
        ("D", lam): 2,
        ("D", bip(atyp("delta", False, 1, 2))): 1,
        ("D", bip(atyp("delta", False, 1, 0))): 1,
        ("D", bip(atyp("delta2", False, 1, 1))): 1,
    }
    assert dict(q_functor(("D", lam), 4, 3)) == {("D", lam): 1}
    out = q_functor(("K", bip(atyp("delta", False, 2, 0))), 5, 3)
    assert dict(out) == {("D", bip(atyp("delta", False, 2, 0))): 1,
                         ("D", bip(atyp("delta", False, 2, 1))): 1}


def res_left(lam, kind, m, n):
    """Restriction one step down on the left side, via the swap involution."""
    if m < 1:
        raise NIsZero("left restriction needs m >= 1")
    fn = {"S": res_right_s, "D": res_right_d, "K": res_right_k}[kind]
    mirrored = fn(gswap(lam), n, m)
    out = GrothVector()
    for term, mult in mirrored.items():
        if kind == "S":
            out.add(gswap(term), mult)
        else:
            out.add((term[0], gswap(term[1])), mult)
    return out


def specht_atypical_factors(lam, m, n):
    """Simple factors (head first) of a Specht label, where known.

    Typical Specht labels are simple.  For the hook-shaped atypical family
    (and its mirror) the two-step gluing along the column ladder is encoded;
    the Specht structure of the remaining atypical families is not modelled.
    """
    lab = classify_atypical(lam, m, n)
    if lab is None:
        return [lam]
    if lab.family != "delta":
        raise ValueError(f"Specht factors of {lab} are not modelled")
    cols, extra, host = _columns(m, n)
    if lab == extra:
        return [lam] if host is None else [lam, bip(cols[host])]
    i = cols.index(lab)
    if i == 0:
        return [lam]
    return [lam, bip(cols[i - 1])]


def test_res_left_via_swap():
    out = res_left(((), (2,)), "D", 1, 3)
    assert dict(out) == {("D", ((), (3,))): 1}
    for m, n, lam in [(2, 1, ((1, 1), (1,))), (2, 2, ((1,), (1,))),
                      (3, 2, ((2, 1), (1, 1)))]:
        lhs = res_left(lam, "D", m, n)
        rhs = res_right_d(gswap(lam), n, m)
        assert dict(lhs) == {(k, gswap(v)): c for (k, v), c in rhs.items()}


def test_dim_ledger_examples():
    assert dim_simple_x(((), ()), 1, 1) == 1
    assert dim_simple_x(((1, 1), (1,)), 2, 1) == 1
    from mixedchain.fusion import chain_decompose
    from mixedchain.labels import Z
    assert dim_simple_x(((5,), (3,)), 5, 3) == chain_decompose(5, 3)[Z(1, -1, 8, 5)]


def test_dim_ledger_covers_cross_set():
    for m, n in [(2, 1), (3, 2), (2, 2), (4, 1), (1, 3)]:
        ledger = dims_for(m, n)
        assert set(ledger) == set(cross_set(m, n))
        assert all(v > 0 for v in ledger.values())


def test_restriction_preserves_dimension_small():
    for m, n in [(2, 1), (1, 2), (2, 2), (3, 1), (3, 2), (2, 3), (4, 2)]:
        for lam in cross_labels(m, n):
            want = dim_simple_x(lam, m, n)
            got = sum(dim_simple_x(mu, m, n - 1) * c
                      for (_, mu), c in q_expand(res_right_d(lam, m, n), m, n - 1).items())
            assert got == want, ("D", m, n, lam)
            kterm = ("K", lam) if classify_atypical(lam, m, n) else ("D", lam)
            wantk = dim_term(kterm, m, n)
            gotk = sum(dim_term(t, m, n - 1) * c
                       for t, c in res_right_k(lam, m, n).items())
            assert gotk == wantk, ("K", m, n, lam)


def test_specht_factors_and_restriction_square():
    # the ladder gluing commutes with restriction wherever it is defined
    for m, n in [(2, 1), (3, 1), (4, 1), (5, 1), (3, 2)]:
        for lam in cross_labels(m, n):
            lhs = GrothVector()
            for mu, c in res_right_s(lam, m, n).items():
                for nu in specht_atypical_factors(mu, m, n - 1):
                    lhs.add(nu, c)
            rhs = GrothVector()
            for nu in specht_atypical_factors(lam, m, n):
                for (_, mu), c in q_expand(res_right_d(nu, m, n), m, n - 1).items():
                    rhs.add(mu, c)
            assert lhs == rhs, (m, n, lam)


def test_specht_factors_unmodelled_families_raise():
    with pytest.raises(ValueError):
        specht_atypical_factors(((1, 1), (1, 1)), 2, 2)


def test_every_restriction_display_fires():
    # each declared display must be reachable; a dead row hides a bad guard.
    # Every display is a transcription oracle for the derived rows, so the
    # library declares none and they fire through the oracles
    import re
    from pathlib import Path

    import oracles

    fired = set()
    orig_unique = oracles._Rows.unique

    def tracking_unique(self, what):
        out = orig_unique(self, what)
        fired.add(self.hits[0][0])
        return out

    oracles._Rows.unique = tracking_unique
    try:
        for total in range(1, 16):
            for m in range(0, total):
                n = total - m
                for lam in cross_labels(m, n):
                    lab = classify_atypical(lam, m, n)
                    if lab is None:
                        exceptional_d_table(lam, m, n)
                    else:
                        res_d_table(lab, m, n)
                        res_k_table(lab, m, n)
    finally:
        oracles._Rows.unique = orig_unique

    def declared_in(text):
        return set(re.findall(r'\brow\("([^"]+)"', text))

    declared = declared_in(Path(oracles.__file__).read_text())
    kinds = {kind: {name for name in declared if name.split(".")[0] == kind}
             for kind in ("D", "X", "K")}
    assert {kind: len(names) for kind, names in kinds.items()} == {"D": 18, "X": 9, "K": 39}
    assert declared == set().union(*kinds.values())
    assert declared <= fired, sorted(declared - fired)
    library = "".join(path.read_text() for path in Path(xc.__file__).parent.glob("*.py"))
    assert declared_in(library) == set()


def test_atypical_columns_shapes():
    classes = label_classes(5, 2)
    assert classes.columns == (((3, 1, 1), (2,)), ((3, 1), (1,)), ((3, 2), (1, 1)))
    assert classes.extra == ((3,), ()) and classes.host == 1
    classes = label_classes(4, 4)
    assert classes.columns[0] == ((1, 1, 1, 1), (3, 1))
    assert classes.columns[-1] == ((3, 1), (1, 1, 1, 1))
    assert classes.extra == ((), ())
    assert classes.columns[classes.host] == ((1, 1), (1, 1))
    classes = label_classes(3, 0)
    assert classes.columns == () and classes.host is None and classes.extra == ((3,), ())


# ---------------------------------------------------------------------------
# the derived rows against the transcribed displays
# ---------------------------------------------------------------------------

def d_table_row(lam, m, n, keys):
    """The transcribed row of a simple label: its D display when it is
    atypical, else its re-gluing row when it is one of the context's `keys`,
    else its Pieri terms; and whether a re-gluing row matched."""
    lab = classify_atypical(lam, m, n)
    if lab is not None:
        return res_d_table(lab, m, n), False
    if lam in keys:
        return exceptional_d_table(lam, m, n), True
    return GrothVector((("D", mu), mult) for mu, mult in res_right_s(lam, m, n).items()), False


def test_d_rows_match_the_transcribed_displays():
    # every cross label with 1 <= n and m+n <= 26
    labels = reglued = 0
    for total in range(1, 27):
        for m in range(total):
            n = total - m
            keys = exceptional_keys(m, n)
            for lam in cross_labels(m, n):
                want, hit = d_table_row(lam, m, n, keys)
                assert res_right_d(lam, m, n) == want, (m, n, lam)
                labels += 1
                reglued += hit
    assert (labels, reglued) == (40977, 2260)


def test_every_regluing_key_is_a_typical_label():
    # a row keyed by an atypical label never applies: that label takes its
    # D display.  Every in-context key of every context with m+n <= 26 is a
    # cross label that the rule finds typical
    from mixedchain.bimod import quantum_label

    keys = 0
    for total in range(1, 27):
        for m in range(total + 1):
            n = total - m
            cross = set(cross_labels(m, n))
            for key in exceptional_keys(m, n):
                if None in key or not _in_lambda(key, m, n):
                    continue
                assert key in cross and not is_atypical(quantum_label(key, m, n)), (m, n, key)
                keys += 1
    assert keys == 2260


def test_rows_match_the_transcribed_displays_at_far_contexts():
    # far beyond the exhaustive range, on both mirror sides, m = n, |m-n| = 1
    # and n or m = 1: the D and K rows of every atypical label, and the D
    # rows of every semisimple label.  Every label of the context that a
    # re-gluing row keys is one of these
    from mixedchain.bimod import semisimple_part

    reglued = {}
    for m, n in [(75, 75), (76, 74), (74, 76), (100, 50), (50, 100), (149, 1), (1, 149),
                 (40, 3), (3, 40)]:
        for lam in atypical_set(m, n):
            lab = classify_atypical(lam, m, n)
            assert res_right_d(lam, m, n) == res_d_table(lab, m, n), (m, n, lab)
            assert res_right_k(lam, m, n) == k_table_row(lab, m, n), (m, n, lab)
        keys = exceptional_keys(m, n)
        semisimple = {lam for lam, _z in semisimple_part(m, n)}
        for lam in semisimple:
            want, _hit = d_table_row(lam, m, n, keys)
            assert res_right_d(lam, m, n) == want, (m, n, lam)
        in_context = {key for key in keys if None not in key and _in_lambda(key, m, n)}
        assert in_context <= semisimple, (m, n)
        reglued[m, n] = len(keys & semisimple)
    assert reglued == {(75, 75): 145, (76, 74): 143, (74, 76): 145, (100, 50): 97,
                       (50, 100): 98, (149, 1): 0, (1, 149): 1, (40, 3): 3, (3, 40): 5}


def test_exceptional_index_keeps_both_row_checks():
    # the display collector of the oracles insists on one match, and on a
    # valid atypical label for each projective output
    rows = _Rows(2, 2)
    rows.row("X.a", ("D", ((1,), ()), 1))
    rows.row("X.b", ("D", ((1,), ()), 1))
    with pytest.raises(AssertionError, match="2 displays matched"):
        rows.unique("((1,), (2,)) at (2,3)")
    with pytest.raises(AssertionError, match="projective output invalid"):
        _Rows(2, 2).row("X.a", ("K", None, 1))
    with pytest.raises(AssertionError, match="X.a"):
        _Rows(2, 2).row("X.a", ("K", ((2,), (1,)), 1))


def _is_partition(mu) -> bool:
    return (type(mu) is tuple and all(type(p) is int and p > 0 for p in mu)
            and all(a >= b for a, b in zip(mu, mu[1:])))


def test_row_helpers_return_a_partition_or_none():
    # _pair trusts its halves: each comes from these helpers, or is ()
    grid = range(-4, 9)
    results = [_row(k) for k in grid] + [_col(k) for k in grid]
    results += [f(a, b) for f in (_hookp, _two_row) for a in grid for b in grid]
    assert all(mu is None or _is_partition(mu) for mu in results), results
    assert () in results and (3, 1, 1) in results and (4, 2) in results
    assert sum(mu is None for mu in results) > 0
    for left in results + [()]:
        for right in (None, (), (2, 1)):
            pair = _pair(left, right)
            assert pair == (None if left is None or right is None else (left, right))
