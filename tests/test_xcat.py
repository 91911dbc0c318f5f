import pytest

import mixedchain.xcat as xc
from mixedchain.fusion import GrothVector
from mixedchain.partitions import (
    Bipartition,
    atyp,
    atypical_bipartition,
    atypical_columns,
    atypical_set,
    classify_atypical,
    cross_set,
    gswap,
    gswap_label,
)
from mixedchain.xcat import (
    NIsZero,
    NotCross,
    _col,
    _hookp,
    _match_exceptional_d,
    _pair,
    _row,
    _Rows,
    _two_row,
    dim_simple_x,
    dim_term,
    dims_for,
    proj_structure,
    q_expand,
    q_functor,
    res_right_d,
    res_right_k,
    res_right_s,
)

bip = atypical_bipartition


def factors(graph):
    return sorted(v for _, v in graph.vertices)


def test_proj_structure_shapes():
    # diamond in the generic range
    g = proj_structure(bip(atyp("delta", False, 2, 2)), 5, 3)
    layers = [layer for layer, _ in g.vertices]
    assert layers == ["top", "mid", "mid", "bot"]
    assert factors(g).count(bip(atyp("delta", False, 2, 1))) == 1
    assert factors(g).count(bip(atyp("delta", False, 2, 3))) == 1
    # two-step chain under the lone extra label
    g = proj_structure(bip(atyp("delta", False, 2, 0)), 5, 3)
    assert [layer for layer, _ in g.vertices] == ["top", "bot"]
    assert g.vertices[1][1] == bip(atyp("delta", False, 2, 1))
    # fork at the origin of the balanced case
    g = proj_structure(bip(atyp("delta2", False, 0, 0)), 3, 3)
    mids = sorted(v for layer, v in g.vertices if layer == "mid")
    assert mids == sorted([bip(atyp("delta2", True, 0, 1)), ((), ()),
                           bip(atyp("delta2", False, 0, 1))])
    # typical labels are their own projective covers
    g = proj_structure(((2,), (1,)), 3, 2)
    assert len(g.vertices) == 1


def test_proj_structure_small_contexts():
    assert len(proj_structure(((), ()), 1, 1).vertices) == 1
    assert len(proj_structure(((3,), ()), 3, 0).vertices) == 1
    g = proj_structure(((1, 1), (1, 1)), 2, 2)
    assert [layer for layer, _ in g.vertices] == ["top", "mid", "bot"]
    assert g.vertices[1][1] == ((), ())
    # diamond replacing the fork when the third middle does not exist yet
    g = proj_structure(bip(atyp("delta", False, 1, 1)), 3, 2)
    mids = sorted(v for layer, v in g.vertices if layer == "mid")
    assert mids == sorted([bip(atyp("delta", False, 1, 2)),
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


def labelled(graph):
    vertices = graph.vertices
    return sorted(vertices), {(vertices[a], vertices[b]) for a, b in graph.edges}


def test_proj_structure_matches_column_layout():
    # the column-layout derivation against the independently transcribed
    # table, for every atypical label with m+n <= 40
    for total in range(1, 41):
        for m in range(0, total + 1):
            n = total - m
            for lam in atypical_set(m, n):
                assert labelled(proj_structure(lam, m, n)) == oracle_graph(lam, m, n), (m, n, lam)


def test_proj_structure_gswap_symmetry():
    for total in range(2, 10):
        for m in range(0, total + 1):
            n = total - m
            for lam in atypical_set(m, n):
                g1 = proj_structure(lam, m, n)
                g2 = proj_structure(gswap(lam), n, m)
                assert sorted(gswap(v) for v in factors(g1)) == factors(g2)


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
    from mixedchain.partitions import NotInLambda, is_cross21, lambda_f, partitions_of

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
    cols, extra, host = atypical_columns(m, n)
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
    from mixedchain.partitions import classify_atypical

    for m, n in [(2, 1), (1, 2), (2, 2), (3, 1), (3, 2), (2, 3), (4, 2)]:
        for lam in cross_set(m, n):
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
        for lam in cross_set(m, n):
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
    # each declared display must be reachable; a dead row hides a bad guard
    import re
    from pathlib import Path

    import mixedchain.xcat as xc

    fired = set()
    orig_unique = xc._Rows.unique

    def tracking_unique(self, what):
        out = orig_unique(self, what)
        fired.add(self.hits[0][0])
        return out

    xc._Rows.unique = tracking_unique
    try:
        for total in range(1, 16):
            for m in range(0, total + 1):
                n = total - m
                if n < 1:
                    continue
                for lam in atypical_set(m, n):
                    res_right_d(lam, m, n)
                    res_right_k(lam, m, n)
                for lam in cross_set(m, n):
                    if classify_is_none(lam, m, n):
                        res_right_d(lam, m, n)
    finally:
        xc._Rows.unique = orig_unique
    src = Path(xc.__file__).read_text()
    declared = set(re.findall(r'rows\.row\("([^"]+)"', src))
    # the exceptional rows are declared in the same call form, in their index
    exceptional = {"X.d", "X.d1", "X.d2", "X.d2c", "X.bd", "X.bd.wall", "X.bd1",
                   "X.bd1c", "X.bd2"}
    assert exceptional <= declared, sorted(exceptional - declared)
    assert declared <= fired, sorted(declared - fired)


def classify_is_none(lam, m, n):
    from mixedchain.partitions import classify_atypical

    return classify_atypical(lam, m, n) is None


def test_atypical_columns_shapes():
    cols, extra, host = atypical_columns(5, 2)
    assert [c for c in cols] == [atyp("delta", False, 3, 2), atyp("delta", False, 3, 1),
                                 atyp("delta1", False, 3, 2)]
    assert extra == atyp("delta", False, 3, 0) and host == 1
    cols, extra, host = atypical_columns(4, 4)
    assert cols[0] == atyp("delta2", True, 0, 2)
    assert cols[-1] == atyp("delta2", False, 0, 2)
    assert extra == atyp("delta", False, 0, 0)
    assert cols[host] == atyp("delta2", False, 0, 0)
    cols, extra, host = atypical_columns(3, 0)
    assert cols == [] and host is None and extra == atyp("delta", False, 3, 0)


# ---------------------------------------------------------------------------
# oracle: the exceptional rows probed linearly, one family after another
# ---------------------------------------------------------------------------

def _linear_exceptional_d(lam: Bipartition, m: int, n: int) -> GrothVector | None:
    """The re-gluing rows for typical labels whose restriction meets atypicals,
    probed family by family: the oracle for the per-context index."""
    ap = abs(m - n + 1)
    rows = _Rows(m, n - 1)
    bip = atypical_bipartition

    # ((a',1^(s-1)), (s))
    if ap >= 1:
        for s in range(1, n):
            if lam == (_hookp(ap, s - 1), _row(s)):
                rows.row("X.d", ("K", bip(atyp("delta", False, ap, s)), 1),
                         ("D", _pair(_hookp(ap + 1, s - 1), _row(s)), 1))
    # ((a',s), (1^(s+1)))
    if ap >= 1:
        for s in range(1, min(ap - 1, n - 2) + 1):
            if lam == (_two_row(ap, s), _col(s + 1)):
                rows.row("X.d1", ("K", bip(atyp("delta1", False, ap, s + 1)), 1),
                         ("D", _pair(_two_row(ap + 1, s), _col(s + 1)), 1))
    # ((s,a'+1), (1^(s+2)))
    for s in range(ap + 2, n - 2):
        if lam == (_two_row(s, ap + 1), _col(s + 2)):
            rows.row("X.d2", ("K", bip(atyp("delta2", False, ap, s)), 1),
                     ("D", _pair(_two_row(s, ap + 2), _col(s + 2)), 1))
    # ((a'+1,a'+1), (1^(a'+3)))
    if ap <= n - 4 and lam == (_two_row(ap + 1, ap + 1), _col(ap + 3)):
        rows.row("X.d2c", ("K", bip(atyp("delta2", False, ap, ap + 1)), 1))
    # ((s), (a',1^(s+1)))
    if ap >= 2:
        for s in range(0, m):
            if lam == (_row(s), _hookp(ap, s + 1)):
                rows.row("X.bd", ("K", bip(atyp("delta", True, ap, s + 1)), 1),
                         ("D", _pair(_row(s), _hookp(ap - 1, s + 1)), 1))
    # ((s), (1^(s+2)))
    for s in range(1, m):
        if lam == (_row(s), _col(s + 2)):
            rows.row("X.bd.wall", ("K", bip(atyp("delta", True, 1, s + 1)), 1),
                     ("D", _pair(_two_row(s, 1), _col(s + 2)), 1))
    # ((1^(s-1)), (a',s))
    for s in range(2, min(ap - 1, m) + 1):
        if lam == (_col(s - 1), _two_row(ap, s)):
            rows.row("X.bd1", ("K", bip(atyp("delta1", True, ap, s)), 1),
                     ("D", _pair(_col(s - 1), _two_row(ap - 1, s)), 1))
    # ((1^(a'-1)), (a',a'))
    if 1 <= ap <= m and lam == (_col(ap - 1), _two_row(ap, ap)):
        rows.row("X.bd1c", ("K", bip(atyp("delta1", True, ap, ap)), 1))
    # ((1^s), (s,a'+1))
    for s in range(ap + 1, m):
        if lam == (_col(s), _two_row(s, ap + 1)):
            rows.row("X.bd2", ("K", bip(atyp("delta2", True, ap, s - 1)), 1),
                     ("D", _pair(_col(s), _two_row(s, ap)), 1))
    if not rows.hits:
        return None
    return rows.unique(f"exceptional D({lam}) at ({m},{n})")


def _outcome(fn, lam, m, n):
    try:
        out = fn(lam, m, n)
    except AssertionError as exc:
        return ("AssertionError", str(exc))
    return None if out is None else dict(out)


def _typical_cross_labels(max_mn):
    for total in range(1, max_mn + 1):
        for m in range(0, total):
            n = total - m
            for lam in cross_set(m, n):
                if classify_atypical(lam, m, n) is None:
                    yield lam, m, n


def test_exceptional_index_matches_linear_probe():
    hits = 0
    for lam, m, n in _typical_cross_labels(16):
        want = _outcome(_linear_exceptional_d, lam, m, n)
        assert _outcome(_match_exceptional_d, lam, m, n) == want, (m, n, lam)
        hits += want is not None
    assert hits > 0


def test_exceptional_index_keeps_both_row_checks(monkeypatch):
    # a lookup validates the rows of its label and insists on one match
    lam = ((1,), (2,))
    two = [("X.a", (("D", ((1,), ()), 1),)), ("X.b", (("D", ((1,), ()), 1),))]
    monkeypatch.setattr(xc, "_exceptional_rows", lambda m, n: {lam: two})
    with pytest.raises(AssertionError, match="2 displays matched"):
        _match_exceptional_d(lam, 2, 3)
    bad = [("X.a", (("K", None, 1),))]
    monkeypatch.setattr(xc, "_exceptional_rows", lambda m, n: {lam: bad})
    with pytest.raises(AssertionError, match="projective output invalid"):
        _match_exceptional_d(lam, 2, 3)


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
