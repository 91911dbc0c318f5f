import re
from fractions import Fraction
from itertools import product

import pytest

import mixedchain.chainrep as chainrep
import mixedchain.qarith as qarith
from mixedchain.chainrep import (
    ChainContext,
    IndexOutOfRange,
    QwbParams,
    SingularParams,
    _as_backend,
    _factor_key,
    _operator_window,
    chain_params,
    check_centralizer,
    check_qwb_relations,
    fundamental_ops,
    qwb_relation_residuals,
)
from mixedchain.qarith import (
    MINUS_ONE,
    ONE,
    Q,
    EvalPoint,
    LaurentPoly,
    PoleAtPoint,
    QScalar,
    eval_points,
    qpow,
)
from mixedchain.sparse import SparseMatrix, embed_factor


def idx(i, j):
    return 3 * (i - 1) + (j - 1)


def test_fundamental_entries_from_displays():
    g, e, h = fundamental_ops()
    assert g.get(idx(1, 1), idx(1, 1)) == qpow(-2)
    assert g.get(idx(2, 1), idx(1, 2)) == -qpow(-1)
    assert g.get(idx(2, 2), idx(2, 2)) == MINUS_ONE
    assert g.get(idx(3, 1), idx(3, 1)) == qpow(-2) - ONE
    assert h.get(idx(3, 3), idx(3, 3)) == MINUS_ONE
    assert h.get(idx(1, 2), idx(1, 2)) == qpow(-2) - ONE
    # e(f2 x v2) = -q (q^2 f1v1 + q f2v2 - f3v3)
    assert e.get(idx(1, 1), idx(2, 2)) == -Q * qpow(2)
    assert e.get(idx(2, 2), idx(2, 2)) == -(Q * Q)
    assert e.get(idx(3, 3), idx(2, 2)) == Q
    assert e.get(idx(1, 2), idx(1, 2)) is None


def test_quadratic_and_contraction_on_nine_dims():
    g, e, h = fundamental_ops()
    params = chain_params()
    ident = g.__class__.identity(9, ONE)
    for x in (g, h):
        quad = (x - ident.scale(params.gamma)) * (x - ident.scale(params.delta))
        assert quad.is_zero()
    # (theta + 1)/(gamma + delta) = -1
    coeff = (params.theta + ONE) / (params.gamma + params.delta)
    assert coeff == MINUS_ONE
    assert (e * e - e.scale(coeff)).is_zero()


def test_chain_operator_placement():
    ctx = ChainContext(2, 1)
    g1 = ctx.chain_operator("g", 1)
    assert (g1.nrows, g1.ncols) == (27, 27)
    with pytest.raises(IndexOutOfRange):
        ctx.chain_operator("g", 2)
    with pytest.raises(IndexOutOfRange):
        ctx.chain_operator("h", 1)
    ctx2 = ChainContext(1, 1)
    assert ctx2.chain_operator("e").nrows == 9


def test_braid_relation_on_three_zero():
    ctx = ChainContext(3, 0)
    res = dict((r.relation, r.ok) for r in check_qwb_relations(ctx))
    assert res["braid_g1"]
    assert all(res.values())


def test_contraction_sandwich_on_two_two():
    ctx = ChainContext(2, 2)
    res = {r.relation: r.ok for r in check_qwb_relations(ctx)}
    for name in ("ege", "ehe", "ee", "eghinv_left", "eghinv_right"):
        assert res[name], name
    assert all(res.values())


def test_qwb_relations_symbolic_small():
    for m, n in [(2, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
        ctx = ChainContext(m, n)
        assert all(r.ok for r in check_qwb_relations(ctx)), (m, n)


def test_qwb_relations_eval_points():
    points = eval_points(seed=20177)
    for m, n in [(2, 2), (3, 2)]:
        ctx = ChainContext(m, n)
        for p in points:
            assert all(r.ok for r in check_qwb_relations(ctx, point=p)), (m, n, p)


def test_wrong_params_detected():
    # the checker is not vacuous: off-spec parameters break the relations
    bad = QwbParams(MINUS_ONE, qpow(-3), qpow(-2, -1))
    res = {r.relation: r.ok for r in check_qwb_relations(ChainContext(2, 1), bad)}
    assert res["quad_g1"] is False
    assert res["ee"] is False


def test_singular_params_raise():
    bad = QwbParams(MINUS_ONE, ONE, MINUS_ONE)
    ctx = ChainContext(1, 1)
    with pytest.raises(SingularParams):
        list(qwb_relation_residuals(ctx, bad))


def test_centralizer_small():
    for m, n in [(2, 0), (1, 1), (0, 2), (2, 1), (1, 2)]:
        ctx = ChainContext(m, n)
        assert all(r.ok for r in check_centralizer(ctx)), (m, n)


def test_centralizer_names_cover_all_generators():
    ctx = ChainContext(1, 1)
    names = {r.relation for r in check_centralizer(ctx)}
    assert names == {f"[e,{g}]" for g in ("E", "F", "K", "k", "B", "C")}


def test_chain_weights_are_products():
    from mixedchain.labels import THREE, THREE_BAR
    from mixedchain.uqmod import build_simple, weight_multiset

    ctx = ChainContext(2, 1)
    Kd = ctx.quantum_group_action("K").diagonal()
    kd = ctx.quantum_group_action("k").diagonal()
    got = {}
    for a, b in zip(Kd, kd):
        got[(a, b)] = got.get((a, b), 0) + 1
    w3 = weight_multiset(build_simple(THREE))
    wb = weight_multiset(build_simple(THREE_BAR))
    expect = {}
    for (a1, b1), c1 in w3.items():
        for (a2, b2), c2 in w3.items():
            for (a3, b3), c3 in wb.items():
                key = (a1 * a2 * a3, b1 * b2 * b3)
                expect[key] = expect.get(key, 0) + c1 * c2 * c3
    assert got == expect


def _scalar(value, point):
    return value if point is None else value.eval_at(point)


# The full-chain residuals that the window check replaced, kept as its oracle.
def _full_chain_residuals(ctx: ChainContext, params: QwbParams, point=None):
    """Yield (name, residual) for every walled-Brauer relation on the chain."""
    m, n = ctx.m, ctx.n
    gam = _scalar(params.gamma, point)
    dlt = _scalar(params.delta, point)
    tht = _scalar(params.theta, point)
    gpd = gam + dlt
    if not gpd:
        raise SingularParams("gamma + delta = 0")
    one = Fraction(1) if point is not None else ONE
    ident = SparseMatrix.identity(ctx.dim, one)
    g = {j: _as_backend(ctx.chain_operator("g", j), point) for j in range(1, m)}
    h = {i: _as_backend(ctx.chain_operator("h", i), point) for i in range(1, n)}
    e = (_as_backend(ctx.chain_operator("e"), point)
         if (m >= 1 and n >= 1) else None)

    def quad(x):
        return (x - ident.scale(gam)) * (x - ident.scale(dlt))

    for j, gj in g.items():
        yield f"quad_g{j}", quad(gj)
    for i, hi in h.items():
        yield f"quad_h{i}", quad(hi)
    for j in g:
        for i in h:
            yield f"comm_g{j}_h{i}", g[j] * h[i] - h[i] * g[j]
    for j1 in g:
        for j2 in g:
            if j2 - j1 > 1:
                yield f"comm_g{j1}_g{j2}", g[j1] * g[j2] - g[j2] * g[j1]
    for i1 in h:
        for i2 in h:
            if i2 - i1 > 1:
                yield f"comm_h{i1}_h{i2}", h[i1] * h[i2] - h[i2] * h[i1]
    for j in range(1, m - 1):
        yield f"braid_g{j}", g[j] * g[j + 1] * g[j] - g[j + 1] * g[j] * g[j + 1]
    for i in range(1, n - 1):
        yield f"braid_h{i}", h[i] * h[i + 1] * h[i] - h[i + 1] * h[i] * h[i + 1]
    if e is not None:
        yield "ee", e * e - e.scale((tht + one) / gpd)
        if 1 in g:
            yield "ege", e * g[1] * e - e
        if 1 in h:
            yield "ehe", e * h[1] * e - e
        for j in g:
            if j >= 2:
                yield f"comm_e_g{j}", e * g[j] - g[j] * e
        for i in h:
            if i >= 2:
                yield f"comm_e_h{i}", e * h[i] - h[i] * e
        if 1 in g and 1 in h:
            # h1^-1 from the quadratic relation: h^-1 = (h - (gamma+delta)) / (-gamma delta)
            scale = -(gam * dlt)
            h1inv = (h[1] - ident.scale(gpd)).scale(one / scale if point is not None
                                                    else scale.invert())
            core = e * g[1] * h1inv * e
            dif = g[1] - h[1]
            yield "eghinv_right", core * dif
            yield "eghinv_left", dif * core


def _window_sites(name: str, m: int) -> list[int]:
    """The sorted chain sites touched by the operators a relation name involves:
    g_j on (m-j-1, m-j), h_i on (m+i-1, m+i), e on (m-1, m)."""
    ops = [(kind, int(index)) for kind, index in re.findall(r"([gh])(\d+)", name)]
    if name.startswith("braid_"):
        ops.append((ops[0][0], ops[0][1] + 1))
    if name in ("ege", "eghinv_left", "eghinv_right"):
        ops.append(("g", 1))
    if name in ("ehe", "eghinv_left", "eghinv_right"):
        ops.append(("h", 1))
    first = [m - index - 1 if kind == "g" else m + index - 1 for kind, index in ops]
    if name.startswith("e") or "_e_" in name:
        first.append(m - 1)
    return sorted({s + d for s in first for d in (0, 1)})


def _on_chain(res: SparseMatrix, sites: list[int], nsites: int) -> SparseMatrix:
    """The window residual placed on its chain sites, the identity elsewhere
    (site 0 is the most significant base-3 digit of a chain index)."""
    weight = [3 ** (nsites - 1 - s) for s in range(nsites)]
    spread = [sum(d * weight[s] for s, d in zip(sites, digits))
              for digits in product(range(3), repeat=len(sites))]
    rest = [s for s in range(nsites) if s not in sites]
    out = SparseMatrix(3 ** nsites, 3 ** nsites)
    for digits in product(range(3), repeat=len(rest)):
        base = sum(d * weight[s] for s, d in zip(rest, digits))
        for r, c, v in res.entries():
            out.set(base + spread[r], base + spread[c], v)
    return out


@pytest.mark.parametrize("params", [chain_params(), QwbParams(MINUS_ONE, qpow(-3), qpow(-2, -1))],
                         ids=["chain", "off-spec"])
def test_window_residuals_match_full_chain(params):
    point = eval_points(seed=20177)[0]
    nonzero = 0
    for total in range(2, 6):
        for m in range(total + 1):
            ctx = ChainContext(m, total - m)
            for pt in (None, point):
                local = list(qwb_relation_residuals(ctx, params, pt))
                full = list(_full_chain_residuals(ctx, params, pt))
                assert [name for name, _ in local] == [name for name, _ in full], (m, pt)
                for (name, res), (_, expect) in zip(local, full):
                    placed = _on_chain(res, _window_sites(name, m), ctx.nsites)
                    assert placed == expect, (m, total - m, pt, name)
                    nonzero += not expect.is_zero()
    assert (nonzero > 0) == (params != chain_params())


def test_relations_never_build_a_chain_operator(monkeypatch):
    def refuse(self, which, index=0):
        raise AssertionError(f"built the chain operator {which}{index}")

    chainrep._RELATION_RESIDUALS.clear()  # compute every class here
    monkeypatch.setattr(ChainContext, "chain_operator", refuse)
    results = check_qwb_relations(ChainContext(5, 5))
    assert results and all(r.ok for r in results)


def test_qwb_relations_symbolic_sweep_to_eight():
    for total in range(2, 9):
        for m in range(total + 1):
            results = check_qwb_relations(ChainContext(m, total - m))
            assert results and all(r.ok for r in results), (m, total - m)


# The full-chain centralizer residuals that the window check replaced, kept as its oracle.
def _full_chain_centralizer_residuals(ctx: ChainContext, point=None):
    """Commutators of every chain operator with every coproduct generator."""
    gens = {gname: _as_backend(ctx.quantum_group_action(gname), point)
            for gname in ("E", "F", "K", "k", "B", "C")}
    for opname, op in ctx.operators():
        opb = _as_backend(op, point)
        for gname, gmat in gens.items():
            yield f"[{opname},{gname}]", opb * gmat - gmat * opb


def _verdicts(residuals):
    return [(name, res.is_zero()) for name, res in residuals]


def _swapped_ops():
    """Wrong local operators: h as g, g as e and e as h."""
    g9, e9, h9 = fundamental_ops()
    return h9, g9, e9


def _two_site_coproducts():
    """The two-site coproducts of E, B and F as g, e and h.  Each commutes with
    its own generator on its window but not with that generator's group-like
    twist, so only a neighbouring site can see that check fail."""
    return tuple(ChainContext(*shape).quantum_group_action(gen)
                 for shape, gen in (((2, 0), "E"), ((1, 1), "B"), ((0, 2), "F")))


@pytest.mark.parametrize("plant", [None, _swapped_ops, _two_site_coproducts],
                         ids=["chain", "swapped", "coproducts"])
def test_centralizer_window_matches_full_chain(monkeypatch, plant):
    if plant is not None:
        ops = plant()
        monkeypatch.setattr(chainrep, "fundamental_ops", lambda: ops)
    point = eval_points(seed=20177)[0]
    failing = 0
    for total in range(2, 6):
        for m in range(total + 1):
            ctx = ChainContext(m, total - m)
            for pt in (None, point):
                local = _verdicts(chainrep.centralizer_residuals(ctx, pt))
                full = _verdicts(_full_chain_centralizer_residuals(ctx, pt))
                assert local == full, (m, total - m, pt)
                failing += sum(not ok for _, ok in full)
    assert (failing > 0) == (plant is not None)


def test_centralizer_builds_no_full_chain_coproduct(monkeypatch):
    coproduct = ChainContext.quantum_group_action
    product = SparseMatrix.__mul__
    embed = chainrep.embed_factor

    def small_embedding(op, left_dim, right_dim):
        if left_dim * op.nrows * right_dim > 81:
            raise AssertionError(f"embedded {op} in {left_dim * op.nrows * right_dim} rows")
        return embed(op, left_dim, right_dim)

    def small_coproduct(self, gen):
        if self.nsites > 4:
            raise AssertionError(f"built the coproduct of {gen} on {self.nsites} sites")
        return coproduct(self, gen)

    def small_product(left, right):
        if max(left.nrows, left.ncols, right.ncols) > 81:
            raise AssertionError(f"multiplied {left} by {right}")
        return product(left, right)

    chainrep._CENTRALIZER_RESIDUALS.clear()  # compute every class here
    monkeypatch.setattr(ChainContext, "quantum_group_action", small_coproduct)
    monkeypatch.setattr(SparseMatrix, "__mul__", small_product)
    monkeypatch.setattr(chainrep, "embed_factor", small_embedding)
    results = check_centralizer(ChainContext(5, 5))
    assert results and all(r.ok for r in results)


@pytest.mark.parametrize("gen", ["E", "F", "B", "C"])
def test_centralizer_catches_a_non_local_operator(gen):
    # a coproduct generator in place of the chain operators acts on every site
    point = eval_points(seed=20177)[0]
    for m, n in ((2, 1), (1, 2)):
        for pt in (None, point):
            ctx = ChainContext(m, n)
            ctx.operators = lambda ctx=ctx: [(gen, ctx.quantum_group_action(gen))]
            failures = [r.relation for r in check_centralizer(ctx, pt) if not r.ok]
            expect = [name for name, ok in _verdicts(_full_chain_centralizer_residuals(ctx, pt))
                      if not ok]
            assert failures and failures == expect, (m, n, pt)


def test_centralizer_symbolic_sweep_to_seven():
    for total in range(2, 8):
        for m in range(total + 1):
            results = check_centralizer(ChainContext(m, total - m))
            assert results and all(r.ok for r in results), (m, total - m)


def test_chain_operators_carry_their_window():
    g9, e9, h9 = fundamental_ops()
    for total in range(1, 6):
        for m in range(total + 1):
            n = total - m
            ctx = ChainContext(m, n)
            placements = ([(("g", j), g9, m - j - 1) for j in range(1, m)]
                          + [(("h", i), h9, m + i - 1) for i in range(1, n)]
                          + ([(("e", 0), e9, m - 1)] if m and n else []))
            for (kind, index), x, left in placements:
                op = ctx.chain_operator(kind, index)
                plain = SparseMatrix(op.nrows, op.ncols)
                plain.rows = {r: dict(row) for r, row in op.rows.items()}
                assert plain == embed_factor(x, 3 ** left, 3 ** (total - left - 2)), (m, n, kind)
                assert _operator_window(op, total) == (left, 2, x), (m, n, kind)


def test_residual_memos_are_bounded_lrus():
    for memo in (chainrep._RELATION_RESIDUALS, chainrep._CENTRALIZER_RESIDUALS):
        assert 0 < memo.maxsize <= 1024
    memo = chainrep._ResidualMemo(maxsize=2)
    for key in ("a", "b", "a", "c"):
        memo.get(key, lambda key=key: key.upper())
    assert len(memo) == 2 and memo.misses == 3
    assert memo.get("a", lambda: "recomputed") == "A"  # "b" was the least recent
    assert memo.get("b", lambda: "recomputed") == "recomputed"


@pytest.mark.parametrize("memo, checker, classes", [
    (chainrep._RELATION_RESIDUALS, check_qwb_relations, 14),
    (chainrep._CENTRALIZER_RESIDUALS, check_centralizer, 16 * 6),
], ids=["relations", "centralizer"])
def test_each_window_class_is_computed_once(monkeypatch, memo, checker, classes):
    def sweep(bound, points):
        for total in range(2, bound + 1):
            for m in range(total + 1):
                for pt in points:
                    results = checker(ChainContext(m, total - m), point=pt)
                    assert results and all(r.ok for r in results), (m, total - m, pt)

    def refuse(mat, point):
        raise AssertionError(f"evaluated {mat} at {point}")

    # a valid sweep has only zero residuals, which are never evaluated
    monkeypatch.setattr(chainrep, "_as_backend", refuse)
    # every class is present by m+n = 4; larger chains and the eval points only repeat them
    memo.clear()
    sweep(10, eval_points(seed=20177))
    assert memo.misses == len(memo) == classes
    memo.clear()
    for bound in (4, 10):
        sweep(bound, [None])
        assert memo.misses == len(memo) == classes, bound
    sweep(10, eval_points(seed=1))
    assert memo.misses == len(memo) == classes


def test_memo_hits_on_the_chain_factors_compare_no_scalar(monkeypatch):
    # the fundamental factors and the chain params are built once per process,
    # with the factor keys, so a hit compares its key by identity; a Laurent
    # polynomial keeps its hash, so hashing a key again builds no frozenset
    ops = fundamental_ops()
    assert all(a is b for a, b in zip(fundamental_ops(), ops))
    assert chain_params() is chain_params()
    for x in ops:
        assert _factor_key(x) is _factor_key(x)
        # a copy, like a planted factor, is keyed by its content anew
        copy = SparseMatrix(x.nrows, x.ncols, {(r, c): v for r, c, v in x.entries()})
        assert _factor_key(copy) == _factor_key(x) and _factor_key(copy) is not _factor_key(x)
    point = eval_points(seed=20177)[0]
    contexts = [ChainContext(m, total - m) for total in range(2, 7) for m in range(total + 1)]

    def sweep():
        for ctx in contexts:
            for pt in (None, point):
                assert all(r.ok for r in check_qwb_relations(ctx, point=pt))
                assert all(r.ok for r in check_centralizer(ctx, pt))

    sweep()  # every class is computed here, or was before
    compared = []
    eq = QScalar.__eq__

    def counted(self, other):
        compared.append(1)
        return eq(self, other)

    built = []

    def counted_frozenset(items):
        built.append(1)
        return frozenset(items)

    monkeypatch.setattr(QScalar, "__eq__", counted)
    monkeypatch.setattr(qarith, "frozenset", counted_frozenset, raising=False)
    sweep()
    assert not compared
    assert not built
    hash(LaurentPoly({1: 2}))  # a fresh polynomial is hashed through the counter
    assert built == [1]


def _failures(results):
    return [r.relation for r in results if not r.ok]


def _oracle_failures(residuals):
    return [name for name, res in residuals if not res.is_zero()]


def test_planted_faults_never_hit_a_valid_class(monkeypatch):
    point = eval_points(seed=20177)[0]
    contexts = [(m, total - m) for total in range(2, 5) for m in range(total + 1)]

    def valid_sweep():
        for m, n in contexts:
            for pt in (None, point):
                assert not _failures(check_qwb_relations(ChainContext(m, n), point=pt))
                assert not _failures(check_centralizer(ChainContext(m, n), pt))

    def assert_oracle_failures(params=chain_params(), relations=True, centralizer=True):
        failing = 0
        for m, n in contexts:
            for pt in (None, point):
                ctx = ChainContext(m, n)
                if relations:
                    got = _failures(check_qwb_relations(ctx, params, pt))
                    assert got == _oracle_failures(_full_chain_residuals(ctx, params, pt))
                    failing += len(got)
                if centralizer:
                    got = _failures(check_centralizer(ctx, pt))
                    assert got == _oracle_failures(_full_chain_centralizer_residuals(ctx, pt))
                    failing += len(got)
        assert failing > 0

    valid_sweep()
    for plant in (_swapped_ops, _two_site_coproducts):
        ops = plant()
        with monkeypatch.context() as patched:
            patched.setattr(chainrep, "fundamental_ops", lambda: ops)
            assert_oracle_failures()
    assert_oracle_failures(QwbParams(MINUS_ONE, qpow(-3), qpow(-2, -1)), centralizer=False)
    for gen in ("E", "F", "B", "C"):
        for m, n in ((2, 1), (1, 2)):
            for pt in (None, point):
                ctx = ChainContext(m, n)
                ctx.operators = lambda ctx=ctx: [(gen, ctx.quantum_group_action(gen))]
                got = _failures(check_centralizer(ctx, pt))
                assert got and got == _oracle_failures(_full_chain_centralizer_residuals(ctx, pt))
    valid_sweep()


# The Fraction window computation that evaluating the exact residuals
# replaced: every factor, embedded operator and coproduct converted to the
# point before the products.  Kept as the eval backend's oracle, computed
# without the process-level memo.
def _fraction_window_residuals(ctx: ChainContext, params: QwbParams, point=None):
    """Yield (name, residual) for every walled-Brauer relation, each on its window."""
    m, n = ctx.m, ctx.n
    gam = _scalar(params.gamma, point)
    dlt = _scalar(params.delta, point)
    tht = _scalar(params.theta, point)
    gpd = gam + dlt
    if not gpd:
        raise SingularParams("gamma + delta = 0")
    one = Fraction(1) if point is not None else ONE
    x9 = dict(zip("geh", chainrep.fundamental_ops()))
    memo: dict = {}

    def first_site(kind, index):
        return {"g": m - index - 1, "h": m + index - 1, "e": m - 1}[kind]

    def window(w, placed):
        """The placed operators (kind, pos) embedded in a w-site window, and its identity."""
        mats = []
        for kind, pos in placed:
            key = (kind, pos, w)
            if key not in memo:
                memo[key] = embed_factor(_as_backend(x9[kind], point),
                                         3 ** pos, 3 ** (w - pos - 2))
            mats.append(memo[key])
        if w not in memo:
            memo[w] = SparseMatrix.identity(3 ** w, one)
        return mats, memo[w]

    def quad(x, ident):
        return (x - ident.scale(gam)) * (x - ident.scale(dlt))

    def comm(x, y, _):
        return x * y - y * x

    def braid(x, y, _):
        return x * y * x - y * x * y

    def ee(ew, _):
        return ew * ew - ew.scale((tht + one) / gpd)

    def sandwich(ew, x, _):
        return ew * x * ew - ew

    def core(ew, g1, h1, ident):
        # h1^-1 from the quadratic relation: h^-1 = (h - (gamma+delta)) / (-gamma delta)
        scale = -(gam * dlt)
        h1inv = (h1 - ident.scale(gpd)).scale(one / scale if point is not None
                                              else scale.invert())
        return ew * g1 * h1inv * ew

    def eghinv_right(ew, g1, h1, ident):
        return core(ew, g1, h1, ident) * (g1 - h1)

    def eghinv_left(ew, g1, h1, ident):
        return (g1 - h1) * core(ew, g1, h1, ident)

    def residual(form, *ops):
        sites = sorted({first_site(*op) + d for op in ops for d in (0, 1)})
        w = len(sites)
        placed = tuple((kind, sites.index(first_site(kind, index))) for kind, index in ops)

        mats, ident = window(w, placed)
        return form(*mats, ident)

    g, h, e = range(1, m), range(1, n), ("e", 0)
    for j in g:
        yield f"quad_g{j}", residual(quad, ("g", j))
    for i in h:
        yield f"quad_h{i}", residual(quad, ("h", i))
    for j in g:
        for i in h:
            yield f"comm_g{j}_h{i}", residual(comm, ("g", j), ("h", i))
    for j1 in g:
        for j2 in g:
            if j2 - j1 > 1:
                yield f"comm_g{j1}_g{j2}", residual(comm, ("g", j1), ("g", j2))
    for i1 in h:
        for i2 in h:
            if i2 - i1 > 1:
                yield f"comm_h{i1}_h{i2}", residual(comm, ("h", i1), ("h", i2))
    for j in range(1, m - 1):
        yield f"braid_g{j}", residual(braid, ("g", j), ("g", j + 1))
    for i in range(1, n - 1):
        yield f"braid_h{i}", residual(braid, ("h", i), ("h", i + 1))
    if m >= 1 and n >= 1:
        yield "ee", residual(ee, e)
        if m >= 2:
            yield "ege", residual(sandwich, e, ("g", 1))
        if n >= 2:
            yield "ehe", residual(sandwich, e, ("h", 1))
        for j in g:
            if j >= 2:
                yield f"comm_e_g{j}", residual(comm, e, ("g", j))
        for i in h:
            if i >= 2:
                yield f"comm_e_h{i}", residual(comm, e, ("h", i))
        if m >= 2 and n >= 2:
            ops = (e, ("g", 1), ("h", 1))
            yield "eghinv_right", residual(eghinv_right, *ops)
            yield "eghinv_left", residual(eghinv_left, *ops)


def _fraction_window_centralizer_residuals(ctx: ChainContext, point=None):
    """Commutators of every chain operator with every coproduct generator, on sub-chains."""
    m, n, nsites = ctx.m, ctx.n, ctx.nsites
    memo: dict = {("ctx", m, n): ctx}

    def cached(key, build):
        if key not in memo:
            memo[key] = build()
        return memo[key]

    for opname, op in ctx.operators():
        a, w, x = _operator_window(op, nsites)
        lo, hi = max(a - 1, 0), min(a + w + 1, nsites)
        shape = (max(0, min(hi, m) - lo), max(0, hi - max(lo, m)))
        key = (shape, a - lo, _factor_key(x), point)
        for gname in ("E", "F", "K", "k", "B", "C"):
            sub = cached(("ctx",) + shape, lambda: ChainContext(*shape))
            xs = cached(("op",) + key, lambda: embed_factor(
                _as_backend(x, point), 3 ** (a - lo), 3 ** (hi - a - w)))
            gmat = cached(("uq", shape, gname), lambda: _as_backend(
                sub.quantum_group_action(gname), point))
            yield f"[{opname},{gname}]", xs * gmat - gmat * xs


def _oracle_points():
    return eval_points(seed=20177) + eval_points(seed=1)


def _assert_match_oracle(residuals, oracle):
    got, expect = list(residuals), list(oracle)
    assert [name for name, _ in got] == [name for name, _ in expect]
    for (name, res), (_, ref) in zip(got, expect):
        assert res == ref, name
    return sum(not ref.is_zero() for _, ref in expect)


def _contexts(max_mn):
    return [(m, total - m) for total in range(2, max_mn + 1) for m in range(total + 1)]


@pytest.mark.parametrize("kind, max_mn", [("relations", 6), ("centralizer", 5)])
def test_eval_residuals_match_the_fraction_window_oracle(kind, max_mn):
    for m, n in _contexts(max_mn):
        ctx = ChainContext(m, n)
        for pt in _oracle_points():
            if kind == "relations":
                nonzero = _assert_match_oracle(
                    qwb_relation_residuals(ctx, chain_params(), pt),
                    _fraction_window_residuals(ctx, chain_params(), pt))
            else:
                nonzero = _assert_match_oracle(chainrep.centralizer_residuals(ctx, pt),
                                               _fraction_window_centralizer_residuals(ctx, pt))
            assert nonzero == 0, (m, n, pt)


@pytest.mark.parametrize("delta_exp", [-4, -3, -1, 1, 2])
def test_eval_wrong_delta_control_matches_the_fraction_window_oracle(delta_exp):
    params = QwbParams(MINUS_ONE, qpow(delta_exp), qpow(-2, -1))
    for m, n in _contexts(4):
        ctx = ChainContext(m, n)
        for pt in _oracle_points():
            nonzero = _assert_match_oracle(qwb_relation_residuals(ctx, params, pt),
                                           _fraction_window_residuals(ctx, params, pt))
            assert nonzero > 0 or (m < 2 and n < 2), (m, n, pt)


@pytest.mark.parametrize("gen", ["E", "F", "B", "C"])
def test_eval_coproduct_control_matches_the_fraction_window_oracle(gen):
    for m, n in ((2, 1), (1, 2)):
        ctx = ChainContext(m, n)
        ctx.operators = lambda ctx=ctx: [(gen, ctx.quantum_group_action(gen))]
        for pt in _oracle_points():
            nonzero = _assert_match_oracle(chainrep.centralizer_residuals(ctx, pt),
                                           _fraction_window_centralizer_residuals(ctx, pt))
            assert nonzero > 0, (m, n, pt)


def _pole_at_two():
    return QScalar(LaurentPoly({0: 1}), LaurentPoly({0: -2, 1: 1}))  # 1/(q - 2)


@pytest.mark.parametrize("params, error", [
    (QwbParams(_pole_at_two(), qpow(-2), qpow(-2, -1)), PoleAtPoint),
    (QwbParams(MINUS_ONE, _pole_at_two(), qpow(-2, -1)), PoleAtPoint),
    (QwbParams(MINUS_ONE, qpow(-2), _pole_at_two()), PoleAtPoint),
    (QwbParams(-Q, QScalar.const(2), _pole_at_two()), PoleAtPoint),  # theta is read first
    (QwbParams(-Q, QScalar.const(2), qpow(-2, -1)), SingularParams),
    (QwbParams(Q - QScalar.const(2), qpow(-2), qpow(-2, -1)), ZeroDivisionError),
], ids=["gamma-pole", "delta-pole", "theta-pole", "pole-before-singular", "singular",
        "gamma-delta-zero"])
def test_errors_at_a_point_match_the_fraction_window_oracle(params, error):
    point = EvalPoint(2)
    ctx = ChainContext(2, 2)
    yielded = {}
    for name, residuals in (("eval", qwb_relation_residuals(ctx, params, point)),
                            ("oracle", _fraction_window_residuals(ctx, params, point))):
        yielded[name] = []
        with pytest.raises(error):
            for relation, _ in residuals:
                yielded[name].append(relation)
    assert yielded["eval"] == yielded["oracle"]
    assert bool(yielded["eval"]) == (error is ZeroDivisionError)
    # away from the point the same params are regular
    assert list(qwb_relation_residuals(ctx, params, EvalPoint(5)))
