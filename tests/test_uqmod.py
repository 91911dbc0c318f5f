import copy
import itertools
import pickle
import random

import pytest

from mixedchain.fusion import GrothVector
from mixedchain.qarith import MINUS_ONE, ONE, Q, QINV
from mixedchain.uqmod import (
    THREE,
    THREE_BAR,
    BarLabel,
    GL2Label,
    R,
    RLabel,
    Z,
    ZLabel,
    bar,
    bar_cover,
    bar_subquotients,
    bar_to_plain,
    build_projective,
    build_rep,
    build_simple,
    check_relations,
    dim_bar,
    dim_label,
    dim_r,
    dim_z,
    dual,
    gbar,
    gl2_decomposition,
    plain_to_bar,
    proj_subquotients,
    relation_residuals,
    weight_multiset,
    weight_multiset_tensor,
)

SIGNS = (1, -1)


def test_dimensions():
    assert dim_z(Z(1, -1, 1, 1)) == 3
    assert dim_z(Z(1, 1, 2, 0)) == 3
    assert dim_r(R(1, 1, 1, 0)) == 8
    assert dim_r(R(1, 1, 2, 0)) == 12
    assert dim_r(R(1, -1, 1, 1)) == 12
    assert dim_bar(bar("R", 0, 0, 0)) == 8
    assert dim_bar(bar("R", 1, 3, 0)) == 8 * 3 + 4


def test_spin_bound_guard():
    from mixedchain.uqmod import MAX_SPIN, UnsupportedLabel

    with pytest.raises(UnsupportedLabel):
        build_simple(Z(1, 1, MAX_SPIN + 1, 0))
    with pytest.raises(UnsupportedLabel):
        build_projective(R(1, 1, MAX_SPIN + 1, 0))


def test_one_dimensional_convention():
    assert Z(1, 1, 0, 0) == Z(1, -1, 1, 0)
    assert dim_z(Z(1, 1, 0, 0)) == 1
    with pytest.raises(ValueError):
        Z(1, 1, 0, 3)


def test_gl2_decomposition_families():
    a, b, s = 1, -1, 3
    assert gl2_decomposition(Z(a, b, s, 0)) == [GL2Label(a, b, s, 0),
                                                GL2Label(a, b, s - 1, -1)]
    assert gl2_decomposition(Z(a, b, s, s)) == [GL2Label(a, b, s, s),
                                                GL2Label(a, -b, s + 1, s)]
    assert gl2_decomposition(Z(a, b, s, 2)) == [
        GL2Label(a, b, s, 2), GL2Label(a, -b, s + 1, 2),
        GL2Label(a, -b, s - 1, 1), GL2Label(a, b, s, 1)]


def test_gl2_dimension_consistency():
    for s in range(1, 51):
        for r in (0, s, 2 * s + 1, -4):
            z = Z(1, 1, s, r)
            assert sum(g.s for g in gl2_decomposition(z)) == dim_z(z)
    for s in range(1, 51):
        for r in (0, s):
            rl = R(1, -1, s, r)
            assert sum(g.s for g in gl2_decomposition(rl)) == dim_r(rl)


def test_fundamental_fermion_entries():
    # B phi_0 = beta_0 and C beta_m = -phi_m on the fundamental module
    rep = build_simple(THREE)
    assert rep.mats["B"].get(1, 0) == ONE
    assert rep.mats["C"].get(0, 1) == MINUS_ONE
    assert rep.mats["C"].get(0, 2) is None
    # B phi_1 = -beta_0, B phi_0 = 0, C beta_0 = phi_1 on the dual
    repb = build_simple(THREE_BAR)
    assert repb.mats["B"].get(2, 1) == MINUS_ONE
    assert repb.mats["B"].get(2, 0) is None
    assert repb.mats["C"].get(1, 2) == ONE


@pytest.mark.parametrize("alpha,beta", list(itertools.product(SIGNS, SIGNS)))
def test_simple_relations_sweep(alpha, beta):
    for s in range(1, 6):
        for r in range(-3, s + 4):
            rep = build_simple(Z(alpha, beta, s, r))
            assert check_relations(rep) == [], (alpha, beta, s, r)


@pytest.mark.parametrize("alpha,beta", list(itertools.product(SIGNS, SIGNS)))
def test_projective_relations_sweep(alpha, beta):
    for s in range(1, 5):
        for r in (0, s):
            rl = R(alpha, beta, s, r)
            rep = build_projective(rl)
            assert rep.dim == dim_r(rl)
            assert check_relations(rep) == [], (alpha, beta, s, r)


def test_projective_dimension_examples():
    assert build_projective(R(1, 1, 2, 0)).dim == 12
    subs = proj_subquotients(R(1, 1, 1, 0))
    assert subs == [Z(1, 1, 1, 0), Z(1, -1, 2, 0), Z(1, 1, 1, 1), Z(1, 1, 1, 0)]


def test_specific_relation_residuals_zero():
    rep = build_simple(Z(1, -1, 3, 2))
    for name, res in relation_residuals(rep).items():
        assert res.is_zero(), name
    rep = build_projective(R(1, -1, 1, 1))
    for name, res in relation_residuals(rep).items():
        assert res.is_zero(), name


def test_structural_invariants_on_built_reps():
    for label in (Z(1, 1, 2, 5), R(1, -1, 3, 3), R(-1, 1, 2, 0)):
        rep = build_simple(label) if isinstance(label, type(THREE)) \
            else build_projective(label)
        B, C = rep.mats["B"], rep.mats["C"]
        K, k = rep.mats["K"], rep.mats["k"]
        Kinv = rep.mats["Kinv"]
        assert (B * B).is_zero()
        assert (C * C).is_zero()
        assert K * k == k * K
        assert K * B * Kinv == B.scale(Q)


def test_weight_multiset_basics():
    rep = build_simple(THREE)
    w = weight_multiset(rep)
    assert sum(w.values()) == 3
    assert w[(ONE, -QINV)] == 1
    assert w[(Q, QINV)] == 1
    assert w[(QINV, ONE)] == 1


def test_weight_multiset_tensor_is_product():
    a = build_simple(Z(1, 1, 2, 1))
    b = build_simple(THREE_BAR)
    w = weight_multiset_tensor(a, b)
    assert sum(w.values()) == a.dim * b.dim


def test_bar_translation_round_trip():
    for p in (0, 1):
        for t in range(0, 31):
            for r in range(0, 31):
                z = bar("Z", p, t, r)
                plain = bar_to_plain(z)
                assert plain_to_bar(plain) == z
                assert dim_bar(z) == dim_label(plain)
                if t == 0 or r == 0:
                    cov = bar_cover(z)
                    assert dim_bar(cov) == dim_label(bar_to_plain(cov))
                    subs = bar_subquotients(cov)
                    assert sum(dim_bar(x) for x in subs) == dim_bar(cov)


def test_bar_dimension_formulas():
    for r in range(1, 31):
        assert dim_bar(bar("R", 0, r, 0)) == 8 * r + 4
        assert dim_bar(bar("R", 1, 0, r)) == 8 * r + 4
    assert dim_bar(bar("R", 1, 0, 0)) == 8


def test_bar_subquotients_match_plain_projectives():
    for p in (0, 1):
        for t, r in [(0, 0), (2, 0), (0, 3), (5, 0)]:
            cov = bar_cover(bar("Z", p, t, r))
            bar_subs = [bar_to_plain(x) for x in bar_subquotients(cov)]
            assert bar_subs == proj_subquotients(bar_to_plain(cov))


def _bar_subquotients_table(b):
    """[top, left, right, bottom] transcribed in bar coordinates: the oracle
    for the derivation from the plain covers, whose order fixes the vertex
    order of the bimodule graph."""
    if b.kind != "R":
        return [b]
    p, t, r = b.p, b.t, b.r
    top = bar("Z", p, t, r)
    if t == 0 and r == 0:
        mids = [bar("Z", p + 1, 1, 0), bar("Z", p - 1, 0, 1)]
    elif r == 0:
        mids = [bar("Z", p + 1, t + 1, 0), bar("Z", p - 1, t - 1, 0)]
    else:
        mids = [bar("Z", p + 1, 0, r + 1), bar("Z", p - 1, 0, r - 1)]
    return [top, mids[0], mids[1], top]


def _bar_labels(bound=30):
    """Every bar simple with t, r <= bound and its cover on the atypical locus."""
    out = []
    for p in (0, 1):
        for t in range(bound + 1):
            for r in range(bound + 1):
                out.append(bar("Z", p, t, r))
                if t == 0 or r == 0:
                    out.append(bar("R", p, t, r))
    return out


def test_bar_subquotients_match_transcription():
    for b in _bar_labels():
        assert bar_subquotients(b) == _bar_subquotients_table(b), b


def _small_labels():
    """Acceptance criterion 3's simples (s <= 5, r in [-3, s+3]) and the
    covers with s <= 5, all signs."""
    out = []
    for a, b in itertools.product(SIGNS, SIGNS):
        for s in range(1, 6):
            out += [Z(a, b, s, r) for r in range(-3, s + 4)]
            out += [R(a, b, s, r) for r in (0, s)]
    return out


def test_dual_inverts_weights():
    labels = _small_labels()
    assert len(labels) == 240
    for x in labels:
        inverted = {(K.invert(), k.invert()): c
                    for (K, k), c in weight_multiset(build_rep(x)).items()}
        assert weight_multiset(build_rep(dual(x))) == inverted, x


def test_dual_is_an_involution():
    for a, b in itertools.product(SIGNS, SIGNS):
        for s in range(1, 61):
            for x in [Z(a, b, s, r) for r in range(-8, s + 9)] + [R(a, b, s, 0), R(a, b, s, s)]:
                assert dual(dual(x)) == x, x
    assert dual(Z(1, -1, 1, 0)) == Z(1, -1, 1, 0)  # the trivial module
    assert dual(THREE) == THREE_BAR


def test_bar_mirror_is_dual():
    for b in _bar_labels():
        assert bar_to_plain(gbar(b)) == dual(bar_to_plain(b)), b


def test_hopf_axioms_on_fundamental():
    # mult(S (x) id)Delta(x) = counit(x) = mult(id (x) S)Delta(x), as matrices,
    # for the coproducts E (x) K + 1 (x) E, F (x) 1 + K^-1 (x) F,
    # B (x) 1 + k^-1 (x) B and C (x) k + 1 (x) C, with antipode values
    # S(E) = -E K^-1, S(F) = -K F, S(B) = -k B, S(C) = -C k^-1.
    for fund in (THREE, THREE_BAR):
        rep = build_simple(fund)
        E, F = rep.mats["E"], rep.mats["F"]
        K, Kinv = rep.mats["K"], rep.mats["Kinv"]
        k, kinv = rep.mats["k"], rep.mats["kinv"]
        B, C = rep.mats["B"], rep.mats["C"]
        sE, sF, sB, sC = -(E * Kinv), -(K * F), -(k * B), -(C * kinv)
        assert (sE * K + E).is_zero()
        assert (E * Kinv + sE).is_zero()
        assert (sF + K * F).is_zero()
        assert (F + Kinv * sF).is_zero()
        assert (sB + k * B).is_zero()
        assert (B + kinv * sB).is_zero()
        assert (sC * k + C).is_zero()
        assert (C * kinv + sC).is_zero()


def test_canonical_memo_is_bounded_and_hit():
    # the relation checks of criterion 3's labels (s <= 3) reduce the same
    # few quotients over and over: the memo must stay bounded and keep hitting
    from mixedchain import qarith

    qarith._canonical.cache_clear()
    for alpha, beta in itertools.product(SIGNS, SIGNS):
        for s in range(1, 4):
            for r in range(-3, s + 4):
                assert check_relations(build_simple(Z(alpha, beta, s, r))) == []
            for r in (0, s):
                assert check_relations(build_projective(R(alpha, beta, s, r))) == []
    info = qarith._canonical.cache_info()
    assert info.maxsize is not None and info.maxsize <= 4096, info
    assert info.hits > info.misses, info


# ---------------------------------------------------------------------------
# the label representation
# ---------------------------------------------------------------------------

def _sample_labels():
    """Valid labels of every class, in a scrambled order."""
    out = [Z(a, b, s, r) for a, b in itertools.product(SIGNS, SIGNS)
           for s in range(1, 5) for r in range(-2, s + 3)]
    out += [R(a, b, s, r) for a, b in itertools.product(SIGNS, SIGNS)
            for s in range(1, 5) for r in (0, s)]
    out += [bar(kind, p, t, r) for kind in ("Z", "R") for p in (0, 1)
            for t in range(-2, 4) for r in range(-2, 4) if kind == "Z" or t * r == 0]
    out += [g for x in out[:40] for g in gl2_decomposition(x)]
    random.Random(2017).shuffle(out)
    return out


def test_labels_of_different_classes_never_merge():
    z, rl = Z(1, 1, 2, 0), R(1, 1, 2, 0)
    assert (z.alpha, z.beta, z.s, z.r) == (rl.alpha, rl.beta, rl.s, rl.r)
    assert z != rl and rl != z and hash(z) != hash(rl)
    v = GrothVector()
    v.add(z, 2)
    v.add(rl, 3)
    assert dict(v) == {z: 2, rl: 3}
    # a barred label and a gl(2) label with the fields of a plain one
    barred, block = BarLabel(1, 1, 2, 0), GL2Label(1, 1, 2, 0)
    assert len({z, rl, barred, block}) == 4
    v.add(barred, 5)
    assert v[z] == 2 and v[barred] == 5 and len(v) == 3
    assert ZLabel(1, 1, 2, 0) == z and RLabel(1, 1, 2, 0) == rl


def test_label_reprs_are_pinned():
    assert repr(Z(1, -1, 3, 2)) == "Z[1,-1;3,2]"
    assert repr(R(-1, 1, 2, 0)) == "R[-1,1;2,0]"
    assert repr(bar("R", 3, 0, 4)) == "Rbar[1;0,4]"
    assert repr(bar("Z", 2, 5, -1)) == "Zbar[0;5,-1]"
    assert repr(GL2Label(1, -1, 2, -1)) == "X[1,-1;2,-1]"
    assert str(Z(1, 1, 0, 0)) == f"{Z(1, -1, 1, 0)}" == "Z[1,-1;1,0]"


def test_label_order_within_a_class_is_field_order():
    labels = _sample_labels()
    for cls in (ZLabel, RLabel, BarLabel, GL2Label):
        mine = [x for x in labels if type(x) is cls]
        assert len(mine) > 10, cls
        fields = [tuple(getattr(x, f) for f in cls._fields) for x in mine]
        assert [tuple(getattr(x, f) for f in cls._fields) for x in sorted(mine)] == sorted(fields)
        for x, y in itertools.product(mine[:30], repeat=2):
            fx = tuple(getattr(x, f) for f in cls._fields)
            fy = tuple(getattr(y, f) for f in cls._fields)
            assert (x < y, x <= y, x == y) == (fx < fy, fx <= fy, fx == fy)


def test_labels_survive_pickle_and_copy():
    for x in _sample_labels()[:60]:
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            y = pickle.loads(pickle.dumps(x, protocol=proto))
            assert type(y) is type(x) and y == x and hash(y) == hash(x), (x, proto)
        for y in (copy.copy(x), copy.deepcopy(x)):
            assert type(y) is type(x) and y == x and repr(y) == repr(x)


def test_labels_are_immutable():
    for x in (Z(1, 1, 3, 1), R(1, -1, 2, 2), bar("Z", 0, 1, 1), GL2Label(1, 1, 2, 0)):
        field = type(x)._fields[-1]
        with pytest.raises(AttributeError):
            setattr(x, field, 7)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert not hasattr(x, "__dict__")


def test_builders_are_bounded_memos():
    # a module sweep builds every simple of spin <= 5 and every cover of
    # spin <= 4; a cover reads its four simple subquotients off the memo
    build_simple.cache_clear()
    build_projective.cache_clear()
    simples = [Z(a, b, s, r) for a, b in itertools.product(SIGNS, SIGNS)
               for s in range(1, 6) for r in range(-3, s + 4)]
    covers = [R(a, b, s, r) for a, b in itertools.product(SIGNS, SIGNS)
              for s in range(1, 5) for r in (0, s)]
    for x in covers + simples:
        build_rep(x)
    reached = set(simples) | {z for x in covers for z in proj_subquotients(x)}
    for memo, built in ((build_simple, reached), (build_projective, covers)):
        info = memo.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, info
        assert info.misses == len(built), (memo.__name__, info)
