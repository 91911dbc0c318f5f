import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mixedchain.fusion import GrothVector
from mixedchain.qarith import MINUS_ONE, ONE, Q, QINV, QScalar, qint, qpow
from mixedchain.labels import (
    THREE,
    THREE_BAR,
    BarLabel,
    GL2Label,
    R,
    RLabel,
    Z,
    ZLabel,
    bar,
    bar_to_plain,
    dim_bar,
    dim_label,
    dim_r,
    dim_z,
    dual,
    gl2_decomposition,
    plain_to_bar,
    proj_subquotients,
    simple_subquotients,
)
from mixedchain.sparse import DiagonalMatrix, SparseMatrix
from mixedchain.uqmod import (
    CARTAN,
    ExplicitRep,
    build_projective,
    build_rep,
    build_simple,
    cartan_weights,
    check_relations,
    relation_residuals,
    weight_multiset,
)
from oracles import gbar, weight_multiset_tensor

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
                    # the cover has the coordinates of its atypical top
                    cov = bar("R", p, t, r)
                    assert bar_to_plain(cov) == R(plain.alpha, plain.beta, plain.s, plain.r)
                    assert dim_bar(cov) == dim_label(bar_to_plain(cov))
                    subs = _bar_subquotients(cov)
                    assert sum(dim_bar(x) for x in subs) == dim_bar(cov)


def test_bar_dimension_formulas():
    for r in range(1, 31):
        assert dim_bar(bar("R", 0, r, 0)) == 8 * r + 4
        assert dim_bar(bar("R", 1, 0, r)) == 8 * r + 4
    assert dim_bar(bar("R", 1, 0, 0)) == 8


def _bar_subquotients(b):
    """The composition factors of a barred label: the plain ones, read in
    bar coordinates."""
    return [plain_to_bar(x) for x in simple_subquotients(bar_to_plain(b))]


def test_bar_subquotients_match_plain_projectives():
    for p in (0, 1):
        for t, r in [(0, 0), (2, 0), (0, 3), (5, 0)]:
            cov = bar("R", p, t, r)
            bar_subs = [bar_to_plain(x) for x in _bar_subquotients(cov)]
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
        assert _bar_subquotients(b) == _bar_subquotients_table(b), b


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
# the entrywise relation checker against the product form
# ---------------------------------------------------------------------------

# the product-form checker that the entrywise one replaced, kept verbatim
def _product_residuals(rep: ExplicitRep) -> dict[str, SparseMatrix]:
    """Residual matrices of all defining relations; all must be zero."""
    E, F = rep.mats["E"], rep.mats["F"]
    K, Kinv = rep.mats["K"], rep.mats["Kinv"]
    k, kinv = rep.mats["k"], rep.mats["kinv"]
    B, C = rep.mats["B"], rep.mats["C"]
    ident = SparseMatrix.identity(rep.dim, ONE)
    inv_qmq = (Q - QINV).invert()
    two = qint(2)
    return {
        "K_Kinv": K * Kinv - ident,
        "k_kinv": k * kinv - ident,
        "KF": K * F - (F * K).scale(qpow(-2)),
        "KE": K * E - (E * K).scale(qpow(2)),
        "EF": E * F - F * E - (K - Kinv).scale(inv_qmq),
        "kF": k * F - (F * k).scale(Q),
        "kE": k * E - (E * k).scale(QINV),
        "kK": k * K - K * k,
        "kB": k * B + B * k,
        "KB": K * B - (B * K).scale(Q),
        "kC": k * C + C * k,
        "KC": K * C - (C * K).scale(QINV),
        "BB": B * B,
        "CC": C * C,
        "BC": B * C - C * B - (k - kinv).scale(inv_qmq),
        "FC": F * C - C * F,
        "BE": B * E - E * B,
        "serreF": F * F * B - (F * B * F).scale(two) + B * F * F,
        "serreE": E * E * C - (E * C * E).scale(two) + C * E * E,
    }


def _criterion3_labels():
    """Acceptance criterion 3's modules: the simples of spin <= 5 with
    r in [-3, s+3] and the covers of spin <= 4, all four signs."""
    out = []
    for a, b in itertools.product(SIGNS, SIGNS):
        out += [Z(a, b, s, r) for s in range(1, 6) for r in range(-3, s + 4)]
        out += [R(a, b, s, r) for s in range(1, 5) for r in (0, s)]
    return out


def _planted(rep: ExplicitRep, fault: str) -> ExplicitRep:
    """rep with one generator changed: "E*2" doubles E, "E+1" adds the
    identity to E, "K*q" scales K's diagonal by q, "Kinv=K" puts K in place
    of Kinv, and "plain" stores every Cartan generator as a plain
    SparseMatrix (no fault)."""
    mats = dict(rep.mats)
    if fault == "Kinv=K":
        mats["Kinv"] = mats["K"]
    elif fault.endswith("+1"):
        mats[fault[0]] = mats[fault[0]] + SparseMatrix.identity(rep.dim, ONE)
    elif fault == "plain":
        for g in CARTAN:
            mats[g] = SparseMatrix(rep.dim, rep.dim, {(r, c): v for r, c, v in mats[g].entries()})
    else:
        gen, factor = fault.split("*")
        mats[gen] = mats[gen].scale(QScalar.const(2) if factor == "2" else Q)
    return ExplicitRep(rep.label, rep.dim, rep.basis, mats, rep.gl2)


def _assert_matches_product_form(rep: ExplicitRep) -> list[str]:
    want = _product_residuals(rep)
    got = relation_residuals(rep)
    assert list(got) == list(want), rep.label
    for name, res in want.items():
        assert got[name] == res, (rep.label, name)
    failures = check_relations(rep)
    assert failures == [name for name, res in want.items() if not res.is_zero()], rep.label
    return failures


def test_residuals_match_the_product_form():
    labels = _criterion3_labels()
    assert len(labels) == 232
    for x in labels:
        assert _assert_matches_product_form(build_rep(x)) == [], x


FAULTS = ("E*2", "F*2", "B*2", "C*2", "E+1", "B+1", "K*q", "Kinv*q", "k*q", "kinv*q", "Kinv=K",
          "plain")


@pytest.mark.parametrize("fault", FAULTS)
def test_planted_faults_fail_as_in_the_product_form(fault):
    # criterion 3's labels up to spin 3: every sign, simples with r below 0,
    # at 0, inside (0, s), at s and beyond, and both kinds of cover
    labels = [x for x in _criterion3_labels() if x.s <= 3]
    failing = 0
    for x in labels:
        failing += bool(_assert_matches_product_form(_planted(build_rep(x), fault)))
    if fault == "plain":
        assert failing == 0
    else:
        assert failing > len(labels) // 2, (fault, failing)


def test_doubled_e_fails_only_ef():
    rep = build_simple(Z(-1, 1, 4, 2))
    assert check_relations(_planted(rep, "E*2")) == ["EF"]
    assert check_relations(rep) == []


_OFF_DIAGONAL = r"""
import pytest
from mixedchain.labels import THREE
from mixedchain.qarith import ONE
from mixedchain.sparse import SparseMatrix
from mixedchain.uqmod import (ExplicitRep, build_simple, cartan_weights, check_relations,
                              relation_residuals, weight_multiset)

rep = build_simple(THREE)
for gen in ("K", "Kinv", "k", "kinv"):
    bad = SparseMatrix(rep.dim, rep.dim, {(r, c): v for r, c, v in rep.mats[gen].entries()})
    bad.set(0, 1, ONE)
    planted = ExplicitRep(rep.label, rep.dim, rep.basis, dict(rep.mats, **{gen: bad}), rep.gl2)
    calls = [relation_residuals, check_relations, lambda r: cartan_weights(r, gen)]
    if gen in ("K", "k"):
        calls.append(weight_multiset)
    for call in calls:
        with pytest.raises(ValueError, match=rf"^{gen} of .* not diagonal: entry at \(0, 1\)"):
            call(planted)
print("raised")
"""


def test_off_diagonal_cartan_entry_raises():
    exec(compile(_OFF_DIAGONAL, "<off-diagonal>", "exec"), {})
    # not an assert: an optimised interpreter raises as well
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", _OFF_DIAGONAL],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"]


def test_weights_of_a_plain_diagonal_cartan_matrix():
    for x in (THREE, Z(1, -1, 3, 2), R(-1, 1, 2, 0)):
        rep = build_rep(x)
        plain = _planted(rep, "plain")
        for g in CARTAN:
            assert isinstance(rep.mats[g], DiagonalMatrix)
            assert cartan_weights(plain, g) == cartan_weights(rep, g)
        assert weight_multiset(plain) == weight_multiset(rep)


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


def test_module_sweep_keeps_no_module():
    # criterion 3 builds every simple of spin <= 5 and every cover of spin
    # <= 4 and checks all their relations; the builders keep nothing, so
    # the sweep leaves no module alive
    import gc

    simples = [Z(a, b, s, r) for a, b in itertools.product(SIGNS, SIGNS)
               for s in range(1, 6) for r in range(-3, s + 4)]
    covers = [R(a, b, s, r) for a, b in itertools.product(SIGNS, SIGNS)
              for s in range(1, 5) for r in (0, s)]
    assert (len(simples), len(covers)) == (200, 32)

    def live_modules():
        gc.collect()
        return sum(1 for obj in gc.get_objects() if isinstance(obj, ExplicitRep))

    before = live_modules()
    for x in simples + covers:
        rep = build_rep(x)
        assert check_relations(rep) == [], x
        # the checks read the Cartan generators as weight lists
        for g in CARTAN:
            assert type(rep.mats[g]) is DiagonalMatrix and rep.mats[g]._rows is None, (x, g)
    del rep
    assert live_modules() <= before


def test_builds_of_one_label_are_equal_and_fresh():
    for x in (Z(1, 1, 1, 0), Z(-1, 1, 4, 2), Z(1, -1, 3, 7), R(1, -1, 1, 1), R(-1, 1, 3, 0)):
        a, b = build_rep(x), build_rep(x)
        assert a is not b and a.label == b.label == x
        assert a.dim == b.dim and a.basis == b.basis and a.gl2 == b.gl2, x
        assert list(a.mats) == list(b.mats), x
        for g in a.mats:
            assert a.mats[g] is not b.mats[g], (x, g)
            assert sorted(a.mats[g].entries()) == sorted(b.mats[g].entries()), (x, g)
