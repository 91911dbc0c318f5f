import itertools

from mixedchain.fusion import (
    GrothVector,
    Label,
    _dispatch,
    chain_decompose,
    dim_of_groth,
    fuse_with_f,
    fuse_with_v,
    gv,
)
from mixedchain.labels import THREE, THREE_BAR, R, Z, ZLabel, dim_label, dual
from mixedchain.uqmod import build_rep, weight_multiset, weight_multiset_tensor


def all_labels(s, rs=(-2, -1, 0, 1, 2, 5)):
    out = set()
    for al, be in itertools.product((1, -1), (1, -1)):
        for r in set(rs) | {s - 1, s, s + 1, s + 2}:
            try:
                out.add(Z(al, be, s, r))
            except ValueError:
                pass
        for r in (0, s):
            out.add(R(al, be, s, r))
    return sorted(out, key=str)


def _rules_with_f(x: Label, a: int, b: int):
    """Candidate decompositions of x (x) Z^{a2,b2}_{1,1}, with a = a1*a2 etc.

    The transcribed rule table for the fundamental module: the oracle for
    `fuse_with_f`, which the library derives from the dual table.
    """
    s, r = x.s, x.r
    out = []
    if isinstance(x, ZLabel):
        # exceptional cases
        if (s, r) == (1, 0):
            out.append(("x:Z10", gv((Z(a, b, 1, 1), 1))))
        if (s, r) == (1, -1):
            out.append(("x:Z1-1", gv((R(a, -b, 2, 0), 1))))
        if s == 1 and r not in (-1, 0, 1):
            out.append(("x:Z1r", gv((Z(a, b, 1, r + 1), 1), (Z(a, -b, 2, r + 1), 1))))
        # regular families
        if r == 0 and s >= 2:
            out.append(("Zs0", gv((Z(a, -b, s - 1, 0), 1), (Z(a, b, s, 1), 1))))
        if r == s and s >= 1:
            out.append(("Zss", gv((Z(a, -b, s + 1, s + 1), 1), (Z(a, b, s, s + 1), 1))))
        if r not in (0, s) and s >= 2:
            if r == -1:
                out.append(("Zt-1", gv((R(a, -b, s + 1, 0), 1), (Z(a, -b, s - 1, -1), 1))))
            elif r == s - 1:
                out.append(("Zts-1", gv((R(a, -b, s - 1, s - 1), 1), (Z(a, -b, s + 1, s), 1))))
            else:
                out.append(("Zt", gv((Z(a, b, s, r + 1), 1), (Z(a, -b, s + 1, r + 1), 1),
                                     (Z(a, -b, s - 1, r), 1))))
    else:
        if (s, r) == (2, 0):
            out.append(("x:R20", gv((R(a, -b, 1, 0), 1), (Z(a, b, 2, 1), 2), (Z(a, -b, 3, 1), 1))))
        if (s, r) == (1, 0):
            out.append(("x:R10", gv((R(a, b, 1, 1), 1), (Z(a, b, 1, 2), 1), (Z(a, -b, 2, 1), 1))))
        if (s, r) == (1, 1):
            out.append(("x:R11", gv((R(a, -b, 2, 2), 1), (Z(a, b, 1, 2), 2), (Z(a, -b, 2, 3), 1))))
        if r == 0 and s >= 3:
            out.append(("Rs0", gv((R(a, -b, s - 1, 0), 1), (Z(a, b, s, 1), 2),
                                  (Z(a, -b, s - 1, 1), 1), (Z(a, -b, s + 1, 1), 1))))
        if r == s and s >= 2:
            out.append(("Rss", gv((R(a, -b, s + 1, s + 1), 1), (Z(a, b, s, s + 1), 2),
                                  (Z(a, -b, s - 1, s), 1), (Z(a, -b, s + 1, s + 2), 1))))
    return out


def _fuse_with_f_table(x, alpha2, beta2):
    return _dispatch(x, _rules_with_f(x, x.alpha * alpha2, x.beta * beta2))


SIGN_PAIRS = tuple(itertools.product((1, -1), (1, -1)))


def duality_range():
    """Z labels with s <= 60 and r in [-8, s+8], and their covers, all signs."""
    out = []
    for al, be in SIGN_PAIRS:
        for s in range(1, 61):
            out += [Z(al, be, s, r) for r in range(-8, s + 9)]
            out += [R(al, be, s, r) for r in (0, s)]
    return out


def test_fuse_f_matches_transcribed_table():
    labels = duality_range()
    assert len(labels) == 11880
    for x in labels:
        for alpha2, beta2 in SIGN_PAIRS:
            assert fuse_with_f(x, alpha2, beta2) == _fuse_with_f_table(x, alpha2, beta2), \
                (x, alpha2, beta2)


def test_chain_mirror_is_dual():
    for total in range(1, 21):
        for m in range(total + 1):
            mirrored = {dual(x): mult for x, mult in chain_decompose(total - m, m).items()}
            assert chain_decompose(m, total - m) == mirrored, (m, total - m)


def test_fuse_f_exceptional_examples():
    assert fuse_with_f(Z(1, 1, 1, 0), 1, 1) == gv((Z(1, 1, 1, 1), 1))
    assert fuse_with_f(Z(1, 1, 1, -1), 1, 1) == gv((R(1, -1, 2, 0), 1))
    assert fuse_with_f(R(1, 1, 1, 1), 1, 1) == gv(
        (R(1, -1, 2, 2), 1), (Z(1, 1, 1, 2), 2), (Z(1, -1, 2, 3), 1))


def test_fuse_f_regular_examples():
    for s in (1, 2, 5):
        out = fuse_with_f(Z(1, 1, s, s), 1, 1)
        assert out == gv((Z(1, -1, s + 1, s + 1), 1), (Z(1, 1, s, s + 1), 1))


def test_fuse_v_exceptional_examples():
    assert fuse_with_v(Z(1, 1, 1, 2), 1, 1) == gv((R(1, -1, 1, 1), 1))
    assert fuse_with_v(Z(1, 1, 1, 1), 1, 1) == gv(
        (Z(1, -1, 1, 0), 1), (Z(1, 1, 2, 1), 1))
    assert fuse_with_v(R(1, 1, 1, 1), 1, 1) == gv(
        (R(1, -1, 1, 0), 1), (Z(1, 1, 2, 1), 2), (Z(1, -1, 3, 2), 1))


def test_chain_small_values():
    assert chain_decompose(1, 0) == gv((Z(1, -1, 1, 1), 1))
    assert chain_decompose(0, 1) == gv((Z(1, 1, 2, 0), 1))
    c11 = chain_decompose(1, 1)
    assert c11 == gv((Z(1, 1, 1, 0), 1), (Z(1, -1, 2, 1), 1))
    assert dim_of_groth(c11) == 9
    c21 = chain_decompose(2, 1)
    assert c21 == gv((Z(1, -1, 1, 1), 1), (Z(1, -1, 3, 2), 1), (R(1, -1, 1, 1), 1))
    assert dim_of_groth(c21) == 27


def test_chain_dims_to_twelve():
    for total in range(1, 13):
        for m in range(0, total + 1):
            n = total - m
            assert dim_of_groth(chain_decompose(m, n)) == 3 ** total


def test_rule_dimension_multiplicativity():
    for s in range(1, 41):
        for x in all_labels(s):
            assert dim_of_groth(fuse_with_f(x)) == 3 * dim_label(x), x
            assert dim_of_groth(fuse_with_v(x)) == 3 * dim_label(x), x


def fuse_vector(v, fuse):
    """Each summand of v tensored by `fuse`, summed."""
    acc = {}
    for label, mult in v.items():
        for w, wm in fuse(label).items():
            acc[w] = acc.get(w, 0) + mult * wm
    return acc


def test_fusion_order_independence():
    for s in range(1, 7):
        for x in all_labels(s):
            fv = fuse_vector(fuse_with_f(x), fuse_with_v)
            vf = fuse_vector(fuse_with_v(x), fuse_with_f)
            assert fv == vf, x


def test_weight_oracle_small():
    # independent brute-force check of a handful of rules via (K,k) weights
    targets = [Z(1, -1, 1, 1), Z(1, 1, 2, 0), Z(-1, 1, 2, 2), R(1, 1, 1, 0),
               R(1, -1, 2, 2), Z(1, 1, 3, 2), Z(-1, -1, 1, -2)]
    for x in targets:
        for fuse, fund in ((fuse_with_f, THREE), (fuse_with_v, THREE_BAR)):
            lhs = weight_multiset_tensor(build_rep(x), build_rep(fund))
            rhs = {}
            for label, mult in fuse(x).items():
                for w, c in weight_multiset(build_rep(label)).items():
                    rhs[w] = rhs.get(w, 0) + c * mult
            assert lhs == rhs, (x, fund)


def test_groth_vector_basics():
    v = GrothVector()
    v.add(Z(1, 1, 1, 0), 2)
    v.add(Z(1, 1, 1, 0), -2)
    assert not v
    assert dim_of_groth(gv((THREE, 2))) == 6
    assert dim_of_groth(GrothVector()) == 0
