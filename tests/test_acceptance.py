"""Acceptance suite: one test per criterion, exact equality everywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.  Bounds are fixed here, not configurable: symbolic chain checks
to total size 5, rational-point chain checks to 7, builder sweeps to spin
5 (simples) and 4 (projectives), label-level sweeps to total size 12, the
restriction ledger to 10.
"""

import itertools

from mixedchain.bimod import (
    dimension_audit,
    p_weighted_against_chain,
    projections_match,
    table_csv,
    verify_identities,
)
from mixedchain.chainrep import ChainContext, check_centralizer, check_qwb_relations
from mixedchain.fusion import chain_decompose, dim_of_groth, fuse_with_f, fuse_with_v
from mixedchain.partitions import classify_atypical, cross_set
from mixedchain.qarith import eval_points
from mixedchain.labels import THREE, THREE_BAR, R, Z, dim_label
from mixedchain.uqmod import (
    build_projective,
    build_rep,
    build_simple,
    check_relations,
    weight_multiset,
    weight_multiset_tensor,
)
from mixedchain.xcat import dim_simple_x, dim_term, q_expand, res_right_d, res_right_k

SEED = 20177


def _grid(max_total, min_total=1, m_min=0):
    for total in range(min_total, max_total + 1):
        for m in range(m_min, total + 1):
            yield m, total - m


def test_criterion_1_qwb_relations_on_chain():
    for m, n in _grid(5, min_total=2):
        ctx = ChainContext(m, n)
        bad = [r.relation for r in check_qwb_relations(ctx) if not r.ok]
        assert not bad, (m, n, bad)
    points = eval_points(SEED)
    for m, n in _grid(7, min_total=2):
        ctx = ChainContext(m, n)
        for p in points:
            bad = [r.relation for r in check_qwb_relations(ctx, point=p) if not r.ok]
            assert not bad, (m, n, p, bad)
    print("\nACCEPTANCE 1 qwb-relations (symbolic<=5, eval<=7): PASS")


def test_criterion_2_centralizer():
    for m, n in _grid(5, min_total=2):
        ctx = ChainContext(m, n)
        bad = [r.relation for r in check_centralizer(ctx) if not r.ok]
        assert not bad, (m, n, bad)
    print("\nACCEPTANCE 2 centralizer-commutators (symbolic<=5): PASS")


def test_criterion_3_module_builders():
    for alpha, beta in itertools.product((1, -1), (1, -1)):
        for s in range(1, 6):
            for r in range(-3, s + 4):
                rep = build_simple(Z(alpha, beta, s, r))
                assert check_relations(rep) == [], (alpha, beta, s, r)
        for s in range(1, 5):
            for r in (0, s):
                rep = build_projective(R(alpha, beta, s, r))
                assert check_relations(rep) == [], ("R", alpha, beta, s, r)
    print("\nACCEPTANCE 3 defining-relations on builders (s<=5 / s<=4): PASS")


def _rule_instances(s):
    for alpha, beta in itertools.product((1, -1), (1, -1)):
        for r in {-2, -1, 0, 1, 2, s - 1, s, s + 1, s + 2, 7}:
            try:
                yield Z(alpha, beta, s, r)
            except ValueError:
                pass
        for r in (0, s):
            yield R(alpha, beta, s, r)


def test_criterion_4_fusion_dimension_audit():
    for s in range(1, 41):
        for x in set(_rule_instances(s)):
            assert dim_of_groth(fuse_with_f(x)) == 3 * dim_label(x), x
            assert dim_of_groth(fuse_with_v(x)) == 3 * dim_label(x), x
    for m, n in _grid(12):
        assert dim_of_groth(chain_decompose(m, n)) == 3 ** (m + n), (m, n)
    print("\nACCEPTANCE 4 fusion dimension audit (rules s<=40, chain<=12): PASS")


def test_criterion_5_weight_multiset_oracle():
    checked = 0
    for s in range(1, 4):
        for x in set(_rule_instances(s)):
            for fuse, fund in ((fuse_with_f, THREE), (fuse_with_v, THREE_BAR)):
                lhs = weight_multiset_tensor(build_rep(x), build_rep(fund))
                rhs = {}
                for label, mult in fuse(x).items():
                    for w, c in weight_multiset(build_rep(label)).items():
                        rhs[w] = rhs.get(w, 0) + c * mult
                assert lhs == rhs, (x, fund)
                checked += 1
    print(f"\nACCEPTANCE 5 weight-multiset oracle ({checked} rule instances, s<=3): PASS")


def test_criterion_6_verification_identities():
    for m, n in _grid(12, m_min=1):
        assert verify_identities(m, n) == (True, True), (m, n)
    print("\nACCEPTANCE 6 induction identities (m+n<=12): PASS")


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


def test_criterion_7_golden_tables():
    assert table_csv(5, 3) == GOLDEN_5_3
    assert table_csv(4, 4) == GOLDEN_4_4
    print("\nACCEPTANCE 7 semisimple-part tables (5,3) and (4,4): PASS")


def test_criterion_8_bimodule_chain_consistency():
    for m, n in _grid(12):
        assert dimension_audit(m, n), (m, n)
        assert p_weighted_against_chain(m, n), (m, n)
        assert projections_match(m, n), (m, n)
    print("\nACCEPTANCE 8 bimodule/chain cross-consistency (m+n<=12): PASS")


def test_criterion_9_restriction_dimensions():
    for m, n in _grid(10):
        if n < 1:
            continue
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
    print("\nACCEPTANCE 9 restriction dimension consistency (m+n<=10): PASS")
