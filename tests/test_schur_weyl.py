"""The chain operators generate the full centralizer, dimension-wise.

Three independent computations of the endomorphism-algebra dimension must
agree: a numeric rank (closing the span of the chain operators under
multiplication at a rational point), a Hom-space count over the chain's
quantum-side indecomposable content, and the centralizer-side sum of
(simple dim) x (projective dim) over the dimension ledger.
"""

from fractions import Fraction

from mixedchain.bimod import dims_for
from mixedchain.chainrep import ChainContext, endomorphism_algebra_dimension
from mixedchain.fusion import chain_decompose
from mixedchain.qarith import EvalPoint
from mixedchain.labels import RLabel, ZLabel, proj_subquotients
from mixedchain.partitions import cross_labels
from mixedchain.xcat import proj_structure
from oracles import is_atypical


def hom_dim(x, y) -> int:
    """dim Hom(x, y) between indecomposables, from the Loewy data.

    Projectives (covers and typical simples) map onto each occurrence of
    their head; an atypical simple embeds only into its own socle.
    """
    if isinstance(x, RLabel):
        top = ZLabel(x.alpha, x.beta, x.s, x.r)
        if isinstance(y, RLabel):
            return proj_subquotients(y).count(top)
        return 1 if y == top else 0
    if not is_atypical(x):
        if isinstance(y, RLabel):
            return proj_subquotients(y).count(x)
        return 1 if x == y else 0
    if isinstance(y, RLabel):
        return 1 if ZLabel(y.alpha, y.beta, y.s, y.r) == x else 0
    return 1 if x == y else 0


def end_dim_from_chain(m: int, n: int) -> int:
    ch = chain_decompose(m, n)
    return sum(mx * my * hom_dim(x, y)
               for x, mx in ch.items() for y, my in ch.items())


def end_dim_from_ledger(m: int, n: int) -> int:
    ledger = dims_for(m, n)
    total = 0
    for lam in cross_labels(m, n):
        dim_k = sum(ledger[v] for v in proj_structure(lam, m, n))
        total += ledger[lam] * dim_k
    return total


def test_label_formulas_agree_up_to_ten():
    for total in range(1, 11):
        for m in range(0, total + 1):
            n = total - m
            assert end_dim_from_chain(m, n) == end_dim_from_ledger(m, n), (m, n)


def test_numeric_commutant_rank_matches_labels():
    point = EvalPoint(Fraction(3, 2))
    for m, n in [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (1, 2), (0, 3),
                 (3, 1), (2, 2)]:
        expected = end_dim_from_chain(m, n)
        assert expected == end_dim_from_ledger(m, n)
        got = endomorphism_algebra_dimension(ChainContext(m, n), point,
                                             max_dim=expected)
        assert got == expected, (m, n, got, expected)
