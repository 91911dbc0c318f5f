"""Oracles that only the tests read: label enumerations, dimension and
flattening helpers, and the Loewy graph of a projective cover.

The library computes none of these, because no command, `verify` suite or
benchmark operation needs them.  The tests enumerate their inputs with
them and compare the library against them.  This file is not a test
module, so pytest does not collect it; the tests import it by name.
"""

from functools import lru_cache

import mixedchain.bimod as bm
import mixedchain.xcat as xc
from mixedchain.fusion import GrothVector
from mixedchain.labels import BarLabel, bar
from mixedchain.partitions import Bipartition, Partition, is_cross21
from mixedchain.uqmod import ExplicitRep, weight_multiset

# ---------------------------------------------------------------------------
# partitions and the index sets Lambda_{m,n}(f)
# ---------------------------------------------------------------------------


class InvalidF(ValueError):
    pass


@lru_cache(maxsize=None)
def partitions_of(k: int) -> tuple[Partition, ...]:
    """All partitions of k, lexicographically ordered."""
    if k < 0:
        return ()
    if k == 0:
        return ((),)
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, maxpart), 0, -1):
            acc.append(p)
            rec(rest - p, p, acc)
            acc.pop()

    rec(k, k, [])
    return tuple(sorted(out))


def count_partitions(k: int) -> int:
    return len(partitions_of(k))


def lambda_set(m: int, n: int, f: int) -> list[Bipartition]:
    """All bipartitions with |left| = m - f and |right| = n - f, lex ordered."""
    if not (0 <= f <= min(m, n)):
        raise InvalidF(f"f={f} out of range for (m,n)=({m},{n})")
    return sorted(
        (lam, rho)
        for lam in partitions_of(m - f)
        for rho in partitions_of(n - f)
    )


def lambda_all(m: int, n: int) -> list[Bipartition]:
    out = []
    for f in range(min(m, n) + 1):
        out.extend(lambda_set(m, n, f))
    return sorted(set(out))


def cross_set(m: int, n: int) -> list[Bipartition]:
    return [lam for lam in lambda_all(m, n) if is_cross21(lam)]


# ---------------------------------------------------------------------------
# module labels
# ---------------------------------------------------------------------------

def gbar(b: BarLabel) -> BarLabel:
    """Mirror image of a barred label: swaps its (t, r) coordinates."""
    return bar(b.kind, b.p, b.r, b.t)


def weight_multiset_tensor(rep1: ExplicitRep, rep2: ExplicitRep):
    """Weights of the tensor product: K and k are group-like."""
    out = {}
    w1 = weight_multiset(rep1)
    w2 = weight_multiset(rep2)
    for (a1, b1), m1 in w1.items():
        for (a2, b2), m2 in w2.items():
            key = (a1 * a2, b1 * b2)
            out[key] = out.get(key, 0) + m1 * m2
    return out


# ---------------------------------------------------------------------------
# the X-side category
# ---------------------------------------------------------------------------

def loewy_graph(cover: tuple[Bipartition, ...]):
    """The Loewy graph of a projective cover given as `xcat.proj_structure`
    gives it: (vertices, edges), the vertices as (layer, label) pairs and
    the edges as (upper, lower) vertex indices.

    A cover of one vertex has no edge, a chain of two has an edge from head
    to socle, and a longer cover has its middles between head and socle.
    Raises unless a chain of two has a socle other than its head and a
    cover with a middle layer has its head as socle.
    """
    head = cover[0]
    if len(cover) == 1:
        return (("top", head),), ()
    if len(cover) == 2:
        if cover[1] == head:
            raise AssertionError(f"two-step chain {cover!r} has its head as socle")
        return (("top", head), ("bot", cover[1])), ((0, 1),)
    if cover[-1] != head:
        raise AssertionError(f"cover {cover!r} with a middle layer has another socle")
    last = len(cover) - 1
    vertices = (("top", head),) + tuple(("mid", mu) for mu in cover[1:last]) + (("bot", head),)
    edges = tuple((0, i) for i in range(1, last)) + tuple((i, last) for i in range(1, last))
    return vertices, edges


def q_expand(v: GrothVector, m: int, n: int) -> GrothVector:
    """Flatten every projective term of v into its simple factors."""
    out = GrothVector()
    for term, mult in v.items():
        for flat, fm in xc.q_functor(term, m, n).items():
            out.add(flat, fm * mult)
    return out


def res_right_s(lam: Bipartition, m: int, n: int) -> GrothVector:
    """Restriction of a Specht label one step down on the right side."""
    if n < 1:
        raise xc.NIsZero("right restriction needs n >= 1")
    f, _lab = xc._classify_cross(lam, m, n)
    out = GrothVector()
    for mu in xc._generic_restriction(lam, f):
        out.add(mu)
    return out


def _match_exceptional_d(lam: Bipartition, m: int, n: int) -> GrothVector | None:
    """The exceptional row of a typical label, or None when no row re-glues
    it.  Reads `xcat._exceptional_rows` at call time, so a test may replace
    it."""
    found = xc._exceptional_rows(m, n).get(lam)
    return None if found is None else xc._exceptional_d(lam, found, m, n)


# ---------------------------------------------------------------------------
# the bimodule: dimension ledger and flattened bimodules
# ---------------------------------------------------------------------------

class LabelNotInBimodule(KeyError):
    pass


def dim_simple_x(lam: Bipartition, m: int, n: int) -> int:
    ledger = bm.dims_for(m, n)
    if lam not in ledger:
        raise LabelNotInBimodule(f"{lam!r} does not occur at ({m},{n})")
    return ledger[lam]


def dim_term(term, m: int, n: int) -> int:
    kind, lam = term
    if kind == "D":
        return dim_simple_x(lam, m, n)
    return sum(dim_simple_x(v, m, n) for v in xc.proj_structure(lam, m, n))


def _assembled(m: int, n: int, atypical: tuple) -> GrothVector:
    """The semisimple part, each simple boxed once, plus a flattened
    atypical part."""
    out = GrothVector(((("D", lam), z), 1) for lam, z in bm.semisimple_part(m, n))
    for key, mult in atypical:
        out.add(key, mult)
    return out


def q_flattened(m: int, n: int) -> GrothVector:
    """The fully assembled bimodule after centralizer-side flattening."""
    return _assembled(m, n, bm._q_atypical_items(m, n))


def p_flattened(m: int, n: int) -> GrothVector:
    """The fully assembled bimodule after quantum-side flattening."""
    return _assembled(m, n, bm._p_atypical_items(m, n))
