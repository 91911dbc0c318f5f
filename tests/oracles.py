"""Oracles that only the tests read: label enumerations, dimension and
flattening helpers, the Loewy graph of a projective cover, and the paper's
restriction displays for projective labels.

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
from mixedchain.partitions import (
    AtypicalLabel,
    Bipartition,
    Partition,
    atyp,
    atypical_bipartition,
    is_cross21,
)
from mixedchain.uqmod import ExplicitRep, weight_multiset
from mixedchain.xcat import _col, _hookp, _pair, _row, _Rows, _two_row

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


def res_k_table(lab: AtypicalLabel, m: int, n: int) -> GrothVector:
    """The paper's restriction displays for projective atypical labels, as
    transcribed: the oracle for `xcat._res_k_atypical`, which derives them.

    Each display is guarded by the labels it covers, and exactly one must
    match.  A cover that is its label alone is written ("K", mu) here,
    where the library writes ("D", mu).
    """
    a, s = lab.a, lab.s
    bip = atypical_bipartition
    rows = _Rows(m, n - 1)
    fam, barred = lab.family, lab.bar
    K, D = "K", "D"
    if not barred:
        if fam == "delta":
            if 2 <= s <= n - 1 and a >= 1:
                rows.row("K.d.mid", (K, bip(atyp("delta", False, a + 1, s)), 1),
                         (D, _pair(_hookp(a, s + 1), _row(s)), 1),
                         (D, _pair(_hookp(a, s), _row(s - 1)), 2),
                         (D, _pair(_hookp(a, s - 1), _row(s - 2)), 1))
            if s == 1 and a >= 2 and n >= 2:
                # multiplicity 2 on the middle term is forced by the ledger
                rows.row("K.d.one", (K, bip(atyp("delta", False, a + 1, 1)), 1),
                         (D, _pair(_hookp(a, 2), _row(1)), 1),
                         (D, _pair(_hookp(a, 1), ()), 2),
                         (D, _pair(_two_row(a, 2), _row(1)), 1))
            if s == 1 and a == 1 and n >= 2:
                rows.row("K.d.one1", (K, bip(atyp("delta", False, 2, 1)), 1),
                         (D, _pair(_col(3), _row(1)), 1),
                         (D, _pair(_col(2), ()), 2))
            if s == n and n >= 1 and a >= 1:
                rows.row("K.d.end", (D, bip(atyp("delta", False, a + 1, n - 1)), 1),
                         (D, _pair(_hookp(a, n), _row(n - 1)), 2),
                         (D, _pair(_hookp(a, n - 1), _row(n - 2)), 1))
            if s == 0 and a >= 1 and n >= 1:
                rows.row("K.d.zero", (K, bip(atyp("delta", False, a + 1, 0)), 1),
                         (D, _pair(_hookp(a, 1), ()), 1))
            if s == 0 and a == 0 and n >= 1:
                rows.row("K.d.origin", (K, bip(atyp("delta", False, 1, 0)), 1))
        elif fam == "delta1":
            if 2 <= s <= min(a, n) - 1:
                rows.row("K.d1.mid", (K, bip(atyp("delta1", False, a + 1, s)), 1),
                         (D, _pair(_two_row(a, s + 1), _col(s)), 1),
                         (D, _pair(_two_row(a, s), _col(s - 1)), 2),
                         (D, _pair(_two_row(a, s - 1), _col(s - 2)), 1))
            if s == a and 2 <= a <= n - 1:
                rows.row("K.d1.corner", (K, bip(atyp("delta1", False, a + 1, a)), 1),
                         (D, _pair(_two_row(a, a), _col(a - 1)), 2),
                         (D, _pair(_two_row(a, a - 1), _col(a - 2)), 1))
            if s == n and 2 <= n <= a:
                rows.row("K.d1.end", (D, bip(atyp("delta1", False, a + 1, n - 1)), 1),
                         (D, _pair(_two_row(a, n), _col(n - 1)), 2),
                         (D, _pair(_two_row(a, n - 1), _col(n - 2)), 1))
        else:
            if a + 2 <= s <= n - 3:
                rows.row("K.d2.mid", (K, bip(atyp("delta2", False, a + 1, s)), 1),
                         (D, _pair(_two_row(s + 2, a + 1), _col(s + 2)), 1),
                         (D, _pair(_two_row(s + 1, a + 1), _col(s + 1)), 2),
                         (D, _pair(_two_row(s, a + 1), _col(s)), 1))
            if s == a and 2 <= a <= n - 3:
                rows.row("K.d2.corner", (K, bip(atyp("delta1", False, a + 1, a + 1)), 1),
                         (D, _pair(_two_row(a + 2, a + 1), _col(a + 2)), 1),
                         (D, _pair(_two_row(a, a), _col(a - 1)), 1))
            if s == a + 1 and a <= n - 4:
                rows.row("K.d2.next", (K, bip(atyp("delta2", False, a + 1, a + 1)), 1),
                         (D, _pair(_two_row(a + 3, a + 1), _col(a + 3)), 1),
                         (D, _pair(_two_row(a + 2, a + 1), _col(a + 2)), 2))
            if s == n - 2 and 0 <= a <= n - 4:
                rows.row("K.d2.end", (D, bip(atyp("delta2", False, a + 1, n - 3)), 1),
                         (D, _pair(_two_row(n - 1, a + 1), _col(n - 1)), 2),
                         (D, _pair(_two_row(n - 2, a + 1), _col(n - 2)), 1))
            if s == n - 2 and a == n - 3 and n >= 3:
                rows.row("K.d2.preend", (D, bip(atyp("delta1", False, n - 2, n - 2)), 1),
                         (D, _pair(_two_row(n - 1, n - 2), _col(n - 1)), 2))
            if s == a == n - 2 and n >= 3:
                rows.row("K.d2.top", (K, bip(atyp("delta1", False, n - 1, n - 1)), 1),
                         (D, _pair(_two_row(n - 2, n - 2), _col(n - 3)), 1))
            if s == a == 1 and n >= 4:
                rows.row("K.d2.low", (K, bip(atyp("delta1", False, 2, 2)), 1),
                         (D, _pair(_two_row(3, 2), _col(3)), 1),
                         (D, _pair(_col(2), ()), 1))
            if s == a == 0 and n >= 2:
                rows.row("K.d2.origin", (K, bip(atyp("delta", False, 1, 1)), 1),
                         (D, _pair(_two_row(2, 1), _col(2)), 1),
                         (D, _pair(_col(3), _col(2)), 1))
    else:
        if fam == "delta":
            if 2 <= s <= m - 1 and a >= 2:
                rows.row("K.bd.mid", (K, bip(atyp("delta", True, a - 1, s)), 1),
                         (D, _pair(_row(s + 1), _hookp(a, s)), 1),
                         (D, _pair(_row(s), _hookp(a, s - 1)), 2),
                         (D, _pair(_row(s - 1), _hookp(a, s - 2)), 1))
            if s == 1 and a >= 2 and m >= 2:
                rows.row("K.bd.one", (K, bip(atyp("delta", True, a - 1, 1)), 1),
                         (D, _pair(_row(2), _hookp(a, 1)), 1),
                         (D, _pair(_row(1), _row(a)), 2),
                         (D, _pair(_col(2), _hookp(a, 1)), 1))
            if s == m and m >= 1 and a >= 2:
                rows.row("K.bd.end", (K, bip(atyp("delta", True, a - 1, m)), 1),
                         (D, _pair(_row(m), _hookp(a, m - 1)), 2),
                         (D, _pair(_row(m - 1), _hookp(a, m - 2)), 1))
            if 2 <= s <= m - 1 and a == 1:
                rows.row("K.bd.wall", (K, bip(atyp("delta2", False, 0, s - 1)), 1),
                         (D, _pair(_row(s + 1), _col(s + 1)), 1),
                         (D, _pair(_row(s), _col(s)), 2),
                         (D, _pair(_row(s - 1), _col(s - 1)), 1))
            if s == m and a == 1 and m >= 2:
                rows.row("K.bd.wallend", (D, bip(atyp("delta2", False, 0, m - 2)), 1),
                         (D, _pair(_row(m), _col(m)), 2),
                         (D, _pair(_row(m - 1), _col(m - 1)), 1))
            if s == 1 and a == 1 and m >= 2:
                rows.row("K.bd.wallone", (K, bip(atyp("delta2", False, 0, 0)), 1),
                         (D, _pair(_row(2), _col(2)), 1),
                         (D, _pair(_row(1), _row(1)), 2))
            if s == 1 and a == 1 and m == 1:
                rows.row("K.bd.tiny", (D, bip(atyp("delta", False, 0, 0)), 1),
                         (D, _pair(_row(1), _row(1)), 2))
            if s == 0 and a >= 1 and m >= 0:
                rows.row("K.bd.zero", (K, bip(atyp("delta", True, a - 1, 0)), 1),
                         (D, _pair(_row(1), _row(a)), 1))
        elif fam == "delta1":
            if 2 <= s <= min(a, m) - 1:
                rows.row("K.bd1.mid", (K, bip(atyp("delta1", True, a - 1, s)), 1),
                         (D, _pair(_col(s + 1), _two_row(a, s)), 1),
                         (D, _pair(_col(s), _two_row(a, s - 1)), 2),
                         (D, _pair(_col(s - 1), _two_row(a, s - 2)), 1))
            if s == a and 2 <= a <= m - 1:
                rows.row("K.bd1.corner", (K, bip(atyp("delta2", True, a - 1, a - 1)), 1),
                         (D, _pair(_col(a), _two_row(a, a - 1)), 2),
                         (D, _pair(_col(a - 1), _two_row(a, a - 2)), 1))
            if s == m and 2 <= m < a:
                rows.row("K.bd1.end", (K, bip(atyp("delta1", True, a - 1, m)), 1),
                         (D, _pair(_col(m), _two_row(a, m - 1)), 2),
                         (D, _pair(_col(m - 1), _two_row(a, m - 2)), 1))
            if s == a == m and m >= 2:
                rows.row("K.bd1.top", (D, bip(atyp("delta1", True, m - 1, m - 1)), 1),
                         (D, _pair(_col(m), _two_row(m, m - 1)), 2),
                         (D, _pair(_col(m - 1), _two_row(m, m - 2)), 1))
        else:
            if a + 2 <= s <= m - 3 and a >= 1:
                rows.row("K.bd2.mid", (K, bip(atyp("delta2", True, a - 1, s)), 1),
                         (D, _pair(_col(s + 3), _two_row(s + 1, a + 1)), 1),
                         (D, _pair(_col(s + 2), _two_row(s, a + 1)), 2),
                         (D, _pair(_col(s + 1), _two_row(s - 1, a + 1)), 1))
            if a == 0 and 2 <= s <= m - 3:
                rows.row("K.bd2.wall", (K, bip(atyp("delta", False, 1, s + 1)), 1),
                         (D, _pair(_col(s + 3), _two_row(s + 1, 1)), 1),
                         (D, _pair(_col(s + 2), _two_row(s, 1)), 2),
                         (D, _pair(_col(s + 1), _two_row(s - 1, 1)), 1))
            if s == a and 1 <= a <= m - 3:
                rows.row("K.bd2.corner", (K, bip(atyp("delta2", True, a - 1, a)), 1),
                         (D, _pair(_col(a + 3), _two_row(a + 1, a + 1)), 1),
                         (D, _pair(_col(a), _two_row(a, a - 1)), 1))
            if s == a + 1 and 1 <= a <= m - 4:
                rows.row("K.bd2.next", (K, bip(atyp("delta2", True, a - 1, a + 1)), 1),
                         (D, _pair(_col(a + 4), _two_row(a + 2, a + 1)), 1),
                         (D, _pair(_col(a + 3), _two_row(a + 1, a + 1)), 2))
            if s == m - 2 and 1 <= a <= m - 4:
                rows.row("K.bd2.end", (K, bip(atyp("delta2", True, a - 1, m - 2)), 1),
                         (D, _pair(_col(m), _two_row(m - 2, a + 1)), 2),
                         (D, _pair(_col(m - 1), _two_row(m - 3, a + 1)), 1))
            if a == 0 and s == 1 and m >= 4:
                rows.row("K.bd2.low", (K, bip(atyp("delta", False, 1, 2)), 1),
                         (D, _pair(_col(4), _two_row(2, 1)), 1),
                         (D, _pair(_col(3), _two_row(1, 1)), 2))
            if a == 0 and s == m - 2 and m >= 4:
                rows.row("K.bd2.wallend", (K, bip(atyp("delta", False, 1, m - 1)), 1),
                         (D, _pair(_col(m), _two_row(m - 2, 1)), 2),
                         (D, _pair(_col(m - 1), _two_row(m - 3, 1)), 1))
            if a == 0 and s == 1 and m == 3:
                # small-context end of the mirrored ladder (degenerate terms gone)
                rows.row("K.bd2.small", (K, bip(atyp("delta", False, 1, 2)), 1),
                         (D, _pair(_col(3), _col(2)), 2))
            if s == a + 1 and a == m - 3 and m >= 4:
                rows.row("K.bd2.preend", (K, bip(atyp("delta2", True, m - 4, m - 2)), 1),
                         (D, _pair(_col(m), _two_row(m - 2, m - 2)), 2))
            if s == a == m - 2 and m >= 3:
                rows.row("K.bd2.top", (K, bip(atyp("delta2", True, m - 3, m - 2)), 1),
                         (D, _pair(_col(m - 2), _two_row(m - 2, m - 3)), 1))
    return rows.unique(f"K({lab}) at ({m},{n})")


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
