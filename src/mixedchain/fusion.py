"""Label-level fusion with the two fundamental three-dimensional modules.

The complete rule table for tensoring any simple module or projective cover
with the dual fundamental module (s,r) = (2,0), and the iterated
decomposition of the chain built from m copies of the fundamental module
(s,r) = (1,1) and n of its dual.  The dispatcher tries the exceptional
low-spin cases first, then the regular families, and insists that exactly
one rule fires.  Tensoring with (1,1) needs no table of its own:
Z^{a,b}_{1,1} is the contragredient of Z^{a,-b}_{2,0}, so x (x) Z^{a,b}_{1,1}
is the dual of x* (x) Z^{a,-b}_{2,0}, read through `labels.dual`; likewise
the chain 3^m is the dual of 3bar^m.  Tensoring with (2,0) is memoised per
label in an LRU cache of 8192 immutable item tuples, which holds every label
that one chain with m+n <= 60 fuses (at most 4,880, at (58, 2)); every call
returns a fresh vector.  Multiplicities are positive, so a sum of them
is never zero.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .labels import R, RLabel, Z, ZLabel, dim_label, dual

Label = ZLabel | RLabel


class GrothVector(dict):
    """Multiset of labels with positive integer multiplicities."""

    def add(self, label, mult: int = 1) -> None:
        if mult == 0:
            return
        new = self.get(label, 0) + mult
        if new:
            self[label] = new
        else:
            del self[label]

    def add_all(self, other: "GrothVector", mult: int = 1) -> None:
        for label, m in other.items():
            self.add(label, m * mult)

    def __add__(self, other):
        out = GrothVector(self)
        out.add_all(other)
        return out

    def total_dim(self) -> int:
        return sum(m * dim_label(x) for x, m in self.items())


def gv(*pairs) -> GrothVector:
    out = GrothVector()
    for label, mult in pairs:
        out.add(label, mult)
    return out


def dim_of_groth(v: GrothVector) -> int:
    return v.total_dim()


def _rules_with_v(x: Label, a: int, b: int):
    """Candidate decompositions of x (x) Z^{a2,b2}_{2,0}."""
    s, r = x.s, x.r
    out = []
    if isinstance(x, ZLabel):
        if (s, r) == (1, 0):
            out.append(("x:Z10", gv((Z(a, b, 2, 0), 1))))
        if (s, r) == (1, 1):
            out.append(("x:Z11", gv((Z(a, -b, 1, 0), 1), (Z(a, b, 2, 1), 1))))
        if (s, r) == (1, 2):
            out.append(("x:Z12", gv((R(a, -b, 1, 1), 1))))
        if s == 1 and r not in (0, 1, 2):
            out.append(("x:Z1r", gv((Z(a, -b, 1, r - 1), 1), (Z(a, b, 2, r), 1))))
        if r == 0 and s >= 2:
            out.append(("Zs0", gv((Z(a, b, s + 1, 0), 1), (Z(a, b, s - 1, -1), 1))))
        if r == s and s >= 2:
            out.append(("Zss", gv((Z(a, b, s - 1, s - 1), 1), (Z(a, b, s + 1, s), 1))))
        if r not in (0, s) and s >= 2:
            if r == 1:
                out.append(("Zt1", gv((R(a, -b, s, 0), 1), (Z(a, b, s + 1, 1), 1))))
            elif r == s + 1:
                out.append(("Zts+1", gv((R(a, -b, s, s), 1), (Z(a, b, s - 1, s), 1))))
            else:
                out.append(("Zt", gv((Z(a, b, s + 1, r), 1), (Z(a, -b, s, r - 1), 1),
                                     (Z(a, b, s - 1, r - 1), 1))))
    else:
        if (s, r) == (2, 0):
            out.append(("x:R20", gv((R(a, b, 3, 0), 1), (Z(a, b, 1, -1), 2), (Z(a, -b, 2, -1), 1))))
        if (s, r) == (1, 0):
            out.append(("x:R10", gv((R(a, b, 2, 0), 1), (Z(a, -b, 1, -1), 1), (Z(a, b, 2, 1), 1))))
        if (s, r) == (1, 1):
            out.append(("x:R11", gv((R(a, -b, 1, 0), 1), (Z(a, b, 2, 1), 2), (Z(a, -b, 3, 2), 1))))
        if r == 0 and s >= 3:
            out.append(("Rs0", gv((R(a, b, s + 1, 0), 1), (Z(a, b, s - 1, -1), 2),
                                  (Z(a, -b, s, -1), 1), (Z(a, -b, s - 2, -1), 1))))
        if r == s and s >= 2:
            out.append(("Rss", gv((R(a, b, s - 1, s - 1), 1), (Z(a, b, s + 1, s), 2),
                                  (Z(a, -b, s + 2, s + 1), 1), (Z(a, -b, s, s - 1), 1))))
    return out


def _dispatch(x: Label, rules) -> GrothVector:
    exceptional = [rule for name, rule in rules if name.startswith("x:")]
    regular = [rule for name, rule in rules if not name.startswith("x:")]
    hits = exceptional or regular
    if len(hits) != 1:
        raise AssertionError(f"fusion dispatch for {x}: {len(hits)} rules fired")
    return hits[0]


@lru_cache(maxsize=8192)
def _fused_with_v(x: Label, alpha2: int, beta2: int) -> tuple[tuple[Label, int], ...]:
    """The rule table's decomposition as items, memoised per label (see the
    module docstring for the bound)."""
    a, b = x.alpha * alpha2, x.beta * beta2
    return tuple(_dispatch(x, _rules_with_v(x, a, b)).items())


def fuse_with_v(x: Label, alpha2: int = 1, beta2: int = 1) -> GrothVector:
    """Tensor with the dual fundamental module Z^{alpha2,beta2}_{2,0};
    memoised, and every call returns a fresh vector."""
    return GrothVector(_fused_with_v(x, alpha2, beta2))


def _dual_vector(v) -> GrothVector:
    """The contragredient of every summand; dual is a bijection on labels."""
    return GrothVector({dual(x): mult for x, mult in v.items()})


def fuse_with_f(x: Label, alpha2: int = 1, beta2: int = -1) -> GrothVector:
    """Tensor with the fundamental module Z^{alpha2,beta2}_{1,1}: the dual of
    x* (x) Z^{alpha2,-beta2}_{2,0}."""
    return _dual_vector(fuse_with_v(dual(x), alpha2, -beta2))


def _next_content(v) -> MappingProxyType:
    """The content of a chain one dual fundamental module longer than v: the
    memoised items of each label of v, summed with no vector per label."""
    out: dict = {}
    for label, mult in v.items():
        for w, wm in _fused_with_v(label, 1, 1):
            out[w] = out.get(w, 0) + mult * wm
    return MappingProxyType(dict(sorted_labels(out)))


_EMPTY_CHAIN = MappingProxyType({Z(1, 1, 1, 0): 1})  # the trivial module


@lru_cache(maxsize=4)
def _chain_head(k: int) -> MappingProxyType:
    """The content of 3bar^k, the (0, k) chain, built from 3bar^(k-1).  A
    column head (m, 0) of a sweep is its dual, so each head is one fusion
    step from the one before it."""
    return _next_content(_chain_head(k - 1)) if k else _EMPTY_CHAIN


@lru_cache(maxsize=4)
def chain_content(m: int, n: int) -> MappingProxyType:
    """Indecomposable content of the m,n mixed chain as a read-only mapping,
    memoised and shared by every caller.

    (m, n) is built from (m, n-1), and (m, 0) is the dual of 3bar^m
    (`_chain_head`), so one context computes each of up to m+n+2 contexts
    once.  A sweep visits the contexts column by column, so (m, n-1) is the
    context read just before (m, n), and 4 contexts keep it at one miss per
    context."""
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    if n:
        return _next_content(chain_content(m, n - 1))
    if m:
        # 3^m is the dual of 3bar^m
        return MappingProxyType(dict(sorted_labels(_dual_vector(_chain_head(m)))))
    return _EMPTY_CHAIN


def chain_decompose(m: int, n: int) -> GrothVector:
    """Indecomposable content of the m,n mixed chain, as a fresh vector."""
    return GrothVector(chain_content(m, n))


def _label_sort_key(x: Label):
    return (isinstance(x, RLabel), x.s, x.r, x.alpha, x.beta)


def sorted_labels(v: dict) -> list[tuple[Label, int]]:
    return sorted(v.items(), key=lambda kv: _label_sort_key(kv[0]))
