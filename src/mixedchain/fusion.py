"""Label-level fusion with the two fundamental three-dimensional modules.

The complete rule table for tensoring any simple module or projective cover
with the dual fundamental module (s,r) = (2,0), and the iterated
decomposition of the chain built from m copies of the fundamental module
(s,r) = (1,1) and n of its dual.  The guards of the exceptional low-spin
cases (named "x:...") and of the regular families are disjoint, and the
dispatcher insists that exactly one rule fires.  Tensoring with (1,1) needs no table of its own:
Z^{a,b}_{1,1} is the contragredient of Z^{a,-b}_{2,0}, so x (x) Z^{a,b}_{1,1}
is the dual of x* (x) Z^{a,-b}_{2,0}, read through `labels.dual`; likewise
the chain 3^m is the dual of 3bar^m.  `fuse_with_v` reads the rule table
on every call and returns a fresh vector; `_fused_with_v` memoises
x (x) 3bar per label in an LRU cache of 8192 immutable item tuples, the
one fusion memo of the label layer: the chain content and the induction
identities (`bimod.verify_identities`) both read it.  It holds every label
that one chain with m+n <= 60 fuses (at most 4,880, at (58, 2)), and every
label that an identities sweep to m+n = 40 fuses (4,794).  The content of
a context is a field of its record (`labelctx`): an unordered, read-only
multiset; only `decompose` sorts it, to print it.
Multiplicities are positive, so a sum of them is never zero.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .labelctx import context, field
from .labels import R, RLabel, Z, ZLabel, dim_label, dual

Label = ZLabel | RLabel


class GrothVector(dict):
    """Multiset of labels with integer multiplicities, no zero entries:
    the label layer's one signed accumulator."""

    def add(self, label, mult: int = 1) -> None:
        # pop first: a sum that cancels hashes its label once
        new = self.pop(label, 0) + mult
        if new:
            self[label] = new

    def total_dim(self) -> int:
        return sum(m * dim_label(x) for x, m in self.items())


def gv(*pairs) -> GrothVector:
    out = GrothVector()
    for label, mult in pairs:
        out.add(label, mult)
    return out


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
    if len(rules) != 1:
        raise AssertionError(f"fusion dispatch for {x}: {len(rules)} rules fired")
    return rules[0][1]


def fuse_with_v(x: Label, alpha2: int = 1, beta2: int = 1) -> GrothVector:
    """Tensor with the dual fundamental module Z^{alpha2,beta2}_{2,0}, read
    off the rule table on every call, as a fresh vector."""
    return _dispatch(x, _rules_with_v(x, x.alpha * alpha2, x.beta * beta2))


@lru_cache(maxsize=8192)
def _fused_with_v(x: Label) -> tuple[tuple[Label, int], ...]:
    """x (x) 3bar as items, memoised per label for the chain content and
    the induction identities (see the module docstring for the bound)."""
    return tuple(fuse_with_v(x).items())


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
        for w, wm in _fused_with_v(label):
            out[w] = out.get(w, 0) + mult * wm
    return MappingProxyType(out)


_EMPTY_CHAIN = MappingProxyType({Z(1, 1, 1, 0): 1})  # the trivial module


@field
def chain_content(m: int, n: int) -> MappingProxyType:
    """Indecomposable content of the m,n mixed chain as an unordered,
    read-only mapping, shared by every caller.

    A sweep visits the contexts column by column, so the record of (m, n-1)
    holds its content, and (m, n) is one fusion step from it.  Otherwise the
    column is fused up from its head (m, 0), the dual of 3bar^m, with no
    record of the contexts in between."""
    below = vars(context(m, n - 1)) if n else {}
    if "chain_content" in below:
        return _next_content(below["chain_content"])
    content = _EMPTY_CHAIN
    for _ in range(m):  # 3bar^m
        content = _next_content(content)
    if m:  # 3^m is the dual of 3bar^m
        content = MappingProxyType(_dual_vector(content))
    for _ in range(n):
        content = _next_content(content)
    return content


def chain_decompose(m: int, n: int) -> GrothVector:
    """Indecomposable content of the m,n mixed chain, as a fresh vector in
    insertion order; `sorted_labels` gives it in label order."""
    return GrothVector(chain_content(m, n))


def _label_sort_key(x: Label):
    return (isinstance(x, RLabel), x.s, x.r, x.alpha, x.beta)


def sorted_labels(v: dict) -> list[tuple[Label, int]]:
    return sorted(v.items(), key=lambda kv: _label_sort_key(kv[0]))
