"""Labels of the simple and projective modules of the rank-(2|1) quantum
supergroup, and the combinatorics read off them alone.

Simple modules Z^{a,b}_{s,r} (signs a, b, spin s >= 1, charge r) come in an
atypical family with r = 0, one with r = s, and typicals otherwise.  Each
decomposes into gl(2)-blocks (`blocks`), which fix its weights.  Projective
covers R^{a,b}_{s,r} of the atypicals are glued from four simple
subquotients along a diamond Loewy graph (`proj_subquotients`).

`dual` maps a label to the label of its contragredient module; the fusion
layer derives tensoring with the fundamental module from tensoring with its
dual through it.

The alternate label alphabet (barred labels, indexed by parity p and a pair
(t, r) with t*r = 0 on the atypical locus), in which the paper writes the
bimodule, is also translated here.  The bimodule layer computes in plain
labels: it reads its closed forms through `bar_to_plain` and prints
through `plain_to_bar`.

Every label class here (`ZLabel`, `RLabel`, `BarLabel`, `GL2Label`) is a
`tagged.TaggedTuple`: immutable, hashed and compared in C, ordered by its
fields within the class, and never equal to a label of another class with
the same fields.  Its `str` is the label's text form, which the CLI prints
and `cli.parse_label` reads back.  The factories `Z`, `R` and `bar`
validate and build the tuple directly.  The gl(2) blocks
are `TaggedTuple` records too, so this module imports no `dataclasses`.
It needs no scalar and no matrix; the explicit modules are built in
`uqmod`.
"""

from __future__ import annotations

from .tagged import TaggedTuple


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

class ZLabel(TaggedTuple, fields="alpha beta s r"):
    __slots__ = ()

    def __repr__(self):
        return f"Z[{self.alpha},{self.beta};{self.s},{self.r}]"


class RLabel(TaggedTuple, fields="alpha beta s r"):
    __slots__ = ()

    def __repr__(self):
        return f"R[{self.alpha},{self.beta};{self.s},{self.r}]"


# the factories validate, then build the tagged tuple without a constructor frame
_new = tuple.__new__
_Z_TAG, _R_TAG = ZLabel._tag, RLabel._tag


def Z(alpha: int, beta: int, s: int, r: int) -> ZLabel:
    """Simple-module label; the one-dimensional Z^{a,b}_{0,0} is stored as
    Z^{a,-b}_{1,0}."""
    if alpha not in (1, -1) or beta not in (1, -1):
        raise ValueError("signs must be +-1")
    if s == 0:
        if r != 0:
            raise ValueError("s = 0 requires r = 0")
        return _new(ZLabel, (_Z_TAG, alpha, -beta, 1, 0))
    if s < 0:
        raise ValueError("negative spin")
    return _new(ZLabel, (_Z_TAG, alpha, beta, s, r))


def R(alpha: int, beta: int, s: int, r: int) -> RLabel:
    if alpha not in (1, -1) or beta not in (1, -1):
        raise ValueError("signs must be +-1")
    if s < 1 or r not in (0, s):
        raise ValueError(f"no projective cover labelled (s,r)=({s},{r})")
    return _new(RLabel, (_R_TAG, alpha, beta, s, r))


def dim_z(z: ZLabel) -> int:
    if z.r == 0:
        return 2 * z.s - 1
    if z.r == z.s:
        return 2 * z.s + 1
    return 4 * z.s


def dim_r(rl: RLabel) -> int:
    if rl.r == 0:
        return 8 if rl.s == 1 else 8 * rl.s - 4
    return 8 * rl.s + 4


def dim_label(x) -> int:
    return dim_z(x) if isinstance(x, ZLabel) else dim_r(x)


def proj_subquotients(rl: RLabel) -> list[ZLabel]:
    """Loewy subquotients [top, left, right, bottom] of a projective cover."""
    a, b, s = rl.alpha, rl.beta, rl.s
    if rl.r == 0:
        if s == 1:
            return [Z(a, b, 1, 0), Z(a, -b, 2, 0), Z(a, b, 1, 1), Z(a, b, 1, 0)]
        return [Z(a, b, s, 0), Z(a, -b, s + 1, 0), Z(a, -b, s - 1, 0), Z(a, b, s, 0)]
    return [Z(a, b, s, s), Z(a, -b, s + 1, s + 1), Z(a, -b, s - 1, s - 1), Z(a, b, s, s)]


def dual(x):
    """Label of the contragredient module x*.

    Typicals keep (s, r) up to r -> s - r; the two atypical families trade
    places, (s, s) <-> (s + 1, 0) with the sign b flipped, so the trivial
    module Z^{a,b}_{1,0} is self-dual.  A cover goes to the cover of the
    dual of its top.
    """
    a, b, s, r = x.alpha, x.beta, x.s, x.r
    if r == s:
        z = Z(a, -b, s + 1, 0)
    elif r == 0:
        z = Z(a, -b, s - 1, s - 1)
    else:  # only a simple is typical, and its dual is valid as it stands
        return _new(ZLabel, (_Z_TAG, a, b, s, s - r))
    return z if isinstance(x, ZLabel) else R(z.alpha, z.beta, z.s, z.r)


def simple_subquotients(x) -> list[ZLabel]:
    """Composition factors of an indecomposable label (identity on simples)."""
    return [x] if isinstance(x, ZLabel) else proj_subquotients(x)


# ---------------------------------------------------------------------------
# barred label alphabet
# ---------------------------------------------------------------------------

class BarLabel(TaggedTuple, fields="kind p t r"):
    """kind "Z" or "R", parity p stored mod 2, coordinates (t, r)."""

    __slots__ = ()

    def __repr__(self):
        return f"{self.kind}bar[{self.p};{self.t},{self.r}]"


_BAR_TAG = BarLabel._tag


def bar(kind: str, p: int, t: int, r: int) -> BarLabel:
    if kind not in ("Z", "R"):
        raise ValueError("kind must be Z or R")
    if kind == "R" and t != 0 and r != 0:
        raise ValueError("projective bar labels require t = 0 or r = 0")
    return _new(BarLabel, (_BAR_TAG, kind, p % 2, t, r))


def _sign(p: int) -> int:
    return 1 if p % 2 == 0 else -1


def bar_to_plain(b: BarLabel):
    """The plain label of a barred one."""
    if b.kind == "Z":
        if b.r != 0:
            return Z(1, _sign(b.p), b.t + b.r, b.r)
        return Z(1, _sign(b.p + 1), b.t + 1, 0)
    if b.r != 0:
        return R(1, _sign(b.p), b.r, b.r)
    return R(1, _sign(b.p + 1), b.t + 1, 0)


def plain_to_bar(x) -> BarLabel:
    if x.alpha != 1:
        raise ValueError("barred labels cover only alpha = +1 modules")
    kind = "Z" if isinstance(x, ZLabel) else "R"
    if x.r != 0:
        p = 0 if x.beta == 1 else 1
        return bar(kind, p, (x.s - x.r) if kind == "Z" else 0, x.r)
    p = 1 if x.beta == 1 else 0
    return bar(kind, p, x.s - 1, 0)


def dim_bar(b: BarLabel) -> int:
    return dim_label(bar_to_plain(b))


# ---------------------------------------------------------------------------
# gl(2) block data
# ---------------------------------------------------------------------------

class GL2Label(TaggedTuple, fields="alpha beta s r"):
    __slots__ = ()

    def __repr__(self):
        return f"X[{self.alpha},{self.beta};{self.s},{self.r}]"


class _Block(TaggedTuple, fields="name size alpha keff roff gl2"):
    """One gl(2) block of a simple module in its stored basis.

    K w_i = alpha q^(size-1-2i) w_i and k w_i = keff q^(i-roff) w_i.  The
    sign keff differs from the reported gl(2) label on the fermion-image
    block of the r = 0 family: k anticommutes with the fermions, so the
    realized eigenvalues there carry an extra minus sign.
    """

    __slots__ = ()


def blocks(z: ZLabel) -> list[_Block]:
    """The gl(2) blocks of a simple module, in stored order; a block may be
    empty (size 0) at the bottom of a family."""
    a, b, s, r = z.alpha, z.beta, z.s, z.r
    if r == 0:
        return [
            _Block("phi", s, a, b, 0, GL2Label(a, b, s, 0)),
            _Block("beta", s - 1, a, -b, -1, GL2Label(a, b, s - 1, -1)),
        ]
    if r == s:
        return [
            _Block("phi", s, a, b, s, GL2Label(a, b, s, s)),
            _Block("beta", s + 1, a, -b, s, GL2Label(a, -b, s + 1, s)),
        ]
    return [
        _Block("phi", s, a, b, r, GL2Label(a, b, s, r)),
        _Block("up", s + 1, a, -b, r, GL2Label(a, -b, s + 1, r)),
        _Block("down", s - 1, a, -b, r - 1, GL2Label(a, -b, s - 1, r - 1)),
        _Block("beta", s, a, b, r - 1, GL2Label(a, b, s, r - 1)),
    ]


def gl2_decomposition(x) -> list[GL2Label]:
    if isinstance(x, ZLabel):
        return [blk.gl2 for blk in blocks(x) if blk.size > 0]
    out = []
    for sub in proj_subquotients(x):
        out.extend(gl2_decomposition(sub))
    return out


# fundamental modules of the chain
THREE = Z(1, -1, 1, 1)
THREE_BAR = Z(1, 1, 2, 0)
