"""Simple and projective modules of the rank-(2|1) quantum supergroup.

Simple modules Z^{a,b}_{s,r} (signs a, b, spin s >= 1, charge r) come in an
atypical family with r = 0, one with r = s, and typicals otherwise.  Each
decomposes into gl(2)-blocks; the two fermionic generators move between the
blocks while E, F, K, k act inside them.  Projective covers R^{a,b}_{s,r}
of the atypicals are glued from four simple subquotients along a diamond
Loewy graph; the gluing maps and edge constants are hard data below, and
`relation_residuals` checks every defining relation as an exact matrix
identity.

`dual` maps a label to the label of its contragredient module; the fusion
layer derives tensoring with the fundamental module from tensoring with its
dual through it.

The alternate label alphabet (barred labels, indexed by parity p and a pair
(t, r) with t*r = 0 on the atypical locus) used by the bimodule layer is
also translated here.  Its mirror `gbar`, which swaps t and r, is the
duality read in that alphabet, and the barred cover subquotients are the
plain ones translated.

Every label class here (`ZLabel`, `RLabel`, `BarLabel`, `GL2Label`) is a
`tagged.TaggedTuple`: immutable, hashed and compared in C, ordered by its
fields within the class, and never equal to a label of another class with
the same fields.  The factories `Z`, `R` and `bar` validate and build the
tuple directly.  The translation `bar_to_plain` and the builders
`build_simple` and `build_projective` are memoised in bounded LRU caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .qarith import MINUS_ONE, ONE, Q, QINV, QScalar, qint, qpow
from .sparse import SparseMatrix
from .tagged import TaggedTuple


class UnsupportedLabel(ValueError):
    pass


MAX_SPIN = 400  # guard for explicit matrix construction


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


def is_atypical(z: ZLabel) -> bool:
    return z.r in (0, z.s)


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
    else:
        z = Z(a, b, s, s - r)
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


@lru_cache(maxsize=1024)
def bar_to_plain(b: BarLabel):
    """The plain label of a barred one; memoised per label, bounded like the
    other per-label memos of the label sweeps."""
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


def bar_cover(z: BarLabel) -> BarLabel:
    """Projective cover in bar coordinates; same (p, t, r)."""
    if z.kind != "Z":
        raise ValueError("cover of a non-simple label")
    if z.t != 0 and z.r != 0:
        raise ValueError(f"{z} is typical")
    return bar("R", z.p, z.t, z.r)


def bar_subquotients(b: BarLabel) -> list[BarLabel]:
    """[top, left, right, bottom] of a barred projective cover."""
    if b.kind != "R":
        return [b]
    return [plain_to_bar(z) for z in proj_subquotients(bar_to_plain(b))]


def dim_bar(b: BarLabel) -> int:
    return dim_label(bar_to_plain(b))


def gbar(b: BarLabel) -> BarLabel:
    """Mirror image: swaps the (t, r) coordinates."""
    return bar(b.kind, b.p, b.r, b.t)


# ---------------------------------------------------------------------------
# gl(2) block data
# ---------------------------------------------------------------------------

class GL2Label(TaggedTuple, fields="alpha beta s r"):
    __slots__ = ()

    def __repr__(self):
        return f"X[{self.alpha},{self.beta};{self.s},{self.r}]"


@dataclass(frozen=True)
class _Block:
    """One gl(2) block of a simple module in its stored basis.

    K w_i = alpha q^(size-1-2i) w_i and k w_i = keff q^(i-roff) w_i.  The
    sign keff differs from the reported gl(2) label on the fermion-image
    block of the r = 0 family: k anticommutes with the fermions, so the
    realized eigenvalues there carry an extra minus sign.
    """

    name: str
    size: int
    alpha: int
    keff: int
    roff: int
    gl2: GL2Label


def _blocks(z: ZLabel) -> list[_Block]:
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
        return [blk.gl2 for blk in _blocks(x) if blk.size > 0]
    out = []
    for sub in proj_subquotients(x):
        out.extend(gl2_decomposition(sub))
    return out


# ---------------------------------------------------------------------------
# explicit representations
# ---------------------------------------------------------------------------

GENERATORS = ("E", "F", "K", "Kinv", "k", "kinv", "B", "C")


class ExplicitRep:
    """Generator matrices in a fixed basis, immutable after construction."""

    __slots__ = ("label", "dim", "basis", "mats", "gl2")

    def __init__(self, label, dim, basis, mats, gl2):
        self.label = label
        self.dim = dim
        self.basis = basis
        self.mats = mats
        self.gl2 = gl2

    def __repr__(self):
        return f"ExplicitRep({self.label}, dim={self.dim})"


def _fermion_maps(z: ZLabel):
    """B and C as lists of (src_block, dst_block, fn index -> (index, coeff))."""
    b, s, r = z.beta, z.s, z.r
    bq = QScalar.const(b)
    if r == 0:
        B = [("phi", "beta", lambda n: (n - 1, -qint(n)))]
        C = [("beta", "phi", lambda m: (m + 1, bq))]
        return B, C
    if r == s:
        B = [("phi", "beta", lambda n: (n, qint(s - n)))]
        C = [("beta", "phi", lambda m: (m, bq))]
        return B, C
    inv_s = qint(s).invert()
    qr = qint(r)
    B = [
        ("phi", "down", lambda j: (j - 1, qint(j) * inv_s)),
        ("phi", "up", lambda j: (j, bq * qr * qint(s - j) * inv_s)),
        ("up", "beta", lambda m: (m - 1, qint(m))),
        ("down", "beta", lambda n: (n, bq * qr * qint(n + 1 - s))),
    ]
    C = [
        ("up", "phi", lambda m: (m, ONE)),
        ("down", "phi", lambda n: (n + 1, bq * qint(r - s))),
        ("beta", "down", lambda j: (j, inv_s)),
        ("beta", "up", lambda j: (j + 1, bq * qint(s - r) * inv_s)),
    ]
    return B, C


@lru_cache(maxsize=256)
def build_simple(z: ZLabel) -> ExplicitRep:
    """Generator matrices of a simple module in its gl(2)-adapted basis.

    Memoised: a cover is glued from its four simple subquotients, which a
    module sweep also builds on their own; 256 labels hold every simple of
    spin <= 5 (200 of them)."""
    if z.s > MAX_SPIN:
        raise UnsupportedLabel(f"spin {z.s} exceeds the build bound {MAX_SPIN}")
    blocks = [blk for blk in _blocks(z) if blk.size > 0]
    offs = {}
    basis = []
    dim = 0
    for blk in blocks:
        offs[blk.name] = dim
        basis.extend((blk.name, i) for i in range(blk.size))
        dim += blk.size
    mats = {g: SparseMatrix(dim, dim) for g in GENERATORS}
    for blk in blocks:
        off = offs[blk.name]
        for i in range(blk.size):
            kK = qpow(blk.size - 1 - 2 * i, blk.alpha)
            kk = qpow(i - blk.roff, blk.keff)
            mats["K"].set(off + i, off + i, kK)
            mats["Kinv"].set(off + i, off + i, kK.invert())
            mats["k"].set(off + i, off + i, kk)
            mats["kinv"].set(off + i, off + i, kk.invert())
            if i + 1 < blk.size:
                mats["F"].set(off + i + 1, off + i, ONE)
            if i > 0:
                coeff = qint(i) * qint(blk.size - i)
                if blk.alpha < 0:
                    coeff = MINUS_ONE * coeff
                mats["E"].set(off + i - 1, off + i, coeff)
    bmaps, cmaps = _fermion_maps(z)
    sizes = {blk.name: blk.size for blk in blocks}
    for gen, maps in (("B", bmaps), ("C", cmaps)):
        for src, dst, fn in maps:
            if src not in offs or dst not in offs:
                continue
            for i in range(sizes[src]):
                j, coeff = fn(i)
                if 0 <= j < sizes[dst] and coeff:
                    mats[gen].set(offs[dst] + j, offs[src] + i, coeff)
    return ExplicitRep(z, dim, basis, mats, [blk.gl2 for blk in blocks])


# --- extension maps between adjacent atypical simples ----------------------
#
# Each map mixes two stored simple modules; boundary indices fall outside
# the target block and are dropped.  The one-dimensional module enters via
# its stored avatar Z(a, -b, 1, 0), whose single basis vector plays the role
# of the missing "beta_0" vector of the (0,0)-point of the r = s family.

def _stored_index(rep: ExplicitRep, tag: str, i: int) -> int | None:
    try:
        return rep.basis.index((tag, i))
    except ValueError:
        return None


def _xi_matrix(src: ExplicitRep, dst: ExplicitRep, entries) -> SparseMatrix:
    m = SparseMatrix(dst.dim, src.dim)
    for (stag, si), (dtag, di), coeff in entries:
        a = _stored_index(src, stag, si)
        b = _stored_index(dst, dtag, di)
        if a is not None and b is not None and coeff:
            m.set(b, a, coeff)
    return m


def xi_map(family: str, src: ExplicitRep, dst: ExplicitRep) -> SparseMatrix:
    """The extension map of the given family between two stored simples.

    Families: "b_up"   r=0 ladder going s -> s+1 (generator B),
              "c_down" r=0 ladder going s -> s-1 (generator C),
              "b_down" r=s ladder going s -> s-1 (generator B),
              "c_up"   r=s ladder going s -> s+1 (generator C).
    """
    entries = []
    if family == "b_up":
        s = src.label.s
        entries += [(("phi", m), ("phi", m), -qint(s - m)) for m in range(s)]
        entries += [(("beta", m), ("beta", m), qint(s - m - 1)) for m in range(s - 1)]
    elif family == "c_down":
        s = src.label.s
        entries += [(("phi", m), ("phi", m), ONE) for m in range(s)]
        entries += [(("beta", m), ("beta", m), ONE) for m in range(s - 1)]
    elif family == "b_down":
        s = src.label.s
        if s == 1:
            # target is the one-dimensional module: beta_1 -> [1] * beta^(0,0)_0
            entries.append((("beta", 1), ("phi", 0), qint(1)))
        else:
            entries += [(("phi", m), ("phi", m - 1), -qint(m)) for m in range(1, s)]
            entries += [(("beta", m), ("beta", m - 1), qint(m)) for m in range(1, s + 1)]
    elif family == "c_up":
        if src.label.r == 0:
            # source is the stored avatar of the (0,0)-point
            entries.append((("phi", 0), ("beta", 1), ONE))
        else:
            s = src.label.s
            entries += [(("phi", m), ("phi", m + 1), ONE) for m in range(s)]
            entries += [(("beta", m), ("beta", m + 1), ONE) for m in range(s + 1)]
    else:
        raise ValueError(f"unknown extension family {family!r}")
    return _xi_matrix(src, dst, entries)


def _proj_edges(rl: RLabel):
    """Loewy edges (src_slot, dst_slot, generator, family, coefficient)."""
    s = rl.s
    if rl.r == 0:
        if s == 1:
            return [
                (0, 1, "B", "b_up", ONE),
                (0, 2, "C", "c_up", MINUS_ONE),
                (1, 3, "C", "c_down", ONE),
                (2, 3, "B", "b_down", ONE),
            ]
        return [
            (0, 1, "B", "b_up", -qint(s - 1)),
            (0, 2, "C", "c_down", -qint(s)),
            (1, 3, "C", "c_down", ONE),
            (2, 3, "B", "b_up", ONE),
        ]
    return [
        (0, 1, "C", "c_up", -qint(s)),
        (0, 2, "B", "b_down", -qint(s + 1)),
        (1, 3, "B", "b_down", ONE),
        (2, 3, "C", "c_up", ONE),
    ]


@lru_cache(maxsize=64)
def build_projective(rl: RLabel) -> ExplicitRep:
    """Generator matrices of a projective cover on its four Loewy
    subquotients.  Memoised; 64 labels hold every cover of spin <= 4 (32)."""
    if rl.s > MAX_SPIN:
        raise UnsupportedLabel(f"spin {rl.s} exceeds the build bound {MAX_SPIN}")
    slots = proj_subquotients(rl)
    reps = [build_simple(lbl) for lbl in slots]
    offs = []
    dim = 0
    basis = []
    slot_names = ("top", "left", "right", "bot")
    for name, rep in zip(slot_names, reps):
        offs.append(dim)
        basis.extend((name,) + tag for tag in rep.basis)
        dim += rep.dim
    mats = {g: SparseMatrix(dim, dim) for g in GENERATORS}
    for g in GENERATORS:
        for idx, rep in enumerate(reps):
            off = offs[idx]
            for r_, c_, v in rep.mats[g].entries():
                mats[g].set(off + r_, off + c_, v)
    for src, dst, gen, family, coeff in _proj_edges(rl):
        xi = xi_map(family, reps[src], reps[dst])
        for r_, c_, v in xi.entries():
            mats[gen].add_to(offs[dst] + r_, offs[src] + c_, v * coeff)
    # the extra top-to-bottom map
    s, b = rl.s, rl.beta
    if rl.r == 0:
        for n in range(1, s):
            r_ = _stored_index(reps[3], "beta", n - 1)
            c_ = _stored_index(reps[0], "phi", n)
            if r_ is not None and c_ is not None:
                mats["B"].add_to(offs[3] + r_, offs[0] + c_, qpow(0, -b) * qint(n))
    else:
        for n in range(s + 1):
            r_ = _stored_index(reps[3], "phi", n)
            c_ = _stored_index(reps[0], "beta", n)
            if r_ is not None and c_ is not None:
                mats["C"].add_to(offs[3] + r_, offs[0] + c_, ONE)
    return ExplicitRep(rl, dim, basis, mats, [g for rep in reps for g in rep.gl2])


def build_rep(label) -> ExplicitRep:
    return build_simple(label) if isinstance(label, ZLabel) else build_projective(label)


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------

def relation_residuals(rep: ExplicitRep) -> dict[str, SparseMatrix]:
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


def check_relations(rep: ExplicitRep) -> list[str]:
    """Names of failing relations (empty = all defining relations hold)."""
    return [name for name, res in relation_residuals(rep).items() if not res.is_zero()]


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def weight_multiset(rep: ExplicitRep) -> dict[tuple[QScalar, QScalar], int]:
    """Joint (K, k) eigenvalue pairs with multiplicities."""
    out: dict[tuple[QScalar, QScalar], int] = {}
    Kd = rep.mats["K"].diagonal()
    kd = rep.mats["k"].diagonal()
    for a, b in zip(Kd, kd):
        key = (a, b)
        out[key] = out.get(key, 0) + 1
    return out


def weight_multiset_tensor(rep1: ExplicitRep, rep2: ExplicitRep):
    """Weights of the tensor product: K and k are group-like."""
    out: dict[tuple[QScalar, QScalar], int] = {}
    w1 = weight_multiset(rep1)
    w2 = weight_multiset(rep2)
    for (a1, b1), m1 in w1.items():
        for (a2, b2), m2 in w2.items():
            key = (a1 * a2, b1 * b2)
            out[key] = out.get(key, 0) + m1 * m2
    return out


# fundamental modules of the chain
THREE = Z(1, -1, 1, 1)
THREE_BAR = Z(1, 1, 2, 0)
