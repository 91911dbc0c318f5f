"""Explicit matrices of the simple and projective modules of the rank-(2|1)
quantum supergroup, and their relation checker.

A simple module is built on its gl(2)-blocks (`labels.blocks`): E, F, K, k
act inside each block and the two fermionic generators move between them.
A projective cover is glued from the builds of its four simple subquotients
(`labels.proj_subquotients`) along its diamond Loewy graph; the gluing maps
and edge constants are hard data below.  Every module is a weight module:
its Cartan generators K, Kinv, k and kinv are `sparse.DiagonalMatrix`
weight lists, and a cover's lists are the concatenation of its
subquotients'.  Every entry a builder stores passes through one bounded
interning memo (`_shared`), so equal scalars of the memoised modules are
one shared object.  `relation_residuals` checks every defining relation as
an exact matrix identity over Q(q): a relation with a Cartan factor is a
condition on weights and is checked entry by entry from the weight lists
(`cartan_weights`), the others by sparse products.  The builders
`build_simple` and `build_projective` are memoised in bounded LRU caches.
The labels themselves, and all that is read off them alone, live in
`labels`, which needs no scalar and no matrix.
"""

from __future__ import annotations

from functools import lru_cache

from .labels import R, Z  # re-exported only because perfbench/ops.py imports them from here
from .labels import RLabel, ZLabel, blocks, proj_subquotients
from .qarith import MINUS_ONE, ONE, Q, QINV, ZERO, QScalar, qint, qpow
from .sparse import DiagonalMatrix, SparseMatrix


class UnsupportedLabel(ValueError):
    pass


MAX_SPIN = 400  # guard for explicit matrix construction


# ---------------------------------------------------------------------------
# explicit representations
# ---------------------------------------------------------------------------

GENERATORS = ("E", "F", "K", "Kinv", "k", "kinv", "B", "C")
CARTAN = ("K", "Kinv", "k", "kinv")


@lru_cache(maxsize=4096)
def _shared(v: QScalar) -> QScalar:
    """The first-stored scalar equal to v.  Scalars are immutable, so the
    builders store this one object for every equal entry; a module sweep
    to spin 5 stores 183 distinct values."""
    return v


def _share_entries(mat: SparseMatrix) -> SparseMatrix:
    """mat with each entry replaced, in place, by its shared equal."""
    for row in mat.rows.values():
        for c in row:
            row[c] = _shared(row[c])
    return mat


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
    nonempty = [blk for blk in blocks(z) if blk.size > 0]
    offs = {}
    basis = []
    dim = 0
    for blk in nonempty:
        offs[blk.name] = dim
        basis.extend((blk.name, i) for i in range(blk.size))
        dim += blk.size
    mats = {g: SparseMatrix(dim, dim) for g in GENERATORS if g not in CARTAN}
    weights = {g: [] for g in CARTAN}
    for blk in nonempty:
        off = offs[blk.name]
        for i in range(blk.size):
            kK = qpow(blk.size - 1 - 2 * i, blk.alpha)
            kk = qpow(i - blk.roff, blk.keff)
            for g, v in (("K", kK), ("Kinv", kK.invert()), ("k", kk), ("kinv", kk.invert())):
                weights[g].append(_shared(v))
            if i + 1 < blk.size:
                mats["F"].set(off + i + 1, off + i, ONE)
            if i > 0:
                coeff = qint(i) * qint(blk.size - i)
                if blk.alpha < 0:
                    coeff = MINUS_ONE * coeff
                mats["E"].set(off + i - 1, off + i, coeff)
    bmaps, cmaps = _fermion_maps(z)
    sizes = {blk.name: blk.size for blk in nonempty}
    for gen, maps in (("B", bmaps), ("C", cmaps)):
        for src, dst, fn in maps:
            if src not in offs or dst not in offs:
                continue
            for i in range(sizes[src]):
                j, coeff = fn(i)
                if 0 <= j < sizes[dst] and coeff:
                    mats[gen].set(offs[dst] + j, offs[src] + i, coeff)
    mats = {g: DiagonalMatrix(weights[g]) if g in CARTAN else _share_entries(mats[g])
            for g in GENERATORS}
    return ExplicitRep(z, dim, basis, mats, [blk.gl2 for blk in nonempty])


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
    mats = {g: SparseMatrix(dim, dim) for g in GENERATORS if g not in CARTAN}
    for g in mats:
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
    mats = {g: DiagonalMatrix([v for rep in reps for v in cartan_weights(rep, g)])
            if g in CARTAN else _share_entries(mats[g]) for g in GENERATORS}
    return ExplicitRep(rl, dim, basis, mats, [g for rep in reps for g in rep.gl2])


def build_rep(label) -> ExplicitRep:
    return build_simple(label) if isinstance(label, ZLabel) else build_projective(label)


# ---------------------------------------------------------------------------
# weights and defining relations
# ---------------------------------------------------------------------------

def cartan_weights(rep: ExplicitRep, gen: str) -> list:
    """The diagonal of the Cartan generator `gen` of `rep`, as a list.

    A `DiagonalMatrix` hands over its own list (to be read only); a plain
    `SparseMatrix` is scanned, and any entry off its diagonal raises
    ValueError, as the relation checks and weights below read the diagonal
    alone."""
    mat = rep.mats[gen]
    if (mat.nrows, mat.ncols) != (rep.dim, rep.dim):
        raise ValueError(f"{gen} of {rep.label} is {mat.nrows}x{mat.ncols}, not {rep.dim}x{rep.dim}")
    if isinstance(mat, DiagonalMatrix):
        return mat.diag
    for r, c, _ in mat.entries():
        if r != c:
            raise ValueError(f"{gen} of {rep.label} is not diagonal: entry at ({r}, {c})")
    return [v or ZERO for v in mat.diagonal()]


def _weight_residual(x: SparseMatrix, left: list, right: list, c: QScalar) -> SparseMatrix:
    """diag(left) X - c X diag(right), entry by entry: (left_i - c right_j) X_ij.

    The scalars form a field, so an entry is zero exactly where its weight
    factor is, which on a weight module is every entry."""
    shifted = [c * v for v in right]
    out = SparseMatrix(x.nrows, x.ncols)
    for r, row in x.rows.items():
        d = left[r]
        acc = {}
        for col, v in row.items():
            w = d - shifted[col]
            if w:
                acc[col] = w * v
        if acc:
            out.rows[r] = acc
    return out


def _minus_weights(mat: SparseMatrix, left: list, right: list, s: QScalar) -> SparseMatrix:
    """mat - s (diag(left) - diag(right)), in place."""
    for i, (a, b) in enumerate(zip(left, right)):
        v = (a - b) * s
        if v:
            mat.add_to(i, i, -v)
    return mat


def relation_residuals(rep: ExplicitRep) -> dict[str, SparseMatrix]:
    """Residual matrices of all defining relations; all must be zero.

    The relations with a Cartan factor are read off the weight lists: for
    diagonal K, K X - c X K' has entries (K_i - c K'_j) X_ij, and the
    Cartan terms of EF and BC are diagonal.  Only E, F, B and C are
    multiplied, 20 sparse products in all; the Serre relations share
    F B, B F, E C and C E."""
    E, F, B, C = (rep.mats[g] for g in ("E", "F", "B", "C"))
    if any((x.nrows, x.ncols) != (rep.dim, rep.dim) for x in (E, F, B, C)):
        raise ValueError(f"E, F, B and C of {rep.label} must be {rep.dim}x{rep.dim}")
    K, Kinv, k, kinv = (cartan_weights(rep, g) for g in CARTAN)
    inv_qmq = (Q - QINV).invert()
    two = qint(2)
    FB, BF, EC, CE = F * B, B * F, E * C, C * E
    return {
        "K_Kinv": DiagonalMatrix([a * b - ONE for a, b in zip(K, Kinv)]),
        "k_kinv": DiagonalMatrix([a * b - ONE for a, b in zip(k, kinv)]),
        "KF": _weight_residual(F, K, K, qpow(-2)),
        "KE": _weight_residual(E, K, K, qpow(2)),
        "EF": _minus_weights(E * F - F * E, K, Kinv, inv_qmq),
        "kF": _weight_residual(F, k, k, Q),
        "kE": _weight_residual(E, k, k, QINV),
        "kK": SparseMatrix(rep.dim, rep.dim),  # diagonal matrices commute
        "kB": _weight_residual(B, k, k, MINUS_ONE),
        "KB": _weight_residual(B, K, K, Q),
        "kC": _weight_residual(C, k, k, MINUS_ONE),
        "KC": _weight_residual(C, K, K, QINV),
        "BB": B * B,
        "CC": C * C,
        "BC": _minus_weights(B * C - C * B, k, kinv, inv_qmq),
        "FC": F * C - C * F,
        "BE": B * E - E * B,
        "serreF": F * FB - (FB * F).scale(two) + BF * F,
        "serreE": E * EC - (EC * E).scale(two) + CE * E,
    }


def check_relations(rep: ExplicitRep) -> list[str]:
    """Names of failing relations (empty = all defining relations hold)."""
    return [name for name, res in relation_residuals(rep).items() if not res.is_zero()]


def weight_multiset(rep: ExplicitRep) -> dict[tuple[QScalar, QScalar], int]:
    """Joint (K, k) eigenvalue pairs with multiplicities."""
    out: dict[tuple[QScalar, QScalar], int] = {}
    for a, b in zip(cartan_weights(rep, "K"), cartan_weights(rep, "k")):
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
