"""Explicit chain realization: braiding operators and the coproduct action.

The two fundamental three-dimensional modules span the chain; on adjacent
pairs we have the 9x9 operators g (two left factors), h (two right factors)
and the wall contraction e.  Embedded along the chain they generate the
walled Brauer algebra at the specialized parameters (-1, 1/q^2, -1/q^2),
and they commute with the full coproduct action of the quantum supergroup.
Both statements are verified here as exact matrix identities over Q(q);
the eval backend reports whether each exact residual vanishes at its
rational evaluation points.  Each walled-Brauer relation is checked on
its window, the at most four sites its operators touch, and each centralizer
commutator on its operator's window plus one neighbouring site on each side;
both are exact for every (m, n) (see `qwb_relation_residuals` and
`centralizer_residuals`), and each window residual is a function of its
class, memoised for the whole process.  A `ChainContext` is the chain's
shape alone.  A chain operator carries its window; any other matrix handed
to the centralizer check is checked on the whole chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .qarith import MINUS_ONE, ONE, Q, EvalPoint, QScalar, qpow
from .sparse import DiagonalMatrix, SparseMatrix, embed_factor, embed_with_diags
from .tagged import TaggedTuple


class IndexOutOfRange(ValueError):
    pass


class SingularParams(ValueError):
    pass


@dataclass(frozen=True)
class QwbParams:
    gamma: QScalar
    delta: QScalar
    theta: QScalar


@lru_cache(maxsize=1)
def chain_params() -> QwbParams:
    """The specialization realized on the chain: (-1, q^-2, -q^-2).  Built
    once per process and shared, so a residual memo key holding it compares
    by identity."""
    return QwbParams(MINUS_ONE, qpow(-2), qpow(-2, -1))


# ---------------------------------------------------------------------------
# factor matrices in the chain basis
# ---------------------------------------------------------------------------
#
# Chain bases: the left factor uses (f1, f2, f3) = (phi_0, beta_0, beta_1), its
# stored order; the right factor uses (v1, v2, v3) = (beta_0, phi_1, phi_0),
# the reversal of the stored order of the dual fundamental module.

_REVERSED = (2, 1, 0)
# f_i (x) f_j <-> f_j (x) f_i on a pair of sites: index 3(i-1)+(j-1) <-> 3(j-1)+(i-1)
_FLIP = tuple(3 * (k % 3) + k // 3 for k in range(9))


def _permuted(mat: SparseMatrix, perm) -> SparseMatrix:
    """mat with index i read from stored index perm[i]; a diagonal stays one."""
    if isinstance(mat, DiagonalMatrix):
        return DiagonalMatrix([mat.diag[stored] for stored in perm])
    inv = {stored: chain for chain, stored in enumerate(perm)}
    return SparseMatrix(mat.nrows, mat.ncols, {(inv[r], inv[c]): v for r, c, v in mat.entries()})


@lru_cache(maxsize=2)
def factor_matrices(dual: bool) -> dict[str, SparseMatrix]:
    """The generators on the fundamental module (dual=False) or its dual, in
    the chain basis; the Cartan generators are weight lists.  Built once per
    process for each side and shared by every `ChainContext`; callers must
    only read them."""
    # only the coproduct reads the modules: a relations sweep loads no uqmod
    from .labels import THREE, THREE_BAR
    from .uqmod import build_simple

    mats = build_simple(THREE_BAR if dual else THREE).mats
    return {g: _permuted(m, _REVERSED) for g, m in mats.items()} if dual else mats


@lru_cache(maxsize=1)
def fundamental_ops() -> tuple[SparseMatrix, SparseMatrix, SparseMatrix]:
    """The 9x9 operators (g, e, h) in the bases f_i(x)f_j, f_i(x)v_j, v_i(x)v_j.

    h is g conjugated by the factor flip (`_FLIP`): the same spectral
    braiding, on the swapped pair.  Built once per process and shared, with
    the memo key of each (`_factor_key`); every caller must only read them."""
    qm2 = qpow(-2)
    qm1 = qpow(-1)
    lo = qm2 - ONE  # q^-2 - 1
    g = SparseMatrix(9, 9)

    def idx(i, j):
        return 3 * (i - 1) + (j - 1)

    # g: diagonal part
    g.set(idx(1, 1), idx(1, 1), qm2)
    for i, j in ((2, 2), (3, 3)):
        g.set(idx(i, j), idx(i, j), MINUS_ONE)
    # g: swaps with q^-2 - 1 corrections on the lower member of each pair
    for i, j in ((1, 2), (1, 3), (2, 3)):
        g.set(idx(j, i), idx(i, j), -qm1)
        g.set(idx(j, i), idx(j, i), lo)
        g.set(idx(i, j), idx(j, i), -qm1)
    h = _permuted(g, _FLIP)

    # e: rank-one contraction through the wall, image spanned by
    # w = q^2 f1(x)v1 + q f2(x)v2 - f3(x)v3, with column weights (1, -q, 1).
    e = SparseMatrix(9, 9)
    w = ((idx(1, 1), qpow(2)), (idx(2, 2), Q), (idx(3, 3), MINUS_ONE))
    diag = {idx(1, 1): ONE, idx(2, 2): -Q, idx(3, 3): ONE}
    for col, dv in diag.items():
        for row, wv in w:
            e.set(row, col, dv * wv)
    for x in (g, e, h):
        _FUNDAMENTAL_KEYS[id(x)] = (x, _content_key(x))
    return g, e, h


class WindowedOperator(SparseMatrix):
    """1_(3^a) (x) X (x) 1_(3^(nsites-a-w)) on a chain of nsites sites, kept
    as its window (a, w, X); the 3^nsites chain rows are built on first read."""

    __slots__ = ("window", "_chain_rows")

    def __init__(self, nsites: int, a: int, w: int, x: SparseMatrix):
        self.nrows = self.ncols = 3 ** nsites
        self.window = (a, w, x)
        self._chain_rows = None

    @property
    def rows(self) -> dict[int, dict[int, object]]:
        if self._chain_rows is None:
            a, w, x = self.window
            self._chain_rows = embed_factor(x, 3 ** a, self.nrows // 3 ** (a + w)).rows
        return self._chain_rows


class ChainContext:
    """A chain shape and nothing else: m fundamental factors, then n dual
    ones.  Each operator and coproduct is built on every call."""

    def __init__(self, m: int, n: int):
        if m < 0 or n < 0 or m + n < 1:
            raise ValueError("need m, n >= 0 with m + n >= 1")
        self.m, self.n = m, n

    @property
    def nsites(self) -> int:
        return self.m + self.n

    @property
    def dim(self) -> int:
        return 3 ** self.nsites

    def factors(self) -> list[dict[str, SparseMatrix]]:
        return [factor_matrices(dual=False)] * self.m + [factor_matrices(dual=True)] * self.n

    def chain_operator(self, which: str, index: int = 0) -> WindowedOperator:
        """g_j on factors (m-j, m-j+1), h_i on (m+i, m+i+1), e on (m, m+1),
        kept as its two-site window; its chain rows are built on first read."""
        g9, e9, h9 = fundamental_ops()
        m, n = self.m, self.n
        if which == "g":
            if not (1 <= index <= m - 1):
                raise IndexOutOfRange(f"g_{index} needs 1 <= j <= m-1 = {m - 1}")
            first, op = m - index - 1, g9
        elif which == "h":
            if not (1 <= index <= n - 1):
                raise IndexOutOfRange(f"h_{index} needs 1 <= i <= n-1 = {n - 1}")
            first, op = m + index - 1, h9
        elif which == "e":
            if m < 1 or n < 1:
                raise IndexOutOfRange("the wall contraction needs m, n >= 1")
            first, op = m - 1, e9
        else:
            raise ValueError(f"unknown chain operator {which!r}")
        return WindowedOperator(self.nsites, first, 2, op)

    def _diag(self, gen: str, factors: slice) -> list:
        diag = [ONE]
        for f in self.factors()[factors]:
            diag = [a * b for a in diag for b in f[gen].diag]
        return diag

    def quantum_group_action(self, gen: str) -> SparseMatrix:
        """Iterated coproduct action of a generator on the full chain."""
        facs = self.factors()
        N = self.nsites
        if gen in ("K", "Kinv", "k", "kinv"):
            return DiagonalMatrix(self._diag(gen, slice(0, N)))
        # twists: E picks up K on the right, F picks K^-1 on the left,
        # B picks k^-1 on the left, C picks k on the right.
        left_gen = {"E": None, "F": "Kinv", "B": "kinv", "C": None}[gen]
        right_gen = {"E": "K", "F": None, "B": None, "C": "k"}[gen]
        total = SparseMatrix(self.dim, self.dim)
        for p in range(N):
            left = self._diag(left_gen, slice(0, p)) if left_gen else [ONE] * 3 ** p
            right = (self._diag(right_gen, slice(p + 1, N))
                     if right_gen else [ONE] * 3 ** (N - p - 1))
            total = total + embed_with_diags(facs[p][gen], left, right)
        return total

    def operators(self) -> list[tuple[str, SparseMatrix]]:
        ops = []
        for j in range(1, self.m):
            ops.append((f"g{j}", self.chain_operator("g", j)))
        for i in range(1, self.n):
            ops.append((f"h{i}", self.chain_operator("h", i)))
        if self.m >= 1 and self.n >= 1:
            ops.append(("e", self.chain_operator("e")))
        return ops


# ---------------------------------------------------------------------------
# relation and centralizer reports
# ---------------------------------------------------------------------------

class CheckResult(TaggedTuple, fields="relation m n backend ok seconds"):
    __slots__ = ()


def _as_backend(mat: SparseMatrix, point: EvalPoint | None) -> SparseMatrix:
    """The symbolic matrix at q = point; each distinct entry is evaluated once."""
    if point is None:
        return mat
    memo: dict[QScalar, Fraction] = {}

    def value(v: QScalar) -> Fraction:
        x = memo.get(v)
        if x is None:
            x = memo[v] = v.eval_at(point)
        return x

    return mat.map_values(value)


def _at_point(res: SparseMatrix, point: EvalPoint | None) -> SparseMatrix:
    """An exact residual at q = point: a zero residual as it is, else evaluated."""
    return res if point is None or res.is_zero() else _as_backend(res, point)


def _content_key(x: SparseMatrix):
    """Everything a window residual reads of a factor: its size and entries."""
    return x.nrows, frozenset(x.entries())


def _from_key(key) -> SparseMatrix:
    """The factor whose content key (`_content_key`) is key."""
    size, entries = key
    return SparseMatrix(size, size, {(r, c): v for r, c, v in entries})


# id -> (factor, key) for the process-wide fundamental factors, filled once
# by `fundamental_ops`; the factor is held so that its id is never reused
_FUNDAMENTAL_KEYS: dict[int, tuple[SparseMatrix, tuple]] = {}


def _factor_key(x: SparseMatrix):
    """The content key of a factor (`_content_key`).  A fundamental factor
    gets the one key built with it, so a memo hit compares that key by
    identity; any other matrix, a planted factor among them, is keyed by
    its content anew."""
    known = _FUNDAMENTAL_KEYS.get(id(x))
    if known is not None and known[0] is x:
        return known[1]
    return _content_key(x)


def _relation_form(form: str, mats: list, ident: SparseMatrix,
                   params: QwbParams) -> SparseMatrix:
    """The residual of the walled-Brauer relation form on the placed
    operators mats of a window whose identity is ident."""
    gam, dlt = params.gamma, params.delta
    if form == "quad":
        x, = mats
        return (x - ident.scale(gam)) * (x - ident.scale(dlt))
    if form == "comm":
        x, y = mats
        return x * y - y * x
    if form == "braid":
        x, y = mats
        return x * y * x - y * x * y
    if form == "ee":
        ew, = mats
        return ew * ew - ew.scale((params.theta + ONE) / (gam + dlt))
    if form == "sandwich":
        ew, x = mats
        return ew * x * ew - ew
    # eghinv_right and eghinv_left, with h1^-1 from the quadratic relation:
    # h^-1 = (h - (gamma+delta)) / (-gamma delta)
    ew, g1, h1 = mats
    h1inv = (h1 - ident.scale(gam + dlt)).scale((-(gam * dlt)).invert())
    core = ew * g1 * h1inv * ew
    return core * (g1 - h1) if form == "eghinv_right" else (g1 - h1) * core


# 14 relation and 16 x 6 centralizer classes per set of factors and params,
# shared by every backend and read only; the rest is room for planted faults
@lru_cache(maxsize=256)
def _relation_residual(form: str, w: int, placed: tuple, factors: tuple,
                       params: QwbParams | None) -> SparseMatrix:
    """The residual of one relation class over Q(q): the placed operators
    (kind, pos), kind one of g, e and h with the factor keys in factors, on
    a w-site window.  params None stands for `chain_params()`."""
    x9 = dict(zip("geh", map(_from_key, factors)))
    mats = [embed_factor(x9[kind], 3 ** pos, 3 ** (w - pos - 2)) for kind, pos in placed]
    return _relation_form(form, mats, SparseMatrix.identity(3 ** w, ONE),
                          chain_params() if params is None else params)


@lru_cache(maxsize=512)
def _centralizer_residual(shape: tuple, offset: int, xkey: tuple, gen: str) -> SparseMatrix:
    """[X', Delta_sub(gen)] over Q(q) on the sub-chain of the given shape,
    with X' the factor keyed xkey placed at site offset."""
    x = _from_key(xkey)
    sub = ChainContext(*shape)
    xs = embed_factor(x, 3 ** offset, sub.dim // (3 ** offset * x.nrows))
    gmat = sub.quantum_group_action(gen)
    return xs * gmat - gmat * xs


def qwb_relation_residuals(ctx: ChainContext, params: QwbParams,
                           point: EvalPoint | None = None):
    """Yield (name, residual) for every walled-Brauer relation on the chain.

    Each residual is computed on its window, not on all 3^(m+n) sites.  The
    window is the sorted union of the two-site supports of the relation's
    operators (g_j on sites (m-j-1, m-j), h_i on (m+i-1, m+i), e on
    (m-1, m)), at most four sites; an operator whose first site is at
    position pos of a w-site window is 1_(3^pos) (x) X (x) 1_(3^(w-pos-2)),
    with X its 9x9 matrix.  This is exact: the two sites of each operator
    are consecutive integers, so they stay adjacent in the sorted union, and
    with sigma the site permutation that moves the window to the front (in
    order) every operator of the relation is sigma (X_window (x) 1) sigma^-1
    on the chain.  Conjugation and tensoring with an identity are algebra
    homomorphisms, so the chain residual is sigma (R (x) 1) sigma^-1 with R
    the window residual, and since tensoring with an identity is injective
    it is zero exactly when R is.  No matrix larger than 81x81 is built.

    A window residual depends only on its class: the relation's form, the
    window size and its operators' kinds and positions in the window, given
    the three 9x9 factors and the params.  So it is a function of its class
    key, `_relation_residual`, computed over Q(q) for every backend and
    memoised for the whole process.  The key holds the factors' content
    keys and the params (None for the shared `chain_params()`, so a hit
    hashes no scalar); a miss rebuilds the factors from their keys and
    embeds them in the window.

    At a point p each residual is the exact one evaluated at p (`_at_point`).
    That is the residual computed over Q at p: evaluation at p is a ring
    homomorphism on the scalars with no pole at p, and every scalar the
    residual is built from is one (the factor entries are Laurent
    polynomials, and p is checked to be no pole of the params, of
    1/(gamma + delta) or, for the relations that use h1^-1, of
    1/(gamma delta)).
    """
    m, n = ctx.m, ctx.n
    if point is not None:
        gam_p, dlt_p, _ = (x.eval_at(point) for x in (params.gamma, params.delta, params.theta))
        if not gam_p + dlt_p:
            raise SingularParams("gamma + delta = 0")
    if not params.gamma + params.delta:
        raise SingularParams("gamma + delta = 0")
    factors = tuple(_factor_key(x) for x in fundamental_ops())
    given = None if params is chain_params() else params

    def residual(form, *ops):
        # first sites: g_j at m-j-1, h_i at m+i-1, e (index 0) at m-1
        firsts = [m - 1 - index if kind == "g" else m - 1 + index for kind, index in ops]
        sites = sorted({f + d for f in firsts for d in (0, 1)})
        placed = tuple((kind, sites.index(f)) for (kind, _), f in zip(ops, firsts))
        return _at_point(_relation_residual(form, len(sites), placed, factors, given), point)

    g, h, e = range(1, m), range(1, n), ("e", 0)
    for j in g:
        yield f"quad_g{j}", residual("quad", ("g", j))
    for i in h:
        yield f"quad_h{i}", residual("quad", ("h", i))
    for j in g:
        for i in h:
            yield f"comm_g{j}_h{i}", residual("comm", ("g", j), ("h", i))
    for j1 in g:
        for j2 in g:
            if j2 - j1 > 1:
                yield f"comm_g{j1}_g{j2}", residual("comm", ("g", j1), ("g", j2))
    for i1 in h:
        for i2 in h:
            if i2 - i1 > 1:
                yield f"comm_h{i1}_h{i2}", residual("comm", ("h", i1), ("h", i2))
    for j in range(1, m - 1):
        yield f"braid_g{j}", residual("braid", ("g", j), ("g", j + 1))
    for i in range(1, n - 1):
        yield f"braid_h{i}", residual("braid", ("h", i), ("h", i + 1))
    if m >= 1 and n >= 1:
        yield "ee", residual("ee", e)
        if m >= 2:
            yield "ege", residual("sandwich", e, ("g", 1))
        if n >= 2:
            yield "ehe", residual("sandwich", e, ("h", 1))
        for j in g:
            if j >= 2:
                yield f"comm_e_g{j}", residual("comm", e, ("g", j))
        for i in h:
            if i >= 2:
                yield f"comm_e_h{i}", residual("comm", e, ("h", i))
        if m >= 2 and n >= 2:
            if point is not None and not gam_p * dlt_p:
                raise ZeroDivisionError("h1^-1 has a pole at the point: gamma delta = 0")
            ops = (e, ("g", 1), ("h", 1))
            yield "eghinv_right", residual("eghinv_right", *ops)
            yield "eghinv_left", residual("eghinv_left", *ops)


def _timed_results(ctx, point, residuals) -> list[CheckResult]:
    import time

    backend = "symbolic" if point is None else f"eval(q={point.value})"
    out = []
    t0 = time.monotonic()
    for name, res in residuals:
        t1 = time.monotonic()
        out.append(CheckResult(name, ctx.m, ctx.n, backend, res.is_zero(),
                               round(t1 - t0, 6)))
        t0 = t1
    return out


def check_qwb_relations(ctx: ChainContext, params: QwbParams | None = None,
                        point: EvalPoint | None = None) -> list[CheckResult]:
    params = params or chain_params()
    return _timed_results(ctx, point, qwb_relation_residuals(ctx, params, point))


def _operator_window(op: SparseMatrix, nsites: int):
    """(a, w, X) with op = 1_(3^a) (x) X (x) 1_(3^(nsites-a-w)) on consecutive
    sites [a, a+w).  A `WindowedOperator` gives its stored window; any other
    matrix is X = op on the whole chain, which is trivially exact."""
    if isinstance(op, WindowedOperator):
        return op.window
    return 0, nsites, op


def centralizer_residuals(ctx: ChainContext, point: EvalPoint | None = None):
    """Commutators of every chain operator with every coproduct generator.

    Each operator of ctx.operators() is op = 1_(3^a) (x) X (x) 1_(3^b) on
    consecutive sites [a, a+w): a chain operator carries its window, and any
    other matrix is taken on the whole chain (`_operator_window`).  Each
    commutator is computed on the sub-chain [a-1, a+w+1) cut to [0, m+n): the
    window plus one neighbouring site on each side, with the chain's own
    factor on every site, so itself a mixed chain of some shape (m', n').
    The residual is [X', Delta_sub(gen)], with X' the embedding of X.

    This is exact.  K acts as K^(x)(m+n), so [op, Delta(K)] is
    K^(x)a (x) [X, K^(x)w] (x) K^(x)b, zero iff [X, K^(x)w] is; k likewise.
    Delta(E) is the sum over the site p of 1 (x) .. (x) E_p (x) K (x) .. (x) K,
    twisted by K to the right of p.  Split [op, Delta(E)] by p: a term with
    p right of the window is the identity on it and commutes with op; the
    terms with p inside sum to 1 (x) [X, Delta^(w)(E)] (x) K^(x)b; a term with
    p left of the window is 1 (x) E_p (x) K (x) .. (x) [X, K^(x)w] (x) K^(x)b.
    E has zero diagonal on both fundamental modules, so the term of site p
    changes the index digit of site p and no other digit left of the window:
    different p have disjoint supports, and the sum is zero iff each term
    is.  The other factors of each term are E_p or invertible diagonals, so
    the chain residual is zero iff [X, Delta^(w)(E)] is and, when a > 0,
    [X, K^(x)w] is.  The sub-chain residual splits the same way, with at most
    one site on each side of the window, so it is zero under the same two
    conditions.  C (twisted by k to the right) is the same argument, and F
    and B (twisted by K^-1 and k^-1 to the left) are its mirror, with the
    twisted side on the right of the window.

    The chain's own operators have w = 2, so no matrix larger than 81x81 and
    no coproduct on more than four sites is built.  A residual depends only
    on its class: the sub-chain shape, X's offset in it, X's entries and the
    generator.  So it is a function of its class key,
    `_centralizer_residual`, computed over Q(q) for every backend and
    memoised for the whole process: interior g_j and h_i, every context
    after the first few, and every evaluation point share one computation.
    A miss rebuilds X from its content key and builds the sub-chain's
    coproduct afresh.  At a point each residual is the exact one evaluated
    there (`_at_point`), which is the residual over Q at that point, as the
    entries of the chain's operators and coproducts are Laurent polynomials
    (see `qwb_relation_residuals`).
    """
    m, nsites = ctx.m, ctx.nsites
    for opname, op in ctx.operators():
        a, w, x = _operator_window(op, nsites)
        lo, hi = max(a - 1, 0), min(a + w + 1, nsites)
        shape = (max(0, min(hi, m) - lo), max(0, hi - max(lo, m)))
        xkey = _factor_key(x)
        for gen in ("E", "F", "K", "k", "B", "C"):
            yield f"[{opname},{gen}]", _at_point(_centralizer_residual(shape, a - lo, xkey, gen),
                                                 point)


def check_centralizer(ctx: ChainContext, point: EvalPoint | None = None) -> list[CheckResult]:
    return _timed_results(ctx, point, centralizer_residuals(ctx, point))


# ---------------------------------------------------------------------------
# the generated endomorphism algebra, numerically
# ---------------------------------------------------------------------------

def _reduce_against(basis: dict, vec: dict):
    """Row-reduce a flat sparse vector against pivot-indexed basis rows."""
    while vec:
        pivot = min(vec)
        row = basis.get(pivot)
        if row is None:
            lead = vec[pivot]
            basis[pivot] = {k: v / lead for k, v in vec.items()}
            return True
        factor = vec[pivot]
        for k, v in row.items():
            w = vec.get(k, 0) - factor * v
            if w:
                vec[k] = w
            else:
                vec.pop(k, None)
    return False


def endomorphism_algebra_dimension(ctx: ChainContext, point: EvalPoint,
                                   max_dim: int | None = None) -> int:
    """Dimension of the unital algebra generated by the chain operators.

    Computed at a rational evaluation point by closing the linear span of
    {1, g_j, h_i, e} under multiplication.  A non-generic point can only
    undershoot, never overshoot, the generic dimension.
    """
    gens = [SparseMatrix.identity(ctx.dim, Fraction(1))]
    gens += [_as_backend(op, point) for _, op in ctx.operators()]

    def flat(mat):
        return {(r, c): v for r, c, v in mat.entries()}

    basis: dict = {}
    elements: list[SparseMatrix] = []
    queue = list(gens)
    while queue:
        mat = queue.pop()
        if not _reduce_against(basis, flat(mat)):
            continue
        elements.append(mat)
        if max_dim is not None and len(elements) > max_dim:
            raise AssertionError("generated algebra exceeds the expected dimension")
        for g in gens[1:]:
            queue.append(mat * g)
            queue.append(g * mat)
    return len(elements)
