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
`centralizer_residuals`).  A chain operator carries its window; any other
matrix handed to the centralizer check is checked on the whole chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .labels import THREE, THREE_BAR
from .qarith import MINUS_ONE, ONE, Q, EvalPoint, QScalar, qpow
from .sparse import DiagonalMatrix, SparseMatrix, embed_factor, embed_with_diags
from .uqmod import build_simple


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
# Chain bases: the left factor uses (f1, f2, f3) = (phi_0, beta_0, beta_1);
# the right factor uses (v1, v2, v3) = (beta_0, phi_1, phi_0), i.e. the
# reversal of the stored order of the dual fundamental module.

_PERM_LEFT = (0, 1, 2)
_PERM_RIGHT = (2, 1, 0)


def _permuted(mat: SparseMatrix, perm) -> SparseMatrix:
    inv = {stored: chain for chain, stored in enumerate(perm)}
    out = SparseMatrix(mat.nrows, mat.ncols)
    for r, c, v in mat.entries():
        out.set(inv[r], inv[c], v)
    return out


def factor_matrices(dual: bool) -> dict[str, SparseMatrix]:
    rep = build_simple(THREE_BAR if dual else THREE)
    perm = _PERM_RIGHT if dual else _PERM_LEFT
    return {g: _permuted(m, perm) for g, m in rep.mats.items()}


@lru_cache(maxsize=1)
def fundamental_ops() -> tuple[SparseMatrix, SparseMatrix, SparseMatrix]:
    """The 9x9 operators (g, e, h) in the bases f_i(x)f_j, f_i(x)v_j, v_i(x)v_j.

    Built once per process and shared, with the memo key of each
    (`_factor_key`); every caller must only read them."""
    qm2 = qpow(-2)
    qm1 = qpow(-1)
    lo = qm2 - ONE  # q^-2 - 1
    g = SparseMatrix(9, 9)
    h = SparseMatrix(9, 9)

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
    # h: same spectral projectors, transposed pairing
    h.set(idx(1, 1), idx(1, 1), qm2)
    for i, j in ((2, 2), (3, 3)):
        h.set(idx(i, j), idx(i, j), MINUS_ONE)
    for i, j in ((1, 2), (1, 3), (2, 3)):
        h.set(idx(i, j), idx(i, j), lo)
        h.set(idx(j, i), idx(i, j), -qm1)
        h.set(idx(i, j), idx(j, i), -qm1)

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


@dataclass
class ChainContext:
    """Cached operator store for a fixed chain shape (m left, n right factors)."""

    m: int
    n: int
    _cache: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise ValueError("need m, n >= 0 with m + n >= 1")

    @property
    def nsites(self) -> int:
        return self.m + self.n

    @property
    def dim(self) -> int:
        return 3 ** self.nsites

    def factors(self) -> list[dict[str, SparseMatrix]]:
        if "factors" not in self._cache:
            left = factor_matrices(dual=False)
            right = factor_matrices(dual=True)
            self._cache["factors"] = [left] * self.m + [right] * self.n
        return self._cache["factors"]

    def chain_operator(self, which: str, index: int = 0) -> WindowedOperator:
        """g_j on factors (m-j, m-j+1), h_i on (m+i, m+i+1), e on (m, m+1),
        kept as its two-site window; its chain rows are built on first read."""
        key = (which, index)
        if key in self._cache:
            return self._cache[key]
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
        mat = WindowedOperator(self.nsites, first, 2, op)
        self._cache[key] = mat
        return mat

    def _diag(self, gen: str, factors: slice) -> list:
        mats = self.factors()[factors]
        diag = [ONE]
        for f in mats:
            d = f[gen].diagonal()
            diag = [a * b for a in diag for b in d]
        return diag

    def quantum_group_action(self, gen: str) -> SparseMatrix:
        """Iterated coproduct action of a generator on the full chain."""
        key = ("uq", gen)
        if key in self._cache:
            return self._cache[key]
        facs = self.factors()
        N = self.nsites
        if gen in ("K", "Kinv", "k", "kinv"):
            mat = self._cache[key] = DiagonalMatrix(self._diag(gen, slice(0, N)))
            return mat
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
        self._cache[key] = total
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

@dataclass(frozen=True)
class CheckResult:
    relation: str
    m: int
    n: int
    backend: str
    ok: bool
    seconds: float = 0.0


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


class _ResidualMemo:
    """A process-level LRU memo of at most maxsize window residuals, keyed by
    class; a miss calls the caller's compute(), which may use per-call data.
    Every caller gets the same residual, and must only read it.  A hit hashes
    its key twice: once to take the entry out and once to put it back as the
    most recently used."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.misses = 0
        self._values: dict = {}

    def __len__(self) -> int:
        return len(self._values)

    def clear(self) -> None:
        self._values.clear()
        self.misses = 0

    def get(self, key, compute) -> SparseMatrix:
        values = self._values
        value = values.pop(key, None)
        if value is None:
            self.misses += 1
            value = compute()
        values[key] = value  # now the most recently used
        if len(values) > self.maxsize:
            del values[next(iter(values))]
        return value


# 14 relation classes and 16 x 6 centralizer classes for each set of window
# factors and params, shared by every backend; the rest is room for planted
# factors and off-spec params.
_RELATION_RESIDUALS = _ResidualMemo(maxsize=256)
_CENTRALIZER_RESIDUALS = _ResidualMemo(maxsize=512)


def _content_key(x: SparseMatrix):
    """Everything a window residual reads of a factor: its size and entries."""
    return x.nrows, frozenset(x.entries())


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
    the three 9x9 factors and the params.  Residuals are computed over Q(q)
    for every backend and memoised by class for the whole process
    (`_RELATION_RESIDUALS`), keyed by all of these, factor entries included;
    the embedded factors are kept per call.

    At a point p each residual is the exact one evaluated at p (`_at_point`).
    That is the residual computed over Q at p: evaluation at p is a ring
    homomorphism on the scalars with no pole at p, and every scalar the
    residual is built from is one (the factor entries are Laurent
    polynomials, and p is checked to be no pole of the params, of
    1/(gamma + delta) or, for the relations that use h1^-1, of
    1/(gamma delta)).
    """
    m, n = ctx.m, ctx.n
    gam, dlt, tht = params.gamma, params.delta, params.theta
    if point is not None:
        gam_p, dlt_p, _ = (x.eval_at(point) for x in (gam, dlt, tht))
        if not gam_p + dlt_p:
            raise SingularParams("gamma + delta = 0")
    gpd = gam + dlt
    if not gpd:
        raise SingularParams("gamma + delta = 0")
    x9 = dict(zip("geh", fundamental_ops()))
    given = (tuple(_factor_key(x) for x in x9.values()), params)
    memo: dict = {}

    def first_site(kind, index):
        return {"g": m - index - 1, "h": m + index - 1, "e": m - 1}[kind]

    def window(w, placed):
        """The placed operators (kind, pos) embedded in a w-site window, and its identity."""
        mats = []
        for kind, pos in placed:
            key = (kind, pos, w)
            if key not in memo:
                memo[key] = embed_factor(x9[kind], 3 ** pos, 3 ** (w - pos - 2))
            mats.append(memo[key])
        if w not in memo:
            memo[w] = SparseMatrix.identity(3 ** w, ONE)
        return mats, memo[w]

    def quad(x, ident):
        return (x - ident.scale(gam)) * (x - ident.scale(dlt))

    def comm(x, y, _):
        return x * y - y * x

    def braid(x, y, _):
        return x * y * x - y * x * y

    def ee(ew, _):
        return ew * ew - ew.scale((tht + ONE) / gpd)

    def sandwich(ew, x, _):
        return ew * x * ew - ew

    def core(ew, g1, h1, ident):
        # h1^-1 from the quadratic relation: h^-1 = (h - (gamma+delta)) / (-gamma delta)
        h1inv = (h1 - ident.scale(gpd)).scale((-(gam * dlt)).invert())
        return ew * g1 * h1inv * ew

    def eghinv_right(ew, g1, h1, ident):
        return core(ew, g1, h1, ident) * (g1 - h1)

    def eghinv_left(ew, g1, h1, ident):
        return (g1 - h1) * core(ew, g1, h1, ident)

    def residual(form, *ops):
        sites = sorted({first_site(*op) + d for op in ops for d in (0, 1)})
        w = len(sites)
        placed = tuple((kind, sites.index(first_site(kind, index))) for kind, index in ops)

        def compute():
            mats, ident = window(w, placed)
            return form(*mats, ident)

        return _at_point(_RELATION_RESIDUALS.get((form.__name__, w, placed) + given, compute),
                         point)

    g, h, e = range(1, m), range(1, n), ("e", 0)
    for j in g:
        yield f"quad_g{j}", residual(quad, ("g", j))
    for i in h:
        yield f"quad_h{i}", residual(quad, ("h", i))
    for j in g:
        for i in h:
            yield f"comm_g{j}_h{i}", residual(comm, ("g", j), ("h", i))
    for j1 in g:
        for j2 in g:
            if j2 - j1 > 1:
                yield f"comm_g{j1}_g{j2}", residual(comm, ("g", j1), ("g", j2))
    for i1 in h:
        for i2 in h:
            if i2 - i1 > 1:
                yield f"comm_h{i1}_h{i2}", residual(comm, ("h", i1), ("h", i2))
    for j in range(1, m - 1):
        yield f"braid_g{j}", residual(braid, ("g", j), ("g", j + 1))
    for i in range(1, n - 1):
        yield f"braid_h{i}", residual(braid, ("h", i), ("h", i + 1))
    if m >= 1 and n >= 1:
        yield "ee", residual(ee, e)
        if m >= 2:
            yield "ege", residual(sandwich, e, ("g", 1))
        if n >= 2:
            yield "ehe", residual(sandwich, e, ("h", 1))
        for j in g:
            if j >= 2:
                yield f"comm_e_g{j}", residual(comm, e, ("g", j))
        for i in h:
            if i >= 2:
                yield f"comm_e_h{i}", residual(comm, e, ("h", i))
        if m >= 2 and n >= 2:
            if point is not None and not gam_p * dlt_p:
                raise ZeroDivisionError("h1^-1 has a pole at the point: gamma delta = 0")
            ops = (e, ("g", 1), ("h", 1))
            yield "eghinv_right", residual(eghinv_right, *ops)
            yield "eghinv_left", residual(eghinv_left, *ops)


def _timed_results(ctx, backend, residuals) -> list[CheckResult]:
    import time

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
    backend = "symbolic" if point is None else f"eval(q={point.value})"
    return _timed_results(ctx, backend, qwb_relation_residuals(ctx, params, point))


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
    generator.  Residuals are computed over Q(q) for every backend and
    memoised by class for the whole process (`_CENTRALIZER_RESIDUALS`), so
    interior g_j and h_i, every context after the first few, and every
    evaluation point share one computation.  At a point each residual is
    the exact one evaluated there (`_at_point`), which is the residual over
    Q at that point, as the entries of the chain's operators and coproducts
    are Laurent polynomials (see `qwb_relation_residuals`).  Sub-chain coproducts and
    embedded X are kept per call; a whole-chain operator's sub-chain is the
    chain itself and uses ctx.
    """
    m, n, nsites = ctx.m, ctx.n, ctx.nsites
    memo: dict = {("ctx", m, n): ctx}

    def cached(key, build):
        if key not in memo:
            memo[key] = build()
        return memo[key]

    for opname, op in ctx.operators():
        a, w, x = _operator_window(op, nsites)
        lo, hi = max(a - 1, 0), min(a + w + 1, nsites)
        shape = (max(0, min(hi, m) - lo), max(0, hi - max(lo, m)))
        key = (shape, a - lo, _factor_key(x))
        for gname in ("E", "F", "K", "k", "B", "C"):
            def compute():
                sub = cached(("ctx",) + shape, lambda: ChainContext(*shape))
                xs = cached(("op",) + key, lambda: embed_factor(
                    x, 3 ** (a - lo), 3 ** (hi - a - w)))
                gmat = sub.quantum_group_action(gname)
                return xs * gmat - gmat * xs

            res = _CENTRALIZER_RESIDUALS.get(key + (gname,), compute)
            yield f"[{opname},{gname}]", _at_point(res, point)


def check_centralizer(ctx: ChainContext, point: EvalPoint | None = None) -> list[CheckResult]:
    backend = "symbolic" if point is None else f"eval(q={point.value})"
    return _timed_results(ctx, backend, centralizer_residuals(ctx, point))


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
