"""Box- and inequality-constrained convex QP engine.

Solves  min 0.5 u^T H u + g^T u  s.t.  0 <= u <= upper,  T u <= psi
by the dual active-set method of Goldfarb and Idnani (Math. Programming 27
(1983) 1-33). The bounds and the rows of T form one set of rows
a_i^T u <= c_i, numbered as everywhere in tiklav: for n nodes, row i is
the lower bound of node i, row n + i its upper bound (c = +inf where the
bound is absent: that row never enters) and row 2n + j row j of the m rows
of T. From a dual-feasible start (below), the method adds the most
violated row and drops an active row whenever its multiplier would turn
negative, so the multipliers stay dual feasible and the active rows stay
linearly independent. It ends after finitely many active-set changes at
the exact minimizer, or proves the problem infeasible when a violated row
depends on the active rows and no active multiplier can shrink. A
violation within 64 eps |b| |x_0|, the round-off of the row value b^T x at
the scale of the unconstrained minimizer x_0, proves nothing: it raises
NonConvergence instead.

H is given by its eigendecomposition H = V diag(d) V^T with V square
orthonormal, which the callers know in closed form, and g and the state
rows by their coefficients in that basis: g = V gx and T = B V^T. V is
used only through V @ x and rows V[i]: a dense array, or the 1D Poisson
operator's implicit `operators.SineBasis`, whose product is a sine
transform. B is used only through its rows B[i], B.shape and the state
rows at u = V x, B.at_values(u, x) = T u: an `operators.EigenRows`, which
forms them from x by one product with a dense V, and from u by the
Green's function in 1D Poisson, with no rows when no state row exists.
The iterate is kept as x = V^T u.
L = V diag(sqrt d), H = L L^T, takes the place of a Cholesky factor, so a
row a with b = V^T a has L^{-1} a = d^{-1/2} * b, where b is -V[i] or V[i]
for a bound and a row of B for a state row: an entering row costs O(n).
The active rows enter through W = L^{-1} A_active, kept as W P = Q with
Q orthonormal and P = R^{-1} of the thin QR factorization W = Q R, in
buffers that double when full: an add writes one column of each, a drop
is one Householder reflection applied to both, and the triangular solves
of the method are products with P. The start phase forms P alone, by
`_start_p`: one Householder QR that forms R but not Q and a blocked
inverse of R; the main loop's first change factors the start rows kept,
Q and P, by one QR. After a drop, the row being tried is split
against the columns left by adding back the direction that left, with no
new Gram-Schmidt pass. The engine runs on numpy alone.

The engine returns its point u = V x, set exactly to 0 or upper on the
active bound rows, the state multipliers eta and the active rows; it does
not certify them. Its one caller, `AdmissibleSet.minimize`, measures the
KKT certificate on the problem, not on the basis the engine iterated in,
by `certify`: from the Lagrangian gradient r = H u + g + T^T eta in node
space (for the regularized problem 2(S*(S u - y_d) + alpha u) + T^T eta,
for a projection onto the admissible set 2(u - v) + T^T eta) and the
slacks at the returned u, it derives the multipliers of the bounds and the
stationarity, primal and complementarity residuals. An H whose smallest
eigenvalue is not > eps * its largest (semidefinite to round-off, or NaN)
is rejected; a Hessian passed has alpha > 0 or is 2I: one pass suffices.

Every solve starts from a set of rows made dual feasible: the dual
method needs nothing more (Goldfarb and Idnani; Ferreau, Bock and Diehl,
Int. J. Robust Nonlinear Control 18 (2008) 816). A solve can take the
active rows of a nearby one (`start`, an array of row ids, e.g. the
previous point of a lambda or alpha path). A start that names no row of
the problem becomes the rows violated by more than the feasibility
tolerance at the unconstrained minimizer x_0 = -gx/d: the first step,
with mu = 0, of the primal-dual active-set method of Hintermueller, Ito
and Kunisch (SIAM J. Optim. 13 (2002) 865). When no row is violated
there, the engine returns x_0 at once, with no start phase.
Of the start rows that exist in the problem (ids in [0, 2n + m) with c
finite), taken lower, upper, state, those before the first that depends
on the rows before it (at most n) are factored as P = R^{-1} alone. The
rows to keep solve the dual of the QP on the start rows alone, a
nonnegative least-squares problem in their multipliers,
min 0.5 m^T G m - viol^T m over m >= 0 with G = W W^T and viol the rows'
violations at x_0. The primal-dual active-set method of the same
authors (for simple bounds, Kunisch and Rendl, SIAM J. Optim. 14 (2003)
35) solves it through K = G^{-1} = P P^T, with no drop from P: at its
solution every kept multiplier is >= 0 and every start row dropped is
satisfied, so x = x_0 - d^{-1/2} * (W_kept m) is the minimizer over the
start rows. The method can cycle when G is not an M-matrix; after
START_ITERS iterations the engine takes the empty start, x = x_0, which
is always valid. The usual iteration runs from x and adds back any later
start row that is violated; its first change factors the rows kept once
more, with Q and with no dependence test, as they already passed it. A
start that is already optimal forms no Q. Any start, however stale, is
valid: it ends at the minimizer a cold start reaches, and the start
changes only the number of active-set changes (and, within the
feasibility tolerance, which rows violated by at most 0.1 tol are left
inactive).
The start rows dropped are counted apart from the main loop's changes.

The weighted L2 structure of the grid cancels out of the optimality
system for uniform quadrature weights; `certify` rescales the
stationarity norm by sqrt(h^d), its `wfac` argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Infeasible, InvalidInput, NonConvergence

DEPENDENT_TOL = 1e-10   # |projection of L^{-1} a off the active rows| / |L^{-1} a|
ORTH_TOL = 8 * np.finfo(float).eps  # |Q^T z| / |z| a split may leave
BLOCK = 1 << 15         # entries of a temporary that stays in cache (256 KB)
START_ITERS = 50        # iterations of the start's dual solve before the
                        # engine falls back to the empty start


@dataclass
class QPResult:
    u: np.ndarray            # exactly 0 or upper on the active bound rows
    eta: np.ndarray
    iterations: int          # active-set changes of the main loop
    start_drops: int         # start rows the start's dual solve drops
                             # (all of them past its cap)
    active: np.ndarray       # sorted ids of the engine's final active rows


def _split(Q, w):
    """w = Q y + z with z orthogonal to the columns of Q, and |z|^2. One
    Gram-Schmidt pass; a second corrects z only when the first left
    |Q^T z| > ORTH_TOL |z|. That test measures what a new column z/|z|
    would have in common with the old ones, so it bounds their products
    by ORTH_TOL whatever the old columns' history: the loss of
    orthogonality cannot build up over adds, as it can under a test on
    |z| / |w| alone."""
    y = Q.T @ w
    z = w - Q @ y
    y2 = Q.T @ z
    zz = z @ z
    if y2 @ y2 > ORTH_TOL**2 * zz:
        z -= Q @ y2
        y += y2
        zz = z @ z
    return y, z, zz


def _triu_inv(R, out):
    """out = R^{-1} for upper triangular R, exactly upper triangular: the
    recursive blocking of LAPACK dtrtri. With R = [[A, B], [0, C]],
    R^{-1} = [[A^{-1}, -A^{-1} B C^{-1}], [0, C^{-1}]]; below 64 rows,
    np.linalg.inv."""
    m = R.shape[0]
    if m < 64:
        out[:] = np.triu(np.linalg.inv(R))
        return
    h = m // 2
    _triu_inv(R[:h, :h], out[:h, :h])
    _triu_inv(R[h:, h:], out[h:, h:])
    out[:h, h:] = -(out[:h, :h] @ R[:h, h:]) @ out[h:, h:]
    out[h:, :h] = 0.0


class _ThinQR:
    """The active columns W as W P = Q: Q with orthonormal columns and
    P = R^{-1} for the thin QR factorization W = Q R. Q and P are stacked
    as [Q; P] in one F-order buffer that doubles (up to n columns) when
    full, so that a column operation on both is one product. The
    constructor and `add` keep P upper triangular; a drop makes it dense
    from the first nonzero column of the row it removes."""

    def __init__(self, W):
        """The k independent rows of W (k x n, k <= n) as the first
        columns: one Householder QR, W^T = Q R, and P = R^{-1} by
        `_triu_inv`, in a buffer of max(8, k) columns, at most n."""
        k, n = W.shape
        cap = min(n, max(8, k))
        self._M = np.empty((n + cap, cap), order="F")
        self.n, self.q = n, k
        Q, R = np.linalg.qr(W.T)
        self._M[:n, :k] = Q
        _triu_inv(R, self._M[n:n + k, :k])

    @property
    def Q(self):
        return self._M[:self.n, :self.q]

    @property
    def P(self):
        return self._M[self.n:self.n + self.q, :self.q]

    def add(self, r, z, zn):
        """Append the column Q y + z, where r = P y and zn = |z| > 0: z/zn
        to Q and (-r, 1)/zn to P."""
        n, q, M = self.n, self.q, self._M
        if q == M.shape[1]:  # full: double, up to n columns
            cap = min(2 * q, n)
            M = np.empty((n + cap, cap), order="F")
            M[:n + q, :q] = self._M
            self._M = M
        np.divide(z, zn, out=M[:n, q])
        np.divide(r, -zn, out=M[n:n + q, q])
        M[n + q, :q] = 0.0
        M[n + q, q] = 1.0 / zn
        self.q = q + 1

    def drop(self, k):
        """Remove column k. As P R = I, c = P[k] is orthogonal to every
        other column of R, and the reflection H = I - v v^T that maps c to
        the last coordinate leaves W (P H) = Q H with row k of P H zero but
        in its last column: that row and that column go. c is zero left of
        its first nonzero column j, so H acts on the columns j.. of [Q; P]
        only. The rows of P after k shift up in all columns: a row after k
        may be nonzero left of j once drops have filled P in.
        Returns the last columns of Q H and of P H (all q rows): the
        direction that left, until the next add overwrites it."""
        n, q, M = self.n, self.q, self._M
        j = int(np.flatnonzero(M[n + k, :q])[0])
        X = M[:n + q, j:q]
        v = X[n + k].copy()  # c - sigma e_last, scaled to |v|^2 = 2
        cn = math.sqrt(v @ v)
        v[-1] += math.copysign(cn, v[-1])
        v /= math.sqrt(cn * abs(v[-1]))
        a = X @ v
        # X -= a v^T by blocks of columns, each product a temporary of at
        # most BLOCK entries; np.dot, unlike np.outer, is one BLAS call
        step = max(1, BLOCK // (n + q))
        for i in range(0, q - j, step):
            X[:, i:i + step] -= np.dot(v[i:i + step, None], a[None, :]).T
        M[n + k:n + q - 1, :q - 1] = M[n + k + 1:n + q, :q - 1]
        self.q = q - 1
        return M[:n, q - 1], M[n:n + q, q - 1]


def _start_rows(start, V, c, B):
    """The ids in `start` of rows that exist in this problem (in [0, c.size)
    with c finite), lower bounds first, then upper bounds, then state rows,
    and their b_i = V^T a_i as the rows of a matrix."""
    n = V.shape[0]
    ids = np.asarray(start, dtype=np.intp)
    ids = ids[(ids >= 0) & (ids < c.size)]
    ids = ids[np.isfinite(c[ids])]
    lo, hi = ids[ids < n], ids[(ids >= n) & (ids < 2 * n)]
    st = ids[ids >= 2 * n]
    return (np.concatenate([lo, hi, st]),
            np.vstack([-V[lo], V[hi - n], B[st - 2 * n]]))


def _start_p(W):
    """P = R^{-1}, with no Q, for the rows of W before the first whose part
    off the rows before it has a norm <= DEPENDENT_TOL times its own, at
    most W.shape[1] of them: one Householder QR that forms R alone,
    W^T = Q R, where |R_jj| is the norm of row j's part off rows 0..j-1,
    and `_triu_inv`. The rows taken are the first P.shape[0]."""
    R = np.linalg.qr(W.T, mode="r")
    tol = DEPENDENT_TOL * np.linalg.norm(W[:R.shape[0]], axis=1)
    bad = np.flatnonzero(np.abs(R.diagonal()) <= tol)
    m = int(bad[0]) if bad.size else R.shape[0]
    P = np.empty((m, m), order="F")
    _triu_inv(R[:m, :m], P)
    return P


def _start_dual(P, viol):
    """The start rows' multipliers: the dual of the QP on those rows alone,
    min 0.5 m^T G m - viol^T m over m >= 0 with G^{-1} = K = P P^T, by the
    primal-dual active-set method of Hintermueller, Ito and Kunisch. With
    D the rows dropped, s = K_DD^{-1} (K viol)_D and m = K viol - K_{:,D} s
    give m_D = 0 (to round-off) and G m = viol but on D, where
    (G m)_D = viol_D - s: s is the violation of the rows dropped at the
    point that the rows kept give. The next D is the rows kept with m < 0
    and the rows dropped with s <= 0; at a D that repeats, m >= 0 off D
    and every row dropped is satisfied. K is used through P only,
    K viol = P (P^T viol) and K_{:,D} = P P[D]^T, each column formed once,
    as D mostly grows. Returns (m, the mask of D); after START_ITERS
    iterations with no repeat, as the method can cycle when G is not an
    M-matrix, the empty start: m = 0 and every row in D."""
    m = kv = P @ (viol @ P)  # D empty
    drop, D, s = np.zeros(kv.size, dtype=bool), np.zeros(0, np.intp), m[:0]
    cols, KC = D, np.empty((kv.size, 0))  # KC[:, j] = K[:, cols[j]]
    for _ in range(START_ITERS):
        nxt = m < 0.0
        nxt[D] = s <= 0.0
        if np.array_equal(nxt, drop):
            return m, drop
        drop = nxt
        new = np.flatnonzero(drop)
        new = new[np.isin(new, cols, assume_unique=True, invert=True)]
        if new.size:
            KC = np.hstack([KC, P @ P[new].T])
            cols = np.concatenate([cols, new])
        on = drop[cols]  # D in the column order of KC
        D, t = cols[on], np.zeros(cols.size)
        t[on] = s = np.linalg.solve(KC[D][:, on], kv[D])
        m = kv - KC @ t
    return np.zeros(kv.size), np.ones(kv.size, dtype=bool)


def _dual_active_set(V, d, gx, upper, B, psi, feas_tol, start=None):
    """Goldfarb-Idnani iteration on H = V diag(d) V^T with every d > 0;
    returns the QPResult of the final iterate x: u = V x of its slack
    evaluation, set exactly to c_i on each active bound row i, where V x
    holds it only to round-off.

    Rows are numbered as in the module docstring, so an absent upper bound
    has slack -inf; `normal` gives b_i = V^T a_i. A row with violation
    a_i^T u - c_i <= feas_tol counts as satisfied. The iteration starts
    from the rows of `start` that `_start_dual` keeps, or, when `start`
    names no row of the problem, from those of the rows violated by more
    than feas_tol at x_0 = -gx/d (see the module docstring); the start
    rows dropped are returned apart from the main loop's changes. Raises
    Infeasible when the constraints admit no point, and NonConvergence when
    a row that depends on the active rows is violated only within the
    round-off of its value. After 10 changes per row that exists, the next
    slack evaluation ends the loop at its (dual-feasible, possibly
    primal-infeasible) iterate; the drops between two evaluations are
    bounded by the number of active rows.
    """
    n = d.size
    c = np.concatenate([np.zeros(n), upper, psi])

    def normal(i):
        if i >= 2 * n:
            return B[i - 2 * n]
        return -V[i] if i < n else V[i - n]

    def at(x):  # the slack evaluation at x: u = V x and the violations
        u = V @ x
        return u, np.concatenate([-u, u, B.at_values(u, x)]) - c

    x = -gx / d
    # start: P = R^{-1} of the independent start rows W = L^{-1} A; in
    # s = L^T u the minimizer over them is s = s0 - W^T m, m the solution
    # of their dual, in which viol = W s0 - c are the rows' violations at
    # u0 = V x and (W W^T)^{-1} = P P^T. A start that names no row becomes
    # the rows violated at x_0; when none is, x_0 is the minimizer,
    # returned with no start phase
    rows = np.zeros(0, dtype=np.intp)
    if start is not None and len(start):
        rows, normals = _start_rows(start, V, c, B)
    if not rows.size:
        u, slack = at(x)
        if slack.max() <= feas_tol:
            return QPResult(u, np.zeros(B.shape[0]), 0, 0, rows)
        rows, normals = _start_rows(np.flatnonzero(slack > feas_tol), V, c, B)
    rsd = 1.0 / np.sqrt(d)      # L^{-1} a = rsd * (V^T a)
    bx0 = normals @ x            # b^T x_0 of each start row
    W = normals                  # in place, so that the start holds one
    W *= rsd                     # k x n array: row j is L^{-1} a for rows[j]
    P = _start_p(W)
    m = P.shape[0]
    mult, dropped = _start_dual(P, bx0[:m] - c[rows[:m]])
    keep = np.flatnonzero(~dropped)  # the start rows kept: their rows of W
    drops = m - keep.size
    # the active rows' ids and multipliers, in the column order of Q and P
    active, mult, W = rows[keep], mult[keep], W[keep]
    x = x - rsd * (mult @ W)

    qr, changes, p, cap = None, 0, -1, 10 * (np.isfinite(c).sum() + 1)
    while True:
        if p < 0:  # pick the most violated row
            u, slack = at(x)
            slack[active] = -np.inf
            p = int(slack.argmax())
            if slack[p] <= feas_tol or changes >= cap:
                break
            b = normal(p)
            w = rsd * b
            wn = np.sqrt(w @ w)
            mult_p = 0.0
            if qr is None:  # the first change: factor the start rows kept
                qr = _ThinQR(W)
            # split w = Q y + z with z orthogonal to the active columns;
            # the primal step is -L^{-T} z, i.e. -rsd * z in x, and the
            # active multipliers move by -r = -P y, w's coefficients on
            # the active columns
            y, z, zz = _split(qr.Q, w)
            r = qr.P @ y
        zn = np.sqrt(zz)
        full = np.inf             # step length that makes row p active
        if zn > DEPENDENT_TOL * wn:
            full = (b @ x - c[p]) / zz
        partial, k = np.inf, -1   # step length that zeroes mult[k]
        if mult.size:             # the first smallest ratio over r > 0
            ratios = np.full(mult.size, np.inf)
            np.divide(mult, r, out=ratios, where=r > 0.0)
            k = int(ratios.argmin())
            partial = float(ratios[k])
        step = min(full, partial)
        if step == np.inf:
            # noise: the round-off of b^T x at the scale of x_0 = -gx/d;
            # hypot scales by the largest entry, so no square overflows
            viol, noise = b @ x - c[p], 64 * np.finfo(float).eps \
                * np.linalg.norm(b) * math.hypot(*(gx / d))
            if viol <= noise:
                raise NonConvergence(
                    f"a row violated by {viol:.3e}, within its round-off "
                    f"{noise:.3e}, depends on the active rows")
            raise Infeasible(
                f"constraints infeasible: a row violated by {viol:.3e} "
                "depends on the active rows")
        if full < np.inf:
            x = x - step * (rsd * z)
        np.maximum(mult - step * r, 0.0, out=mult)
        mult_p += step
        changes += 1
        if full <= partial:  # row p becomes active
            qr.add(r, z, zn)
            active, mult = np.append(active, p), np.append(mult, mult_p)
            p = -1
        else:                # row k leaves; p is tried again
            # on the columns left: the direction e that left is added back
            # to z and taken out of r, (e . w) times its Q and P columns
            qe, pe = qr.drop(k)
            active, mult = np.delete(active, k), np.delete(mult, k)
            g = qe @ w
            z += g * qe
            zz = z @ z
            r = np.delete(r - g * pe, k)
    state = active >= 2 * n
    eta = np.zeros(B.shape[0])
    eta[active[state] - 2 * n] = mult[state]
    bound = active[~state]  # ids i and n + i of node i
    u[bound % n] = c[bound]
    return QPResult(u, eta, changes, drops, np.sort(active))


def certify(r, slack, eta, tol, wfac):
    """The KKT certificate of a point u with state multipliers eta, from
    the Lagrangian gradient r = H u + g + T^T eta at u in node space and
    the slacks (u, upper - u, psi - T u) at u of `AdmissibleSet.slack`:
    (mu_lower, mu_upper, stationarity, primal, complementarity). The bound
    multipliers are the parts of r of each sign, mu_upper 0 where upper is
    inf; the stationarity is wfac times the norm of r - mu_lower +
    mu_upper, the primal residual the largest state violation. Raises
    NonConvergence unless all three residuals are <= tol."""
    lo, up, st = slack
    finite = np.isfinite(up)
    mu_lo = np.maximum(r, 0.0)
    mu_up = np.where(finite, np.maximum(-r, 0.0), 0.0)
    # r - mu_lo + mu_up is nonzero only where b = inf and r < 0
    stat = wfac * float(np.linalg.norm(r - mu_lo + mu_up))
    primal = float(np.max(-st, initial=0.0))
    comp = float(np.max(np.abs(np.concatenate([
        mu_lo * lo, mu_up * np.where(finite, up, 0.0), eta * st])),
        initial=0.0))
    if not max(stat, primal, comp) <= tol:  # NaN fails too
        raise NonConvergence(
            f"no KKT certificate: residuals {stat:.3e}, {primal:.3e} and "
            f"{comp:.3e} against tol {tol:.3e}")
    return mu_lo, mu_up, stat, primal, comp


def solve_box_state_qp(H, gx: np.ndarray, upper: np.ndarray, B,
                       psi: np.ndarray, tol: float,
                       start: Optional[np.ndarray] = None) -> QPResult:
    """Solve the QP to the feasibility tolerance 0.1 tol, for a
    certificate <= tol by `certify`.

    H is the pair (V, d) with H = V diag(d) V^T and V square orthonormal,
    a dense array or an `operators.SineBasis`, and B the state rows, an
    `operators.EigenRows` (see the module docstring). The gradient at 0
    and the state rows are given in that basis: g = V gx and T = B V^T.
    `start` is the active row ids of a nearby solve (e.g. a previous
    `QPResult.active`); ids of rows absent here, and rows from the first
    that depends on those before it, are skipped, and a start that names
    no row here becomes the rows violated at the unconstrained minimizer.
    Raises InvalidInput unless 0 < tol < inf, gx is finite and
    min(d) > eps * max(d), Infeasible when no box point satisfies
    T u <= psi and NonConvergence when the pass ends on a violation within
    round-off.
    """
    if not 0 < tol < np.inf:  # an infinite tol would certify any point
        raise InvalidInput(f"tol must be positive and finite, got {tol}")
    if not np.isfinite(gx).all():
        raise InvalidInput("gradient at 0 not finite: non-finite data")
    V, d = H
    if not np.min(d) > np.finfo(float).eps * np.max(d):  # NaN fails too
        raise InvalidInput(
            "Hessian not definite to round-off: d_min/d_max = "
            f"{np.min(d):.3e}/{np.max(d):.3e}")
    return _dual_active_set(V, d, gx, upper, B, psi, 0.1 * tol, start)
