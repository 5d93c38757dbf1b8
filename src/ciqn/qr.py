"""Compact Householder factorization of tall distributed matrices.

The quasi-Newton update needs the least-squares solution of a tall,
skinny system V*lam ~ -r, V with a few dozen columns and a row per
interface entry.  V = Q*[U; 0] is factored with Householder reflectors,
stored as distributed fields, and small replicated matrices: the
triangle U and a local rotation.  Neither Q nor any p-by-p matrix is
formed.

Pivot row j is global row j, on whichever rank owns it.  The few
replicated scalars each column needs -- its norm below the pivot, the
pivot itself and the triangle entries above it -- come from zero-padded
reductions, so no rank is privileged.

The relative filter against (near-)dependent columns runs on the
replicated triangle, with no communication: scanning in column order,
column j is removed when |U[j, j]| <= epsilon * ||U[:, :j+1]||_F (over
the columns kept so far, so a zero column goes, the first one too), the
columns after it are re-triangularized locally, and the scan goes on
at j.  Epsilon = 0 turns it off: an exactly dependent column surfaces
later as a "singular U" error from the triangular solve.

The coupler keeps one ``StepFactor`` per solve.  Its F holds every raw
residual, its projection through F riding on the coupler's r . r
(Daniel, Gragg, Kaufman and Stewart, Math. Comp. 30, 1976), its norm
below the pivot r . r less the squares above (Smoktunowicz, Barlow and
Langou, Numer. Math. 105, 2006) and its reflector's products on the next
reduction (Swirydowicz et al., Numer. Linear Algebra Appl. 28, 2021);
every secant column, the history's too, is a difference of two of F's
columns, picked from R_F locally.  A step start rebuilds F from its
live columns, also locally (but for a pending reflector's products),
once they number less than half its reflectors.  Y's rows are one block, allocated once per solve, so each
product with Y is one matrix-vector product.  ``decompose`` and
``apply_qt`` are front-ends over the factor, kept for the tests and the
benchmark's tracer.  The replicated kernels call LAPACK's ``dgeqrf``,
``dorgqr`` and ``dtrtrs`` directly, loading scipy.linalg (slower to
import than ciqn) at the first call, never on an empty shape, as
``np.linalg.qr`` and ``scipy.linalg.solve_triangular`` call them (for a
C-ordered or 1-by-1 triangle: through its transpose).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from math import copysign, frexp, inf, ldexp, sqrt

import numpy as np

from .field import InterfaceVector, PartitionLayout, _check_compatible, dots
from .runtime import RankComm


def _lapack(name: str):
    """scipy's LAPACK ``name``, imported at its first call, not with ciqn."""
    def load(*args, **kwargs):
        from scipy.linalg import lapack
        if globals()[name] is load:  # not where a wrapper was patched in
            globals()[name] = getattr(lapack, name)
        return getattr(lapack, name)(*args, **kwargs)
    return load


dgeqrf, dgeqrf_lwork, dorgqr, dtrtrs = map(
    _lapack, ("dgeqrf", "dgeqrf_lwork", "dorgqr", "dtrtrs"))


# an append takes its norm below the pivot from r . r alone when its
# square keeps this share of a normal r . r, past the cancellation
_GATE, _TINY = 1e-8, 2.0 ** -1022


class EmptySecantSpaceError(RuntimeError):
    """Every column was filtered out; nothing left to factor."""

    def __init__(self, dropped: list[int]):
        super().__init__("empty secant space: all %d columns filtered"
                         % len(dropped))
        self.dropped, self.restarts = dropped, len(dropped)


class SingularUpperError(RuntimeError):
    """Exactly zero diagonal in U; enable filtering to drop the column."""


@dataclass
class FilterOutcome:
    """Which original column indices survived the dependence filter."""

    kept: list[int]
    dropped: list[int]
    restarts = property(lambda self: len(self.dropped))  # one per drop


@dataclass
class HouseholderStack:
    """The factorization: reflectors plus small replicated matrices.

    reflectors[j] u zeroes its column below global row j, or is zero (the
    identity: identity_flags[j]).  Their product is I - Y T Y^T, T's
    diagonal 2 / (u . u), its last column missing while u is pending.
    Replicated: T, Y's first rows ``y_head`` (reflector i at row j in
    [i, j]), the q-by-q ``upper`` and ``rotation``, the first q rows of
    the local orthogonal factor applied after the reflectors.  A stack
    made for ``back_substitute`` alone needs only ``upper``.
    """

    reflectors: list[InterfaceVector]
    upper: np.ndarray
    identity_flags: list[bool] = dataclass_field(default_factory=list)
    rotation: np.ndarray | None = None
    t: np.ndarray | None = None
    y_head: np.ndarray | None = None

    @property
    def q(self) -> int:
        return self.upper.shape[0]


def _rows_before(layout: PartitionLayout, rank: int, n: int) -> int:
    """How many of ``rank``'s rows lie before global row n."""
    return min(max(n - layout.starts[rank], 0), layout.counts[rank])


def _head_share(layout: PartitionLayout, rank: int, local: np.ndarray,
                share: np.ndarray) -> None:
    """Write this rank's entries among global rows 0..n-1 of its slice
    ``local`` into ``share``, of length n.  The other entries are -0.0,
    the exact additive identity, so an allreduce of the shares returns
    every row's value bit for bit (the sign of a zero included) from
    whichever rank owns it."""
    start, rows = layout.starts[rank], _rows_before(layout, rank, len(share))
    share[:] = -0.0
    share[start:start + rows] = local[:rows]


def _qr(m: np.ndarray, reduced: bool = False):
    """``np.linalg.qr(m, "reduced" if reduced else "r")`` bit for bit (m
    non-empty if reduced): LAPACK's own workspace size, R in C order."""
    k = min(m.shape)
    qr, tau = (dgeqrf(m, lwork=int(dgeqrf_lwork(*m.shape)[0]))[:2]
               if m.size else (np.zeros(m.shape), None))
    r = np.where(np.arange(m.shape[1]) >= np.arange(k)[:, None], qr[:k], 0.0)
    if not reduced:
        return r
    lwork = int(dorgqr(qr[:, :k], tau, lwork=-1)[1][0])
    return np.ascontiguousarray(dorgqr(qr[:, :k], tau, lwork=lwork)[0]), r


def _triangularize(m: np.ndarray, epsilon: float):
    """Triangularize the replicated block ``m``, padded with zero rows to
    its column count, under the filter: scan, drop, re-triangularize the
    rest, go on.  Local.  Returns (upper, rotation, outcome)."""
    rows, ncols = m.shape
    kept, dropped = list(range(ncols)), []
    # the identity carried along becomes the rotation; an upper
    # triangular m comes out as it went in, the rotation the identity
    tri = np.eye(max(rows, ncols), ncols + rows, ncols)
    tri[:rows, :ncols] = m
    tri = _qr(tri)
    while epsilon and kept:
        block = tri[:, :len(kept)]
        filled = np.sqrt(np.add.reduce(block * block).cumsum())
        small = np.abs(block.diagonal()) <= epsilon * filled
        j = int(small.argmax())
        if not small[j]:
            break
        dropped.append(kept.pop(j))
        tri[:, j:-1] = tri[:, j + 1:]
        tri = tri[:, :-1]
        tri[j:, j:] = _qr(tri[j:, j:])
    if not kept:
        raise EmptySecantSpaceError(dropped)
    q = len(kept)
    return tri[:q, :q], tri[:q, q:], FilterOutcome(kept, dropped)


def decompose(columns: list[InterfaceVector], epsilon: float):
    """Factor the columns into (HouseholderStack, FilterOutcome): append
    them to a fresh ``StepFactor`` as the coupler does, one reduction per
    column (two where its norm cancels), finish a pending last reflector
    with one more, and factor the pairs (j + 1, 0).
    EmptySecantSpaceError: nothing left."""
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    if not columns:
        raise EmptySecantSpaceError([])
    for c in columns[1:]:
        _check_compatible(columns[0], c)
    step = StepFactor(len(columns))
    for c in columns:
        step.append(c, dots([(c, c)], step.shares(c)))
    step.finish()
    stack, outcome, _ = step.factor(
        [(j + 1, 0) for j in range(len(columns))], epsilon)
    return stack, outcome


def apply_qt(stack: HouseholderStack, r: InterfaceVector) -> np.ndarray:
    """First q rows of Q^T r, turned by ``rotation``, replicated on every
    rank: r's rows less Y_head T^T Y^T r.  One reduction."""
    y = np.array([v.local for v in stack.reflectors], ndmin=2)
    n, shares = len(y), np.empty(2 * len(y))
    np.dot(y, r.local, out=shares[:n])
    _head_share(r.layout, r.comm.rank, r.local, shares[n:])
    summed = r.comm.allreduce_sum_array(shares)
    return stack.rotation @ (summed[n:]
                             - stack.y_head.T @ (stack.t.T @ summed[:n]))


class StepFactor:
    """The Householder factor of F, every raw residual of a solve.

    ``append`` makes each residual F's newest column; ``factor`` solves
    for columns F_i - F_j, the pairs (i, j), on the replicated R_F =
    Q_F^T F, F's column 0 being zero.  Q_F = I - Y T Y^T in compact WY
    form (Schreiber and Van Loan 1989), T and Y's pivot rows replicated;
    ``compact`` rebuilds it from the columns later steps can use.

    Y's rows fill a C-ordered (min(p, ``bound``), local rows) block from
    the top, ``bound`` the most reflectors F holds at once; ``work`` is a
    spare local row, scratch to ``append`` and to its caller between calls.
    """

    _CHUNK = 4096  # interface rows ``compact`` rewrites at a time
    reflectors = property(lambda self: len(self._y))

    def __init__(self, bound: int):
        self.bound, self._block = bound, None
        self._y: list[InterfaceVector] = []  # views of the block's rows
        self._t = self._y_head = np.zeros((0, 0))
        self._upper = np.zeros((0, 1))
        self._pending = None  # R_F column, pivot value, alpha, nrm

    def shares(self, r: InterfaceVector) -> np.ndarray:
        """This rank's addends to the sums ``append`` takes after r . r:
        Y^T r; a pending reflector u's Y^T u, u . u last; r's rows 0..n
        (0..n-1 once F has a reflector per interface row), -0.0 where
        another rank owns them; Y's pivot row n likewise, n = F's width."""
        n, p, rank = len(self._y), r.layout.global_size, r.comm.rank
        lag, rows = n * (self._pending is not None), min(n + 1, p)
        out = np.empty(n + lag + rows + n * (n < p))
        _head_share(r.layout, rank, r.local, out[n + lag:n + lag + rows])
        if n:
            y, start = self._block[:n], r.layout.starts[rank]
            np.dot(y, r.local, out=out[:n])
            if lag:
                np.dot(y, y[-1], out=out[n:n + lag])
            if n < p:
                out[n + lag + rows:] = y[:, n - start] \
                    if start <= n < start + len(r.local) else -0.0
        return out

    def append(self, r: InterfaceVector, summed) -> int:
        """Make r F's newest column; returns its index.  ``summed`` sums
        every rank's r . r and ``shares(r)``, as the coupler's one
        reduction does; a pending reflector is finished from them first.
        R_F's new column follows from them, replicated, and one
        matrix-vector product projects r locally.  The reflector is left
        pending, unless its norm squared, r . r less R_F's column above
        the pivot, falls below _GATE r . r: then one reduction sums it."""
        self.layout, self.comm = layout, comm = r.layout, r.comm
        n, summed = len(self._y), np.asarray(summed)
        at = 1 + n + n * (self._pending is not None)  # r's rows
        self.finish(summed)
        rr, ts = summed[0], self._t.T @ summed[1:n + 1]
        head = summed[at:at + n] - self._y_head.T @ ts
        if n == layout.global_size:
            self._upper = np.column_stack([self._upper, head])
            return self._upper.shape[1] - 1
        if self._block is None:
            shape = (min(layout.global_size, self.bound), len(r.local))
            self._block, self.work = np.empty(shape), np.empty(shape[1:])
        y, col, y_row = self._block[:n], self._block[n], summed[at + n + 1:]
        pivot_value = float(summed[at + n] - y_row @ ts)
        np.subtract(r.local, np.dot(ts, y, out=self.work), out=col)
        start = layout.starts[comm.rank]
        before = _rows_before(layout, comm.rank, n)
        if owns := start <= n < start + len(col):
            col[n - start] = pivot_value
        sigma2 = rr - head @ head
        lagged = bool(_TINY <= rr < inf and sigma2 >= _GATE * rr)
        if not lagged:  # Y times col from the pivot down, then col's square
            reduced = comm.allreduce_sum_array(
                self._block[:n + 1, before:] @ col[before:])
            sigma2 = reduced[n]
        # col becomes u = (col from the pivot down - alpha e_pivot) / nrm
        # (rows before the pivot are R_F's and must not move again), or,
        # already of that shape or zero, u = 0 with nrm = 0
        alpha = sigma = sqrt(sigma2)
        nrm = 0.0 if pivot_value == sigma else sqrt(
            2.0 * sigma * (sigma + abs(pivot_value)))
        col[:before if nrm else len(col)] = 0.0
        if nrm:
            # the sign choice makes pivot_value - alpha an addition
            alpha = -copysign(sigma, pivot_value)
            col /= nrm
            if owns:
                col[n - start] = (pivot_value - alpha) / nrm
        if lagged:  # u . u corrects alpha where the difference lost a bit
            self._pending = (self._upper.shape[1], pivot_value, alpha,
                             nrm if 2.0 * sigma2 < rr else 0.0)
        else:
            # Y u, from Y times col from the pivot down and Y's pivot row
            y_u = (reduced[:n] - alpha * y_row) / nrm if nrm else np.zeros(n)
            # (I - Y T Y^T)(I - 2 u u^T)
            #     = I - [Y u] [[T, -2 T Y u], [0, 2]] [Y u]^T
            self._t = _bordered(self._t, -2.0 * (self._t @ y_u), 2.0)
        self._y_head = _bordered(self._y_head, y_row,
                                 (pivot_value - alpha) / nrm if nrm else 0.0)
        self._upper = _bordered(self._upper, head, alpha)
        self._y.append(InterfaceVector(layout, comm, col))
        return self._upper.shape[1] - 1

    def finish(self, summed=None) -> None:
        """Finish a pending reflector u, pivot row j, from Y^T u and u . u:
        those the array ``summed`` carries (sums ``append`` takes), or else
        one reduction's.  nrm u = x - alpha e_j, so u . u gives x's norm,
        which alpha, u's pivot entry and the u . r in ``summed`` take; T's
        new column is -tau T Y^T u, tau = 2 / (u . u), 0 for u = 0."""
        if self._pending is None:
            return
        (column, pivot_value, alpha, nrm), j = self._pending, len(self._y) - 1
        y = self._block[:j + 1]
        lag = self.comm.allreduce_sum_array(y @ y[j]) if summed is None \
            else summed[j + 2:2 * j + 3]
        if nrm:
            exact = -copysign(sqrt(max(0.0, nrm * nrm * lag[j] + alpha * (
                2.0 * pivot_value - alpha))), pivot_value)
            shift, u_j = (alpha - exact) / nrm, self._y_head[j, j]
            lag[:j] += shift * self._y_head[:j, j]
            lag[j] += shift * (2.0 * u_j + shift)
            self._y_head[j, j] = u_j + shift
            if column is not None:
                self._upper[j, column] = exact
            if 0 <= j - self.layout.starts[self.comm.rank] < len(self.work):
                y[j, j - self.layout.starts[self.comm.rank]] += shift
            if summed is not None:  # u . r, with r's row j
                summed[1 + j] += shift * summed[2 * j + 3 + j]
        tau = 2.0 / lag[j] if lag[j] else 0.0
        self._t = _bordered(self._t, -tau * (self._t @ lag[:j]), tau)
        self._pending = None

    def _floor(self) -> float:
        # R_F's columns carry rounding of a few ulps per reflector
        return 4.0 * len(self._y) * 2.0 ** -52  # machine epsilon

    def _pick(self, columns) -> np.ndarray:
        """R_F E for the pairs; a difference within the floor is zero,
        as it is when the residuals themselves are equal."""
        upper, pairs = self._upper, np.array(columns, dtype=int).reshape(-1, 2)
        if not self._y or pairs.size and not (
                0 <= pairs.min() <= pairs.max() < upper.shape[1]):
            raise ValueError("F has no column %r" % (columns,))
        # rows: differences, plus, minus, each summed as a gathered column
        k, both = len(pairs), upper.T[pairs.T.ravel()]
        rows = np.concatenate([both[:k] - both[k:], both])
        d, p, m = np.sqrt(np.add.reduce(rows * rows, axis=1)).reshape(3, k)
        rows[:k][d <= self._floor() * np.maximum(p, m)] = 0.0
        return rows[:k].T

    def factor(self, columns, epsilon: float):
        """Solve for the pairs ``columns`` against F's newest column.
        Local: triangularize R_F E under the filter.  Returns (stack,
        outcome, first q rows of the rotated R_F column of F's newest),
        a projection within the floor being zero.  The stack shares F's
        reflectors, T and Y head, which the next rebuilding ``compact``
        rewrites or replaces."""
        picked = self._pick(columns)
        if len(columns) > self.layout.global_size:
            raise ValueError("%d columns exceed the %d interface rows"
                             % (len(columns), self.layout.global_size))
        tri, rotation, outcome = _triangularize(picked, epsilon)
        head, r_k = rotation @ self._upper[:, -1], self._upper[:, -1].copy()
        if sqrt(head @ head) <= self._floor() * sqrt(r_k @ r_k):  # as norm()
            head = np.zeros_like(head)
        return (HouseholderStack(
            list(self._y), tri, (np.diagonal(self._y_head) == 0.0).tolist(),
            rotation, self._t, self._y_head), outcome, head)

    def compact(self, columns) -> dict:
        """Keep of F what the pairs ``columns`` need; returns each pair's
        new pair.  With up to twice as many reflectors as distinct pairs
        only R_F's dead columns go; beyond, F becomes the pairs' columns
        (none: F starts empty).  With R_F E = Q_s R_s, B = Q_F [Q_s; 0] is
        (I - Y'T'Y'^T)[S; 0] for the LU B - [S; 0] = Y'U and T' = -U S
        Y'_head^-T (Ballard et al., JPDC 85, 2015), and R_F becomes S R_s.
        No communication, except the one reduction that finishes a
        pending reflector before a rebuild."""
        live = list(dict.fromkeys(columns))
        if not live:  # F starts empty
            del self._y[:]
            self._t = self._y_head = np.zeros((0, 0))
            self._upper, self._pending = self._upper[:0], None
        if len(self._y) <= 2 * len(live):
            where = {i: k for k, i in enumerate(sorted({0}.union(*live)))}
            self._upper = self._upper[:, list(where)]
            if self._pending:  # its column may be dead
                self._pending = (where.get(self._pending[0]),
                                 *self._pending[1:])
            return {pair: (where[pair[0]], where[pair[1]]) for pair in live}
        self.finish()
        q_s, r_s = _qr(self._pick(live), reduced=True)
        # B = [Q_s; 0] - Y G, whose top q rows every rank holds: their
        # LU without pivoting, each sign in S making its pivot >= 1
        g, n, q = self._t @ (self._y_head @ q_s), len(self._y), len(live)
        lu, signs = q_s[:q] - self._y_head[:, :q].T @ g, np.empty(q)
        for j in range(q):
            signs[j] = -copysign(1.0, lu[j, j])
            lu[j, j] -= signs[j]
            lu[j + 1:, j] /= lu[j, j]
            lu[j + 1:, j + 1:] -= np.outer(lu[j + 1:, j], lu[j, j + 1:])
        lower, upper = np.tril(lu, -1) + np.eye(q), np.triu(lu)
        self._t = -dtrtrs(lower.T, (upper * signs).T, trans=1,
                          unitdiag=1)[0].T
        self._y_head = np.ascontiguousarray(lower.T)
        start, count = self.layout.starts[self.comm.rank], len(self.work)
        # below its head, the LU's unit triangle, Y' = B U^-1
        #     = [Q_s; 0] U^-1 - Y G U^-1, written over Y by row chunks
        q_u, g_u = (dtrtrs(upper.T, m.T, lower=1)[0] for m in (q_s, g))
        for a in range(0, count, self._CHUNK):
            rows = np.arange(start + a, start + min(a + self._CHUNK, count))
            y = self._block[:n, a:a + len(rows)]
            chunk = -g_u @ y
            chunk[:, rows < n] += q_u[:, rows[rows < n]]
            chunk[:, rows < q] = lower[rows[rows < q]].T
            y[:q] = chunk
        del self._y[q:]
        self._upper = np.column_stack([np.zeros(q), signs[:, None] * r_s])
        return {pair: (j + 1, 0) for j, pair in enumerate(live)}


def _bordered(a: np.ndarray, column: np.ndarray, corner: float) -> np.ndarray:
    """[[a, column], [0, corner]]: ``a`` with one more row and column."""
    out = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    out[:-1, :-1], out[:-1, -1], out[-1, -1] = a, column, corner
    return out


def back_substitute(stack: HouseholderStack, rhs: np.ndarray,
                    comm: RankComm, layout: PartitionLayout) -> np.ndarray:
    """Solve U*lam = rhs on every rank.  No communication.

    U and rhs are replicated, so each rank solves the same triangle and
    gets the same lam; ``comm`` only keeps the signature uniform with
    the other kernels.  A diagonal entry indistinguishable from zero at
    working precision raises SingularUpperError (on every rank alike).
    An exactly dependent column lands a few ulps from zero after
    reduction, so the test must be a relative one; the threshold sits
    many orders below any diagonal a usable column can produce.
    """
    upper = stack.upper
    # squares of U / 2^e cannot overflow; the root is scaled back exactly
    e = frexp(np.abs(upper).max(initial=0.0))[1]
    scaled = np.ldexp(upper, -e)
    floor = ldexp(4.0 * layout.global_size * 2.0 ** -52
                  * sqrt((scaled * scaled).sum()), e)
    if (np.abs(upper.diagonal()) <= floor).any():
        raise SingularUpperError("singular U")
    if floor != floor or not np.isfinite(rhs).all():  # floor: a NaN in U
        raise ValueError("array must not contain infs or NaNs")
    return dtrtrs(upper.T, rhs, lower=1, trans=1)[0] if rhs.size else +rhs
