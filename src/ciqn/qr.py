"""Compact Householder factorization of tall distributed matrices.

The quasi-Newton update needs the least-squares solution of a tall,
skinny system V*lam ~ -r, V with a few dozen columns and a row per
interface entry.  V = Q*[U; 0] is factored with Householder reflectors,
stored as distributed fields, and small replicated matrices: the
triangle U and a local rotation.  Neither Q nor any p-by-p matrix is
formed.

Pivot row j is global row j, on whichever rank owns it.  The few
replicated scalars each column needs -- its norm below the pivot, the
pivot itself and the triangle entries above it -- come from one
zero-padded reduction, so no rank is privileged.

The relative filter against (near-)dependent columns runs on the
replicated triangle, with no communication: scanning in column order,
column j is removed when |U[j, j]| <= epsilon * ||U[:, :j+1]||_F (over
the columns kept so far, so a zero column goes, the first one too), the
columns after it are re-triangularized locally, and the scan goes on
at j.  Epsilon = 0 turns it off: an exactly dependent column surfaces
later as a "singular U" error from the triangular solve.

The coupler keeps one ``StepFactor`` per solve.  Its F holds every raw
residual, each appended with one reduction (none once F has a reflector
per interface row), its projection through F riding on the coupler's
r . r (Daniel, Gragg, Kaufman and Stewart, Math. Comp. 30, 1976); every
secant column, the history's too, is a difference of two of F's
columns, picked from R_F locally.  A step start rebuilds F from its
live columns, also locally, once they number less than half its
reflectors.  ``decompose`` and ``apply_qt`` are front-ends over it,
kept for the tests and the benchmark's tracer.  The replicated kernels
call LAPACK's ``dgeqrf``, ``dorgqr`` and ``dtrtrs`` directly, never on
an empty shape, as ``np.linalg.qr`` and ``scipy.linalg.solve_triangular``
call them (for a C-ordered or 1-by-1 triangle: through its transpose).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from math import copysign, sqrt

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dorgqr, dtrtrs

from .field import InterfaceVector, PartitionLayout, _check_compatible
from .runtime import RankComm


class EmptySecantSpaceError(RuntimeError):
    """Every column was filtered out; nothing left to factor."""

    def __init__(self, dropped: list[int], restarts: int):
        super().__init__("empty secant space: all %d columns filtered"
                         % len(dropped))
        self.dropped = dropped
        self.restarts = restarts


class SingularUpperError(RuntimeError):
    """Exactly zero diagonal in U; enable filtering to drop the column."""


@dataclass
class FilterOutcome:
    """Which original column indices survived the dependence filter."""

    kept: list[int]
    dropped: list[int]
    restarts: int  # one per drop


@dataclass
class HouseholderStack:
    """The factorization: reflectors plus small replicated matrices.

    reflectors[j] zeroes its column below global row j; each has unit
    norm (to rounding, once a ``StepFactor`` has compacted) or is zero
    (the identity: identity_flags[j]).  Their product is I - Y T Y^T.
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
                n: int) -> np.ndarray:
    """This rank's entries among global rows 0..n-1 of its slice
    ``local``, in an array of length n.  The other entries are -0.0, the
    exact additive identity, so an allreduce of the shares returns every
    row's value bit for bit (the sign of a zero included) from whichever
    rank owns it."""
    start, rows = layout.starts[rank], _rows_before(layout, rank, n)
    share = np.full(n, -0.0)
    share[start:start + rows] = local[:rows]
    return share


def _reflector_from_column(layout: PartitionLayout, comm: RankComm,
                           col: np.ndarray, pivot: int, extra=()):
    """Build the reflector zeroing ``col`` below global row ``pivot``.

    Rows before the pivot are treated as zero: they hold already-computed
    triangle entries and must not move again.  Costs one reduction, which
    also sums ``extra``.  Returns (u_local, alpha, nrm, head, extra
    summed): u = (col from the pivot down - alpha e_pivot) / nrm, with
    nrm = 0 for the identity, and ``head`` holds rows 0..pivot of col,
    replicated.
    """
    start = layout.starts[comm.rank]
    before = _rows_before(layout, comm.rank, pivot)
    tail = col[before:]
    reduced = comm.allreduce_sum_array(np.concatenate(
        ([tail @ tail], _head_share(layout, comm.rank, col, pivot + 1),
         extra)))
    sigma, head = sqrt(reduced[0]), reduced[1:pivot + 2]
    pivot_value, extra = float(head[-1]), reduced[pivot + 2:]
    if sigma == 0.0 or pivot_value == sigma:
        # a zero column, or one that already has the right shape (keep
        # its positive pivot)
        return np.zeros_like(col), sigma, 0.0, head, extra
    alpha = -copysign(sigma, pivot_value)
    # ||col - alpha*e_pivot|| via replicated scalars; the sign choice
    # makes pivot_value - alpha an addition, never a cancellation
    nrm = sqrt(2.0 * sigma * (sigma + abs(pivot_value)))
    u = col / nrm
    u[:before] = 0.0
    if start <= pivot < start + len(col):
        u[pivot - start] = (pivot_value - alpha) / nrm
    return u, alpha, nrm, head, extra


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
        raise EmptySecantSpaceError(dropped, len(dropped))
    q = len(kept)
    return tri[:q, :q], tri[:q, q:], FilterOutcome(kept, dropped,
                                                   len(dropped))


def decompose(columns: list[InterfaceVector], epsilon: float):
    """Factor the columns into (HouseholderStack, FilterOutcome): append
    them to a fresh ``StepFactor``, reducing each one's shares alone (2k -
    1 reductions for k columns, whatever the filter drops), and factor
    the pairs (j + 1, 0).  EmptySecantSpaceError: nothing left."""
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    if not columns:
        raise EmptySecantSpaceError([], 0)
    for c in columns[1:]:
        _check_compatible(columns[0], c)
    step = StepFactor()
    for c in columns:
        shares = step.shares(c)
        step.append(c, c.comm.allreduce_sum_array(shares) if shares
                    else shares)
    stack, outcome, _ = step.factor(
        [(j + 1, 0) for j in range(len(columns))], epsilon)
    return stack, outcome


def _projection_shares(ys, r: InterfaceVector, rows: int) -> list:
    """This rank's addends to Y^T r, Y = ``ys``, then to r's first rows."""
    shares = [y.local @ r.local for y in ys]
    return shares + _head_share(r.layout, r.comm.rank, r.local,
                                rows).tolist() if rows else shares


def _qt_head(t, y_head, summed: np.ndarray) -> np.ndarray:
    """Rows 0..n-1 of Q^T r, for Q = I - Y T Y^T with n reflectors, from
    the summed ``_projection_shares`` of r with n rows."""
    n = len(t)
    return summed[n:] - y_head.T @ (t.T @ summed[:n])


def apply_qt(stack: HouseholderStack, r: InterfaceVector) -> np.ndarray:
    """First q rows of Q^T r, turned by ``rotation``, replicated on every
    rank.  One reduction."""
    ys = stack.reflectors
    summed = r.comm.allreduce_sum_array(_projection_shares(ys, r, len(ys)))
    return stack.rotation @ _qt_head(stack.t, stack.y_head, summed)


class StepFactor:
    """The Householder factor of F, every raw residual of a solve.

    ``append`` makes each residual F's newest column; ``factor`` solves
    for columns F_i - F_j, the pairs (i, j), on the replicated R_F =
    Q_F^T F, F's column 0 being zero.  Q_F = I - Y T Y^T in compact WY
    form (Schreiber and Van Loan 1989), T and Y's pivot rows replicated;
    ``compact`` rebuilds it from the columns later steps can use.
    """

    _CHUNK = 4096  # interface rows ``compact`` rewrites at a time
    reflectors = property(lambda self: len(self._y))

    def __init__(self):
        self._y: list[InterfaceVector] = []  # unit reflectors, or zero
        self._t = self._y_head = np.zeros((0, 0))
        self._upper = np.zeros((0, 1))

    def shares(self, r: InterfaceVector) -> list:
        """This rank's addends to the sums ``append`` takes with r: Y^T r,
        then r's head rows once F has a reflector per interface row."""
        full = len(self._y) == r.layout.global_size
        return _projection_shares(self._y, r, len(self._y) if full else 0)

    def append(self, r: InterfaceVector, summed) -> int:
        """Make r F's newest column; returns its index.  ``summed`` sums
        every rank's ``shares(r)`` (the coupler reduces them with r . r).
        One reduction builds the reflector and carries Y's products for
        T's new column; none once F has a reflector per interface row."""
        self.layout, self.comm = layout, comm = r.layout, r.comm
        col, n, summed = r.local, len(self._y), np.asarray(summed)
        if n:
            if n == layout.global_size:
                self._upper = np.column_stack(
                    [self._upper, _qt_head(self._t, self._y_head, summed)])
                return self._upper.shape[1] - 1
            coefs = self._t.T @ summed
            col = col.copy()
            for coef, y in zip(coefs, self._y):
                col -= coef * y.local
        before = _rows_before(layout, comm.rank, n)
        owns = before < len(col) and layout.starts[comm.rank] + before == n
        u, alpha, nrm, head, extra = _reflector_from_column(
            layout, comm, col, n, np.array(
                [y.local[before:] @ col[before:] for y in self._y]
                + [y.local[before] if owns else -0.0 for y in self._y]))
        # Y u, from Y times col from the pivot down and Y's pivot row
        y_row = extra[n:]
        y_u = (extra[:n] - alpha * y_row) / nrm if nrm else np.zeros(n)
        # (I - Y T Y^T)(I - 2 u u^T)
        #     = I - [Y u] [[T, -2 T Y u], [0, 2]] [Y u]^T
        self._t = _bordered(self._t, -2.0 * (self._t @ y_u), 2.0)
        self._y_head = _bordered(self._y_head, y_row,
                                 (head[-1] - alpha) / nrm if nrm else 0.0)
        self._upper = _bordered(self._upper, head[:-1], alpha)
        self._y.append(InterfaceVector(layout, comm, u))
        return self._upper.shape[1] - 1

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
        """Keep of F what the pairs ``columns`` need, with no
        communication; returns each pair's new pair.  With up to twice as
        many reflectors as distinct pairs only R_F's dead columns go;
        beyond, F becomes the pairs' columns (none: F starts empty).
        With R_F E = Q_s R_s, B = Q_F [Q_s; 0] is (I - Y'T'Y'^T)[S; 0]
        for the LU B - [S; 0] = Y'U and T' = -U S Y'_head^-T (Ballard et
        al., JPDC 85, 2015), and R_F becomes S R_s."""
        live = list(dict.fromkeys(columns))
        if not live:  # F starts empty
            del self._y[:]
            self._t = self._y_head = np.zeros((0, 0))
            self._upper = self._upper[:0]
        if len(self._y) <= 2 * len(live):
            where = {i: k for k, i in enumerate(sorted({0}.union(*live)))}
            self._upper = self._upper[:, list(where)]
            return {pair: (where[pair[0]], where[pair[1]]) for pair in live}
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
        t = -dtrtrs(lower.T, (upper * signs).T, trans=1, unitdiag=1)[0].T
        # Y' D, D = sqrt(diag(T') / 2), are unit reflectors, Q_F their
        # product, with T = D^-1 T' D^-1
        d = np.sqrt(np.diagonal(t) / 2.0)
        self._t, self._y_head = t / np.outer(d, d), d[:, None] * lower.T
        start, count = (self.layout.starts[self.comm.rank],
                        self.layout.counts[self.comm.rank])
        # below its head, the LU's unit triangle, Y' = B U^-1
        #     = [Q_s; 0] U^-1 - Y G U^-1, written over Y by row chunks
        q_u, g_u = (dtrtrs(upper.T, m.T, lower=1)[0] for m in (q_s, g))
        for a in range(0, count, self._CHUNK):
            rows = np.arange(start + a, start + min(a + self._CHUNK, count))
            chunk = -g_u @ np.array([y.local[a:a + len(rows)]
                                     for y in self._y])
            chunk[:, rows < n] += q_u[:, rows[rows < n]]
            chunk[:, rows < q] = lower[rows[rows < q]].T
            for y, row, scale in zip(self._y, chunk, d):
                y.local[a:a + len(rows)] = scale * row
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
    floor = 4.0 * layout.global_size * 2.0 ** -52 * sqrt((upper * upper).sum())
    if (np.abs(upper.diagonal()) <= floor).any():
        raise SingularUpperError("singular U")
    if floor != floor or not np.isfinite(rhs).all():  # floor: a NaN in U
        raise ValueError("array must not contain infs or NaNs")
    return dtrtrs(upper.T, rhs, lower=1, trans=1)[0] if rhs.size else +rhs
