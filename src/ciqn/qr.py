"""Compact Householder factorization of tall distributed matrices.

The quasi-Newton update needs the least-squares solution of a tall,
skinny system V*lam ~ -r, V with a few dozen columns and a row per
interface entry.  V = Q*[U; 0] is factored with Householder reflectors,
stored as distributed fields, and small replicated matrices: the
triangle U and, after a filter drop, a local rotation.  Neither Q nor
any p-by-p matrix is formed.

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

The coupler's ``StepFactor`` factors one time step's F = [H, r_0, ...,
r_k], its history columns and then its raw residuals, and appends one
column per proposal with two reductions (Daniel, Gragg, Kaufman and
Stewart, Math. Comp. 30, 1976).  Every secant column r_{k-i} - r_k and
every history column is a fixed combination of F's columns, so their
triangle comes from R_F on the replicated data, with no communication;
a difference within the rounding of R_F is taken as exactly zero.
``decompose``, ``apply_qt`` and ``reconstruct`` are one-shot kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from math import copysign, sqrt

import numpy as np
import scipy.linalg

from .field import (InterfaceVector, PartitionLayout, _check_compatible,
                    distribute)
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
    norm or is zero (the identity).  ``upper`` is q-by-q, identical on
    all ranks; ``rotation`` (unless the reflectors' triangle is U itself)
    is the first q rows of the local orthogonal factor applied after them.
    """

    reflectors: list[InterfaceVector]
    upper: np.ndarray
    identity_flags: list[bool] = dataclass_field(default_factory=list)
    rotation: np.ndarray | None = None

    @property
    def q(self) -> int:
        return self.upper.shape[0]


def _rows_before(layout: PartitionLayout, rank: int, n: int) -> int:
    """How many of ``rank``'s rows lie before global row n."""
    return min(max(n - layout.starts[rank], 0), layout.counts[rank])


def _head_share(layout: PartitionLayout, rank: int, local: np.ndarray,
                n: int) -> np.ndarray:
    """This rank's entries among global rows 0..n-1 of ``local`` (a slice,
    or rows of slices), in a last axis of length n.

    The other entries are -0.0, the exact additive identity, so an
    allreduce of the shares returns every row's value bit for bit (the
    sign of a zero included) from whichever rank owns it.
    """
    start, rows = layout.starts[rank], _rows_before(layout, rank, n)
    share = np.full(local.shape[:-1] + (n,), -0.0)
    share[..., start:start + rows] = local[..., :rows]
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


def _reflect(comm: RankComm, reflectors, identity_flags,
             block: np.ndarray) -> None:
    """Apply reflectors, in the given order, to the rows (local slices) of
    ``block`` in place.  Identity reflectors are skipped; every other one
    costs one reduction for all the rows."""
    for u, identity in zip(reflectors, identity_flags):
        if not identity:
            coefs = comm.allreduce_sum_array(block @ u.local)
            block -= 2.0 * np.outer(coefs, u.local)


def _householder(layout: PartitionLayout, comm: RankComm, work: np.ndarray,
                 ncols: int):
    """Factor the first ``ncols`` rows (local column slices) of ``work``
    in place, pivoting at global rows 0..ncols-1; later rows are carried
    along.  Returns the replicated triangle and the identity flags.  One
    reduction per column, plus one per reflector that has later rows to
    update."""
    tri = np.zeros((ncols, ncols))
    flags: list[bool] = []
    rows = list(work)  # views: updates land in ``work``
    for j, col in enumerate(rows[:ncols]):
        u, alpha, nrm, head, _ = _reflector_from_column(layout, comm, col, j)
        tri[:j, j], tri[j, j] = head[:-1], alpha
        col[:] = u
        later = rows[j + 1:]
        if nrm and later:
            coefs = comm.allreduce_sum_array(np.array([u @ w for w in later]))
            for coef, w in zip(coefs, later):
                w -= 2.0 * coef * u
        flags.append(not nrm)
    return tri, flags


def _triangularize(m: np.ndarray, epsilon: float, triangular: bool):
    """Triangularize the replicated block ``m`` (rows >= columns) under
    the filter: scan, drop, re-triangularize the rest, go on.  Local.
    Returns (upper, rotation or None, outcome)."""
    rows, ncols = m.shape
    kept, dropped = list(range(ncols)), []
    tri = m
    if not triangular:
        # the identity carried along becomes the rotation
        tri = np.linalg.qr(np.hstack([m, np.eye(rows)]), mode="r")
    while epsilon:
        block = tri[:, :len(kept)]
        filled = np.sqrt(np.cumsum(np.sum(block * block, axis=0)))
        small = np.flatnonzero(np.abs(np.diagonal(block)) <= epsilon * filled)
        if not small.size:
            break
        j = small[0]
        if tri is m:
            tri = np.hstack([m, np.eye(rows)])
        dropped.append(kept.pop(j))
        tri = np.delete(tri, j, axis=1)
        tri[j:, j:] = np.linalg.qr(tri[j:, j:], mode="r")
    if not kept:
        raise EmptySecantSpaceError(dropped, len(dropped))
    q = len(kept)
    return (tri[:q, :q], None if tri is m else tri[:q, q:],
            FilterOutcome(kept, dropped, len(dropped)))


def decompose(columns: list[InterfaceVector], epsilon: float):
    """Factor the columns into (HouseholderStack, FilterOutcome).

    Every column gets its distributed reflector (2k - 1 reductions for
    k columns, whatever the filter later drops); the relative filter
    then runs on the replicated triangle with no communication.  Raises
    EmptySecantSpaceError when nothing survives.
    """
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    if not columns:
        raise EmptySecantSpaceError([], 0)
    first = columns[0]
    for c in columns[1:]:
        _check_compatible(first, c)
    layout, comm = first.layout, first.comm
    if len(columns) > layout.global_size:
        raise ValueError("%d columns exceed the %d interface rows"
                         % (len(columns), layout.global_size))
    work = np.array([c.local for c in columns])
    tri, flags = _householder(layout, comm, work, len(columns))
    upper, rotation, outcome = _triangularize(tri, epsilon, True)
    stack = HouseholderStack([InterfaceVector(layout, comm, u) for u in work],
                             upper, flags, rotation)
    return stack, outcome


def apply_qt(stack: HouseholderStack, r: InterfaceVector) -> np.ndarray:
    """First q rows of Q^T r, replicated on every rank.

    The reflectors are applied in construction order (the first one
    first); the rows they pivot on are then combined from their owners
    with one more reduction, and turned by ``rotation`` if there is one.
    """
    t = r.local[None, :].copy()
    _reflect(r.comm, stack.reflectors, stack.identity_flags, t)
    head = r.comm.allreduce_sum_array(
        _head_share(r.layout, r.comm.rank, t[0], len(stack.reflectors)))
    return head if stack.rotation is None else stack.rotation @ head


class StepFactor:
    """The Householder factor of one time step's F = [H, r_0, ..., r_k]:
    its history columns, then its raw residuals, oldest first.

    One Householder pass factors the history with the first residual;
    ``append`` adds each later residual, and ``factor`` solves for any
    choice of secant columns on the replicated R_F = Q_F^T F.  The
    reflectors are kept in compact WY form, Q_F = I - Y T Y^T (Schreiber
    and Van Loan 1989); T and the head of Y, its pivot rows, are
    replicated.
    """

    def __init__(self, history: list[InterfaceVector], r: InterfaceVector):
        layout, comm, k = r.layout, r.comm, len(history)
        if k > layout.global_size:
            raise ValueError("%d columns exceed the %d interface rows"
                             % (k, layout.global_size))
        self.layout, self.comm, self.history = layout, comm, k
        # one pass factors [H, r_0]; if H fills the interface, r_0 has no
        # pivot row left and its column is its whole projection
        work = np.array([col.local for col in history] + [r.local])
        ncols = min(k + 1, layout.global_size)
        self._upper, self._flags = _householder(layout, comm, work, ncols)
        if ncols == k:
            self._upper = np.column_stack([
                self._upper, comm.allreduce_sum_array(
                    _head_share(layout, comm.rank, work[k], k))])
        self._y = [work[:ncols]]  # reflector rows, then one per append
        # T and the head of Y ride on the first append's reduction, so a
        # step that makes a single proposal never builds them
        self._t = self._y_head = None

    def append(self, r: InterfaceVector) -> None:
        """Make r, the step's newest residual, F's last column.  Two
        reductions: one projects r through Y, one builds the reflector
        and carries Y's products with it, for T's new column.  Once F has
        a column per interface row, one: r's rows ride with Y r, and the
        head of Y projects them."""
        layout, comm, n = self.layout, self.comm, len(self._flags)
        full = n == layout.global_size
        parts = [np.concatenate([y @ r.local for y in self._y])]
        if full:
            parts.append(_head_share(layout, comm.rank, r.local, n))
        if self._t is None:
            # one block so far: its Gram matrix and head rows, for T
            parts += [(self._y[0] @ self._y[0].T).ravel(),
                      _head_share(layout, comm.rank, self._y[0], n).ravel()]
        reduced = comm.allreduce_sum_array(np.concatenate(parts))
        if self._t is None:
            gram, head = reduced[-2 * n * n:].reshape(2, n, n)
            # T^-1 = I/2 + strict upper part of Y^T Y (Joffrain et al.,
            # ACM TOMS 32, 2006); zero reflectors take part harmlessly
            self._t = scipy.linalg.solve_triangular(
                np.triu(gram, 1) + 0.5 * np.eye(n), np.eye(n))
            self._y_head = head
        coefs = self._t.T @ reduced[:n]
        if full:
            self._upper = np.column_stack(
                [self._upper, reduced[n:2 * n] - self._y_head.T @ coefs])
            return
        col, done = r.local.copy(), 0
        for y in self._y:
            col -= coefs[done:done + len(y)] @ y
            done += len(y)
        before = _rows_before(layout, comm.rank, n)
        u, alpha, nrm, head, extra = _reflector_from_column(
            layout, comm, col, n, np.concatenate(
                [y[:, before:] @ col[before:] for y in self._y]
                + [_head_share(layout, comm.rank, y, n + 1)[:, n]
                   for y in self._y]))
        # Y u, from Y times col from the pivot down and Y's pivot row
        y_row = extra[n:]
        y_u = (extra[:n] - alpha * y_row) / nrm if nrm else np.zeros(n)
        # (I - Y T Y^T)(I - 2 u u^T)
        #     = I - [Y u] [[T, -2 T Y u], [0, 2]] [Y u]^T
        self._t = _bordered(self._t, -2.0 * (self._t @ y_u), 2.0)
        self._y_head = _bordered(self._y_head, y_row,
                                 (head[-1] - alpha) / nrm if nrm else 0.0)
        self._upper = _bordered(self._upper, head[:-1], alpha)
        self._y.append(u[None, :])
        self._flags.append(not nrm)

    def factor(self, current: int, k_h: int, epsilon: float):
        """Solve for the secant columns r_{k-i} - r_k, i = 1..current,
        then the first k_h history columns, against r_k, F's last column.
        Local: triangularize R_F E under the filter, where E picks those
        columns of F.  Returns (stack, outcome, first q rows of the
        rotated R_F column of r_k)."""
        upper = self._upper
        newest = upper.shape[1] - 1
        if not 0 <= current <= newest - self.history \
                or not 0 <= k_h <= self.history:
            raise ValueError("F holds %d history columns and %d residuals"
                             % (self.history, newest - self.history + 1))
        r_k, earlier = upper[:, newest], upper[:, newest - current:newest]
        # R_F's columns carry rounding of a few ulps per reflector: a
        # difference, or a projection of r_k, below that floor is zero,
        # as it is when the residuals themselves are equal
        floor = 4.0 * upper.shape[1] * np.finfo(np.float64).eps
        diffs = (earlier - r_k[:, None])[:, ::-1]
        diffs[:, np.linalg.norm(diffs, axis=0) <= floor * np.maximum(
            np.linalg.norm(earlier, axis=0)[::-1], np.linalg.norm(r_k))] = 0.0
        m = np.hstack([diffs, upper[:, :k_h]])
        tri, rotation, outcome = _triangularize(m, epsilon, not current)
        head = r_k[:len(tri)] if rotation is None else rotation @ r_k
        if np.linalg.norm(head) <= floor * np.linalg.norm(r_k):
            head = np.zeros_like(head)
        reflectors = [InterfaceVector(self.layout, self.comm, u)
                      for y in self._y for u in y]
        return (HouseholderStack(reflectors, tri, list(self._flags),
                                 rotation), outcome, head)


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
    floor = 4.0 * layout.global_size * np.finfo(np.float64).eps \
        * np.sqrt(np.sum(upper ** 2))
    if np.any(np.abs(np.diag(upper)) <= floor):
        raise SingularUpperError("singular U")
    return scipy.linalg.solve_triangular(upper, rhs, lower=False)


def reconstruct(stack: HouseholderStack) -> list[InterfaceVector]:
    """Rebuild the kept columns from [U; 0] by reversing the reflectors.

    Mainly a verification aid: the result should match the kept input
    columns to round-off.
    """
    refl = stack.reflectors
    if not refl:
        return []
    layout, comm = refl[0].layout, refl[0].comm
    columns = stack.upper if stack.rotation is None \
        else stack.rotation.T @ stack.upper
    full = np.zeros((stack.q, layout.global_size))
    full[:, :len(columns)] = columns.T
    block = np.array([distribute(layout, comm, row).local for row in full])
    _reflect(comm, reversed(refl), reversed(stack.identity_flags), block)
    return [InterfaceVector(layout, comm, row) for row in block]
