"""Compact Householder factorization of tall distributed matrices.

The quasi-Newton update needs the least-squares solution of a tall,
skinny system V*lam ~ -r where V has at most a few dozen columns but as
many rows as the interface.  We factor V = Q*[U; 0] with Householder
reflectors and never form Q or any p-by-p matrix: the factorization is
the reflector vectors (stored as distributed fields) plus small
replicated matrices, the triangle U and, after a filter drop, a local
rotation.

Pivot row j is global row j, on whichever rank owns it.  The few
replicated scalars each column needs -- its norm below the pivot, the
pivot itself and the triangle entries above it -- come from one
zero-padded reduction, so no rank is privileged.

The relative filter against (near-)dependent columns runs on the
replicated triangle, with no communication: scanning in column order,
column j is removed when |U[j, j]| < epsilon * ||U[:, :j+1]||_F (over
the columns kept so far), the columns after it are re-triangularized
locally, and the scan goes on at j.  With epsilon = 0 an exactly
dependent column surfaces later as a "singular U" error from the
triangular solve.

``StepFactor`` factors a step's history block H once, in compact WY
form (Schreiber and Van Loan 1989); each proposal factors only the
rows of Q_H^T C below H's triangle for the current columns C, then
filters the small block [[A, R_H], [R_B, 0]] locally: block column
insertion at the front (Hammarling and Lucas, MIMS EPrint 2008.111).
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
    all ranks; ``rotation`` (after a filter drop) is the first q rows of
    the local orthogonal factor applied after the reflectors.  ``block``
    has decompose's reflectors as its rows.
    """

    reflectors: list[InterfaceVector]
    upper: np.ndarray
    identity_flags: list[bool] = dataclass_field(default_factory=list)
    rotation: np.ndarray | None = None
    block: np.ndarray | None = dataclass_field(default=None, repr=False)

    @property
    def q(self) -> int:
        return self.upper.shape[0]


def _rows_before(layout: PartitionLayout, rank: int, n: int) -> int:
    """How many of ``rank``'s rows lie before global row n."""
    return min(max(n - layout.starts[rank], 0), layout.counts[rank])


def _head_share(layout: PartitionLayout, rank: int, local: np.ndarray,
                n: int) -> np.ndarray:
    """This rank's entries among global rows 0..n-1, in a length-n vector.

    The other entries are -0.0, the exact additive identity, so an
    allreduce of the shares returns every row's value bit for bit (the
    sign of a zero included) from whichever rank owns it.
    """
    start, rows = layout.starts[rank], _rows_before(layout, rank, n)
    share = np.full(n, -0.0)
    share[start:start + rows] = local[:rows]
    return share


def _reflector_from_column(layout: PartitionLayout, comm: RankComm,
                           col: np.ndarray, pivot: int):
    """Build the reflector zeroing ``col`` below global row ``pivot``.

    Rows before the pivot are treated as zero: they hold already-computed
    triangle entries and must not move again.  Returns (u_local, alpha,
    is_identity, above), where ``above`` holds those rows' replicated
    values; costs one reduction.
    """
    start = layout.starts[comm.rank]
    before = _rows_before(layout, comm.rank, pivot)
    tail = col[before:]
    reduced = comm.allreduce_sum_array(np.concatenate(
        ([tail @ tail], _head_share(layout, comm.rank, col, pivot + 1))))
    sigma = sqrt(reduced[0])
    above, pivot_value = reduced[1:pivot + 1], float(reduced[pivot + 1])
    zero_u = np.zeros_like(col)
    if sigma == 0.0:
        return zero_u, 0.0, True, above
    if pivot_value == sigma:
        # column already has the right shape; keep the positive pivot
        return zero_u, sigma, True, above
    alpha = -copysign(sigma, pivot_value)
    # ||col - alpha*e_pivot|| via replicated scalars; the sign choice
    # makes pivot_value - alpha an addition, never a cancellation
    nrm = sqrt(2.0 * sigma * (sigma + abs(pivot_value)))
    u = col / nrm
    u[:before] = 0.0
    if start <= pivot < start + len(col):
        u[pivot - start] = (pivot_value - alpha) / nrm
    return u, alpha, False, above


def householder_vector(v: InterfaceVector, pivot_row: int):
    """Reflector for one column: returns (u, alpha) with u distributed.

    ``pivot_row`` is a global row on any rank.  After reflection the
    column is alpha at the pivot and zero below; u is a unit vector or
    exactly zero.
    """
    layout = v.layout
    if not 0 <= pivot_row < layout.global_size:
        raise ValueError("pivot row %d outside the %d interface rows"
                         % (pivot_row, layout.global_size))
    u_local, alpha, _, _ = _reflector_from_column(
        layout, v.comm, v.local.copy(), pivot_row)
    return InterfaceVector(layout, v.comm, u_local), alpha


def _reflect(comm: RankComm, reflectors, identity_flags,
             t: np.ndarray) -> None:
    """Apply reflectors to local slice ``t`` in the given order, in place.

    Identity reflectors are skipped; every other one costs one reduction.
    """
    for u, identity in zip(reflectors, identity_flags):
        if identity:
            continue
        coef = comm.allreduce_sum(float(u.local @ t))
        t -= 2.0 * coef * u.local


def apply_reflector(u: InterfaceVector, t: InterfaceVector) -> InterfaceVector:
    """t - 2*u*(u.t): one reduction, local update."""
    _check_compatible(u, t)
    out = t.local.copy()
    _reflect(u.comm, [u], [False], out)
    return InterfaceVector(t.layout, t.comm, out)


def _householder(layout: PartitionLayout, comm: RankComm, work: np.ndarray,
                 ncols: int, offset: int):
    """Factor the first ``ncols`` rows (local column slices) of ``work``
    in place, pivoting at global rows ``offset + j``; later rows are
    carried along.  Returns the replicated entries on and above the
    pivots and the identity flags.  One reduction per column, plus one
    per reflector that has later rows to update."""
    tri = np.zeros((offset + ncols, ncols))
    flags: list[bool] = []
    rows = list(work)  # views: updates land in ``work``
    for j, col in enumerate(rows[:ncols]):
        u, alpha, identity, above = _reflector_from_column(
            layout, comm, col, offset + j)
        tri[:offset + j, j] = above
        tri[offset + j, j] = alpha
        col[:] = u
        later = rows[j + 1:]
        if not identity and later:
            coefs = comm.allreduce_sum_array(np.array([u @ w for w in later]))
            for coef, w in zip(coefs, later):
                w -= 2.0 * coef * u
        flags.append(identity)
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
        small = np.flatnonzero(np.abs(np.diagonal(block)) < epsilon * filled)
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
    tri, flags = _householder(layout, comm, work, len(columns), 0)
    upper, rotation, outcome = _triangularize(tri, epsilon, True)
    stack = HouseholderStack([InterfaceVector(layout, comm, u) for u in work],
                             upper, flags, rotation, work)
    return stack, outcome


def apply_qt(stack: HouseholderStack, r: InterfaceVector) -> np.ndarray:
    """First q rows of Q^T r, replicated on every rank.

    The reflectors are applied in construction order (the first one
    first); the rows they pivot on are then combined from their owners
    with one more reduction, and turned by ``rotation`` if there is one.
    """
    t = r.local.copy()
    _reflect(r.comm, stack.reflectors, stack.identity_flags, t)
    head = r.comm.allreduce_sum_array(
        _head_share(r.layout, r.comm.rank, t, len(stack.reflectors)))
    return head if stack.rotation is None else stack.rotation @ head


class StepFactor:
    """One step's history factor: decompose's stack for the history
    columns with epsilon = 0, or None.  Its leading k_H reflectors and
    triangle block factor its leading k_H columns: truncation is free."""

    def __init__(self, history: HouseholderStack | None):
        self.history = history
        self.columns = 0 if history is None else history.q
        self._wy_t: np.ndarray | None = None

    def _project(self, comm: RankComm, k_h: int, work: np.ndarray) -> None:
        """Apply Q_H^T of the first k_h reflectors to the rows of ``work``
        with one reduction.  T is built on first use, from a Gram matrix
        that rides on that reduction, so single-proposal steps skip it."""
        y = self.history.block
        cross = y[:k_h] @ work.T
        if self._wy_t is None:
            k = len(y)
            reduced = comm.allreduce_sum_array(
                np.concatenate(((y @ y.T).ravel(), cross.ravel())))
            cross = reduced[k * k:].reshape(cross.shape)
            # T^-1 = I/2 + strict upper part of Y^T Y (Joffrain et al.,
            # ACM TOMS 32, 2006); zero reflectors take part harmlessly
            self._wy_t = scipy.linalg.solve_triangular(
                np.triu(reduced[:k * k].reshape(k, k), 1) + 0.5 * np.eye(k),
                np.eye(k))
        else:
            cross = comm.allreduce_sum_array(cross)
        work -= (self._wy_t[:k_h, :k_h].T @ cross).T @ y[:k_h]

    def factor(self, columns: list[InterfaceVector], r: InterfaceVector,
               k_h: int, epsilon: float):
        """Factor [columns, first k_h history columns] and return (stack,
        outcome, first q rows of Q^T r).  2c + 2 reductions for c >= 1
        columns (2c + 1 if k_h = 0), whatever k_h and the filter do; with
        none, apply_qt's count on the history stack."""
        layout, comm, c, history = r.layout, r.comm, len(columns), self.history
        reflectors = history.reflectors[:k_h] if k_h else []
        flags = history.identity_flags[:k_h] if k_h else []
        m = np.zeros((k_h + c, c + k_h))
        if k_h:
            m[:k_h, c:] = history.upper[:k_h, :k_h]
        if not c:
            # the step's first proposal: no T yet, and none needed; later
            # reflectors leave the rows before k_h alone
            pre = apply_qt(history, r)[:k_h]
        else:
            work = np.array([col.local for col in columns] + [r.local])
            if k_h:
                self._project(comm, k_h, work)
            m[:, :c], new_flags = _householder(layout, comm, work, c, k_h)
            pre = comm.allreduce_sum_array(
                _head_share(layout, comm.rank, work[c], k_h + c))
            reflectors = reflectors + [InterfaceVector(layout, comm, u)
                                       for u in work[:c]]
            flags = flags + new_flags
        upper, rotation, outcome = _triangularize(m, epsilon, not (c and k_h))
        head = pre[:len(upper)] if rotation is None else rotation @ pre
        return (HouseholderStack(reflectors, upper, flags, rotation),
                outcome, head)


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
    out = []
    for i in range(stack.q):
        column = stack.upper[:, i]
        if stack.rotation is not None:
            column = stack.rotation.T @ column
        full = np.zeros(layout.global_size)
        full[:len(column)] = column
        t = distribute(layout, comm, full)
        _reflect(comm, reversed(refl), reversed(stack.identity_flags),
                 t.local)
        out.append(t)
    return out
