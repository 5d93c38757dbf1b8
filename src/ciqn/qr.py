"""Compact Householder factorization of tall distributed matrices.

The quasi-Newton update needs the least-squares solution of a tall,
skinny system V*lam ~ -r where V has at most a few dozen columns but as
many rows as the interface.  We factor V = Q*[U; 0] with Householder
reflectors and never form Q or any p-by-p matrix: the factorization is
just the q unit reflector vectors (stored as distributed fields) plus
the small q-by-q upper triangle U, replicated on every rank.

Pivot row j is global row j, on whichever rank owns it.  The few
replicated scalars each column needs -- its norm below the pivot, the
pivot itself and the triangle entries above it -- come from one
zero-padded reduction, so no rank is privileged and the reflector
applications stay fully distributed, one reduction each.

A relative filter guards against (near-)linearly dependent columns:
after diagonal entry U[j, j] is computed, the j-th surviving column is
removed outright when |U[j, j]| < epsilon * ||U||_F (norm over the
entries filled so far), and the factorization restarts on the reduced
column set.  With epsilon = 0 the test never fires and an exactly
dependent column surfaces later as a "singular U" error from the
triangular solve.
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
    restarts: int


@dataclass
class HouseholderStack:
    """The factorization: q reflectors plus the replicated triangle.

    reflectors[j] zeroes column j below global row j.  Each has unit
    norm or is identically zero; zero means the column was already
    reduced there and the reflector is the identity.  ``upper`` is
    q-by-q, identical on all ranks.
    """

    reflectors: list[InterfaceVector]
    upper: np.ndarray
    identity_flags: list[bool] = dataclass_field(default_factory=list)

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


def decompose(columns: list[InterfaceVector], epsilon: float):
    """Factor the columns into (HouseholderStack, FilterOutcome).

    Columns that fail the relative diagonal test are dropped and the
    whole reduction restarts on the survivors (the triangle computed so
    far is not reusable once a column leaves).  Raises
    EmptySecantSpaceError when nothing survives.
    """
    if epsilon < 0:
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

    kept = list(range(len(columns)))
    dropped: list[int] = []
    restarts = 0
    while True:
        if not kept:
            raise EmptySecantSpaceError(dropped, restarts)
        k = len(kept)
        work = [columns[i].local.copy() for i in kept]
        reflectors: list[np.ndarray] = []
        flags: list[bool] = []
        upper = np.zeros((k, k))
        filtered = False
        for j in range(k):
            u, alpha, identity, above = _reflector_from_column(
                layout, comm, work[j], j)
            upper[:j, j] = above
            upper[j, j] = alpha
            if epsilon > 0.0:
                filled = np.sqrt(np.sum(upper[:, :j + 1] ** 2))
                if abs(upper[j, j]) < epsilon * filled:
                    dropped.append(kept.pop(j))
                    restarts += 1
                    filtered = True
                    break
            if not identity and j + 1 < k:
                partial = np.array([u @ work[i] for i in range(j + 1, k)])
                coefs = comm.allreduce_sum_array(partial)
                for off, i in enumerate(range(j + 1, k)):
                    work[i] -= 2.0 * coefs[off] * u
            reflectors.append(u)
            flags.append(identity)
        if filtered:
            continue
        stack = HouseholderStack(
            [InterfaceVector(layout, comm, u) for u in reflectors],
            upper, flags)
        return stack, FilterOutcome(kept, dropped, restarts)


def apply_qt(stack: HouseholderStack, r: InterfaceVector) -> np.ndarray:
    """First q rows of Q^T r, replicated on every rank.

    The reflectors are applied in construction order (the first one
    first); the first q global rows of the result are then combined
    from their owners with one more reduction.
    """
    t = r.local.copy()
    _reflect(r.comm, stack.reflectors, stack.identity_flags, t)
    return r.comm.allreduce_sum_array(
        _head_share(r.layout, r.comm.rank, t, stack.q))


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


def reconstruct(stack: HouseholderStack, outcome_cols: int | None = None
                ) -> list[InterfaceVector]:
    """Rebuild the kept columns from [U; 0] by reversing the reflectors.

    Mainly a verification aid: the result should match the kept input
    columns to round-off.
    """
    refl = stack.reflectors
    if not refl:
        return []
    layout, comm = refl[0].layout, refl[0].comm
    ncols = stack.q if outcome_cols is None else outcome_cols
    out = []
    for i in range(ncols):
        full = np.zeros(layout.global_size)
        full[:stack.q] = stack.upper[:, i]
        t = distribute(layout, comm, full)
        _reflect(comm, reversed(refl), reversed(stack.identity_flags),
                 t.local)
        out.append(t)
    return out
