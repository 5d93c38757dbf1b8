"""Row-partitioned interface vectors and the BLAS-1 kernels on them.

An interface field of global size p is split into contiguous row slices,
one per rank: rank 0's rows come first, then rank 1's, and so on.  This
is the one global ordering -- the coupled problems are written in it,
and the factorization kernels pivot in it, so pivot row j is global row
j on whichever rank owns it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .runtime import RankComm


@dataclass(frozen=True)
class PartitionLayout:
    """Static description of one row partitioning.

    counts[r] is the number of rows rank r owns; its rows start at
    global row starts[r].
    """

    counts: tuple[int, ...]
    global_size: int
    starts: tuple[int, ...]

    @classmethod
    def from_counts(cls, counts) -> "PartitionLayout":
        """Raises ValueError for an empty rank list, negative counts, or
        an interface with no rows at all."""
        counts = tuple(int(c) for c in counts)
        if not counts:
            raise ValueError("no ranks")
        if any(c < 0 for c in counts):
            raise ValueError("negative row count")
        if sum(counts) == 0:
            raise ValueError("empty interface")
        starts = []
        off = 0
        for c in counts:
            starts.append(off)
            off += c
        return cls(counts, off, tuple(starts))

    @property
    def nranks(self) -> int:
        return len(self.counts)


def split_evenly(global_size: int, nranks: int) -> tuple[int, ...]:
    """Near-equal contiguous split; the first ranks take the remainder."""
    if nranks < 1:
        raise ValueError("need at least one rank")
    if global_size < 1:
        raise ValueError("empty interface")
    base, extra = divmod(global_size, nranks)
    return tuple(base + (1 if r < extra else 0) for r in range(nranks))


@dataclass
class InterfaceVector:
    """One rank's slice of a global interface field."""

    layout: PartitionLayout
    comm: RankComm
    local: np.ndarray

    def __post_init__(self):
        self.local = np.asarray(self.local, dtype=np.float64)
        if self.local.ndim != 1:
            raise ValueError("local slice must be 1-D")
        expect = self.layout.counts[self.comm.rank]
        if self.local.shape[0] != expect:
            raise ValueError("rank %d expects %d rows, got %d"
                             % (self.comm.rank, expect, self.local.shape[0]))

    def copy(self) -> "InterfaceVector":
        return InterfaceVector(self.layout, self.comm, self.local.copy())


def zeros(layout: PartitionLayout, comm: RankComm) -> InterfaceVector:
    return InterfaceVector(layout, comm, np.zeros(layout.counts[comm.rank]))


def _check_compatible(a: InterfaceVector, b: InterfaceVector) -> None:
    if a.layout != b.layout:
        raise ValueError("mismatched layouts")


def dot(a: InterfaceVector, b: InterfaceVector) -> float:
    """Global inner product: one reduction, rank-ordered fold."""
    _check_compatible(a, b)
    return a.comm.allreduce_sum(float(a.local @ b.local))


def norm2(a: InterfaceVector) -> float:
    """Global Euclidean norm (one reduction)."""
    return float(np.sqrt(dot(a, a)))


def axpy(alpha: float, x: InterfaceVector, y: InterfaceVector) -> InterfaceVector:
    """y + alpha*x, elementwise on local slices.  No communication."""
    _check_compatible(x, y)
    return InterfaceVector(y.layout, y.comm, y.local + alpha * x.local)


def scale(alpha: float, x: InterfaceVector) -> InterfaceVector:
    return InterfaceVector(x.layout, x.comm, alpha * x.local)


def gather(v: InterfaceVector) -> np.ndarray:
    """Full field, replicated on every rank."""
    return np.concatenate(v.comm.allgather(v.local))


def distribute(layout: PartitionLayout, comm: RankComm,
               full) -> InterfaceVector:
    """Take this rank's slice of a full field.  No communication."""
    full = np.asarray(full, dtype=np.float64)
    if full.shape != (layout.global_size,):
        raise ValueError("full field has wrong size")
    start = layout.starts[comm.rank]
    return InterfaceVector(layout, comm,
                           full[start:start + layout.counts[comm.rank]].copy())

