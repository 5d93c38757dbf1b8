"""Simulated message-passing runtime.

The coupling algorithms in this package are written against a small
communicator interface (reductions, broadcasts, gathers).  Here that
interface is backed by threads inside a single process: ``run_spmd``
launches one thread per rank and every collective is a rendezvous that
all ranks must reach together.  This keeps the distributed control flow
honest (a missing or mismatched collective call deadlocks, and is
reported as such) while staying runnable on a laptop with no MPI
installation.

Determinism matters more than speed here.  Reductions always fold the
per-rank contributions in rank order 0, 1, ..., P-1, so a sum over a
fixed partitioning is bitwise reproducible from run to run.  Different
partitionings may round differently; callers that compare across rank
counts use tolerances.

With one rank the collectives short-circuit without touching any locks.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np


class CollectiveMismatchError(RuntimeError):
    """Ranks disagreed on which collective to run next."""


class DeadlockError(RuntimeError):
    """A collective can never complete (rank exited early, or timeout)."""


class _PeerAbortError(RuntimeError):
    """Raised on ranks whose peer failed; the peer's error is reported."""


class _Team:
    """Rendezvous point shared by all rank threads of one SPMD run."""

    def __init__(self, size: int, timeout: float):
        self.size = size
        self.timeout = timeout
        self._cond = threading.Condition()
        self._tag = None
        self._slots: list = [None] * size
        self._arrived = 0
        self._finished = 0
        self._generation = 0
        self._result = None
        self._poison: BaseException | None = None

    def _fail(self, exc: BaseException) -> None:
        # caller holds the lock; first failure wins
        if self._poison is None:
            self._poison = exc
        self._cond.notify_all()

    def abort(self, exc: BaseException) -> None:
        with self._cond:
            self._fail(exc)

    def leave(self, rank: int) -> None:
        with self._cond:
            self._finished += 1
            if self._arrived > 0:
                self._fail(DeadlockError(
                    "rank %d finished while a collective was pending" % rank))

    def rendezvous(self, rank: int, tag: tuple, payload, combine: Callable):
        """Block until all ranks arrive with the same tag, then share
        ``combine(slots)``.  The last arriver computes the result once.
        """
        with self._cond:
            if self._poison is not None:
                raise self._poison
            if self._finished > 0:
                err = DeadlockError(
                    "collective %r after a peer rank finished" % (tag[0],))
                self._fail(err)
                raise err
            if self._arrived == 0:
                self._tag = tag
            elif tag != self._tag:
                err = CollectiveMismatchError(
                    "rank %d called %r while %r is in progress"
                    % (rank, tag, self._tag))
                self._fail(err)
                raise err
            self._slots[rank] = payload
            self._arrived += 1
            if self._arrived == self.size:
                try:
                    self._result = combine(self._slots)
                except Exception as exc:
                    self._fail(exc)
                    raise
                self._arrived = 0
                self._slots = [None] * self.size
                self._tag = None
                self._generation += 1
                self._cond.notify_all()
                return self._result
            gen = self._generation
            while self._generation == gen and self._poison is None:
                if not self._cond.wait(self.timeout):
                    err = DeadlockError(
                        "collective %r timed out after %.0f s"
                        % (tag[0], self.timeout))
                    self._fail(err)
                    raise err
            if self._generation != gen:
                return self._result
            raise self._poison


class RankComm:
    """Per-rank handle on the team.  Mirrors the few MPI calls we need.

    Every call is counted in ``counters`` (keyed by collective name) so
    tests can assert on communication volume.
    """

    def __init__(self, rank: int, size: int, team: _Team | None):
        self.rank = rank
        self.size = size
        self._team = team
        self.counters = {"allreduce": 0, "broadcast": 0, "allgather": 0}

    def allreduce_sum(self, value: float) -> float:
        """Sum a scalar over ranks, folding in rank order."""
        self.counters["allreduce"] += 1
        value = float(value)
        if self.size == 1:
            return value
        return float(self._team.rendezvous(
            self.rank, ("allreduce_sum",), value, _fold_scalars))

    def allreduce_sum_array(self, values) -> np.ndarray:
        """Elementwise sum of equal-length 1-D arrays, rank order fold."""
        self.counters["allreduce"] += 1
        arr = np.asarray(values, dtype=np.float64)
        if self.size == 1:
            return arr.copy()
        out = self._team.rendezvous(
            self.rank, ("allreduce_sum_array", arr.shape), arr, _fold_arrays)
        return np.array(out, copy=True)

    def broadcast(self, value, root: int):
        """Share ``value`` from ``root`` with every rank."""
        if not 0 <= root < self.size:
            raise ValueError("root %d out of range" % root)
        self.counters["broadcast"] += 1
        if self.size == 1:
            return _copy_payload(value)
        out = self._team.rendezvous(
            self.rank, ("broadcast", root), value,
            lambda slots: slots[root])
        return _copy_payload(out)

    def allgather(self, local) -> list[np.ndarray]:
        """Collect each rank's 1-D array; returns them in rank order."""
        self.counters["allgather"] += 1
        arr = np.asarray(local, dtype=np.float64)
        if self.size == 1:
            return [arr.copy()]
        out = self._team.rendezvous(
            self.rank, ("allgather",), arr,
            lambda slots: [np.array(s, copy=True) for s in slots])
        return [np.array(s, copy=True) for s in out]


def _fold_scalars(slots: list) -> float:
    return sum(slots, 0.0)  # 0.0 + slots[0] + slots[1] + ..., in order


def _fold_arrays(slots: list) -> np.ndarray:
    acc = np.array(slots[0], dtype=np.float64, copy=True)
    for s in slots[1:]:
        acc += s
    return acc


def _copy_payload(value):
    if isinstance(value, np.ndarray):
        return np.array(value, copy=True)
    return value


def run_spmd(nranks: int, body: Callable[[RankComm], object],
             timeout: float = 60.0) -> list:
    """Run ``body(comm)`` once per rank and return the per-rank results.

    One rank runs inline on the calling thread.  More ranks run on one
    thread each; if any rank raises, the team is poisoned so the others
    unblock, and the lowest-rank original error is re-raised here.
    """
    if nranks < 1:
        raise ValueError("need at least one rank")
    if nranks == 1:
        return [body(RankComm(0, 1, None))]
    team = _Team(nranks, timeout)
    results: list = [None] * nranks
    errors: list[BaseException | None] = [None] * nranks

    def runner(rk: int) -> None:
        comm = RankComm(rk, nranks, team)
        try:
            results[rk] = body(comm)
        except BaseException as exc:
            errors[rk] = exc
            team.abort(_PeerAbortError("rank %d failed: %r" % (rk, exc)))
        finally:
            team.leave(rk)

    threads = [threading.Thread(target=runner, args=(rk,), name="rank%d" % rk)
               for rk in range(nranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    failed = [e for e in errors if e is not None]
    if failed:
        raise next((e for e in failed if not isinstance(e, _PeerAbortError)),
                   failed[0])
    return results
