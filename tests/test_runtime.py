"""Simulated message-passing runtime: collectives, failure modes."""

import time

import numpy as np
import pytest

from ciqn.runtime import (CollectiveMismatchError, DeadlockError, RankComm,
                          run_spmd)


def test_allreduce_sums_across_ranks():
    results = run_spmd(3, lambda comm: comm.allreduce_sum(float(comm.rank + 1)))
    assert results == [6.0, 6.0, 6.0]


def test_allreduce_single_rank_is_identity():
    comm = RankComm(0, 1, None)
    assert comm.allreduce_sum(4.2) == 4.2


def test_allreduce_folds_in_rank_order():
    # left-to-right IEEE sums: at 1e16 the double spacing is 2, so +1.0
    # rounds half-to-even back onto 1e16 while +2.0 lands one ulp up
    results = run_spmd(2, lambda comm: comm.allreduce_sum(
        1e16 if comm.rank == 0 else 1.0))
    assert results == [1e16, 1e16]
    results = run_spmd(2, lambda comm: comm.allreduce_sum(
        1e16 if comm.rank == 0 else 2.0))
    assert results == [1.0000000000000002e16, 1.0000000000000002e16]
    # the fold order is observable: these locals cancel only if the
    # rank-0 and rank-1 terms meet before the tiny one
    locals_ = [1.0, -1.0, 1e-16]
    results = run_spmd(3, lambda comm: comm.allreduce_sum(locals_[comm.rank]))
    assert results == [1e-16, 1e-16, 1e-16]


def test_allreduce_is_reproducible():
    def body(comm):
        locals_ = [0.1 * (comm.rank + 1), 1e-9, 7.7][comm.rank]
        return comm.allreduce_sum(locals_)

    first = run_spmd(3, body)
    second = run_spmd(3, body)
    assert first == second


def test_allreduce_array_elementwise():
    def body(comm):
        return comm.allreduce_sum_array(np.array([1.0, 2.0]) * (comm.rank + 1))

    for out in run_spmd(2, body):
        np.testing.assert_array_equal(out, [3.0, 6.0])


def test_broadcast_shares_root_value():
    def body(comm):
        return comm.broadcast(comm.rank * 10.0, root=1)

    assert run_spmd(3, body) == [10.0, 10.0, 10.0]


def test_broadcast_copies_arrays():
    def body(comm):
        src = np.array([1.0, 2.0])
        out = comm.broadcast(src, root=0)
        out[0] = -99.0
        return src[0]

    assert run_spmd(2, body) == [1.0, 1.0]


def test_broadcast_validates_root():
    comm = RankComm(0, 1, None)
    with pytest.raises(ValueError):
        comm.broadcast(1.0, root=3)


def test_allgather_returns_rank_order():
    def body(comm):
        parts = comm.allgather(np.full(comm.rank + 1, float(comm.rank)))
        return [p.tolist() for p in parts]

    for out in run_spmd(3, body):
        assert out == [[0.0], [1.0, 1.0], [2.0, 2.0, 2.0]]


def test_collective_counters():
    def body(comm):
        comm.allreduce_sum(1.0)
        comm.allreduce_sum(2.0)
        comm.broadcast(0.0, root=0)
        comm.allgather(np.zeros(1))
        return dict(comm.counters)

    for counters in run_spmd(2, body):
        assert counters == {"allreduce": 2, "broadcast": 1, "allgather": 1}


def test_mismatched_collectives_raise():
    def body(comm):
        if comm.rank == 0:
            return comm.allreduce_sum(1.0)
        return comm.broadcast(1.0, root=0)

    with pytest.raises(CollectiveMismatchError):
        run_spmd(2, body)


def test_rank_finishing_mid_collective_raises():
    def body(comm):
        if comm.rank == 0:
            return comm.allreduce_sum(1.0)
        return None  # leaves while rank 0 waits

    with pytest.raises(DeadlockError):
        run_spmd(2, body)


def test_collective_timeout_raises():
    def body(comm):
        if comm.rank == 1:
            time.sleep(0.5)
        return comm.allreduce_sum(1.0)

    with pytest.raises(DeadlockError):
        run_spmd(2, body, timeout=0.1)


def test_body_error_propagates_original():
    def body(comm):
        if comm.rank == 1:
            raise ValueError("boom")
        return comm.allreduce_sum(1.0)  # must unblock, not hang

    with pytest.raises(ValueError, match="boom"):
        run_spmd(2, body)


def test_run_spmd_validates_rank_count():
    with pytest.raises(ValueError):
        run_spmd(0, lambda comm: None)
