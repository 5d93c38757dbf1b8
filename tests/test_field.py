"""Partitioned interface vectors and their BLAS-1 kernels."""

import numpy as np
import pytest

from ciqn import field, runtime
from ciqn.field import InterfaceVector, PartitionLayout, split_evenly
from ciqn.runtime import RankComm, run_spmd

from conftest import on_team, single_rank, vector


def test_layout_orderings():
    layout = PartitionLayout.from_counts([3, 7, 2])
    assert layout.global_size == 12
    assert layout.starts == (0, 3, 10)
    assert len(layout.counts) == 3


def test_layout_rejects_bad_counts():
    for counts in ([], [0, 0], [3, -1]):
        with pytest.raises(ValueError):
            PartitionLayout.from_counts(counts)


def test_split_evenly():
    assert split_evenly(10, 3) == (4, 3, 3)
    assert split_evenly(4, 4) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        split_evenly(10, 0)
    with pytest.raises(ValueError):
        split_evenly(0, 2)


def test_vector_validates_local_slice():
    layout, comm = single_rank(3)
    with pytest.raises(ValueError):
        InterfaceVector(layout, comm, np.zeros(2))
    with pytest.raises(ValueError):
        InterfaceVector(layout, comm, np.zeros((3, 1)))


def test_dot_ones():
    def body(comm, layout):
        v = vector(layout, comm, [1.0, 1.0, 1.0, 1.0])
        return field.dots([(v, v)])

    assert on_team([2, 2], body) == [[4.0], [4.0]]


def test_dot_single_rank():
    layout, comm = single_rank(2)
    a = InterfaceVector(layout, comm, np.array([1.0, 2.0]))
    b = InterfaceVector(layout, comm, np.array([3.0, 4.0]))
    assert field.dots([(a, b), (a, a), (b, b)]) == [11.0, 5.0, 25.0]


def test_dot_matches_single_rank_reference():
    rng = np.random.default_rng(7)
    a_full, b_full = rng.standard_normal(17), rng.standard_normal(17)
    reference = float(a_full @ b_full)

    def body(comm, layout):
        a, b = vector(layout, comm, a_full), vector(layout, comm, b_full)
        return field.dots([(a, b), (b, a)])

    for got in on_team([6, 6, 5], body):
        assert got[0] == got[1] == pytest.approx(reference, rel=1e-14)


def test_dots_fold_like_one_scalar_reduction_per_pair():
    # an array fold (s0 + s1 + ...) and a scalar fold (0.0 + s0 + ...)
    # differ only in the sign of a -0.0 first partial ...
    assert np.signbit(runtime._fold_arrays([np.array([-0.0])])[0])
    assert not np.signbit(runtime._fold_scalars([-0.0]))
    # ... and no local dot product is -0.0, even when every local
    # product is, or the slice is empty
    a_full = [-0.0, -0.0, -0.0, 0.0, 0.0]
    b_full = [1.0, 3.0, 5.0, -1.0, -2.0]

    def body(comm, layout):
        a, b = vector(layout, comm, a_full), vector(layout, comm, b_full)
        pairs = [(a, b), (b, b), (a, a)]
        assert np.signbit(a.local * b.local).all()
        partials = [float(u.local @ v.local) for u, v in pairs]
        scalar = [comm.allreduce_sum(p) for p in partials]
        return np.signbit(partials), field.dots(pairs), scalar

    for counts in ([3, 2], [3, 0, 2]):
        for partial_signs, sums, scalar in on_team(counts, body):
            assert not partial_signs.any()
            assert sums == scalar == [0.0, 40.0, 0.0]
            assert not np.signbit(sums).any()


def test_dots_carry_shares_after_their_pairs():
    # one reduction sums the pairs' products, then each rank's shares:
    # each share's sum bitwise that of reducing the shares alone, the
    # sign of a -0.0 padding included
    def body(comm, layout):
        v = vector(layout, comm, [1.0, 2.0, 3.0])
        shares = np.array([0.1 * (comm.rank + 1), -0.0, 1e-17])
        before = dict(comm.counters)
        fused = field.dots([(v, v)], shares)
        spent = comm.counters["allreduce"] - before["allreduce"]
        return fused, spent, comm.allreduce_sum_array(shares)

    for counts in ([3], [1, 2], [0, 1, 2]):
        for fused, spent, alone in on_team(counts, body):
            assert spent == 1 and fused[0] == 14.0
            assert np.array(fused[1:]).tobytes() == alone.tobytes()
            assert np.signbit(fused[2])


def test_norm_examples():
    layout, comm = single_rank(2)
    zero = field.zeros(layout, comm)
    assert field.dots([(zero, zero)]) == [0.0]
    v = InterfaceVector(layout, comm, np.array([3.0, 4.0]))
    assert np.sqrt(field.dots([(v, v)])[0]) == 5.0


def test_norm_cross_partition_agreement():
    rng = np.random.default_rng(3)
    full = rng.standard_normal(33)
    reference = float(np.linalg.norm(full))

    def body(comm, layout):
        v = vector(layout, comm, full)
        return np.sqrt(field.dots([(v, v)])[0])

    for got in on_team([9, 8, 8, 8], body):
        assert got == pytest.approx(reference, rel=1e-13)


def test_axpy_is_local():
    def body(comm, layout):
        x = vector(layout, comm, [1.0, 2.0, 3.0, 4.0])
        y = vector(layout, comm, [10.0, 10.0, 10.0, 10.0])
        before = dict(comm.counters)
        out = field.axpy(-2.0, x, y)
        return comm.counters == before, field.gather(out)

    for unchanged, full in on_team([2, 2], body):
        assert unchanged
        np.testing.assert_array_equal(full, [8.0, 6.0, 4.0, 2.0])


def test_gather_distribute_roundtrip():
    rng = np.random.default_rng(0)
    full = rng.standard_normal(9)

    def body(comm, layout):
        return field.gather(field.distribute(layout, comm, full))

    for back in on_team([2, 4, 3], body):
        np.testing.assert_array_equal(back, full)


def test_distribute_rejects_wrong_size():
    layout, comm = single_rank(3)
    with pytest.raises(ValueError):
        field.distribute(layout, comm, np.zeros(4))


def test_mismatched_layouts_rejected():
    layout_a, comm = single_rank(2)
    layout_b = PartitionLayout.from_counts([2, 0])
    a = InterfaceVector(layout_a, comm, np.zeros(2))
    b = InterfaceVector(layout_b, comm, np.zeros(2))
    with pytest.raises(ValueError):
        field.dots([(a, b)])
    with pytest.raises(ValueError):
        field.dots([(a, a), (b, b)])
    with pytest.raises(ValueError):
        field.dots([])


def test_copy_is_independent():
    layout, comm = single_rank(2)
    a = InterfaceVector(layout, comm, np.array([1.0, 2.0]))
    c = a.copy()
    c.local[0] = 99.0
    assert a.local[0] == 1.0
