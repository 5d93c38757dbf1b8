"""Compact Householder factorization and the least-squares pipeline."""

import numpy as np
import pytest

from ciqn import qr
from ciqn.field import gather
from ciqn.qr import (EmptySecantSpaceError, HouseholderStack,
                     SingularUpperError, apply_qt, apply_reflector,
                     back_substitute, decompose, householder_vector,
                     reconstruct)
from ciqn.runtime import RankComm

from conftest import (compact_lstsq, dense_columns, on_team, random_tall,
                      single_rank, vector)


# -- householder_vector -------------------------------------------------

def test_reflector_already_triangular_column():
    layout, comm = single_rank(3)
    u, alpha = householder_vector(vector(layout, comm, [2.0, 0.0, 0.0]), 0)
    assert alpha == 2.0
    np.testing.assert_array_equal(u.local, np.zeros(3))


def test_reflector_sign_rule_and_reflection():
    layout, comm = single_rank(3)
    v = vector(layout, comm, [0.0, 3.0, 4.0])
    u, alpha = householder_vector(v, 0)
    assert alpha == -5.0
    reflected = apply_reflector(u, v)
    np.testing.assert_allclose(reflected.local, [-5.0, 0.0, 0.0], atol=1e-14)
    assert np.linalg.norm(u.local) == pytest.approx(1.0, rel=1e-14)


def test_reflector_matches_across_partitionings():
    def body(comm, layout):
        u, alpha = householder_vector(vector(layout, comm, [1.0, 1.0]), 0)
        return gather(u), alpha

    (u2, alpha2), _ = on_team([1, 1], body)
    layout, comm = single_rank(2)
    u1, alpha1 = householder_vector(vector(layout, comm, [1.0, 1.0]), 0)
    assert alpha2 == pytest.approx(alpha1, rel=1e-14)
    np.testing.assert_allclose(u2, u1.local, atol=1e-14)


def test_reflector_pivot_on_later_rank_matches_one_rank():
    full = [1.0, 2.0, -3.0, 4.0]
    layout, comm = single_rank(4)
    for pivot in (1, 2):
        u1, alpha1 = householder_vector(vector(layout, comm, full), pivot)

        def body(comm, layout):
            u, alpha = householder_vector(vector(layout, comm, full), pivot)
            return gather(u), alpha

        # row 1 sits on rank 1 behind rank 0's row; row 2 on rank 2
        for u, alpha in on_team([1, 1, 2], body):
            assert alpha == pytest.approx(alpha1, rel=1e-14)
            np.testing.assert_allclose(u, u1.local, atol=1e-14)
    with pytest.raises(ValueError):
        householder_vector(vector(layout, comm, full), 4)


def test_zero_column_gives_identity_reflector():
    layout, comm = single_rank(3)
    u, alpha = householder_vector(vector(layout, comm, [0.0, 0.0, 0.0]), 0)
    assert alpha == 0.0
    np.testing.assert_array_equal(u.local, np.zeros(3))


# -- apply_reflector ----------------------------------------------------

def test_apply_identity_reflector():
    layout, comm = single_rank(3)
    u = vector(layout, comm, [0.0, 0.0, 0.0])
    t = vector(layout, comm, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(apply_reflector(u, t).local, t.local)


def test_apply_axis_reflector_flips_sign():
    layout, comm = single_rank(3)
    u = vector(layout, comm, [1.0, 0.0, 0.0])
    t = vector(layout, comm, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(apply_reflector(u, t).local,
                                  [-1.0, 2.0, 3.0])


def test_apply_reflector_is_involutive():
    rng = np.random.default_rng(1)
    u_full = rng.standard_normal(6)
    u_full /= np.linalg.norm(u_full)
    t_full = rng.standard_normal(6)

    def body(comm, layout):
        u = vector(layout, comm, u_full)
        t = vector(layout, comm, t_full)
        once = apply_reflector(u, t)
        before = comm.counters["allreduce"]
        twice = apply_reflector(u, once)
        return comm.counters["allreduce"] - before, gather(twice)

    for reductions, back in on_team([4, 2], body):
        assert reductions == 1  # exactly one reduction per application
        np.testing.assert_allclose(back, t_full, atol=1e-14)


# -- decompose ----------------------------------------------------------

def test_decompose_single_clean_column():
    layout, comm = single_rank(2)
    stack, outcome = decompose(
        dense_columns(layout, comm, np.array([[2.0], [0.0]])), 0.0)
    np.testing.assert_array_equal(stack.upper, [[2.0]])
    assert outcome.kept == [0]
    assert outcome.dropped == [] and outcome.restarts == 0
    assert stack.identity_flags == [True]


def test_decompose_drops_exact_duplicate():
    rng = np.random.default_rng(5)
    full = rng.standard_normal(6)

    def body(comm, layout):
        col = vector(layout, comm, full)
        stack, outcome = decompose([col, col.copy()], 1e-9)
        return outcome.kept, outcome.dropped, outcome.restarts, stack.q

    for kept, dropped, restarts, q in on_team([4, 2], body):
        assert kept == [0]        # newest column survives
        assert dropped == [1]     # the older duplicate goes
        assert restarts == 1
        assert q == 1


def test_duplicate_without_filter_reaches_singular_solve():
    def body(comm, layout):
        col = vector(layout, comm, [1.0, 2.0, 0.5])
        stack, outcome = decompose([col, col.copy()], 0.0)
        assert outcome.dropped == []
        with pytest.raises(SingularUpperError):
            back_substitute(stack, np.array([1.0, 1.0]), comm, layout)
        return True

    assert all(on_team([2, 1], body))


def test_decompose_matches_dense_least_squares():
    rng = np.random.default_rng(11)
    dense = random_tall(20, 5, 1e3, rng)
    r = rng.standard_normal(20)
    lam, stack, outcome = compact_lstsq(dense, r)
    reference, *_ = np.linalg.lstsq(dense, -r, rcond=None)
    assert np.linalg.norm(lam - reference) <= 1e-8 * np.linalg.norm(reference)
    assert outcome.kept == list(range(5))
    # triangle really is upper triangular
    np.testing.assert_array_equal(np.tril(stack.upper, -1), np.zeros((5, 5)))


def test_decompose_invariant_under_partitioning():
    rng = np.random.default_rng(23)
    dense = random_tall(9, 3, 10.0, rng)

    def body(comm, layout):
        stack, _ = decompose(dense_columns(layout, comm, dense), 0.0)
        return stack.upper

    layout, comm = single_rank(9)
    stack1, _ = decompose(dense_columns(layout, comm, dense), 0.0)
    # the last two put pivot rows on several ranks, one behind an empty rank
    for counts in ([4, 3, 2], [1, 2, 6], [0, 3, 6]):
        upper = on_team(counts, body)[0]
        np.testing.assert_allclose(upper, stack1.upper, atol=1e-14)


def test_decompose_storage_is_compact():
    rng = np.random.default_rng(2)
    dense = random_tall(40, 6, 10.0, rng)
    layout, comm = single_rank(40)
    stack, _ = decompose(dense_columns(layout, comm, dense), 0.0)
    assert stack.upper.shape == (6, 6)
    assert len(stack.reflectors) == 6
    for u in stack.reflectors:
        assert u.local.shape == (40,)


def test_decompose_rejects_too_many_columns():
    # one pivot row per column: more columns than rows cannot be factored
    def body(comm, layout):
        cols = dense_columns(layout, comm, np.eye(4, 5))
        with pytest.raises(ValueError):
            decompose(cols, 0.0)
        return True

    assert all(on_team([2, 2], body))


def test_decompose_empty_input():
    with pytest.raises(EmptySecantSpaceError):
        decompose([], 0.0)


def test_filter_can_empty_the_space():
    # a lone column's diagonal equals the filled norm, so only a
    # threshold above one can reject the last survivor
    layout, comm = single_rank(3)
    cols = dense_columns(layout, comm, np.ones((3, 2)))
    with pytest.raises(EmptySecantSpaceError) as info:
        decompose(cols, 2.0)
    assert sorted(info.value.dropped) == [0, 1]


def test_filter_keeps_well_conditioned_columns():
    rng = np.random.default_rng(9)
    dense = random_tall(12, 4, 10.0, rng)
    layout, comm = single_rank(12)
    _, outcome = decompose(dense_columns(layout, comm, dense),
                           1e-9)
    assert outcome.dropped == [] and outcome.restarts == 0


# -- apply_qt -----------------------------------------------------------

def test_apply_qt_identity_stack_truncates():
    layout, comm = single_rank(2)
    stack, _ = decompose(
        dense_columns(layout, comm, np.array([[2.0], [0.0]])), 0.0)
    head = apply_qt(stack, vector(layout, comm, [3.0, 7.0]))
    np.testing.assert_array_equal(head, [3.0])
    head = apply_qt(stack, vector(layout, comm, [4.0, 0.0]))
    np.testing.assert_array_equal(head, [4.0])


def test_apply_qt_consistent_with_least_squares():
    rng = np.random.default_rng(13)
    dense = random_tall(20, 5, 100.0, rng)
    r = rng.standard_normal(20)
    lam, *_ = compact_lstsq(dense, r)
    # a least-squares solution leaves the residual orthogonal to range(V)
    residual = dense @ lam + r
    np.testing.assert_allclose(dense.T @ residual, np.zeros(5), atol=1e-12)


# -- back_substitute ----------------------------------------------------

def test_back_substitute_scalar():
    layout, comm = single_rank(1)
    stack = HouseholderStack([], np.array([[2.0]]), [])
    np.testing.assert_array_equal(
        back_substitute(stack, np.array([4.0]), comm, layout), [2.0])


def test_back_substitute_hand_case():
    layout, comm = single_rank(2)
    stack = HouseholderStack([], np.array([[1.0, 1.0], [0.0, 1.0]]), [])
    np.testing.assert_array_equal(
        back_substitute(stack, np.array([3.0, 1.0]), comm, layout), [2.0, 1.0])


def test_back_substitute_random_consistency():
    rng = np.random.default_rng(17)
    upper = np.triu(rng.standard_normal((6, 6))) + 6.0 * np.eye(6)
    rhs = rng.standard_normal(6)
    layout, comm = single_rank(6)
    lam = back_substitute(HouseholderStack([], upper, []), rhs, comm, layout)
    assert np.linalg.norm(upper @ lam - rhs) <= 1e-12


def test_back_substitute_flags_negligible_diagonal():
    layout, comm = single_rank(2)
    stack = HouseholderStack([], np.array([[1.0, 1.0], [0.0, 1e-18]]), [])
    with pytest.raises(SingularUpperError):
        back_substitute(stack, np.array([1.0, 1.0]), comm, layout)


# -- reconstruct --------------------------------------------------------

def test_reconstruct_recovers_columns():
    rng = np.random.default_rng(29)
    dense = random_tall(15, 4, 1e4, rng)

    def body(comm, layout):
        stack, _ = decompose(dense_columns(layout, comm, dense), 0.0)
        rebuilt = reconstruct(stack)
        return np.column_stack([gather(c) for c in rebuilt])

    for counts in ([8, 7], [1, 2, 12], [0, 3, 12]):
        for back in on_team(counts, body):
            err = np.linalg.norm(back - dense) / np.linalg.norm(dense)
            assert err <= 1e-12


# -- collective shape ---------------------------------------------------

def test_collectives_per_kernel_on_spanning_pivots():
    # pivot rows 0..3 sit on all three ranks; nothing is broadcast
    rng = np.random.default_rng(31)
    k = 4
    dense = random_tall(9, k, 10.0, rng)
    r_full = rng.standard_normal(9)

    def delta(comm, before):
        return {kind: comm.counters[kind] - before[kind]
                for kind in comm.counters}

    def body(comm, layout):
        before = dict(comm.counters)
        stack, _ = decompose(dense_columns(layout, comm, dense), 0.0)
        made = [delta(comm, before)]
        before = dict(comm.counters)
        head = apply_qt(stack, vector(layout, comm, r_full))
        made.append(delta(comm, before))
        before = dict(comm.counters)
        back_substitute(stack, -head, comm, layout)
        made.append(delta(comm, before))
        return made, sum(not flag for flag in stack.identity_flags)

    for (dec, qt, back), live in on_team([1, 2, 6], body):
        assert live == k
        assert dec == {"allreduce": 2 * k - 1, "broadcast": 0,
                       "allgather": 0}
        assert qt == {"allreduce": live + 1, "broadcast": 0, "allgather": 0}
        assert back == {"allreduce": 0, "broadcast": 0, "allgather": 0}
