"""Compact Householder factorization and the least-squares pipeline."""

import os
import subprocess
import sys
import time
import tracemalloc
from collections import deque

import numpy as np
import pytest
import scipy.linalg

from ciqn import qr
from ciqn.coupler import CouplerConfig, HistoryStore, solve_coupled
from ciqn.field import dots, gather
from ciqn.qr import (EmptySecantSpaceError, HouseholderStack,
                     SingularUpperError, StepFactor, apply_qt,
                     back_substitute, decompose)
from ciqn.problems import make_problem
from ciqn.runtime import RankComm

from conftest import (append, compact_lstsq, dense_columns, on_team,
                      random_tall, reconstruct, single_rank, vector)


# -- reflectors ---------------------------------------------------------

def first_reflector(columns):
    """(alpha, reflector 0 gathered, its identity flag) of decompose."""
    stack, _ = decompose(columns, 0.0)
    return (stack.upper[0, 0], gather(stack.reflectors[0]),
            stack.identity_flags[0])


def test_reflector_already_triangular_column():
    def body(comm, layout):
        return first_reflector([vector(layout, comm, [2.0, 0.0, 0.0, 0.0])])

    for alpha, u, identity in on_team([1, 1, 2], body):
        assert alpha == 2.0 and identity
        np.testing.assert_array_equal(u, np.zeros(4))


def test_reflector_sign_rule_and_reflection():
    full = np.array([0.0, 3.0, 4.0, 0.0])

    def body(comm, layout):
        return first_reflector([vector(layout, comm, full)])

    for alpha, u, identity in on_team([1, 1, 2], body):
        # alpha takes the sign opposite to the pivot (+0.0 here)
        assert alpha == -5.0 and not identity
        assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_allclose(full - 2.0 * u * (u @ full),
                                   [-5.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_reflector_matches_across_partitionings():
    def body(comm, layout):
        return first_reflector([vector(layout, comm, [1.0, 1.0])])

    (alpha2, u2, _), _ = on_team([1, 1], body)
    layout, comm = single_rank(2)
    alpha1, u1, _ = first_reflector([vector(layout, comm, [1.0, 1.0])])
    assert alpha2 == pytest.approx(alpha1, rel=1e-14)
    np.testing.assert_allclose(u2, u1, atol=1e-14)


def test_reflector_pivot_on_later_rank_matches_one_rank():
    # reflectors 1 and 2 pivot at rows 1 and 2: row 1 sits on rank 1
    # behind rank 0's row, row 2 on rank 2
    dense = np.array([[1.0, 2.0, -3.0, 4.0], [0.5, 1.0, 2.0, -1.0],
                      [2.0, -1.0, 0.5, 3.0]]).T

    def body(comm, layout):
        stack, _ = decompose(dense_columns(layout, comm, dense), 0.0)
        return stack.upper, [gather(u) for u in stack.reflectors]

    layout, comm = single_rank(4)
    upper1, refl1 = body(comm, layout)
    for upper, refl in on_team([1, 1, 2], body):
        np.testing.assert_allclose(upper, upper1, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(refl, refl1, atol=1e-14)


def test_zero_column_gives_identity_reflector():
    def body(comm, layout):
        return first_reflector([vector(layout, comm, np.zeros(4))])

    for alpha, u, identity in on_team([1, 1, 2], body):
        assert alpha == 0.0 and identity
        np.testing.assert_array_equal(u, np.zeros(4))


# -- applying reflectors -------------------------------------------------

def applied(counts, columns_full, t_full):
    """apply_qt of r = ``t_full`` through the stack ``decompose`` makes of
    the columns: per rank (head, identity flags, allreduces spent)."""
    def body(comm, layout):
        stack, _ = decompose(dense_columns(layout, comm, columns_full), 0.0)
        before = comm.counters["allreduce"]
        head = apply_qt(stack, vector(layout, comm, t_full))
        return head, stack.identity_flags, comm.counters["allreduce"] - before

    return on_team(counts, body)


def test_apply_identity_reflector():
    # an already-triangular column makes the identity, which leaves r's
    # head as it is
    for head, flags, reductions in applied(
            [2, 1], np.array([[2.0, 0.0, 0.0]]).T, [1.0, 2.0, 3.0]):
        np.testing.assert_array_equal(head, [1.0])
        assert flags == [True]
        assert reductions == 1


def test_apply_axis_reflector_flips_sign():
    # after an identity, a column along -e_1 makes the reflector
    # I - 2 e_1 e_1^T
    for head, flags, _ in applied(
            [2, 1], np.array([[1.0, 0.0, 0.0], [0.0, -2.0, 0.0]]).T,
            [1.0, 2.0, 3.0]):
        np.testing.assert_array_equal(head, [1.0, -2.0])
        assert flags == [True, False]


def test_apply_reflector_is_involutive():
    # Q^T undoes Q: apply_qt of a reconstructed column is its U column
    rng = np.random.default_rng(1)
    dense = rng.standard_normal((6, 2))

    def body(comm, layout):
        stack, _ = decompose(dense_columns(layout, comm, dense), 0.0)
        before = comm.counters["allreduce"]
        heads = [apply_qt(stack, c) for c in reconstruct(stack)]
        return stack.upper, heads, comm.counters["allreduce"] - before

    for upper, heads, reductions in on_team([4, 2], body):
        assert reductions == 2  # one per column
        for j, head in enumerate(heads):
            np.testing.assert_allclose(head, upper[:, j], atol=1e-14)


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
    # pivot rows 0..3 sit on all three ranks; nothing is broadcast;
    # ``decompose`` pays as much when the filter drops a column
    rng = np.random.default_rng(31)
    k = 4
    dense = random_tall(9, k, 10.0, rng)
    r_full = rng.standard_normal(9)
    near = np.column_stack([dense,
                            dense[:, 0] + 1e-13 * rng.standard_normal(9)])

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
        before = dict(comm.counters)
        _, outcome = decompose(dense_columns(layout, comm, near), 1e-9)
        made.append((delta(comm, before), outcome.dropped))
        return made, sum(not flag for flag in stack.identity_flags)

    for (dec, qt, back, drop), live in on_team([1, 2, 6], body):
        assert live == k
        assert dec == {"allreduce": 2 * k - 1, "broadcast": 0,
                       "allgather": 0}
        assert drop == ({"allreduce": 2 * (k + 1) - 1, "broadcast": 0,
                         "allgather": 0}, [k])
        assert qt == {"allreduce": 1, "broadcast": 0, "allgather": 0}
        assert back == {"allreduce": 0, "broadcast": 0, "allgather": 0}


# -- the per-step factor ------------------------------------------------

DENSE_SEEDS = range(12)
EPSILONS = (0.0, 1e-9, 1e-3, 0.1)


def dense_filter(dense, epsilon):
    """Reference filter on a dense matrix: scan the columns in order and
    drop column j when the triangle of the columns kept so far plus j
    ends in |U_jj| <= epsilon * ||U||_F; epsilon = 0 keeps them all."""
    kept = []
    for j in range(dense.shape[1]):
        upper = np.linalg.qr(dense[:, kept + [j]], mode="r")
        if not epsilon \
                or abs(upper[-1, -1]) > epsilon * np.linalg.norm(upper):
            kept.append(j)
    return kept


def some_columns(rng, p, count, affine):
    """``count`` columns of length p.  Some copy an earlier one exactly;
    some are a combination of an earlier pair plus a perturbation of
    relative size 1e-6 or 1e-12.  With ``affine`` the columns are
    residuals: the combination's weights sum to one, so the differences
    of the columns are the near-dependent ones."""
    cols = []
    for j in range(count):
        kind = rng.random()
        if j >= 2 and kind < 0.15:
            cols.append(cols[rng.integers(j)].copy())
        elif j >= 2 and kind < 0.3:
            a, b = rng.choice(j, 2, replace=False)
            mix = cols[a] + 0.7 * (cols[b] - cols[a]) if affine \
                else cols[a] - 0.7 * cols[b]
            size = rng.choice([1e-6, 1e-12]) * np.linalg.norm(mix)
            cols.append(mix + size * rng.standard_normal(p) / np.sqrt(p))
        else:
            cols.append(rng.standard_normal(p) * 10.0 ** rng.uniform(-2, 2))
    return np.column_stack(cols) if cols else np.zeros((p, 0))


def step_of_residuals(rng, p):
    """(history, residuals, ranking) of one time step.  The history may
    be longer than the p columns the interface size lets the coupler
    factor; the step's residuals run until F = [H, r_0, ..., r_k] has
    more columns than the interface has rows."""
    history = some_columns(rng, p, int(rng.integers(0, p + 2)), False)
    n_h = min(history.shape[1], p)
    residuals = some_columns(rng, p, p - n_h + 2, True)
    return history[:, :n_h], residuals, int(rng.integers(1, p + 1))


def gather_columns(columns):
    """The dense matrix of distributed columns, with one allgather."""
    comm = columns[0].comm
    pieces = comm.allgather(np.ravel([c.local for c in columns]))
    return np.vstack([piece.reshape(len(columns), -1).T
                      for piece in pieces])


def check_against_dense(where, offered, r_k, kept, reference_kept, diag,
                        lam):
    """The kept set, |diag U| and lam of one proposal against numpy on
    the dense offered columns."""
    assert kept == reference_kept, where
    if not kept:
        return
    chosen = offered[:, kept]
    scale = np.linalg.norm(chosen)
    # |U_jj| is the distance of column j from the span of the columns
    # before it; a near-dependent kept set makes that span, and so the
    # distance, sensitive to rounding
    kappa = np.linalg.cond(chosen)
    reference = np.abs(np.diag(np.linalg.qr(chosen, mode="r")))
    # (a zero column, kept with the filter off, has no condition number)
    assert np.max(np.abs(diag - reference)) \
        <= (max(1e-12, 1e-15 * kappa) * scale if scale else 0.0), where
    if kappa < 1e12:
        assert lam is not None, where
    if lam is not None:
        ref, *_ = np.linalg.lstsq(chosen, -r_k, rcond=None)
        err = np.linalg.norm(lam - ref) / np.linalg.norm(ref)
        assert err <= max(1e-10, 1e-15 * kappa ** 2), where


def solved(stack, head, comm, layout):
    try:
        return back_substitute(stack, -head, comm, layout)
    except SingularUpperError:
        return None


def test_step_factor_matches_dense_reference():
    # whole steps of appends: at every proposal the kept set, |diag U|,
    # reconstruction and lam of the coupler's choice of columns (the
    # last ``ranking`` differences r_{k-i} - r_k, then the history cut
    # at the interface size) against numpy on the dense columns, on
    # partitions that put pivot rows on several ranks and behind an
    # empty one; the one-shot ``decompose`` keeps the same columns.  The
    # history columns are F's first columns, each the pair (j, 0)
    started = time.perf_counter()
    checked = 0
    for seed in DENSE_SEEDS:
        rng = np.random.default_rng(seed)
        p = int(rng.integers(6, 25))
        history, residuals, ranking = step_of_residuals(rng, p)
        n_h = history.shape[1]
        cases = []
        for k in range(residuals.shape[1]):
            now = min(k, ranking, p)
            k_h = min(n_h, p - now)
            offered = np.column_stack(
                [residuals[:, k - i] - residuals[:, k]
                 for i in range(1, now + 1)] + [history[:, :k_h]])
            cases += [(k, now, k_h, offered, epsilon) for epsilon in EPSILONS]

        def body(comm, layout):
            step = StepFactor()
            for column in dense_columns(layout, comm, history):
                append(step, column)
            out = []
            for k, now, k_h, offered, epsilon in cases:
                if epsilon == EPSILONS[0]:
                    newest = append(step,
                                    vector(layout, comm, residuals[:, k]))
                if not now + k_h:
                    continue
                stack, outcome, head = step.factor(
                    [(newest - i, newest) for i in range(1, now + 1)]
                    + [(j + 1, 0) for j in range(k_h)], epsilon)
                _, direct = decompose(dense_columns(layout, comm, offered),
                                      epsilon)
                rebuilt = gather_columns(reconstruct(stack))
                out.append((outcome.kept, direct.kept,
                            np.abs(np.diag(stack.upper)), rebuilt,
                            solved(stack, head, comm, layout)))
            return out

        cases_run = [case for case in cases if case[1] + case[2]]
        kept_dense = [dense_filter(offered, epsilon)
                      for _, _, _, offered, epsilon in cases_run]
        for counts in ([p], [1, 2, p - 3], [0, 3, p - 3]):
            ranks = on_team(counts, body)
            for other in ranks[1:]:
                for mine, theirs in zip(ranks[0], other):
                    assert mine[:2] == theirs[:2]
                    np.testing.assert_array_equal(mine[2], theirs[2])
            for (k, _, _, offered, epsilon), reference_kept, \
                    (kept, direct, diag, rebuilt, lam) \
                    in zip(cases_run, kept_dense, ranks[0]):
                where = "seed %d counts %r proposal %d epsilon %g" % (
                    seed, counts, k, epsilon)
                assert direct == kept, where
                chosen = offered[:, kept]
                assert np.linalg.norm(rebuilt - chosen) \
                    <= 1e-12 * np.linalg.norm(chosen), where
                check_against_dense(where, offered, residuals[:, k], kept,
                                    reference_kept, diag, lam)
                checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= len(DENSE_SEEDS) * 3 * len(EPSILONS)
    assert elapsed < 20.0, "took %.1f s, budget 20 s" % elapsed


CARRIED_SEEDS = range(6)
CARRIED_STEPS = 10


def carried_solve(rng, p):
    """(capacity, ranking, steps) of a solve for the carried factor.
    Each step has 1 to 6 residuals (a step of one proposal pushes no
    block), converges or not, may push its block twice (criterion 6's
    exact duplicate), and one step, after the third, starts with the
    history emptied, so the factor has nothing live."""
    emptied = int(rng.integers(4, CARRIED_STEPS - 2))
    steps = []
    for s in range(CARRIED_STEPS):
        count = int(rng.integers(1, 7))
        steps.append((some_columns(rng, p, count, True), rng.random() < 0.9,
                      s == 2 or rng.random() < 0.1, s == emptied))
    return int(rng.integers(1, 3)), int(rng.integers(1, 6)), steps


def carried_proposals(comm, layout, capacity, ranking, steps):
    """Drive one factor through a whole solve as the coupler does, the
    history held as pairs with their dense columns in place of W.
    Returns per proposal and epsilon ((step, proposal), offered, r_k,
    epsilon, kept, |diag U|, lam, reconstruction), and per step start
    (reflectors, distinct live pairs, reflectors after the compaction)."""
    p = layout.global_size
    factor, store = StepFactor(), HistoryStore(capacity)
    out, starts = [], []
    for step, (residuals, converged, twice, emptied) in enumerate(steps):
        if emptied:
            store = HistoryStore(capacity)
        before, live = factor.reflectors, len(set(store.columns()))
        store.renumber(factor.compact(store.columns()))
        starts.append((before, live, factor.reflectors))
        log = deque(maxlen=ranking + 1)
        for k, r_k in enumerate(residuals.T):
            newest = append(factor, vector(layout, comm, r_k))
            log.appendleft((newest, r_k))
            current = min(len(log) - 1, p)
            pairs = store.columns()[:p - current]
            columns = [(log[i][0], newest) for i in range(1, current + 1)]
            offered = np.column_stack(
                [log[i][1] - r_k for i in range(1, current + 1)]
                + store.w_columns()[:len(pairs)] + [np.zeros((p, 0))])
            for epsilon in EPSILONS:
                if not columns + pairs:
                    continue
                try:
                    stack, outcome, head = factor.factor(columns + pairs,
                                                         epsilon)
                except EmptySecantSpaceError:
                    out.append(((step, k), offered, r_k, epsilon, [], None,
                                None, None))
                    continue
                out.append(((step, k), offered, r_k, epsilon, outcome.kept,
                            np.abs(np.diag(stack.upper)),
                            solved(stack, head, comm, layout),
                            gather_columns(reconstruct(stack))))
        if converged and len(log) > 1:
            (newest, r_k), *past = log
            block = ([(i, newest) for i, _ in past],
                     [v - r_k for _, v in past])
            for _ in range(1 + twice):
                store.push(*block)
    return out, starts


def test_carried_factor_matches_dense_reference_across_steps():
    # one factor for a whole solve: at every proposal the kept set,
    # |diag U| and lam against numpy on the dense columns, through
    # compactions, histories that age out, a block pushed twice and a
    # step with nothing live, on the same partitions as above
    started = time.perf_counter()
    for seed in CARRIED_SEEDS:
        rng = np.random.default_rng(100 + seed)
        p = int(rng.integers(10, 25))
        solve = carried_solve(rng, p)
        reference = None
        for counts in ([p], [1, 2, p - 3], [0, 3, p - 3]):
            ranks = on_team(counts, lambda comm, layout: carried_proposals(
                comm, layout, *solve))
            for other in ranks[1:]:
                for mine, theirs in zip(ranks[0][0], other[0]):
                    assert mine[4] == theirs[4]
                    np.testing.assert_array_equal(mine[5], theirs[5])
            proposals, starts = ranks[0]
            # a step start with more than twice as many reflectors as
            # live pairs rebuilds F from them, and with none live F
            # restarts empty; otherwise the reflectors stay
            for n, live, after in starts:
                assert after == (live if n > 2 * live else n), starts
            assert sum(n > 2 * live > 0 for n, live, _ in starts) >= 2
            assert any(n and not live for n, live, _ in starts[1:])
            if reference is None:
                reference = [dense_filter(offered, epsilon)
                             for _, offered, _, epsilon, *_ in proposals]
            for ((step, k), offered, r_k, epsilon, kept, diag, lam,
                 rebuilt), ref_kept in zip(proposals, reference):
                where = "seed %d counts %r step %d proposal %d epsilon %g" \
                    % (seed, counts, step, k, epsilon)
                check_against_dense(where, offered, r_k, kept, ref_kept,
                                    diag, lam)
                if kept:
                    # the reflectors, unit ones after compactions too,
                    # rebuild the kept columns
                    chosen = offered[:, kept]
                    assert np.linalg.norm(rebuilt - chosen) \
                        <= 1e-12 * np.linalg.norm(chosen), where
    elapsed = time.perf_counter() - started
    assert elapsed < 20.0, "took %.1f s, budget 20 s" % elapsed


def test_compaction_is_local_and_rewrites_y_in_place():
    # rebuilding F makes no collective on a team whose pivot rows span
    # three ranks, and on a wide interface it holds a chunk of rows at a
    # time, never a second copy of Y; F then still solves for its pairs
    rng = np.random.default_rng(41)

    def rebuild(comm, layout, residuals):
        step = StepFactor()
        for column in dense_columns(layout, comm, residuals):
            append(step, column)
        before = dict(comm.counters)
        tracemalloc.start()
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        renamed = step.compact([(1, 3), (2, 3), (5, 0)])
        extra = tracemalloc.get_traced_memory()[1] - held
        tracemalloc.stop()
        assert comm.counters == before
        assert step.reflectors == 3
        norms = np.linalg.norm(gather_columns(
            step.factor([(1, 0)], 0.0)[0].reflectors), axis=0)
        newest = append(step, vector(layout, comm, residuals[:, 0]))
        stack, _, head = step.factor(
            [renamed[1, 3], renamed[2, 3], renamed[5, 0], (newest, 0)], 0.0)
        return extra, norms, back_substitute(stack, -head, comm, layout)

    for counts in ([9], [1, 2, 6], [8 * 4096 + 5]):
        p = sum(counts)
        residuals = rng.standard_normal((p, 8))
        chosen = np.column_stack([residuals[:, 0] - residuals[:, 2],
                                  residuals[:, 1] - residuals[:, 2],
                                  residuals[:, 4], residuals[:, 0]])
        reference, *_ = np.linalg.lstsq(chosen, -residuals[:, 0], rcond=None)
        for extra, norms, lam in on_team(
                counts, lambda comm, layout: rebuild(comm, layout, residuals)):
            np.testing.assert_allclose(norms, 1.0, rtol=1e-14)
            np.testing.assert_allclose(lam, reference, atol=1e-10)
            if p > 4096:
                # Y is 8 reflectors of p rows
                assert extra < 8 * p * 8 / 2, extra


def test_apply_qt_agrees_with_the_step_factor():
    # apply_qt of the stack ``factor`` returns projects F's newest
    # column, through the stack's T and Y head, to the head ``factor``
    # returns: with 5 reflectors for 2 live pairs, and again once a
    # ``compact`` has rebuilt T, Y and its head from them
    rng = np.random.default_rng(43)
    residuals = rng.standard_normal((9, 7))

    def body(comm, layout):
        rs = dense_columns(layout, comm, residuals)
        step, out = StepFactor(), []
        for r in rs[:5]:
            newest = append(step, r)
        stack, _, head = step.factor(
            [(1, newest), (2, newest), (3, newest)], 0.0)
        out.append((apply_qt(stack, rs[4]), head))
        renamed = step.compact([(1, newest), (2, newest)])
        assert step.reflectors == 2
        for r in rs[5:]:
            newest = append(step, r)
        stack, _, head = step.factor(
            list(renamed.values()) + [(newest - 1, newest)], 0.0)
        out.append((apply_qt(stack, rs[6]), head))
        return out

    for out in on_team([1, 2, 6], body):
        for (projected, head), r_k in zip(out, residuals[:, [4, 6]].T):
            assert len(head) == 3
            np.testing.assert_allclose(projected, head, rtol=0,
                                       atol=1e-14 * np.linalg.norm(r_k))


def test_append_with_the_couplers_sums_matches_its_own_reduction():
    # the coupler sums an append's shares after r . r in its one
    # reduction; the factor that takes those sums is bitwise the one
    # whose shares are reduced on their own: from an empty factor,
    # through F's full-interface appends, and after a compaction that
    # rebuilds F.  Every rank's shares are as long
    rng = np.random.default_rng(47)

    def state(factor):
        return [factor._upper[:, -1].tobytes(), factor._t.tobytes(),
                factor._y_head.tobytes()] \
            + [y.local.tobytes() for y in factor._y]

    def body(comm, layout, residuals):
        p, lengths = layout.global_size, []
        fused, alone = StepFactor(), StepFactor()
        for k, r in enumerate(dense_columns(layout, comm, residuals)):
            if k == p + 2:
                # p reflectors for 2 live pairs: both rebuild F
                renamed = fused.compact([(1, 5), (3, 10)])
                assert alone.compact([(1, 5), (3, 10)]) == renamed
                assert fused.reflectors == 2
            shares = fused.shares(r)
            lengths.append(len(shares))
            _, *sums = dots([(r, r)], shares)
            assert fused.append(r, sums) == append(alone, r)
            assert state(fused) == state(alone), k
        return lengths

    for counts in ([1, 2, 6], [0, 3, 5], [9]):
        p = sum(counts)
        residuals = rng.standard_normal((p, p + 4))
        per_rank = on_team(counts, lambda comm, layout: body(
            comm, layout, residuals))
        # empty, growing, full for two appends, rebuilt to 2 reflectors
        assert per_rank == [list(range(p)) + [2 * p] * 2 + [2, 3]] \
            * len(counts)


def test_step_factor_collectives_on_spanning_pivots():
    # team [1, 2, 6], p = 9: an append pays 1 reduction, none once F has
    # a reflector per row, also after a compaction, on top of the one
    # that sums its shares (Y^T r, then r's head rows once F is full,
    # as long on every rank); ``factor``, whatever columns it takes from
    # F and the filter drops, and ``compact``, keeping F, rebuilding it
    # or emptying it, pay nothing
    rng = np.random.default_rng(37)
    p = 9
    residuals = rng.standard_normal((p, p + 4))
    residuals[:, 3] = residuals[:, 1]  # r_1 - r_3 = 0: a filter drop

    def body(comm, layout):
        def spent(call):
            before = dict(comm.counters)
            out = call()
            return {kind: comm.counters[kind] - before[kind]
                    for kind in before}, out

        rs = dense_columns(layout, comm, residuals)
        step, made, widths = StepFactor(), [], []

        def counted_append(r):
            widths.append(step.reflectors)
            shares = step.shares(r)
            cost, summed = spent(lambda: comm.allreduce_sum_array(shares))
            made.append(("shares", cost, len(shares)))
            cost, newest = spent(lambda: step.append(r, summed))
            made.append(("append", cost))
            return newest

        for k, r in enumerate(rs[:p + 2]):
            newest = counted_append(r)
            for now in range(1, min(k, 3) + 1):
                pairs = [(newest - i, newest) for i in range(1, now + 1)]
                cost, (_, outcome, _) = spent(
                    lambda: step.factor(pairs, 1e-9))
                made.append(("factor", cost))
                if k == 3 and now >= 2:
                    assert 1 in outcome.dropped
        # 9 reflectors for 5 live pairs: only dead R_F columns go
        cost, renamed = spent(lambda: step.compact(
            [(1, 5), (2, 5), (3, 6), (4, 7), (8, 11)]))
        made.append(("compact", cost))
        assert step.reflectors == p
        newest = counted_append(rs[p + 2])
        made.append(("factor", spent(lambda: step.factor(
            [renamed[1, 5], (newest, 0)], 1e-9))[0]))
        # 9 reflectors for 2 live pairs: F is rebuilt from them
        cost, renamed = spent(lambda: step.compact(
            [renamed[1, 5], renamed[8, 11]]))
        made.append(("compact", cost))
        assert step.reflectors == 2
        newest = counted_append(rs[p + 3])
        made.append(("factor", spent(lambda: step.factor(
            list(renamed.values()) + [(newest, 0)], 1e-9))[0]))
        # nothing live: F restarts empty
        made.append(("compact", spent(lambda: step.compact([]))[0]))
        assert step.reflectors == 0
        counted_append(rs[0])
        return made, widths

    none = {"allreduce": 0, "broadcast": 0, "allgather": 0}
    for made, widths in on_team([1, 2, 6], body):
        assert widths == list(range(p + 1)) + [p, p, 2, 0]
        costs = iter(widths)
        for name, cost, *length in made:
            if name == "shares":
                width = next(costs)
                assert cost == dict(none, allreduce=1)
                assert length == [2 * width if width == p else width]
            elif name == "append":
                assert cost == dict(none, allreduce=int(width < p)), \
                    (width, cost)
            else:
                assert cost == none, (name, cost)
        assert [name for name, *_ in made].count("compact") == 3


def test_step_factor_rejects_history_it_has_not_factored():
    # the secant columns come from F: no pair naming a column it does
    # not hold yet, and no more columns than the interface has rows
    layout, comm = single_rank(6)
    cols = dense_columns(layout, comm,
                         random_tall(6, 3, 10.0, np.random.default_rng(3)))
    step = StepFactor()
    first, newest = append(step, cols[0]), append(step, cols[1])
    step.factor([(first, newest), (first, 0)], 0.0)
    with pytest.raises(ValueError):
        step.factor([(newest + 1, newest)], 0.0)
    with pytest.raises(ValueError):
        step.factor([(-1, newest)], 0.0)
    append(step, cols[2])
    step.factor([(newest + 1, newest)], 0.0)
    with pytest.raises(ValueError):
        step.factor([(first, 0)] * 7, 0.0)


def test_factor_on_an_empty_factor_names_the_missing_column():
    # before any append F has no column, the zero one included
    for columns in ([(1, 0)], [(0, 0)], []):
        with pytest.raises(ValueError, match="F has no column"):
            StepFactor().factor(columns, 0.1)


# -- direct LAPACK kernels ------------------------------------------------
#
# ``qr`` calls dgeqrf, dorgqr and dtrtrs itself, with the arguments that
# np.linalg.qr and scipy.linalg.solve_triangular pass, so every result
# is the wrappers' bit for bit.  The shapes: the default sweep's
# triangularized blocks (8 by 14, 10 by 18), the piston's (33 by 55),
# and two on which dgeqrf blocks (min(m, n) >= 128), where only the
# workspace size LAPACK asks for gives numpy's bits.

KERNEL_SHAPES = [(8, 14), (10, 18), (33, 55)]
BLOCKED_SHAPES = [(200, 300), (150, 400)]


def kernel_input(shape, order):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    return np.asarray(rng.standard_normal(shape), order=order)


def same_bits(got, expected):
    return (got.shape == expected.shape and got.dtype == expected.dtype
            and got.flags.c_contiguous == expected.flags.c_contiguous
            and got.tobytes() == expected.tobytes())


def check_qr_bits(shape, order):
    m = kernel_input(shape, order)
    assert same_bits(qr._qr(m), np.linalg.qr(m, mode="r"))
    (q, r), (q_ref, r_ref) = qr._qr(m, reduced=True), np.linalg.qr(m)
    assert same_bits(q, q_ref) and same_bits(r, r_ref)
    for tall in (m.T, m[:, :1]):
        assert same_bits(qr._qr(tall), np.linalg.qr(tall, mode="r"))


@pytest.mark.parametrize("order", "CF")
@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_direct_qr_is_numpys_bit_for_bit(shape, order):
    check_qr_bits(shape, order)


def test_direct_qr_is_numpys_bit_for_bit_where_dgeqrf_blocks():
    # numpy and scipy each bundle their own OpenBLAS, which split a
    # blocked update differently over threads (with two, a 300-by-200 R
    # differs), so the blocked shapes are compared with one BLAS thread,
    # as bench/run.py runs; the filter pass too, on a 200-by-300 block
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import test_qr as t\n"
            "for shape in t.BLOCKED_SHAPES:\n"
            "    for order in 'CF':\n"
            "        t.check_qr_bits(shape, order)\n"
            "t.check_filter_pass(200, 100)\n")
    path = os.pathsep.join([here, os.path.join(os.path.dirname(here), "src")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", code], env=env, cwd=here,
                   check=True, timeout=120)


@pytest.mark.parametrize("order", "CF")
@pytest.mark.parametrize("shape", KERNEL_SHAPES + BLOCKED_SHAPES)
def test_back_substitute_is_scipys_bit_for_bit(shape, order):
    # the solve does not depend on U's memory order; scipy's is taken on
    # the row-major triangle, as the filter hands it over
    k = min(shape)
    upper = np.linalg.qr(kernel_input(shape, "C"), mode="r")[:, :k]
    rhs = np.random.default_rng(k).standard_normal(k)
    layout, comm = single_rank(k)
    stack = HouseholderStack([], np.asarray(upper, order=order))
    lam = back_substitute(stack, rhs, comm, layout)
    assert same_bits(lam, scipy.linalg.solve_triangular(upper, rhs))


def triangularize_reference(m, epsilon):
    """The filter as it was written on np.linalg.qr and np.delete."""
    rows, ncols = m.shape
    kept, dropped = list(range(ncols)), []
    tri = np.eye(max(rows, ncols), ncols + rows, ncols)
    tri[:rows, :ncols] = m
    tri = np.linalg.qr(tri, mode="r")
    while epsilon:
        block = tri[:, :len(kept)]
        filled = np.sqrt(np.cumsum(np.sum(block * block, axis=0)))
        small = np.flatnonzero(np.abs(np.diagonal(block)) <= epsilon * filled)
        if not small.size:
            break
        j = small[0]
        dropped.append(kept.pop(j))
        tri = np.delete(tri, j, axis=1)
        tri[j:, j:] = np.linalg.qr(tri[j:, j:], mode="r")
    q = len(kept)
    return tri[:q, :q], tri[:q, q:], kept, dropped


@pytest.mark.parametrize("rows,ncols", [(8, 6), (8, 10), (33, 22)])
def test_filter_pass_matches_its_numpy_reference(rows, ncols):
    check_filter_pass(rows, ncols)


def check_filter_pass(rows, ncols):
    # columns that are near-combinations of earlier ones, an exact copy
    # and a zero column make the filter drop several and re-triangularize
    # after each drop
    rng = np.random.default_rng(rows * ncols)
    m = (rng.standard_normal((rows, ncols))
         * 10.0 ** rng.integers(-3, 3, ncols))
    for j in range(2, ncols, 3):
        m[:, j] = (m[:, j - 1] - m[:, j - 2]
                   + 1e-9 * rng.standard_normal(rows))
    m[:, 1], m[:, ncols - 1] = m[:, 0], 0.0
    drops = []
    for epsilon in (0.0, 1e-12, 1e-6, 1e-2):
        upper, rotation, kept, dropped = triangularize_reference(m, epsilon)
        got_upper, got_rotation, outcome = qr._triangularize(m, epsilon)
        assert (outcome.kept, outcome.dropped) == (kept, dropped)
        assert got_upper.tobytes() == upper.tobytes()
        assert got_rotation.tobytes() == rotation.tobytes()
        drops.append(len(dropped))
    assert drops[0] == 0 and drops[-1] >= 2


def test_solves_call_lapack_as_scipy_does(monkeypatch):
    # every triangular solve of a solve -- back substitutions and the
    # rebuild's three -- is scipy.linalg.solve_triangular's bit for bit,
    # and every QR numpy's; the piston's history outgrows its live
    # columns, so ``compact`` rebuilds F
    calls = {"dtrtrs": 0, "reduced": 0}
    real_trtrs, real_qr = qr.dtrtrs, qr._qr

    def trtrs(a_t, b, lower=0, trans=0, unitdiag=0):
        x, info = real_trtrs(a_t, b, lower=lower, trans=trans,
                             unitdiag=unitdiag)
        expected = scipy.linalg.solve_triangular(
            a_t.T, b, lower=not lower, trans=int(not trans),
            unit_diagonal=bool(unitdiag))
        assert info == 0 and same_bits(np.ascontiguousarray(x),
                                       np.ascontiguousarray(expected))
        calls["dtrtrs"] += 1
        return x, info

    def direct_qr(m, reduced=False):
        got = real_qr(m, reduced)
        expected = np.linalg.qr(m) if reduced else (np.linalg.qr(m, "r"),)
        assert all(map(same_bits, got if reduced else (got,), expected))
        calls["reduced"] += reduced
        return got

    monkeypatch.setattr(qr, "dtrtrs", trtrs)
    monkeypatch.setattr(qr, "_qr", direct_qr)
    solve_coupled(make_problem("piston", dim=40),
                  CouplerConfig(epsilon=1e-9, histories=3, ranking=5,
                                tol=1e-8), 6, counts=[7, 33])
    solve_coupled(make_problem("linear", seed=5),
                  CouplerConfig(epsilon=0.1, histories=1, ranking=5), 10)
    assert calls["reduced"] and calls["dtrtrs"] > 3 * calls["reduced"]


def test_back_substitute_error_paths():
    # as the check_finite solve raised them: a NaN anywhere in U, or a
    # NaN or inf in the right-hand side, is a ValueError; an inf in U
    # makes the singular floor inf, so SingularUpperError; the floor is
    # tested first; an empty triangle solves to an empty vector
    layout, comm = single_rank(4)
    nan, inf = float("nan"), float("inf")

    def solve(upper, rhs):
        stack = HouseholderStack([], np.array(upper, dtype=float))
        return back_substitute(stack, np.array(rhs, dtype=float), comm,
                               layout)

    good = [[2.0, 1.0], [0.0, 3.0]]
    for upper, rhs in [([[nan, 1.0], [0.0, 3.0]], [1.0, 2.0]),
                       ([[2.0, nan], [0.0, 3.0]], [1.0, 2.0]),
                       ([[2.0, 1.0], [nan, 3.0]], [1.0, 2.0]),
                       (good, [nan, 2.0]), (good, [1.0, inf]),
                       (good, [-inf, 2.0])]:
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(upper, rhs)
    for upper, rhs in [([[inf, 1.0], [0.0, 3.0]], [1.0, 2.0]),
                       ([[2.0, 1.0], [-inf, 3.0]], [1.0, 2.0]),
                       ([[2.0, 1.0], [0.0, 0.0]], [nan, 1.0])]:
        with pytest.raises(SingularUpperError):
            solve(upper, rhs)
    empty = solve(np.zeros((0, 0)), np.zeros(0))
    assert empty.shape == (0,) and empty.dtype == np.float64


def test_no_shape_makes_lapack_write(capfd):
    # LAPACK reports an illegal argument, such as an empty right-hand
    # side, on the process's stderr; the kernels never call it so
    # a factor with columns has a reflector, so R_F E has a row
    for shape in [(0, 0)] + [(r, c) for r in (1, 2, 3) for c in range(4)]:
        for epsilon in (0.0, 0.5):
            try:
                qr._triangularize(np.ones(shape), epsilon)
            except EmptySecantSpaceError:
                pass
    for shape in [(r, c) for r in range(4) for c in range(4)]:
        assert qr._qr(np.ones(shape)).shape == (min(shape), shape[1])
    layout, comm = single_rank(6)
    cols = dense_columns(layout, comm,
                         random_tall(6, 4, 10.0, np.random.default_rng(5)))
    step = StepFactor()
    for c in cols:
        append(step, c)
    assert step.compact([]) == {} and step.reflectors == 0
    newest = append(step, cols[0])
    with pytest.raises(EmptySecantSpaceError):
        step.factor([(newest, newest)], 0.5)
    assert back_substitute(HouseholderStack([], np.zeros((0, 0))),
                           np.zeros(0), comm, layout).size == 0
    assert capfd.readouterr() == ("", "")
