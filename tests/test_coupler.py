"""Coupling loop, accelerators, and the per-step bookkeeping."""

import numpy as np
import pytest

from ciqn import coupler as cp
from ciqn import problems
from ciqn.coupler import (AitkenAccelerator, Coupler, CouplerConfig,
                          HistoryStore, IterationRecord, RankDisagreementError,
                          StepDivergedError, make_accelerator, solve_coupled)
from ciqn.field import InterfaceVector, PartitionLayout
from ciqn.runtime import RankComm

from conftest import single_rank, vector


def scalar_problem():
    return problems.LinearFixedPoint([[0.5]], [1.0])


# -- configuration ------------------------------------------------------

@pytest.mark.parametrize("bad", [
    {"epsilon": -1e-9},
    {"histories": -1},
    {"ranking": 0},
    {"omega0": 0.0},
    {"omega0": 1.5},
    {"tol": 0.0},
    {"max_iters": 0},
    {"epsilon": float("nan")},
    {"tol": float("nan")},
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        CouplerConfig(**bad)


def test_make_accelerator_names():
    config = CouplerConfig()
    made = [type(make_accelerator(name, config)).__name__
            for name in cp.ACCELERATORS]
    assert made == ["CiqnAccelerator", "AitkenAccelerator",
                    "PicardAccelerator"]
    with pytest.raises(ValueError):
        make_accelerator("broyden", config)


# -- history store ------------------------------------------------------

def test_history_store_is_newest_first():
    layout, comm = single_rank(1)

    def col(value):
        return InterfaceVector(layout, comm, np.array([value]))

    store = HistoryStore(2)
    store.push([col(1.0)], [col(10.0)])
    store.push([col(2.0)], [col(20.0)])
    store.push([col(3.0)], [col(30.0)])  # evicts the oldest block
    assert len(store) == 2
    assert [c.local[0] for c in store.v_columns()] == [3.0, 2.0]
    assert [c.local[0] for c in store.w_columns()] == [30.0, 20.0]


def test_history_store_capacity_zero_ignores_pushes():
    store = HistoryStore(0)
    store.push([], [])
    assert len(store) == 0 and store.v_columns() == []


# -- quasi-Newton update ------------------------------------------------

def test_scalar_walkthrough():
    # x -> 0.5x + 1 from x=0: r0=1, relaxed to x=0.1, and the single
    # secant column lands the third evaluation on the fixed point 2
    cfg = CouplerConfig(histories=0, ranking=1, epsilon=0.0,
                        tol=1e-6, max_iters=10)
    res = solve_coupled(scalar_problem(), cfg, n_steps=1)
    rec = res.records[0]
    assert rec.iterations == 3 and rec.converged
    assert rec.residual_norms[0] == 1.0
    assert rec.residual_norms[1] == pytest.approx(0.45, rel=1e-14)
    assert rec.residual_norms[2] == 0.0
    np.testing.assert_allclose(res.solution, [2.0], atol=1e-14)


def test_startup_step_relaxes_from_operator_output():
    cfg = CouplerConfig(omega0=0.25, tol=1e-12, max_iters=1)
    layout, comm = single_rank(2)
    c = Coupler(comm, layout, cfg)
    c.begin_time_step(vector(layout, comm, [1.0, 1.0]))
    x1 = c.advance(vector(layout, comm, [3.0, 1.0]))
    # no secant data yet: x_tilde + omega0 * r with r = (2, 0)
    np.testing.assert_array_equal(x1.local, [3.5, 1.0])


def test_zero_projection_returns_operator_output_unchanged():
    # crafted residuals keep r orthogonal to the only secant column, so
    # the least-squares coefficient is zero and x_tilde passes through
    cfg = CouplerConfig(histories=0, ranking=1)
    layout, comm = single_rank(2)
    c = Coupler(comm, layout, cfg)
    accel = c.accelerator
    accel.start_step(c)
    x = vector(layout, comm, [0.0, 0.0])
    accel.propose(c, x, vector(layout, comm, [1.0, 1.0]),
                  vector(layout, comm, [2.0, 5.0]))
    x_tilde = vector(layout, comm, [0.3, 0.7])
    out = accel.propose(c, x, x_tilde, vector(layout, comm, [0.0, 5.0]))
    np.testing.assert_array_equal(out.local, x_tilde.local)


def test_linear_exactness_small():
    lin = problems.LinearFixedPoint.random_contraction(4, 0.6, seed=1)
    cfg = CouplerConfig(histories=0, ranking=4, epsilon=0.0,
                        tol=1e-12, max_iters=6)
    res = solve_coupled(lin, cfg, n_steps=1)
    assert res.records[0].converged and res.records[0].iterations <= 6
    np.testing.assert_allclose(res.solution, lin.exact_solution(0),
                               atol=1e-10)


def test_history_reuse_shortens_later_steps():
    pis = problems.AddedMassPiston(32)
    base = CouplerConfig(histories=0, ranking=5, epsilon=1e-9)
    with_history = CouplerConfig(histories=2, ranking=5, epsilon=1e-9)
    mean = lambda res: np.mean([r.iterations for r in res.records[1:]])
    slow = solve_coupled(pis, base, n_steps=10)
    fast = solve_coupled(pis, with_history, n_steps=10)
    assert all(r.converged for r in slow.records + fast.records)
    assert mean(fast) < mean(slow)


def test_history_factored_once_per_step(monkeypatch):
    real = cp.decompose
    calls = []

    def counted(columns, epsilon):
        calls.append(epsilon)
        return real(columns, epsilon)

    monkeypatch.setattr(cp, "decompose", counted)
    cfg = CouplerConfig(histories=2, ranking=5, epsilon=1e-9)
    res = solve_coupled(problems.AddedMassPiston(32), cfg, n_steps=6)
    assert all(r.converged for r in res.records)
    # several proposals a step, but the first step has no history and
    # every later one factors its history block once, unfiltered
    assert all(r.iterations >= 3 for r in res.records)
    assert calls == [0.0] * 5


def test_column_count_capped_by_leader_block():
    # 3 rows per rank; long steps offer more columns than the 6 rows
    lin = problems.LinearFixedPoint.random_contraction(6, 0.6, seed=4)
    cfg = CouplerConfig(histories=2, ranking=10, epsilon=0.0,
                        tol=1e-10, max_iters=30)
    res = solve_coupled(lin, cfg, n_steps=3, counts=[3, 3])
    assert all(r.converged for r in res.records)


# -- Aitken -------------------------------------------------------------

def test_aitken_scalar_second_update_is_exact():
    cfg = CouplerConfig(tol=1e-6, max_iters=10)
    res = solve_coupled(scalar_problem(), cfg, n_steps=1,
                        accelerator="aitken")
    rec = res.records[0]
    assert rec.iterations == 3 and rec.converged
    np.testing.assert_allclose(res.solution, [2.0], atol=1e-12)


def test_aitken_keeps_factor_on_stagnant_residual():
    layout, comm = single_rank(2)
    accel = AitkenAccelerator(omega0=0.3)
    accel.start_step(None)
    x = vector(layout, comm, [0.0, 0.0])
    r = vector(layout, comm, [1.0, -1.0])
    first = accel.propose(None, x, None, r)
    np.testing.assert_array_equal(first.local, [0.3, -0.3])
    second = accel.propose(None, first, None, r.copy())
    assert accel._omega == 0.3  # unchanged on a zero residual increment
    np.testing.assert_array_equal(second.local, first.local + 0.3 * r.local)


def test_aitken_monotone_on_contraction():
    lin = problems.LinearFixedPoint.random_contraction(6, 0.5, seed=2)
    cfg = CouplerConfig(omega0=0.5, tol=1e-30, max_iters=10)
    res = solve_coupled(lin, cfg, n_steps=1, accelerator="aitken")
    rn = res.records[0].residual_norms
    assert len(rn) == 10
    assert all(b < a for a, b in zip(rn, rn[1:]))


# -- Picard and divergence ---------------------------------------------

def test_picard_converges_on_contraction():
    cfg = CouplerConfig(tol=1e-8, max_iters=50)
    res = solve_coupled(scalar_problem(), cfg, n_steps=1,
                        accelerator="picard")
    assert res.records[0].converged
    np.testing.assert_allclose(res.solution, [2.0], atol=1e-7)


def test_picard_diverges_on_amplifying_map():
    pis = problems.AddedMassPiston(16)
    cfg = CouplerConfig(tol=1e-6, max_iters=5)
    res = solve_coupled(pis, cfg, n_steps=3, accelerator="picard")
    assert res.diverged
    assert len(res.records) == 1  # the run stops at the first failed step
    rn = res.records[0].residual_norms
    assert rn[-1] > rn[0]


def test_non_finite_residual_aborts_step():
    cfg = CouplerConfig(max_iters=10)
    layout, comm = single_rank(1)
    c = Coupler(comm, layout, cfg)
    c.begin_time_step()
    with pytest.raises(StepDivergedError):
        c.advance(vector(layout, comm, [np.inf]))


# -- replicated control flow --------------------------------------------

def test_records_compare_without_residual_norms():
    a = IterationRecord(0, 3, True, 0, 0, [1.0, 0.5, 0.0])
    b = IterationRecord(0, 3, True, 0, 0, [1.0, 0.5, 1e-16])
    assert a == b
    c = IterationRecord(0, 4, True, 0, 0, [1.0, 0.5, 0.0])
    assert a != c


def test_solve_coupled_counts_and_nranks_agree():
    lin = problems.LinearFixedPoint.random_contraction(8, 0.6, seed=0)
    cfg = CouplerConfig(histories=1, ranking=5, epsilon=1e-9, tol=1e-8)
    by_nranks = solve_coupled(lin, cfg, n_steps=3, nranks=2)
    by_counts = solve_coupled(lin, cfg, n_steps=3, counts=[4, 4])
    assert by_nranks.records == by_counts.records
    np.testing.assert_array_equal(by_nranks.solution, by_counts.solution)


def test_solve_coupled_rejects_ranks_that_disagree(monkeypatch):
    real_run_spmd = cp.run_spmd

    def skewed(nranks, body):
        outputs = real_run_spmd(nranks, body)
        records, solution = outputs[1]
        outputs[1] = (records, solution + 1.0)
        return outputs

    monkeypatch.setattr(cp, "run_spmd", skewed)
    with pytest.raises(RankDisagreementError):
        solve_coupled(scalar_problem(), CouplerConfig(), n_steps=1,
                      counts=[1, 0])


def test_result_metadata():
    cfg = CouplerConfig()
    res = solve_coupled(scalar_problem(), cfg, n_steps=2,
                        accelerator="aitken")
    assert res.accelerator == "aitken"
    assert not res.diverged
    assert res.wall_time >= 0.0
    assert [r.time_index for r in res.records] == [0, 1]
