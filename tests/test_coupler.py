"""Coupling loop, accelerators, and the per-step bookkeeping."""

import threading
import time

import numpy as np
import pytest

from ciqn import coupler as cp
from ciqn import field, harness, problems, qr
from ciqn.coupler import (RESIDUAL_FLOOR, AitkenAccelerator, Coupler,
                          CouplerConfig, HistoryStore, IterationRecord,
                          RankDisagreementError, make_accelerator,
                          solve_coupled)
from ciqn.field import InterfaceVector, PartitionLayout
from ciqn.runtime import RankComm

from conftest import counted_solve, on_team, single_rank, vector


def scalar_problem():
    return problems.LinearFixedPoint([[0.5]], [1.0])


class Constant:
    """An operator that returns the same field for every input."""

    def __init__(self, full):
        self.full = full

    def evaluate(self, x, time_index):
        return vector(x.layout, x.comm, self.full)


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
    {"ranking": True},
    {"tol": float("inf")},
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        CouplerConfig(**bad)


@pytest.mark.parametrize("default,value", [
    (0, 1.5), (0, "1.5"), (0, "8"), (0, True), (0, np.True_), (0, None),
    (0, float("inf")),
    (0.0, "x"), (0.0, "0.1"), (0.0, False), (0.0, None), (0.0, [1.0]),
    (0.0, float("nan")), (0.0, -float("inf")), ("", 3), ("", None)])
def test_exact_value_rejects_what_its_defaults_type_would_change(default,
                                                                 value):
    with pytest.raises(ValueError) as exc:
        cp.exact_value("x", value, default)
    assert str(exc.value) == "'x': expected %s, got %r" % (
        {int: "an integer", float: "a number", str: "a string"}[
            type(default)], value)


def test_exact_value_keeps_exact_values_in_the_defaults_type():
    for default, value, kept in ((0, 8.0, 8), (0, np.int64(12), 12),
                                 (0, 10**400, 10**400), (0.0, 1, 1.0),
                                 ("", "a.csv", "a.csv")):
        got = cp.exact_value("x", value, default)
        assert got == kept and type(got) is type(default)
    config = CouplerConfig(histories=2.0, max_iters=np.int64(7), tol=1)
    assert (config.histories, config.max_iters, config.tol) == (2, 7, 1.0)
    assert [type(v) for v in (config.histories, config.max_iters,
                              config.tol)] == [int, int, float]


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
    store.push([(1, 0)], [col(10.0)])
    store.push([(2, 0)], [col(20.0)])
    store.push([(3, 0)], [col(30.0)])  # evicts the oldest block
    assert [i for i, _ in store.columns()] == [3, 2]
    assert [c.local[0] for c in store.w_columns()] == [30.0, 20.0]


def test_history_store_capacity_zero_ignores_pushes():
    layout, comm = single_rank(1)
    column = InterfaceVector(layout, comm, np.array([1.0]))
    store = HistoryStore(0)
    store.push([(1, 0)], [column])
    assert store.columns() == [] and store.w_columns() == []


# -- quasi-Newton update ------------------------------------------------

def test_scalar_walkthrough():
    # x -> 0.5x + 1 from x=0: x_tilde=1 and r0=1, so the startup step
    # goes to x_tilde + omega0 r0 = 1.1, whose residual is 0.45; the
    # single secant column lands the third evaluation on the fixed point 2
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
    c.x = vector(layout, comm, [1.0, 1.0])
    c.run_time_step(Constant([3.0, 1.0]))
    # no secant data yet: x_tilde + omega0 * r with r = (2, 0)
    np.testing.assert_array_equal(c.x.local, [3.5, 1.0])


def test_zero_projection_returns_operator_output_unchanged():
    # crafted residuals keep r orthogonal to the only secant column, so
    # the least-squares coefficient is zero and x_tilde passes through
    cfg = CouplerConfig(histories=0, ranking=1)
    layout, comm = single_rank(2)
    c = Coupler(comm, layout, cfg)
    accel = c.accelerator
    accel.start_step()

    def propose(x, x_tilde, r):
        # the coupler's side: r . r and r's shares summed, in order
        sums = field.dots([(r, r)], accel.shares(r))
        return accel.propose(x, x_tilde, r, sums)

    x = vector(layout, comm, [0.0, 0.0])
    propose(x, vector(layout, comm, [1.0, 1.0]),
            vector(layout, comm, [2.0, 5.0]))
    x_tilde = vector(layout, comm, [0.3, 0.7])
    out = propose(x, x_tilde, vector(layout, comm, [0.0, 5.0]))
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


def test_carried_factor_costs_on_spanning_pivots(monkeypatch):
    # team [1, 2, 6], p = 9: one factor serves the whole solve; the
    # first proposal of every step after the first costs one append, on
    # top of the coupler's one reduction per iteration that sums the
    # append's shares with r . r: 1 allreduce where the append declines
    # to build its reflector locally (it leaves none pending), else
    # none, and none once F has a reflector per row; compaction and
    # ``factor`` cost none, a converged step leaving no reflector
    # pending.  Ranking 2 rebuilds F at step starts (blocks of 2
    # pairs), ranking 5 keeps it full
    made, calls = [], {}

    def counted(name, real):
        def wrapper(self, *args):
            r = {"append": 0, "propose": 2}.get(name)
            comm = getattr(self, "comm", None) if r is None else args[r].comm
            if comm is None:  # the first step start: F is still empty
                return real(self, *args)
            before = dict(comm.counters)
            out = real(self, *args)
            spent = {k: comm.counters[k] - before[k] for k in before}
            factor = self._factor if name == "propose" else self
            calls.setdefault(comm.rank, []).append(
                (name, spent, factor.reflectors,
                 factor._pending is not None))
            return out
        return wrapper

    real_init = qr.StepFactor.__init__

    def counted_init(self, bound):
        made.append(threading.current_thread().name)
        real_init(self, bound)

    monkeypatch.setattr(qr.StepFactor, "__init__", counted_init)
    for name in ("append", "compact", "factor"):
        monkeypatch.setattr(qr.StepFactor, name,
                            counted(name, getattr(qr.StepFactor, name)))
    monkeypatch.setattr(cp.CiqnAccelerator, "propose",
                        counted("propose", cp.CiqnAccelerator.propose))
    problem = problems.make_problem("linear", seed=0, dim=9)
    none = {"allreduce": 0, "broadcast": 0, "allgather": 0}
    for ranking in (2, 5):
        made.clear()
        calls.clear()
        config = CouplerConfig(histories=2, ranking=ranking, epsilon=1e-9,
                               tol=1e-8)
        result, counters = counted_solve(problem, config, 6,
                                         counts=[1, 2, 6])
        assert all(record.converged for record in result.records)
        assert sorted(made) == ["rank0", "rank1", "rank2"]
        iterations = sum(record.iterations for record in result.records)
        for rank, rank_calls in calls.items():
            appends = sum(spent["allreduce"]
                          for name, spent, *_ in rank_calls
                          if name == "append")
            assert counters[rank] == dict(
                none, allreduce=iterations + appends,
                allgather=iterations + 1)
            # reflectors after each call: an append adds one unless F
            # was full; a compaction that rebuilds F leaves fewer
            steps, width, rebuilt, lagged = [[]], 0, 0, 0
            for name, spent, after, pending in rank_calls:
                if name in ("compact", "factor"):
                    assert spent == none
                    if name == "compact":
                        assert not pending
                        steps.append([])
                        rebuilt += after < width
                elif name == "append":
                    # none on a full factor
                    assert spent == dict(
                        none, allreduce=int(width < 9 and not pending))
                    appended, lagged = (spent, width == 9), lagged + pending
                else:
                    assert spent == appended[0]  # the proposal's append
                    steps[-1].append(appended[1])
                width = after
            assert len(steps) == len(result.records)
            assert [step[0] for step in steps[1:]] == [ranking == 5] * 5
            assert any(full for step in steps for full in step)
            assert (rebuilt > 0) == (ranking == 2)
            assert lagged > 0


def test_history_factored_once_per_step(monkeypatch):
    # each residual enters the solve's one factor once, by an append at
    # its step's proposal; a later step starts by compacting F and
    # reuses the history's columns from it, never factoring them again.
    # A converged step costs one allreduce per iteration, plus one per
    # append that declines to build its reflector locally (it leaves
    # none pending); F is never full here
    real_init, real_append = qr.StepFactor.__init__, qr.StepFactor.append
    real_compact = qr.StepFactor.compact
    made, appends, compactions = [], [], []

    def counted_init(self, bound):
        made.append(self)
        real_init(self, bound)

    def counted_append(self, r, summed):
        assert self.reflectors < r.layout.global_size
        out = real_append(self, r, summed)
        appends.append((r, self._pending is None))
        return out

    def counted_compact(self, columns):
        compactions.append(list(columns))
        return real_compact(self, columns)

    monkeypatch.setattr(qr.StepFactor, "__init__", counted_init)
    monkeypatch.setattr(qr.StepFactor, "append", counted_append)
    monkeypatch.setattr(qr.StepFactor, "compact", counted_compact)
    problem = problems.AddedMassPiston(32)
    layout, comm = single_rank(32)
    coupler = Coupler(comm, layout,
                      CouplerConfig(histories=2, ranking=5, epsilon=1e-9))
    assert len(made) == 1
    for step in range(6):
        history = coupler.accelerator.history.columns()
        k_h = len(history)
        assert (k_h > 0) == (step > 0)
        appends.clear()
        compactions.clear()
        before = comm.counters["allreduce"]
        record = coupler.run_time_step(problem)
        assert record.converged and record.iterations >= 3
        assert comm.counters["allreduce"] - before \
            == record.iterations + sum(declined for _, declined in appends)
        assert coupler.accelerator._factor._pending is None
        # one factor for the solve; the step start compacts it for the
        # history's pairs; every proposal, the first included, appends
        # its residual and nothing else
        assert len(made) == 1
        assert compactions == [history]
        assert len(appends) == record.iterations - 1
        assert len({id(r) for r, _ in appends}) == len(appends)


@pytest.mark.parametrize("counts", [[9], [1, 2, 6], [0, 3, 5]])
def test_step_reductions_with_a_step_stopped_at_max_iters(monkeypatch,
                                                          counts):
    # teams whose pivot rows span ranks, behind an empty one too: a
    # converged step costs one allreduce per iteration plus one per
    # append that declines to build its reflector locally (it leaves none
    # pending).  A step stopped at max_iters leaves its last reflector
    # pending, and the next step start, whose compaction rebuilds F,
    # finishes it with exactly one reduction more.  The ranks agree
    real_append, real_compact = qr.StepFactor.append, qr.StepFactor.compact
    declined, compactions = {}, {}

    def counted_append(self, r, summed):
        grows = self.reflectors < r.layout.global_size
        out = real_append(self, r, summed)
        rank = r.comm.rank
        declined[rank] = declined.get(rank, 0) + (grows
                                                  and self._pending is None)
        return out

    def counted_compact(self, columns):
        before = self.reflectors
        out = real_compact(self, columns)
        if columns:
            compactions.setdefault(self.comm.rank, []).append(
                (before, self.reflectors))
        return out

    monkeypatch.setattr(qr.StepFactor, "append", counted_append)
    monkeypatch.setattr(qr.StepFactor, "compact", counted_compact)
    problem = problems.make_problem("linear", seed=0, dim=sum(counts))
    config = CouplerConfig(histories=1, ranking=2, epsilon=1e-9, tol=1e-8)
    capped = CouplerConfig(histories=1, ranking=2, epsilon=1e-9, tol=1e-8,
                           max_iters=4)

    def body(comm, layout):
        coupler, out = Coupler(comm, layout, config), []
        for step_config in (config, config, capped, config, config):
            coupler.config = step_config
            before = comm.counters["allreduce"] - declined.get(comm.rank, 0)
            record = coupler.run_time_step(problem)
            extra = comm.counters["allreduce"] - declined.get(comm.rank, 0) \
                - before - record.iterations
            out.append((record, extra,
                        coupler.accelerator._factor._pending is not None))
        return out

    per_rank = on_team(counts, body)
    for out, other in zip(per_rank, per_rank[1:]):
        assert [step[0] for step in out] == [step[0] for step in other]
    for out in per_rank:
        assert [record.converged for record, *_ in out] \
            == [True, True, False, True, True]
        assert [extra for _, extra, _ in out] == [0, 0, 0, 1, 0]
        assert [pending for *_, pending in out] \
            == [False, False, True, False, False]
    for rank, steps in compactions.items():
        # the step start after the stopped step rebuilds F
        before, after = steps[2]
        assert 0 < after < before, steps
    result = solve_coupled(problem, config, 5, counts=counts)
    assert all(record.converged for record in result.records)


def test_carried_factor_stays_bounded(monkeypatch):
    # piston dim 64, histories=2, 60 steps: after the step start's
    # compaction and after every append, the factor has at most twice as
    # many reflectors as the history has live pairs, plus the step's
    # appends; the history holds index pairs and W vectors, no V vectors
    widths = []

    def counted(real):
        def wrapper(self, *args):
            out = real(self, *args)
            widths.append(self.reflectors)
            return out
        return wrapper

    for name in ("append", "compact"):
        monkeypatch.setattr(qr.StepFactor, name,
                            counted(getattr(qr.StepFactor, name)))
    problem = problems.make_problem("piston", dim=64)
    layout, comm = single_rank(64)
    coupler = Coupler(comm, layout, CouplerConfig(histories=2, ranking=5,
                                                  epsilon=1e-9, tol=1e-8))
    history = coupler.accelerator.history
    for step in range(60):
        live = len(set(history.columns()))
        widths.clear()
        assert coupler.run_time_step(problem).converged
        for appends, width in enumerate(widths[step > 0:]):
            assert width <= 2 * live + appends + 1, (step, widths)
        if step:
            assert widths[0] <= 2 * live, (step, widths)
        columns, w_columns = history.columns(), history.w_columns()
        assert all(type(i) is int for pair in columns for i in pair)
        assert len(w_columns) == len(columns)
        assert all(isinstance(w, InterfaceVector) for w in w_columns)


@pytest.mark.parametrize("name,dim,counts,config", [
    # 2 T ranking + max_iters = 40 < p: the config bounds F
    ("piston", 200, [70, 130], CouplerConfig(histories=1, ranking=5,
                                             epsilon=1e-9, tol=1e-8,
                                             max_iters=30)),
    # appends reach p = 9 reflectors, the capacity
    ("linear", 9, [1, 2, 6], CouplerConfig(histories=2, ranking=5,
                                           epsilon=1e-9, tol=1e-8)),
])
def test_factor_keeps_y_in_one_block_of_the_configs_capacity(
        monkeypatch, name, dim, counts, config):
    # each rank's factor allocates one (capacity, local rows) block for
    # the solve, min(p, 2 T ranking + max_iters) rows; reflector j is a
    # view of its row j, in F and in every stack ``factor`` returns, and
    # no solve holds more reflectors than the block has rows
    real_init, real_factor = qr.StepFactor.__init__, qr.StepFactor.factor
    made, blocks, widths = [], {}, []

    def counted_init(self, bound):
        made.append(self)
        real_init(self, bound)

    def checked_factor(self, columns, epsilon):
        out = real_factor(self, columns, epsilon)
        block = blocks.setdefault(id(self), self._block)
        assert self._block is block and block.flags.c_contiguous
        for ys in (self._y, out[0].reflectors):
            assert all(np.shares_memory(y.local, block[j])
                       for j, y in enumerate(ys))
        widths.append(self.reflectors)
        return out

    monkeypatch.setattr(qr.StepFactor, "__init__", counted_init)
    monkeypatch.setattr(qr.StepFactor, "factor", checked_factor)
    result = solve_coupled(problems.make_problem(name, dim=dim), config, 8,
                           counts=counts)
    assert all(record.converged for record in result.records)
    capacity = min(dim, 2 * config.histories * config.ranking
                   + config.max_iters)
    assert len(made) == len(blocks) == len(counts)
    assert {factor.comm.rank: factor._block.shape for factor in made} \
        == {rank: (capacity, rows) for rank, rows in enumerate(counts)}
    assert max(widths) <= capacity
    if capacity == dim:
        assert max(widths) == dim


# criterion 9's two cases on one rank, with their iteration records
# written out: a change to the factor's arithmetic must keep them.  The
# counts are integers, so they hold across BLAS builds.
PINNED_RECORDS = [
    ("piston", 64, CouplerConfig(histories=10, ranking=10, epsilon=1e-9,
                                 tol=1e-8),
     [12, 4, 3, 5, 2, 3, 3, 4, 4, 3, 3, 2, 3, 3, 5, 3, 3, 3, 4, 3]),
    ("linear", 8, CouplerConfig(histories=1, ranking=5, epsilon=1e-9,
                                tol=1e-8),
     [13, 5, 6, 3, 3]),
]


@pytest.mark.parametrize("name,dim,config,iterations", PINNED_RECORDS)
def test_records_match_the_pinned_literals(name, dim, config, iterations):
    problem = problems.make_problem(name, seed=0, dim=dim)
    result = solve_coupled(problem, config, len(iterations))
    assert result.records == [IterationRecord(t, n, True, 0)
                              for t, n in enumerate(iterations)]
    assert sum(iterations) == {"piston": 75, "linear": 30}[name]


def test_only_a_converged_step_pushes_its_block():
    problem = problems.LinearFixedPoint.random_contraction(4, 0.6, seed=1)
    layout, comm = single_rank(4)
    c = Coupler(comm, layout, CouplerConfig(histories=3, ranking=5,
                                            tol=1e-12, max_iters=3))
    capped = c.run_time_step(problem)
    assert not capped.converged and capped.iterations == 3
    assert c.accelerator.history.columns() == []
    c.config = CouplerConfig(histories=3, ranking=5, tol=1e-12,
                             max_iters=20)
    done = c.run_time_step(problem)
    assert done.converged and done.iterations > 2
    # one block: the last proposal's columns, one per earlier iterate
    assert len(c.accelerator.history.columns()) == done.iterations - 2


@pytest.mark.parametrize("name", cp.ACCELERATORS)
def test_finish_step_returns_the_steps_dropped_columns(name):
    # a history block pushed twice offers an exact duplicate pair, which
    # the filter drops one column of (criterion 6's setup)
    problem = problems.LinearFixedPoint(np.zeros((2, 2)), [1.0, 2.0])
    config = CouplerConfig(epsilon=1e-9, histories=2, ranking=5)
    layout, comm = single_rank(2)
    accel = make_accelerator(name, config)
    c = Coupler(comm, layout, config, accel)
    c.run_time_step(problem)
    if name == "ciqn":
        accel.history.push(accel.history.columns(),
                           accel.history.w_columns())
    record = c.run_time_step(problem)
    assert record.converged
    # the coupler fills restarts from finish_step
    assert record.restarts == (1 if name == "ciqn" else 0)


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
    accel.start_step()

    def propose(x, r):
        # the coupler's side of the contract: one reduction for r . r
        # and the accelerator's shares, their sums handed back in order
        sums = field.dots([(r, r)], accel.shares(r))
        return accel.propose(x, None, r, sums)

    x = vector(layout, comm, [0.0, 0.0])
    r = vector(layout, comm, [1.0, -1.0])
    first = propose(x, r)
    np.testing.assert_array_equal(first.local, [0.3, -0.3])
    second = propose(first, r.copy())
    assert accel._omega == 0.3  # unchanged on a zero residual increment
    np.testing.assert_array_equal(second.local, first.local + 0.3 * r.local)


class NegativeZeroRows(problems.LinearFixedPoint):
    """A linear map whose first rows always evaluate to -0.0.

    With x = +0.0 there, those residual rows are -0.0, so a rank that
    owns only them holds an r_prev . delta whose local products are all
    -0.0.
    """

    ZERO_ROWS = 3

    def evaluate(self, x, time_index):
        out = field.gather(super().evaluate(x, time_index))
        out[:self.ZERO_ROWS] = -0.0
        return field.distribute(x.layout, x.comm, out)


def reference_aitken(problem, config, steps, comm, layout):
    """Aitken with one scalar reduction per inner product.

    Also counts the iterations in which this rank's local products of
    r_prev . delta are all -0.0 (on a non-empty slice).
    """
    total = lambda a, b: comm.allreduce_sum(float(a.local @ b.local))
    x, records, negative_zero = field.zeros(layout, comm), [], 0
    for t in range(steps):
        r_prev, norms = None, []
        for it in range(1, config.max_iters + 1):
            x_tilde = problem.evaluate(x, t)
            r = field.axpy(-1.0, x, x_tilde)
            norms.append(float(np.sqrt(total(r, r))))
            if norms[-1] <= config.tol * max(norms[0], RESIDUAL_FLOOR):
                x = x_tilde.copy()
                break
            if r_prev is None:
                omega = config.omega0
            else:
                delta = field.axpy(-1.0, r_prev, r)
                products = r_prev.local * delta.local
                negative_zero += bool(products.size) \
                    and bool(np.signbit(products).all())
                denom, cross = total(delta, delta), total(r_prev, delta)
                if denom != 0.0:
                    omega = min(2.0, max(-2.0, -omega * cross / denom))
            r_prev, x = r, field.axpy(omega, r, x)
        converged = norms[-1] <= config.tol * max(norms[0], RESIDUAL_FLOOR)
        records.append(IterationRecord(t, it, converged, 0, norms))
    return records, field.gather(x), negative_zero


@pytest.mark.parametrize("kind", [problems.LinearFixedPoint,
                                  NegativeZeroRows])
def test_aitken_matches_scalar_reduction_reference(kind):
    # one array reduction folds s0 + s1 + ..., one scalar reduction per
    # product folds 0.0 + s0 + s1 + ...; they can differ only if s0 is
    # -0.0, which a local dot product never returns
    linear = problems.make_problem("linear", seed=0, dim=8)
    problem = kind(linear.matrix, linear.offset)
    config = CouplerConfig(tol=1e-8)
    for counts in ([8], [3, 5], [0, 3, 5], [1] * 8):
        result = solve_coupled(problem, config, 5, accelerator="aitken",
                               counts=counts)
        per_rank = on_team(counts, lambda comm, layout: reference_aitken(
            problem, config, 5, comm, layout))
        records, solution, _ = per_rank[0]
        assert all(record.converged for record in records)
        assert result.records == records
        assert [r.residual_norms for r in result.records] \
            == [r.residual_norms for r in records]
        assert result.solution.tobytes() == solution.tobytes()
        if kind is NegativeZeroRows and counts == [3, 5]:
            # rank 0 owns exactly the -0.0 rows
            assert per_rank[0][2] > 0


@pytest.mark.parametrize("name", cp.ACCELERATORS)
def test_one_allreduce_per_iteration_on_a_spanning_team(name):
    problem = problems.make_problem("linear", seed=0, dim=8)
    config = CouplerConfig(histories=1, ranking=5, epsilon=1e-9, tol=1e-8)
    result, counters = counted_solve(problem, config, 5, accelerator=name,
                                     counts=[0, 3, 5])
    iterations = sum(r.iterations for r in result.records)
    if name == "ciqn":
        # the residual's one reduction carries the appends' projections
        # and their reflectors' products; one of the 25 appends declines
        # to build its reflector locally and reduces on its own
        assert iterations == 30
        expected = {"allreduce": 30 + 1, "broadcast": 0, "allgather": 31}
    else:
        expected = {"allreduce": iterations, "broadcast": 0,
                    "allgather": iterations + 1}
    assert counters == [expected] * 3


# part of the default linear sweep (CIQN_SEED 0), (histories, ranking,
# epsilon): cells with and without histories, and h 1, r 5, where appends
# decline the gate
GUARD_CELLS = [(0, 5, 0.1), (0, 10, 0.0), (1, 5, 0.0), (1, 5, 1e-3),
               (1, 5, 0.1), (2, 5, 0.1), (5, 10, 1e-5), (10, 10, 0.1)]


def test_default_sweep_cells_cost_one_reduction_and_one_gather_per_iter():
    # a ciqn iteration makes one reduction and the problem's gather; only
    # an append whose norm below the pivot cancels adds a reduction of
    # its own.  The totals are exact per seed
    spec = harness.SweepSpec()
    problem = problems.make_problem(spec.problem, seed=spec.seed)
    started = time.perf_counter()
    iterations, totals = 0, {"allreduce": 0, "broadcast": 0, "allgather": 0}
    for cell in GUARD_CELLS:
        result, (counters,) = counted_solve(problem, spec.config(*cell),
                                            spec.steps)
        assert not result.diverged
        iterations += sum(r.iterations for r in result.records)
        totals = {kind: totals[kind] + counters[kind] for kind in totals}
    elapsed = time.perf_counter() - started
    assert iterations == 2583
    assert totals == {"allreduce": 2583 + 94, "broadcast": 0,
                      "allgather": 2583 + len(GUARD_CELLS)}
    assert (totals["allreduce"] + totals["allgather"]) / iterations <= 2.05
    assert elapsed < 1.0, "took %.2f s, budget 1 s" % elapsed


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
    record = c.run_time_step(Constant([np.inf]))
    assert record.iterations == 1 and not record.converged
    assert record.residual_norms == [np.inf]
    np.testing.assert_array_equal(c.x.local, [0.0])


class NonFiniteOffOrigin(problems.LinearFixedPoint):
    """x -> 0.5 x + 1 in the rows where x is 0, and inf in all others.

    From x = 0 its first output is finite and every later one is not.
    """

    def __init__(self, dim):
        super().__init__(0.5 * np.eye(dim), np.ones(dim))

    def evaluate(self, x, time_index):
        out = super().evaluate(x, time_index)
        out.local[x.local != 0.0] = np.inf
        return out


@pytest.mark.parametrize("counts", [[3], [1, 0, 2]])
@pytest.mark.parametrize("name,last_finite", [
    ("ciqn", 1.1), ("aitken", 0.1), ("picard", 1.0)])
def test_non_finite_residual_ends_the_run_on_every_rank(counts, name,
                                                        last_finite):
    result = solve_coupled(NonFiniteOffOrigin(3), CouplerConfig(), 3,
                           accelerator=name, counts=counts)
    assert result.diverged and len(result.records) == 1
    record = result.records[0]
    assert record.iterations == 2 and not record.converged
    assert record.residual_norms[-1] == np.inf
    # the iterate the second evaluation was made at, from x = 0
    np.testing.assert_array_equal(result.solution, [last_finite] * 3)


# -- replicated control flow --------------------------------------------

def test_records_compare_without_residual_norms():
    a = IterationRecord(0, 3, True, 0, [1.0, 0.5, 0.0])
    b = IterationRecord(0, 3, True, 0, [1.0, 0.5, 1e-16])
    assert a == b
    c = IterationRecord(0, 4, True, 0, [1.0, 0.5, 0.0])
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
    assert not res.diverged
    assert [r.time_index for r in res.records] == [0, 1]
