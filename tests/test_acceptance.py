"""End-to-end acceptance checks for the coupling library.

Each test exercises one advertised property at a pinned tolerance and
prints a single summary line (visible with ``pytest -s``), including the
wall time spent against the budget asserted for that check.
"""

import time
from contextlib import contextmanager

import numpy as np
from mpmath import mp

from ciqn.coupler import (ACCELERATORS, Coupler, CouplerConfig,
                          solve_coupled)
from ciqn.harness import SweepSpec, render_table, run_cell, run_sweep
from ciqn.problems import (PROBLEMS, LinearFixedPoint, TwoInterfaceBlock,
                           make_problem)
from ciqn.qr import SingularUpperError, apply_qt, back_substitute, decompose

from conftest import (compact_lstsq, counted_solve, dense_columns, on_team,
                      random_tall, reconstruct, single_rank, vector)


@contextmanager
def criterion(number: int, label: str, budget: float):
    started = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - started
        assert elapsed < budget, (
            "criterion %d took %.1f s, budget %g s" % (number, elapsed, budget))
    except BaseException:
        print("[acceptance] criterion %d (%s): FAIL" % (number, label))
        raise
    print("[acceptance] criterion %d (%s): PASS (%.2f s)"
          % (number, label, elapsed))


def lstsq_instances():
    """200 deterministic least-squares instances of varied size and
    conditioning (kappa up to 1e6)."""
    rng = np.random.default_rng(2024)
    sizes = (8, 20, 64)
    for i in range(200):
        p = sizes[i % 3]
        q = 1 + i % 8
        cond = 10.0 ** (6.0 * rng.random())
        yield i, random_tall(p, q, cond, rng), rng.standard_normal(p)


def oracle_coefficients(dense_v, r_full):
    """Dense normal-equations solution in 40-digit arithmetic."""
    with mp.workdps(40):
        vm = mp.matrix(dense_v.tolist())
        rm = mp.matrix([[float(x)] for x in r_full])
        lam = mp.lu_solve(vm.T * vm, -(vm.T * rm))
        return np.array([float(lam[i]) for i in range(lam.rows)])


def test_criterion_1_compact_solve_matches_dense_oracle():
    with criterion(1, "compact least squares vs dense oracle", 10.0):
        for i, dense, r_full in lstsq_instances():
            lam, _, _ = compact_lstsq(dense, r_full)
            ref = oracle_coefficients(dense, r_full)
            rel = np.linalg.norm(lam - ref) / np.linalg.norm(ref)
            assert rel <= 1e-8, "instance %d: relative error %.3e" % (i, rel)


def test_criterion_2_reflectors_reconstruct_input_columns():
    with criterion(2, "reflector storage reconstructs the columns", 10.0):
        for i, dense, r_full in lstsq_instances():
            _, stack, outcome = compact_lstsq(dense, r_full)
            assert outcome.kept == list(range(dense.shape[1]))
            rebuilt = reconstruct(stack)
            for j in range(dense.shape[1]):
                rel = (np.linalg.norm(dense[:, j] - rebuilt[j].local)
                       / np.linalg.norm(dense[:, j]))
                assert rel <= 1e-12, (
                    "instance %d column %d: relative error %.3e" % (i, j, rel))


def test_criterion_3_linear_problems_solved_in_p_plus_two_iterations():
    with criterion(3, "linear fixed points finish in p+2 iterations", 5.0):
        for p in (4, 8):
            problem = make_problem("linear", seed=0, dim=p)
            config = CouplerConfig(histories=0, ranking=p + 2, epsilon=0.0,
                                   tol=1e-12, max_iters=50)
            result = solve_coupled(problem, config, 3)
            assert not result.diverged
            for rec in result.records:
                assert rec.converged
                assert rec.iterations <= p + 2, (
                    "p=%d step %d used %d iterations"
                    % (p, rec.time_index, rec.iterations))
            err = np.max(np.abs(result.solution - problem.exact_solution(2)))
            assert err <= 1e-10, "p=%d solution error %.3e" % (p, err)


def test_criterion_4_quasi_newton_beats_aitken_where_picard_diverges():
    with criterion(4, "piston: picard diverges, quasi-Newton beats Aitken",
                   30.0):
        piston = make_problem("piston", seed=0, dim=64, mass_ratio=5.0)

        blown = solve_coupled(piston, CouplerConfig(max_iters=5), 1,
                              accelerator="picard")
        norms = blown.records[0].residual_norms
        assert blown.diverged
        assert norms[-1] / norms[0] >= 10.0, (
            "picard only grew %.1fx in %d evaluations"
            % (norms[-1] / norms[0], len(norms)))

        aitken = solve_coupled(piston, CouplerConfig(max_iters=50), 50,
                               accelerator="aitken")
        assert not aitken.diverged
        aitken_mean = np.mean([r.iterations for r in aitken.records])

        quasi = solve_coupled(piston, CouplerConfig(histories=2, ranking=5,
                                                    epsilon=1e-9,
                                                    max_iters=50), 50)
        assert not quasi.diverged
        quasi_mean = np.mean([r.iterations for r in quasi.records])
        assert quasi_mean <= 0.8 * aitken_mean, (
            "mean iterations %.2f vs Aitken %.2f" % (quasi_mean, aitken_mean))

        # the same divergence must render as an F cell in the sweep table
        spec = SweepSpec(problem="piston", accelerator="picard", steps=1,
                         max_iters=5,
                         problem_params=(("dim", 64), ("mass_ratio", 5.0)))
        cell = run_cell(spec, 2, 5, 0.0)
        assert cell.diverged and cell.mean is None
        assert " F" in render_table([cell])


def test_criterion_5_results_do_not_depend_on_the_partitioning():
    with criterion(5, "iteration records and solutions are rank-invariant",
                   30.0):
        cases = [
            (make_problem("linear", seed=0, dim=8),
             CouplerConfig(histories=1, ranking=5, epsilon=1e-9, tol=1e-8),
             5, ([8], [0, 8], [0, 0, 8, 0])),
            (make_problem("piston", seed=0, dim=64, mass_ratio=5.0),
             CouplerConfig(histories=2, ranking=5, epsilon=1e-9, tol=1e-10,
                           max_iters=100),
             3, ([64], [24, 40], [12, 20, 25, 7])),
        ]
        for problem, config, steps, partitionings in cases:
            base = solve_coupled(problem, config, steps,
                                 counts=partitionings[0])
            assert not base.diverged
            scale = np.linalg.norm(base.solution)
            for counts in partitionings[1:]:
                other = solve_coupled(problem, config, steps, counts=counts)
                assert other.records == base.records, (
                    "counts %r changed the iteration records" % (counts,))
                drift = np.linalg.norm(other.solution - base.solution) / scale
                assert drift <= 1e-12, (
                    "counts %r drifted the solution by %.3e" % (counts, drift))


def test_criterion_6_duplicated_column_filtered_or_reported_singular():
    with criterion(6, "duplicate columns: singular raise vs filter+restart",
                   5.0):
        # filter off: the duplicate survives to an exactly zero diagonal
        # and backsubstitution must refuse it on every rank
        def duplicate_solve(comm, layout):
            base = np.array([3.0, 1.0, 2.0])
            cols = dense_columns(layout, comm, np.column_stack([base, base]))
            stack, _ = decompose(cols, 0.0)
            head = apply_qt(stack, vector(layout, comm, [1.0, -1.0, 0.5]))
            try:
                back_substitute(stack, -head, comm, layout)
            except SingularUpperError:
                return True
            return False

        for counts in ([3], [2, 1]):
            assert all(on_team(counts, duplicate_solve)), (
                "no singular raise at counts %r" % (counts,))

        # filter on: the first step's history block, pushed again,
        # gives an exact duplicate pair; one column is dropped, one
        # restart counted, and the step still converges
        problem = LinearFixedPoint(np.zeros((2, 2)), np.array([1.0, 2.0]))
        layout, comm = single_rank(2)
        coupler = Coupler(comm, layout,
                          CouplerConfig(epsilon=1e-9, histories=2, ranking=5))
        first = coupler.run_time_step(problem)
        assert first.converged
        accel = coupler.accelerator
        accel.history.push(accel.history.columns(),
                           accel.history.w_columns())
        second = coupler.run_time_step(problem)
        assert second.converged
        assert second.restarts == 1, (
            "expected exactly one dropped pair, got %d" % second.restarts)


def test_criterion_7_two_surface_problem_converges_and_decouples():
    with criterion(7, "two coupled surfaces converge; decoupled halves match",
                   10.0):
        two = TwoInterfaceBlock.make(size_a=6, size_b=6, cross_coupling=0.2,
                                     seed=3)
        config = CouplerConfig(histories=2, ranking=5, epsilon=1e-9, tol=1e-8)
        result = solve_coupled(two, config, 4)
        assert not result.diverged
        res_a, res_b = two.surface_residuals(result.solution, time_index=3)
        assert res_a <= config.tol and res_b <= config.tol, (
            "surface residuals %.3e / %.3e above %g"
            % (res_a, res_b, config.tol))

        # no cross coupling + identical halves: the joint iteration must
        # cost exactly as many iterations as one half alone
        solo_config = CouplerConfig(histories=0, ranking=6, epsilon=0.0,
                                    tol=1e-10, max_iters=30)
        for seed in range(4):
            pair = TwoInterfaceBlock.make(size_a=6, size_b=6,
                                          cross_coupling=0.0, seed=seed,
                                          identical_halves=True)
            half = LinearFixedPoint(pair.matrix[:6, :6].copy(),
                                    pair.offset[:6].copy())
            joint = solve_coupled(pair, solo_config, 1)
            alone = solve_coupled(half, solo_config, 1)
            assert (joint.records[0].iterations
                    == alone.records[0].iterations), (
                "seed %d: joint %d iterations vs %d alone"
                % (seed, joint.records[0].iterations,
                   alone.records[0].iterations))


def test_criterion_8_sweep_is_deterministic_and_marks_failures(tmp_path):
    with criterion(8, "sweep reruns byte-identical; failures marked F", 60.0):
        paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
        for path in paths:
            run_sweep(SweepSpec(out=str(path)))
        assert paths[0].read_bytes() == paths[1].read_bytes()

        spec = SweepSpec(problem="piston", accelerator="picard", steps=1,
                         max_iters=5,
                         problem_params=(("dim", 64), ("mass_ratio", 5.0)))
        cell = run_cell(spec, 2, 5, 0.0)
        assert cell.diverged
        table = render_table([cell])
        assert " F" in table and "%.2f" % 0.0 not in table


def test_criterion_9_partition_invariance_when_columns_outnumber_rank_rows():
    with criterion(9, "records rank-invariant when the secant space spans "
                   "several ranks", 30.0):
        # h=10, r=10 offers up to 110 columns, more than any one rank of
        # these partitions owns; records must not depend on that
        cases = [
            (make_problem("piston", seed=0, dim=64),
             CouplerConfig(histories=10, ranking=10, epsilon=1e-9, tol=1e-8),
             20, ([64], [32, 32], [16] * 4, [8] * 8)),
            (make_problem("linear", seed=0, dim=8),
             CouplerConfig(histories=1, ranking=5, epsilon=1e-9, tol=1e-8),
             5, ([8], [1] * 8, [3, 5])),
        ]
        for problem, config, steps, partitionings in cases:
            base = solve_coupled(problem, config, steps,
                                 counts=partitionings[0])
            assert not base.diverged
            scale = np.linalg.norm(base.solution)
            for counts in partitionings[1:]:
                other = solve_coupled(problem, config, steps, counts=counts)
                assert other.records == base.records, (
                    "counts %r changed the iteration records" % (counts,))
                drift = np.linalg.norm(other.solution - base.solution) / scale
                assert drift <= config.tol, (
                    "counts %r drifted the solution by %.3e" % (counts, drift))


def random_config(rng):
    """A small valid run: problem, accelerator, config, partition, steps."""
    name = PROBLEMS[rng.integers(len(PROBLEMS))]
    dim = (2 * int(rng.integers(1, 13)) if name == "two"
           else int(rng.integers(1, 25)))
    problem = make_problem(name, seed=int(rng.integers(1000)), dim=dim)
    config = CouplerConfig(histories=int(rng.integers(4)),
                           ranking=int(rng.integers(1, 7)),
                           epsilon=float(rng.choice([0.0, 1e-9, 1e-3, 0.1])),
                           tol=1e-8)
    # cut points drawn with repeats, so some ranks may own no rows
    cuts = np.sort(rng.integers(0, dim + 1, int(rng.integers(4))))
    counts = [int(c) for c in np.diff([0, *cuts, dim])]
    accelerator = ACCELERATORS[rng.integers(len(ACCELERATORS))]
    return problem, config, counts, accelerator, int(rng.integers(1, 6))


def affine_jacobian(problem):
    """Every model problem is x -> M x + c; returns M, column by column."""
    layout, comm = single_rank(problem.dimension)

    def at(full):
        return problem.evaluate(vector(layout, comm, full), 0).local

    base = at(np.zeros(problem.dimension))
    return np.column_stack([at(e) - base for e in np.eye(problem.dimension)])


def test_criterion_10_random_configs_are_deterministic_and_accurate():
    with criterion(10, "random configs: reruns identical, one reduction per "
                   "scalar-update iteration and at most two per ciqn one, "
                   "converged steps at the oracle", 20.0):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            problem, config, counts, accel, steps = random_config(rng)
            case = "seed %d: %s %s %r %s" % (seed, type(problem).__name__,
                                             accel, counts, config)
            runs = [counted_solve(problem, config, steps, accelerator=accel,
                                  counts=counts) for _ in range(2)]
            (first, counters), (again, counters_again) = runs
            assert first.records == again.records, case
            assert [r.residual_norms for r in first.records] \
                == [r.residual_norms for r in again.records], case
            assert first.solution.tobytes() == again.solution.tobytes(), case
            assert counters == counters_again, case
            iterations = sum(r.iterations for r in first.records)
            if accel != "ciqn":
                assert counters == [{"allreduce": iterations, "broadcast": 0,
                                     "allgather": iterations + 1}] \
                    * len(counts), case
            else:
                # one reduction per iteration, plus at most one per
                # append, which an iteration that converges never makes
                converged = sum(r.converged for r in first.records)
                for counter in counters:
                    assert counter["allgather"] == iterations + 1, case
                    assert counter["broadcast"] == 0, case
                    assert iterations <= counter["allreduce"] \
                        <= 2 * iterations - converged, case
            last = first.records[-1]
            if last.converged:
                # x_tilde - x* = M (M - I)^-1 r for the affine map
                jac = affine_jacobian(problem)
                gain = np.linalg.norm(
                    jac @ np.linalg.inv(jac - np.eye(len(jac))), 2)
                exact = problem.exact_solution(last.time_index)
                error = np.linalg.norm(first.solution - exact)
                assert error <= gain * last.residual_norms[-1] * (1 + 1e-9) \
                    + 1e-11 * max(1.0, gain) * (1 + np.linalg.norm(exact)), \
                    case
