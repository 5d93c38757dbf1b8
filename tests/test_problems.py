"""Model problems: oracles, amplification factors, partition independence."""

import numpy as np
import pytest

from ciqn import coupler, field, problems
from ciqn.field import PartitionLayout
from ciqn.problems import (AddedMassPiston, LinearFixedPoint,
                           TwoInterfaceBlock, make_problem)

from conftest import on_team, single_rank


def evaluate_dense(problem, x_full, time_index=0, counts=None):
    """Run evaluate on a team and return the gathered result per rank."""
    counts = counts or [problem.dimension]

    def body(comm, layout):
        x = field.distribute(layout, comm, x_full)
        return field.gather(problem.evaluate(x, time_index))

    return on_team(counts, body)


# -- LinearFixedPoint ---------------------------------------------------

def test_zero_matrix_maps_everything_to_offset():
    lin = LinearFixedPoint(np.zeros((3, 3)), [1.0, 2.0, 3.0])
    rng = np.random.default_rng(0)
    out = evaluate_dense(lin, rng.standard_normal(3))[0]
    np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])


def test_diagonal_fixed_point():
    lin = LinearFixedPoint([[0.5, 0.0], [0.0, 0.5]], [1.0, 1.0])
    np.testing.assert_allclose(lin.exact_solution(0), [2.0, 2.0], atol=1e-15)


def test_random_contraction_spectral_radius():
    lin = LinearFixedPoint.random_contraction(10, spectral_radius=0.7, seed=3)
    assert lin.spectral_radius == pytest.approx(0.7, rel=1e-12)


def test_linear_validation():
    with pytest.raises(ValueError):
        LinearFixedPoint(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        LinearFixedPoint(np.zeros((2, 2)), np.zeros(3))


def test_offset_drift_never_repeats_consecutively():
    lin = LinearFixedPoint.random_contraction(4, seed=0)
    ramps = [lin._ramp(t) for t in range(60)]
    assert ramps[0] == 1.0  # the first step sees the nominal offset
    assert all(a != b for a, b in zip(ramps, ramps[1:]))


def test_exact_solution_satisfies_fixed_point():
    lin = LinearFixedPoint.random_contraction(6, seed=5)
    for t in (0, 3):
        x_star = lin.exact_solution(t)
        out = evaluate_dense(lin, x_star, time_index=t)[0]
        np.testing.assert_allclose(out, x_star, atol=1e-12)


def test_non_finite_state_rejected():
    lin = LinearFixedPoint.random_contraction(3, seed=1)
    bad = np.array([1.0, np.nan, 0.0])
    with pytest.raises(ValueError):
        evaluate_dense(lin, bad)


# -- AddedMassPiston ----------------------------------------------------

def test_piston_validation():
    with pytest.raises(ValueError):
        AddedMassPiston(0)
    with pytest.raises(ValueError):
        AddedMassPiston(8, mass_ratio=0.0)
    with pytest.raises(ValueError):
        AddedMassPiston(8, neighbor_coupling=0.9)


def test_piston_rejects_unknown_relax_on():
    # checked at construction, not only on the make_problem path
    with pytest.raises(ValueError, match="relax_on"):
        AddedMassPiston(8, relax_on="pressure")


def test_piston_target_is_its_own_fixed_point():
    pis = AddedMassPiston(16)
    for t in (0, 2, 7):
        goal = pis.exact_solution(t)
        out = evaluate_dense(pis, goal, time_index=t)[0]
        np.testing.assert_array_equal(out, goal)


def test_piston_amplifies_by_the_mass_ratio():
    pis = AddedMassPiston(64, mass_ratio=5.0)
    cfg = coupler.CouplerConfig(max_iters=4, tol=1e-6)
    res = coupler.solve_coupled(pis, cfg, n_steps=1, accelerator="picard")
    rn = res.records[0].residual_norms
    for a, b in zip(rn, rn[1:]):
        assert b / a == pytest.approx(5.0, rel=0.01)


def test_piston_consecutive_targets_differ():
    pis = AddedMassPiston(8)
    targets = [pis.target(t) for t in range(80)]
    for a, b in zip(targets, targets[1:]):
        assert np.max(np.abs(a - b)) > 1e-3


def test_piston_force_mode_scales_target():
    disp = AddedMassPiston(8, stiffness=2.0, relax_on="displacement")
    force = AddedMassPiston(8, stiffness=2.0, relax_on="force")
    np.testing.assert_allclose(force.target(1), 2.0 * disp.target(1),
                               rtol=1e-15)


def test_piston_profile_is_a_loaded_patch():
    pis = AddedMassPiston(64)
    assert set(np.unique(pis.profile)) == {1.0, 1.5}
    assert np.count_nonzero(pis.profile == 1.5) == 8


# -- TwoInterfaceBlock --------------------------------------------------

def test_two_interface_shapes_and_rows():
    two = TwoInterfaceBlock.make(size_a=3, size_b=5, seed=1)
    assert two.dimension == 8
    rows_a, rows_b = two.interface_rows
    assert (rows_a.start, rows_a.stop) == (0, 3)
    assert (rows_b.start, rows_b.stop) == (3, 8)


def test_two_interface_decouples_without_cross_coupling():
    two = TwoInterfaceBlock.make(size_a=4, size_b=4, cross_coupling=0.0,
                                 seed=2)
    np.testing.assert_array_equal(two.matrix[:4, 4:], np.zeros((4, 4)))
    np.testing.assert_array_equal(two.matrix[4:, :4], np.zeros((4, 4)))


def test_two_interface_identical_halves():
    two = TwoInterfaceBlock.make(size_a=4, size_b=4, cross_coupling=0.0,
                                 seed=3, identical_halves=True)
    np.testing.assert_array_equal(two.matrix[:4, :4], two.matrix[4:, 4:])
    np.testing.assert_array_equal(two.offset[:4], two.offset[4:])
    with pytest.raises(ValueError):
        TwoInterfaceBlock.make(size_a=3, size_b=4, identical_halves=True)


def test_two_interface_exact_solution_and_residuals():
    two = TwoInterfaceBlock.make(size_a=5, size_b=4, seed=4)
    for t in (0, 2):
        x_star = two.exact_solution(t)
        ra, rb = two.surface_residuals(x_star, time_index=t)
        assert ra <= 1e-12 and rb <= 1e-12


# -- evaluation is partition independent --------------------------------

@pytest.mark.parametrize("make", [
    lambda: LinearFixedPoint.random_contraction(12, seed=8),
    lambda: AddedMassPiston(12),
    lambda: TwoInterfaceBlock.make(size_a=6, size_b=6, seed=8),
])
def test_evaluate_bitwise_partition_invariant(make):
    problem = make()
    rng = np.random.default_rng(42)
    x_full = rng.standard_normal(problem.dimension)
    reference = evaluate_dense(problem, x_full, time_index=1)[0]
    for counts in ([5, 4, 3], [1, 11]):
        for out in evaluate_dense(problem, x_full, time_index=1,
                                  counts=counts):
            np.testing.assert_array_equal(out, reference)


# -- factory ------------------------------------------------------------

def test_make_problem_dispatch():
    assert isinstance(make_problem("linear"), LinearFixedPoint)
    assert isinstance(make_problem("piston"), AddedMassPiston)
    assert isinstance(make_problem("two"), TwoInterfaceBlock)
    with pytest.raises(ValueError):
        make_problem("cavity")


def test_make_problem_forwards_parameters():
    lin = make_problem("linear", dim=5, spectral_radius=0.3, seed=9)
    assert lin.dimension == 5
    assert lin.spectral_radius == pytest.approx(0.3, rel=1e-12)
    pis = make_problem("piston", relax_on="force", dim=10, mass_ratio=3.0)
    assert pis.dimension == 10 and pis.mass_ratio == 3.0
    assert pis.relax_on == "force"
    two = make_problem("two", dim=10, cross_coupling=0.1)
    assert two.dimension == 10 and two.cross_coupling == 0.1


def test_make_problem_rejects_unknown_relax_on():
    for name in ("linear", "piston", "two"):
        with pytest.raises(ValueError):
            make_problem(name, relax_on="pressure")
