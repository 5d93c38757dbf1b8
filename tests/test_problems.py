"""Model problems: oracles, amplification factors, partition independence."""

import numpy as np
import pytest

from ciqn import coupler, field, problems
from ciqn.field import PartitionLayout, split_evenly
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


def test_drifts_are_the_inline_formulas_they_replace_bit_for_bit():
    # the linear ramp and the piston forcing share one sinusoid helper
    lin, piston = LinearFixedPoint.random_contraction(4, seed=0), \
        AddedMassPiston(8)
    for t in range(60):
        ramp = 1.0 + 0.3 * np.sin(2.0 * np.pi * 0.93 * t * 0.1)
        phase = 2.0 * np.pi * 0.93 * t * 0.1
        forcing = 0.5 + 0.4 * np.sin(phase)
        assert np.float64(lin._ramp(t)).tobytes() == ramp.tobytes()
        assert np.float64(piston.forcing(t)).tobytes() == forcing.tobytes()


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


@pytest.mark.parametrize("param,value", [
    ("dim", 0), ("mass_ratio", 0.0), ("mass_ratio", -2.0),
    ("mass_ratio", float("nan")), ("neighbor_coupling", -0.1),
    ("neighbor_coupling", 0.7), ("neighbor_coupling", float("nan"))])
def test_piston_ranges_are_checked_alike_without_a_build(param, value):
    with pytest.raises(ValueError, match=param):
        problems.check_problem("piston", {param: value})
    with pytest.raises(ValueError, match=param):
        AddedMassPiston(**{"dim": 8, param: value})
    for coupling in (0.0, 0.5):
        problems.check_problem("piston", {"neighbor_coupling": coupling})


@pytest.mark.parametrize("dim", [1, 2, 3, 65, 1000])
def test_piston_map_is_the_roll_formula_bit_for_bit(dim):
    # evaluate shifts its neighbours by hand into reused buffers; on one
    # rank and on two it gives the bits of the np.roll formula, op for op,
    # and leaves the iterate as it found it
    pis = AddedMassPiston(dim)
    x_full = np.random.default_rng(dim).standard_normal(dim)
    c = pis.neighbor_coupling

    def body(comm, layout, time_index):
        x = field.distribute(layout, comm, x_full)
        before = x.local.copy()
        out = field.gather(pis.evaluate(x, time_index))
        return out.tobytes(), x.local.tobytes() == before.tobytes()

    for time_index in (0, 3, 17):
        goal = pis.target(time_index)
        dev = x_full - goal
        expected = goal - pis.mass_ratio * (
            (1.0 - c) * dev + 0.5 * c * (np.roll(dev, 1) + np.roll(dev, -1)))
        for counts in ([dim], split_evenly(dim, 2)):
            assert on_team(counts, lambda comm, layout: body(
                comm, layout, time_index)) \
                == [(expected.tobytes(), True)] * len(counts)


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


def two_surface_recipe(size_a, size_b, seed, contraction=0.6,
                       cross_coupling=0.2, identical_halves=False):
    """The two-surface matrix and offset, drawn step by step from one
    stream: A's block then A's offset, then B's, then AB, then BA."""
    rng = np.random.default_rng(seed)

    def surface(n):
        block = rng.standard_normal((n, n))
        block *= contraction / np.max(np.abs(np.linalg.eigvals(block)))
        return block, rng.standard_normal(n)

    def coupling(shape):
        m = rng.standard_normal(shape)
        return cross_coupling * (m / np.linalg.norm(m, 2))

    block_a, offset_a = surface(size_a)
    block_b, offset_b = (block_a, offset_a) if identical_halves \
        else surface(size_b)
    ab = coupling((size_a, size_b))
    ba = coupling((size_b, size_a))
    return (np.vstack([np.hstack([block_a, ab]), np.hstack([ba, block_b])]),
            np.concatenate([offset_a, offset_b]))


@pytest.mark.parametrize("kwargs", [
    {"size_a": 6, "size_b": 6, "seed": 8},
    {"size_a": 5, "size_b": 4, "seed": 4},
    {"size_a": 6, "size_b": 6, "seed": 2, "cross_coupling": 0.0,
     "identical_halves": True},
])
def test_two_interface_draws_are_pinned(kwargs):
    two = TwoInterfaceBlock.make(**kwargs)
    matrix, offset = two_surface_recipe(**kwargs)
    assert two.matrix.tobytes() == matrix.tobytes()
    assert two.offset.tobytes() == offset.tobytes()
    assert (two.size_a, two.size_b) == (kwargs["size_a"], kwargs["size_b"])
    assert two.cross_coupling == kwargs.get("cross_coupling", 0.2)


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
    pis = make_problem("piston", dim=10, mass_ratio=3.0)
    assert pis.dimension == 10 and pis.mass_ratio == 3.0
    two = make_problem("two", dim=10, cross_coupling=0.1)
    assert two.dimension == 10 and two.cross_coupling == 0.1


@pytest.mark.parametrize("name,params", [
    ("linear", {"dimm": 3}), ("two", {"dimm": 4}),
    ("linear", {"dim": 4, "mass_ratio": 2.0}),
    ("two", {"spectral_radius": 0.3}),
    ("piston", {"relax_on": "force"}),
    ("piston", {"dim": 8, "stiffness": 2.0}),
    ("piston", {"time_step": 0.1}), ("piston", {"forcing_offset": 0.5}),
    ("piston", {"forcing_amplitude": 0.4}),
    ("piston", {"dim": 8, "forcing_frequency": 0.93})])
def test_make_problem_rejects_unknown_parameters(name, params):
    unknown = sorted(set(params) - {"dim"})
    with pytest.raises(ValueError, match=", ".join(unknown)):
        make_problem(name, **params)


def test_piston_takes_exactly_its_three_parameters():
    assert set(problems.PARAMETERS["piston"]) == {"dim", "mass_ratio",
                                                  "neighbor_coupling"}


# a value its default's type would change: a fractional or string int,
# a non-finite float
INEXACT = [("linear", "dim", 8.5), ("linear", "dim", "16"),
           ("two", "dim", 12.9), ("piston", "dim", 8.5),
           ("piston", "dim", "16")] + [
    (name, param, value) for name, param in (
        ("linear", "spectral_radius"), ("two", "contraction"),
        ("piston", "mass_ratio"))
    for value in (float("nan"), float("inf"), -float("inf"))]


@pytest.mark.parametrize("name,param,value", INEXACT)
def test_parameters_must_keep_their_exact_value(name, param, value):
    with pytest.raises(ValueError, match="%s needs .*%s" % (name, param)):
        problems.check_problem(name, {param: value})
    with pytest.raises(ValueError, match="%s needs .*%s" % (name, param)):
        make_problem(name, **{param: value})
    if name == "piston":
        with pytest.raises(ValueError, match=param):
            AddedMassPiston(**{"dim": 8, param: value})


def test_exact_values_are_kept_in_their_defaults_type():
    args = problems.check_problem("linear", {"dim": 8.0, "spectral_radius": 1})
    assert args == {"dim": 8, "spectral_radius": 1.0}
    assert type(args["dim"]) is int and type(args["spectral_radius"]) is float
    piston = AddedMassPiston(np.int64(12), mass_ratio=3)
    assert type(piston.dim) is int and type(piston.mass_ratio) is float
    assert make_problem("two", dim=12.0).dimension == 12


def test_make_problem_rejects_unknown_relax_on():
    for name in ("linear", "piston", "two"):
        with pytest.raises(ValueError):
            make_problem(name, relax_on="pressure")


@pytest.mark.parametrize("dim", [2, 3, 13])
def test_make_problem_two_builds_odd_dims_whole(dim):
    two = make_problem("two", dim=dim)
    assert two.dimension == dim
    assert (two.size_a, two.size_b) == (dim // 2, dim - dim // 2)


@pytest.mark.parametrize("name,dim", [("linear", 0), ("piston", 0),
                                      ("piston", -3), ("two", 1),
                                      ("two", 0)])
def test_make_problem_rejects_too_small_dims(name, dim):
    with pytest.raises(ValueError, match="dim"):
        problems.check_problem(name, {"dim": dim})
    with pytest.raises(ValueError, match="dim"):
        make_problem(name, dim=dim)
