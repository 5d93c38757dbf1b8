"""Sweep harness: statistics, CSV determinism, tables, comparisons."""

import re
from dataclasses import replace

import numpy as np
import pytest

from ciqn import harness
from ciqn.harness import (CellStats, SweepSpec, compare_accelerators, csv_row,
                          render_table, run_cell, run_sweep)

TINY_LINEAR = SweepSpec(problem="linear", steps=5, histories=(0, 1),
                        ranking=(5,), epsilon=(0.0, 1e-9),
                        problem_params=(("dim", 4),))


def test_population_statistics():
    mean, sd = harness._population_stats([13, 14, 15])
    assert mean == 14.0
    # divide-by-N convention
    assert sd == pytest.approx(0.816496580927726, rel=1e-12)


def test_sd_zero_for_constant_counts():
    mean, sd = harness._population_stats([7, 7, 7, 7])
    assert (mean, sd) == (7.0, 0.0)


def test_single_cell_linear():
    spec = SweepSpec(problem="linear", steps=50, problem_params=(("dim", 4),))
    cell = run_cell(spec, histories=0, ranking=5, epsilon=0.0)
    assert not cell.diverged
    assert cell.mean <= 6.0
    assert cell.sd >= 0.0


@pytest.mark.parametrize("bad", [
    {"steps": 0},
    {"ranks": 0},
    {"epsilon": (0.0, float("nan"))},
    {"tol": float("nan")},
    {"histories": (0, -1)},
    {"problem": "piston", "problem_params": (("relax_on", "force"),)},
    {"problem": "beam"},
    {"accelerator": "broyden"},
    {"histories": ()},
    {"ranking": ()},
    {"epsilon": ()},
    {"problem_params": (("dimm", 3),)},
])
def test_sweep_spec_rejects_bad_values_before_any_cell(bad, monkeypatch,
                                                       tmp_path):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "solve_coupled", no_cells)
    out = tmp_path / "grid.csv"
    with pytest.raises(ValueError):
        run_sweep(SweepSpec(**{"steps": 1, "out": str(out), **bad}))
    # not even the CSV header is written
    assert not out.exists()


@pytest.mark.parametrize("name,value", [
    ("histories", 3), ("epsilon", 0.1), ("ranking", "5"),
    ("histories", range(2)), ("epsilon", {0.1})])
def test_sweep_spec_rejects_a_grid_that_is_no_list(name, value):
    # from Python a bare value for a grid is a ValueError that names the
    # option, not the TypeError of iterating it
    with pytest.raises(ValueError, match="^%s must be a non-empty list, "
                       "got %s$" % (name, re.escape(repr(value)))):
        SweepSpec(**{name: value})


@pytest.mark.parametrize("problem,dim", [("piston", 0), ("linear", 0),
                                         ("two", 1)])
def test_sweep_spec_rejects_too_small_dims_before_any_cell(
        problem, dim, monkeypatch, tmp_path):
    def no_build(*args, **kwargs):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(harness, "make_problem", no_build)
    out = tmp_path / "grid.csv"
    with pytest.raises(ValueError, match="dim"):
        run_sweep(SweepSpec(problem=problem, problem_params=(("dim", dim),),
                            steps=1, out=str(out)))
    assert not out.exists()


@pytest.mark.parametrize("problem,param,value", [
    ("linear", "dim", 4.7), ("two", "dim", 12.9), ("piston", "dim", "16"),
    ("linear", "spectral_radius", float("nan")),
    ("two", "contraction", float("inf")),
    ("piston", "mass_ratio", float("inf")), ("linear", "dim", True),
    ("piston", "mass_ratio", True)])
def test_sweep_spec_rejects_inexact_parameters_before_any_cell(
        problem, param, value, monkeypatch, tmp_path):
    def no_build(*args, **kwargs):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(harness, "make_problem", no_build)
    out = tmp_path / "grid.csv"
    with pytest.raises(ValueError, match="^%r: expected" % param):
        run_sweep(SweepSpec(problem=problem, problem_params=((param, value),),
                            steps=1, out=str(out)))
    assert not out.exists()


@pytest.mark.parametrize("name,value", [
    ("steps", 2.5), ("histories", (1.5,)), ("ranking", (True,)),
    ("max_iters", True), ("tol", True), ("epsilon", ("0.1",)),
    ("seed", True), ("out", 3)])
def test_sweep_spec_rejects_inexact_options_before_any_cell(
        name, value, monkeypatch, tmp_path):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "solve_coupled", no_cells)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="^%r: expected" % name):
        run_sweep(SweepSpec(**{"steps": 1, "out": "grid.csv", name: value}))
    assert list(tmp_path.iterdir()) == []


def test_sweep_spec_keeps_exact_options_in_their_type():
    spec = SweepSpec(ranks=1.0, steps=np.int64(3), seed=2.0)
    assert (spec.ranks, spec.steps, spec.seed) == (1, 3, 2)
    assert {type(spec.ranks), type(spec.steps), type(spec.seed)} == {int}
    assert run_sweep(replace(TINY_LINEAR, ranks=1.0)) == run_sweep(TINY_LINEAR)


def test_sweep_spec_leaves_an_open_descriptor_alone(tmp_path):
    # open() takes an int as a file descriptor: an int ``out`` would send
    # the CSV to the caller's file, and the sweep would then close it
    with open(tmp_path / "mine.txt", "w") as mine:
        with pytest.raises(ValueError, match="^'out': expected a string"):
            run_sweep(SweepSpec(**{**TINY_LINEAR.__dict__,
                                   "out": mine.fileno()}))
        mine.write("still open\n")
    assert (tmp_path / "mine.txt").read_text() == "still open\n"


@pytest.mark.parametrize("param,value", [("mass_ratio", 0.0),
                                         ("neighbor_coupling", 0.7)])
def test_sweep_spec_rejects_piston_parameters_out_of_range_before_any_cell(
        param, value, monkeypatch, tmp_path):
    def no_build(*args, **kwargs):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(harness, "make_problem", no_build)
    out = tmp_path / "grid.csv"
    with pytest.raises(ValueError, match=param):
        run_sweep(SweepSpec(problem="piston", problem_params=((param, value),),
                            steps=1, out=str(out)))
    assert not out.exists()


def test_csv_row_formats():
    cell = CellStats(2, 5, 1e-9, 3.5, 0.25, False, 1)
    assert csv_row(cell) == "2,5,1e-09,3.500000,0.250000,False,1"
    failed = CellStats(0, 5, 0.0, None, None, True, 0)
    assert csv_row(failed) == "0,5,0,,,True,0"


def test_run_sweep_streams_identical_csv(tmp_path):
    streamed = tmp_path / "streamed.csv"
    spec = SweepSpec(**{**TINY_LINEAR.__dict__, "out": str(streamed)})
    cells = run_sweep(spec)
    rows = [harness.CSV_HEADER] + [csv_row(cell) for cell in cells]
    assert streamed.read_text() == "".join(row + "\n" for row in rows)
    lines = streamed.read_text().splitlines()
    assert lines[0] == harness.CSV_HEADER
    assert len(lines) == 1 + len(cells) == 5


def test_sweep_is_deterministic(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(SweepSpec(**{**TINY_LINEAR.__dict__, "out": str(first)}))
    run_sweep(SweepSpec(**{**TINY_LINEAR.__dict__, "out": str(second)}))
    assert first.read_bytes() == second.read_bytes()


def test_sub_grid_matches_full_grid():
    full = run_sweep(TINY_LINEAR)
    sub = run_sweep(SweepSpec(**{**TINY_LINEAR.__dict__,
                                 "histories": (1,), "epsilon": (1e-9,)}))
    want = [c for c in full if (c.histories, c.epsilon) == (1, 1e-9)]
    assert [csv_row(c) for c in sub] == [csv_row(c) for c in want]


def test_render_table_layout():
    cells = [
        CellStats(0, 5, 0.0, 11.0, 0.0, False, 0),
        CellStats(0, 5, 1e-3, None, None, True, 0),
        CellStats(1, 5, 0.0, 4.25, 0.5, False, 0),
        CellStats(1, 5, 1e-3, 4.0, 0.0, False, 2),
    ]
    table = render_table(cells)
    lines = table.splitlines()
    assert lines[0].startswith("histories ranking")
    assert "11.00" in lines[2] and lines[2].rstrip().endswith("F")
    assert "4.25" in lines[3] and "4.00" in lines[3]


def test_divergent_cell_marks_f():
    spec = SweepSpec(problem="piston", accelerator="picard", steps=2,
                     histories=(0,), ranking=(5,), epsilon=(0.0,),
                     max_iters=5)
    cells = run_sweep(spec)
    assert cells[0].diverged and cells[0].mean is None
    assert render_table(cells).splitlines()[-1].rstrip().endswith("F")


def test_history_reuse_with_filtering_is_not_always_more_robust():
    # the paper's "does not necessarily": on the default piston cells at
    # ranking 5 one reused step helps while the filter keeps the
    # columns (11.00 -> 4.14 mean iterations at epsilon 1e-7) and hurts
    # once it drops them (16.00 -> 18.68 at epsilon 0.1)
    spec = SweepSpec(problem="piston")

    def mean(histories, epsilon):
        return run_cell(spec, histories, 5, epsilon).mean

    assert mean(1, 1e-7) < mean(0, 1e-7) - 3
    assert mean(1, 0.1) > mean(0, 0.1) + 1


def test_compare_accelerators_on_added_mass():
    spec = SweepSpec(problem="piston", steps=20, histories=(2,),
                     ranking=(5,), epsilon=(1e-9,))
    report = compare_accelerators(spec, accelerators=("ciqn", "aitken"))
    assert report.divergence_count("ciqn") == 0
    assert report.divergence_count("aitken") == 0
    assert report.mean_iterations("ciqn") < report.mean_iterations("aitken")
    assert report.speedup("aitken", "ciqn") > 1.0
    rendered = report.render()
    assert "ciqn" in rendered and "aitken" in rendered


def test_compare_rejects_an_out_path_before_any_cell(monkeypatch,
                                                     tmp_path):
    # one CSV path cannot hold one sweep per accelerator
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "solve_coupled", no_cells)
    out = tmp_path / "grid.csv"
    with pytest.raises(ValueError, match="out"):
        compare_accelerators(SweepSpec(**{**TINY_LINEAR.__dict__,
                                          "out": str(out)}),
                             ("ciqn", "aitken"))
    assert not out.exists()


@pytest.mark.parametrize("names", [(), ("ciqn", "bogus"), ("",),
                                   ("aitken", "ciqn", "aitken"), 3, "ciqn",
                                   ("ciqn", 3), ["ciqn", ["aitken"]]])
def test_compare_rejects_accelerators_before_any_cell(names, monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "solve_coupled", no_cells)
    with pytest.raises(ValueError):
        compare_accelerators(TINY_LINEAR, names)


def test_speedup_none_when_everything_diverged():
    report = harness.ComparisonReport(("a", "b"))
    report.cells["a"] = [CellStats(0, 5, 0.0, None, None, True, 0)]
    report.cells["b"] = [CellStats(0, 5, 0.0, 3.0, 0.0, False, 0)]
    assert report.speedup("a", "b") is None
