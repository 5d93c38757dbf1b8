"""Sweep harness: statistics, CSV determinism, tables, comparisons."""

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
    assert cell.steps_run == 50


@pytest.mark.parametrize("bad", [
    {"steps": 0},
    {"ranks": 0},
    {"epsilon": (0.0, float("nan"))},
    {"tol": float("nan")},
    {"histories": (0, -1)},
    {"relax_on": "pressure"},
    {"problem": "beam"},
    {"accelerator": "broyden"},
])
def test_sweep_spec_rejects_bad_values_before_any_cell(bad, monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "solve_coupled", no_cells)
    with pytest.raises(ValueError):
        run_sweep(SweepSpec(**bad))


def test_csv_row_formats():
    cell = CellStats(2, 5, 1e-9, 3.5, 0.25, False, 1, 1, 50, 0.1)
    assert csv_row(cell) == "2,5,1e-09,3.500000,0.250000,False,1"
    failed = CellStats(0, 5, 0.0, None, None, True, 0, 0, 3, 0.1)
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
        CellStats(0, 5, 0.0, 11.0, 0.0, False, 0, 0, 5, 0.1),
        CellStats(0, 5, 1e-3, None, None, True, 0, 0, 1, 0.1),
        CellStats(1, 5, 0.0, 4.25, 0.5, False, 0, 0, 5, 0.1),
        CellStats(1, 5, 1e-3, 4.0, 0.0, False, 2, 2, 5, 0.1),
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


def test_speedup_none_when_everything_diverged():
    report = harness.ComparisonReport(("a", "b"))
    report.cells["a"] = [CellStats(0, 5, 0.0, None, None, True, 0, 0, 1, 0.0)]
    report.cells["b"] = [CellStats(0, 5, 0.0, 3.0, 0.0, False, 0, 0, 5, 0.0)]
    assert report.speedup("a", "b") is None
