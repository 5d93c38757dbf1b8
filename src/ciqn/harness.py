"""Convergence-study harness: parameter sweeps, tables, comparisons.

A sweep runs one simulation per (histories, ranking, epsilon) grid cell
and reports the mean and standard deviation of the per-step iteration
counts.  Cells whose simulation failed (non-finite residual, or a step
that hit the iteration cap above tolerance) are marked diverged and
render as "F" in tables.

Everything is deterministic for a fixed spec: problems are rebuilt from
the seed for every cell, and CSV output is written with fixed formats so
repeated runs produce byte-identical files.  Rows are written and
flushed as each cell finishes, so partial output survives interruption.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field as dataclass_field, replace

from .coupler import ACCELERATORS, CouplerConfig, solve_coupled
from .problems import PROBLEMS, RELAX_ON, make_problem

CSV_HEADER = "histories,ranking,epsilon,mean,sd,diverged,restarts"


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one sweep."""

    histories: tuple[int, ...] = (0, 1, 2, 5, 10)
    ranking: tuple[int, ...] = (5, 10)
    epsilon: tuple[float, ...] = (0.0, 1e-9, 1e-7, 1e-5, 1e-3, 0.1)
    problem: str = "linear"
    accelerator: str = "ciqn"
    relax_on: str = "displacement"
    steps: int = 50
    ranks: int = 1
    tol: float = 1e-6
    omega0: float = 0.1
    max_iters: int = 50
    seed: int = 0
    problem_params: tuple = ()
    out: str | None = None

    def __post_init__(self):
        """Reject, before any cell runs, what some cell would reject."""
        if not min(self.steps, self.ranks) >= 1:
            raise ValueError("steps and ranks must be >= 1")
        for name, allowed in (("accelerator", ACCELERATORS),
                              ("problem", PROBLEMS), ("relax_on", RELAX_ON)):
            if getattr(self, name) not in allowed:
                raise ValueError("%s must be one of %s"
                                 % (name, ", ".join(allowed)))
        for cell in itertools.product(self.histories, self.ranking,
                                      self.epsilon):
            self.config(*cell)

    def config(self, histories: int, ranking: int,
               epsilon: float) -> CouplerConfig:
        """The coupling configuration of one grid cell."""
        return CouplerConfig(epsilon=epsilon, histories=histories,
                             ranking=ranking, omega0=self.omega0,
                             tol=self.tol, max_iters=self.max_iters)


@dataclass
class CellStats:
    """Aggregate outcome of one grid cell."""

    histories: int
    ranking: int
    epsilon: float
    mean: float | None
    sd: float | None
    diverged: bool
    restarts: int
    filtered_columns: int
    steps_run: int
    wall_time: float


def _population_stats(values) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def run_cell(spec: SweepSpec, histories: int, ranking: int,
             epsilon: float) -> CellStats:
    """Run one simulation for one grid cell of the sweep."""
    problem = make_problem(spec.problem, relax_on=spec.relax_on,
                           seed=spec.seed, **dict(spec.problem_params))
    result = solve_coupled(problem, spec.config(histories, ranking, epsilon),
                           spec.steps,
                           accelerator=spec.accelerator, nranks=spec.ranks)
    iterations = [r.iterations for r in result.records]
    if result.diverged:
        mean, sd = None, None
    else:
        mean, sd = _population_stats(iterations)
    return CellStats(histories, ranking, epsilon, mean, sd, result.diverged,
                     sum(r.restarts for r in result.records),
                     sum(r.filtered_columns for r in result.records),
                     len(result.records), result.wall_time)


def csv_row(cell: CellStats) -> str:
    mean = "" if cell.mean is None else "%.6f" % cell.mean
    sd = "" if cell.sd is None else "%.6f" % cell.sd
    return "%d,%d,%g,%s,%s,%s,%d" % (cell.histories, cell.ranking,
                                     cell.epsilon, mean, sd,
                                     cell.diverged, cell.restarts)


def run_sweep(spec: SweepSpec) -> list[CellStats]:
    """Run the whole grid; streams CSV rows to ``spec.out`` if set."""
    out = open(spec.out, "w") if spec.out else None
    cells = []
    try:
        if out:
            out.write(CSV_HEADER + "\n")
            out.flush()
        for histories in spec.histories:
            for ranking in spec.ranking:
                for epsilon in spec.epsilon:
                    cell = run_cell(spec, histories, ranking, epsilon)
                    cells.append(cell)
                    if out:
                        out.write(csv_row(cell) + "\n")
                        out.flush()
    finally:
        if out:
            out.close()
    return cells


def render_table(cells: list[CellStats]) -> str:
    """Grid of mean iteration counts, epsilon across, 'F' for failures."""
    eps_values = sorted({c.epsilon for c in cells})
    row_keys = []
    for c in cells:
        key = (c.histories, c.ranking)
        if key not in row_keys:
            row_keys.append(key)
    by_key = {(c.histories, c.ranking, c.epsilon): c for c in cells}
    width = 9
    header = "histories ranking" + "".join(
        ("%g" % e).rjust(width) for e in eps_values)
    lines = [header, "-" * len(header)]
    for histories, ranking in row_keys:
        line = "%9d %7d" % (histories, ranking)
        for eps in eps_values:
            cell = by_key.get((histories, ranking, eps))
            if cell is None:
                line += "".rjust(width)
            elif cell.diverged:
                line += "F".rjust(width)
            else:
                line += ("%.2f" % cell.mean).rjust(width)
        lines.append(line)
    return "\n".join(lines) + "\n"


@dataclass
class ComparisonReport:
    """Side-by-side sweep results for several accelerators."""

    accelerators: tuple[str, ...]
    cells: dict = dataclass_field(default_factory=dict)
    wall_times: dict = dataclass_field(default_factory=dict)

    def mean_iterations(self, name: str) -> float | None:
        means = [c.mean for c in self.cells[name] if c.mean is not None]
        return sum(means) / len(means) if means else None

    def divergence_count(self, name: str) -> int:
        return sum(1 for c in self.cells[name] if c.diverged)

    def speedup(self, baseline: str, candidate: str) -> float | None:
        """Iteration-count ratio baseline/candidate; None if either diverged everywhere."""
        base = self.mean_iterations(baseline)
        cand = self.mean_iterations(candidate)
        if base is None or cand is None or cand == 0:
            return None
        return base / cand

    def render(self) -> str:
        width = 12
        lines = ["%-10s%s%s%s%s" % ("", "mean iters".rjust(width),
                                    "sd".rjust(width),
                                    "diverged".rjust(width),
                                    "wall s".rjust(width))]
        for name in self.accelerators:
            mean = self.mean_iterations(name)
            sds = [c.sd for c in self.cells[name] if c.sd is not None]
            sd = sum(sds) / len(sds) if sds else None
            lines.append("%-10s%s%s%s%s" % (
                name,
                ("-" if mean is None else "%.2f" % mean).rjust(width),
                ("-" if sd is None else "%.2f" % sd).rjust(width),
                ("%d/%d" % (self.divergence_count(name),
                            len(self.cells[name]))).rjust(width),
                ("%.2f" % self.wall_times[name]).rjust(width)))
        first = self.accelerators[0]
        for other in self.accelerators[1:]:
            ratio = self.speedup(other, first)
            if ratio is not None:
                wall = self.wall_times[other] / max(self.wall_times[first],
                                                    1e-12)
                lines.append("%s vs %s: %.2fx fewer iterations, %.2fx wall"
                             % (first, other, ratio, wall))
        return "\n".join(lines) + "\n"


def compare_accelerators(spec: SweepSpec,
                         accelerators=("ciqn", "aitken")) -> ComparisonReport:
    """Run the same sweep grid once per accelerator."""
    report = ComparisonReport(tuple(accelerators))
    for name in accelerators:
        started = time.perf_counter()
        cells = run_sweep(replace(spec, accelerator=name, out=None))
        report.cells[name] = cells
        report.wall_times[name] = time.perf_counter() - started
    return report
