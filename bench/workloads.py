"""The benchmark's workloads, each driven through ciqn's public API.

Every workload is a batch closed loop: one caller runs a solve and waits
for it before starting the next.  ``setup`` builds the problem and the
row layout (what ``setup_s`` times); ``run(rep)`` performs repetition
``rep`` of a phase and returns the number of time steps that failed a
workload-level check (the per-solve checks live in
``instrument.Observer``).  A run times whole rounds of
``reps_per_round`` repetitions, so that every run of one seed covers the
same inputs.

The seed feeds ``SweepSpec.seed`` / ``make_problem`` for the linear and
two-surface problems.  The added-mass piston has no random input, so
its workload ignores the seed.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stdout
from dataclasses import replace

from ciqn import cli, coupler, harness
from ciqn.coupler import CouplerConfig
from ciqn.field import PartitionLayout, split_evenly
from ciqn.harness import SweepSpec
from ciqn.problems import make_problem


class SweepLinear:
    """``ciqn sweep`` on the default grid; repetition ``n`` sweeps problem
    ``n mod PROBLEMS``, and a round of ``PROBLEMS`` repetitions sweeps
    each problem once.

    The linear problem is a random matrix, and the work a sweep does
    varies with it (filter restarts by about 11% across seeds).  So a
    run sweeps ``PROBLEMS`` matrices, all derived from the workload
    seed, and its figures describe that set rather than a single draw.
    """

    ranks = 1
    seeded = True
    PROBLEMS = 8
    reps_per_round = PROBLEMS
    warm_up_steps = 8 * 50

    def __init__(self, seed: int, workdir: str):
        self.problem_seeds = [seed * self.PROBLEMS + i
                              for i in range(self.PROBLEMS)]
        spec = SweepSpec()
        self.csv_path = os.path.join(workdir, "sweep.csv")
        self.expected_steps = (len(spec.histories) * len(spec.ranking)
                               * len(spec.epsilon) * spec.steps)
        self._first_csv: dict = {}

    def setup(self) -> None:
        problem = make_problem("linear", seed=self.problem_seeds[0])
        PartitionLayout.from_counts(split_evenly(problem.dimension, 1))

    def _sweep(self, seed: int, *grid: str) -> bytes | None:
        os.environ["CIQN_SEED"] = str(seed)
        with redirect_stdout(io.StringIO()):
            status = cli.main(["sweep", *grid, "--out", self.csv_path])
        if status != 0:
            return None
        with open(self.csv_path, "rb") as fh:
            return fh.read()

    def warm_up(self) -> int:
        # eight cells of the first sweep, so the repeat check covers them
        csv = self._sweep(self.problem_seeds[0], "--histories", "0,10",
                          "--epsilon", "0,0.1")
        return 0 if csv is not None else self.warm_up_steps

    def run(self, rep: int, ranks: int | None = None) -> int:
        seed = self.problem_seeds[rep % self.PROBLEMS]
        csv = self._sweep(seed)
        # sweep CSVs are byte-identical from rerun to rerun
        if csv is None or csv != self._first_csv.setdefault(seed, csv):
            return self.expected_steps
        return 0


class Piston:
    """``solve_coupled`` on the added-mass piston with the ciqn update."""

    ranks = 1
    seeded = False
    reps_per_round = 1

    def __init__(self, dim: int, histories: int, ranking: int, steps: int):
        self.dim = dim
        self.config = CouplerConfig(epsilon=1e-9, histories=histories,
                                    ranking=ranking, tol=1e-8)
        self.expected_steps = self.warm_up_steps = steps
        self.problem = None

    def setup(self) -> None:
        self.problem = make_problem("piston", dim=self.dim)
        PartitionLayout.from_counts(split_evenly(self.dim, 1))

    def run(self, rep: int, ranks: int | None = None) -> int:
        coupler.solve_coupled(self.problem, self.config, self.expected_steps,
                              nranks=ranks or self.ranks)
        return 0

    def warm_up(self) -> int:
        return self.run(0)


class AitkenTwo:
    """``run_sweep`` with one cell: the two-surface problem with Aitken."""

    ranks = 2
    seeded = True
    reps_per_round = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = SweepSpec(histories=(0,), ranking=(5,), epsilon=(0.0,),
                              problem="two", accelerator="aitken", steps=50,
                              ranks=self.ranks, tol=1e-8, seed=seed,
                              problem_params=(("dim", 512),))
        self.expected_steps = self.warm_up_steps = self.spec.steps

    def setup(self) -> None:
        problem = make_problem("two", seed=self.seed, dim=512)
        PartitionLayout.from_counts(split_evenly(problem.dimension,
                                                 self.ranks))

    def run(self, rep: int, ranks: int | None = None) -> int:
        harness.run_sweep(replace(self.spec, ranks=ranks or self.ranks))
        return 0

    def warm_up(self) -> int:
        return self.run(0)


def make_workload(name: str, seed: int, workdir: str):
    """Build a workload by its name in ``BENCHMARK.json``, which also
    says why each one exists."""
    if name == "sweep-linear":
        return SweepLinear(seed, workdir)
    if name == "piston-wide":
        return Piston(dim=65536, histories=10, ranking=10, steps=20)
    if name == "aitken-two-2rank":
        return AitkenTwo(seed)
    raise ValueError("unknown workload %r" % name)
