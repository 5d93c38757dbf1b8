"""Interface coupling loop: quasi-Newton, Aitken, and plain Picard.

Each implicit time step iterates x -> H(x) until the interface residual
r = H(x) - x is small.  Three ways to turn x and H(x) into the next
iterate are provided:

* ``picard``     takes H(x) unchanged (diverges whenever the coupled
                 operator amplifies, which added-mass problems do);
* ``aitken``     relaxes by a dynamically adapted scalar;
* ``ciqn``       the compact interface quasi-Newton update.  Residual
                 and state increments collected during the step (and
                 optionally from past steps) span a secant space; the
                 least-squares combination of residual increments that
                 best cancels r, applied to the state increments on top
                 of H(x), is the next iterate.  The least-squares core
                 is the compact Householder factorization from
                 :mod:`ciqn.qr`; nothing square in the interface size is
                 ever formed.

Increment columns are ordered newest first.  Within a step at most
``ranking`` of the most recent iterate pairs are kept; with history
reuse (``histories`` = T > 0) the column blocks of the last T converged
steps are appended after the current step's block, and the combined
count is capped by the interface size, which no partitioning changes.
The history block is fixed within a step, so it is factored once per
step and each proposal adds only the current columns to it
(:class:`ciqn.qr.StepFactor`).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import field
from .field import InterfaceVector, PartitionLayout, split_evenly
# apply_qt has no caller here; the benchmark's tracer wraps it by name
from .qr import (EmptySecantSpaceError, SingularUpperError, StepFactor,
                 apply_qt, back_substitute, decompose)  # noqa: F401
from .runtime import RankComm, run_spmd

RESIDUAL_FLOOR = 1e-30

ACCELERATORS = ("ciqn", "aitken", "picard")


class StepDivergedError(RuntimeError):
    """Residual became non-finite; the time step cannot continue."""


class RankDisagreementError(RuntimeError):
    """Ranks of one run ended with different records or solutions."""


@dataclass(frozen=True)
class CouplerConfig:
    """Knobs of the coupling loop.

    epsilon    relative filter threshold for dependent columns (0 = off)
    histories  how many past converged steps contribute columns (T)
    ranking    per-step cap on stored iterate pairs
    omega0     startup relaxation factor, also Aitken's first factor
    tol        relative convergence: ||r|| <= tol * ||r0|| per step
    max_iters  operator evaluations allowed per step
    """

    epsilon: float = 0.0
    histories: int = 0
    ranking: int = 5
    omega0: float = 0.1
    tol: float = 1e-6
    max_iters: int = 50

    def __post_init__(self):
        # negated comparisons, so that NaN (which compares false) fails
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be >= 0")
        if not self.histories >= 0:
            raise ValueError("histories must be >= 0")
        if not self.ranking >= 1:
            raise ValueError("ranking must be >= 1")
        if not 0 < self.omega0 <= 1:
            raise ValueError("omega0 must be in (0, 1]")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class IterationRecord:
    """Outcome of one time step.

    residual_norms is diagnostic only and excluded from equality: the
    counts and flags must match across partitionings bit for bit, while
    norms may differ in the last ulp (reductions group differently).
    """

    time_index: int
    iterations: int
    converged: bool
    filtered_columns: int
    restarts: int
    residual_norms: list[float] = dataclass_field(default_factory=list,
                                                  compare=False)


class HistoryStore:
    """Column blocks of past converged steps, newest block first."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._blocks: deque = deque(maxlen=capacity)

    def push(self, v_cols: list[InterfaceVector],
             w_cols: list[InterfaceVector]) -> None:
        if self.capacity == 0:
            return
        self._blocks.appendleft((list(v_cols), list(w_cols)))

    def v_columns(self) -> list[InterfaceVector]:
        return [c for block in self._blocks for c in block[0]]

    def w_columns(self) -> list[InterfaceVector]:
        return [c for block in self._blocks for c in block[1]]

    def __len__(self) -> int:
        return len(self._blocks)


class PicardAccelerator:
    name = "picard"

    def start_step(self, coupler: "Coupler") -> None:
        pass

    def propose(self, coupler: "Coupler", x: InterfaceVector,
                x_tilde: InterfaceVector, r: InterfaceVector) -> InterfaceVector:
        return x_tilde.copy()

    def finish_step(self, coupler: "Coupler", converged: bool) -> None:
        pass


class AitkenAccelerator:
    """Dynamic scalar relaxation.

    The factor adapts from consecutive residuals,

        omega <- -omega * (r_prev . (r - r_prev)) / ||r - r_prev||^2,

    clamped to [-2, 2]; the first update of each step uses omega0.  When
    the residual did not change at all the previous factor is kept.
    """

    def __init__(self, omega0: float):
        self.omega0 = omega0
        self._omega: float | None = None
        self._prev_r: InterfaceVector | None = None

    def start_step(self, coupler: "Coupler") -> None:
        self._omega = None
        self._prev_r = None

    def propose(self, coupler, x, x_tilde, r) -> InterfaceVector:
        if self._prev_r is None:
            omega = self.omega0
        else:
            delta = field.axpy(-1.0, self._prev_r, r)
            denom = field.dot(delta, delta)
            if denom == 0.0:
                omega = self._omega
            else:
                omega = -self._omega * field.dot(self._prev_r, delta) / denom
                omega = min(2.0, max(-2.0, omega))
        self._omega = omega
        self._prev_r = r.copy()
        return field.axpy(omega, r, x)

    def finish_step(self, coupler: "Coupler", converged: bool) -> None:
        pass


class CiqnAccelerator:
    """Compact quasi-Newton update on the interface."""

    def __init__(self, config: CouplerConfig):
        self.config = config
        self.history = HistoryStore(config.histories)
        self._log: deque = deque(maxlen=config.ranking)
        self._step_v: list[InterfaceVector] = []
        self._step_w: list[InterfaceVector] = []
        self._staged: tuple | None = None
        self._factor: StepFactor | None = None

    def start_step(self, coupler: "Coupler") -> None:
        # roll the block staged by the previous converged step
        if self._staged is not None:
            self.history.push(*self._staged)
            self._staged = None
        self._log.clear()
        self._step_v = []
        self._step_w = []
        self._factor = None

    def propose(self, coupler, x, x_tilde, r) -> InterfaceVector:
        cfg = self.config
        v_cols = [field.axpy(-1.0, r, past_r) for past_r, _ in self._log]
        w_cols = [field.axpy(-1.0, x_tilde, past_xt)
                  for _, past_xt in self._log]
        self._log.appendleft((r.copy(), x_tilde.copy()))
        self._step_v = v_cols
        self._step_w = w_cols

        cap = coupler.layout.global_size
        if self._factor is None:
            # the history block is fixed for the step: factor it once
            history = self.history.v_columns()[:cap]
            self._factor = StepFactor(
                decompose(history, 0.0)[0] if history else None)
        current = v_cols[:cap]
        k_h = min(self._factor.columns, cap - len(current))
        if not current and not k_h:
            return field.axpy(cfg.omega0, r, x_tilde)
        all_w = w_cols[:len(current)] + self.history.w_columns()[:k_h]
        try:
            stack, outcome, head = self._factor.factor(current, r, k_h,
                                                       cfg.epsilon)
        except EmptySecantSpaceError as err:
            coupler._filtered += len(err.dropped)
            coupler._restarts += err.restarts
            return field.axpy(cfg.omega0, r, x_tilde)
        coupler._filtered += len(outcome.dropped)
        coupler._restarts += outcome.restarts
        try:
            lam = back_substitute(stack, -head, coupler.comm, coupler.layout)
        except SingularUpperError:
            # degenerate secant info at working precision: with the
            # filter off nothing removes the dead column, so take a
            # plain relaxed step instead of solving garbage
            return field.axpy(cfg.omega0, r, x_tilde)
        local = x_tilde.local.copy()
        for coef, w in zip(lam, (all_w[i] for i in outcome.kept)):
            local += coef * w.local
        return InterfaceVector(coupler.layout, coupler.comm, local)

    def finish_step(self, coupler: "Coupler", converged: bool) -> None:
        if converged and self._step_v:
            self._staged = (self._step_v, self._step_w)
        self._log.clear()


def make_accelerator(name: str, config: CouplerConfig):
    if name == "ciqn":
        return CiqnAccelerator(config)
    if name == "aitken":
        return AitkenAccelerator(config.omega0)
    if name == "picard":
        return PicardAccelerator()
    raise ValueError("unknown accelerator %r" % name)


class Coupler:
    """Drives the per-step fixed-point iteration for one rank."""

    def __init__(self, comm: RankComm, layout: PartitionLayout,
                 config: CouplerConfig, accelerator=None):
        self.comm = comm
        self.layout = layout
        self.config = config
        self.accelerator = accelerator or CiqnAccelerator(config)
        self.x = field.zeros(layout, comm)
        self.time_index = 0
        self.iterations = 0
        self.converged = False
        self.r_norm = float("nan")
        self.r0_norm: float | None = None
        self._filtered = 0
        self._restarts = 0
        self._residual_norms: list[float] = []

    def begin_time_step(self, x_initial: InterfaceVector | None = None) -> None:
        """Reset per-step state; the converged previous state carries over."""
        if x_initial is not None:
            self.x = x_initial.copy()
        self.accelerator.start_step(self)
        self.iterations = 0
        self.converged = False
        self.r_norm = float("nan")
        self.r0_norm = None
        self._filtered = 0
        self._restarts = 0
        self._residual_norms = []

    def check_convergence(self) -> bool:
        if self.r0_norm is None:
            return False
        return self.r_norm <= self.config.tol * max(self.r0_norm,
                                                    RESIDUAL_FLOOR)

    def advance(self, x_tilde: InterfaceVector) -> InterfaceVector:
        """Feed one operator output; returns the next iterate.

        Counts one iteration, updates the residual, and either declares
        convergence (next iterate is x_tilde itself) or asks the
        accelerator for the next iterate.  Non-finite residual raises
        StepDivergedError on every rank alike.
        """
        r = field.axpy(-1.0, self.x, x_tilde)
        rn = field.norm2(r)
        self.iterations += 1
        self._residual_norms.append(rn)
        if not np.isfinite(rn):
            raise StepDivergedError(
                "non-finite residual at step %d iteration %d"
                % (self.time_index, self.iterations))
        if self.r0_norm is None:
            self.r0_norm = rn
        self.r_norm = rn
        if self.check_convergence():
            self.converged = True
            self.x = x_tilde.copy()
            return self.x
        self.x = self.accelerator.propose(self, self.x, x_tilde, r)
        return self.x

    def run_time_step(self, problem) -> IterationRecord:
        """Evaluate/advance until convergence or the iteration cap."""
        self.begin_time_step()
        while self.iterations < self.config.max_iters:
            x_tilde = problem.evaluate(self.x, self.time_index)
            try:
                self.advance(x_tilde)
            except StepDivergedError:
                break
            if self.converged:
                break
        record = IterationRecord(self.time_index, self.iterations,
                                 self.converged, self._filtered,
                                 self._restarts, list(self._residual_norms))
        self.accelerator.finish_step(self, self.converged)
        self.time_index += 1
        return record

    def run(self, problem, n_steps: int) -> list[IterationRecord]:
        """Run consecutive steps; stops after the first failed step."""
        records = []
        for _ in range(n_steps):
            rec = self.run_time_step(problem)
            records.append(rec)
            if not rec.converged:
                break
        return records


@dataclass
class SimulationResult:
    records: list[IterationRecord]
    solution: np.ndarray
    diverged: bool
    accelerator: str
    wall_time: float


def solve_coupled(problem, config: CouplerConfig, n_steps: int,
                  accelerator: str = "ciqn",
                  counts=None, nranks: int = 1) -> SimulationResult:
    """Run a coupled simulation on a simulated rank team.

    ``counts`` fixes the row partitioning explicitly; otherwise the
    interface is split near-evenly over ``nranks``.  The problem object
    is shared read-only across rank threads, so it must not mutate
    during evaluation (the bundled model problems do not).
    """
    if counts is None:
        counts = split_evenly(problem.dimension, nranks)
    layout = PartitionLayout.from_counts(counts)
    started = time.perf_counter()

    def body(comm: RankComm):
        coupler = Coupler(comm, layout, config,
                          make_accelerator(accelerator, config))
        records = coupler.run(problem, n_steps)
        return records, field.gather(coupler.x)

    outputs = run_spmd(len(counts), body)
    records, solution = outputs[0]
    for rank, (other_records, other_solution) in enumerate(outputs[1:], 1):
        # replicated control flow must agree bitwise across ranks
        if other_records != records \
                or not np.array_equal(other_solution, solution):
            raise RankDisagreementError(
                "rank %d disagrees with rank 0 on the records or the "
                "solution" % rank)
    diverged = bool(records) and not records[-1].converged
    return SimulationResult(records, solution, diverged, accelerator,
                            time.perf_counter() - started)
