"""Interface coupling loop: quasi-Newton, Aitken, and plain Picard.

Each implicit time step iterates x -> H(x) until the interface residual
r = H(x) - x is small.  Three ways to turn x and H(x) into the next
iterate are provided:

* ``picard``     takes H(x) unchanged (diverges whenever the coupled
                 operator amplifies, which added-mass problems do);
* ``aitken``     relaxes by a dynamically adapted scalar;
* ``ciqn``       the compact interface quasi-Newton update.  Residual
                 and state increments span a secant space; the
                 least-squares combination of residual increments that
                 best cancels r, applied to the state increments on top
                 of H(x), is the next iterate.

Increment columns are ordered newest first.  Within a step at most
``ranking`` of the most recent iterate pairs are kept; with history
reuse (``histories`` = T > 0) the column blocks of the last T converged
steps follow the current step's block, and the combined count is capped
by the interface size, which no partitioning changes.  Every residual
increment is the difference of two raw residuals, so the solve keeps
one compact Householder factor of the residuals (:mod:`ciqn.qr`;
nothing square in the interface size is formed): each proposal appends
its own, a history block is the pairs of the factor's columns it
differences, and a step start compacts the factor to the live blocks.

Every accelerator has the same four methods, and none of them sees the
:class:`Coupler`: ``start_step()`` at the start of a time step,
``shares(r)`` and ``propose(x, x_tilde, r, sums)`` for each iterate
(the layout and communicator travel with ``r``), and
``finish_step(converged, sums)`` at the end of the step, which returns
how many secant columns the filter dropped during it.  Picard and Aitken
drop none; ciqn pushes a converged step's columns into its history.

The whole loop of a time step is :meth:`Coupler.run_time_step`: evaluate
H(x), form r, make one reduction, test, update.  The reduction sums r . r
with this rank's addends from ``shares(r)`` (Aitken's local delta . delta
and r_prev . delta once it has an r_prev, ciqn's projection of r through
its factor and its newest reflector's products), and ``propose`` gets
those sums in order, r . r first.  ``finish_step`` gets the last ones,
which no ``propose`` took if the step converged: ciqn finishes its
newest reflector from them, with no reduction of its own.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field as dataclass_field, fields

import numpy as np

from . import field
from .field import InterfaceVector, PartitionLayout, split_evenly
# decompose and apply_qt have no caller here; the benchmark's tracer
# wraps them by name
from .qr import (EmptySecantSpaceError, SingularUpperError, StepFactor,
                 apply_qt, back_substitute, decompose)  # noqa: F401
from .runtime import RankComm, run_spmd

RESIDUAL_FLOOR = 1e-30

ACCELERATORS = ("ciqn", "aitken", "picard")


class RankDisagreementError(RuntimeError):
    """Ranks of one run ended with different records or solutions."""


_KINDS = {int: "an integer", float: "a number", str: "a string"}


def exact_value(name: str, value, default):
    """``value`` in the type of ``default``, which must hold it exactly:
    an integer for an int (8 or 8.0, but not 8.5, True or "8"), a finite
    number for a float, a string for a str.  Anything else raises a
    ValueError that names the option and the value."""
    kind = type(default)
    try:
        if not isinstance(value, (bool, np.bool_)) and kind(value) == value \
                and (kind is not float or math.isfinite(value)):
            return kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError("%r: expected %s, got %r" % (name, _KINDS[kind], value))


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
        for f in fields(self):
            object.__setattr__(self, f.name, exact_value(
                f.name, getattr(self, f.name), f.default))
        for name, ok, bound in (
                ("epsilon", self.epsilon >= 0, ">= 0"),
                ("histories", self.histories >= 0, ">= 0"),
                ("ranking", self.ranking >= 1, ">= 1"),
                ("omega0", 0 < self.omega0 <= 1, "in (0, 1]"),
                ("tol", self.tol > 0, "> 0"),
                ("max_iters", self.max_iters >= 1, ">= 1")):
            if not ok:
                raise ValueError("%s must be %s, got %r"
                                 % (name, bound, getattr(self, name)))


@dataclass
class IterationRecord:
    """Outcome of one time step.

    restarts counts the secant columns the filter dropped during the
    step (one restart per drop).
    residual_norms is diagnostic only and excluded from equality: the
    counts and flags must match across partitionings bit for bit, while
    norms may differ in the last ulp (reductions group differently).
    """

    time_index: int
    iterations: int
    converged: bool
    restarts: int
    residual_norms: list[float] = dataclass_field(default_factory=list,
                                                  compare=False)


class HistoryStore:
    """Column blocks of past converged steps, newest block first: each
    secant column as a pair (i, j) of columns of the solve's factor,
    F_i - F_j, with its state increment."""

    def __init__(self, capacity: int):
        self._blocks: deque = deque(maxlen=capacity)

    def push(self, columns: list[tuple[int, int]],
             w_cols: list[InterfaceVector]) -> None:
        self._blocks.appendleft((list(columns), list(w_cols)))

    def columns(self) -> list[tuple[int, int]]:
        return [c for block in self._blocks for c in block[0]]

    def w_columns(self) -> list[InterfaceVector]:
        return [c for block in self._blocks for c in block[1]]

    def renumber(self, new: dict) -> None:
        """Name every pair as ``new`` does, after the factor compacted."""
        for pairs, _ in self._blocks:
            pairs[:] = [new[pair] for pair in pairs]


class PicardAccelerator:
    """Plain fixed-point iteration: the next iterate is H(x) itself."""

    def start_step(self) -> None:
        pass

    def shares(self, r: InterfaceVector) -> list:
        return []

    def propose(self, x: InterfaceVector, x_tilde: InterfaceVector,
                r: InterfaceVector, sums: list[float]) -> InterfaceVector:
        return x_tilde.copy()

    def finish_step(self, converged: bool, sums: list[float]) -> int:
        return 0


class AitkenAccelerator:
    """Dynamic scalar relaxation.

    The factor adapts from consecutive residuals,

        omega <- -omega * (r_prev . (r - r_prev)) / ||r - r_prev||^2,

    clamped to [-2, 2]; the first update of each step uses omega0.  When
    the residual did not change at all the previous factor is kept.
    """

    def __init__(self, omega0: float):
        self.omega0 = omega0
        self.start_step()

    def start_step(self) -> None:
        self._omega: float | None = None
        self._prev_r: InterfaceVector | None = None

    def shares(self, r) -> list:
        if self._prev_r is None:
            return []
        delta = r.local - self._prev_r.local
        return [float(delta @ delta), float(self._prev_r.local @ delta)]

    def propose(self, x, x_tilde, r, sums) -> InterfaceVector:
        # sums: r . r, delta . delta, r_prev . delta (the last two need r_prev)
        omega = self.omega0 if self._prev_r is None else self._omega
        if len(sums) > 1 and sums[1] != 0.0:
            omega = min(2.0, max(-2.0, -self._omega * sums[2] / sums[1]))
        self._omega = omega
        self._prev_r = r.copy()
        return field.axpy(omega, r, x)

    def finish_step(self, converged: bool, sums: list[float]) -> int:
        return 0


class CiqnAccelerator:
    """Compact quasi-Newton update on the interface."""

    def __init__(self, config: CouplerConfig):
        self.config = config
        self.history = HistoryStore(config.histories)
        # one per solve: <= 2 reflectors per live pair, plus a step's appends
        self._factor = StepFactor(2 * config.histories * config.ranking
                                  + config.max_iters)
        # (factor column of r, x_tilde) of this step, newest first: the
        # newest iterate and the ``ranking`` before it
        self._log: deque = deque(maxlen=config.ranking + 1)
        self.start_step()

    def start_step(self) -> None:
        self._log.clear()
        self._dropped = 0
        self.history.renumber(self._factor.compact(self.history.columns()))

    def shares(self, r) -> list:
        return self._factor.shares(r)

    def propose(self, x, x_tilde, r, sums) -> InterfaceVector:
        cfg = self.config
        cap = r.layout.global_size
        k = self._factor.append(r, sums)
        self._log.appendleft((k, x_tilde))
        # columns r_i - r and the history's, newest first, capped by the
        # interface size
        current = min(len(self._log) - 1, cap)
        columns = [(self._log[i][0], k) for i in range(1, current + 1)] \
            + self.history.columns()[:cap - current]
        try:
            stack, outcome, head = self._factor.factor(columns, cfg.epsilon)
        except EmptySecantSpaceError as err:
            self._dropped += len(err.dropped)
            return field.axpy(cfg.omega0, r, x_tilde)
        self._dropped += len(outcome.dropped)
        try:
            lam = back_substitute(stack, -head, r.comm, r.layout)
        except SingularUpperError:
            # degenerate secant info at working precision: with the
            # filter off nothing removes the dead column, so take a
            # plain relaxed step instead of solving garbage
            return field.axpy(cfg.omega0, r, x_tilde)
        local, work = x_tilde.local.copy(), self._factor.work
        history_w = self.history.w_columns()
        for coef, i in zip(lam, outcome.kept):
            w = history_w[i - current].local if i >= current else np.subtract(
                self._log[i + 1][1].local, x_tilde.local, out=work)
            local += np.multiply(coef, w, out=work)
        return InterfaceVector(r.layout, r.comm, local)

    def finish_step(self, converged: bool, sums: list[float]) -> int:
        if converged:  # no append took the converging iteration's sums
            self._factor.finish(np.asarray(sums))
        if converged and len(self._log) > 1:
            (k, x_tilde), *past = self._log
            self.history.push([(i, k) for i, _ in past], [InterfaceVector(
                w.layout, w.comm, w.local - x_tilde.local) for _, w in past])
        return self._dropped


def make_accelerator(name: str, config: CouplerConfig):
    if name == "ciqn":
        return CiqnAccelerator(config)
    if name == "aitken":
        return AitkenAccelerator(config.omega0)
    if name == "picard":
        return PicardAccelerator()
    raise ValueError("unknown accelerator %r" % name)


class Coupler:
    """Runs the coupling loop of one time step at a time on one rank."""

    def __init__(self, comm: RankComm, layout: PartitionLayout,
                 config: CouplerConfig, accelerator=None):
        self.comm = comm
        self.config = config
        self.accelerator = accelerator or CiqnAccelerator(config)
        self.x = field.zeros(layout, comm)
        self.time_index = 0

    def run_time_step(self, problem) -> IterationRecord:
        """Evaluate and update until convergence, divergence or the cap.

        Each iteration evaluates H(x), makes one reduction for ||r|| and
        the accelerator's shares, and either converges (x takes H(x)
        itself) or asks the accelerator for the next iterate.  A
        non-finite norm ends the step unconverged on every rank alike,
        with x left at the last finite iterate.
        """
        accel, cfg = self.accelerator, self.config
        accel.start_step()
        norms, converged = [], False
        while len(norms) < cfg.max_iters:
            x_tilde = problem.evaluate(self.x, self.time_index)
            r = InterfaceVector(x_tilde.layout, self.comm,
                                x_tilde.local - self.x.local)
            sums = field.dots([(r, r)], accel.shares(r))
            norms.append(float(np.sqrt(sums[0])))
            if not np.isfinite(norms[-1]):
                break
            if norms[-1] <= cfg.tol * max(norms[0], RESIDUAL_FLOOR):
                converged = True
                self.x = x_tilde.copy()
                break
            self.x = accel.propose(self.x, x_tilde, r, sums)
            # a dead r alive through the next evaluate fragments the heap
            del r  # and peak RSS creeps up from solve to solve
        record = IterationRecord(self.time_index, len(norms), converged,
                                 accel.finish_step(converged, sums), norms)
        self.time_index += 1
        return record


@dataclass
class SimulationResult:
    records: list[IterationRecord]
    solution: np.ndarray
    diverged: bool


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

    def body(comm: RankComm):
        coupler = Coupler(comm, layout, config,
                          make_accelerator(accelerator, config))
        records = []
        for _ in range(n_steps):
            records.append(coupler.run_time_step(problem))
            if not records[-1].converged:
                break  # a failed step ends the run
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
    return SimulationResult(records, solution, diverged)
