"""Shared test helpers for the simulated-rank modules."""

import os
from importlib.metadata import version

import numpy as np
import pytest

from ciqn import coupler
from ciqn.field import InterfaceVector, PartitionLayout, distribute, dots
from ciqn.qr import apply_qt, back_substitute, decompose
from ciqn.runtime import RankComm, run_spmd


def pytest_report_header(config):
    # records are bitwise only at a fixed BLAS thread count, and the
    # tests that pin literal records run at whatever count is set
    return "numpy %s, scipy %s, OPENBLAS_NUM_THREADS=%s" % (
        np.__version__, version("scipy"),
        os.environ.get("OPENBLAS_NUM_THREADS", "default"))


def single_rank(p: int):
    """Layout and communicator for a one-rank team of p rows."""
    return PartitionLayout.from_counts([p]), RankComm(0, 1, None)


def on_team(counts, body, timeout: float = 30.0):
    """Run ``body(comm, layout)`` on each rank; per-rank results in rank order."""
    layout = PartitionLayout.from_counts(counts)
    return run_spmd(len(counts), lambda comm: body(comm, layout),
                    timeout=timeout)


def counted_solve(*args, **kwargs):
    """``solve_coupled`` plus each rank's collective counters at exit."""
    real_run_spmd = coupler.run_spmd
    counters = {}

    def run_counted(nranks, body):
        def counted(comm):
            out = body(comm)
            counters[comm.rank] = dict(comm.counters)
            return out
        return real_run_spmd(nranks, counted)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coupler, "run_spmd", run_counted)
        result = coupler.solve_coupled(*args, **kwargs)
    return result, [counters[rank] for rank in sorted(counters)]


def append(factor, r) -> int:
    """``factor.append`` with r's shares reduced with r . r, as the
    coupler and ``decompose`` do."""
    return factor.append(r, dots([(r, r)], factor.shares(r)))


def vector(layout, comm, full) -> InterfaceVector:
    """Distributed vector from a dense array."""
    return distribute(layout, comm, np.asarray(full, dtype=float))


def dense_columns(layout, comm, dense):
    """Column InterfaceVectors from a p-by-q array."""
    return [vector(layout, comm, dense[:, j]) for j in range(dense.shape[1])]


def compact_lstsq(dense_v, r_full, epsilon=0.0):
    """Single-rank run of the whole pipeline; returns (lam, stack, outcome)."""
    layout, comm = single_rank(dense_v.shape[0])
    cols = dense_columns(layout, comm, dense_v)
    stack, outcome = decompose(cols, epsilon)
    head = apply_qt(stack, vector(layout, comm, r_full))
    lam = back_substitute(stack, -head, comm, layout)
    return lam, stack, outcome


def finished_t(stack):
    """The stack's T, with its newest reflector u's column if
    ``StepFactor.finish`` has not written it yet (T one column short),
    computed eagerly with one reduction: tau = 2 / (u . u), 0 for u = 0,
    and the column -tau T Y^T u.  Unlike ``finish`` it leaves alpha as
    r . r gave it, so the factor is rebuilt as it stands."""
    t, y = stack.t, np.array([v.local for v in stack.reflectors])
    if len(t) == len(y):
        return t
    lag = stack.reflectors[0].comm.allreduce_sum_array(y @ y[-1])
    tau = 2.0 / lag[-1] if lag[-1] else 0.0
    done = np.zeros((len(y), len(y)))
    done[:-1, :-1], done[:-1, -1], done[-1, -1] = t, -tau * (t @ lag[:-1]), tau
    return done


def reconstruct(stack):
    """The kept columns Q [C; 0], C = rotation^T U, as distributed
    vectors: [C; 0] - Y T (Y_head C), each rank its own rows, with no
    collective once T is finished (``finished_t``).  The verification
    aid: they should match the kept input columns to round-off."""
    layout, comm = stack.reflectors[0].layout, stack.reflectors[0].comm
    start, count = layout.starts[comm.rank], layout.counts[comm.rank]
    columns = stack.rotation.T @ stack.upper
    padded = np.zeros((layout.global_size, stack.q))
    padded[:len(columns)] = columns
    y_local = np.array([y.local for y in stack.reflectors]).T
    block = padded[start:start + count] \
        - y_local @ (finished_t(stack) @ (stack.y_head @ columns))
    return [InterfaceVector(layout, comm, block[:, j].copy())
            for j in range(stack.q)]


def random_tall(p, q, cond, rng):
    """p-by-q matrix with prescribed condition number (singular 1..1/cond)."""
    basis, _ = np.linalg.qr(rng.standard_normal((p, q)))
    rot, _ = np.linalg.qr(rng.standard_normal((q, q)))
    sv = cond ** -np.linspace(0.0, 1.0, q)
    return basis @ (sv[:, None] * rot)
