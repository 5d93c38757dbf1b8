"""Names that code outside the package wraps by attribute lookup.

The benchmark's tracer (``bench/instrument.py``) replaces these module
and class attributes with timing wrappers.  A rename would make a traced
run fail or silently stop measuring, so the names are pinned here.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from ciqn import cli, coupler, field, harness, qr, runtime
from ciqn.field import PartitionLayout, distribute
from ciqn.problems import make_problem

INSTRUMENT = Path(__file__).resolve().parents[1] / "bench" / "instrument.py"


def load_instrument():
    """``bench/instrument.py`` as a module, imported by path."""
    spec = importlib.util.spec_from_file_location("bench_instrument",
                                                  INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is made
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_coupler_exposes_the_wrapped_kernels():
    for name in ("decompose", "apply_qt", "back_substitute", "run_spmd",
                 "solve_coupled"):
        assert callable(getattr(coupler, name)), name
    assert coupler.decompose is qr.decompose
    assert coupler.apply_qt is qr.apply_qt
    assert coupler.back_substitute is qr.back_substitute


def test_other_wrapped_names_exist():
    for owner, name in ((coupler.Coupler, "run_time_step"),
                        (harness, "solve_coupled"), (harness, "run_cell"),
                        (harness, "make_problem"), (cli, "main"),
                        (field, "gather"),
                        (runtime.RankComm, "allreduce_sum"),
                        (runtime.RankComm, "allreduce_sum_array"),
                        (runtime.RankComm, "broadcast"),
                        (runtime.RankComm, "allgather")):
        assert callable(getattr(owner, name)), (owner, name)


def test_step_wrapper_reads_what_the_coupler_has():
    # the step timer calls ``original(coupler_self, problem)`` and times
    # rank 0 only, by ``coupler_self.comm.rank``
    params = inspect.signature(coupler.Coupler.run_time_step).parameters
    assert list(params) == ["self", "problem"]
    one = coupler.Coupler(runtime.RankComm(0, 1, None),
                          PartitionLayout.from_counts([2]),
                          coupler.CouplerConfig())
    assert one.comm.rank == 0


def test_qr_exposes_the_outcome_fields_and_errors():
    outcome = qr.FilterOutcome(kept=[0], dropped=[1])
    assert (outcome.kept, outcome.dropped, outcome.restarts) == ([0], [1], 1)
    assert "identity_flags" in qr.HouseholderStack.__dataclass_fields__
    assert issubclass(qr.EmptySecantSpaceError, RuntimeError)
    assert issubclass(qr.SingularUpperError, RuntimeError)


def test_accelerators_define_propose_in_the_coupler_module():
    # the tracer finds what to time as the coupler module's own classes
    # with ``propose`` in their class dict; an inherited or moved
    # ``propose`` would silently read as zero time
    config = coupler.CouplerConfig()
    for name in coupler.ACCELERATORS:
        cls = type(coupler.make_accelerator(name, config))
        assert cls.__module__ == coupler.__name__, name
        assert vars(coupler)[cls.__name__] is cls, name
        assert "propose" in vars(cls), name


def test_tracer_wrappers_run_the_kernels_they_wrap():
    # the pins above check names only; here the tracer's wrappers call
    # ``decompose``, ``apply_qt`` and ``back_substitute`` with the
    # signatures and stack fields they use, on a team whose pivot rows
    # span three ranks, and then trace one two-rank coupled step
    instrument = load_instrument()
    tracer = instrument.Tracer(run=0)
    rng = np.random.default_rng(3)
    dense, r_full = rng.standard_normal((9, 3)), rng.standard_normal(9)
    layout = PartitionLayout.from_counts([1, 2, 6])

    def body(comm):
        stack, outcome = coupler.decompose(
            [distribute(layout, comm, column) for column in dense.T], 1e-9)
        head = coupler.apply_qt(stack, distribute(layout, comm, r_full))
        coupler.back_substitute(stack, -head, comm, layout)
        return outcome.kept

    with instrument.Patches() as patches:
        tracer.install(patches)
        kept = coupler.run_spmd(3, body)
        result = coupler.solve_coupled(
            make_problem("linear", seed=0, dim=8),
            coupler.CouplerConfig(epsilon=1e-9, histories=1), 1, nranks=2)
    assert coupler.decompose is qr.decompose
    assert kept == [[0, 1, 2]] * 3 and result.records[0].converged
    tally = tracer.qr
    assert tally.decompose_calls == 1
    assert (tally.columns_offered, tally.columns_kept) == (3, 3)
    # rank 0 holds one row; apply_qt's share reads the identity flags
    assert tally.flops == instrument.decompose_work(1, [0, 1, 2], [])[0] \
        + instrument.apply_qt_work(1, 3)[0] > 0

    def on_rank(name):
        return {span[5] for span in tracer.spans if span[1] == name}

    for name in ("decompose", "apply_qt", "back_substitute"):
        assert on_rank(name) == {0, 1, 2}, name
    for name in ("solve_coupled", "run_time_step", "evaluate", "propose",
                 "gather"):
        assert on_rank(name) >= {0}, name
    assert on_rank("run_time_step") == {0, 1}
    # one reduction per column, none of which cancels below the gate, and
    # one that finishes the last reflector
    decompose_spans = {span[0] for span in tracer.spans
                       if span[1] == "decompose" and span[5] == 0}
    assert sum(entry["allreduce"][0]
               for (sid, rank), entry in tracer.collectives.items()
               if sid in decompose_spans and rank == 0) == 3 + 1


def test_every_traced_evaluate_gathers_under_its_own_span():
    # the solve's final gather alone gives the tracer a ``gather`` span,
    # so check that each evaluation's own gather is traced as its child:
    # one bound at import would escape the wrapper and zero its time
    instrument = load_instrument()
    tracer = instrument.Tracer(run=0)
    config = coupler.CouplerConfig(epsilon=1e-9, histories=1)
    with instrument.Patches() as patches:
        tracer.install(patches)
        for name, dim in (("linear", 8), ("piston", 8), ("two", 12)):
            coupler.solve_coupled(make_problem(name, seed=0, dim=dim),
                                  config, 2, nranks=2)
    gathers = {(span[4], span[5]) for span in tracer.spans
               if span[1] == "gather"}
    evaluations = [span for span in tracer.spans if span[1] == "evaluate"]
    assert {span[5] for span in evaluations} == {0, 1}
    for span in evaluations:
        assert (span[0], span[5]) in gathers, span
