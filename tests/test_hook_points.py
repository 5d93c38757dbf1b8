"""Names that code outside the package wraps by attribute lookup.

The benchmark's tracer (``bench/instrument.py``) replaces these module
and class attributes with timing wrappers.  A rename would make a traced
run fail or silently stop measuring, so the names are pinned here.
"""

from ciqn import cli, coupler, field, harness, qr, runtime


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


def test_qr_exposes_the_outcome_fields_and_errors():
    outcome = qr.FilterOutcome(kept=[0], dropped=[1], restarts=1)
    assert (outcome.kept, outcome.dropped, outcome.restarts) == ([0], [1], 1)
    assert "identity_flags" in qr.HouseholderStack.__dataclass_fields__
    assert issubclass(qr.EmptySecantSpaceError, RuntimeError)
    assert issubclass(qr.SingularUpperError, RuntimeError)
