"""Compact interface quasi-Newton coupling on a simulated rank team."""

from .coupler import (ACCELERATORS, AitkenAccelerator, CiqnAccelerator,
                      Coupler, CouplerConfig, HistoryStore, IterationRecord,
                      PicardAccelerator, RankDisagreementError,
                      SimulationResult, make_accelerator, solve_coupled)
from .field import (InterfaceVector, PartitionLayout, axpy, distribute, dots,
                    gather, split_evenly, zeros)
from .harness import (CellStats, ComparisonReport, SweepSpec,
                      compare_accelerators, render_table, run_sweep)
from .problems import (AddedMassPiston, LinearFixedPoint, TwoInterfaceBlock,
                       make_problem)
from .qr import (EmptySecantSpaceError, FilterOutcome, HouseholderStack,
                 SingularUpperError, apply_qt, back_substitute, decompose)
from .runtime import (CollectiveMismatchError, DeadlockError, RankComm,
                      run_spmd)

__version__ = "0.1.0"
