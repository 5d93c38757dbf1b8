"""Coupled model problems with known behavior.

These stand in for the expensive field solvers of a real partitioned
simulation.  Each exposes

    evaluate(x, time_index) -> InterfaceVector

mapping the current interface iterate through "both solvers" at once,
plus an exact solution oracle where one exists.  Evaluation gathers the
full iterate (one collective), applies the dense map to the whole field
identically on every rank, and hands each rank its slice -- so results
are bitwise independent of the partitioning.

Problem objects are immutable after construction and safe to share
read-only across rank threads.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import field
from .coupler import exact_value
from .field import InterfaceVector


def _drift(time_index: int, offset: float, amplitude: float) -> float:
    """offset at step 0, then a sinusoid whose frequency is no round
    multiple of the sampling: consecutive values never coincide, or a
    step starts at its own solution and a relative residual tolerance
    becomes unreachable."""
    return offset + amplitude * np.sin(2.0 * np.pi * 0.93 * time_index * 0.1)


def _map_gathered(x: InterfaceVector, fn) -> InterfaceVector:
    """Gather x, reject it if non-finite, map it whole, distribute."""
    full = field.gather(x)
    if not np.all(np.isfinite(full)):
        raise ValueError("non-finite interface state")
    return field.distribute(x.layout, x.comm, fn(full))


class LinearFixedPoint:
    """x -> A x + s_t b with spectral radius of A below one.

    The fixed point solves (I - A) x = s_t b, which doubles as the
    oracle; the scalar ramp s_t varies the offset per step (s_0 = 1) so
    multi-step runs have work to do at every step.  A quasi-Newton
    scheme with enough independent secant columns solves each step
    exactly: after the interface dimension is spanned, the update is
    the Newton step of an affine map.
    """

    def __init__(self, matrix: np.ndarray, offset: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        offset = np.asarray(offset, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        if offset.shape != (matrix.shape[0],):
            raise ValueError("offset size mismatch")
        self.matrix, self.offset = matrix, offset

    @functools.cached_property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.matrix))))

    @classmethod
    def random_contraction(cls, dim: int, spectral_radius: float = 0.5,
                           seed=0) -> "LinearFixedPoint":
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((dim, dim))
        rho = np.max(np.abs(np.linalg.eigvals(matrix)))
        matrix *= spectral_radius / rho
        offset = rng.standard_normal(dim)
        return cls(matrix, offset)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def _ramp(self, time_index: int) -> float:
        return _drift(time_index, 1.0, 0.3)

    def evaluate(self, x: InterfaceVector, time_index: int) -> InterfaceVector:
        ramp = self._ramp(time_index)
        return _map_gathered(
            x, lambda full: self.matrix @ full + ramp * self.offset)

    def exact_solution(self, time_index: int) -> np.ndarray:
        eye = np.eye(self.dimension)
        return self._ramp(time_index) * np.linalg.solve(eye - self.matrix,
                                                        self.offset)


@dataclasses.dataclass(eq=False)
class AddedMassPiston:
    """Added-mass dominated piston column, linearized about its target.

    The coupled operator amplifies deviations from the per-step target
    by the mass ratio mu through a symmetric neighbor-smoothing stencil
    with unit spectral radius, so plain Picard iteration diverges by a
    factor of about mu per sweep -- the classic incompressible
    added-mass instability.  The per-step target is a loaded patch
    scaled by a slowly varying forcing.
    """

    dim: int = 64
    mass_ratio: float = 5.0
    neighbor_coupling: float = 0.3

    def __post_init__(self):
        vars(self).update(check_problem("piston", vars(self)))
        # a loaded patch, not a smooth profile: its sharp edges excite
        # stencil modes across the whole spectrum, which is what makes
        # scalar relaxation work for its living here
        cells, dim = np.arange(self.dim), self.dim
        self.profile = 1.0 + 0.5 * ((cells >= dim // 4)
                                    & (cells < dim // 4 + max(1, dim // 8)))

    @property
    def dimension(self) -> int:
        return self.dim

    def forcing(self, time_index: int) -> float:
        return _drift(time_index, 0.5, 0.4)

    def target(self, time_index: int) -> np.ndarray:
        return self.forcing(time_index) * self.profile

    def evaluate(self, x: InterfaceVector, time_index: int) -> InterfaceVector:
        return _map_gathered(x, lambda full: self._respond(full, time_index))

    def _respond(self, full: np.ndarray, time_index: int) -> np.ndarray:
        """goal - mu ((1 - c) dev + c/2 (roll(dev, 1) + roll(dev, -1))) with
        dev = full - goal, op for op, over full and two more buffers."""
        c, n, goal = self.neighbor_coupling, self.dim, self.target(time_index)
        dev = np.subtract(full, goal, out=full)
        near = np.empty(n)
        np.add(dev[:-2], dev[2:], out=near[1:-1])
        near[0], near[-1] = dev[-1] + dev[1 % n], dev[n - 2] + dev[0]
        near *= 0.5 * c
        dev *= 1.0 - c
        dev += near
        dev *= self.mass_ratio
        return np.subtract(goal, dev, out=dev)

    def exact_solution(self, time_index: int) -> np.ndarray:
        return self.target(time_index)


class TwoInterfaceBlock(LinearFixedPoint):
    """Two coupling surfaces sharing one interface vector.

    Rows [0, size_a) belong to surface A, the rest to surface B.  Each
    surface has its own contractive block map; ``cross_coupling``
    scales the off-diagonal blocks tying them together.  With
    cross_coupling = 0 the surfaces are fully independent, and a run on
    either block alone reproduces the joint run's behavior on that
    block.
    """

    @classmethod
    def make(cls, size_a: int, size_b: int, contraction: float = 0.6,
             cross_coupling: float = 0.2, seed: int = 0,
             identical_halves: bool = False) -> "TwoInterfaceBlock":
        """Draw A's block and offset, then B's (B is A with
        ``identical_halves``), then the AB and BA couplings, one stream."""
        if identical_halves and size_b != size_a:
            raise ValueError("identical halves need equal sizes")
        rng = np.random.default_rng(seed)
        a = LinearFixedPoint.random_contraction(size_a, contraction, rng)
        b = a if identical_halves else \
            LinearFixedPoint.random_contraction(size_b, contraction, rng)

        def coupling(shape):
            m = rng.standard_normal(shape)
            return cross_coupling * (m / np.linalg.norm(m, 2))

        problem = cls(np.block([[a.matrix, coupling((size_a, size_b))],
                                [coupling((size_b, size_a)), b.matrix]]),
                      np.concatenate([a.offset, b.offset]))
        problem.size_a, problem.size_b = size_a, size_b
        problem.cross_coupling = cross_coupling
        return problem

    @property
    def interface_rows(self) -> tuple[slice, slice]:
        return slice(0, self.size_a), slice(self.size_a, self.dimension)

    def surface_residuals(self, x_full: np.ndarray,
                          time_index: int) -> tuple[float, float]:
        """Euclidean residual of each surface's rows at the iterate."""
        r = self.matrix @ x_full + self._ramp(time_index) * self.offset - x_full
        rows_a, rows_b = self.interface_rows
        return float(np.linalg.norm(r[rows_a])), float(np.linalg.norm(r[rows_b]))


# the parameters ``make_problem`` takes for each problem, besides seed,
# with their defaults
PARAMETERS = {
    "linear": {"dim": 8, "spectral_radius": 0.5},
    "piston": {f.name: f.default for f in dataclasses.fields(AddedMassPiston)},
    "two": {"dim": 12, "contraction": 0.6, "cross_coupling": 0.2},
}
PROBLEMS = tuple(PARAMETERS)


def check_problem(name: str, params) -> dict:
    """ValueError unless ``make_problem`` takes these; builds nothing.
    Returns every parameter as :func:`~ciqn.coupler.exact_value` takes
    it: in its default's type, which must hold the value exactly."""
    if name not in PROBLEMS:
        raise ValueError("unknown problem %r" % name)
    unknown = set(params) - set(PARAMETERS[name])
    if unknown:
        raise ValueError("unknown %s parameters: %s"
                         % (name, ", ".join(sorted(unknown))))
    args = {key: exact_value(key, params.get(key, default), default)
            for key, default in PARAMETERS[name].items()}
    least = 2 if name == "two" else 1  # "two" needs a row per surface
    if args["dim"] < least:
        raise ValueError("%s needs dim >= %d, got %d"
                         % (name, least, args["dim"]))
    if name == "piston" and not args["mass_ratio"] > 0:
        raise ValueError("piston needs mass_ratio > 0, got %r"
                         % args["mass_ratio"])
    if name == "piston" and not 0 <= args["neighbor_coupling"] <= 0.5:
        raise ValueError("piston needs neighbor_coupling in [0, 0.5], got %r"
                         % args["neighbor_coupling"])
    return args


def make_problem(name: str, seed: int = 0, **params):
    """Build a model problem by short name (one of PROBLEMS)."""
    args = check_problem(name, params)
    if name == "piston":
        return AddedMassPiston(**args)
    if name == "linear":
        return LinearFixedPoint.random_contraction(seed=seed, **args)
    dim = args.pop("dim")
    return TwoInterfaceBlock.make(size_a=dim // 2, size_b=dim - dim // 2,
                                  seed=seed, **args)
