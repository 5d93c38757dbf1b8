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

import functools

import numpy as np

from . import field
from .field import InterfaceVector


PROBLEMS = ("linear", "piston", "two")
RELAX_ON = ("displacement", "force")


def _finite_or_raise(full: np.ndarray) -> None:
    if not np.all(np.isfinite(full)):
        raise ValueError("non-finite interface state")


class LinearFixedPoint:
    """x -> A x + s_t b with spectral radius of A below one.

    The fixed point solves (I - A) x = s_t b, which doubles as the
    oracle; the scalar ramp s_t varies the offset per step (s_0 = 1) so
    multi-step runs have work to do at every step.  A quasi-Newton
    scheme with enough independent secant columns solves each step
    exactly: after the interface dimension is spanned, the update is
    the Newton step of an affine map.
    """

    def __init__(self, matrix: np.ndarray, offset: np.ndarray,
                 drift_amplitude: float = 0.3,
                 drift_frequency: float = 0.93):
        matrix = np.asarray(matrix, dtype=np.float64)
        offset = np.asarray(offset, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        if offset.shape != (matrix.shape[0],):
            raise ValueError("offset size mismatch")
        self.matrix = matrix
        self.offset = offset
        self.drift_amplitude = drift_amplitude
        self.drift_frequency = drift_frequency

    @functools.cached_property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.matrix))))

    @classmethod
    def random_contraction(cls, dim: int, spectral_radius: float = 0.5,
                           seed: int = 0) -> "LinearFixedPoint":
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
        # exactly 1 at step 0, and never the same twice in a row: a step
        # that starts at its own solution cannot meet a relative tolerance
        return 1.0 + self.drift_amplitude * np.sin(
            2.0 * np.pi * self.drift_frequency * time_index * 0.1)

    def evaluate(self, x: InterfaceVector, time_index: int) -> InterfaceVector:
        full = field.gather(x)
        _finite_or_raise(full)
        out = self.matrix @ full + self._ramp(time_index) * self.offset
        return field.distribute(x.layout, x.comm, out)

    def exact_solution(self, time_index: int) -> np.ndarray:
        eye = np.eye(self.dimension)
        return self._ramp(time_index) * np.linalg.solve(eye - self.matrix,
                                                        self.offset)


class AddedMassPiston:
    """Added-mass dominated piston column, linearized about its target.

    The coupled operator amplifies deviations from the per-step target
    by the mass ratio mu through a symmetric neighbor-smoothing stencil
    with unit spectral radius, so plain Picard iteration diverges by a
    factor of about mu per sweep -- the classic incompressible
    added-mass instability.  The per-step target is a loaded patch
    scaled by a slowly varying forcing; with ``relax_on="force"`` the
    iterated trace is the force (target scaled by the stiffness),
    otherwise the displacement.

    The default forcing frequency is deliberately not a round multiple
    of the sampling rate: consecutive targets must never coincide, or a
    step starts at its own solution and a relative residual tolerance
    becomes unreachable.
    """

    def __init__(self, dim: int, mass_ratio: float = 5.0,
                 stiffness: float = 1.0, time_step: float = 0.1,
                 neighbor_coupling: float = 0.3,
                 relax_on: str = "displacement",
                 forcing_offset: float = 0.5,
                 forcing_amplitude: float = 0.4,
                 forcing_frequency: float = 0.93):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if mass_ratio <= 0:
            raise ValueError("mass_ratio must be > 0")
        if not 0 <= neighbor_coupling <= 0.5:
            raise ValueError("neighbor_coupling must be in [0, 0.5]")
        if relax_on not in RELAX_ON:
            raise ValueError("relax_on must be 'displacement' or 'force'")
        self.dim = dim
        self.mass_ratio = mass_ratio
        self.stiffness = stiffness
        self.time_step = time_step
        self.neighbor_coupling = neighbor_coupling
        self.relax_on = relax_on
        self.forcing_offset = forcing_offset
        self.forcing_amplitude = forcing_amplitude
        self.forcing_frequency = forcing_frequency
        # a loaded patch, not a smooth profile: its sharp edges excite
        # stencil modes across the whole spectrum, which is what makes
        # scalar relaxation work for its living here
        cells = np.arange(dim)
        self.profile = 1.0 + 0.5 * ((cells >= dim // 4)
                                    & (cells < dim // 4 + max(1, dim // 8)))

    @property
    def dimension(self) -> int:
        return self.dim

    def forcing(self, time_index: int) -> float:
        phase = 2.0 * np.pi * self.forcing_frequency \
            * time_index * self.time_step
        return self.forcing_offset + self.forcing_amplitude * np.sin(phase)

    def target(self, time_index: int) -> np.ndarray:
        scale = self.stiffness if self.relax_on == "force" else 1.0
        return scale * self.forcing(time_index) * self.profile

    def _smooth(self, dev: np.ndarray) -> np.ndarray:
        c = self.neighbor_coupling
        return (1.0 - c) * dev + 0.5 * c * (np.roll(dev, 1)
                                            + np.roll(dev, -1))

    def evaluate(self, x: InterfaceVector, time_index: int) -> InterfaceVector:
        full = field.gather(x)
        _finite_or_raise(full)
        goal = self.target(time_index)
        out = goal - self.mass_ratio * self._smooth(full - goal)
        return field.distribute(x.layout, x.comm, out)

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

    def __init__(self, block_a: np.ndarray, block_b: np.ndarray,
                 coupling_ab: np.ndarray, coupling_ba: np.ndarray,
                 offset_a: np.ndarray, offset_b: np.ndarray,
                 cross_coupling: float = 0.0,
                 drift_amplitude: float = 0.3,
                 drift_frequency: float = 0.93):
        block_a = np.asarray(block_a, dtype=np.float64)
        block_b = np.asarray(block_b, dtype=np.float64)
        self.size_a = block_a.shape[0]
        self.size_b = block_b.shape[0]
        top = np.hstack([block_a, cross_coupling * coupling_ab])
        bottom = np.hstack([cross_coupling * coupling_ba, block_b])
        super().__init__(np.vstack([top, bottom]),
                         np.concatenate([offset_a, offset_b]),
                         drift_amplitude, drift_frequency)
        self.cross_coupling = cross_coupling

    @classmethod
    def make(cls, size_a: int, size_b: int, contraction: float = 0.6,
             cross_coupling: float = 0.2, seed: int = 0,
             identical_halves: bool = False) -> "TwoInterfaceBlock":
        rng = np.random.default_rng(seed)

        def contractive(n):
            m = rng.standard_normal((n, n))
            return m * (contraction / np.max(np.abs(np.linalg.eigvals(m))))

        def unit_norm(shape):
            m = rng.standard_normal(shape)
            return m / np.linalg.norm(m, 2)

        block_a = contractive(size_a)
        offset_a = rng.standard_normal(size_a)
        if identical_halves:
            if size_b != size_a:
                raise ValueError("identical halves need equal sizes")
            block_b, offset_b = block_a.copy(), offset_a.copy()
        else:
            block_b = contractive(size_b)
            offset_b = rng.standard_normal(size_b)
        return cls(block_a, block_b, unit_norm((size_a, size_b)),
                   unit_norm((size_b, size_a)), offset_a, offset_b,
                   cross_coupling)

    @property
    def interface_rows(self) -> tuple[slice, slice]:
        return slice(0, self.size_a), slice(self.size_a, self.dimension)

    def surface_residuals(self, x_full: np.ndarray,
                          time_index: int = 0) -> tuple[float, float]:
        """Euclidean residual of each surface's rows at the iterate."""
        r = self.matrix @ x_full + self._ramp(time_index) * self.offset - x_full
        rows_a, rows_b = self.interface_rows
        return float(np.linalg.norm(r[rows_a])), float(np.linalg.norm(r[rows_b]))


def make_problem(name: str, relax_on: str = "displacement", seed: int = 0,
                 **params):
    """Build a model problem by short name (one of PROBLEMS)."""
    if relax_on not in RELAX_ON:
        raise ValueError("relax_on must be 'displacement' or 'force'")
    if name == "linear":
        return LinearFixedPoint.random_contraction(
            dim=int(params.pop("dim", 8)),
            spectral_radius=float(params.pop("spectral_radius", 0.5)),
            seed=seed)
    if name == "piston":
        return AddedMassPiston(
            dim=int(params.pop("dim", 64)),
            mass_ratio=float(params.pop("mass_ratio", 5.0)),
            relax_on=relax_on, **params)
    if name == "two":
        half = int(params.pop("dim", 12)) // 2
        return TwoInterfaceBlock.make(
            size_a=half, size_b=half,
            contraction=float(params.pop("contraction", 0.6)),
            cross_coupling=float(params.pop("cross_coupling", 0.2)),
            seed=seed)
    raise ValueError("unknown problem %r" % name)
