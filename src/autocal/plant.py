"""The "experiment" queried by the closed loop.

``PlantInterface`` is the seam a real device plugs into: ``nominal``, ``prepare``,
``apply``, ``apply_ideal_unitary`` and ``rabi_scan``.  Every point of a scan replays
the recorded prepare / apply / unitary sequence, then rotates and reads out, so a scan
leaves the state as it was.  ``SimPlant``, the only shipped plant, scans in one pass.
"""

from __future__ import annotations

import enum
import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .qubit import (
    ContractError,
    DensityMatrix,
    PlantParams,
    PulseWaveform,
    _check_duration,
    _propagator_stack,
    apply_unitary,
    pauli_rotation_propagator,
    population,
    total_propagator,
    TWO_PI,
)

_SQRT2 = math.sqrt(2.0)


class PreparationIndex(enum.IntEnum):
    """The four tomography input states."""

    PSI_1 = 1  # |0>
    PSI_2 = 2  # |-1>
    PSI_3 = 3  # (|0> - i|-1>) / sqrt(2)
    PSI_4 = 4  # (|0> + |-1>) / sqrt(2)

    def state_vector(self) -> np.ndarray:
        if self is PreparationIndex.PSI_1:
            return np.array([1.0, 0.0], dtype=complex)
        if self is PreparationIndex.PSI_2:
            return np.array([0.0, 1.0], dtype=complex)
        if self is PreparationIndex.PSI_3:
            return np.array([1.0 / _SQRT2, -1.0j / _SQRT2], dtype=complex)
        return np.array([1.0 / _SQRT2, 1.0 / _SQRT2], dtype=complex)

    @functools.cache
    def density_matrix(self) -> DensityMatrix:
        """The prepared state: one shared object per index, with a read-only matrix."""
        rho = DensityMatrix.from_state_vector(self.state_vector())
        rho.matrix.flags.writeable = False
        return rho


@dataclass(frozen=True)
class SimPlantConfig:
    """True-plant configuration, hidden from the closed loop.

    ``detuning_offset`` (MHz) and ``amplitude_scale`` model miscalibration
    relative to the nominal parameters.  ``repetitions`` is the shot count
    of every population measurement, at least 1 in either mode;
    ``noiseless`` returns exact probabilities instead.
    """

    detuning_offset: float = 0.0
    amplitude_scale: float = 1.0
    repetitions: int = 10_000
    noiseless: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.amplitude_scale) and self.amplitude_scale > 0.0):
            raise ContractError("amplitude_scale must be positive and finite")
        if self.repetitions < 1:
            raise ContractError("repetitions must be >= 1")
        if self.seed < 0:
            raise ContractError("seed must be >= 0")


class PlantInterface(ABC):
    """Capability contract of an experiment driven by the closed loop."""

    @property
    @abstractmethod
    def nominal(self) -> PlantParams:
        """Parameters the closed loop believes it is driving."""

    @abstractmethod
    def prepare(self, idx: PreparationIndex) -> None:
        """Set the plant to one of the four calibrated input states."""

    @abstractmethod
    def apply(self, pulse: PulseWaveform) -> None:
        """Play the candidate pulse through the (imperfect) drive chain."""

    @abstractmethod
    def apply_ideal_unitary(self, u: np.ndarray) -> None:
        """Calibrated gate applied as an exact matrix action (e.g. G inverse)."""

    @abstractmethod
    def rabi_scan(self, axis: str, times: np.ndarray) -> np.ndarray:
        """P(|0>, t) for each of ``times``: replay since ``prepare``, rotate about ``axis``, read out.

        The plant sets the shot count per point; ``run_rabi_scan`` has checked ``times``.
        """


class SimPlant(PlantInterface):
    """Simulated two-level plant with configurable miscalibration and shot noise.

    State preparation and the tomography rotations are ideal; the candidate
    pulse is evolved with the TRUE parameters (nominal + offsets) after
    amplitude scaling and re-clipping.  All randomness comes from a single
    seeded PCG64 generator, so a fixed seed and call sequence reproduce
    bit-identical outputs.
    """

    def __init__(self, nominal: PlantParams, config: SimPlantConfig | None = None):
        self._nominal = nominal
        self.config = config or SimPlantConfig()
        self._true = PlantParams(
            rabi_frequency=nominal.rabi_frequency,
            detuning=nominal.detuning + self.config.detuning_offset,
            duration=nominal.duration,
        )
        self._rng = np.random.default_rng(np.random.PCG64(self.config.seed))
        self._state: DensityMatrix | None = None
        self._last_pulse: PulseWaveform | None = None
        self._last_unitary: np.ndarray | None = None

    @property
    def nominal(self) -> PlantParams:
        return self._nominal

    @property
    def true_params(self) -> PlantParams:
        return self._true

    def prepare(self, idx: PreparationIndex) -> None:
        self._state = idx.density_matrix()

    def _require_state(self) -> DensityMatrix:
        if self._state is None:
            raise ContractError("plant has no prepared state")
        return self._state

    def apply(self, pulse: PulseWaveform) -> None:
        """Evolve the state through the distorted ``pulse``.

        The propagator of the last pulse object is kept, so tomographing
        several preparations of one pulse propagates it once.  Identity is a
        safe key because a ``PulseWaveform``'s channels are read-only copies.
        """
        rho = self._require_state()
        if self._last_pulse is not pulse:
            _check_duration(pulse, self._true)
            self._last_unitary = total_propagator(pulse.scaled(self.config.amplitude_scale), self._true)
            self._last_pulse = pulse
        self._state = apply_unitary(rho, self._last_unitary)

    def apply_ideal_rotation(self, axis: str, duration: float) -> None:
        """Simulation only: one scan point's rotation, kept for tests and per-call tracing."""
        rho = self._require_state()
        hx, hy = self._rotation_rates(axis)
        self._state = apply_unitary(rho, pauli_rotation_propagator(hx, hy, 0.0, duration))

    def apply_ideal_unitary(self, u: np.ndarray) -> None:
        self._state = apply_unitary(self._require_state(), u)

    def measure_population(self, which: str) -> float:
        """Simulation only: one scan point's readout, kept for tests and per-call tracing."""
        return self._sample(population(self._require_state(), which))

    def rabi_scan(self, axis: str, times: np.ndarray) -> np.ndarray:
        """The scan in one pass: the state is known, so no point needs a replay."""
        rho = self._require_state().matrix
        u, u_adjoint = _scan_rotations(*self._rotation_rates(axis), times.tobytes())
        p = (u @ rho @ u_adjoint)[:, 0, 0].real
        return self._sample(np.clip(p, 0.0, 1.0))

    def _rotation_rates(self, axis: str) -> tuple[float, float]:
        """(hx, hy) in rad/us of the resonant tomography drive about ``axis``."""
        omega = TWO_PI * self._nominal.rabi_frequency
        if axis == "x":
            return omega, 0.0
        if axis == "y":
            # the y tomography drive rotates about -y; this sign makes the
            # observed oscillation match the +b sin(2 pi w t) fit model
            return 0.0, -omega
        raise ContractError(f"unknown rotation axis {axis!r}")

    def _sample(self, p: float | np.ndarray) -> float | np.ndarray:
        """``p`` itself when noiseless, else the mean of ``config.repetitions`` binomial shots at ``p``."""
        if self.config.noiseless:
            return p
        return self._rng.binomial(self.config.repetitions, p) / self.config.repetitions

    def current_state(self) -> DensityMatrix:
        """Simulation only: the exact state, which tests compare against."""
        return self._require_state()

    def set_state(self, rho: DensityMatrix) -> None:
        """Simulation only: start from an arbitrary state, as the tomography round trips do."""
        self._state = rho


@functools.lru_cache(maxsize=4)
def _scan_rotations(hx: float, hy: float, times_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rotation stack (n, 2, 2) of a scan and its adjoint, built once per drive and grid."""
    times = np.frombuffer(times_bytes)
    n = times.size
    u = _propagator_stack(np.full(n, hx), np.full(n, hy), np.zeros(n), times)
    u_adjoint = u.conj().transpose(0, 2, 1)
    u.flags.writeable = u_adjoint.flags.writeable = False
    return u, u_adjoint


def default_rabi_times(rabi_frequency: float) -> np.ndarray:
    """Tomography scan grid: 41 durations spanning [0, 2 / Omega]."""
    return np.linspace(0.0, 2.0 / rabi_frequency, 41)


def run_rabi_scan(plant: PlantInterface, axis: str, times: np.ndarray) -> np.ndarray:
    """Sample P(|0>, t) after rotating the current state about ``axis``.

    Checks the axis ('x' or 'y') and the time grid (non-empty, finite,
    non-negative, strictly increasing), hands the scan to ``plant.rabi_scan``
    and checks that it returns one float per time; non-finite samples pass
    here and fail the Rabi fit as bad measurements.
    """
    if axis not in ("x", "y"):
        raise ContractError(f"unknown rotation axis {axis!r}")
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ContractError("times must be non-empty")
    if not np.isfinite(times).all() or (times < 0.0).any():
        raise ContractError("times must be finite and non-negative")
    if times.size > 1 and not (np.diff(times) > 0.0).all():
        raise ContractError("times must be strictly increasing")
    scan = plant.rabi_scan(axis, times)
    if not isinstance(scan, np.ndarray) or scan.dtype.kind != "f" or scan.shape != (times.size,):
        raise ContractError(f"rabi_scan must return a 1-d float array of {times.size} values")
    return scan
