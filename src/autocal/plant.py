"""The "experiment" queried by the closed loop.

``PlantInterface`` is the seam a real device plugs into, four calls: ``nominal``,
``prepare``, ``apply`` and ``rabi_scan``.  Every point of a scan replays the recorded
prepare / apply sequence, then rotates and reads out, so a scan leaves the state as it
was.  ``SimPlant``, the only shipped plant, scans in closed form.
"""

from __future__ import annotations

import enum
import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

import numpy as np

from .qubit import (
    ContractError,
    DensityMatrix,
    PlantParams,
    PulseWaveform,
    apply_unitary,
    driven_propagator,
    pauli_rotation_propagator,
    TWO_PI,
)

_SQRT2 = math.sqrt(2.0)
# the four tomography input states, in ``PreparationIndex`` order
_STATE_VECTORS = ((1.0, 0.0), (0.0, 1.0), (1.0 / _SQRT2, -1.0j / _SQRT2), (1.0 / _SQRT2, 1.0 / _SQRT2))


class PreparationIndex(enum.IntEnum):
    """The four tomography input states."""

    PSI_1 = 1  # |0>
    PSI_2 = 2  # |-1>
    PSI_3 = 3  # (|0> - i|-1>) / sqrt(2)
    PSI_4 = 4  # (|0> + |-1>) / sqrt(2)

    def state_vector(self) -> np.ndarray:
        return np.array(_STATE_VECTORS[self - 1], dtype=complex)

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
    of every population measurement, from 1 to 2**63 - 1 in either mode;
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
        if self.repetitions > 2**63 - 1:  # the binomial shot draws take a 64-bit count
            raise ContractError("repetitions must be <= 2**63 - 1")
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
    def rabi_scan(self, axis: str, times: np.ndarray) -> np.ndarray:
        """P(|0>, t) for each of ``times``: replay prepare / apply, rotate about ``axis``, read out.

        The rotation is a resonant drive at the nominal Rabi frequency, about +x for ``'x'``
        and about -y for ``'y'``, so the curves of P(|0>) follow ``fit_rabi``'s model.  The
        plant sets the shot count per point; ``run_rabi_scan`` has checked ``times``.
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
        self._true = replace(nominal, detuning=nominal.detuning + self.config.detuning_offset)
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

    def apply(self, pulse: PulseWaveform) -> None:
        """Evolve the state through the distorted ``pulse``.

        The propagator of the last pulse object is kept, so tomographing
        several preparations of one pulse propagates it once.  Identity is a
        safe key because a ``PulseWaveform``'s channels are read-only copies.
        """
        rho = self.current_state()
        if self._last_pulse is not pulse:
            self._last_unitary = driven_propagator(pulse, self._true, self.config.amplitude_scale)
            self._last_pulse = pulse
        self._state = apply_unitary(rho, self._last_unitary)

    def apply_ideal_rotation(self, axis: str, duration: float) -> None:
        """Simulation only: one scan point's rotation, P(|0>) in ``rabi_scan``'s closed form; for tests and tracing."""
        rho = self.current_state().matrix
        hx, hy = self._rotation_rates(axis)
        u = pauli_rotation_propagator(hx, hy, 0.0, duration)
        rotated = u @ rho @ u.conj().T
        weights = _scan_weights.__wrapped__(hx, hy, np.array([duration]).tobytes())
        rotated[0, 0] = _rotated_population(rho, hx, hy, *weights)[0]
        self._state = DensityMatrix(rotated)

    def measure_population(self, which: str) -> float:
        """Simulation only: one scan point's readout of the '0' or '-1' population, clamped to [0, 1]; for tests and tracing."""
        rho = self.current_state()
        if which not in ("0", "-1"):
            raise ContractError(f"unknown basis-state selector {which!r}")
        return self._sample(min(1.0, max(0.0, rho.d if which == "0" else rho.a)))

    def rabi_scan(self, axis: str, times: np.ndarray) -> np.ndarray:
        """The scan in closed form: the state is known, so no point needs a replay."""
        rho = self.current_state().matrix
        hx, hy = self._rotation_rates(axis)
        p = _rotated_population(rho, hx, hy, *_scan_weights(hx, hy, times.tobytes()))
        return self._sample(np.minimum(1.0, np.maximum(0.0, p)))  # np.clip's result, -0.0 included

    def _rotation_rates(self, axis: str) -> tuple[float, float]:
        """(hx, hy) in rad/us of the tomography drive about ``axis``, as ``rabi_scan`` states."""
        omega = TWO_PI * self._nominal.rabi_frequency
        if axis == "x":
            return omega, 0.0
        if axis == "y":
            return 0.0, -omega
        raise ContractError(f"unknown rotation axis {axis!r}")

    def _sample(self, p: float | np.ndarray) -> float | np.ndarray:
        """``p`` itself when noiseless, else the mean of ``config.repetitions`` binomial shots at ``p``."""
        if self.config.noiseless:
            return p
        return self._rng.binomial(self.config.repetitions, p) / self.config.repetitions

    def current_state(self) -> DensityMatrix:
        """The exact state, read by every state operation; a device has no such call."""
        if self._state is None:
            raise ContractError("plant has no prepared state")
        return self._state

    def set_state(self, rho: DensityMatrix) -> None:
        """Simulation only: start from an arbitrary state, as the tomography round trips do."""
        self._state = rho


@functools.lru_cache(maxsize=4)
def _scan_weights(hx: float, hy: float, times_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Read-only sin^2(theta / 2) and sin(theta) at theta = |h| t, built once per drive (hx, hy) and time grid."""
    theta = math.hypot(hx, hy) * np.frombuffer(times_bytes)
    sin2_half, sin_theta = np.sin(0.5 * theta) ** 2, np.sin(theta)
    sin2_half.flags.writeable = sin_theta.flags.writeable = False
    return sin2_half, sin_theta


def _rotated_population(rho: np.ndarray, hx: float, hy: float, sin2_half, sin_theta) -> np.ndarray:
    """P(|0>) = d + (a - d) sin^2(theta / 2) - Im(rho_01 (nx + i ny)) sin(theta) of U rho U^dagger, U the rotation
    by ``_scan_weights``' theta about n = (hx, hy, 0) / |h|: exactly d at theta = 0, and ``fit_rabi``'s model at the
    nominal drive, whose last term is -c sin(theta) on x and +b sin(theta) on y."""
    rate, d, rho01 = math.hypot(hx, hy), rho[0, 0].real, rho[0, 1]
    k = -(rho01.imag * (hx / rate) + rho01.real * (hy / rate))
    return d + (rho[1, 1].real - d) * sin2_half + k * sin_theta


@functools.lru_cache(maxsize=8)
def default_rabi_times(rabi_frequency: float) -> np.ndarray:
    """Tomography scan grid: 41 durations spanning [0, 2 / Omega], one shared read-only array per frequency."""
    times = np.linspace(0.0, 2.0 / rabi_frequency, 41)
    times.flags.writeable = False
    return times


def run_rabi_scan(plant: PlantInterface, axis: str, times: np.ndarray) -> np.ndarray:
    """Sample P(|0>, t) after rotating the current state about ``axis``.

    Checks the axis ('x' or 'y') and the time grid (1-d, non-empty, finite,
    non-negative, strictly increasing), hands the scan to ``plant.rabi_scan``
    and checks that it returns one float per time; non-finite samples pass
    here and fail the Rabi fit as bad measurements.
    """
    if axis not in ("x", "y"):
        raise ContractError(f"unknown rotation axis {axis!r}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ContractError("times must be a 1-d array")
    _check_times(times.tobytes())
    scan = plant.rabi_scan(axis, times)
    if not isinstance(scan, np.ndarray) or scan.dtype.kind != "f" or scan.shape != (times.size,):
        raise ContractError(f"rabi_scan must return a 1-d float array of {times.size} values")
    return scan


@functools.lru_cache(maxsize=8)
def _check_times(times_bytes: bytes) -> None:
    """``run_rabi_scan``'s grid checks, run once per valid grid; a raise is not cached, so a bad grid always raises."""
    times = np.frombuffer(times_bytes)
    if times.size == 0:
        raise ContractError("times must be non-empty")
    if not np.isfinite(times).all() or (times < 0.0).any():
        raise ContractError("times must be finite and non-negative")
    if times.size > 1 and not (np.diff(times) > 0.0).all():
        raise ContractError("times must be strictly increasing")
