"""Exact 2x2 linear algebra and time evolution of the driven two-level system.

Conventions
-----------
Basis index 0 is |m_s = 0>, index 1 is |m_s = -1>.  Spin operators are
S = sigma / 2.  Frequencies are in MHz, times in microseconds, so a constant
drive of amplitude 1 at Rabi frequency ``omega_rabi`` performs a population
inversion in ``t_pi = 1 / (2 * omega_rabi)``.

Every propagator is in SU(2), U = [[alpha, beta], [-beta*, alpha*]], so a
pulse is propagated in this Cayley-Klein form: one (alpha, beta) pair per
sample, composed elementwise (the hard-pulse product of Shinnar-Le Roux
pulse design; Pauly et al., IEEE TMI 10, 53, 1991).  The 2x2 matrix is built
only for the total.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

KET_ZERO = np.array([1.0, 0.0], dtype=complex)

#: The target gate of the gate-calibration experiments: a Hadamard-like
#: pi/2 rotation about x, G = (1/sqrt(2)) [[1, -i], [-i, 1]].
GATE_G = np.array([[1.0, -1.0j], [-1.0j, 1.0]], dtype=complex) / math.sqrt(2.0)

TWO_PI = 2.0 * math.pi


class ContractError(ValueError):
    """A caller violated a documented precondition."""


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ContractError(f"non-finite argument: {v!r}")


def pauli_rotation_propagator(hx: float, hy: float, hz: float, dt: float) -> np.ndarray:
    """Closed-form U = exp(-i (hx Sx + hy Sy + hz Sz) dt), exactly unitary.

    The coefficients are angular frequencies in rad/us and ``dt`` is in us.
    The Bloch rotation angle is |h| dt; the spinor half-angle formula gives

        U = cos(theta/2) I - i sin(theta/2) (n . sigma)

    with theta = |h| dt and n = h / |h|.
    """
    _require_finite(hx, hy, hz, dt)
    if dt <= 0.0:
        raise ContractError("dt must be positive")
    norm_sq = hx * hx + hy * hy + hz * hz  # as _cayley_klein forms it, which turns an overflow into NaN
    if not (math.isfinite(norm_sq) and math.isfinite(math.sqrt(norm_sq) * dt)):
        raise ContractError("generator (hx, hy, hz) too large: |h|^2 and |h| dt must be finite")
    return _su2(*_cayley_klein(np.array([hx]), np.array([hy]), np.array([hz]), dt))[0]


def _cayley_klein(
    hx: np.ndarray, hy: np.ndarray, hz: float | np.ndarray, dt: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (alpha, beta) of ``pauli_rotation_propagator``, unchecked; ``hz`` may be one scalar for all."""
    norm = np.sqrt(hx * hx + hy * hy + hz * hz)
    half = 0.5 * norm * dt
    # sin(half)/norm written via sinc so the zero-generator limit is exact
    s = 0.5 * dt * np.sinc(half / math.pi)
    # cos(half) - i s hz and -i s hx - s hy part by part, with the zeros' signs of complex arithmetic
    alpha = np.empty(half.shape, dtype=complex)
    beta = np.empty(half.shape, dtype=complex)
    alpha.real = np.cos(half)
    alpha.imag = 0.0 - s * hz
    beta.real = 0.0 * hx + 0.0 * s - s * hy
    beta.imag = 0.0 - s * hx
    return alpha, beta


def _su2(alpha, beta) -> np.ndarray:
    """The matrices [[alpha, beta], [-beta*, alpha*]]; shape (..., 2, 2)."""
    u = np.empty(np.shape(alpha) + (2, 2), dtype=complex)
    u[..., 0, 0] = alpha
    u[..., 0, 1] = beta
    u[..., 1, 0] = -np.conj(beta)
    u[..., 1, 1] = np.conj(alpha)
    return u


def _ck_product(alpha: np.ndarray, beta: np.ndarray) -> tuple[complex, complex]:
    """(alpha, beta) of U[n-1] ... U[1] U[0] by pairwise reduction.

    Each round composes neighbours, later after earlier:
    alpha = a2 a1 - b2 b1*, beta = a2 b1 + b2 a1*.  An odd count carries the
    earliest factor to the next round unchanged.
    """
    while alpha.size > 1:
        head = alpha.size % 2
        a1, a2 = alpha[head::2], alpha[head + 1 :: 2]
        b1, b2 = beta[head::2], beta[head + 1 :: 2]
        pair_alpha = a2 * a1 - b2 * np.conj(b1)
        pair_beta = a2 * b1 + b2 * np.conj(a1)
        if head:
            pair_alpha = np.concatenate([alpha[:1], pair_alpha])
            pair_beta = np.concatenate([beta[:1], pair_beta])
        alpha, beta = pair_alpha, pair_beta
    return alpha[0], beta[0]


@dataclass(frozen=True)
class PlantParams:
    """Nominal drive parameters: Rabi frequency (MHz), detuning (MHz), duration (us)."""

    rabi_frequency: float
    detuning: float
    duration: float

    def __post_init__(self) -> None:
        _require_finite(self.rabi_frequency, self.detuning, self.duration)
        if not 0.0 < self.rabi_frequency <= 10.0:
            raise ContractError("rabi_frequency must lie in (0, 10] MHz")
        if self.duration <= 0.0:
            raise ContractError("duration must be positive")
        if not math.isfinite((TWO_PI * self.detuning) * (TWO_PI * self.detuning)):
            raise ContractError("detuning too large: (2 pi detuning)^2 must be finite")


@dataclass(frozen=True)
class PulseWaveform:
    """Sampled control channels X(t), Y(t), piecewise constant over [0, T).

    Sample i holds on [i dt, (i+1) dt) with dt = duration / n_t; the stored
    value is the channel evaluated at the left edge t = i dt.  The hardware
    constraint |X + Y| <= 1 must hold at every sample.
    """

    duration: float
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        # private read-only copies: a pulse never changes after construction,
        # so a plant may key cached work on the object itself
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        x.flags.writeable = y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if self.duration <= 0.0 or not math.isfinite(self.duration):
            raise ContractError("duration must be positive and finite")
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ContractError("channels must be equal-length 1-d arrays, n_t >= 2")
        total = x + y  # finite only where both channels are
        if not np.isfinite(total).all() and not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ContractError("non-finite channel samples")
        if np.abs(total).max() > 1.0 + 1e-12:
            raise ContractError("|X + Y| <= 1 violated")

    @property
    def n_t(self) -> int:
        return self.x.size

    @property
    def dt(self) -> float:
        return self.duration / self.n_t

    @property
    def times(self) -> np.ndarray:
        """Left-edge sample times."""
        return np.arange(self.n_t) * self.dt

    @staticmethod
    def constant(x: float, y: float, duration: float, n_t: int = 1000) -> "PulseWaveform":
        return PulseWaveform(duration, np.full(n_t, float(x)), np.full(n_t, float(y)))

    def __reduce__(self):
        # rebuild through the constructor, so an unpickled pulse has read-only channels too
        return type(self), (self.duration, self.x, self.y)


def _eigen_radius(m00: complex, m01: complex, m10: complex, m11: complex) -> float:
    """Half the eigenvalue gap of a Hermitian 2x2 (m10 unread): the eigenvalues are mean diagonal +/- this."""
    return math.sqrt(0.25 * (m00.real - m11.real) ** 2 + abs(m01) ** 2)


def clip_amplitudes(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both channels divided by max(1, |X + Y|), sample by sample: only samples violating |X + Y| <= 1 change."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    scale = np.fmax(np.abs(x + y), 1.0)  # fmax: a NaN sum leaves the sample as it is
    return x / scale, y / scale


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 Hermitian, unit-trace, positive-semidefinite qubit state."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        entries = m.ravel().tolist() if m.shape == (2, 2) else [math.nan]
        if not all(map(cmath.isfinite, entries)):
            raise ContractError("density matrix must be a finite 2x2 array")
        m00, m01, m10, m11 = entries
        if abs(m00.real + m11.real - 1.0) > 1e-10 or abs(m00.imag) > 1e-10 or abs(m11.imag) > 1e-10:
            raise ContractError("trace must equal 1")
        message = "matrix must be Hermitian"
        try:  # python's abs and ** raise OverflowError where numpy's gave inf, failing the check
            if abs(m01 - m10.conjugate()) <= 1e-10:
                message = "state is not positive semidefinite"
                if 0.5 * (m00.real + m11.real) - _eigen_radius(*entries) >= -1e-9:
                    return
        except OverflowError:
            pass
        raise ContractError(message)

    # Entry names follow the tomography fit parameterisation:
    # d and a are the |0> and |-1> populations, b + ic is <0| rho |-1>.
    @property
    def d(self) -> float:
        return self.matrix[0, 0].real

    @property
    def a(self) -> float:
        return self.matrix[1, 1].real

    @staticmethod
    def from_state_vector(psi: np.ndarray) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        return DensityMatrix(np.outer(psi, psi.conj()))

    @staticmethod
    def pure_zero() -> "DensityMatrix":
        return DensityMatrix.from_state_vector(KET_ZERO)

    @staticmethod
    def from_entries(a: float, b: float, c: float, d: float) -> "DensityMatrix":
        return DensityMatrix(
            np.array([[d, b + 1j * c], [b - 1j * c, a]], dtype=complex)
        )

    def trace_distance(self, other: "DensityMatrix") -> float:
        # the difference is traceless, so its eigenvalues are +/- the radius: half their summed magnitudes
        return _eigen_radius(*(self.matrix - other.matrix).ravel().tolist())


def population(rho: DensityMatrix, which: str) -> float:
    """Population of the selected basis state ('0' or '-1'), clamped to [0, 1]."""
    if which == "0":
        p = rho.d
    elif which == "-1":
        p = rho.a
    else:
        raise ContractError(f"unknown basis-state selector {which!r}")
    return min(1.0, max(0.0, p))


def apply_unitary(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    return DensityMatrix(u @ rho.matrix @ u.conj().T)


def evolve_density(rho0: DensityMatrix, pulse: PulseWaveform, params: PlantParams) -> DensityMatrix:
    """Evolve under H(t) = 2 pi [Delta Sz + Omega (X(t) Sx + Y(t) Sy)].

    Piecewise-constant propagators per waveform sample, multiplied in time
    order; exactly unitary by construction.
    """
    return apply_unitary(rho0, total_propagator(pulse, params))


def total_propagator(pulse: PulseWaveform, params: PlantParams) -> np.ndarray:
    """Unitary implemented by ``pulse``: time-ordered product of per-sample propagators."""
    return _channel_propagator(pulse, params, pulse.x, pulse.y)


def driven_propagator(pulse: PulseWaveform, params: PlantParams, gain: float) -> np.ndarray:
    """Unitary of ``pulse`` out of a drive chain of amplitude ``gain``: both channels scaled, then re-clipped."""
    if not (math.isfinite(gain) and gain > 0.0):
        raise ContractError("amplitude_scale must be positive and finite")
    return _channel_propagator(pulse, params, *clip_amplitudes(gain * pulse.x, gain * pulse.y))


def _channel_propagator(pulse: PulseWaveform, params: PlantParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unitary of channels (x, y) on ``pulse``'s grid; every propagation passes here, so the duration rule does."""
    if abs(pulse.duration - params.duration) > 1e-9 * max(1.0, params.duration):
        raise ContractError("pulse duration does not match plant duration")
    omega = TWO_PI * params.rabi_frequency
    try:  # an overflowing |h|^2 at any sample raises here, before numpy could warn or return NaN
        with np.errstate(over="raise"):
            alpha, beta = _cayley_klein(omega * x, omega * y, TWO_PI * params.detuning, pulse.dt)
    except FloatingPointError:
        raise ContractError(
            "pulse channels X, Y too large: (2 pi Omega X)^2 + (2 pi Omega Y)^2 + (2 pi Delta)^2 must be finite"
        ) from None
    return _su2(*_ck_product(alpha, beta))
