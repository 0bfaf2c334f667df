"""State and process reconstruction from plant measurements.

The pipeline is: two orthogonal-axis Rabi scans -> least-squares fit of the
oscillation model -> projection onto the nearest pure state (the top
eigenvector of the fitted matrix, in closed form) -> fidelity or chi-matrix
figures of merit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .plant import PlantInterface, PreparationIndex, default_rabi_times, run_rabi_scan
from .qubit import (
    ContractError,
    DensityMatrix,
    IDENTITY,
    PulseWaveform,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TWO_PI,
)

#: Operator basis of the process matrix: e1..e4.
CHI_BASIS = (IDENTITY, SIGMA_X, -1j * SIGMA_Y, SIGMA_Z)
CHI_BASIS_LABELS = ("I", "sigma_x", "-i*sigma_y", "sigma_z")


class FitFailure(RuntimeError):
    """Rabi fit residual exceeded the plausibility threshold."""

    def __init__(self, residual: float):
        super().__init__(f"Rabi fit diverged (rms residual {residual:.3g})")
        self.residual = residual


@dataclass(frozen=True)
class RabiFit:
    """Raw density-matrix entries and shared frequency from a joint two-axis fit."""

    a: float
    b: float
    c: float
    d: float
    omega: float
    residual: float


@dataclass(frozen=True)
class StateEstimate:
    """Pure-state projection of a Rabi fit."""

    rho: DensityMatrix
    xi: float
    nu: float
    sigma: float


@dataclass(frozen=True)
class FidelityEstimate:
    """Figure-of-merit value with its statistical error bar."""

    value: float
    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(min(1.0, max(0.0, self.value))))
        if self.sigma < 0.0:
            raise ContractError("sigma must be non-negative")


@dataclass(frozen=True)
class ChiMatrix:
    """4x4 process matrix in the basis {I, sigma_x, -i sigma_y, sigma_z}."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.shape != (4, 4):
            raise ContractError("chi matrix must be 4x4")

    def to_json_dict(self) -> dict:
        return {
            "basis": list(CHI_BASIS_LABELS),
            "real": self.matrix.real.tolist(),
            "imag": self.matrix.imag.tolist(),
            "entries": [[[float(z.real), float(z.imag)] for z in row] for row in self.matrix],
        }


# ---------------------------------------------------------------------------
# Rabi fitting

_RESIDUAL_THRESHOLD = 0.15  # rms; noiseless fits sit below 1e-13, 1e4 shots at ~5e-3
_COARSE_POINTS = 121  # omega grid over [0.5, 1.5] * rabi_frequency
_REFINE_POINTS = 11  # odd: each re-grid evaluates its centre again, so the SSE never rises
_REFINE_ROUNDS = 16  # 5-fold shrink per round: final bracket 2 / 120 / 5**16 ~ 1e-13 of range
_REFINE_OFFSETS = np.linspace(-1.0, 1.0, _REFINE_POINTS)


def _fit_at(
    omegas: np.ndarray, times: np.ndarray, x_curve: np.ndarray, y_curve: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Linear LSQ of (s, q, c, b) at each frequency; returns params (k, 4) and SSE (k,).

    One batched 4x4 normal-equation solve.  The SSE sums the residual itself:
    ||y||^2 - p.A^T y cancels catastrophically near an exact fit.
    """
    theta = np.multiply.outer(TWO_PI * omegas, times)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    n = times.size
    design = np.zeros((omegas.size, 2 * n, 4))
    design[..., 0] = 1.0
    design[..., 1] = np.hstack([cos_t, cos_t])
    design[:, :n, 2] = -sin_t
    design[:, n:, 3] = sin_t
    target = np.concatenate([x_curve, y_curve])
    design_t = design.transpose(0, 2, 1)
    params = np.linalg.solve(design_t @ design, (design_t @ target)[..., None])
    sse = np.sum(((design @ params)[..., 0] - target) ** 2, axis=1)
    return params[..., 0], sse


def fit_rabi(
    x_curve: np.ndarray,
    y_curve: np.ndarray,
    times: np.ndarray,
    rabi_frequency: float,
) -> RabiFit:
    """Joint least-squares fit of both Rabi curves with shared a, d, omega.

    Model (populations of |0> after rotating for time t):

        x axis:  P(t) = (d+a)/2 + (d-a)/2 cos(2 pi w t) - c sin(2 pi w t)
        y axis:  P(t) = (d+a)/2 + (d-a)/2 cos(2 pi w t) + b sin(2 pi w t)

    The model is linear given w (separable least squares; Golub & Pereyra,
    SIAM J. Numer. Anal. 10, 413, 1973), so ``_fit_at`` solves it for many w
    at once.  w is the best point of a grid over [0.5, 1.5] * rabi_frequency,
    re-gridded a fixed number of times on the +-1-step bracket around it
    until the bracket is below 1e-12 * rabi_frequency.
    """
    times = np.asarray(times, dtype=float)
    x_curve = np.asarray(x_curve, dtype=float)
    y_curve = np.asarray(y_curve, dtype=float)
    if times.size < 8 or x_curve.shape != times.shape or y_curve.shape != times.shape:
        raise ContractError("curves must share a time grid of >= 8 points")

    lo, hi = 0.5 * rabi_frequency, 1.5 * rabi_frequency
    omegas = np.linspace(lo, hi, _COARSE_POINTS)
    step = omegas[1] - omegas[0]
    params, sses = _fit_at(omegas, times, x_curve, y_curve)
    for _ in range(_REFINE_ROUNDS):
        omegas = np.clip(omegas[np.argmin(sses)] + step * _REFINE_OFFSETS, lo, hi)
        step *= _REFINE_OFFSETS[1] - _REFINE_OFFSETS[0]
        params, sses = _fit_at(omegas, times, x_curve, y_curve)

    best = int(np.argmin(sses))
    s, q, c, b = params[best]
    rms = math.sqrt(sses[best] / (2 * times.size))
    if rms > _RESIDUAL_THRESHOLD:
        raise FitFailure(rms)
    omega = float(omegas[best])
    return RabiFit(a=float(s - q), b=float(b), c=float(c), d=float(s + q), omega=omega, residual=rms)


# ---------------------------------------------------------------------------
# Pure-state projection


def _pure_entries(xi, nu):
    """Entries of rho(xi, nu) = Ry(nu) Rx(xi) |0><0| Rx(xi)^+ Ry(nu)^+."""
    u = np.cos(np.asarray(xi) / 2.0)
    v = -1j * np.sin(np.asarray(xi) / 2.0)
    cn = np.cos(np.asarray(nu) / 2.0)
    sn = np.sin(np.asarray(nu) / 2.0)
    psi0 = cn * u - sn * v
    psi1 = sn * u + cn * v
    p00 = np.abs(psi0) ** 2
    p01 = psi0 * np.conj(psi1)
    p11 = np.abs(psi1) ** 2
    return p00, p01, p11


def _mle_residual(a, b, c, d, p00, p01, p11):
    return (
        (d - p00) ** 2
        + (a - p11) ** 2
        + 2.0 * ((b - p01.real) ** 2 + (c - p01.imag) ** 2)
    )


def mle_project(fit: RabiFit) -> StateEstimate:
    """Nearest pure state to the fitted entries, with the per-entry error bar.

    The residual is the squared Frobenius distance ||M - P||^2 between the
    fitted matrix M and a pure state P, which equals ||M||^2 - 2 tr(M P) + 1;
    it is smallest for the projector onto the top eigenvector of M (the
    pure-state case of Smolin, Gambetta & Smith, PRL 108, 070502, 2012).
    That projector's Bloch vector is the unit vector along
    r = (2b, -2c, d - a); r = 0 gives |0>.  The angles follow from
    Bloch(xi, nu) = (cos xi sin nu, -sin xi, cos xi cos nu) with
    xi in [0, 2 pi), nu in [0, pi); sigma = (1/4) sqrt(residual).
    """
    rx, ry, rz = 2.0 * fit.b, -2.0 * fit.c, fit.d - fit.a
    if rx == ry == rz == 0.0:
        xi = nu = 0.0
    else:
        nu = math.atan2(rx, rz) % math.pi
        cos_xi = rx * math.sin(nu) + rz * math.cos(nu)
        xi = math.atan2(-ry, cos_xi) % TWO_PI
    p00, p01, p11 = _pure_entries(xi, nu)
    residual = float(_mle_residual(fit.a, fit.b, fit.c, fit.d, p00, p01, p11))
    rho = DensityMatrix(np.array([[p00, p01], [np.conj(p01), p11]], dtype=complex))
    return StateEstimate(rho=rho, xi=xi, nu=nu, sigma=0.25 * math.sqrt(residual))


# ---------------------------------------------------------------------------
# Plant-driven tomography and figures of merit


def state_tomography(
    plant: PlantInterface,
    repetitions: int | None = None,
    times: np.ndarray | None = None,
) -> StateEstimate:
    """Reconstruct the plant's current state from x and y Rabi scans."""
    if times is None:
        times = default_rabi_times(plant.nominal.rabi_frequency)
    x_curve = run_rabi_scan(plant, "x", times, repetitions)
    y_curve = run_rabi_scan(plant, "y", times, repetitions)
    fit = fit_rabi(x_curve, y_curve, times, plant.nominal.rabi_frequency)
    return mle_project(fit)


def state_transfer_fom(
    plant: PlantInterface,
    pulse: PulseWaveform,
    repetitions: int | None = None,
) -> FidelityEstimate:
    """F = reconstructed |-1> population after driving |0> with ``pulse``."""
    plant.prepare(PreparationIndex.PSI_1)
    plant.apply(pulse)
    est = state_tomography(plant, repetitions)
    return FidelityEstimate(value=est.rho.a, sigma=est.sigma)


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or np.max(np.abs(u.conj().T @ u - IDENTITY)) > 1e-9:
        raise ContractError("ideal gate must be a 2x2 unitary")
    return u


def gate_fom(
    plant: PlantInterface,
    pulse: PulseWaveform,
    ideal_gate: np.ndarray,
    repetitions: int | None = None,
) -> FidelityEstimate:
    """Average return probability over the four input states.

    Each input is prepared, driven with the candidate pulse, undone with the
    exact inverse of the ideal gate, and its overlap with the input read off
    the tomographic reconstruction.  The error bar is the mean of the four
    per-state sigmas.
    """
    ideal = _check_unitary(ideal_gate)
    inverse = ideal.conj().T
    values = []
    sigmas = []
    for idx in PreparationIndex:
        plant.prepare(idx)
        plant.apply(pulse)
        plant.apply_ideal_unitary(inverse)
        est = state_tomography(plant, repetitions)
        psi = idx.state_vector()
        values.append(float(np.real(psi.conj() @ est.rho.matrix @ psi)))
        sigmas.append(est.sigma)
    return FidelityEstimate(value=float(np.mean(values)), sigma=float(np.mean(sigmas)))


# ---------------------------------------------------------------------------
# Process tomography

# Maps the stacked "operator basis" finals E(|j><k|) to the four measured
# preparation finals; rows follow PreparationIndex, columns the order
# E(|0><0|), E(|0><-1|), E(|-1><0|), E(|-1><-1|).
_PREP_MIX = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.5, 0.5j, -0.5j, 0.5],
        [0.5, 0.5, 0.5, 0.5],
    ],
    dtype=complex,
)
_PREP_MIX_INV = np.linalg.inv(_PREP_MIX)
_LAMBDA = 0.5 * np.block([[IDENTITY, SIGMA_X], [SIGMA_X, -IDENTITY]])


def chi_from_final_states(rho_finals) -> ChiMatrix:
    """Process matrix from the four measured output states.

    Inverts the preparation mixing to recover the operator-basis finals,
    arranges them as a 4x4 block matrix and sandwiches it between the
    reconstruction matrices.  Linear in its inputs.
    """
    mats = [np.asarray(getattr(r, "matrix", r), dtype=complex) for r in rho_finals]
    if len(mats) != 4:
        raise ContractError("need exactly four final states, ordered by PreparationIndex")
    combos = [sum(_PREP_MIX_INV[j, i] * mats[i] for i in range(4)) for j in range(4)]
    block = np.block([[combos[0], combos[1]], [combos[2], combos[3]]])
    return ChiMatrix(_LAMBDA @ block @ _LAMBDA)


_M_PUBLISHED = np.array(
    [
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.5, -0.5j, 0.5j, 0.5],
        [0.5, -0.5, -0.5, 0.5],
    ],
    dtype=complex,
)
_M_PUBLISHED_INV = np.linalg.inv(_M_PUBLISHED)
_BETA_PUBLISHED = np.block([[IDENTITY, IDENTITY], [IDENTITY, -IDENTITY]])
_SWAP = SIGMA_X  # permutation between the two basis orderings


def chi_matrix_as_published(rho_finals) -> ChiMatrix:
    """The chi construction exactly as published, kept for comparison.

    This variant fails the identity-process sanity check (see
    ``chi_construction_discrepancy``); ``chi_from_final_states`` is the
    corrected construction used everywhere else.
    """
    mats = [
        _SWAP @ np.asarray(getattr(r, "matrix", r), dtype=complex) @ _SWAP
        for r in rho_finals
    ]
    if len(mats) != 4:
        raise ContractError("need exactly four final states, ordered by PreparationIndex")
    combos = [sum(_M_PUBLISHED_INV[j, i] * mats[i] for i in range(4)) for j in range(4)]
    block = np.block([[combos[0], combos[1]], [combos[2], combos[3]]])
    return ChiMatrix(_BETA_PUBLISHED @ block @ _BETA_PUBLISHED)


def chi_construction_discrepancy() -> float:
    """Max deviation of the as-published construction on the identity process.

    The corrected construction returns the exact single-unit-entry chi; a
    non-zero value here quantifies how far the literal published formula is
    from that reference.  Surfaced in QPT reports rather than silently
    patched.
    """
    finals = [idx.density_matrix() for idx in PreparationIndex]
    reference = np.zeros((4, 4), dtype=complex)
    reference[0, 0] = 1.0
    published = chi_matrix_as_published(finals).matrix
    return float(np.max(np.abs(published - reference)))


def analytic_chi_of_unitary(u: np.ndarray) -> ChiMatrix:
    """chi_mn = alpha_m alpha_n* for U = sum_m alpha_m e_m (exact oracle input)."""
    u = _check_unitary(u)
    alpha = np.array(
        [np.trace(e.conj().T @ u) / np.trace(e.conj().T @ e) for e in CHI_BASIS]
    )
    return ChiMatrix(np.outer(alpha, alpha.conj()))


def process_tomography(
    plant: PlantInterface,
    pulse: PulseWaveform,
    repetitions: int | None = None,
) -> ChiMatrix:
    """Full process tomography of ``pulse``: tomograph all four preparations."""
    finals = []
    for idx in PreparationIndex:
        plant.prepare(idx)
        plant.apply(pulse)
        finals.append(state_tomography(plant, repetitions).rho)
    return chi_from_final_states(finals)

