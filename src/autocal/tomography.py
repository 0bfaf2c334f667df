"""State and process reconstruction from plant measurements.

The pipeline is: two orthogonal-axis Rabi scans -> least-squares fit of the
oscillation model -> projection onto the nearest pure state (the top
eigenvector of the fitted matrix, in closed form) -> fidelity or chi-matrix
figures of merit.
"""

from __future__ import annotations

import functools
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
    """A Rabi fit failed: a non-finite sample (``residual`` is NaN), a residual above threshold, or ``reason``."""

    def __init__(self, residual: float, preparation: str = "", reason: str = ""):
        if math.isnan(residual):
            reason = reason or "bad measurement (non-finite Rabi scan sample)"
        reason = reason or f"Rabi fit diverged (rms residual {residual:.3g})"
        super().__init__(f"{preparation}: {reason}" if preparation else reason)
        self.residual, self.preparation, self.reason = residual, preparation, reason

    def __reduce__(self):
        return type(self), (self.residual, self.preparation, self.reason)


@dataclass(frozen=True)
class RabiFit:
    """Raw density-matrix entries and shared frequency from a joint two-axis fit."""

    a: float
    b: float
    c: float
    d: float
    omega: float
    residual: float
    #: the fitted omega lies on the edge of the searched range [0.5, 1.5] * Omega
    at_edge: bool = False


@dataclass(frozen=True)
class StateEstimate:
    """Pure-state projection of a Rabi fit."""

    rho: DensityMatrix
    sigma: float


@dataclass(frozen=True)
class FidelityEstimate:
    """Figure-of-merit value and its sigma.

    ``sigma`` is (1/4) sqrt(pure-state projection residual) of the tomographic
    fit (see ``mle_project``): a distance of the fitted state from purity,
    not a standard error of ``value``.
    """

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
_COARSE_POINTS = 121  # omega grid over [0.5, 1.5] * rabi_frequency, built once per scan grid
_REFINE_TOL = 1e-12  # the refine stops after an omega step this small, relative to rabi_frequency
_REFINE_STEPS = 20  # cap on the steps of the refine, its first downhill grid step included
_X_THEN_Y_SIGNS = np.array([[1.0], [-1.0]])  # signs of c and b in the x and y curves' slopes
_CALIBRATION_REPEATS = 10  # scan pairs averaged by calibrate_scan: 820 x repetitions shots once per run


def _design(omegas: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Design matrices (k, 2n, 4) of the (s, q, c, b) model, with cos and sin (k, n)."""
    theta = np.multiply.outer(TWO_PI * omegas, times)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    design = np.zeros((omegas.size, 2, times.size, 4))  # x rows, then y rows
    design[..., 0] = 1.0
    design[..., 1] = cos_t[:, None]
    design[:, 0, :, 2] = -sin_t
    design[:, 1, :, 3] = sin_t
    return design.reshape(omegas.size, 2 * times.size, 4), cos_t, sin_t


def _varpro(
    omegas: np.ndarray, times: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear LSQ of (s, q, c, b) at each frequency: params (k, 4), SSE (k,), dSSE/dw (k,).

    ``target`` is (2n,), or (k, 2n) with one row per frequency.  One batched
    4x4 normal-equation solve.  The SSE sums the residual itself:
    ||y||^2 - p.A^T y cancels catastrophically near an exact fit.  Since
    A^T r = 0 at the solution, the derivative of the reduced SSE is exactly
    2 r^T (dA/dw) p (Golub & Pereyra 1973), with r = A p - y.
    """
    design, cos_t, sin_t = _design(omegas, times)
    design_t = design.transpose(0, 2, 1)
    params = np.linalg.solve(design_t @ design, design_t @ target[..., None])
    residual = (design @ params)[..., 0] - target
    # dA/dw p on the x rows, then the y rows: (q sin + c cos, q sin - b cos) * (-2 pi t)
    c_minus_b = params[:, 2:] * _X_THEN_Y_SIGNS  # (k, 2, 1)
    slope = -TWO_PI * times * (params[:, 1:2] * sin_t[:, None] + c_minus_b * cos_t[:, None])
    grad = 2.0 * (residual * slope.reshape(residual.shape)).sum(axis=1)
    return params[..., 0], (residual**2).sum(axis=1), grad


@functools.lru_cache(maxsize=4)
def _coarse_grid(times_bytes: bytes, rabi_frequency: float, omega: float | None = None) -> tuple[np.ndarray, ...]:
    """Coarse omegas over [0.5, 1.5] * rabi_frequency, or ``omega`` alone, with designs and (A^T A)^-1 A^T.

    None depends on the data, so one scan grid builds them once.
    """
    grid = (0.5 * rabi_frequency, 1.5 * rabi_frequency, _COARSE_POINTS)
    omegas = np.linspace(*grid) if omega is None else np.array([omega])
    design = _design(omegas, np.frombuffer(times_bytes))[0]
    design_t = design.transpose(0, 2, 1)
    pinv = np.linalg.solve(design_t @ design, design_t)
    for array in (omegas, design, pinv):
        array.flags.writeable = False
    return omegas, design, pinv


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

    The model is linear given w (separable least squares, variable
    projection; Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973).  The
    coarse step scores a 121-point grid over [0.5, 1.5] * rabi_frequency with
    design matrices and pseudo-inverses cached per (times, rabi_frequency).
    The refine takes secant steps on the exact gradient of the reduced SSE,
    from the best grid point and first one grid step downhill, clamped to
    that range.  It stops after a step of at most 1e-12 * rabi_frequency,
    when the last two gradients are equal, or after ``_REFINE_STEPS`` steps,
    and returns the lowest-SSE point visited, so the SSE never exceeds that
    of the best grid point.  ``at_edge`` flags a fitted w on the edge of the
    range (the minimum lies outside it).  A non-finite curve sample raises
    ``FitFailure``, and a rabi_frequency that is not positive and finite
    raises ``ContractError``.
    """
    times = np.asarray(times, dtype=float)
    x_curve = np.asarray(x_curve, dtype=float)
    y_curve = np.asarray(y_curve, dtype=float)
    if times.size < 8 or x_curve.shape != times.shape or y_curve.shape != times.shape:
        raise ContractError("curves must share a time grid of >= 8 points")
    if not (math.isfinite(rabi_frequency) and rabi_frequency > 0.0):
        raise ContractError("rabi_frequency must be positive and finite")
    fit = _fit_rows(np.concatenate([x_curve, y_curve])[None], times, rabi_frequency)[0]
    if isinstance(fit, FitFailure):
        raise fit
    return fit


def _fit_rows(targets: np.ndarray, times: np.ndarray, rabi_frequency: float, omega: float | None = None) -> list:
    """``fit_rabi`` of each row (x curve, then y curve) of ``targets`` (k, 2n), unchecked.

    At a known ``omega`` the fit is linear and has no search.  A failed row gives its ``FitFailure``.
    """
    omegas, design, pinv = _coarse_grid(times.tobytes(), float(rabi_frequency), omega)
    finite = np.isfinite(targets).all(axis=1)
    if omega is not None:  # a mat-vec per row, not one product of all rows, so no fit depends on the others
        params = pinv[0] @ targets[finite][..., None]
        sses = (((design[0] @ params)[..., 0] - targets[finite]) ** 2).sum(axis=1)
        fitted = zip(sses, params[..., 0])
        return [_rabi_fit(*next(fitted), omega, times.size) if ok else FitFailure(math.nan) for ok in finite]
    xtol = _REFINE_TOL * rabi_frequency
    fits: list[RabiFit | FitFailure] = []
    for target, ok in zip(targets, finite):
        if not ok:
            fits.append(FitFailure(math.nan))
            continue
        params = (pinv.reshape(-1, target.size) @ target).reshape(-1, 4)  # one product for all omegas
        sses = (((design @ params[..., None])[..., 0] - target) ** 2).sum(axis=1)
        k = int(np.argmin(sses))
        best = (sses[k], params[k], omegas[k])  # the lowest-SSE (sse, params, omega) visited
        w0, g0, w1 = math.nan, math.nan, float(omegas[k])
        for round_ in range(_REFINE_STEPS + 1):
            params, sses, grads = _varpro(np.array([w1]), times, target[None])
            g1 = float(grads[0])
            if sses[0] < best[0]:
                best = (sses[0], params[0], w1)
            if round_ == 0:
                step = -math.copysign(omegas[1] - omegas[0], g1)
            elif abs(w1 - w0) <= xtol or g1 == g0:
                break
            else:
                step = -g1 * (w1 - w0) / (g1 - g0)
            w0, g0, w1 = w1, g1, min(max(w1 + step, omegas[0]), omegas[-1])
        at_edge = bool(min(best[2] - omegas[0], omegas[-1] - best[2]) <= xtol)
        fits.append(_rabi_fit(*best, times.size, at_edge))
    return fits


def _rabi_fit(sse: float, params: np.ndarray, omega: float, n: int, at_edge: bool = False) -> RabiFit | FitFailure:
    """The fit of (s, q, c, b) at ``omega`` to two n-point curves, or its ``FitFailure`` above the rms threshold."""
    (s, q, c, b), rms = params, math.sqrt(sse / (2 * n))
    return FitFailure(rms) if rms > _RESIDUAL_THRESHOLD else RabiFit(
        float(s - q), float(b), float(c), float(s + q), float(omega), rms, at_edge
    )


# ---------------------------------------------------------------------------
# Pure-state projection


def mle_project(fit: RabiFit) -> StateEstimate:
    """Nearest pure state to the fitted entries, and its distance from them.

    The residual is the squared Frobenius distance ||M - P||^2 between the
    fitted matrix M and a pure state P, which equals ||M||^2 - 2 tr(M P) + 1;
    it is smallest for the projector onto the top eigenvector of M (the
    pure-state case of Smolin, Gambetta & Smith, PRL 108, 070502, 2012).
    That projector is P = (I + n.sigma)/2 with n = r/|r| and
    r = (2b, -2c, d - a); r = 0 gives |0>.  With M = s I + r.sigma/2 and
    s = (a + d)/2, the residual is the sum of squares
    2 (s - 1/2)^2 + (|r| - 1)^2 / 2 = ((a + d - 1)^2 + (|r| - 1)^2) / 2,
    which does not cancel the way ||M||^2 - 2 lambda_max + 1 does near a
    pure fit.  sigma = (1/4) sqrt(residual) measures how far the fit is
    from a pure state; it is not a standard error of the entries or of a
    fidelity read from them.
    """
    rx, ry, rz = 2.0 * fit.b, -2.0 * fit.c, fit.d - fit.a
    # u is r scaled exactly by a power of two, so a subnormal r keeps its direction
    scale = math.ldexp(1.0, math.frexp(max(abs(rx), abs(ry), abs(rz)))[1])
    ux, uy, uz = rx / scale, ry / scale, rz / scale
    length = math.hypot(ux, uy, uz)
    nx, ny, nz = 0.0, 0.0, 1.0
    if length > 0.0:
        nx, ny, nz = ux / length, uy / length, uz / length
    rho = DensityMatrix.from_entries(0.5 * (1.0 - nz), 0.5 * nx, -0.5 * ny, 0.5 * (1.0 + nz))
    residual = 0.5 * ((fit.a + fit.d - 1.0) ** 2 + (scale * length - 1.0) ** 2)
    return StateEstimate(rho=rho, sigma=0.25 * math.sqrt(residual))


# ---------------------------------------------------------------------------
# Plant-driven tomography and figures of merit


def state_tomography(plant: PlantInterface) -> StateEstimate:
    """Reconstruct the plant's current state from x and y Rabi scans."""
    times = default_rabi_times(plant.nominal.rabi_frequency)
    return mle_project(fit_rabi(*_scan_pair(plant, times), times, plant.nominal.rabi_frequency))


def _scan_pair(plant: PlantInterface, times: np.ndarray) -> tuple:
    """The x and then the y Rabi scan of the plant's current state."""
    return run_rabi_scan(plant, "x", times), run_rabi_scan(plant, "y", times)


def calibrate_scan(plant: PlantInterface) -> RabiFit:
    """The scan drive's Rabi frequency, measured once for a run: ``fit_rabi``'s free search on the mean
    of ``_CALIBRATION_REPEATS`` x and y scan pairs of |0> (a scan leaves the state as it was).

    A failed fit, or an omega on the edge of [0.5, 1.5] * Omega, raises ``FitFailure`` ("scan calibration: ...").
    """
    times = default_rabi_times(plant.nominal.rabi_frequency)
    plant.prepare(PreparationIndex.PSI_1)
    x_curve, y_curve = np.mean([_scan_pair(plant, times) for _ in range(_CALIBRATION_REPEATS)], axis=0)
    try:
        fit = fit_rabi(x_curve, y_curve, times, plant.nominal.rabi_frequency)
    except FitFailure as err:
        raise FitFailure(err.residual, "scan calibration") from err
    if fit.at_edge:
        reason = f"Rabi frequency outside [0.5, 1.5] x nominal (fitted {fit.omega:.4g} MHz, on the edge)"
        raise FitFailure(fit.residual, "scan calibration", reason)
    return fit


def state_transfer_fom(
    plant: PlantInterface,
    pulse: PulseWaveform,
    omega: float | None = None,
) -> FidelityEstimate:
    """F = reconstructed |-1> population after driving |0> with ``pulse``, fitted at ``omega`` if given."""
    (est,) = _tomograph_preparations(plant, pulse, (PreparationIndex.PSI_1,), omega=omega)
    return FidelityEstimate(value=est.rho.a, sigma=est.sigma)


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or np.max(np.abs(u.conj().T @ u - IDENTITY)) > 1e-9:
        raise ContractError("ideal gate must be a 2x2 unitary")
    return u


def _tomograph_preparations(
    plant: PlantInterface,
    pulse: PulseWaveform,
    preparations: tuple[PreparationIndex, ...],
    omega: float | None = None,
) -> list[StateEstimate]:
    """State estimates of ``preparations``, in order, after ``pulse``.

    The same pulse object is applied each time, so ``SimPlant`` propagates it
    once.  Every scan runs before one ``_fit_rows`` call, at ``omega`` if
    given; the first failing preparation's ``FitFailure`` names it.
    """
    if omega is not None and not (math.isfinite(omega) and omega > 0.0):
        raise ContractError("omega must be positive and finite")
    times = default_rabi_times(plant.nominal.rabi_frequency)
    targets = []
    for idx in preparations:
        plant.prepare(idx)
        plant.apply(pulse)
        targets.append(np.concatenate(_scan_pair(plant, times)))
    fits = _fit_rows(np.array(targets), times, plant.nominal.rabi_frequency, omega)
    for idx, fit in zip(preparations, fits):
        if isinstance(fit, FitFailure):
            raise FitFailure(fit.residual, f"preparation {idx.name}")
    return [mle_project(fit) for fit in fits]


def gate_fom(
    plant: PlantInterface,
    pulse: PulseWaveform,
    ideal_gate: np.ndarray,
    omega: float | None = None,
) -> FidelityEstimate:
    """Mean overlap F = (1/4) sum_i <G psi_i| rho_i |G psi_i> of the four outputs with the ideal gate's.

    Each input psi_i is prepared and driven with the candidate pulse, and its
    output rho_i is reconstructed by tomography, fitted at ``omega`` if given;
    F is the mean return probability <psi_i| G^dagger rho_i G |psi_i>.
    ``sigma`` is the mean of the four per-state sigmas, each a distance from
    purity (see ``mle_project``), not a standard error of F.
    """
    gate = _check_unitary(ideal_gate)
    estimates = _tomograph_preparations(plant, pulse, tuple(PreparationIndex), omega)
    ideals = (gate @ idx.state_vector() for idx in PreparationIndex)
    values = [float(np.real(phi.conj() @ est.rho.matrix @ phi)) for phi, est in zip(ideals, estimates)]
    # np.mean's reduction and division, without its wrapper; Python's sum() rounds differently from 3.12 on
    sigma = np.add.reduce(np.array([est.sigma for est in estimates])) / 4
    return FidelityEstimate(value=float(np.add.reduce(np.array(values)) / 4), sigma=float(sigma))


# ---------------------------------------------------------------------------
# Process tomography

# Maps the four measured preparation finals back to the "operator basis" finals
# E(|0><0|), E(|0><-1|), E(|-1><0|), E(|-1><-1|): row i of the inverted matrix is
# the i-th prepared state (PreparationIndex order), flattened in that order.
_PREP_MIX_INV = np.linalg.inv([idx.density_matrix().matrix.ravel() for idx in PreparationIndex])
_LAMBDA = 0.5 * np.block([[IDENTITY, SIGMA_X], [SIGMA_X, -IDENTITY]])


def chi_from_final_states(rho_finals) -> ChiMatrix:
    """Process matrix from the four measured output states.

    Inverts the preparation mixing to recover the operator-basis finals,
    arranges them as a 4x4 block matrix and sandwiches it between the
    reconstruction matrices.  Linear in its inputs.
    """
    mats = [np.asarray(getattr(r, "matrix", r), dtype=complex) for r in rho_finals]
    return _unmixed_chi(mats, _PREP_MIX_INV, _LAMBDA)


def _unmixed_chi(mats: list[np.ndarray], mix_inv: np.ndarray, sandwich: np.ndarray) -> ChiMatrix:
    """Unmix the four finals with ``mix_inv``, block them 2x2 and sandwich the block."""
    if len(mats) != 4:
        raise ContractError("need exactly four final states, ordered by PreparationIndex")
    combos = [sum(mix_inv[j, i] * mats[i] for i in range(4)) for j in range(4)]
    block = np.block([[combos[0], combos[1]], [combos[2], combos[3]]])
    return ChiMatrix(sandwich @ block @ sandwich)


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
    mats = [_SWAP @ np.asarray(getattr(r, "matrix", r), dtype=complex) @ _SWAP for r in rho_finals]
    return _unmixed_chi(mats, _M_PUBLISHED_INV, _BETA_PUBLISHED)


def chi_construction_discrepancy() -> float:
    """Max deviation of the as-published construction on the identity process.

    The corrected construction returns the exact single-unit-entry chi; a
    non-zero value here quantifies how far the literal published formula is
    from that reference.  Surfaced in QPT reports rather than silently
    patched.
    """
    finals = [idx.density_matrix() for idx in PreparationIndex]
    published = chi_matrix_as_published(finals).matrix
    return float(np.max(np.abs(published - analytic_chi_of_unitary(IDENTITY).matrix)))


def analytic_chi_of_unitary(u: np.ndarray) -> ChiMatrix:
    """chi_mn = alpha_m alpha_n* for U = sum_m alpha_m e_m (exact oracle input)."""
    u = _check_unitary(u)
    alpha = np.array(
        [np.trace(e.conj().T @ u) / np.trace(e.conj().T @ e) for e in CHI_BASIS]
    )
    return ChiMatrix(np.outer(alpha, alpha.conj()))


def process_tomography(plant: PlantInterface, pulse: PulseWaveform) -> ChiMatrix:
    """Full process tomography of ``pulse``: calibrate the plant's scan drive, then fit all four preparations at it."""
    estimates = _tomograph_preparations(plant, pulse, tuple(PreparationIndex), omega=calibrate_scan(plant).omega)
    return chi_from_final_states([est.rho for est in estimates])

