"""Closed-loop pulse optimization in a dressed randomized trigonometric basis.

Each super-iteration draws fresh randomized frequencies, optimizes the new
term's coefficients with a Nelder-Mead simplex over measured figures of
merit, then freezes them.  The assembled update is windowed to vanish at
t = 0 and t = T, and the running best never decreases.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .plant import PlantInterface, PreparationIndex
from .qubit import (
    ContractError,
    GATE_G,
    PlantParams,
    PulseWaveform,
    clip_amplitudes,
    driven_propagator,
)
from .tomography import FidelityEstimate, FitFailure, RabiFit, calibrate_scan, gate_fom, state_transfer_fom

log = logging.getLogger(__name__)

COEFFICIENT_SCALE = 1.0  # every simplex's initial step along each coefficient
SIMPLEX_TOL = 0.01  # the simplex diameter that ends a super-iteration's search


@dataclass(frozen=True)
class DcrabConfig:
    n_components: int = 1
    superiterations: int = 6
    max_evals_per_superiteration: int = 40
    target_fidelity: float = 0.99
    seed: int = 0
    n_t: int = 1000

    def __post_init__(self) -> None:
        if self.n_components < 1 or self.superiterations < 1:
            raise ContractError("n_components and superiterations must be >= 1")
        if self.max_evals_per_superiteration < 4 * self.n_components + 1:
            raise ContractError("evaluation budget must cover the initial simplex")
        if not 0.0 < self.target_fidelity <= 1.0:
            raise ContractError("target_fidelity must lie in (0, 1]")
        if self.n_t < 2:
            raise ContractError("n_t must be >= 2")
        if self.seed < 0:
            raise ContractError("seed must be >= 0")


@dataclass(frozen=True, eq=False)
class BasisTerm:
    """Randomized frequencies and coefficients of one super-iteration's term.

    Frequencies obey omega_n = 2 pi (n + r) / T with |r| < 0.5, independently
    per channel and per component.  Terms compare by identity.
    """

    freqs_x: np.ndarray
    freqs_y: np.ndarray
    coeffs: np.ndarray  # layout: a_x[0..N), b_x[0..N), a_y[0..N), b_y[0..N)

    @property
    def n_components(self) -> int:
        return self.freqs_x.size

    def checked_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """``coeffs`` as floats, checked to fit this term: length 4N."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (4 * self.n_components,):
            raise ContractError("coefficient vector must have length 4N")
        return coeffs

    def with_coeffs(self, coeffs: np.ndarray) -> "BasisTerm":
        return replace(self, coeffs=self.checked_coeffs(coeffs).copy())

    def basis(self, times: np.ndarray) -> tuple[np.ndarray, ...]:
        """sin and cos of the X phases, then of the Y phases: four (N, n_t) arrays."""
        phase_x = np.outer(self.freqs_x, times)
        phase_y = np.outer(self.freqs_y, times)
        return np.sin(phase_x), np.cos(phase_x), np.sin(phase_y), np.cos(phase_y)

    def channel_profiles(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unwindowed sum over components for the X and Y channels."""
        return _weigh(self.coeffs, self.basis(times))


def _weigh(coeffs: np.ndarray, basis: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """X and Y profiles: each coefficient block weighs its rows of ``BasisTerm.basis``."""
    n = basis[0].shape[0]
    ax, bx, ay, by = (coeffs[i * n : (i + 1) * n] for i in range(4))
    sin_x, cos_x, sin_y, cos_y = basis
    return ax @ sin_x + bx @ cos_x, ay @ sin_y + by @ cos_y


def draw_basis(n_components: int, duration: float, rng: np.random.Generator) -> BasisTerm:
    """Fresh randomized-frequency term with zero coefficients."""
    if duration <= 0.0:
        raise ContractError("duration must be positive")

    def freqs() -> np.ndarray:
        r = rng.uniform(-0.5, 0.5, size=n_components)
        while np.any(np.abs(r) >= 0.5):  # exclusive band edges
            bad = np.abs(r) >= 0.5
            r[bad] = rng.uniform(-0.5, 0.5, size=int(bad.sum()))
        return 2.0 * math.pi * (np.arange(n_components) + r) / duration

    return BasisTerm(freqs_x=freqs(), freqs_y=freqs(), coeffs=np.zeros(4 * n_components))


@dataclass
class DcrabLedger:
    """Frozen super-iteration terms plus the active one, on ``n_t`` samples over ``duration``.

    The guess pulse contributes a constant unit amplitude envelope assigned
    to the X channel; the multiplicative update g is windowed by
    w(t) = sin(pi t / T) so it vanishes identically at t = 0 and t = T.
    """

    duration: float
    n_t: int
    frozen: list[BasisTerm] = field(default_factory=list)
    active: BasisTerm | None = None
    # what the terms and the grid fix, built once per super-iteration:
    # (key: the terms themselves, duration and n_t; frozen gx, frozen gy, window, active basis)
    _cache: tuple = field(default=(None,), init=False, repr=False, compare=False)

    def update_profiles(self, active_coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Windowed update g per channel: frozen terms plus the active term at ``active_coeffs``."""
        key = (*self.frozen, self.active, (self.duration, self.n_t))
        if self._cache[0] != key:
            times = np.arange(self.n_t) * (self.duration / self.n_t)
            gx = np.zeros_like(times)
            gy = np.zeros_like(times)
            for term in self.frozen:
                tx, ty = term.channel_profiles(times)
                gx += tx
                gy += ty
            self._cache = (key, gx, gy, np.sin(math.pi * times / self.duration), self.active.basis(times))
        _, gx, gy, w, basis = self._cache
        tx, ty = _weigh(self.active.checked_coeffs(active_coeffs), basis)
        return w * (gx + tx), w * (gy + ty)


def assemble_pulse(ledger: DcrabLedger, active_coeffs: np.ndarray) -> PulseWaveform:
    """The ledger's waveform at the given active coefficients, amplitude constraint enforced.

    Samples where the raw |X + Y| exceeds 1 are rescaled (both channels) by
    1 / |X + Y|.
    """
    if ledger.active is None:
        raise ContractError("ledger has no active term")
    gx, gy = ledger.update_profiles(active_coeffs)
    # guess envelope is identically 1, so the channels are the windowed sums
    return PulseWaveform(ledger.duration, *clip_amplitudes(gx, gy))


# ---------------------------------------------------------------------------
# Nelder-Mead simplex search (maximizing)


@dataclass
class NelderMeadResult:
    best_x: np.ndarray
    best_value: float
    trace: list[float]


class _Stop(Exception):
    """Ends the simplex search: the budget is spent or the target reached."""


def nelder_mead(
    objective,
    x0: np.ndarray,
    scale: float,
    max_evals: int,
    tol: float,
    target: float | None = None,
) -> NelderMeadResult:
    """Maximize ``objective`` with a standard simplex search.

    The initial simplex is ``x0`` plus one vertex offset by ``scale`` along
    each axis.  Coefficients: reflection 1, expansion 2, contraction 0.5,
    shrink 0.5.  Terminates when the simplex diameter drops below ``tol``,
    the evaluation budget is spent, or the best value reaches ``target``.
    An objective returning NaN scores 0 and is logged.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    if max_evals < dim + 1:
        raise ContractError("max_evals must cover the initial simplex")

    trace: list[float] = []

    def f(x: np.ndarray) -> float:
        if len(trace) >= max_evals:
            raise _Stop
        value = float(objective(x))
        if math.isnan(value):
            log.warning("objective returned NaN; scoring 0")
            value = 0.0
        trace.append(value)
        return value

    vertices = np.tile(x0, (dim + 1, 1))
    for i in range(dim):
        vertices[i + 1, i] += scale
    # vertices not yet scored when the target stops the search never win the argmax
    values = np.full(dim + 1, -math.inf)

    def put(i: int, x: np.ndarray, value: float) -> None:
        vertices[i], values[i] = x, value
        if target is not None and value >= target:
            raise _Stop

    try:
        for i, v in enumerate(vertices):
            put(i, v, f(v))
        while len(trace) < max_evals:
            order = np.argsort(-values)  # descending: best first
            vertices = vertices[order]
            values = values[order]
            if np.max(np.abs(vertices[1:] - vertices[0])) < tol:
                break
            centroid = np.add.reduce(vertices[:-1]) / dim  # np.mean's row-by-row sum and division
            worst = values[-1]
            reflected = centroid + (centroid - vertices[-1])
            fr = f(reflected)
            # every stored value is below the target, so a reflection that
            # reaches it is stored by one of the next two branches
            if fr > values[0]:
                # from the worst vertex, so before the reflection replaces it
                expanded = centroid + 2.0 * (centroid - vertices[-1])
                put(-1, reflected, fr)
                fe = f(expanded)
                if fe > fr:
                    put(-1, expanded, fe)
                continue
            if fr > values[-2]:
                put(-1, reflected, fr)
                continue
            outside = fr > worst
            if outside:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid + 0.5 * (vertices[-1] - centroid)
            fc = f(contracted)
            # inside contraction must improve strictly on the worst vertex,
            # otherwise the simplex shrinks; prevents stalling on flat landscapes
            if (outside and fc >= fr) or (not outside and fc > worst):
                put(-1, contracted, fc)
                continue
            # shrink toward the best vertex
            for i in range(1, len(vertices)):
                shrunk = vertices[0] + 0.5 * (vertices[i] - vertices[0])
                put(i, shrunk, f(shrunk))
    except _Stop:
        pass
    i = int(np.argmax(values))
    return NelderMeadResult(vertices[i].copy(), float(values[i]), trace)


# ---------------------------------------------------------------------------
# Figures of merit and the closed loop


def make_fom(kind: str, omega: float | None = None):
    """Figure-of-merit callable (plant, pulse) -> FidelityEstimate, fitting at ``omega`` if given.

    The FoM function is looked up in this module at each call and given ``omega``
    as a keyword, so a replacement patched onto the module attribute sees every evaluation.
    """
    if _check_kind(kind) == "state-transfer":
        return lambda plant, pulse: state_transfer_fom(plant, pulse, omega=omega)
    return lambda plant, pulse: gate_fom(plant, pulse, GATE_G, omega=omega)


def _check_kind(kind: str) -> str:
    if kind not in ("state-transfer", "gate"):
        raise ContractError(f"unknown figure-of-merit kind {kind!r}")
    return kind


@dataclass
class EvaluationRecord:
    superiteration: int
    coefficients: np.ndarray
    value: float
    sigma: float
    running_best: float


@dataclass
class OptimizationResult:
    best_pulse: PulseWaveform
    best_fidelity: FidelityEstimate
    records: list[EvaluationRecord]
    ledger: DcrabLedger
    calibration: RabiFit | None  # the scan calibration's fit; None for a callable figure of merit
    failures: list[FitFailure]  # of the evaluations that failed and scored 0, in order

    @property
    def fom_trace(self) -> np.ndarray:
        """Raw per-evaluation measured figure of merit (the 'red' trace)."""
        return np.array([r.value for r in self.records])

    @property
    def running_best_trace(self) -> np.ndarray:
        """Non-decreasing best-so-far trace (the 'blue' trace)."""
        return np.array([r.running_best for r in self.records])

    @property
    def n_evaluations(self) -> int:
        return len(self.records)


def run_dcrab(
    plant: PlantInterface,
    fom,
    config: DcrabConfig,
) -> OptimizationResult:
    """Run the full closed loop against ``plant``.

    ``fom`` is either a selector string ('state-transfer' or 'gate') or a
    callable (plant, pulse) -> FidelityEstimate.  A selector first runs
    ``calibrate_scan``, whose failure fails the run, and every evaluation
    fits at its omega.  Each super-iteration starts from zero active
    coefficients, so its first evaluation reproduces the previous best pulse
    exactly; completed terms are frozen verbatim.  A failed evaluation
    scores 0 and is logged; if all failed, the run raises the first.
    """
    calibration = None
    if isinstance(fom, str):
        _check_kind(fom)  # an unknown kind fails before the calibration spends a scan
        calibration = calibrate_scan(plant)
        fom = make_fom(fom, calibration.omega)
    rng = np.random.default_rng(config.seed)
    ledger = DcrabLedger(duration=plant.nominal.duration, n_t=config.n_t)

    records: list[EvaluationRecord] = []
    failures: list[FitFailure] = []
    best_estimate: FidelityEstimate | None = None
    best_pulse: PulseWaveform | None = None
    superiteration = 0

    def objective(coeffs: np.ndarray) -> float:
        nonlocal best_estimate, best_pulse
        pulse = assemble_pulse(ledger, coeffs)
        try:
            estimate = fom(plant, pulse)
        except FitFailure as err:
            log.warning("evaluation failed (%s); scoring 0", err)
            failures.append(err)
            estimate = FidelityEstimate(0.0, 0.0)
        if best_estimate is None or estimate.value > best_estimate.value:
            best_estimate = estimate
            best_pulse = pulse
        records.append(
            EvaluationRecord(
                superiteration=superiteration,
                coefficients=np.asarray(coeffs, dtype=float).copy(),
                value=estimate.value,
                sigma=estimate.sigma,
                running_best=best_estimate.value,
            )
        )
        return estimate.value

    for superiteration in range(config.superiterations):
        ledger.active = draw_basis(config.n_components, ledger.duration, rng)
        nm = nelder_mead(
            objective,
            np.zeros(4 * config.n_components),
            COEFFICIENT_SCALE,
            config.max_evals_per_superiteration,
            SIMPLEX_TOL,
            target=config.target_fidelity,
        )
        ledger.frozen.append(ledger.active.with_coeffs(nm.best_x))
        ledger.active = None
        if best_estimate is not None and best_estimate.value >= config.target_fidelity:
            break

    if len(failures) == len(records):  # every evaluation failed, or none ran; a raise survives python -O
        raise failures[0] if failures else RuntimeError("no evaluation produced a figure of merit to keep")
    return OptimizationResult(
        best_pulse=best_pulse,
        best_fidelity=best_estimate,
        records=records,
        ledger=ledger,
        calibration=calibration,
        failures=failures,
    )


def evaluate_pulse_open_loop(
    pulse: PulseWaveform,
    params: PlantParams,
    fom: str = "state-transfer",
    amplitude_scale: float = 1.0,
) -> FidelityEstimate:
    """Exact noiseless model evaluation of a fixed pulse.

    Used for the open-loop comparison: the pulse is judged against the given
    (possibly perturbed) parameters without any feedback, after the drive
    chain of ``SimPlant.apply`` at gain ``amplitude_scale``.  The gate FoM is
    ``gate_fom``'s F at the exact outputs: the mean of |<G psi|U psi>|^2.
    """
    u = driven_propagator(pulse, params, amplitude_scale)
    if _check_kind(fom) == "state-transfer":
        value = abs(u[1, 0]) ** 2
    else:
        probs = []
        for idx in PreparationIndex:
            psi = idx.state_vector()
            probs.append(abs(psi.conj() @ GATE_G.conj().T @ u @ psi) ** 2)
        value = float(np.mean(probs))
    return FidelityEstimate(value=value, sigma=0.0)
