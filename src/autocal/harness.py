"""Reproduction harness: parameter scans, demo runs, and file outputs.

Everything here is plumbing around the library: deterministic per-cell
seeding, flat-file outputs (CSV / JSON / JSON-lines), and manifests that
make every run reproducible bit-for-bit in noiseless mode.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .dcrab import (
    DcrabConfig,
    OptimizationResult,
    evaluate_pulse_open_loop,
    run_dcrab,
)
from .plant import SimPlant, SimPlantConfig
from .qubit import GATE_G, ContractError, PlantParams, PulseWaveform
from .tomography import (
    ChiMatrix,
    FitFailure,
    analytic_chi_of_unitary,
    chi_construction_discrepancy,
    process_tomography,
)

DEFAULT_RABI_FREQUENCY = 1.0  # MHz; dynamics depend only on the relative quantities
COMPARISON_T_REL = 1.5  # T / T_pi of the scan row whose pulses the open-loop comparison reads


def derived_seed(master: int, *key: int) -> int:
    """Deterministic child seed from a master seed and integer coordinates."""
    return int(np.random.SeedSequence(entropy=(master, *key)).generate_state(1)[0])


def params_from_relative(t_rel: float, det_rel: float, rabi: float = DEFAULT_RABI_FREQUENCY) -> PlantParams:
    if not (math.isfinite(rabi) and rabi > 0.0):
        raise ContractError("rabi_frequency must be positive and finite")
    t_pi = 1.0 / (2.0 * rabi)
    return PlantParams(rabi_frequency=rabi, detuning=det_rel * rabi, duration=t_rel * t_pi)


# ---------------------------------------------------------------------------
# Pulse CSV round trip


def save_pulse_csv(pulse: PulseWaveform, path: Path | str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_us", "X", "Y"])
        for t, x, y in zip(pulse.times, pulse.x, pulse.y):
            writer.writerow([repr(float(t)), repr(float(x)), repr(float(y))])


def load_pulse_csv(path: Path | str) -> PulseWaveform:
    """Read a ``t_us,X,Y`` pulse file; any malformed content is a ``ContractError``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:  # a decode error in a later chunk is a ValueError, caught below
            header = next(reader, None)
        except UnicodeDecodeError as err:
            raise ContractError(f"pulse CSV {path}: {err}") from err
        if header is None:
            raise ContractError(f"pulse CSV {path} is empty")
        if header != ["t_us", "X", "Y"]:
            raise ContractError(f"unexpected pulse CSV header {header!r} in {path}")
        try:
            rows = [[float(v) for v in row] for row in reader if row]
        except ValueError as err:
            raise ContractError(f"pulse CSV {path}: {err}") from err
    if len(rows) < 2 or any(len(row) != 3 for row in rows):
        raise ContractError(f"pulse CSV {path} needs at least two rows of three numbers")
    data = np.array(rows)
    t = data[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite or overflowing step fails a check below
        steps = np.diff(t)
    if not np.all(steps > 0.0):
        raise ContractError(f"pulse CSV {path}: times must be strictly increasing")
    dt = steps[0]
    if not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
        raise ContractError(f"pulse CSV {path} requires a uniform time grid")
    if abs(t[0]) > 1e-12 + 1e-9 * dt:  # the grid check's tolerance, for the step from 0
        raise ContractError(f"pulse CSV {path}: times must start at 0, not {float(t[0])!r}")
    duration = float(t[-1]) + float(dt)  # Python floats: an overflow gives inf, and numpy does not warn
    if not math.isfinite(duration):
        raise ContractError(f"pulse CSV {path}: times and the duration they span must be finite")
    return PulseWaveform(duration, data[:, 1], data[:, 2])


# ---------------------------------------------------------------------------
# Optimization-result outputs


def _output_dir(out_dir: Path | str) -> Path:
    """``out_dir`` with ``..`` resolved; it, or else its nearest existing ancestor, must be a directory."""
    out = Path(out_dir).resolve()
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"output directory {out_dir}: {existing} is not a directory")
    return out


def output_file(path: Path | str) -> Path:
    """``path`` with ``..`` resolved, checked before the work that fills it: in a directory, and not one."""
    out = Path(path).resolve()
    if out.is_dir() or not out.parent.is_dir():
        raise NotADirectoryError(f"output file {path}: must name a file in an existing directory")
    return out


def write_trace_jsonl(result: OptimizationResult, path: Path | str) -> None:
    """One row per evaluation: its index, then the ``EvaluationRecord`` fields in their order."""
    with open(path, "w") as fh:
        for index, rec in enumerate(result.records):
            fh.write(json.dumps({"index": index, **vars(rec)}, default=np.ndarray.tolist) + "\n")


def write_summary_json(result: OptimizationResult, path: Path | str, rabi_frequency: float) -> None:
    """The run's outcome; the scan calibration's omega is written relative to ``rabi_frequency``."""
    cal = result.calibration
    summary = {
        "loop_kind": "closed-loop",
        "data_kind": "experimental-sim",
        "best_fidelity": result.best_fidelity.value,
        "best_sigma": result.best_fidelity.sigma,
        "n_evaluations": result.n_evaluations,
        "n_failed_evaluations": len(result.failures),
        "scan_omega_rel": None if cal is None else cal.omega / rabi_frequency,
        "scan_calibration_rms": None if cal is None else cal.residual,
        "frozen_terms": [vars(term) for term in result.ledger.frozen],
    }
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, default=np.ndarray.tolist)


def write_manifest(path: Path | str, **resolved) -> None:
    with open(path, "w") as fh:
        json.dump(resolved, fh, indent=2, default=str)


def write_chi_json(chi: ChiMatrix, path: Path | str) -> None:
    """Measured chi beside the ideal G gate's chi and the published formula's deviation."""
    report = {
        **chi.to_json_dict(),
        "ideal_chi": analytic_chi_of_unitary(GATE_G).to_json_dict(),
        "published_formula_identity_deviation": chi_construction_discrepancy(),
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)


# ---------------------------------------------------------------------------
# Demo runs


# CLI verb -> (figure of merit, plant seed key); the verb also names the manifest
_DEMOS = {"invert": ("state-transfer", 1), "gate": ("gate", 2)}


def _run_demo(
    command: str,
    config: DcrabConfig,
    det_rel: float,
    t_rel: float,
    noisy: bool,
    shots: int,
    out_dir: Path | str | None,
) -> tuple[OptimizationResult, ChiMatrix | None]:
    """One closed-loop run on a fresh plant; a gate run adds process tomography."""
    fom, seed_key = _DEMOS[command]
    out = None if out_dir is None else _output_dir(out_dir)
    params = params_from_relative(t_rel, det_rel)
    plant = SimPlant(
        params,
        SimPlantConfig(
            noiseless=not noisy,
            repetitions=shots,
            seed=derived_seed(config.seed, seed_key),
        ),
    )
    result = run_dcrab(plant, fom, config)
    chi = process_tomography(plant, result.best_pulse) if command == "gate" else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_trace_jsonl(result, out / "trace.jsonl")
        write_summary_json(result, out / "summary.json", params.rabi_frequency)
        save_pulse_csv(result.best_pulse, out / "best_pulse.csv")
        if chi is not None:
            write_chi_json(chi, out / "chi.json")
        write_manifest(
            out / "manifest.json",
            command=command,
            det_rel=det_rel,
            t_rel=t_rel,
            noisy=noisy,
            shots=shots,
            rabi_frequency=params.rabi_frequency,
            dcrab=asdict(config),
            plant_seed=plant.config.seed,
        )
    return result, chi


def run_state_transfer_demo(
    config: DcrabConfig,
    det_rel: float,
    *,
    t_rel: float,
    noisy: bool = False,
    shots: int = 10_000,
    out_dir: Path | str | None = None,
) -> OptimizationResult:
    return _run_demo("invert", config, det_rel, t_rel, noisy, shots, out_dir)[0]


def run_gate_demo(
    config: DcrabConfig,
    det_rel: float,
    *,
    t_rel: float = 1.5,
    noisy: bool = False,
    shots: int = 10_000,
    out_dir: Path | str | None = None,
) -> tuple[OptimizationResult, ChiMatrix]:
    return _run_demo("gate", config, det_rel, t_rel, noisy, shots, out_dir)


# ---------------------------------------------------------------------------
# Parameter scan


@dataclass(frozen=True)
class ScanSpec:
    t_rels: tuple[float, ...] = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
    det_rels: tuple[float, ...] = (0.0, 0.2, 0.5, 1.0, 2.0, 4.0, 6.0, 10.0)
    runs: int = 20
    base_config: DcrabConfig = field(default_factory=DcrabConfig)

    def __post_init__(self) -> None:
        if not self.t_rels or not self.det_rels:
            raise ContractError("scan grids must be non-empty")
        if not all(0 < v < math.inf for v in self.t_rels) or not all(0 <= v < math.inf for v in self.det_rels):
            raise ContractError("grid values must be finite, t_rels > 0 and det_rels >= 0")
        if self.runs < 1:
            raise ContractError("runs must be >= 1")
        for name, grid in (("t_rels", self.t_rels), ("det_rels", self.det_rels)):
            labels = [f"{v:g}" for v in grid]  # as in the pulse file names
            if clashes := [label for label in labels if labels.count(label) > 1]:
                raise ContractError(f"{name} values share the pulse file name {clashes[0]!r}")


@dataclass
class ScanResult:
    t_rels: tuple[float, ...]
    det_rels: tuple[float, ...]
    mean: np.ndarray
    std: np.ndarray
    best: np.ndarray
    failed: np.ndarray
    best_pulses: dict[tuple[int, int], PulseWaveform] = field(default_factory=dict)

    def to_csv(self, path: Path | str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_rel", "det_rel", "mean", "std", "best"])
            for i, t in enumerate(self.t_rels):
                for j, d in enumerate(self.det_rels):
                    writer.writerow(
                        [t, d] + [repr(float(m[i, j])) for m in (self.mean, self.std, self.best)]
                    )


def _scan_run(job: tuple[PlantParams, DcrabConfig]) -> tuple[float, PulseWaveform | None]:
    """One seeded run of a scan cell: its best fidelity and pulse, or 0 and no pulse if it failed."""
    params, config = job
    plant = SimPlant(params, SimPlantConfig(noiseless=True, seed=0))
    try:
        result = run_dcrab(plant, "state-transfer", config)
    except (FitFailure, ContractError):  # score 0, counted in ``failed``
        return 0.0, None
    return result.best_fidelity.value, result.best_pulse


def run_scan(spec: ScanSpec, workers: int = 1, out_dir: Path | str | None = None) -> ScanResult:
    """Seeded DCRAB state-transfer runs over the (T/T_pi, Delta/Omega) grid.

    Per-run seeds derive from (``base_config.seed``, cell coordinates, run
    index), so results are independent of execution order and worker count.
    """
    if workers < 1:
        raise ContractError("workers must be >= 1")
    out = None if out_dir is None else _output_dir(out_dir)
    shape = (len(spec.t_rels), len(spec.det_rels))
    keys = list(np.ndindex(shape + (spec.runs,)))
    jobs = [
        (
            params_from_relative(spec.t_rels[i], spec.det_rels[j]),
            replace(spec.base_config, seed=derived_seed(spec.base_config.seed, i, j, run)),
        )
        for i, j, run in keys
    ]
    workers = min(workers, len(jobs))  # under fork a pool starts every worker up front, busy or not
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # lazily: only a pool needs multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_scan_run, jobs, chunksize=1))
    else:
        outcomes = [_scan_run(job) for job in jobs]

    values = np.zeros(shape + (spec.runs,))
    failed = np.zeros(shape, dtype=int)
    best_pulses: dict[tuple[int, int], PulseWaveform] = {}
    best_values: dict[tuple[int, int], float] = {}
    for (i, j, run), (value, pulse) in zip(keys, outcomes):
        values[i, j, run] = value
        if pulse is None:
            failed[i, j] += 1
        elif value > best_values.get((i, j), -1.0):
            best_values[(i, j)] = value
            best_pulses[(i, j)] = pulse

    result = ScanResult(
        t_rels=spec.t_rels,
        det_rels=spec.det_rels,
        mean=values.mean(axis=2),
        std=values.std(axis=2),
        best=values.max(axis=2),
        failed=failed,
        best_pulses=best_pulses,
    )
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        result.to_csv(out / "scan.csv")
        for (i, j), pulse in best_pulses.items():
            save_pulse_csv(pulse, out / f"pulse_t{spec.t_rels[i]:g}_d{spec.det_rels[j]:g}.csv")
        write_manifest(
            out / "manifest.json",
            command="scan",
            t_rels=list(spec.t_rels),
            det_rels=list(spec.det_rels),
            runs=spec.runs,
            rabi_frequency=DEFAULT_RABI_FREQUENCY,
            dcrab=asdict(spec.base_config),
        )
    return result


# ---------------------------------------------------------------------------
# Open-loop vs closed-loop comparison


def run_openloop_comparison(
    scan_dir: Path | str,
    amplitude_scale: float,
    detuning_offset_rel: float,
    config: DcrabConfig | None = None,
    runs: int = 5,
    out_path: Path | str | None = None,
) -> list[dict]:
    """Compare nominal-optimized pulses on a perturbed plant to closed-loop runs.

    Loads the best pulse per detuning from a completed nominal scan
    (``COMPARISON_T_REL`` row), evaluates it open-loop under the perturbation, and runs
    fresh closed-loop optimizations against the perturbed plant, seeded from
    ``config.seed``.  With ``out_path``, the table goes there and its
    manifest to ``<out_path>.manifest.json``.
    """
    if runs < 1:
        raise ContractError("runs must be >= 1")
    out_path = None if out_path is None else output_file(out_path)
    scan_dir = Path(scan_dir)
    manifest_path = scan_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no scan manifest in {scan_dir}")
    try:
        manifest = json.loads(manifest_path.read_text())
        rabi, det_rels = float(manifest["rabi_frequency"]), [float(d) for d in manifest["det_rels"]]
    except (ValueError, KeyError, TypeError) as err:
        raise ContractError(f"bad scan manifest {manifest_path}: {err!r}") from err
    if not det_rels:
        raise ContractError(f"scan manifest {manifest_path} lists no det_rels")
    config = config or DcrabConfig()
    rows = []
    for j, det_rel in enumerate(det_rels):
        pulse_path = scan_dir / f"pulse_t{COMPARISON_T_REL:g}_d{det_rel:g}.csv"
        if not pulse_path.exists():
            raise FileNotFoundError(f"missing scan pulse {pulse_path}")
        pulse = load_pulse_csv(pulse_path)
        nominal = params_from_relative(COMPARISON_T_REL, det_rel, rabi)
        # the perturbed plant: the open-loop model and every closed-loop run see this one truth
        truth = SimPlantConfig(detuning_offset=detuning_offset_rel * rabi, amplitude_scale=amplitude_scale)
        open_loop = evaluate_pulse_open_loop(
            pulse, SimPlant(nominal, truth).true_params, "state-transfer", amplitude_scale=amplitude_scale
        )
        closed_vals = []
        for run in range(runs):
            cfg = replace(config, seed=derived_seed(config.seed, j, run))
            closed_vals.append(run_dcrab(SimPlant(nominal, truth), "state-transfer", cfg).best_fidelity.value)
        rows.append(
            {
                "det_rel": det_rel,
                "open_loop_fidelity": open_loop.value,
                "closed_loop_mean": float(np.mean(closed_vals)),
                "closed_loop_std": float(np.std(closed_vals)),
                "runs": runs,
            }
        )
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        write_manifest(
            Path(str(out_path) + ".manifest.json"),
            command="compare-openloop",
            scan=str(scan_dir),
            amp_scale=amplitude_scale,
            detuning_offset_rel=detuning_offset_rel,
            runs=runs,
            t_rel=COMPARISON_T_REL,
            dcrab=asdict(config),
        )
    return rows
