"""The benchmark's workloads: which ``autocal`` commands each one runs, and
the exact-model oracle every command's outputs must pass.

An operation (op) is one CLI command.  A workload hands out ops in rounds;
every op input (detuning, DCRAB seed) comes from the workload seed.
"""

from __future__ import annotations

import csv
import json
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import autocal.dcrab
import autocal.harness
import autocal.tomography
from autocal.dcrab import evaluate_pulse_open_loop
from autocal.harness import load_pulse_csv, params_from_relative
from autocal.qubit import total_propagator
from autocal.tomography import analytic_chi_of_unitary

T_REL = 1.5
STATE_DET_RELS = (0.2, 1.0, 2.0)
GATE_DET_REL = 0.7
# Five times the default AWG grid: propagating the four preparations is then
# about 14% of the run, against 4% on the state-transfer workloads.  At 20000
# samples it is 36%, but the run median of eval_ms then varied by up to 0.2
# of itself between runs on a shared 2-vCPU VM, as the vectorised
# propagation slows with other tenants' memory traffic.
GATE_SAMPLES = 5000
SCAN_RUNS = 4

# Largest |reported best fidelity - exact fidelity of the saved best pulse|.
# Noiseless runs agree to ~1e-13; at 1e4 shots the largest gap seen was 4.9e-4.
NOISELESS_TOL = 1e-9
SHOT_NOISE_TOL = 5e-3
CHI_TOL = 1e-9

# Grid keys only: everything the command line also sets stays off the file,
# so the workload does not depend on file-versus-flag precedence.
SCAN_CONFIG = f"[scan]\nt_rels = {T_REL}\ndet_rels = {', '.join(map(str, STATE_DET_RELS))}\n"


class OracleFailure(RuntimeError):
    """An op's outputs disagree with the exact model."""


@dataclass(frozen=True)
class Op:
    seed: int
    det_rel: float | None = None


@dataclass(frozen=True)
class Outcome:
    """What an op reported, once its outputs passed the oracle."""

    evals: int
    best: tuple[float, ...]  # reported best fidelities: one per op, one per cell for a scan
    calibrated: tuple[bool, ...]  # target reached: one per DCRAB run
    steps: tuple[float, ...]  # seconds from one FoM evaluation's start to the next, within a DCRAB run
    notes: tuple[str, ...] = ()  # output defects that leave the values intact


class DcrabLog:
    """Appends one JSON line per DCRAB run to ``path``: evaluations, best
    fidelity, and the time between consecutive FoM evaluation starts.

    It replaces the ``run_dcrab`` that ``autocal.harness`` calls and the FoM
    functions that ``autocal.dcrab`` calls, and forwards each call to the
    function the defining module holds at that moment, so a tracer installed
    before or after still sees every call.  A scan writes no evaluation
    trace; its pool workers are forked from this process and so inherit the
    wrappers and the current ``path``.
    """

    FOMS = ("state_transfer_fom", "gate_fom")

    def __init__(self) -> None:
        self.path: Path | None = None
        self._starts: list[float] = []

    def _write(self, row: dict) -> None:
        with open(self.path, "a") as fh:
            fh.write(json.dumps(row) + "\n")

    def _run_dcrab(self, plant, fom, config):
        self._starts = []
        try:
            result = autocal.dcrab.run_dcrab(plant, fom, config)
        except Exception as err:
            self._write({"error": repr(err)})
            raise
        self._write({
            "evals": result.n_evaluations,
            "best": result.best_fidelity.value,
            "steps": np.diff(self._starts).tolist(),
        })
        return result

    def _timed_fom(self, name):
        def fom(*args, **kwargs):
            self._starts.append(time.perf_counter())
            return getattr(autocal.tomography, name)(*args, **kwargs)

        return fom

    @contextmanager
    def installed(self) -> Iterator[None]:
        saved = [(autocal.harness, "run_dcrab")] + [(autocal.dcrab, name) for name in self.FOMS]
        originals = [getattr(module, name) for module, name in saved]
        autocal.harness.run_dcrab = self._run_dcrab
        for name in self.FOMS:
            setattr(autocal.dcrab, name, self._timed_fom(name))
        try:
            yield
        finally:
            for (module, name), original in zip(saved, originals):
                setattr(module, name, original)

    def runs(self) -> list[dict]:
        with open(self.path) as fh:
            runs = [json.loads(line) for line in fh]
        errors = [r["error"] for r in runs if "error" in r]
        if errors:
            raise OracleFailure(f"DCRAB runs raised: {errors[:3]}")
        return runs


_NUMPY_REPR = "np.float64("


def _csv_float(text: str, notes: set[str]) -> float:
    """A number from scan.csv, which writes ``repr`` of numpy scalars.

    Under numpy >= 2 that repr reads ``np.float64(<value>)``; the value inside
    is still exact, so it is read and the format defect is noted.
    """
    if text.startswith(_NUMPY_REPR) and text.endswith(")"):
        notes.add("scan.csv holds numpy reprs such as 'np.float64(...)', not plain numbers")
        text = text[len(_NUMPY_REPR):-1]
    return float(text)


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _fidelity_gap(best: float, pulse_path: Path, det_rel: float, kind: str) -> float:
    exact = evaluate_pulse_open_loop(
        load_pulse_csv(pulse_path), params_from_relative(T_REL, det_rel), kind
    ).value
    return abs(best - exact)


class Workload:
    """One benchmark workload.

    ``scored_rounds`` always run, so the outcome metrics (fidelity reached,
    evaluations spent) of a seed do not depend on the program's speed.
    ``trace_rounds`` run in the traced mode.
    """

    name: str
    scored_rounds: int
    trace_rounds: int
    uses_pool = False

    def __init__(self) -> None:
        self.log = DcrabLog()

    def rounds(self, seed: int) -> Iterator[list[Op]]:
        rng = np.random.default_rng([seed, list(WORKLOADS).index(self.name)])
        while True:
            yield self.next_round(rng)

    def next_round(self, rng: np.random.Generator) -> list[Op]:
        raise NotImplementedError

    def argv(self, op: Op, out: Path, serial: bool) -> list[str]:
        raise NotImplementedError

    def check(self, op: Op, out: Path) -> Outcome:
        raise NotImplementedError

    @contextmanager
    def running(self, work: Path) -> Iterator[None]:
        """Context the workload's ops run in."""
        with self.log.installed():
            yield

    def before(self, out: Path) -> None:
        """Called just before the op that writes to ``out`` starts."""
        out.mkdir(parents=True)
        self.log.path = out / "perfbench_dcrab_runs.jsonl"

    def check_demo(self, out: Path, kind: str) -> Outcome:
        """Oracle shared by ``invert`` and ``gate``: summary, trace and best pulse agree."""
        summary = _load_json(out / "summary.json")
        manifest = _load_json(out / "manifest.json")
        with open(out / "trace.jsonl") as fh:
            evals = sum(1 for line in fh if line.strip())
        runs = self.log.runs()
        if len(runs) != 1 or not evals == summary["n_evaluations"] == runs[0]["evals"]:
            raise OracleFailure(
                f"trace.jsonl has {evals} rows, summary says {summary['n_evaluations']}, "
                f"DCRAB runs logged {[r['evals'] for r in runs]}"
            )
        best = summary["best_fidelity"]
        tol = SHOT_NOISE_TOL if manifest["noisy"] else NOISELESS_TOL
        gap = _fidelity_gap(best, out / "best_pulse.csv", manifest["det_rel"], kind)
        if gap > tol:
            raise OracleFailure(f"reported best {best} is {gap:.3g} from the exact model (tol {tol})")
        target = manifest["dcrab"]["target_fidelity"]
        return Outcome(evals, (best,), (best >= target,), tuple(runs[0]["steps"]))


class InvertNoisy(Workload):
    """State transfer against a shot-noise plant, the paper's experimental setting.

    Every round holds each detuning once, in an order drawn from the seed, so
    the mix of easy and stalling detunings is the same in every run.
    """

    name = "invert-noisy"
    scored_rounds = 5
    trace_rounds = 1

    def next_round(self, rng):
        return [Op(_draw_seed(rng), float(d)) for d in rng.permutation(STATE_DET_RELS)]

    def argv(self, op, out, serial):
        return [
            "invert", "--noise", "--shots", "10000", "--dt-rel", str(T_REL),
            "--detuning-rel", str(op.det_rel), "--seed", str(op.seed), "--out", str(out),
        ]

    def check(self, op, out):
        return self.check_demo(out, "state-transfer")


class GateFine(Workload):
    """Gate calibration plus process tomography on a fine AWG grid."""

    name = "gate-fine"
    scored_rounds = 4
    trace_rounds = 2

    def next_round(self, rng):
        return [Op(_draw_seed(rng), GATE_DET_REL)]

    def argv(self, op, out, serial):
        return [
            "gate", "--detuning-rel", str(op.det_rel), "--samples", str(GATE_SAMPLES),
            "--seed", str(op.seed), "--out", str(out),
        ]

    def check(self, op, out):
        outcome = self.check_demo(out, "gate")
        chi_json = _load_json(out / "chi.json")
        chi = np.array(chi_json["real"]) + 1j * np.array(chi_json["imag"])
        exact = analytic_chi_of_unitary(
            total_propagator(load_pulse_csv(out / "best_pulse.csv"), params_from_relative(T_REL, op.det_rel))
        ).matrix
        gap = float(np.max(np.abs(chi - exact)))
        if gap > CHI_TOL:
            raise OracleFailure(f"chi matrix is {gap:.3g} from the exact model (tol {CHI_TOL})")
        return outcome


class Scan(Workload):
    """Noiseless state-transfer grid through the harness process pool."""

    name = "scan"
    scored_rounds = 2
    trace_rounds = 1
    uses_pool = True

    def __init__(self) -> None:
        super().__init__()
        self.config: Path | None = None

    def next_round(self, rng):
        return [Op(_draw_seed(rng))]

    def argv(self, op, out, serial):
        return [
            "scan", "--config", str(self.config), "--workers", "1" if serial else "2",
            "--runs", str(SCAN_RUNS), "--seed", str(op.seed), "--out", str(out),
        ]

    @contextmanager
    def running(self, work):
        self.config = work / "scan.cfg"
        self.config.write_text(SCAN_CONFIG)
        with super().running(work):
            yield

    def check(self, op, out):
        runs = self.log.runs()
        expected = len(STATE_DET_RELS) * SCAN_RUNS
        if len(runs) != expected:
            raise OracleFailure(f"{len(runs)} of {expected} DCRAB runs logged")
        target = _load_json(out / "manifest.json")["dcrab"]["target_fidelity"]
        with open(out / "scan.csv", newline="") as fh:
            cells = list(csv.DictReader(fh))
        if len(cells) != len(STATE_DET_RELS):
            raise OracleFailure(f"scan.csv has {len(cells)} cells")
        best = []
        notes: set[str] = set()
        for cell in cells:
            det_rel = _csv_float(cell["det_rel"], notes)
            value = _csv_float(cell["best"], notes)
            gap = _fidelity_gap(value, out / f"pulse_t{T_REL:g}_d{det_rel:g}.csv", det_rel, "state-transfer")
            if gap > NOISELESS_TOL:
                raise OracleFailure(f"cell {det_rel}: reported best {value} is {gap:.3g} from the exact model")
            best.append(value)
        return Outcome(
            sum(r["evals"] for r in runs),
            tuple(best),
            tuple(r["best"] >= target for r in runs),
            tuple(s for r in runs for s in r["steps"]),
            tuple(sorted(notes)),
        )


WORKLOADS = {w.name: w for w in (InvertNoisy, GateFine, Scan)}
