"""Per-layer tracing of autocal, from outside the package.

The tracer wraps the public functions of autocal's six modules, records one
span per call in memory (name, op, parent span, start, end, time covered by
child spans) and reduces the spans to per-layer metrics.  A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


def _n_t(args, kwargs, result):
    pulse = args[1] if len(args) > 1 else kwargs["pulse"]
    return pulse.n_t


def _shots(args, kwargs, result):
    plant = args[0]
    if plant.config.noiseless:
        return 0
    reps = args[2] if len(args) > 2 else kwargs.get("repetitions")
    return plant.config.repetitions if reps is None else reps


def _useful_evals(args, kwargs, result):
    """Evaluations of a DCRAB run that raised its running best."""
    previous = None
    useful = 0
    for rec in result.records:
        if previous is None or rec.running_best > previous:
            useful += 1
        previous = rec.running_best
    return (result.n_evaluations, useful)


# (layer, module, attribute, hook): the traced boundary calls.  A hook turns a
# call's arguments and result into the count the span carries.
TRACED = (
    ("qubit", "autocal.qubit", "evolve_density", _n_t),
    ("plant", "autocal.plant", "SimPlant.apply", None),
    ("plant", "autocal.plant", "SimPlant.apply_ideal_rotation", None),
    ("plant", "autocal.plant", "SimPlant.measure_population", _shots),
    ("plant", "autocal.plant", "run_rabi_scan", None),
    ("tomography", "autocal.tomography", "fit_rabi", None),
    ("tomography", "autocal.tomography", "mle_project", None),
    ("tomography", "autocal.tomography", "state_transfer_fom", None),
    ("tomography", "autocal.tomography", "gate_fom", None),
    ("tomography", "autocal.tomography", "process_tomography", None),
    ("dcrab", "autocal.dcrab", "run_dcrab", _useful_evals),
    ("dcrab", "autocal.dcrab", "nelder_mead", None),
    ("dcrab", "autocal.dcrab", "assemble_pulse", None),
    ("dcrab", "autocal.dcrab", "draw_basis", None),
    ("harness", "autocal.harness", "run_state_transfer_demo", None),
    ("harness", "autocal.harness", "run_gate_demo", None),
    ("harness", "autocal.harness", "run_scan", None),
    ("harness", "autocal.harness", "write_trace_jsonl", None),
    ("harness", "autocal.harness", "write_summary_json", None),
    ("harness", "autocal.harness", "save_pulse_csv", None),
    ("harness", "autocal.harness", "write_chi_json", None),
    ("harness", "autocal.harness", "write_manifest", None),
    ("harness", "autocal.harness", "ScanResult.to_csv", None),
    ("cli", "autocal.cli", "main", None),
)
LAYERS = ("qubit", "plant", "tomography", "dcrab", "harness", "cli")
HARNESS_ENTRIES = ("harness.run_state_transfer_demo", "harness.run_gate_demo", "harness.run_scan")
HARNESS_WRITERS = (
    "harness.write_trace_jsonl",
    "harness.write_summary_json",
    "harness.save_pulse_csv",
    "harness.write_chi_json",
    "harness.write_manifest",
    "harness.to_csv",
)


@dataclass
class Span:
    name: str
    op: int
    parent: int
    start: float
    end: float = 0.0
    child: float = 0.0
    value: object = None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Records spans while ``active``; ``install`` patches autocal in place."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = Span(name, self.op, parent, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent].child += span.duration
            if hook is not None:
                span.value = hook(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every TRACED callable, wherever an autocal module holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "autocal" or n.startswith("autocal.")]
        for layer, module, attr, hook in TRACED:
            owner = sys.modules[module]
            *cls, fn_name = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, fn_name)
            wrapped = self._wrap(f"{layer}.{fn_name}", original, hook)
            self._set(owner, fn_name, wrapped)
            if not cls:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as name -> (value, unit)."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def total(*names):
        return sum(s.duration for n in names for s in by_name[n])

    def median_ms(*names):
        durations = [s.duration for n in names for s in by_name[n]]
        return 1e3 * statistics.median(durations) if durations else 0.0

    def values(name):
        return [s.value for s in by_name[name] if s.value is not None]

    fits = calls("tomography.fit_rabi")
    failures = sum(1 for s in by_name["tomography.fit_rabi"] if s.error == "FitFailure")
    runs = values("dcrab.run_dcrab")
    evals = sum(n for n, _ in runs)
    useful = sum(u for _, u in runs)
    dcrab_self = sum(s.self_time for s in spans if s.name.startswith("dcrab."))
    return {
        "qubit.propagate_calls": (calls("qubit.evolve_density"), "count"),
        "qubit.samples": (sum(values("qubit.evolve_density")), "count"),
        "qubit.propagate_ms": (median_ms("qubit.evolve_density"), "ms"),
        "qubit.propagate_s": (total("qubit.evolve_density"), "s"),
        "plant.apply_calls": (calls("plant.apply"), "count"),
        "plant.rotation_calls": (calls("plant.apply_ideal_rotation"), "count"),
        "plant.measure_calls": (calls("plant.measure_population"), "count"),
        "plant.shots": (sum(values("plant.measure_population")), "count"),
        "plant.apply_self_s": (sum(s.self_time for s in by_name["plant.apply"]), "s"),
        "plant.rabi_scan_ms": (median_ms("plant.run_rabi_scan"), "ms"),
        "plant.rabi_scan_s": (total("plant.run_rabi_scan"), "s"),
        "tomography.fit_calls": (fits, "count"),
        "tomography.fit_ms": (median_ms("tomography.fit_rabi"), "ms"),
        "tomography.fit_s": (total("tomography.fit_rabi"), "s"),
        "tomography.project_calls": (calls("tomography.mle_project"), "count"),
        "tomography.project_ms": (median_ms("tomography.mle_project"), "ms"),
        "tomography.project_s": (total("tomography.mle_project"), "s"),
        "tomography.fom_ms": (median_ms("tomography.state_transfer_fom", "tomography.gate_fom"), "ms"),
        "tomography.fit_failures": (failures, "count"),
        "tomography.fit_failure_ratio": (failures / fits if fits else 0.0, "1"),
        "tomography.qpt_s": (total("tomography.process_tomography"), "s"),
        "dcrab.evals": (evals, "count"),
        "dcrab.assemble_ms": (median_ms("dcrab.assemble_pulse"), "ms"),
        "dcrab.self_s": (dcrab_self, "s"),
        "dcrab.useful_eval_ratio": (useful / evals if evals else 0.0, "1"),
        "harness.write_s": (total(*HARNESS_WRITERS), "s"),
        "cli.overhead_s": (total("cli.main") - total(*HARNESS_ENTRIES), "s"),
    }


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds each layer spent in its own code, children excluded."""
    out = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        out[span.name.split(".")[0]] += span.self_time
    return out
