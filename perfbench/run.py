"""autocal benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload invert-noisy --seed 1 --seconds 30 --trace 0

Drives ``autocal.cli.main`` in this process, checks every command's outputs
against the exact model, prints a readable report and, as its last line, one
JSON object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  perfbench/README.md describes the design.
"""

import os

# Pinned before numpy is first imported, so this process, the set-up probes
# and the forked scan workers all run BLAS on one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


@dataclass
class OpRun:
    index: int
    round: int
    wall: float
    outcome: object  # workloads.Outcome, or None when the op failed
    error: str | None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _reason(err: Exception) -> str:
    """The error and the line that raised it."""
    frame = traceback.extract_tb(err.__traceback__)[-1]
    return f"{err!r} at {Path(frame.filename).name}:{frame.lineno}"


def execute(cli, workload, op, index, rnd, work, serial=False, tracer=None) -> OpRun:
    """Run one CLI command, time it, and check its outputs against the oracle."""
    out = work / f"op{index}"
    shutil.rmtree(out, ignore_errors=True)
    workload.before(out)
    argv = workload.argv(op, out, serial)
    sink = io.StringIO()
    code, error = None, None
    if tracer is not None:
        tracer.op, tracer.active = index, True
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception as err:  # noqa: BLE001 - an op that raises is counted as failed
        error = f"raised {_reason(err)}"
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
    if error is None and code != 0:
        error = f"exit code {code}: {sink.getvalue().strip()[-300:]}"
    outcome = None
    if error is None:
        try:
            outcome = workload.check(op, out)
        except Exception as err:  # noqa: BLE001 - missing or wrong output fails the op
            error = f"oracle: {_reason(err)}"
    shutil.rmtree(out, ignore_errors=True)
    return OpRun(index, rnd, wall, outcome, error)


def timed_run(cli, workload, seed, seconds, work) -> list[OpRun]:
    """The scored rounds, then further whole rounds until ``seconds`` have passed."""
    runs = []
    start = time.perf_counter()
    with workload.running(work):
        for rnd, ops in enumerate(workload.rounds(seed)):
            if rnd >= workload.scored_rounds and time.perf_counter() - start >= seconds:
                break
            for op in ops:
                runs.append(execute(cli, workload, op, len(runs), rnd, work))
    return runs


def median(values, default=0.0):
    return statistics.median(values) if values else default


def setup_seconds() -> list[float]:
    """Cold starts in fresh interpreters, each timed inside the child."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(runs, workload, setup) -> tuple[dict, list[str]]:
    """Metrics of BENCHMARK.json's end_to_end list, plus report lines for the
    end-to-end figures that are printed but not bounded (see README.md)."""
    done = [r for r in runs if r.outcome is not None]
    scored = [r for r in runs if r.round < workload.scored_rounds]
    scored_done = [r for r in scored if r.outcome is not None]
    steps = [step for r in done for step in r.outcome.steps]
    metrics = {
        "eval_ms": (1e3 * median(steps), "ms"),
        "best_fidelity": (median([b for r in scored_done for b in r.outcome.best]), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    walls = [r.wall for r in runs]
    n = len(walls)
    pct = math.floor(100 * (1 - 10 / n)) if n else 0
    tail = f"; p{pct} {statistics.quantiles(walls, n=100)[pct - 1]:.3f} s" if pct >= 50 else ""
    done_wall = sum(r.wall for r in done)
    evals_per_s = sum(r.outcome.evals for r in done) / done_wall if done_wall else 0.0
    calibrated = [c for r in scored for c in (r.outcome.calibrated if r.outcome else (False,))]
    evals_per_calib = statistics.fmean([r.outcome.evals for r in scored_done]) if scored_done else 0.0
    report = [f"  {k:<20} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    report[0] += f"      median of {len(steps)} optimizer steps"
    report[-1] += f"      median of {len(setup)} cold starts {[round(x, 3) for x in setup]}"
    report += [
        "  printed, not bounded:",
        f"  calib_s              {median(walls):.4f} s      median of {n} ops{tail}",
        f"  evals_per_s          {evals_per_s:.4f} 1/s",
        f"  evals_per_calib      {evals_per_calib:.2f} count  mean of {len(scored_done)} scored ops",
        f"  calibrated_fraction  {sum(calibrated) / len(calibrated):.4f} 1      of {len(calibrated)} scored DCRAB runs",
        f"  failed_fraction      {(n - len(done)) / n if n else 0.0:.4f} 1",
    ]
    return metrics, report


def traced_run(cli, workload, seed, work) -> tuple[dict, list[OpRun], list[str], list[str]]:
    """Each op of the trace rounds untraced, then traced in-process; spans reduced by layer."""
    from tracing import LAYERS, Tracer, layer_metrics, layer_self_times

    rounds = workload.rounds(seed)
    ops = [(rnd, op) for rnd in range(workload.trace_rounds) for op in next(rounds)]
    tracer = Tracer()
    timed, serial, traced = [], [], []
    # Each op runs untraced and traced back to back, so that a slow spell of
    # the machine falls on both sides of the tracing overhead alike.
    with workload.running(work):
        for i, (rnd, op) in enumerate(ops):
            timed.append(execute(cli, workload, op, i, rnd, work))
            if workload.uses_pool:
                serial.append(execute(cli, workload, op, i, rnd, work, serial=True))
            tracer.install()
            try:
                traced.append(execute(cli, workload, op, i, rnd, work, serial=True, tracer=tracer))
            finally:
                tracer.uninstall()
    serial = serial or timed

    def wall(runs):
        return sum(r.wall for r in runs)

    metrics = layer_metrics(tracer.spans)
    metrics["harness.scan_speedup"] = (wall(serial) / wall(timed), "1")
    metrics["trace.overhead_s"] = (wall(traced) - wall(serial), "s")
    problems = []
    logged_evals = sum(r.outcome.evals for r in traced if r.outcome is not None)
    if metrics["dcrab.evals"][0] != logged_evals:
        problems.append(f"traced {metrics['dcrab.evals'][0]} evaluations, outputs record {logged_evals}")
    report = [f"  {k:<30} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    self_times = layer_self_times(tracer.spans)
    report.append(f"  traced wall {wall(traced):.3f} s over {len(ops)} ops; untraced serial {wall(serial):.3f} s "
                  f"(tracing overhead {100 * (wall(traced) / wall(serial) - 1):.1f}%)")
    report += [f"  self time {layer:<11} {self_times[layer]:8.3f} s  {100 * self_times[layer] / wall(traced):5.1f}%"
               for layer in LAYERS]
    fom = "gate FoM" if workload.name == "gate-fine" else "state-transfer FoM"
    report.append("  baseline rows (median per call): "
                  f"propagate {metrics['qubit.propagate_ms'][0]:.3f} ms, Rabi scan {metrics['plant.rabi_scan_ms'][0]:.3f} ms, "
                  f"fit {metrics['tomography.fit_ms'][0]:.3f} ms, project {metrics['tomography.project_ms'][0]:.3f} ms, "
                  f"{fom} {metrics['tomography.fom_ms'][0]:.3f} ms")
    all_runs = timed + (serial if workload.uses_pool else []) + traced
    return metrics, all_runs, report, problems


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "autocal" / "__init__.py").is_file():
        print(f"error: no autocal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import autocal.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported autocal from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from setup_probe import warm_up
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    warm_up()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            metrics, runs, report, problems = traced_run(cli, workload, args.seed, work)
            kind = "per_layer"
        else:
            setup = setup_seconds()
            runs = timed_run(cli, workload, args.seed, args.seconds, work)
            metrics, report = end_to_end(runs, workload, setup)
            problems = []
            kind = "end_to_end"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [r for r in runs if r.error is not None]
    rounds = max((r.round for r in runs), default=-1) + 1
    print(f"{workload.name} seed {args.seed} trace {args.trace}: {len(runs)} command runs over {rounds} rounds, "
          f"{len(failures)} failed")
    for r in failures[:10]:
        print(f"  op {r.index} failed: {r.error}")
    for problem in problems:
        print(f"  check failed: {problem}")
    for note in sorted({n for r in runs if r.outcome is not None for n in r.outcome.notes}):
        print(f"  program defect (values still checked): {note}")
    print("\n".join(report))
    print("machine " + json.dumps(machine()))
    units = declared(kind)
    if {k: u for k, (_, u) in metrics.items()} != units:
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {kind} {sorted(units)}", file=sys.stderr)
        return 1
    result = {
        "correct": not failures and not problems,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
