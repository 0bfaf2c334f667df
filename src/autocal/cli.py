"""Command-line front end.

Verbs: invert, gate, scan, compare-openloop, qpt.  Exit codes: 0 success,
2 configuration error, 3 runtime failure.  Options given on the command
line win over values from a config file.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import fields
from pathlib import Path

from .dcrab import DcrabConfig
from .harness import (
    DEFAULT_RABI_FREQUENCY,
    ScanSpec,
    load_pulse_csv,
    run_gate_demo,
    run_openloop_comparison,
    run_scan,
    run_state_transfer_demo,
    write_chi_json,
    write_manifest,
)
from .plant import SimPlant, SimPlantConfig
from .qubit import ContractError, PlantParams
from .tomography import process_tomography

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


# CLI flag -> DcrabConfig field; unset flags fall back to the config file,
# then to the DcrabConfig defaults
_DCRAB_FLAGS = {
    "components": "n_components",
    "superiterations": "superiterations",
    "max_evals": "max_evals_per_superiteration",
    "target": "target_fidelity",
    "seed": "seed",
    "samples": "n_t",
}


def _add_dcrab_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int)
    parser.add_argument("--superiterations", type=int)
    parser.add_argument("--components", type=int)
    parser.add_argument("--max-evals", type=int, help="per super-iteration")
    parser.add_argument("--target", type=float)
    parser.add_argument("--samples", type=int, help="waveform samples")


def _dcrab_config(args, file_values: dict | None = None) -> DcrabConfig:
    merged = dict(file_values or {})
    for flag, name in _DCRAB_FLAGS.items():
        if getattr(args, flag) is not None:
            merged[name] = getattr(args, flag)
    return DcrabConfig(**merged)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# Accepted config-file sections and keys, each with its parser
_FILE_KEYS = {
    "dcrab": {f.name: type(f.default) for f in fields(DcrabConfig)},
    "scan": {"t_rels": _floats, "det_rels": _floats, "runs": int, "master_seed": int},
}


def _read_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ContractError(f"cannot read config file {path}")
    out: dict = {}
    for section in parser.sections():
        if section not in _FILE_KEYS:
            raise ContractError(f"unknown config section [{section}] in {path}")
        out[section] = {}
        for key, text in parser[section].items():
            if key not in _FILE_KEYS[section]:
                raise ContractError(f"unknown key {key!r} in [{section}] of {path}")
            try:
                out[section][key] = _FILE_KEYS[section][key](text)
            except ValueError as err:
                raise ContractError(f"bad value for {key!r} in [{section}]: {err}") from err
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="autocal")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, text in (
        ("invert", "closed-loop state-transfer calibration"),
        ("gate", "closed-loop Hadamard-like gate calibration"),
    ):
        demo = sub.add_parser(command, help=text)
        demo.add_argument("--dt-rel", type=float, default=1.5, help="T / T_pi")
        demo.add_argument("--detuning-rel", type=float, default=0.0, help="Delta / Omega")
        demo.add_argument("--noise", action="store_true")
        demo.add_argument("--shots", type=int, default=10_000)
        demo.add_argument("--out", type=Path, default=Path(f"autocal-{command}"))
        _add_dcrab_options(demo)
        if command == "gate":
            demo.set_defaults(target=0.98)

    scan = sub.add_parser("scan", help="state-transfer robustness scan")
    scan.add_argument("--config", type=str, default=None)
    scan.add_argument("--workers", type=int, default=1)
    scan.add_argument("--runs", type=int, default=None)
    scan.add_argument("--out", type=Path, default=Path("autocal-scan"))
    _add_dcrab_options(scan)

    cmp = sub.add_parser("compare-openloop", help="open-loop vs closed-loop on a perturbed plant")
    cmp.add_argument("--scan", type=Path, required=True, help="directory of a completed scan")
    cmp.add_argument("--amp-scale", type=float, default=1.2)
    cmp.add_argument("--detuning-offset-rel", type=float, default=0.5)
    cmp.add_argument("--runs", type=int, default=5)
    cmp.add_argument("--out", type=Path, default=Path("autocal-compare.csv"))
    _add_dcrab_options(cmp)

    qpt = sub.add_parser("qpt", help="process tomography of a pulse file")
    qpt.add_argument("--pulse", type=Path, required=True)
    qpt.add_argument("--detuning-rel", type=float, default=0.0)
    qpt.add_argument("--noise", action="store_true")
    qpt.add_argument("--shots", type=int, default=10_000)
    qpt.add_argument("--seed", type=int, default=0)
    qpt.add_argument("--out", type=Path, default=Path("autocal-chi.json"))
    return parser


def _cmd_demo(args) -> int:
    """``invert`` or ``gate``: one closed-loop run with its output files."""
    gate = args.command == "gate"
    outcome = (run_gate_demo if gate else run_state_transfer_demo)(
        _dcrab_config(args),
        det_rel=args.detuning_rel,
        t_rel=args.dt_rel,
        noisy=args.noise,
        shots=args.shots,
        out_dir=args.out,
    )
    result = outcome[0] if gate else outcome
    print(
        f"best {'gate ' if gate else ''}fidelity {result.best_fidelity.value:.4f} "
        f"+/- {result.best_fidelity.sigma:.4f} after {result.n_evaluations} evaluations"
    )
    print(f"outputs written to {args.out}")
    return EXIT_OK


def _cmd_scan(args) -> int:
    file_values = _read_config_file(args.config)
    scan_kwargs = file_values.get("scan", {})
    dcrab_values = file_values.get("dcrab", {})
    if "master_seed" in scan_kwargs:  # [scan] master_seed beats [dcrab] seed; --seed beats both
        dcrab_values["seed"] = scan_kwargs.pop("master_seed")
    if args.runs is not None:
        scan_kwargs["runs"] = args.runs
    spec = ScanSpec(base_config=_dcrab_config(args, dcrab_values), **scan_kwargs)
    result = run_scan(spec, workers=args.workers, out_dir=args.out)
    print(f"scan of {len(spec.t_rels)}x{len(spec.det_rels)} cells, {spec.runs} runs each")
    print(f"grid mean fidelity {result.mean.mean():.4f}; outputs written to {args.out}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    rows = run_openloop_comparison(
        args.scan,
        amplitude_scale=args.amp_scale,
        detuning_offset_rel=args.detuning_offset_rel,
        config=_dcrab_config(args),
        runs=args.runs,
        out_path=args.out,
    )
    for row in rows:
        print(
            f"det_rel {row['det_rel']:>5}: open-loop {row['open_loop_fidelity']:.4f}  "
            f"closed-loop {row['closed_loop_mean']:.4f} +/- {row['closed_loop_std']:.4f}"
        )
    print(f"table written to {args.out}")
    return EXIT_OK


def _cmd_qpt(args) -> int:
    pulse = load_pulse_csv(args.pulse)
    rabi = DEFAULT_RABI_FREQUENCY
    plant = SimPlant(
        PlantParams(rabi, args.detuning_rel * rabi, pulse.duration),
        SimPlantConfig(noiseless=not args.noise, repetitions=args.shots, seed=args.seed),
    )
    write_chi_json(process_tomography(plant, pulse), args.out)
    write_manifest(
        Path(str(args.out) + ".manifest.json"),
        command="qpt",
        pulse=str(args.pulse),
        detuning_rel=args.detuning_rel,
        noise=args.noise,
        shots=args.shots,
        seed=args.seed,
    )
    print(f"chi matrix written to {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "invert": _cmd_demo,
        "gate": _cmd_demo,
        "scan": _cmd_scan,
        "compare-openloop": _cmd_compare,
        "qpt": _cmd_qpt,
    }
    try:
        return handlers[args.command](args)
    except (ContractError, FileNotFoundError, configparser.Error) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
