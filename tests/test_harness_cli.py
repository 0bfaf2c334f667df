import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import autocal.cli
import autocal.dcrab
import autocal.harness
import autocal.plant
from autocal.cli import main
from autocal.dcrab import DcrabConfig, evaluate_pulse_open_loop
from autocal.harness import (
    ScanSpec,
    derived_seed,
    load_pulse_csv,
    params_from_relative,
    run_openloop_comparison,
    run_scan,
    run_state_transfer_demo,
    save_pulse_csv,
)
from autocal.qubit import ContractError, PulseWaveform
from autocal.tomography import FitFailure

FAST = dict(superiterations=2, max_evals_per_superiteration=12, n_t=200)


class TestSeeding:
    def test_deterministic(self):
        assert derived_seed(3, 1, 2) == derived_seed(3, 1, 2)

    def test_distinct_coordinates(self):
        seeds = {derived_seed(0, i, j) for i in range(5) for j in range(5)}
        assert len(seeds) == 25


def test_params_from_relative():
    params = params_from_relative(1.5, 0.2, rabi=2.0)
    assert params.rabi_frequency == 2.0
    assert params.detuning == pytest.approx(0.4)
    assert params.duration == pytest.approx(1.5 / 4.0)  # T_pi = 0.25 at 2 MHz


class TestPulseCsv:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        x = np.clip(rng.normal(0, 0.3, 120), -0.5, 0.5)
        y = np.clip(rng.normal(0, 0.3, 120), -0.5, 0.5)
        pulse = PulseWaveform(0.8, x, y)
        path = tmp_path / "pulse.csv"
        save_pulse_csv(pulse, path)
        loaded = load_pulse_csv(path)
        assert loaded.duration == pulse.duration
        assert np.array_equal(loaded.x, pulse.x)
        assert np.array_equal(loaded.y, pulse.y)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,X,Y\n0.0,0.1,0.0\n0.1,0.1,0.0\n")
        with pytest.raises(ContractError):
            load_pulse_csv(path)

    def test_non_uniform_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_us,X,Y\n0.0,0.1,0.0\n0.1,0.1,0.0\n0.35,0.1,0.0\n")
        with pytest.raises(ContractError):
            load_pulse_csv(path)


class TestStateTransferDemo:
    def test_outputs_and_roundtrip(self, tmp_path):
        config = DcrabConfig(seed=0, **FAST)
        result = run_state_transfer_demo(
            config, det_rel=0.0, t_rel=1.5, out_dir=tmp_path
        )
        for name in ("trace.jsonl", "summary.json", "best_pulse.csv", "manifest.json"):
            assert (tmp_path / name).exists()

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["best_fidelity"] == result.best_fidelity.value
        assert summary["n_evaluations"] == result.n_evaluations

        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert len(lines) == result.n_evaluations
        running = [json.loads(line)["running_best"] for line in lines]
        assert running == sorted(running)

        # reloading the saved pulse and re-evaluating reproduces the record
        pulse = load_pulse_csv(tmp_path / "best_pulse.csv")
        params = params_from_relative(1.5, 0.0)
        reval = evaluate_pulse_open_loop(pulse, params)
        assert abs(reval.value - result.best_fidelity.value) < 1e-9

    def test_manifest_reproduces_run(self, tmp_path):
        config = DcrabConfig(seed=9, **FAST)
        r1 = run_state_transfer_demo(config, det_rel=0.2, t_rel=1.5, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        # the recorded plant seed is the one the config's seed derives
        assert manifest["plant_seed"] == derived_seed(manifest["dcrab"]["seed"], 1)
        config2 = DcrabConfig(**manifest["dcrab"])
        r2 = run_state_transfer_demo(
            config2,
            det_rel=manifest["det_rel"],
            t_rel=manifest["t_rel"],
        )
        assert np.array_equal(r1.fom_trace, r2.fom_trace)
        assert np.array_equal(r1.best_pulse.x, r2.best_pulse.x)


class TestScan:
    SPEC = ScanSpec(
        t_rels=(1.0, 1.5),
        det_rels=(0.0, 0.5),
        runs=2,
        base_config=DcrabConfig(seed=5, **FAST),
    )

    def test_scan_outputs(self, tmp_path):
        result = run_scan(self.SPEC, out_dir=tmp_path)
        assert result.mean.shape == (2, 2)
        assert np.all(result.mean >= 0.0) and np.all(result.mean <= 1.0)
        assert np.all(result.std >= 0.0)
        assert np.all(result.failed == 0)
        rows = (tmp_path / "scan.csv").read_text().splitlines()
        assert rows[0] == "t_rel,det_rel,mean,std,best"
        cells = [[float(v) for v in row.split(",")] for row in rows[1:]]
        assert len(cells) == 4 and all(len(row) == 5 for row in cells)
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "pulse_t1.5_d0.csv").exists()

    def test_pi_time_cell_reaches_high_fidelity(self):
        # a pi-pulse is reachable at (T/T_pi, Delta/Omega) = (1, 0); with the
        # early-exit target raised, the default budget recovers it
        spec = ScanSpec(
            t_rels=(1.0,),
            det_rels=(0.0,),
            runs=3,
            base_config=DcrabConfig(target_fidelity=0.9995, seed=5),
        )
        result = run_scan(spec)
        assert result.mean[0, 0] >= 0.999

    def test_worker_count_invariance(self):
        serial = run_scan(self.SPEC, workers=1)
        parallel = run_scan(self.SPEC, workers=2)
        assert np.array_equal(serial.mean, parallel.mean)
        assert np.array_equal(serial.best, parallel.best)
        assert np.array_equal(serial.failed, parallel.failed)
        assert serial.best_pulses.keys() == parallel.best_pulses.keys()
        for cell, pulse in parallel.best_pulses.items():
            assert pulse.duration == serial.best_pulses[cell].duration
            assert pulse.x.tobytes() == serial.best_pulses[cell].x.tobytes()
            assert pulse.y.tobytes() == serial.best_pulses[cell].y.tobytes()
            # pickled back from a worker, yet as immutable as any pulse
            assert not pulse.x.flags.writeable and not pulse.y.flags.writeable

    @pytest.mark.parametrize("error", [ContractError("rejected"), FitFailure(0.5)])
    def test_run_failure_counts_in_failed(self, monkeypatch, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(autocal.harness, "run_dcrab", failing)
        result = run_scan(self.SPEC, workers=1)
        assert np.all(result.failed == self.SPEC.runs)
        assert np.all(result.mean == 0.0)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in a run")

        monkeypatch.setattr(autocal.harness, "run_dcrab", broken)
        with pytest.raises(TypeError, match="bug in a run"):
            run_scan(self.SPEC, workers=1)

    def test_base_config_seed_is_the_master_seed(self, tmp_path):
        results = {}
        for seed in (1, 2):
            spec = replace(self.SPEC, base_config=DcrabConfig(seed=seed, **FAST))
            results[seed] = run_scan(spec, out_dir=tmp_path / str(seed))
            manifest = json.loads((tmp_path / str(seed) / "manifest.json").read_text())
            assert manifest["master_seed"] == manifest["dcrab"]["seed"] == seed
        assert not np.array_equal(results[1].mean, results[2].mean)


class TestOpenLoopComparison:
    def test_zero_perturbation_matches_recorded_best(self, tmp_path):
        spec = ScanSpec(
            t_rels=(1.5,),
            det_rels=(0.0,),
            runs=2,
            base_config=DcrabConfig(seed=3, **FAST),
        )
        result = run_scan(spec, out_dir=tmp_path)
        rows = run_openloop_comparison(
            tmp_path,
            amplitude_scale=1.0,
            detuning_offset_rel=0.0,
            config=DcrabConfig(**FAST),
            runs=1,
        )
        assert abs(rows[0]["open_loop_fidelity"] - result.best[0, 0]) < 1e-9

    def test_closed_loop_runs_follow_config_seed(self, tmp_path):
        spec = ScanSpec(t_rels=(1.5,), det_rels=(0.0,), runs=1, base_config=DcrabConfig(**FAST))
        run_scan(spec, out_dir=tmp_path)
        means = [
            run_openloop_comparison(tmp_path, 1.2, 0.5, config=DcrabConfig(seed=seed, **FAST), runs=2)[0][
                "closed_loop_mean"
            ]
            for seed in (1, 2, 1)
        ]
        assert means[0] != means[1]
        assert means[0] == means[2]

    def test_missing_scan_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_openloop_comparison(tmp_path / "nope", 1.2, 0.5)


class TestCli:
    FAST_ARGS = ["--superiterations", "2", "--max-evals", "12", "--samples", "200"]

    def test_invert_success(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["invert", "--dt-rel", "1.5", "--out", str(out)] + self.FAST_ARGS)
        assert code == 0
        assert (out / "best_pulse.csv").exists()
        assert "best fidelity" in capsys.readouterr().out

    def test_gate_and_qpt(self, tmp_path, capsys):
        out = tmp_path / "gate"
        code = main(
            ["gate", "--out", str(out), "--target", "0.9"] + self.FAST_ARGS
        )
        assert code == 0
        chi = json.loads((out / "chi.json").read_text())
        assert "real" in chi and "imag" in chi and "ideal_chi" in chi
        assert chi["published_formula_identity_deviation"] > 0.1

        chi_out = tmp_path / "chi.json"
        code = main(
            ["qpt", "--pulse", str(out / "best_pulse.csv"), "--out", str(chi_out)]
        )
        assert code == 0
        payload = json.loads(chi_out.read_text())
        assert np.array(payload["real"]).shape == (4, 4)

    def test_scan_with_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "[dcrab]\nsuperiterations = 2\nmax_evals_per_superiteration = 12\nn_t = 200\n"
            "[scan]\nt_rels = 1.0,1.5\ndet_rels = 0.0\nruns = 1\nmaster_seed = 4\n"
        )
        out = tmp_path / "scan"
        code = main(["scan", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "scan.csv").exists()
        assert "2x1 cells" in capsys.readouterr().out

    def test_cli_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "[dcrab]\nsuperiterations = 1\nmax_evals_per_superiteration = 12\nn_t = 200\n"
            "[scan]\nt_rels = 1.5\ndet_rels = 0.0\nruns = 1\nmaster_seed = 1\n"
        )
        out = tmp_path / "scan"
        code = main(
            ["scan", "--config", str(cfg), "--seed", "5", "--superiterations", "2", "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 5
        assert manifest["dcrab"]["seed"] == 5
        assert manifest["dcrab"]["superiterations"] == 2
        # file values still beat the defaults
        assert manifest["dcrab"]["max_evals_per_superiteration"] == 12
        assert manifest["dcrab"]["n_t"] == 200
        assert manifest["runs"] == 1

    @pytest.mark.parametrize(
        "dcrab_seed, master_seed, flag, expected",
        [(2, None, None, 2), (2, 3, None, 3), (2, 3, 5, 5)],
        ids=["dcrab-seed", "master-seed-beats-dcrab-seed", "flag-beats-both"],
    )
    def test_scan_seed_precedence(self, tmp_path, dcrab_seed, master_seed, flag, expected):
        def scan(name, dcrab_lines, scan_lines, flags):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(
                "[dcrab]\nsuperiterations = 1\nmax_evals_per_superiteration = 12\nn_t = 200\n"
                + dcrab_lines
                + "[scan]\nt_rels = 1.5\ndet_rels = 0.5\nruns = 1\n"
                + scan_lines
            )
            out = tmp_path / name
            assert main(["scan", "--config", str(cfg), "--out", str(out)] + flags) == 0
            return out

        out = scan(
            "resolved",
            f"seed = {dcrab_seed}\n",
            "" if master_seed is None else f"master_seed = {master_seed}\n",
            [] if flag is None else ["--seed", str(flag)],
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == manifest["dcrab"]["seed"] == expected
        # the resolved seed drives the runs: the same scan seeded by the flag alone matches
        plain = scan("plain", "", "", ["--seed", str(expected)])
        assert (out / "scan.csv").read_bytes() == (plain / "scan.csv").read_bytes()

    @pytest.mark.parametrize(
        "section, line",
        [
            ("plant", "detuning = 0.5"),
            ("output", "dir = elsewhere"),
            ("scan", "workers = 2"),
            ("dcrab", "superiteration = 2"),
            ("dcrab", "target_fidelity = high"),
            ("dcrab", "seed = -1"),
            ("scan", "master_seed = -1"),
            ("dcrab", "coefficient_scale = 0"),
            ("dcrab", "simplex_tol = nan"),
        ],
        ids=[
            "plant-section", "output-section", "unknown-scan-key", "unknown-dcrab-key", "bad-value",
            "negative-seed", "negative-master-seed", "zero-coefficient-scale", "nan-simplex-tol",
        ],
    )
    def test_config_file_errors_exit_2(self, tmp_path, section, line):
        sections = {
            "dcrab": ["superiterations = 1", "max_evals_per_superiteration = 12", "n_t = 200"],
            "scan": ["t_rels = 1.5", "det_rels = 0.0", "runs = 1"],
        }
        sections[section] = sections.get(section, []) + [line]
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("".join(f"[{name}]\n" + "\n".join(body) + "\n" for name, body in sections.items()))
        code = main(["scan", "--config", str(cfg), "--out", str(tmp_path / "scan")])
        assert code == 2

    def test_compare_openloop_flow(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "[dcrab]\nsuperiterations = 2\nmax_evals_per_superiteration = 12\nn_t = 200\n"
            "[scan]\nt_rels = 1.5\ndet_rels = 0.0\nruns = 1\n"
        )
        out = tmp_path / "scan"
        assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
        table = tmp_path / "compare.csv"
        code = main(
            [
                "compare-openloop",
                "--scan",
                str(out),
                "--runs",
                "1",
                "--out",
                str(table),
            ]
            + self.FAST_ARGS
        )
        assert code == 0
        assert table.exists()

    def test_compare_openloop_manifest_reproduces_table(self, tmp_path):
        scan = tmp_path / "scan"
        spec = ScanSpec(t_rels=(1.5,), det_rels=(0.0, 0.5), runs=1, base_config=DcrabConfig(**FAST))
        run_scan(spec, out_dir=scan)
        table = tmp_path / "compare.csv"
        argv = ["compare-openloop", "--scan", str(scan), "--runs", "2", "--seed", "3", "--out", str(table)]
        assert main(argv + self.FAST_ARGS + ["--amp-scale", "1.1"]) == 0
        manifest = json.loads(Path(str(table) + ".manifest.json").read_text())
        assert manifest["command"] == "compare-openloop"
        assert manifest["dcrab"]["seed"] == 3
        again = tmp_path / "again.csv"
        run_openloop_comparison(
            manifest["scan"],
            amplitude_scale=manifest["amp_scale"],
            detuning_offset_rel=manifest["detuning_offset_rel"],
            config=DcrabConfig(**manifest["dcrab"]),
            runs=manifest["runs"],
            t_rel=manifest["t_rel"],
            out_path=again,
        )
        assert again.read_bytes() == table.read_bytes()

    def test_compare_openloop_zero_rabi_frequency_is_config_error(self, tmp_path):
        # a bad manifest is a bad input file (exit 2), not a runtime failure
        scan = tmp_path / "scan"
        scan.mkdir()
        (scan / "manifest.json").write_text(json.dumps({"rabi_frequency": 0, "det_rels": [0.0]}))
        save_pulse_csv(PulseWaveform.zero(0.75, 200), scan / "pulse_t1.5_d0.csv")
        code = main(["compare-openloop", "--scan", str(scan), "--runs", "1"] + self.FAST_ARGS)
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"det_rels": [0.0]}',
            '{"rabi_frequency": "fast", "det_rels": [0.0]}',
            "not json",
            '{"rabi_frequency": 1.0, "det_rels": []}',
        ],
        ids=["missing-key", "non-numeric", "not-json", "no-det-rels"],
    )
    def test_compare_openloop_bad_manifest_is_config_error(self, tmp_path, text):
        scan = tmp_path / "scan"
        scan.mkdir()
        (scan / "manifest.json").write_text(text)
        save_pulse_csv(PulseWaveform.zero(0.75, 200), scan / "pulse_t1.5_d0.csv")
        code = main(["compare-openloop", "--scan", str(scan), "--runs", "1"] + self.FAST_ARGS)
        assert code == 2

    def test_compare_openloop_zero_runs_is_config_error(self, tmp_path, capsys):
        # zero closed-loop runs have no mean or spread to report
        scan = tmp_path / "scan"
        scan.mkdir()
        (scan / "manifest.json").write_text(json.dumps({"rabi_frequency": 1.0, "det_rels": [0.0]}))
        save_pulse_csv(PulseWaveform.zero(0.75, 200), scan / "pulse_t1.5_d0.csv")
        table = tmp_path / "compare.csv"
        code = main(
            ["compare-openloop", "--scan", str(scan), "--runs", "0", "--out", str(table)] + self.FAST_ARGS
        )
        assert code == 2
        assert "runs must be >= 1" in capsys.readouterr().err
        assert not table.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_scan_workers_below_one_is_config_error(self, tmp_path, capsys, workers):
        out = tmp_path / "scan"
        code = main(
            ["scan", "--workers", workers, "--runs", "1", "--out", str(out)] + self.FAST_ARGS
        )
        assert code == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "t_us,X,Y\n",
            "t_us,X,Y\n0.0,0.1,0.0\n0.1,abc,0.0\n",
            "t_us,X,Y\n0.0,0.1,0.0\n0.1,0.1\n",
            "t_us,X,Y\n0.5,0.1,0.0\n0.75,0.1,0.0\n1.0,0.1,0.0\n",
        ],
        ids=["empty", "header-only", "non-numeric", "ragged", "late-start"],
    )
    def test_malformed_pulse_csv_is_config_error(self, tmp_path, capsys, text):
        pulse = tmp_path / "pulse.csv"
        pulse.write_text(text)
        code = main(["qpt", "--pulse", str(pulse), "--out", str(tmp_path / "chi.json")])
        assert code == 2
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["invert", "gate", "scan", "compare-openloop", "qpt"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command):
        # numpy would reject it only once the run starts, as a runtime failure
        scan = tmp_path / "scan"
        scan.mkdir()
        (scan / "manifest.json").write_text(json.dumps({"rabi_frequency": 1.0, "det_rels": [0.0]}))
        pulse = scan / "pulse_t1.5_d0.csv"
        save_pulse_csv(PulseWaveform.zero(0.75, 200), pulse)
        extra = {
            "scan": ["--runs", "1"] + self.FAST_ARGS,
            "compare-openloop": ["--scan", str(scan), "--runs", "1"] + self.FAST_ARGS,
            "qpt": ["--pulse", str(pulse)],
        }.get(command, self.FAST_ARGS)
        code = main([command, "--seed", "-1", "--out", str(tmp_path / "out")] + extra)
        assert code == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["invert", "gate", "qpt"])
    def test_zero_shots_is_config_error(self, tmp_path, capsys, command):
        # noiseless runs took any shot count and recorded it in their manifests
        pulse = tmp_path / "pulse.csv"
        save_pulse_csv(PulseWaveform.zero(0.75, 200), pulse)
        extra = ["--pulse", str(pulse)] if command == "qpt" else self.FAST_ARGS
        code = main([command, "--shots", "0", "--out", str(tmp_path / "out")] + extra)
        assert code == 2
        assert "repetitions must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["invert", "gate"])
    def test_short_rabi_scan_is_config_error(self, tmp_path, capsys, monkeypatch, command):
        # a plant that breaks the rabi_scan contract is a configuration error, not a crash
        scan = autocal.plant.SimPlant.rabi_scan
        monkeypatch.setattr(autocal.plant.SimPlant, "rabi_scan", lambda *a: scan(*a)[:-1])
        code = main([command, "--out", str(tmp_path / "out")] + self.FAST_ARGS)
        assert code == 2
        assert "rabi_scan must return" in capsys.readouterr().err

    def test_unknown_command_is_config_error(self):
        assert main(["frobnicate"]) == 2

    def test_missing_scan_is_config_error(self, tmp_path):
        code = main(["compare-openloop", "--scan", str(tmp_path / "nope")])
        assert code == 2

    def test_bad_config_file_is_config_error(self, tmp_path):
        code = main(["scan", "--config", str(tmp_path / "missing.cfg")])
        assert code == 2

    def test_runtime_failure_exit_code(self, monkeypatch):
        import autocal.cli as cli

        def boom(*args, **kwargs):
            raise RuntimeError("plant exploded")

        monkeypatch.setattr(cli, "run_state_transfer_demo", boom)
        assert main(["invert"]) == 3


def test_runtime_never_imports_scipy():
    # numpy is the only runtime dependency: importing the package and CLI and
    # running one figure-of-merit evaluation must not load scipy
    code = """
import sys
import autocal, autocal.cli
from autocal.plant import SimPlant, SimPlantConfig
from autocal.qubit import PlantParams, PulseWaveform
from autocal.tomography import state_transfer_fom
plant = SimPlant(PlantParams(1.0, 0.0, 0.5), SimPlantConfig())
state_transfer_fom(plant, PulseWaveform.constant(1.0, 0.0, 0.5))
print(",".join(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = str(Path(autocal.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_import_does_not_load_multiprocessing():
    # only a scan with more than one worker starts a process pool, so a cold
    # ``import autocal`` must not pay for multiprocessing and its imports
    code = "import sys, autocal; print('multiprocessing' in sys.modules)"
    src = str(Path(autocal.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def load_benchmark_tracing(monkeypatch):
    """``perfbench/tracing.py``, imported by path; the benchmark is read, never changed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkContract:
    """Names the benchmark wraps or patches must keep resolving at call time."""

    def test_every_traced_name_resolves(self, monkeypatch):
        for _layer, module, attr, _hook in load_benchmark_tracing(monkeypatch).TRACED:
            owner = importlib.import_module(module)
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{module}.{attr}"

    @pytest.mark.parametrize(
        "command, fom, entry",
        [
            ("invert", "state_transfer_fom", "run_state_transfer_demo"),
            ("gate", "gate_fom", "run_gate_demo"),
        ],
    )
    def test_cli_calls_patched_module_attributes(self, tmp_path, monkeypatch, command, fom, entry):
        # the benchmark replaces harness.run_dcrab and the dcrab FoM functions,
        # and its tracer replaces the demo entry points the CLI holds
        calls = []

        def spy(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        spy(autocal.cli, entry)
        spy(autocal.harness, "run_dcrab")
        spy(autocal.dcrab, fom)
        argv = [command, "--superiterations", "1", "--max-evals", "5", "--samples", "100"]
        assert main(argv + ["--out", str(tmp_path / command)]) == 0
        assert calls[:2] == [entry, "run_dcrab"]
        assert calls.count(fom) == len(calls) - 2 >= 1
