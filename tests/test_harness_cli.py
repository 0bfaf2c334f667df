import argparse
import concurrent.futures
import importlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import autocal.cli
import autocal.dcrab
import autocal.harness
import autocal.plant
from autocal.cli import build_parser, main
from autocal.dcrab import DcrabConfig, evaluate_pulse_open_loop
from autocal.dcrab import run_dcrab
from autocal.harness import (
    COMPARISON_T_REL,
    ScanSpec,
    derived_seed,
    load_pulse_csv,
    params_from_relative,
    run_openloop_comparison,
    run_scan,
    run_state_transfer_demo,
    save_pulse_csv,
    write_summary_json,
)
from autocal.plant import SimPlant, SimPlantConfig
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

    @pytest.mark.parametrize("times", [(0.0, 0.1, 0.1), (0.0, 0.1, 0.05)], ids=["repeated", "decreasing"])
    def test_non_increasing_times_rejected(self, tmp_path, times):
        path = tmp_path / "bad.csv"
        path.write_text("t_us,X,Y\n" + "".join(f"{t},0.1,0.0\n" for t in times))
        with pytest.raises(ContractError, match="strictly increasing"):
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

    def test_trace_and_summary_rows_are_the_records_fields(self, tmp_path):
        # a trace row is its index and then an EvaluationRecord's fields; a frozen term's entry is a BasisTerm's fields
        result = run_state_transfer_demo(DcrabConfig(seed=0, **FAST), det_rel=0.5, t_rel=1.5, out_dir=tmp_path)
        rows = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
        assert len(rows) == len(result.records) > 0
        for index, (row, rec) in enumerate(zip(rows, result.records)):
            assert list(row) == ["index", "superiteration", "coefficients", "fom", "sigma", "running_best"]
            assert row == {
                "index": index,
                "superiteration": rec.superiteration,
                "coefficients": rec.coefficients.tolist(),
                "fom": rec.fom,
                "sigma": rec.sigma,
                "running_best": rec.running_best,
            }
        terms = json.loads((tmp_path / "summary.json").read_text())["frozen_terms"]
        assert len(terms) == len(result.ledger.frozen) > 0
        for entry, term in zip(terms, result.ledger.frozen):
            assert list(entry) == ["freqs_x", "freqs_y", "coeffs"]
            assert entry == {
                "freqs_x": term.freqs_x.tolist(),
                "freqs_y": term.freqs_y.tolist(),
                "coeffs": term.coeffs.tolist(),
            }

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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(t_rels=()), "non-empty"),
        (dict(det_rels=()), "non-empty"),
        (dict(t_rels=(1.0, -0.5)), "t_rels > 0"),
        (dict(t_rels=(0.0, 1.0)), "t_rels > 0"),  # T = 0 has no pulse to calibrate
        (dict(det_rels=(0.0, -0.2)), "det_rels >= 0"),
        (dict(t_rels=(math.nan,)), "finite, t_rels"),
        (dict(det_rels=(math.inf,)), "finite, t_rels"),
        (dict(runs=0), "runs must be >= 1"),
        (dict(t_rels=(1.5, 1.5)), "t_rels values share the pulse file name '1.5'"),
        (dict(det_rels=(0.0, 0.5, 0.5000001)), "det_rels values share the pulse file name '0.5'"),
    ],
    ids=[
        "no-t-rels", "no-det-rels", "negative-t-rel", "zero-t-rel", "negative-det-rel", "nan-t-rel", "inf-det-rel", "no-runs",
        "repeated-t-rel", "det-rels-one-file-name",
    ],
)
def test_scan_spec_rejects(kwargs, message):
    with pytest.raises(ContractError, match=message):
        ScanSpec(**kwargs)


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

    def test_pool_never_larger_than_the_job_count(self, monkeypatch):
        sizes = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor: records its size and maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        two_jobs = replace(self.SPEC, t_rels=(1.5,), det_rels=(0.0,), runs=2)
        pooled = run_scan(two_jobs, workers=64)
        assert sizes == [2]
        assert np.array_equal(pooled.mean, run_scan(two_jobs, workers=1).mean)
        run_scan(replace(two_jobs, runs=1), workers=64)  # one job runs in this process
        assert sizes == [2]

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
            assert manifest["dcrab"]["seed"] == seed and "master_seed" not in manifest
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

    def test_missing_scan_pulse_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"rabi_frequency": 1.0, "det_rels": [0.0, 0.5]}))
        save_pulse_csv(PulseWaveform.constant(0.0, 0.0, 0.75, 200), tmp_path / "pulse_t1.5_d0.csv")
        with pytest.raises(FileNotFoundError, match="pulse_t1.5_d0.5.csv"):
            run_openloop_comparison(tmp_path, 1.2, 0.5, config=DcrabConfig(**FAST), runs=1)


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
            "[dcrab]\nsuperiterations = 2\nmax_evals_per_superiteration = 12\nn_t = 200\nseed = 4\n"
            "[scan]\nt_rels = 1.0,1.5\ndet_rels = 0.0\nruns = 1\n"
        )
        out = tmp_path / "scan"
        code = main(["scan", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "scan.csv").exists()
        assert "2x1 cells" in capsys.readouterr().out

    def test_failed_runs_reported_on_stderr(self, tmp_path, capsys, monkeypatch):
        run_dcrab = autocal.harness.run_dcrab

        def failing_when_detuned(plant, fom, config):
            if plant.nominal.detuning > 0.0:
                raise FitFailure(0.5)
            return run_dcrab(plant, fom, config)

        monkeypatch.setattr(autocal.harness, "run_dcrab", failing_when_detuned)
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("[scan]\nt_rels = 1.5\ndet_rels = 0.0,0.5\nruns = 2\n")
        code = main(["scan", "--config", str(cfg), "--out", str(tmp_path / "scan")] + self.FAST_ARGS)
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "2 of 4 runs failed and scored 0\n"
        assert captured.out.startswith("scan of 1x2 cells, 2 runs each\n")

    def test_cli_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "[dcrab]\nsuperiterations = 1\nmax_evals_per_superiteration = 12\nn_t = 200\nseed = 1\n"
            "[scan]\nt_rels = 1.5\ndet_rels = 0.0\nruns = 1\n"
        )
        out = tmp_path / "scan"
        code = main(
            ["scan", "--config", str(cfg), "--seed", "5", "--superiterations", "2", "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dcrab"]["seed"] == 5 and "master_seed" not in manifest
        assert manifest["dcrab"]["superiterations"] == 2
        # file values still beat the defaults
        assert manifest["dcrab"]["max_evals_per_superiteration"] == 12
        assert manifest["dcrab"]["n_t"] == 200
        assert manifest["runs"] == 1

    @pytest.mark.parametrize(
        "dcrab_seed, flag, expected",
        [(2, None, 2), (2, 5, 5), (None, None, 0)],
        ids=["dcrab-seed", "flag-beats-dcrab-seed", "default-zero"],
    )
    def test_scan_seed_precedence(self, tmp_path, dcrab_seed, flag, expected):
        def scan(name, dcrab_lines, flags):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(
                "[dcrab]\nsuperiterations = 1\nmax_evals_per_superiteration = 12\nn_t = 200\n"
                + dcrab_lines
                + "[scan]\nt_rels = 1.5\ndet_rels = 0.5\nruns = 1\n"
            )
            out = tmp_path / name
            assert main(["scan", "--config", str(cfg), "--out", str(out)] + flags) == 0
            return out

        out = scan(
            "resolved",
            "" if dcrab_seed is None else f"seed = {dcrab_seed}\n",
            [] if flag is None else ["--seed", str(flag)],
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dcrab"]["seed"] == expected and "master_seed" not in manifest
        # the resolved seed drives the runs: the same scan seeded by the flag alone matches
        plain = scan("plain", "", ["--seed", str(expected)])
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
            # unknown even with valid values: the scan seed is [dcrab] seed, the simplex settings are constants
            ("scan", "master_seed = 4"),
            ("dcrab", "coefficient_scale = 1.0"),
            ("dcrab", "simplex_tol = 0.01"),
        ],
        ids=[
            "plant-section", "output-section", "unknown-scan-key", "unknown-dcrab-key", "bad-value",
            "negative-seed", "negative-master-seed", "zero-coefficient-scale", "nan-simplex-tol",
            "removed-master-seed", "removed-coefficient-scale", "removed-simplex-tol",
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

    @pytest.mark.parametrize(
        "text",
        [
            "[DEFAULT]\nseed = 5\n",
            "[dcrab]\nsuperiterations = 1\n[DEFAULT]\nruns = 1\n",
            "[dcrab]\nsuperiteration = 1\n[DEFAULT]\nseed = 5\n",
        ],
        ids=["default-alone", "default-beside-dcrab", "default-before-other-errors"],
    )
    def test_default_section_rejected(self, tmp_path, capsys, monkeypatch, text):
        # configparser would merge [DEFAULT] into every section, or ignore it when it stands alone
        monkeypatch.setattr(autocal.cli, "run_scan", lambda *args, **kwargs: pytest.fail("the scan ran"))
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(text)
        code = main(["scan", "--config", str(cfg), "--out", str(tmp_path / "scan")])
        assert code == 2
        assert capsys.readouterr().err == f"configuration error: unknown config section [DEFAULT] in {cfg}\n"

    def test_overflowing_detuning_is_one_configuration_error(self, tmp_path, capsys):
        # rejected where it enters, before a propagation could warn about overflow or NaN
        code = main(["invert", "--detuning-rel", "1e300", "--out", str(tmp_path / "inv")])
        assert code == 2
        assert capsys.readouterr().err == "configuration error: detuning too large: (2 pi detuning)^2 must be finite\n"
        assert not (tmp_path / "inv").exists()

    def test_overflowing_pulse_channels_are_one_configuration_error(self, tmp_path, capsys):
        # |X + Y| = 0 keeps the amplitude constraint, but (2 pi Omega X)^2 overflows: rejected
        # where the generator is formed, before numpy could warn or a NaN state name another input
        pulse = tmp_path / "pulse.csv"
        pulse.write_text("t_us,X,Y\n0.0,1e200,-1e200\n0.375,1e200,-1e200\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["qpt", "--pulse", str(pulse), "--out", str(tmp_path / "chi.json")])
        assert code == 2 and caught == []
        assert capsys.readouterr().err == (
            "configuration error: pulse channels X, Y too large: "
            "(2 pi Omega X)^2 + (2 pi Omega Y)^2 + (2 pi Delta)^2 must be finite\n"
        )
        assert not (tmp_path / "chi.json").exists()

    def test_amp_scale_overflowing_the_channels_is_one_configuration_error(self, tmp_path, capsys):
        # X = -Y = 1e200 is a valid scan pulse, but --amp-scale 1e200 makes its channels inf:
        # rejected by the open-loop model, before any closed-loop run or output
        scan = tmp_path / "scan"
        scan.mkdir()
        (scan / "manifest.json").write_text('{"rabi_frequency": 1.0, "det_rels": [0.5]}')
        (scan / "pulse_t1.5_d0.5.csv").write_text("t_us,X,Y\n0.0,1e200,-1e200\n0.375,1e200,-1e200\n")
        table = tmp_path / "compare.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["compare-openloop", "--scan", str(scan), "--amp-scale", "1e200", "--out", str(table)])
        assert code == 2 and caught == []
        assert capsys.readouterr().err == (
            "configuration error: amplitude_scale too large: gain * X and gain * Y must be finite\n"
        )
        assert not table.exists()

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
            out_path=again,
        )
        assert again.read_bytes() == table.read_bytes()
        assert manifest["t_rel"] == COMPARISON_T_REL

    def test_compare_openloop_zero_rabi_frequency_is_config_error(self, tmp_path):
        # a bad manifest is a bad input file (exit 2), not a runtime failure
        scan = tmp_path / "scan"
        scan.mkdir()
        (scan / "manifest.json").write_text(json.dumps({"rabi_frequency": 0, "det_rels": [0.0]}))
        save_pulse_csv(PulseWaveform.constant(0.0, 0.0, 0.75, 200), scan / "pulse_t1.5_d0.csv")
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
        save_pulse_csv(PulseWaveform.constant(0.0, 0.0, 0.75, 200), scan / "pulse_t1.5_d0.csv")
        code = main(["compare-openloop", "--scan", str(scan), "--runs", "1"] + self.FAST_ARGS)
        assert code == 2

    def test_compare_openloop_zero_runs_is_config_error(self, tmp_path, capsys):
        # zero closed-loop runs have no mean or spread to report
        scan = tmp_path / "scan"
        scan.mkdir()
        (scan / "manifest.json").write_text(json.dumps({"rabi_frequency": 1.0, "det_rels": [0.0]}))
        save_pulse_csv(PulseWaveform.constant(0.0, 0.0, 0.75, 200), scan / "pulse_t1.5_d0.csv")
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
        save_pulse_csv(PulseWaveform.constant(0.0, 0.0, 0.75, 200), pulse)
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
        save_pulse_csv(PulseWaveform.constant(0.0, 0.0, 0.75, 200), pulse)
        extra = ["--pulse", str(pulse)] if command == "qpt" else self.FAST_ARGS
        code = main([command, "--shots", "0", "--out", str(tmp_path / "out")] + extra)
        assert code == 2
        assert "repetitions must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("noise", [[], ["--noise"]])
    @pytest.mark.parametrize("command", ["invert", "qpt"])
    def test_shots_beyond_64_bits_is_config_error(self, tmp_path, capsys, command, noise):
        # numpy's binomial draws take a C long: 2**63 shots once failed at the first noisy scan, exit 3
        pulse = tmp_path / "pulse.csv"
        save_pulse_csv(PulseWaveform.constant(0.0, 0.0, 0.75, 200), pulse)
        extra = noise + (["--pulse", str(pulse)] if command == "qpt" else self.FAST_ARGS)
        code = main([command, "--shots", str(2**63), "--out", str(tmp_path / "out")] + extra)
        assert code == 2
        assert "repetitions must be <= 2**63 - 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main([command, "--shots", str(2**63 - 1), "--out", str(tmp_path / "out")] + extra) == 0
        assert (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["invert", "gate"])
    def test_short_rabi_scan_is_config_error(self, tmp_path, capsys, monkeypatch, command):
        # a plant that breaks the rabi_scan contract is a configuration error, not a crash
        scan = autocal.plant.SimPlant.rabi_scan
        monkeypatch.setattr(autocal.plant.SimPlant, "rabi_scan", lambda *a: scan(*a)[:-1])
        code = main([command, "--out", str(tmp_path / "out")] + self.FAST_ARGS)
        assert code == 2
        assert "rabi_scan must return" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["invert", "gate"])
    def test_every_evaluation_failing_is_runtime_failure(self, tmp_path, capsys, monkeypatch, command):
        # at 2 shots per scan point, shot noise alone exceeds the Rabi fit's residual threshold;
        # the run stops in the loop, before a gate's closing process tomography
        monkeypatch.setattr(autocal.harness, "process_tomography", lambda *a: pytest.fail("tomography ran"))
        out = tmp_path / "run"
        args = [command, "--noise", "--shots", "2", "--detuning-rel", "1.0", "--seed", "1", "--out", str(out)]
        assert main(args + self.FAST_ARGS) == 3
        err = capsys.readouterr().err
        assert "runtime failure: preparation PSI_1: Rabi fit diverged (rms residual " in err
        assert not (out / "summary.json").exists()

    def test_unknown_command_is_config_error(self):
        assert main(["frobnicate"]) == 2

    def test_missing_scan_is_config_error(self, tmp_path):
        code = main(["compare-openloop", "--scan", str(tmp_path / "nope")])
        assert code == 2

    def test_bad_config_file_is_config_error(self, tmp_path):
        code = main(["scan", "--config", str(tmp_path / "missing.cfg")])
        assert code == 2

    @pytest.mark.parametrize(
        "verb, flag, content",
        [
            ("qpt", "--pulse", None),
            ("qpt", "--pulse", b"t_us,X,Y\n0.0,0.1\xff,0.0\n0.1,0.1,0.0\n"),
            ("scan", "--config", b"[dcrab]\nseed = 1\xff\n"),
        ],
        ids=["pulse-directory", "pulse-not-utf8", "config-not-utf8"],
    )
    def test_unreadable_input_path_is_config_error(self, tmp_path, capsys, verb, flag, content):
        # open() or the UTF-8 decoder raises here, before any check of the CLI's own
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        code = main([verb, flag, str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and str(path) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "verb, below",
        [("invert", False), ("invert", True), ("scan", False), ("scan", True), ("qpt", True)],
        ids=["invert-existing-file", "invert-below-a-file", "scan-existing-file", "scan-below-a-file", "qpt-below-a-file"],
    )
    def test_unusable_out_is_config_error(self, tmp_path, capsys, verb, below):
        # each verb refuses the path before its run or tomography; qpt's --out is a file, which it
        # overwrites, so only a path below a file is unusable
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        pulse = tmp_path / "pulse.csv"
        save_pulse_csv(PulseWaveform.constant(0.0, 0.0, 0.75, 200), pulse)
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("[scan]\nt_rels = 1.5\ndet_rels = 0.0\nruns = 1\n")
        extra = {
            "scan": ["--config", str(cfg)] + self.FAST_ARGS,
            "qpt": ["--pulse", str(pulse)],
        }.get(verb, self.FAST_ARGS)
        code = main([verb, "--out", str(blocker / "out" if below else blocker)] + extra)
        assert code == 2
        assert "configuration error:" in capsys.readouterr().err
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize(
        "verb, out",
        [
            ("invert", "blocker"),
            ("gate", "blocker/x"),
            ("scan", "blocker/x"),
            ("scan", "nope/../blocker/x"),
        ],
    )
    def test_unusable_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch, verb, out):
        # the path with ".." resolved, or its nearest existing ancestor, is a file, so no run starts
        monkeypatch.setattr(autocal.harness, "run_dcrab", lambda *a: pytest.fail("a run started"))
        (tmp_path / "blocker").write_text("kept")
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("[scan]\nt_rels = 1.5\ndet_rels = 0.0\nruns = 1\n")
        extra = ["--config", str(cfg)] if verb == "scan" else []
        assert main([verb, "--out", str(tmp_path / out)] + extra + self.FAST_ARGS) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: output directory ") and "is not a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "scan.cfg"]
        assert (tmp_path / "blocker").read_text() == "kept"

    @pytest.mark.parametrize("verb", ["compare-openloop", "qpt"])
    @pytest.mark.parametrize(
        "out",
        ["blocker/x", "nope/x", "nope/../blocker/x", "."],
        ids=["below-a-file", "no-directory", "dotdot", "a-directory"],
    )
    def test_unusable_out_file_fails_before_the_work(self, tmp_path, capsys, monkeypatch, verb, out):
        # the file must lie in an existing directory and not be one; no run or tomography starts, nothing is written
        monkeypatch.setattr(autocal.harness, "run_dcrab", lambda *a: pytest.fail("a run started"))
        monkeypatch.setattr(autocal.cli, "process_tomography", lambda *a: pytest.fail("a tomography started"))
        (tmp_path / "blocker").write_text("kept")
        scan = tmp_path / "scan"
        scan.mkdir()
        (scan / "manifest.json").write_text(json.dumps({"rabi_frequency": 1.0, "det_rels": [0.0]}))
        pulse = scan / "pulse_t1.5_d0.csv"
        save_pulse_csv(PulseWaveform.constant(0.0, 0.0, 0.75, 200), pulse)
        before = sorted(tmp_path.rglob("*"))
        extra = {
            "compare-openloop": ["--scan", str(scan), "--runs", "1"] + self.FAST_ARGS,
            "qpt": ["--pulse", str(pulse)],
        }[verb]
        assert main([verb, "--out", str(tmp_path / out)] + extra) == 2
        assert capsys.readouterr().err.startswith("configuration error: output file ")
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "blocker").read_text() == "kept"

    def test_runtime_failure_exit_code(self, monkeypatch):
        import autocal.cli as cli

        def boom(*args, **kwargs):
            raise RuntimeError("plant exploded")

        monkeypatch.setattr(cli, "run_state_transfer_demo", boom)
        assert main(["invert"]) == 3


def test_demo_options_after_det_rel_are_keyword_only():
    # the two orders differed, so a positional third argument set t_rel in one and noisy in the other
    config = DcrabConfig(seed=0, **FAST)
    for demo in (autocal.harness.run_state_transfer_demo, autocal.harness.run_gate_demo):
        with pytest.raises(TypeError):
            demo(config, 0.7, 1.5)
        names = list(inspect.signature(demo).parameters)
        assert names == ["config", "det_rel", "t_rel", "noisy", "shots", "out_dir"]


class TestSummaryFields:
    def test_noiseless_run_records_its_calibration(self, tmp_path):
        result = run_state_transfer_demo(DcrabConfig(seed=3, **FAST), det_rel=0.5, t_rel=1.5, out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["scan_omega_rel"] == result.calibration.omega == 1.0  # the nominal Rabi frequency is 1 MHz
        assert summary["scan_calibration_rms"] == result.calibration.residual < 1e-13
        assert summary["n_failed_evaluations"] == 0

    def test_noisy_run_records_its_best_sigma(self, tmp_path):
        # shot noise leaves the fitted state off purity, so sigma is not 0
        result = run_state_transfer_demo(
            DcrabConfig(seed=3, **FAST), det_rel=0.5, t_rel=1.5, noisy=True, shots=1000, out_dir=tmp_path
        )
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["best_sigma"] == result.best_fidelity.sigma > 0.0

    def test_mostly_failed_run_counts_its_failures(self, tmp_path):
        # at 5 shots per scan point shot noise fails many evaluations' fits; each scores 0
        out = tmp_path / "run"
        args = ["invert", "--noise", "--shots", "5", "--detuning-rel", "1.0", "--seed", "1"]
        assert main(args + ["--superiterations", "2", "--max-evals", "20", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        rows = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        zero_rows = sum(row["fom"] == 0.0 and row["sigma"] == 0.0 for row in rows)
        assert 0 < summary["n_failed_evaluations"] == zero_rows < summary["n_evaluations"] == len(rows)
        assert 0.5 <= summary["scan_omega_rel"] <= 1.5

    def test_callable_fom_run_has_no_calibration(self, tmp_path):
        plant = SimPlant(params_from_relative(1.5, 0.0), SimPlantConfig())
        result = run_dcrab(plant, lambda plant, pulse: evaluate_pulse_open_loop(pulse, plant.nominal), DcrabConfig(**FAST))
        write_summary_json(result, tmp_path / "summary.json", plant.nominal.rabi_frequency)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["scan_omega_rel"] is None and summary["scan_calibration_rms"] is None
        assert summary["n_failed_evaluations"] == 0


class NanCalibrationPlant(SimPlant):
    """Returns a non-finite sample in its first scan, which is the scan calibration's."""

    scans = 0

    def rabi_scan(self, axis, times):
        values = super().rabi_scan(axis, times)
        self.scans += 1
        if self.scans == 1:
            values = values.copy()
            values[7] = math.nan
        return values


class FastDrivePlant(SimPlant):
    """Its scan drive runs at 1.6 times the nominal Rabi frequency, outside the calibration's range."""

    def _rotation_rates(self, axis):
        hx, hy = super()._rotation_rates(axis)
        return 1.6 * hx, 1.6 * hy


CALIBRATION_FAILURES = pytest.mark.parametrize(
    "plant_type, message",
    [
        (NanCalibrationPlant, "scan calibration: bad measurement (non-finite Rabi scan sample)"),
        (FastDrivePlant, "scan calibration: Rabi frequency outside [0.5, 1.5] x nominal (fitted 1.5 MHz, on the edge)"),
    ],
    ids=["nan", "at-edge"],
)


class TestScanCalibrationFailure:
    @CALIBRATION_FAILURES
    @pytest.mark.parametrize("fom", ["state-transfer", "gate"])
    def test_run_dcrab_raises_before_any_evaluation(self, monkeypatch, plant_type, message, fom):
        monkeypatch.setattr(autocal.dcrab, "make_fom", lambda *a: pytest.fail("an evaluation ran"))
        plant = plant_type(params_from_relative(1.5, 0.5), SimPlantConfig(noiseless=False, seed=1))
        with pytest.raises(FitFailure) as err:
            run_dcrab(plant, fom, DcrabConfig(**FAST))
        assert str(err.value) == message

    @CALIBRATION_FAILURES
    @pytest.mark.parametrize("command", ["invert", "gate"])
    def test_cli_exits_3_without_outputs(self, tmp_path, capsys, monkeypatch, plant_type, message, command):
        monkeypatch.setattr(autocal.harness, "SimPlant", plant_type)
        out = tmp_path / "run"
        assert main([command, "--out", str(out)] + TestCli.FAST_ARGS) == 3
        assert f"runtime failure: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @CALIBRATION_FAILURES
    def test_scan_counts_the_run_in_failed(self, monkeypatch, plant_type, message):
        monkeypatch.setattr(autocal.harness, "SimPlant", plant_type)
        result = run_scan(TestScan.SPEC, workers=1)
        assert np.all(result.failed == TestScan.SPEC.runs)
        assert np.all(result.mean == 0.0) and not result.best_pulses


VERBS = ("invert", "gate", "scan", "compare-openloop", "qpt")


def readme_cli_surface():
    """Each verb's option strings, and each DCRAB flag's (dest, metavar), as the README lists them."""
    verb_rows, dcrab = [], {}
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines():
        cells = [re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[1:-1]]
        if len(cells) == 2 and cells[0] and all(verb in VERBS for verb in cells[0]):
            verb_rows.append((cells[0], cells[1], "DCRAB flags" in line))
        elif len(cells) == 3 and len(cells[0]) == 1 and cells[0][0].startswith("--") and cells[1]:
            dcrab[cells[0][0]] = (cells[1][0], cells[2][0])
    options = {
        verb: flags + (list(dcrab) if with_dcrab else []) for verbs, flags, with_dcrab in verb_rows for verb in verbs
    }
    return options, dcrab


@pytest.mark.parametrize("verb", VERBS)
def test_cli_surface_matches_readme(verb, capsys):
    assert main([verb, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: autocal {verb} ")
    options, dcrab = readme_cli_surface()
    assert set(dcrab) == {"--seed", "--superiterations", "--components", "--max-evals", "--target", "--samples"}
    (verbs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actions = [a for a in verbs.choices[verb]._actions if a.dest != "help"]
    assert [s for a in actions for s in a.option_strings] == options[verb]
    for action in actions:
        flag = action.option_strings[0]
        if flag in dcrab and verb != "qpt":  # qpt's --seed seeds its plant, not a DCRAB run
            assert (action.dest, action.metavar or action.dest.upper()) == dcrab[flag]
            assert action.default is None or (verb, flag) == ("gate", "--target")


def test_dcrab_flags_config_fields_and_file_keys_are_one_set():
    # every DcrabConfig field is set by one DCRAB flag and one [dcrab] key, and no flag or key sets anything else
    parser = argparse.ArgumentParser()
    autocal.cli._add_dcrab_options(parser)
    dests = [a.dest for a in parser._actions if a.dest != "help"]
    names = {"seed", "superiterations", "n_components", "max_evals_per_superiteration", "target_fidelity", "n_t"}
    assert len(dests) == 6 and set(dests) == names
    assert {f.name for f in fields(DcrabConfig)} == names
    assert set(autocal.cli._FILE_KEYS["dcrab"]) == names


def in_fresh_interpreter(code: str) -> str:
    """The stripped stdout of ``code`` run by a new interpreter on this source tree; it must exit 0."""
    src = str(Path(autocal.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


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
    assert in_fresh_interpreter(code) == ""


def test_import_does_not_load_multiprocessing():
    # only a scan with more than one worker starts a process pool, so a cold
    # ``import autocal.cli`` must not pay for multiprocessing and its imports
    code = "import sys, autocal.cli; print('multiprocessing' in sys.modules)"
    assert in_fresh_interpreter(code) == "False"


def test_package_binds_only_its_version():
    # each public name has one import path, its module: ``import autocal`` binds no other name
    code = "import autocal; print([n for n in vars(autocal) if not n.startswith('_')])"
    assert in_fresh_interpreter(code) == "[]"


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
