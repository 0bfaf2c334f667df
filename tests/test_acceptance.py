"""End-to-end acceptance gate.

One test per acceptance criterion; each prints a single pass/fail line in
the terminal summary (see conftest) and enforces the stated tolerance and
runtime budget.
"""

import math
import time

import numpy as np

from autocal.dcrab import DcrabConfig, assemble_pulse, draw_basis, run_dcrab
from autocal.harness import (
    ScanSpec,
    params_from_relative,
    run_openloop_comparison,
    run_scan,
)
from autocal.plant import SimPlant, SimPlantConfig
from autocal.qubit import (
    DensityMatrix,
    GATE_G,
    PlantParams,
    PulseWaveform,
    evolve_density,
    pauli_rotation_propagator,
)
from autocal.tomography import (
    analytic_chi_of_unitary,
    process_tomography,
    state_tomography,
    state_transfer_fom,
)

I2 = np.eye(2, dtype=complex)


def make_plant(t_rel=1.5, det_rel=0.0, **config_kwargs):
    return SimPlant(params_from_relative(t_rel, det_rel), SimPlantConfig(**config_kwargs))


def random_pure_state(rng):
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return psi / np.linalg.norm(psi)


def test_criterion_1_analytic_pi_pulse(acceptance):
    start = time.perf_counter()
    plant = make_plant(t_rel=1.0)
    fom = state_transfer_fom(plant, PulseWaveform.constant(1.0, 0.0, 0.5))
    elapsed = time.perf_counter() - start
    ok = fom.value >= 1.0 - 1e-9 and elapsed < 1.0
    acceptance(1, ok, f"pi-pulse transfer fidelity {fom.value:.12f} in {elapsed:.2f}s")


def test_criterion_2_generalized_rabi_oracle(acceptance):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        delta = rng.uniform(0.0, 5.0)
        t_final = rng.uniform(0.1, 3.0)
        times = np.linspace(t_final / 25.0, t_final, 25)
        gen = 1.0 + delta**2
        for t in times:
            params = PlantParams(1.0, delta, float(t))
            rho = evolve_density(
                DensityMatrix.pure_zero(),
                PulseWaveform.constant(1.0, 0.0, float(t), 200),
                params,
            )
            expected = (1.0 / gen) * math.sin(math.pi * math.sqrt(gen) * t) ** 2
            worst = max(worst, abs(rho.a - expected))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    acceptance(2, ok, f"max |simulated - analytic| = {worst:.2e} in {elapsed:.1f}s")


def _closed_loop_batch(det_rel, n_seeds, threshold, noisy=False):
    passes = 0
    values = []
    for seed in range(n_seeds):
        cfg = DcrabConfig(seed=seed)
        plant = SimPlant(
            params_from_relative(1.5, det_rel),
            SimPlantConfig(
                noiseless=not noisy, repetitions=10_000, seed=seed + 100
            ),
        )
        value = run_dcrab(plant, "state-transfer", cfg).best_fidelity.value
        values.append(value)
        if value >= threshold:
            passes += 1
    return passes, values


def test_criterion_3_state_transfer_resonant(acceptance):
    start = time.perf_counter()
    passes, values = _closed_loop_batch(0.0, 20, 0.99)
    elapsed = time.perf_counter() - start
    ok = passes >= 18 and elapsed < 60.0
    acceptance(
        3,
        ok,
        f"{passes}/20 seeds >= 0.99 at detuning 0 (min {min(values):.4f}) in {elapsed:.1f}s",
    )


def test_criterion_4_state_transfer_detuned(acceptance):
    start = time.perf_counter()
    passes, values = _closed_loop_batch(0.2, 20, 0.98)
    elapsed = time.perf_counter() - start
    ok = passes >= 18 and elapsed < 60.0
    acceptance(
        4,
        ok,
        f"{passes}/20 seeds >= 0.98 at relative detuning 0.2 (min {min(values):.4f}) in {elapsed:.1f}s",
    )


def test_criterion_5_gate_calibration(acceptance):
    start = time.perf_counter()
    passes = 0
    values = []
    for seed in range(10):
        cfg = DcrabConfig(seed=seed, target_fidelity=0.96)
        plant = SimPlant(params_from_relative(1.5, 0.7), SimPlantConfig())
        result = run_dcrab(plant, "gate", cfg)
        values.append(result.best_fidelity.value)
        if result.best_fidelity.value >= 0.96 and result.n_evaluations <= 200:
            passes += 1
    elapsed = time.perf_counter() - start
    ok = passes >= 8 and elapsed < 300.0
    acceptance(
        5,
        ok,
        f"{passes}/10 gate seeds >= 0.96 within 200 evaluations "
        f"(best {max(values):.4f}) in {elapsed:.1f}s",
    )


def test_criterion_6_noisy_calibration(acceptance):
    start = time.perf_counter()
    passes, values = _closed_loop_batch(0.2, 10, 0.98, noisy=True)
    elapsed = time.perf_counter() - start
    ok = passes >= 7 and elapsed < 300.0
    acceptance(
        6,
        ok,
        f"{passes}/10 noisy seeds (1e4 shots) >= 0.98 (min {min(values):.4f}) in {elapsed:.1f}s",
    )


def test_criterion_7_process_matrix_of_g(acceptance):
    start = time.perf_counter()
    plant = make_plant(t_rel=0.5)
    chi = process_tomography(plant, PulseWaveform.constant(1.0, 0.0, 0.25)).matrix
    ideal = analytic_chi_of_unitary(GATE_G).matrix
    deviation = float(np.max(np.abs(chi - ideal)))
    structure_ok = (
        np.allclose(np.diag(chi).real, [0.5, 0.5, 0.0, 0.0], atol=0.02)
        and abs(abs(chi[0, 1].imag) - 0.5) < 0.02
        and abs(abs(chi[1, 0].imag) - 0.5) < 0.02
    )
    elapsed = time.perf_counter() - start
    ok = deviation < 0.02 and structure_ok and elapsed < 10.0
    acceptance(
        7, ok, f"chi of exact G pulse within {deviation:.2e} of analytic in {elapsed:.1f}s"
    )


def test_criterion_8_open_loop_degradation(acceptance, tmp_path):
    start = time.perf_counter()
    dets = (0.0, 0.2, 0.5, 1.0, 2.0)
    spec = ScanSpec(
        t_rels=(1.5,),
        det_rels=dets,
        runs=3,
        base_config=DcrabConfig(seed=8),
    )
    run_scan(spec, out_dir=tmp_path)
    rows = run_openloop_comparison(
        tmp_path,
        amplitude_scale=1.2,
        detuning_offset_rel=0.5,
        config=DcrabConfig(seed=88),
        runs=3,
    )
    gaps = [r["closed_loop_mean"] - r["open_loop_fidelity"] for r in rows]
    elapsed = time.perf_counter() - start
    ok = all(g > 0.0 for g in gaps) and elapsed < 600.0
    acceptance(
        8,
        ok,
        "closed-loop beats open-loop at every detuning under perturbation "
        f"(min gap {min(gaps):.3f}) in {elapsed:.1f}s",
    )


def test_criterion_9_property_suite(acceptance):
    start = time.perf_counter()
    checks = {}

    plant = make_plant()
    cfg = DcrabConfig(seed=0, superiterations=3, target_fidelity=1.0)
    result = run_dcrab(plant, "state-transfer", cfg)

    checks["running-best monotone"] = bool(
        np.all(np.diff(result.running_best_trace) >= 0.0)
    )

    by_si = {}
    for rec in result.records:
        by_si.setdefault(rec.superiteration, []).append(rec.fom)
    checks["super-iteration continuity"] = all(
        by_si[k][0] == max(by_si[k - 1]) for k in range(1, len(by_si))
    )

    params = plant.nominal
    rng = np.random.default_rng(99)
    constraint_ok = True
    for term in result.ledger.frozen:
        ledger_probe = type(result.ledger)(duration=params.duration, n_t=500)
        ledger_probe.activate(term)
        pulse = assemble_pulse(ledger_probe, rng.normal(size=4))
        constraint_ok &= bool(np.max(np.abs(pulse.x + pulse.y)) <= 1.0 + 1e-12)
    checks["amplitude constraint"] = constraint_ok

    unitary_ok = True
    for _ in range(50):
        hx, hy, hz = rng.uniform(-20, 20, 3)
        u = pauli_rotation_propagator(hx, hy, hz, rng.uniform(0.01, 2.0))
        unitary_ok &= bool(np.max(np.abs(u.conj().T @ u - I2)) < 1e-10)
    checks["propagator unitarity"] = unitary_ok

    state_ok = True
    for _ in range(20):
        x = np.clip(rng.normal(0, 0.4, 100), -0.5, 0.5)
        y = np.clip(rng.normal(0, 0.4, 100), -0.5, 0.5)
        rho = evolve_density(
            DensityMatrix.pure_zero(), PulseWaveform(0.75, x, y), params_from_relative(1.5, 0.0)
        ).matrix
        state_ok &= bool(abs(np.trace(rho).real - 1.0) < 1e-10)
        state_ok &= bool(np.max(np.abs(rho - rho.conj().T)) < 1e-10)
        state_ok &= bool(np.min(np.linalg.eigvalsh(rho)) > -1e-9)
    checks["density-matrix invariants"] = state_ok

    band_ok = True
    for _ in range(100):
        term = draw_basis(3, 1.3, rng)
        for freqs in (term.freqs_x, term.freqs_y):
            for n, w in enumerate(freqs):
                band_ok &= bool(
                    2 * math.pi * (n - 0.5) / 1.3 < w < 2 * math.pi * (n + 0.5) / 1.3
                )
    checks["frequency bands"] = band_ok

    repeat = run_dcrab(make_plant(), "state-transfer", cfg)
    checks["bit-exact reproducibility"] = bool(
        np.array_equal(result.fom_trace, repeat.fom_trace)
        and np.array_equal(result.best_pulse.x, repeat.best_pulse.x)
    )

    elapsed = time.perf_counter() - start
    failed = [name for name, good in checks.items() if not good]
    ok = not failed and elapsed < 60.0
    acceptance(
        9,
        ok,
        (f"failed: {failed}" if failed else f"all {len(checks)} properties hold")
        + f" in {elapsed:.1f}s",
    )


def test_criterion_10_tomography_roundtrip(acceptance):
    start = time.perf_counter()
    rng = np.random.default_rng(10)

    worst_noiseless = 0.0
    for _ in range(100):
        truth = DensityMatrix.from_state_vector(random_pure_state(rng))
        plant = make_plant()
        plant.set_state(truth)
        est = state_tomography(plant)
        worst_noiseless = max(worst_noiseless, est.rho.trace_distance(truth))

    hits = 0
    for trial in range(100):
        truth = DensityMatrix.from_state_vector(random_pure_state(rng))
        plant = make_plant(noiseless=False, seed=trial, repetitions=10_000)
        plant.set_state(truth)
        est = state_tomography(plant)
        if est.rho.trace_distance(truth) < 0.05:
            hits += 1

    elapsed = time.perf_counter() - start
    ok = worst_noiseless < 1e-3 and hits >= 95 and elapsed < 120.0
    acceptance(
        10,
        ok,
        f"noiseless worst trace distance {worst_noiseless:.2e}; "
        f"{hits}/100 noisy within 0.05 in {elapsed:.1f}s",
    )
