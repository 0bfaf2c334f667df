import math
import pickle
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import autocal.qubit
import autocal.tomography
from autocal.dcrab import DcrabLedger, assemble_pulse, draw_basis, evaluate_pulse_open_loop
from autocal.plant import PreparationIndex, SimPlant, SimPlantConfig, default_rabi_times, run_rabi_scan
from autocal.qubit import (
    ContractError,
    DensityMatrix,
    GATE_G,
    IDENTITY,
    PlantParams,
    PulseWaveform,
    SIGMA_X,
    apply_unitary,
    total_propagator,
)
from autocal.tomography import (
    CHI_BASIS,
    ChiMatrix,
    FidelityEstimate,
    FitFailure,
    RabiFit,
    analytic_chi_of_unitary,
    calibrate_scan,
    chi_construction_discrepancy,
    chi_from_final_states,
    chi_matrix_as_published,
    fit_rabi,
    gate_fom,
    mle_project,
    process_tomography,
    state_tomography,
    state_transfer_fom,
    _REFINE_STEPS,
    _REFINE_TOL,
    _RESIDUAL_THRESHOLD,
    _coarse_grid,
    _fit_rows,
    _varpro,
)

OMEGA = 1.0
TIMES = np.linspace(0.0, 2.0, 41)


def model_curves(a, b, c, d, omega=OMEGA, times=TIMES):
    """Forward model of the two Rabi curves (oracle for the fitter)."""
    theta = 2.0 * math.pi * omega * times
    base = (d + a) / 2.0 + (d - a) / 2.0 * np.cos(theta)
    return base - c * np.sin(theta), base + b * np.sin(theta)


def _pure_entries(xi, nu):
    """Entries of rho(xi, nu) = Ry(nu) Rx(xi) |0><0| Rx(xi)^+ Ry(nu)^+."""
    u = np.cos(np.asarray(xi) / 2.0)
    v = -1j * np.sin(np.asarray(xi) / 2.0)
    cn = np.cos(np.asarray(nu) / 2.0)
    sn = np.sin(np.asarray(nu) / 2.0)
    psi0 = cn * u - sn * v
    psi1 = sn * u + cn * v
    p00 = np.abs(psi0) ** 2
    p01 = psi0 * np.conj(psi1)
    p11 = np.abs(psi1) ** 2
    return p00, p01, p11


def _mle_residual(a, b, c, d, p00, p01, p11):
    return (
        (d - p00) ** 2
        + (a - p11) ** 2
        + 2.0 * ((b - p01.real) ** 2 + (c - p01.imag) ** 2)
    )


def random_pure_state(rng):
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return psi / np.linalg.norm(psi)


def make_plant(duration=0.75, detuning=0.0, **config_kwargs):
    return SimPlant(
        PlantParams(OMEGA, detuning, duration), SimPlantConfig(**config_kwargs)
    )


def textbook_chi_of_unitary(u):
    """Independent least-squares chi oracle: solve E(rho) = sum chi_mn e_m rho e_n+
    over the matrix-unit inputs, with E(rho) = U rho U+."""
    units = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
    for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        units[k][i, j] = 1.0
    rows = []
    rhs = []
    for rho in units:
        out = u @ rho @ u.conj().T
        row = np.array(
            [
                (em @ rho @ en.conj().T).ravel()
                for em in CHI_BASIS
                for en in CHI_BASIS
            ]
        ).T  # (4 output entries, 16 unknowns)
        rows.append(row)
        rhs.append(out.ravel())
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    chi, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    return chi.reshape(4, 4)


class TestRabiFit:
    def test_roundtrip_superposition_state(self):
        x_curve, y_curve = model_curves(0.5, 0.5, 0.0, 0.5)
        fit = fit_rabi(x_curve, y_curve, TIMES, OMEGA)
        assert fit.a == pytest.approx(0.5, abs=1e-6)
        assert fit.d == pytest.approx(0.5, abs=1e-6)
        assert fit.b == pytest.approx(0.5, abs=1e-6)
        assert fit.c == pytest.approx(0.0, abs=1e-6)
        assert fit.omega == pytest.approx(OMEGA, abs=1e-6)

    def test_roundtrip_ground_state(self):
        x_curve, y_curve = model_curves(0.0, 0.0, 0.0, 1.0)
        assert np.allclose(x_curve, 0.5 + 0.5 * np.cos(2 * math.pi * OMEGA * TIMES))
        fit = fit_rabi(x_curve, y_curve, TIMES, OMEGA)
        assert fit.a == pytest.approx(0.0, abs=1e-6)
        assert fit.d == pytest.approx(1.0, abs=1e-6)

    def test_recovers_shifted_frequency(self):
        x_curve, y_curve = model_curves(0.2, 0.4, 0.0, 0.8, omega=1.13)
        fit = fit_rabi(x_curve, y_curve, TIMES, OMEGA)
        assert fit.omega == pytest.approx(1.13, abs=1e-6)
        assert fit.d == pytest.approx(0.8, abs=1e-6)

    def test_noisy_monte_carlo(self):
        # binomial noise at 1e4 shots: parameters within 0.03 in >= 95% of trials
        rng = np.random.default_rng(17)
        good = 0
        trials = 200
        for _ in range(trials):
            a, = rng.uniform(0.0, 1.0, 1)
            d = 1.0 - a
            limit = math.sqrt(max(a * d, 0.0))
            phi = rng.uniform(0, 2 * math.pi)
            b, c = limit * math.cos(phi), limit * math.sin(phi)
            x_curve, y_curve = model_curves(a, b, c, d)
            x_noisy = rng.binomial(10_000, np.clip(x_curve, 0, 1)) / 10_000
            y_noisy = rng.binomial(10_000, np.clip(y_curve, 0, 1)) / 10_000
            fit = fit_rabi(x_noisy, y_noisy, TIMES, OMEGA)
            errs = [fit.a - a, fit.b - b, fit.c - c, fit.d - d]
            if max(abs(e) for e in errs) < 0.03:
                good += 1
        assert good >= 0.95 * trials

    def test_divergent_fit_raises(self):
        rng = np.random.default_rng(1)
        junk = rng.uniform(0, 1, TIMES.size)
        with pytest.raises(FitFailure) as err:
            fit_rabi(junk, 1.0 - junk[::-1], TIMES, OMEGA)
        assert err.value.residual > 0.15

    def test_too_few_points_rejected(self):
        t = TIMES[:5]
        with pytest.raises(ContractError):
            fit_rabi(np.ones(5), np.ones(5), t, OMEGA)

    def test_non_finite_sample_fails_fit(self):
        # a plant may return NaN: the fit fails and the loop scores 0
        x_curve, y_curve = model_curves(0.2, 0.24, -0.32, 0.8)
        x_curve[7] = np.nan
        with pytest.raises(FitFailure):
            fit_rabi(x_curve, y_curve, TIMES, OMEGA)

    def test_non_finite_sample_is_worded_as_bad_measurement(self):
        x_curve, y_curve = model_curves(0.2, 0.24, -0.32, 0.8)
        y_curve[0] = np.inf
        with pytest.raises(FitFailure) as err:
            fit_rabi(x_curve, y_curve, TIMES, OMEGA)
        assert str(err.value) == "bad measurement (non-finite Rabi scan sample)"
        assert math.isnan(err.value.residual)

    @pytest.mark.parametrize(
        "residual, preparation",
        [(0.5, ""), (math.nan, ""), (math.nan, "preparation PSI_2")],
        ids=["finite", "nan", "labelled"],
    )
    def test_fit_failure_survives_pickling(self, residual, preparation):
        # a failure raised in a scan worker crosses the process pool as itself
        error = FitFailure(residual, preparation)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is FitFailure
        assert str(copy) == str(error)
        assert copy.preparation == preparation
        if math.isnan(residual):
            assert math.isnan(copy.residual)
        else:
            assert copy.residual == residual

    @pytest.mark.parametrize("rabi_frequency", [0.0, -1.0, math.nan])
    def test_rabi_frequency_must_be_positive_and_finite(self, rabi_frequency):
        x_curve, y_curve = model_curves(0.2, 0.24, -0.32, 0.8)
        with pytest.raises(ContractError):
            fit_rabi(x_curve, y_curve, TIMES, rabi_frequency)


class TestBatchedFit:
    @given(
        st.lists(st.floats(0.5, 1.5), min_size=1, max_size=16),
        st.lists(st.floats(0.0, 1.0), min_size=41, max_size=41),
        st.lists(st.floats(0.0, 1.0), min_size=41, max_size=41),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_omega_lstsq(self, omegas, x_curve, y_curve):
        x_curve, y_curve = np.array(x_curve), np.array(y_curve)
        target = np.concatenate([x_curve, y_curve])
        params, sses, _ = _varpro(np.array(omegas), TIMES, target)
        for omega, p, sse in zip(omegas, params, sses):
            # reference: one lstsq per frequency on the model's design matrix
            theta = 2.0 * math.pi * omega * TIMES
            zero, one = np.zeros_like(TIMES), np.ones_like(TIMES)
            design = np.vstack(
                [
                    np.column_stack([one, np.cos(theta), -np.sin(theta), zero]),
                    np.column_stack([one, np.cos(theta), zero, np.sin(theta)]),
                ]
            )
            ref, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
            ref_sse = float(np.sum((design @ ref - target) ** 2))
            assert np.max(np.abs(p - ref)) <= 1e-10
            assert abs(sse - ref_sse) <= 1e-12

    @pytest.mark.parametrize("omega", [0.503, 0.77, 1.13])
    def test_noiseless_off_grid_frequency_exact(self, omega):
        # none of these lies on the coarse grid 0.5 + k / 120
        truth = dict(a=0.2, b=0.24, c=-0.32, d=0.8)
        x_curve, y_curve = model_curves(**truth, omega=omega * OMEGA)
        fit = fit_rabi(x_curve, y_curve, TIMES, OMEGA)
        assert abs(fit.omega - omega * OMEGA) <= 1e-12
        for name, value in truth.items():
            assert abs(getattr(fit, name) - value) <= 1e-12


class TestEdgeDiagnostic:
    @pytest.mark.parametrize("omega, at_edge", [(0.45, True), (1.6, True), (1.13, False)])
    def test_flags_frequency_on_range_edge(self, omega, at_edge):
        x_curve, y_curve = model_curves(0.2, 0.24, -0.32, 0.8, omega=omega * OMEGA)
        fit = fit_rabi(x_curve, y_curve, TIMES, OMEGA)
        assert fit.at_edge is at_edge
        if at_edge:
            assert fit.omega == pytest.approx(min(max(omega, 0.5), 1.5) * OMEGA, abs=1e-12)


def nested_grid_fit_at(omegas, times, x_curve, y_curve):
    """Reference: the batched normal-equation solve of the nested-grid fit."""
    theta = np.multiply.outer(2.0 * math.pi * omegas, times)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    n = times.size
    design = np.zeros((omegas.size, 2 * n, 4))
    design[..., 0] = 1.0
    design[..., 1] = np.hstack([cos_t, cos_t])
    design[:, :n, 2] = -sin_t
    design[:, n:, 3] = sin_t
    target = np.concatenate([x_curve, y_curve])
    design_t = design.transpose(0, 2, 1)
    params = np.linalg.solve(design_t @ design, (design_t @ target)[..., None])
    sse = np.sum(((design @ params)[..., 0] - target) ** 2, axis=1)
    return params[..., 0], sse


def nested_grid_fit(x_curve, y_curve, times, rabi_frequency):
    """Reference: 121-point grid, then 16 re-grids of 11 points on the +-1-step bracket.

    Returns the entries (a, b, c, d), omega and the SSE.
    """
    offsets = np.linspace(-1.0, 1.0, 11)
    lo, hi = 0.5 * rabi_frequency, 1.5 * rabi_frequency
    omegas = np.linspace(lo, hi, 121)
    step = omegas[1] - omegas[0]
    params, sses = nested_grid_fit_at(omegas, times, x_curve, y_curve)
    for _ in range(16):
        omegas = np.clip(omegas[np.argmin(sses)] + step * offsets, lo, hi)
        step *= offsets[1] - offsets[0]
        params, sses = nested_grid_fit_at(omegas, times, x_curve, y_curve)
    best = int(np.argmin(sses))
    s, q, c, b = params[best]
    return np.array([s - q, b, c, s + q]), omegas[best], sses[best]


class TestGradientRefine:
    def test_agrees_with_nested_grid_fit(self):
        # 1002 seeded fits: a third each noiseless on-grid omega, noiseless
        # off-grid omega and 1e4-shot noise; noisy SSEs sit at the float
        # floor, where |dSSE/dw| ~ 6e-8 at either optimum
        rng = np.random.default_rng(2024)
        grid = np.linspace(0.5, 1.5, 121)
        for i in range(1002):
            kind = i % 3
            a = rng.uniform(0.0, 1.0)
            d = 1.0 - a
            radius = math.sqrt(a * d) * rng.uniform(0.0, 1.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            b, c = radius * math.cos(phi), radius * math.sin(phi)
            omega = grid[rng.integers(0, 121)] if kind == 0 else rng.uniform(0.55, 1.45)
            x_curve, y_curve = model_curves(a, b, c, d, omega=omega * OMEGA)
            if kind == 2:
                x_curve = rng.binomial(10_000, np.clip(x_curve, 0, 1)) / 10_000
                y_curve = rng.binomial(10_000, np.clip(y_curve, 0, 1)) / 10_000
            fit = fit_rabi(x_curve, y_curve, TIMES, OMEGA)
            entries = np.array([fit.a, fit.b, fit.c, fit.d])
            if kind < 2:
                assert abs(fit.omega - omega * OMEGA) <= 1e-12
                assert np.max(np.abs(entries - [a, b, c, d])) <= 1e-12
            else:
                ref_entries, ref_omega, ref_sse = nested_grid_fit(x_curve, y_curve, TIMES, OMEGA)
                assert fit.residual**2 * 2 * TIMES.size <= ref_sse * (1.0 + 1e-12)
                assert abs(fit.omega - ref_omega) <= 1e-8
                assert np.max(np.abs(entries - ref_entries)) <= 1e-8


    def test_low_shot_agrees_with_nested_grid_fit(self):
        # 900 seeded fits at 100, 1000 and 1e4 shots, half at omega = Omega
        # and half with omega uniform in [0.4, 1.6] * Omega (edge cases
        # included).  omega itself is not compared: at these shot counts the
        # SSE is flat at the float floor and both fits resolve omega to ~1e-8
        rng = np.random.default_rng(909)
        n2 = 2 * TIMES.size
        for i in range(900):
            shots = (100, 1000, 10_000)[i % 3]
            a = rng.uniform(0.0, 1.0)
            d = 1.0 - a
            radius = math.sqrt(a * d) * rng.uniform(0.0, 1.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            b, c = radius * math.cos(phi), radius * math.sin(phi)
            omega = OMEGA if (i // 3) % 2 == 0 else rng.uniform(0.4, 1.6) * OMEGA
            x_curve, y_curve = model_curves(a, b, c, d, omega=omega)
            x_curve = rng.binomial(shots, np.clip(x_curve, 0, 1)) / shots
            y_curve = rng.binomial(shots, np.clip(y_curve, 0, 1)) / shots
            ref_entries, _, ref_sse = nested_grid_fit(x_curve, y_curve, TIMES, OMEGA)
            ref_fails = math.sqrt(ref_sse / n2) > 0.15
            try:
                fit = fit_rabi(x_curve, y_curve, TIMES, OMEGA)
            except FitFailure:
                assert ref_fails
                continue
            assert not ref_fails
            entries = np.array([fit.a, fit.b, fit.c, fit.d])
            assert fit.residual**2 * n2 <= ref_sse * (1.0 + 1e-12)
            assert np.max(np.abs(entries - ref_entries)) <= 1e-8


class TestMleProject:
    def test_ground_state_fixed_point(self):
        est = mle_project(RabiFit(a=0.0, b=0.0, c=0.0, d=1.0, omega=1.0, residual=0.0))
        assert est.sigma == pytest.approx(0.0, abs=1e-9)

    def test_excited_state(self):
        est = mle_project(RabiFit(a=1.0, b=0.0, c=0.0, d=0.0, omega=1.0, residual=0.0))
        assert est.rho.a == pytest.approx(1.0, abs=1e-9)
        assert est.sigma == pytest.approx(0.0, abs=1e-9)

    def test_projection_is_exactly_pure(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.uniform(0, 1)
            b, c = rng.uniform(-0.5, 0.5, 2)
            est = mle_project(RabiFit(a=a, b=b, c=c, d=1 - a, omega=1.0, residual=0.0))
            m = est.rho.matrix
            assert np.max(np.abs(m @ m - m)) < 1e-10

    def test_maximally_mixed_tie_break(self):
        # nearest pure state to the maximally mixed fit: residual 2 * 0.25,
        # sigma = sqrt(0.5)/4; ties broken deterministically
        fit = RabiFit(a=0.5, b=0.0, c=0.0, d=0.5, omega=1.0, residual=0.0)
        est = mle_project(fit)
        assert est.sigma == pytest.approx(0.25 * math.sqrt(0.5), abs=1e-9)
        est2 = mle_project(fit)
        assert np.array_equal(est.rho.matrix, est2.rho.matrix)

    def test_matches_brute_force_grid(self):
        # returned residual never exceeds a 1e6-point exhaustive torus scan
        xi = np.linspace(0, 2 * math.pi, 1000, endpoint=False)
        nu = np.linspace(0, math.pi, 1000, endpoint=False)
        xi_g, nu_g = np.meshgrid(xi, nu, indexing="ij")
        p00, p01, p11 = _pure_entries(xi_g.ravel(), nu_g.ravel())
        rng = np.random.default_rng(23)
        for _ in range(5):
            a = rng.uniform(0, 1)
            b, c = rng.uniform(-0.5, 0.5, 2)
            fit = RabiFit(a=a, b=b, c=c, d=1 - a, omega=1.0, residual=0.0)
            est = mle_project(fit)
            returned = (4.0 * est.sigma) ** 2
            brute = float(np.min(_mle_residual(a, b, c, 1 - a, p00, p01, p11)))
            assert returned <= brute + 1e-6


class TestClosedFormProjection:
    @given(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, math.pi))
    @settings(max_examples=200, deadline=None)
    def test_pure_state_is_a_fixed_point(self, xi, nu):
        p00, p01, p11 = _pure_entries(xi, nu)
        fit = RabiFit(
            a=float(p11), b=float(p01.real), c=float(p01.imag), d=float(p00), omega=1.0, residual=0.0
        )
        est = mle_project(fit)
        expected = np.array([[p00, p01], [np.conj(p01), p11]])
        assert np.max(np.abs(est.rho.matrix - expected)) <= 1e-12
        assert est.sigma <= 1e-9

    @given(
        st.floats(-0.2, 1.2), st.floats(-0.7, 0.7), st.floats(-0.7, 0.7), st.floats(-0.2, 1.2)
    )
    @settings(max_examples=200, deadline=None)
    def test_residual_is_frobenius_minus_top_eigenvalue(self, a, b, c, d):
        # ||M - P||^2 = ||M||^2 - 2 tr(M P) + 1 is smallest at tr(M P) = lambda_max
        assume(abs(a + d - 1.0) > 1e-6)
        m = np.array([[d, b + 1j * c], [b - 1j * c, a]])
        lam_max = np.linalg.eigvalsh(m)[-1]
        est = mle_project(RabiFit(a=a, b=b, c=c, d=d, omega=1.0, residual=0.0))
        expected = np.sum(np.abs(m) ** 2) - 2.0 * lam_max + 1.0
        assert (4.0 * est.sigma) ** 2 == pytest.approx(expected, abs=1e-12)
        # rho is the pure state at M's top eigenvalue
        rho = est.rho.matrix
        assert np.max(np.abs(rho @ rho - rho)) <= 1e-12
        assert np.trace(m @ rho).real == pytest.approx(lam_max, abs=1e-12)

    def test_rho_matches_the_unscaled_bloch_vector_formula(self):
        # the power-of-two rescaling of r leaves rho bit for bit as the
        # projector formula applied to r itself gives it
        rng = np.random.default_rng(41)
        for a, b, c, d in rng.uniform([-0.2, -0.7, -0.7, -0.2], [1.2, 0.7, 0.7, 1.2], (2000, 4)):
            rx, ry, rz = 2.0 * b, -2.0 * c, d - a
            length = math.hypot(rx, ry, rz)
            nx, ny, nz = rx / length, ry / length, rz / length
            expected = DensityMatrix.from_entries(0.5 * (1.0 - nz), 0.5 * nx, -0.5 * ny, 0.5 * (1.0 + nz))
            est = mle_project(RabiFit(a=a, b=b, c=c, d=d, omega=1.0, residual=0.0))
            assert np.array_equal(est.rho.matrix, expected.matrix)

    def test_subnormal_bloch_vector_keeps_its_direction(self):
        # r = (2, -2, 1) * 5e-324 is exact; unscaled, rx sin(nu) + rz cos(nu)
        # rounds to a multiple of 5e-324 and tilts xi by about 0.05 rad
        est = mle_project(RabiFit(a=0.0, b=5e-324, c=5e-324, d=5e-324, omega=1.0, residual=0.0))
        n = np.array([2.0, -2.0, 1.0]) / 3.0
        expected = 0.5 * np.array([[1 + n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], 1 - n[2]]])
        assert np.max(np.abs(est.rho.matrix - expected)) <= 1e-15


class TestStateTomography:
    def test_excited_state_roundtrip(self):
        plant = make_plant()
        plant.prepare(PreparationIndex.PSI_2)
        est = state_tomography(plant)
        assert est.rho.trace_distance(PreparationIndex.PSI_2.density_matrix()) < 1e-6

    def test_coherent_state_roundtrip(self):
        plant = make_plant()
        plant.prepare(PreparationIndex.PSI_3)
        est = state_tomography(plant)
        truth = PreparationIndex.PSI_3.density_matrix()
        assert est.rho.trace_distance(truth) < 1e-6
        assert abs(est.rho.matrix[0, 1].imag) == pytest.approx(0.5, abs=1e-6)

    def test_random_pure_states_noiseless(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            truth = DensityMatrix.from_state_vector(random_pure_state(rng))
            plant = make_plant()
            plant.set_state(truth)
            est = state_tomography(plant)
            assert est.rho.trace_distance(truth) < 1e-4

    def test_noisy_reconstruction_close(self):
        rng = np.random.default_rng(37)
        hits = 0
        for _ in range(20):
            truth = DensityMatrix.from_state_vector(random_pure_state(rng))
            plant = make_plant(noiseless=False, seed=int(rng.integers(1 << 31)), repetitions=10_000)
            plant.set_state(truth)
            est = state_tomography(plant)
            if est.rho.trace_distance(truth) < 0.05:
                hits += 1
        assert hits >= 19


class TestStateTransferFom:
    def test_exact_pi_pulse(self):
        plant = make_plant(duration=0.5)
        fom = state_transfer_fom(plant, PulseWaveform.constant(1.0, 0.0, 0.5))
        assert fom.value == pytest.approx(1.0, abs=1e-9)

    def test_zero_pulse(self):
        plant = make_plant(duration=0.5)
        fom = state_transfer_fom(plant, PulseWaveform.constant(0.0, 0.0, 0.5))
        assert fom.value == pytest.approx(0.0, abs=1e-6)

    def test_detuned_peak_transfer(self):
        # at Delta = Omega, a constant drive peaks at transfer 1/2 at the
        # generalized Rabi half-period
        t_peak = 1.0 / (2.0 * math.sqrt(2.0))
        plant = make_plant(duration=t_peak, detuning=1.0)
        fom = state_transfer_fom(plant, PulseWaveform.constant(1.0, 0.0, t_peak, 400))
        assert fom.value == pytest.approx(0.5, abs=1e-6)

    def test_detuned_pi_time_matches_formula(self):
        plant = make_plant(duration=0.5, detuning=1.0)
        fom = state_transfer_fom(plant, PulseWaveform.constant(1.0, 0.0, 0.5, 400))
        expected = 0.5 * math.sin(math.pi * math.sqrt(2.0) * 0.5) ** 2
        assert fom.value == pytest.approx(expected, abs=1e-6)


def exact_g_pulse(n_t=1000):
    # constant full drive for a quarter Rabi period realizes G exactly
    return PulseWaveform.constant(1.0, 0.0, 0.25, n_t)


class TestGateFom:
    def test_exact_g_pulse(self):
        plant = make_plant(duration=0.25)
        fom = gate_fom(plant, exact_g_pulse(), GATE_G)
        assert fom.value == pytest.approx(1.0, abs=1e-9)

    def test_zero_pulse_against_g(self):
        # direct-arithmetic oracle: mean_i |<psi_i| G+ |psi_i>|^2
        oracle = np.mean(
            [
                abs(idx.state_vector().conj() @ GATE_G.conj().T @ idx.state_vector())
                ** 2
                for idx in PreparationIndex
            ]
        )
        assert oracle == pytest.approx(0.625, abs=1e-12)
        plant = make_plant(duration=0.25)
        fom = gate_fom(plant, PulseWaveform.constant(0.0, 0.0, 0.25), GATE_G)
        assert fom.value == pytest.approx(0.625, abs=1e-6)

    def test_global_phase_invariance(self):
        plant = make_plant(duration=0.25)
        baseline = gate_fom(plant, exact_g_pulse(), GATE_G).value
        for phi in (0.3, 1.2, math.pi):
            rotated = gate_fom(plant, exact_g_pulse(), np.exp(1j * phi) * GATE_G).value
            assert rotated == pytest.approx(baseline, abs=1e-9)

    def test_non_unitary_gate_rejected(self):
        plant = make_plant(duration=0.25)
        with pytest.raises(ContractError):
            gate_fom(plant, exact_g_pulse(), np.array([[1.0, 0.0], [0.0, 0.5]]))

    def test_unitarity_tolerance_is_1e_9(self):
        # U^+ U is 2e-6 off the identity for a gate scaled by 1 + 1e-6, and 2e-12 off for 1 + 1e-12
        with pytest.raises(ContractError, match="^ideal gate must be a 2x2 unitary$"):
            gate_fom(make_plant(duration=0.25), exact_g_pulse(), (1.0 + 1e-6) * GATE_G)
        assert gate_fom(make_plant(duration=0.25), exact_g_pulse(), (1.0 + 1e-12) * GATE_G).value > 0.99


def test_fidelity_estimate_rejects_negative_sigma():
    with pytest.raises(ContractError, match="sigma must be non-negative"):
        FidelityEstimate(value=0.5, sigma=-1e-3)


class TestChiMatrix:
    def finals_of_unitary(self, u):
        return [
            DensityMatrix(apply_unitary(idx.density_matrix(), u).matrix)
            for idx in PreparationIndex
        ]

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (4, 3), (2, 4, 4)])
    def test_must_be_4x4(self, shape):
        with pytest.raises(ContractError, match="chi matrix must be 4x4"):
            ChiMatrix(np.zeros(shape))

    def test_identity_process(self):
        chi = chi_from_final_states(self.finals_of_unitary(IDENTITY)).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.max(np.abs(chi - expected)) < 1e-9

    def test_pi_x_process(self):
        chi = chi_from_final_states(self.finals_of_unitary(SIGMA_X)).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0
        assert np.max(np.abs(chi - expected)) < 1e-9

    def test_g_process_structure(self):
        chi = chi_from_final_states(self.finals_of_unitary(GATE_G)).matrix
        assert np.allclose(np.diag(chi).real, [0.5, 0.5, 0.0, 0.0], atol=1e-9)
        assert abs(chi[0, 1].imag) == pytest.approx(0.5, abs=1e-9)
        assert abs(chi[1, 0].imag) == pytest.approx(0.5, abs=1e-9)

    def test_matches_analytic_and_textbook_oracles(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = h + h.conj().T
            w, v = np.linalg.eigh(h)
            u = v @ np.diag(np.exp(1j * w)) @ v.conj().T
            chi = chi_from_final_states(self.finals_of_unitary(u)).matrix
            analytic = analytic_chi_of_unitary(u).matrix
            textbook = textbook_chi_of_unitary(u)
            assert np.max(np.abs(chi - analytic)) < 1e-10
            assert np.max(np.abs(chi - textbook)) < 1e-9
            assert np.max(np.abs(chi - chi.conj().T)) < 1e-9
            assert np.trace(chi).real == pytest.approx(1.0, abs=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(43)
        f1 = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4)]
        f2 = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4)]
        lam = 0.37
        lhs = chi_from_final_states(
            [lam * a + (1 - lam) * b for a, b in zip(f1, f2)]
        ).matrix
        rhs = (
            lam * chi_from_final_states(f1).matrix
            + (1 - lam) * chi_from_final_states(f2).matrix
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_published_variant_discrepancy_surfaced(self):
        # the as-published construction fails the identity-process check;
        # the deviation is reported, not silently patched
        deviation = chi_construction_discrepancy()
        assert deviation > 0.1
        finals = [idx.density_matrix() for idx in PreparationIndex]
        published = chi_matrix_as_published(finals).matrix
        assert published.shape == (4, 4)

    def test_wrong_count_rejected(self):
        with pytest.raises(ContractError):
            chi_from_final_states([np.eye(2)] * 3)


class TestProcessTomography:
    def test_exact_g_pulse(self):
        plant = make_plant(duration=0.25)
        chi = process_tomography(plant, exact_g_pulse()).matrix
        analytic = analytic_chi_of_unitary(GATE_G).matrix
        assert np.max(np.abs(chi - analytic)) < 0.02

    def test_identity_pulse(self):
        plant = make_plant(duration=0.25)
        chi = process_tomography(plant, PulseWaveform.constant(0.0, 0.0, 0.25)).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.max(np.abs(chi - expected)) < 1e-6

    def test_noisy_entries_close(self):
        plant = make_plant(duration=0.25, noiseless=False, seed=3, repetitions=10_000)
        chi = process_tomography(plant, exact_g_pulse()).matrix
        analytic = analytic_chi_of_unitary(GATE_G).matrix
        assert np.max(np.abs(chi - analytic)) < 0.05


def count_propagations(monkeypatch):
    """Count propagations: calls of ``qubit._channel_propagator``, which every propagation passes through."""
    original = autocal.qubit._channel_propagator
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "autocal" or name.startswith("autocal."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


class TestPropagatorReuse:
    def test_gate_fom_propagates_once(self, monkeypatch):
        calls = count_propagations(monkeypatch)
        gate_fom(make_plant(duration=0.25, noiseless=False, seed=5), exact_g_pulse(), GATE_G)
        assert len(calls) == 1

    def test_process_tomography_propagates_once(self, monkeypatch):
        calls = count_propagations(monkeypatch)
        process_tomography(make_plant(duration=0.25), exact_g_pulse())
        assert len(calls) == 1

    def test_equal_pulses_are_distinct_keys(self, monkeypatch):
        calls = count_propagations(monkeypatch)
        first = exact_g_pulse()
        second = PulseWaveform(first.duration, first.x, first.y)
        plant = make_plant(duration=0.25)
        for pulse in (first, second):
            plant.prepare(PreparationIndex.PSI_1)
            plant.apply(pulse)
        assert len(calls) == 2

    @pytest.mark.parametrize("noiseless", [True, False])
    def test_reuse_changes_no_value_or_draw(self, noiseless):
        rng = np.random.default_rng(8)
        pulse = PulseWaveform(0.25, rng.uniform(-0.5, 0.5, 500), rng.uniform(-0.5, 0.5, 500))
        params = PlantParams(OMEGA, 0.3, 0.25)
        config = SimPlantConfig(
            detuning_offset=0.1, amplitude_scale=1.05, noiseless=noiseless, seed=11
        )
        reused, fresh = SimPlant(params, config), FreshCopyPlant(params, config)
        assert gate_fom(reused, pulse, GATE_G) == gate_fom(fresh, pulse, GATE_G)
        assert reused._rng.bit_generator.state == fresh._rng.bit_generator.state

    @pytest.mark.parametrize("gate", [False, True], ids=["state-transfer", "gate"])
    def test_evaluation_builds_no_pulse(self, monkeypatch, gate):
        # the drive chain hands its scaled, re-clipped channels on as arrays, not as a second PulseWaveform
        rng = np.random.default_rng(2)
        ledger = DcrabLedger(duration=0.25, n_t=300)
        ledger.active = draw_basis(1, 0.25, rng)
        pulse = assemble_pulse(ledger, rng.uniform(-2.0, 2.0, 4))
        built = []
        original = PulseWaveform.__post_init__
        monkeypatch.setattr(PulseWaveform, "__post_init__", lambda self: built.append(original(self)))
        plant = make_plant(duration=0.25, amplitude_scale=1.1)
        estimate = gate_fom(plant, pulse, GATE_G, omega=OMEGA) if gate else state_transfer_fom(plant, pulse, OMEGA)
        assert 0.0 <= estimate.value <= 1.0
        assert built == []


class FreshCopyPlant(SimPlant):
    """Hands every pulse on as a new object, so no propagator is reused."""

    def apply(self, pulse):
        super().apply(PulseWaveform(pulse.duration, pulse.x, pulse.y))


def fit_outcome(fit):
    """A fit, or the residual of a ``FitFailure``, as an exact string."""
    return f"FitFailure({fit.residual!r})" if isinstance(fit, FitFailure) else repr(fit)


class TestLockstepFit:
    """The batched fit of a gate evaluation against the lockstep reference ``reference_fit_rows``."""

    @pytest.mark.parametrize("shots", [None, 100, 1_000, 10_000])
    def test_rows_match_single_fits_bitwise(self, shots):
        rng = np.random.default_rng(2024 if shots is None else shots)
        for rows in (1, 2, 4, 4, 5, 7):
            targets = []
            for _ in range(rows):
                psi = random_pure_state(rng)
                rho = np.outer(psi, psi.conj())
                x, y = model_curves(
                    rho[1, 1].real, rho[0, 1].real, rho[0, 1].imag, rho[0, 0].real,
                    omega=rng.uniform(0.4, 1.6),
                )
                if shots is not None:
                    x = rng.binomial(shots, np.clip(x, 0, 1)) / shots
                    y = rng.binomial(shots, np.clip(y, 0, 1)) / shots
                targets.append(np.concatenate([x, y]))
            if rows >= 4:
                targets[1] = rng.uniform(0.0, 1.0, 2 * TIMES.size)  # diverges
                targets[-1][rng.integers(2 * TIMES.size)] = np.nan  # bad measurement
            targets = np.array(targets)
            want = reference_fit_rows(targets, TIMES, OMEGA)
            got = _fit_rows(targets, TIMES, OMEGA)
            assert [fit_outcome(f) for f in got] == [fit_outcome(f) for f in want]
            if rows >= 4:
                assert got[1].residual > 0.15 and math.isnan(got[-1].residual)


def reference_fit_row(target: np.ndarray, times: np.ndarray, rabi_frequency: float):
    """``fit_rabi`` of one target (2n,) as a coroutine: it yields each frequency of
    the refine, is sent ``_varpro``'s (params, SSE, gradient) there, and returns
    the fit or its ``FitFailure``.

    The reference of ``reference_fit_rows``, which ``_fit_rows`` must match bit for bit.
    """
    if not np.all(np.isfinite(target)):
        return FitFailure(math.nan)
    omegas, design, pinv = _coarse_grid(times.tobytes(), float(rabi_frequency))
    params = pinv @ target
    sses = np.sum(((design @ params[..., None])[..., 0] - target) ** 2, axis=1)
    k = int(np.argmin(sses))
    visited = [(sses[k], omegas[k], params[k])]
    xtol = _REFINE_TOL * rabi_frequency
    w1 = float(omegas[k])
    p, sse, g1 = yield w1
    visited.append((sse, w1, p))
    step = -math.copysign(omegas[1] - omegas[0], g1)
    for _ in range(_REFINE_STEPS):
        w0, g0, w1 = w1, g1, min(max(w1 + step, omegas[0]), omegas[-1])
        p, sse, g1 = yield w1
        visited.append((sse, w1, p))
        if abs(w1 - w0) <= xtol or g1 == g0:
            break
        step = -g1 * (w1 - w0) / (g1 - g0)

    sse, omega, (s, q, c, b) = min(visited, key=lambda v: v[0])
    rms = math.sqrt(sse / (2 * times.size))
    if rms > _RESIDUAL_THRESHOLD:
        return FitFailure(rms)
    omega = float(omega)
    at_edge = bool(min(omega - omegas[0], omegas[-1] - omega) <= xtol)
    return RabiFit(float(s - q), float(b), float(c), float(s + q), omega, rms, at_edge)


def reference_fit_rows(targets: np.ndarray, times: np.ndarray, rabi_frequency: float) -> list:
    """Drive one ``reference_fit_row`` per row of ``targets`` in lockstep, one
    ``_varpro`` call per round; a failed row gives its ``FitFailure``.
    """
    fits: list[RabiFit | FitFailure | None] = [None] * len(targets)
    live = {r: reference_fit_row(t, times, rabi_frequency) for r, t in enumerate(targets)}
    sent = dict.fromkeys(live)  # row -> what its coroutine is sent next
    while live:
        asks = {}  # row -> the frequency it asks for
        for r in list(live):
            try:
                asks[r] = live[r].send(sent[r])
            except StopIteration as done:
                fits[r] = done.value
                del live[r]
        if asks:
            asking = targets if len(asks) == len(targets) else targets[list(asks)]
            params, sses, grads = _varpro(np.array(list(asks.values())), times, asking)
            sent = dict(zip(asks, zip(params, sses, grads.tolist())))
    return fits


# one row of a batch: its kind, omega / OMEGA, Bloch radius and direction
fit_row_specs = st.tuples(
    st.sampled_from(["state", "state", "state", "diverging", "nan"]),
    st.floats(0.4, 1.6),
    st.floats(0.0, 1.0),
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi),
)


@st.composite
def fit_batches(draw):
    """Targets (k, 2n) of 1-7 rows: mixed states at omega in [0.4, 1.6] * OMEGA,
    noiseless or at 100-10^4 shots, with diverging (junk) and NaN rows mixed in."""
    specs = draw(st.lists(fit_row_specs, min_size=1, max_size=7))
    shots = draw(st.one_of(st.none(), st.integers(100, 10_000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = []
    for kind, omega_rel, radius, polar, azimuth in specs:
        rz = radius * math.cos(polar)
        rx = radius * math.sin(polar) * math.cos(azimuth)
        ry = radius * math.sin(polar) * math.sin(azimuth)
        # the entries whose Bloch vector (2b, -2c, d - a) is r, as in mle_project
        x, y = model_curves((1 - rz) / 2, rx / 2, -ry / 2, (1 + rz) / 2, omega_rel * OMEGA)
        if shots is not None:
            x = rng.binomial(shots, np.clip(x, 0, 1)) / shots
            y = rng.binomial(shots, np.clip(y, 0, 1)) / shots
        target = np.concatenate([x, y])
        if kind == "diverging":
            target = rng.uniform(0.0, 1.0, 2 * TIMES.size)
        elif kind == "nan":
            target[rng.integers(2 * TIMES.size)] = np.nan
        targets.append(target)
    return np.array(targets)


def signed_gradients(varpro):
    """``varpro`` with each SSE gradient reduced to its sign."""

    def signed(omegas, times, target):
        params, sses, grads = varpro(omegas, times, target)
        return params, sses, np.sign(grads)

    return signed


class TestLoopMatchesCoroutine:
    @given(fit_batches())
    @settings(max_examples=300, deadline=None)
    def test_fit_rows_match_reference_bitwise(self, targets):
        got = _fit_rows(targets, TIMES, OMEGA)
        want = reference_fit_rows(targets, TIMES, OMEGA)
        assert [fit_outcome(f) for f in got] == [fit_outcome(f) for f in want]

    @given(fit_batches())
    @settings(max_examples=100, deadline=None)
    def test_equal_gradients_stop_as_in_reference(self, targets):
        # two equal successive gradients almost never occur on real data;
        # sign-only gradients make them common, so the stop on them is exercised
        signed = signed_gradients(_varpro)
        this_module = sys.modules[__name__]
        with mock.patch.object(autocal.tomography, "_varpro", signed):
            with mock.patch.object(this_module, "_varpro", signed):
                got = _fit_rows(targets, TIMES, OMEGA)
                want = reference_fit_rows(targets, TIMES, OMEGA)
        assert [fit_outcome(f) for f in got] == [fit_outcome(f) for f in want]


def per_preparation_estimates(plant, pulse, omega=None):
    """The per-preparation path: prepare, apply, scan and fit one input at a time, at ``omega`` if given."""
    estimates = []
    for idx in PreparationIndex:
        plant.prepare(idx)
        plant.apply(pulse)
        if omega is None:
            estimates.append(state_tomography(plant))
        else:
            times = default_rabi_times(OMEGA)
            target = np.concatenate([run_rabi_scan(plant, "x", times), run_rabi_scan(plant, "y", times)])
            (fit,) = _fit_rows(target[None], times, OMEGA, omega=omega)
            estimates.append(mle_project(fit))
    return estimates


def per_preparation_gate_fom(plant, pulse, ideal_gate):
    """The mean overlap <G psi| rho |G psi> of the per-preparation path's outputs with the ideal outputs."""
    estimates = per_preparation_estimates(plant, pulse)
    ideals = [np.asarray(ideal_gate) @ idx.state_vector() for idx in PreparationIndex]
    values = [float(np.real(phi.conj() @ est.rho.matrix @ phi)) for phi, est in zip(ideals, estimates)]
    sigma = float(np.mean([est.sigma for est in estimates]))
    return FidelityEstimate(value=float(np.mean(values)), sigma=sigma)


class TestBatchedPreparations:
    @pytest.mark.parametrize("shots", [None, 100, 1_000, 10_000])
    @pytest.mark.parametrize("n_t", [200, 1000])
    def test_matches_per_preparation_path(self, shots, n_t):
        rng = np.random.default_rng(n_t + (shots or 0))
        params = PlantParams(OMEGA, 0.7, 0.75)
        config = SimPlantConfig(
            detuning_offset=0.1, noiseless=shots is None, repetitions=shots or 1, seed=n_t
        )
        batched, reference = SimPlant(params, config), SimPlant(params, config)
        for _ in range(3):
            pulse = PulseWaveform(0.75, rng.uniform(-0.5, 0.5, n_t), rng.uniform(-0.5, 0.5, n_t))
            got = gate_fom(batched, pulse, GATE_G)
            want = per_preparation_gate_fom(reference, pulse, GATE_G)
            assert (repr(got.value), repr(got.sigma)) == (repr(want.value), repr(want.sigma))
            chi = process_tomography(batched, pulse)
            omega = calibrate_scan(reference).omega  # process tomography fits at the drive it measures first
            chi_ref = chi_from_final_states(
                [est.rho for est in per_preparation_estimates(reference, pulse, omega=omega)]
            )
            assert chi.matrix.tobytes() == chi_ref.matrix.tobytes()
            assert batched._rng.bit_generator.state == reference._rng.bit_generator.state

    @pytest.mark.parametrize("shots", [None, 100, 1_000, 10_000])
    def test_state_transfer_matches_composition(self, shots):
        # state transfer is the one-preparation case of the batched path, and equals
        # prepare(PSI_1), apply and state_tomography bit for bit, random draws included
        rng = np.random.default_rng(shots or 0)
        params = PlantParams(OMEGA, 0.7, 0.75)
        config = SimPlantConfig(detuning_offset=0.1, noiseless=shots is None, repetitions=shots or 1, seed=7)
        batched, reference = SimPlant(params, config), SimPlant(params, config)
        for _ in range(3):
            pulse = PulseWaveform(0.75, rng.uniform(-0.5, 0.5, 1000), rng.uniform(-0.5, 0.5, 1000))
            got = state_transfer_fom(batched, pulse)
            reference.prepare(PreparationIndex.PSI_1)
            reference.apply(pulse)
            est = state_tomography(reference)
            want = FidelityEstimate(est.rho.a, est.sigma)
            assert (repr(got.value), repr(got.sigma)) == (repr(want.value), repr(want.sigma))
            assert batched._rng.bit_generator.state == reference._rng.bit_generator.state


class UndoingPlant(SimPlant):
    """The inverse route to the gate FoM: after every pulse, the exact inverse of ``gate`` acts on the state.

    ``gate_fom`` against the identity on this plant scans G^dagger rho G and scores its return
    probability <psi| G^dagger rho G |psi>, as an estimator that undoes G before tomography does.
    """

    def __init__(self, nominal, config, gate):
        super().__init__(nominal, config)
        self.inverse = np.asarray(gate).conj().T

    def apply(self, pulse):
        super().apply(pulse)
        self.set_state(apply_unitary(self.current_state(), self.inverse))


class TestGateFomAgainstInverseRoute:
    def test_shot_noise_error_matches_the_inverse_route(self):
        # 12 constant pulses near G x 100 plant seeds per shot count, fitted at the scan drive's omega;
        # each route's error is measured against the exact F of the open-loop model
        params = PlantParams(OMEGA, 0.0, 0.25)
        rng = np.random.default_rng(12)
        pulses = [PulseWaveform.constant(rng.uniform(0.6, 1.0), rng.uniform(-0.2, 0.0), 0.25, 200) for _ in range(12)]
        exact = [evaluate_pulse_open_loop(pulse, params, "gate").value for pulse in pulses]
        for shots in (1_000, 10_000):
            overlap, inverse = [], []
            for seed in range(100):
                config = SimPlantConfig(noiseless=False, repetitions=shots, seed=seed)
                plant, undoing = SimPlant(params, config), UndoingPlant(params, config, GATE_G)
                for pulse, f in zip(pulses, exact):
                    overlap.append(gate_fom(plant, pulse, GATE_G, omega=OMEGA).value - f)
                    inverse.append(gate_fom(undoing, pulse, IDENTITY, omega=OMEGA).value - f)
            assert 0.85 <= rms(overlap) / rms(inverse) <= 1.15
            for errors in (overlap, inverse):
                assert abs(np.mean(errors)) <= 3.0 * np.std(errors, ddof=1) / math.sqrt(len(errors))


class BadPreparationPlant(SimPlant):
    """Returns a non-finite sample in the scans of the ``nan_at`` preparation,
    and junk curves in those of the ``junk_at`` preparation."""

    nan_at = junk_at = None

    def prepare(self, idx):
        super().prepare(idx)
        self.prepared = idx

    def rabi_scan(self, axis, times):
        values = super().rabi_scan(axis, times)
        if self.prepared is self.junk_at:
            values = np.random.default_rng(len(values)).uniform(0.0, 1.0, values.size)
        if self.prepared is self.nan_at:
            values = values.copy()
            values[2] = math.nan
        return values


class TestBatchedFailure:
    def test_names_first_failing_preparation(self):
        # both PSI_2 (diverged) and PSI_4 (bad measurement) fail; PSI_2 comes first
        plant = BadPreparationPlant(PlantParams(OMEGA, 0.0, 0.25), SimPlantConfig(noiseless=False))
        plant.junk_at, plant.nan_at = PreparationIndex.PSI_2, PreparationIndex.PSI_4
        with pytest.raises(FitFailure) as err:
            gate_fom(plant, exact_g_pulse(), GATE_G)
        assert str(err.value).startswith("preparation PSI_2: Rabi fit diverged")
        assert err.value.residual > 0.15

    def test_bad_measurement_names_its_preparation(self):
        plant = BadPreparationPlant(PlantParams(OMEGA, 0.0, 0.25), SimPlantConfig(noiseless=False))
        plant.nan_at = PreparationIndex.PSI_3
        with pytest.raises(FitFailure) as err:
            process_tomography(plant, exact_g_pulse())
        assert str(err.value) == "preparation PSI_3: bad measurement (non-finite Rabi scan sample)"
        assert math.isnan(err.value.residual)

    def test_state_transfer_failure_names_its_preparation(self):
        plant = BadPreparationPlant(PlantParams(OMEGA, 0.0, 0.25), SimPlantConfig(noiseless=False))
        plant.junk_at = PreparationIndex.PSI_1
        with pytest.raises(FitFailure) as err:
            state_transfer_fom(plant, exact_g_pulse())
        assert str(err.value).startswith("preparation PSI_1: Rabi fit diverged")
        assert err.value.residual > 0.15


class ReshapedScanPlant(SimPlant):
    """Hands each scan on through ``reshape``, which may break the ``rabi_scan`` contract."""

    def __init__(self, reshape):
        super().__init__(PlantParams(OMEGA, 0.0, 0.25), SimPlantConfig())
        self.reshape = reshape

    def rabi_scan(self, axis, times):
        return self.reshape(super().rabi_scan(axis, times))


class TestScanContract:
    @pytest.mark.parametrize(
        "reshape",
        [lambda v: v[:-1], lambda v: v[None], list, lambda v: (v > 0.5).astype(int)],
        ids=["short", "2-d", "list", "integer"],
    )
    @pytest.mark.parametrize("gate", [False, True], ids=["state-transfer", "gate"])
    def test_misshapen_scan_is_contract_error(self, reshape, gate):
        plant = ReshapedScanPlant(reshape)
        with pytest.raises(ContractError, match="rabi_scan must return"):
            if gate:
                gate_fom(plant, exact_g_pulse(), GATE_G)
            else:
                state_transfer_fom(plant, exact_g_pulse())



class ScaledScanPlant(SimPlant):
    """A plant whose tomography drive runs at ``rate`` times the nominal Rabi frequency."""

    def __init__(self, nominal, config=None, rate=1.0):
        super().__init__(nominal, config)
        self.rate = rate

    def _rotation_rates(self, axis):
        hx, hy = super()._rotation_rates(axis)
        return self.rate * hx, self.rate * hy


class CountingPlant(SimPlant):
    """Counts preparations, scans and scan points."""

    prepares = scans = points = 0

    def prepare(self, idx):
        super().prepare(idx)
        self.prepares += 1

    def rabi_scan(self, axis, times):
        self.scans += 1
        self.points += times.size
        return super().rabi_scan(axis, times)


def lstsq_fit_at(target, omega, times=TIMES):
    """Reference: (s, q, c, b) and rms residual of one lstsq at a known omega."""
    theta = 2.0 * math.pi * omega * times
    zero, one = np.zeros_like(times), np.ones_like(times)
    design = np.vstack(
        [
            np.column_stack([one, np.cos(theta), -np.sin(theta), zero]),
            np.column_stack([one, np.cos(theta), zero, np.sin(theta)]),
        ]
    )
    params = np.linalg.lstsq(design, target, rcond=None)[0]
    return params, math.sqrt(np.mean((design @ params - target) ** 2))


def exact_transfer(pulse, params):
    return abs(total_propagator(pulse, params)[1, 0]) ** 2


def rms(values):
    return math.sqrt(np.mean(np.square(values)))


class TestKnownFrequencyFit:
    @given(
        st.floats(0.6, 1.4),
        st.lists(st.floats(0.0, 1.0), min_size=82, max_size=82),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_lstsq_at_that_frequency(self, omega, target):
        target = np.array(target)
        (fit,) = _fit_rows(target[None], TIMES, OMEGA, omega=omega)
        (s, q, c, b), ref_rms = lstsq_fit_at(target, omega)
        if ref_rms > _RESIDUAL_THRESHOLD:
            assert isinstance(fit, FitFailure) and fit.residual == pytest.approx(ref_rms, rel=1e-9)
            return
        assert (fit.omega, fit.at_edge) == (omega, False)
        assert fit.residual == pytest.approx(ref_rms, rel=1e-9, abs=1e-15)
        for got, want in ((fit.a, s - q), (fit.b, b), (fit.c, c), (fit.d, s + q)):
            assert abs(got - want) <= 1e-10

    def test_noiseless_curves_exact_at_their_frequency(self):
        truth = dict(a=0.2, b=0.24, c=-0.32, d=0.8)
        target = np.concatenate(model_curves(**truth, omega=1.07))
        (fit,) = _fit_rows(target[None], TIMES, OMEGA, omega=1.07)
        assert fit.residual <= 1e-13
        for name, value in truth.items():
            assert abs(getattr(fit, name) - value) <= 1e-12

    def test_failure_rules_unchanged(self):
        # a non-finite sample and a residual above threshold fail as in the free search
        rng = np.random.default_rng(8)
        junk = rng.uniform(0.0, 1.0, 2 * TIMES.size)
        bad = np.concatenate(model_curves(0.2, 0.24, -0.32, 0.8))
        bad[5] = math.nan
        junk_fit, bad_fit = _fit_rows(np.array([junk, bad]), TIMES, OMEGA, omega=OMEGA)
        assert str(junk_fit).startswith("Rabi fit diverged (rms residual ")
        assert junk_fit.residual == pytest.approx(lstsq_fit_at(junk, OMEGA)[1], rel=1e-9)
        assert math.isnan(bad_fit.residual)
        assert str(bad_fit) == "bad measurement (non-finite Rabi scan sample)"

    def test_noiseless_foms_at_the_drive_frequency_are_exact(self):
        state_plant = make_plant(duration=0.5, detuning=1.0)
        pulse = PulseWaveform.constant(1.0, 0.0, 0.5, 400)
        expected = 0.5 * math.sin(math.pi * math.sqrt(2.0) * 0.5) ** 2
        assert state_transfer_fom(state_plant, pulse, omega=OMEGA).value == pytest.approx(expected, abs=1e-12)
        assert gate_fom(make_plant(duration=0.25), exact_g_pulse(), GATE_G, omega=OMEGA).value == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("omega", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["state-transfer", "gate"])
    def test_bad_omega_rejected_before_any_scan(self, kind, omega):
        # fitted at such an omega, every curve would score a wrong F or fail inside numpy
        plant = CountingPlant(PlantParams(OMEGA, 0.0, 0.25), SimPlantConfig(noiseless=False, seed=1))
        with pytest.raises(ContractError, match="^omega must be positive and finite$"):
            if kind == "gate":
                gate_fom(plant, exact_g_pulse(), GATE_G, omega=omega)
            else:
                state_transfer_fom(plant, exact_g_pulse(), omega=omega)
        assert plant.prepares == plant.scans == 0


def per_row_fit_at(target, times, rabi_frequency, omega):
    """One row at a known omega as the per-row loop fitted it before the rows were batched:
    one product with the cached pseudo-inverse, the SSE of the residual and the threshold rule."""
    _, design, pinv = _coarse_grid(times.tobytes(), float(rabi_frequency), omega)
    if not np.isfinite(target).all():
        return FitFailure(math.nan)
    params = (pinv.reshape(-1, target.size) @ target).reshape(-1, 4)
    sse = (((design @ params[..., None])[..., 0] - target) ** 2).sum(axis=1)[0]
    (s, q, c, b), rms_ = params[0], math.sqrt(sse / (2 * times.size))
    if rms_ > _RESIDUAL_THRESHOLD:
        return FitFailure(rms_)
    return RabiFit(float(s - q), float(b), float(c), float(s + q), float(omega), rms_, False)


class TestRowsAtKnownOmega:
    """Every row fitted at a given omega in one stacked product, each on its own."""

    @given(targets=fit_batches(), omega=st.floats(0.6, 1.4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_row_fit_does_not_depend_on_the_batch(self, targets, omega, seed):
        alone = [fit_outcome(_fit_rows(target[None], TIMES, OMEGA, omega)[0]) for target in targets]
        assert [fit_outcome(f) for f in _fit_rows(targets, TIMES, OMEGA, omega)] == alone
        for first in range(len(targets)):  # each row heading a batch of four, the others cycled after it
            four = targets[(first + np.arange(4)) % len(targets)]
            assert fit_outcome(_fit_rows(four, TIMES, OMEGA, omega)[0]) == alone[first]
        order = np.random.default_rng(seed).permutation(len(targets))
        assert [fit_outcome(f) for f in _fit_rows(targets[order], TIMES, OMEGA, omega)] == [alone[i] for i in order]

    def test_non_finite_rows_fail_in_place(self):
        rng = np.random.default_rng(12)
        curves = np.concatenate(model_curves(0.2, 0.24, -0.32, 0.8, omega=1.02))
        targets = curves + rng.normal(0.0, 0.01, (5, curves.size))
        targets[1, 7], targets[3, 80] = math.nan, math.inf
        fits = _fit_rows(targets, TIMES, OMEGA, omega=1.02)
        assert [type(f) for f in fits] == [RabiFit, FitFailure, RabiFit, FitFailure, RabiFit]
        assert math.isnan(fits[1].residual) and math.isnan(fits[3].residual)
        for i in (0, 2, 4):
            assert fit_outcome(fits[i]) == fit_outcome(_fit_rows(targets[i : i + 1], TIMES, OMEGA, omega=1.02)[0])

    @given(targets=fit_batches(), omega=st.floats(0.6, 1.4))
    @settings(max_examples=100, deadline=None)
    def test_rows_match_the_per_row_formula(self, targets, omega):
        for got, target in zip(_fit_rows(targets, TIMES, OMEGA, omega), targets):
            want = per_row_fit_at(target, TIMES, OMEGA, omega)
            assert type(got) is type(want)
            if isinstance(want, FitFailure):
                assert math.isnan(got.residual) if math.isnan(want.residual) else abs(got.residual - want.residual) <= 1e-15
                continue
            assert (got.omega, got.at_edge) == (want.omega, False)
            for name in ("a", "b", "c", "d", "residual"):
                assert abs(getattr(got, name) - getattr(want, name)) <= 1e-15


class TestCalibrateScan:
    @pytest.mark.parametrize("rate", [1.0, 0.8, 1.01, 1.3])
    def test_noiseless_calibration_measures_the_drive(self, rate):
        plant = ScaledScanPlant(PlantParams(OMEGA, 0.0, 0.75), SimPlantConfig(), rate=rate)
        fit = calibrate_scan(plant)
        assert abs(fit.omega - rate * OMEGA) <= 1e-12
        assert fit.residual <= 1e-13 and not fit.at_edge

    def test_costs_one_preparation_and_820_points_per_shot_count(self):
        plant = CountingPlant(PlantParams(OMEGA, 0.0, 0.75), SimPlantConfig(noiseless=False, seed=4))
        calibrate_scan(plant)
        assert (plant.prepares, plant.scans, plant.points) == (1, 20, 820)

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("nan", "scan calibration: bad measurement (non-finite Rabi scan sample)"),
            ("junk", "scan calibration: Rabi fit diverged (rms residual "),
            ("fast", "scan calibration: Rabi frequency outside [0.5, 1.5] x nominal (fitted 1.5 MHz, on the edge)"),
            ("slow", "scan calibration: Rabi frequency outside [0.5, 1.5] x nominal (fitted 0.5 MHz, on the edge)"),
        ],
    )
    def test_failure_names_the_calibration(self, kind, message):
        params, config = PlantParams(OMEGA, 0.0, 0.75), SimPlantConfig(noiseless=False, seed=6)
        if kind in ("nan", "junk"):
            plant = BadPreparationPlant(params, config)
            setattr(plant, f"{kind}_at", PreparationIndex.PSI_1)
        else:
            plant = ScaledScanPlant(params, config, rate={"fast": 1.6, "slow": 0.45}[kind])
        with pytest.raises(FitFailure) as err:
            calibrate_scan(plant)
        assert str(err.value).startswith(message)
        assert err.value.preparation == "scan calibration"
        copy = pickle.loads(pickle.dumps(err.value))  # it may cross a scan's process pool
        assert (type(copy), str(copy)) == (FitFailure, str(err.value))


class TestCalibratedShotNoise:
    @pytest.mark.parametrize("shots", [10_000, 1_000])
    def test_calibrated_fit_beats_free_search(self, shots):
        # 1000 (pulse, plant seed) pairs per shot count at Delta/Omega = 1 and T = 1.5 T_pi,
        # each plant calibrated on its own; the free search fits the same plant's next scans
        params = PlantParams(OMEGA, 1.0, 0.75)
        rng = np.random.default_rng(shots)
        calibrated, free = [], []
        for seed in range(1000):
            pulse = PulseWaveform.constant(*rng.uniform(-0.5, 0.5, 2), params.duration, 20)
            exact = exact_transfer(pulse, params)
            plant = SimPlant(params, SimPlantConfig(noiseless=False, repetitions=shots, seed=seed))
            omega = calibrate_scan(plant).omega
            calibrated.append(state_transfer_fom(plant, pulse, omega=omega).value - exact)
            free.append(state_transfer_fom(plant, pulse).value - exact)
        assert rms(calibrated) <= 0.8 * rms(free)

    def test_fast_scan_drive_stays_within_shot_noise(self):
        # 200 (pulse, plant seed) pairs at 1e4 shots; the fast plant's scan drive runs 1% above
        # nominal, and each plant is calibrated on its own
        params = PlantParams(OMEGA, 1.0, 0.75)
        rng = np.random.default_rng(101)
        nominal, fast, fixed = [], [], []
        for seed in range(200):
            pulse = PulseWaveform.constant(*rng.uniform(-0.5, 0.5, 2), params.duration, 20)
            exact = exact_transfer(pulse, params)
            config = SimPlantConfig(noiseless=False, seed=seed)
            for errors, rate in ((nominal, 1.0), (fast, 1.01)):
                plant = ScaledScanPlant(params, config, rate=rate)
                errors.append(state_transfer_fom(plant, pulse, omega=calibrate_scan(plant).omega).value - exact)
            fixed.append(state_transfer_fom(plant, pulse, omega=OMEGA).value - exact)  # the fast plant
        assert rms(fast) <= 3.0 * rms(nominal)
        assert rms(fixed) > 3.0 * rms(nominal)  # omega fixed at nominal fails the same bound


class TestCalibratedProcessTomography:
    def test_costs_the_calibration_and_four_preparations(self):
        # the calibration's one preparation and 20 scans, then two scans of each of the four inputs
        plant = CountingPlant(PlantParams(OMEGA, 0.7, 0.75), SimPlantConfig(noiseless=False, seed=4))
        process_tomography(plant, PulseWaveform.constant(0.5, 0.0, 0.75, 50))
        assert (plant.prepares, plant.scans, plant.points) == (5, 28, 28 * 41)

    @pytest.mark.parametrize("shots", [10_000, 1_000])
    def test_chi_error_beats_free_search(self, shots):
        # 4 pulses x 150 plant seeds at Delta/Omega = 0.7 and T = 1.5 T_pi; the free search is the
        # per-preparation composition through state_tomography on the same plant's next scans
        params = PlantParams(OMEGA, 0.7, 0.75)
        rng = np.random.default_rng(shots)
        pulses = [PulseWaveform.constant(0.5, 0.0, params.duration, 50)] + [
            PulseWaveform(params.duration, rng.uniform(-0.5, 0.5, 50), rng.uniform(-0.5, 0.5, 50)) for _ in range(3)
        ]
        calibrated, free = [], []
        for pulse in pulses:
            exact = analytic_chi_of_unitary(total_propagator(pulse, params)).matrix
            for seed in range(150):
                plant = SimPlant(params, SimPlantConfig(noiseless=False, repetitions=shots, seed=seed))
                calibrated.append(np.linalg.norm(process_tomography(plant, pulse).matrix - exact))
                chi_free = chi_from_final_states([est.rho for est in per_preparation_estimates(plant, pulse)])
                free.append(np.linalg.norm(chi_free.matrix - exact))
        assert rms(calibrated) <= 0.9 * rms(free)
