import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import autocal.qubit
from autocal.plant import PreparationIndex, SimPlant, SimPlantConfig
from autocal.qubit import (
    ContractError,
    DensityMatrix,
    GATE_G,
    IDENTITY,
    PlantParams,
    PulseWaveform,
    SIGMA_X,
    apply_unitary,
)
from autocal.tomography import (
    CHI_BASIS,
    FidelityEstimate,
    FitFailure,
    RabiFit,
    analytic_chi_of_unitary,
    chi_construction_discrepancy,
    chi_from_final_states,
    chi_matrix_as_published,
    fit_rabi,
    gate_fom,
    mle_project,
    process_tomography,
    state_tomography,
    state_transfer_fom,
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
        assert est.xi == pytest.approx(0.0, abs=1e-9)
        assert est.nu == pytest.approx(0.0, abs=1e-9)
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
        assert (est.xi, est.nu) == (est2.xi, est2.nu)

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
        # rho is the pure state the returned angles name
        p00, p01, p11 = _pure_entries(est.xi, est.nu)
        angles_rho = np.array([[p00, p01], [np.conj(p01), p11]])
        assert np.max(np.abs(est.rho.matrix - angles_rho)) <= 1e-15

    def test_angles_match_the_unscaled_bloch_vector_formula(self):
        # the power-of-two rescaling of r leaves xi and nu bit for bit as the
        # angle formula applied to r itself gives them
        rng = np.random.default_rng(41)
        for a, b, c, d in rng.uniform([-0.2, -0.7, -0.7, -0.2], [1.2, 0.7, 0.7, 1.2], (2000, 4)):
            rx, ry, rz = 2.0 * b, -2.0 * c, d - a
            nu = math.atan2(rx, rz) % math.pi
            xi = math.atan2(-ry, rx * math.sin(nu) + rz * math.cos(nu)) % (2.0 * math.pi)
            est = mle_project(RabiFit(a=a, b=b, c=c, d=d, omega=1.0, residual=0.0))
            assert (est.xi, est.nu) == (xi, nu)

    def test_subnormal_bloch_vector_keeps_its_direction(self):
        # r = (2, -2, 1) * 5e-324 is exact; unscaled, rx sin(nu) + rz cos(nu)
        # rounds to a multiple of 5e-324 and tilts xi by about 0.05 rad
        est = mle_project(RabiFit(a=0.0, b=5e-324, c=5e-324, d=5e-324, omega=1.0, residual=0.0))
        n = np.array([2.0, -2.0, 1.0]) / 3.0
        expected = 0.5 * np.array([[1 + n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], 1 - n[2]]])
        assert np.max(np.abs(est.rho.matrix - expected)) <= 1e-15
        p00, p01, p11 = _pure_entries(est.xi, est.nu)
        assert np.max(np.abs(np.array([[p00, p01], [np.conj(p01), p11]]) - expected)) <= 1e-15


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
        assert abs(est.rho.c) == pytest.approx(0.5, abs=1e-6)

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
            plant = make_plant(noiseless=False, seed=int(rng.integers(1 << 31)))
            plant.set_state(truth)
            est = state_tomography(plant, repetitions=10_000)
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
        fom = state_transfer_fom(plant, PulseWaveform.zero(0.5))
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
        fom = gate_fom(plant, PulseWaveform.zero(0.25), GATE_G)
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


class TestChiMatrix:
    def finals_of_unitary(self, u):
        return [
            DensityMatrix(apply_unitary(idx.density_matrix(), u).matrix)
            for idx in PreparationIndex
        ]

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
        chi = process_tomography(plant, PulseWaveform.zero(0.25)).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.max(np.abs(chi - expected)) < 1e-6

    def test_noisy_entries_close(self):
        plant = make_plant(duration=0.25, noiseless=False, seed=3, repetitions=10_000)
        chi = process_tomography(plant, exact_g_pulse()).matrix
        analytic = analytic_chi_of_unitary(GATE_G).matrix
        assert np.max(np.abs(chi - analytic)) < 0.05


def count_propagations(monkeypatch):
    """Count ``total_propagator`` calls, wherever an autocal module holds it."""
    original = autocal.qubit.total_propagator
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


class FreshCopyPlant(SimPlant):
    """Hands every pulse on as a new object, so no propagator is reused."""

    def apply(self, pulse):
        super().apply(PulseWaveform(pulse.duration, pulse.x, pulse.y))


def fit_outcome(fit):
    """A fit, or the residual of a ``FitFailure``, as an exact string."""
    return f"FitFailure({fit.residual!r})" if isinstance(fit, FitFailure) else repr(fit)


class TestLockstepFit:
    """The batched fit of a gate evaluation against one ``fit_rabi`` per row."""

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
            want = []
            for target in targets:
                try:
                    want.append(fit_rabi(target[:41], target[41:], TIMES, OMEGA))
                except FitFailure as err:
                    want.append(err)
            got = _fit_rows(targets, TIMES, OMEGA)
            assert [fit_outcome(f) for f in got] == [fit_outcome(f) for f in want]
            if rows >= 4:
                assert got[1].residual > 0.15 and math.isnan(got[-1].residual)


def per_preparation_estimates(plant, pulse, inverse=None):
    """The per-preparation path: prepare, apply, scan and fit one input at a time."""
    estimates = []
    for idx in PreparationIndex:
        plant.prepare(idx)
        plant.apply(pulse)
        if inverse is not None:
            plant.apply_ideal_unitary(inverse)
        estimates.append(state_tomography(plant))
    return estimates


def per_preparation_gate_fom(plant, pulse, ideal_gate):
    estimates = per_preparation_estimates(plant, pulse, np.asarray(ideal_gate).conj().T)
    values = [
        float(np.real(idx.state_vector().conj() @ est.rho.matrix @ idx.state_vector()))
        for idx, est in zip(PreparationIndex, estimates)
    ]
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
            chi_ref = chi_from_final_states(
                [est.rho for est in per_preparation_estimates(reference, pulse)]
            )
            assert chi.matrix.tobytes() == chi_ref.matrix.tobytes()
            assert batched._rng.bit_generator.state == reference._rng.bit_generator.state


class BadPreparationPlant(SimPlant):
    """Returns a non-finite sample in the scans of the ``nan_at`` preparation,
    and junk curves in those of the ``junk_at`` preparation."""

    nan_at = junk_at = None

    def prepare(self, idx):
        super().prepare(idx)
        self.prepared = idx

    def rabi_scan(self, axis, times, repetitions=None):
        values = super().rabi_scan(axis, times, repetitions)
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
