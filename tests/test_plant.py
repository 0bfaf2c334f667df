import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import autocal.plant
from autocal.plant import (
    PlantInterface,
    PreparationIndex,
    SimPlant,
    SimPlantConfig,
    default_rabi_times,
    run_rabi_scan,
)
from autocal.qubit import ContractError, DensityMatrix, PlantParams, PulseWaveform, pauli_rotation_propagator
from autocal.dcrab import DcrabConfig, run_dcrab
from autocal.tomography import process_tomography, state_transfer_fom


def make_plant(**config_kwargs):
    params = PlantParams(1.0, 0.0, 0.75)
    return SimPlant(params, SimPlantConfig(**config_kwargs))


def reference_rabi_scan(plant: SimPlant, axis, times):
    """The scan point by point: re-prepare the state, rotate, measure; restore it at the end.

    ``SimPlant.rabi_scan`` must match it bit for bit, RNG state included.
    It restores the state through the simulation-only calls, which stand in
    for the replay a device makes at every point.
    """
    initial = plant.current_state()
    out = np.empty(times.size)
    for i, t in enumerate(times):
        plant.set_state(initial)
        if t > 0.0:
            plant.apply_ideal_rotation(axis, float(t))
        out[i] = plant.measure_population("0")
    plant.set_state(initial)
    return out


class DelegatingPlant(PlantInterface):
    """A device-style plant: forwards the four seam calls and scans point by point."""

    def __init__(self, inner: SimPlant):
        self.inner = inner

    @property
    def nominal(self):
        return self.inner.nominal

    def prepare(self, idx):
        self.inner.prepare(idx)

    def apply(self, pulse):
        self.inner.apply(pulse)

    def rabi_scan(self, axis, times):
        return reference_rabi_scan(self.inner, axis, times)


def make_delegating_plant(**config_kwargs):
    return DelegatingPlant(make_plant(**config_kwargs))


class TestPreparation:
    def test_psi1_is_ground_projector(self):
        rho = PreparationIndex.PSI_1.density_matrix().matrix
        assert np.allclose(rho, np.diag([1.0, 0.0]))

    def test_psi4_all_entries_half(self):
        rho = PreparationIndex.PSI_4.density_matrix().matrix
        assert np.allclose(rho, np.full((2, 2), 0.5))

    def test_psi3_coherence_purely_imaginary(self):
        rho = PreparationIndex.PSI_3.density_matrix().matrix
        assert rho[0, 1].real == pytest.approx(0.0, abs=1e-15)
        assert abs(rho[0, 1].imag) == pytest.approx(0.5, abs=1e-15)

    def test_all_preparations_pure(self):
        for idx in PreparationIndex:
            m = idx.density_matrix().matrix
            assert np.allclose(m @ m, m, atol=1e-14)

    def test_state_vectors_are_the_literal_kets(self):
        s = math.sqrt(2.0)
        kets = {
            PreparationIndex.PSI_1: [1.0, 0.0],
            PreparationIndex.PSI_2: [0.0, 1.0],
            PreparationIndex.PSI_3: [1.0 / s, -1.0j / s],
            PreparationIndex.PSI_4: [1.0 / s, 1.0 / s],
        }
        for idx in PreparationIndex:
            psi = idx.state_vector()
            assert psi.dtype == complex
            assert psi.tobytes() == np.array(kets[idx], dtype=complex).tobytes()

    def test_prepared_state_is_shared_and_read_only(self):
        for idx in PreparationIndex:
            rho = idx.density_matrix()
            assert idx.density_matrix() is rho
            with pytest.raises(ValueError):
                rho.matrix[0, 0] = 0.0


class TestApply:
    def test_zero_pulse_zero_detuning_unchanged(self):
        plant = make_plant()
        plant.prepare(PreparationIndex.PSI_3)
        before = plant.current_state().matrix.copy()
        plant.apply(PulseWaveform.zero(0.75))
        assert np.allclose(plant.current_state().matrix, before, atol=1e-12)

    def test_rectangular_pi_pulse_inverts(self):
        plant = SimPlant(PlantParams(1.0, 0.0, 0.5), SimPlantConfig())
        plant.prepare(PreparationIndex.PSI_1)
        plant.apply(PulseWaveform.constant(1.0, 0.0, 0.5))
        assert plant.measure_population("-1") == pytest.approx(1.0, abs=1e-9)

    def test_amplitude_scale_overrotates(self):
        # half-amplitude pi-pulse driven 20% too strong rotates by 1.2 pi;
        # (a full-amplitude pulse would saturate the constraint and re-clip)
        plant = SimPlant(
            PlantParams(1.0, 0.0, 1.0), SimPlantConfig(amplitude_scale=1.2)
        )
        plant.prepare(PreparationIndex.PSI_1)
        plant.apply(PulseWaveform.constant(0.5, 0.0, 1.0))
        expected = math.sin(1.2 * math.pi / 2.0) ** 2
        assert plant.measure_population("-1") == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.9045, abs=5e-4)

    def test_amplitude_scale_reclips_saturated_pulse(self):
        # at |X + Y| = 1 the drive chain re-clips, so scaling has no effect
        plant = SimPlant(
            PlantParams(1.0, 0.0, 0.5), SimPlantConfig(amplitude_scale=1.2)
        )
        plant.prepare(PreparationIndex.PSI_1)
        plant.apply(PulseWaveform.constant(1.0, 0.0, 0.5))
        assert plant.measure_population("-1") == pytest.approx(1.0, abs=1e-9)

    def test_true_params_shift_only_the_detuning(self):
        plant = SimPlant(PlantParams(1.3, 0.4, 0.6), SimPlantConfig(detuning_offset=0.25))
        assert plant.true_params == PlantParams(1.3, 0.4 + 0.25, 0.6)  # dataclass equality: field by field

    def test_detuning_offset_hidden_from_nominal(self):
        plant = SimPlant(
            PlantParams(1.0, 0.0, 0.5), SimPlantConfig(detuning_offset=1.0)
        )
        assert plant.nominal.detuning == 0.0
        assert plant.true_params.detuning == 1.0
        plant.prepare(PreparationIndex.PSI_1)
        plant.apply(PulseWaveform.constant(1.0, 0.0, 0.5, 400))
        # evolution used the true (detuned) parameters, so transfer < 1
        assert plant.measure_population("-1") < 0.95

    def test_apply_without_prepare_rejected(self):
        plant = make_plant()
        with pytest.raises(ContractError):
            plant.apply(PulseWaveform.zero(0.75))

    def test_current_state_before_prepare_rejected(self):
        with pytest.raises(ContractError, match="plant has no prepared state"):
            make_plant().current_state()

    def test_duration_mismatch_rejected_on_every_apply(self):
        plant = make_plant()
        plant.prepare(PreparationIndex.PSI_1)
        pulse = PulseWaveform.zero(0.5)
        for _ in range(2):
            with pytest.raises(ContractError):
                plant.apply(pulse)

    def test_repeated_pulse_acts_on_each_new_state(self):
        plant = make_plant()
        pulse = PulseWaveform.constant(0.7, 0.2, 0.75, 300)
        for idx in (PreparationIndex.PSI_1, PreparationIndex.PSI_4, PreparationIndex.PSI_1):
            plant.prepare(idx)
            plant.apply(pulse)
            fresh = make_plant()
            fresh.prepare(idx)
            fresh.apply(PulseWaveform(pulse.duration, pulse.x, pulse.y))
            assert np.array_equal(plant.current_state().matrix, fresh.current_state().matrix)


class TestMeasurement:
    def test_noiseless_exact(self):
        plant = make_plant()
        plant.prepare(PreparationIndex.PSI_4)
        assert plant.measure_population("0") == pytest.approx(0.5, abs=1e-15)

    def test_certain_outcome_survives_noise(self):
        plant = make_plant(noiseless=False, seed=5, repetitions=100)
        plant.prepare(PreparationIndex.PSI_1)
        assert plant.measure_population("0") == 1.0

    def test_noisy_estimate_concentrates(self):
        # binomial at p = 0.5, 1e4 shots: sigma = 0.005, test at 4 sigma
        plant = make_plant(noiseless=False, seed=11, repetitions=10_000)
        plant.prepare(PreparationIndex.PSI_4)
        estimates = [plant.measure_population("0") for _ in range(50)]
        assert all(abs(e - 0.5) < 0.02 for e in estimates)

    def test_noisy_converges_with_repetitions(self):
        def spread(repetitions):
            plant = make_plant(noiseless=False, seed=2, repetitions=repetitions)
            plant.prepare(PreparationIndex.PSI_3)
            return np.std([plant.measure_population("0") for _ in range(100)])

        assert spread(100_000) < spread(100) / 10.0

    def test_fixed_seed_reproducible(self):
        def sequence():
            plant = make_plant(noiseless=False, seed=123, repetitions=1000)
            plant.prepare(PreparationIndex.PSI_4)
            return [plant.measure_population("0") for _ in range(20)]

        assert sequence() == sequence()


def test_unknown_rotation_axis_rejected():
    plant = make_plant()
    plant.prepare(PreparationIndex.PSI_1)
    with pytest.raises(ContractError, match="unknown rotation axis 'z'"):
        plant.apply_ideal_rotation("z", 0.1)


class TestRabiScan:
    def test_ground_state_x_scan_is_cosine(self):
        plant = make_plant()
        plant.prepare(PreparationIndex.PSI_1)
        times = default_rabi_times(1.0)
        curve = run_rabi_scan(plant, "x", times)
        expected = 0.5 + 0.5 * np.cos(2.0 * math.pi * times)
        assert np.allclose(curve, expected, atol=1e-9)

    def test_x_axis_eigenstate_scan_is_flat(self):
        plant = make_plant()
        plant.prepare(PreparationIndex.PSI_4)  # (|0> + |-1>)/sqrt(2): x eigenstate
        curve = run_rabi_scan(plant, "x", default_rabi_times(1.0))
        assert np.allclose(curve, 0.5, atol=1e-9)

    def test_y_axis_eigenstate_scan_is_flat(self):
        plant = make_plant()
        plant.prepare(PreparationIndex.PSI_3)  # (|0> - i|-1>)/sqrt(2): y eigenstate
        curve = run_rabi_scan(plant, "y", default_rabi_times(1.0))
        assert np.allclose(curve, 0.5, atol=1e-9)

    def test_excited_state_y_scan_inverted_cosine(self):
        plant = make_plant()
        plant.prepare(PreparationIndex.PSI_2)
        times = default_rabi_times(1.0)
        curve = run_rabi_scan(plant, "y", times)
        expected = 0.5 - 0.5 * np.cos(2.0 * math.pi * times)
        assert np.allclose(curve, expected, atol=1e-9)

    def test_scan_restores_state(self):
        plant = make_plant()
        plant.prepare(PreparationIndex.PSI_3)
        before = plant.current_state().matrix.copy()
        run_rabi_scan(plant, "y", default_rabi_times(1.0))
        assert np.allclose(plant.current_state().matrix, before)

    def test_rejects_bad_time_grids(self):
        plant = make_plant()
        plant.prepare(PreparationIndex.PSI_1)
        with pytest.raises(ContractError):
            run_rabi_scan(plant, "x", np.array([]))
        with pytest.raises(ContractError):
            run_rabi_scan(plant, "x", np.array([0.2, 0.1]))

    @pytest.mark.parametrize("factory", [make_plant, make_delegating_plant])
    @pytest.mark.parametrize(
        "times",
        [[math.nan], [0.0, math.nan], [0.1, math.inf], [-0.1, 0.2], [-0.5]],
        ids=["nan", "nan-tail", "inf", "negative-head", "negative"],
    )
    def test_rejects_non_finite_or_negative_times(self, factory, times):
        # checked before dispatch, so every rabi_scan sees the same contract
        plant = factory(noiseless=False)
        plant.prepare(PreparationIndex.PSI_4)
        with pytest.raises(ContractError):
            run_rabi_scan(plant, "x", np.array(times))

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_zero_duration_is_exact_identity(self, axis):
        plant = make_plant()
        plant.prepare(PreparationIndex.PSI_1)
        plant.apply(PulseWaveform.constant(0.3, 0.2, 0.75, 50))
        p0 = plant.current_state().d
        assert run_rabi_scan(plant, axis, np.array([0.0, 0.1]))[0] == p0

    def test_unknown_axis_rejected(self):
        plant = make_plant()
        plant.prepare(PreparationIndex.PSI_1)
        with pytest.raises(ContractError):
            run_rabi_scan(plant, "z", np.array([0.0, 0.1]))

    @pytest.mark.parametrize("factory", [make_plant, make_delegating_plant])
    def test_unknown_axis_rejected_on_zero_only_grid(self, factory):
        # a grid of t = 0 alone never rotates, so the axis is checked up front
        plant = factory()
        plant.prepare(PreparationIndex.PSI_1)
        with pytest.raises(ContractError):
            run_rabi_scan(plant, "z", np.array([0.0]))

    @pytest.mark.parametrize("factory", [make_plant, make_delegating_plant])
    def test_scan_without_prepare_rejected(self, factory):
        with pytest.raises(ContractError):
            run_rabi_scan(factory(), "x", default_rabi_times(1.0))


class TestRabiScanSeam:
    def test_interface_is_the_four_device_calls(self):
        assert PlantInterface.__abstractmethods__ == {"nominal", "prepare", "apply", "rabi_scan"}

        class NoScanPlant(PlantInterface):
            nominal = DelegatingPlant.nominal
            prepare = DelegatingPlant.prepare
            apply = DelegatingPlant.apply

        with pytest.raises(TypeError):
            NoScanPlant()

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rabi_frequency=st.floats(0.2, 3.0),
        detuning=st.floats(-2.0, 2.0),
        duration=st.floats(0.1, 2.0),
        n_t=st.integers(2, 40),
        idx=st.sampled_from(list(PreparationIndex)),
        axis=st.sampled_from(["x", "y"]),
        noiseless=st.booleans(),
        repetitions=st.integers(1, 20_000),
        n_points=st.integers(1, 60),
        uniform_grid=st.booleans(),
    )
    def test_vectorised_scan_matches_default_loop(
        self, seed, rabi_frequency, detuning, duration, n_t, idx, axis,
        noiseless, repetitions, n_points, uniform_grid,
    ):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-0.5, 0.5, n_t)
        y = rng.uniform(-0.5, 0.5, n_t)
        pulse = PulseWaveform(duration, x, y)
        if uniform_grid:
            times = np.linspace(0.0, 2.0 / rabi_frequency, n_points)
        else:
            times = np.unique(rng.uniform(0.0, 3.0, n_points))
        config = SimPlantConfig(
            detuning_offset=float(rng.uniform(-0.5, 0.5)),
            amplitude_scale=float(rng.uniform(0.8, 1.2)),
            repetitions=repetitions,
            noiseless=noiseless,
            seed=seed,
        )
        params = PlantParams(rabi_frequency, detuning, duration)
        fast, loop = SimPlant(params, config), SimPlant(params, config)
        for plant in (fast, loop):
            plant.prepare(idx)
            plant.apply(pulse)
        before = fast.current_state()
        got = fast.rabi_scan(axis, times)
        want = reference_rabi_scan(loop, axis, times)
        assert np.array_equal(got, want)
        assert fast._rng.bit_generator.state == loop._rng.bit_generator.state
        assert fast.current_state() is before

    @pytest.mark.parametrize("noiseless", [True, False])
    def test_default_scan_gives_same_fom_as_sim_plant(self, noiseless):
        pulse = PulseWaveform.constant(0.9, 0.05, 0.75, 200)
        sim = make_plant(noiseless=noiseless, seed=7, detuning_offset=0.3)
        device = make_delegating_plant(noiseless=noiseless, seed=7, detuning_offset=0.3)
        assert state_transfer_fom(device, pulse) == state_transfer_fom(sim, pulse)

    @pytest.mark.parametrize("noiseless", [True, False])
    def test_four_call_device_runs_a_gate_calibration(self, noiseless):
        # a device with the four seam calls alone runs a whole gate calibration and its
        # closing process tomography, and matches the closed-form plant bit for bit
        config = DcrabConfig(superiterations=2, max_evals_per_superiteration=6, seed=3, n_t=200)
        outcomes = []
        for factory in (make_plant, make_delegating_plant):
            plant = factory(noiseless=noiseless, repetitions=1_000, seed=11, detuning_offset=0.2)
            result = run_dcrab(plant, "gate", config)
            chi = process_tomography(plant, result.best_pulse)
            sim = getattr(plant, "inner", plant)
            outcomes.append((
                result.fom_trace.tobytes(),
                result.best_pulse.x.tobytes(),
                result.best_pulse.y.tobytes(),
                chi.matrix.tobytes(),
                sim._rng.bit_generator.state,
            ))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("noiseless", [True, False])
    def test_new_time_grid_rebuilds_scan_rotations(self, noiseless):
        # grids of one size but different durations, then the first again:
        # each scan must rotate by its own grid, not a cached one
        grids = [default_rabi_times(1.0), default_rabi_times(1.3), default_rabi_times(1.0)]
        fast, loop = make_plant(noiseless=noiseless, seed=4), make_plant(noiseless=noiseless, seed=4)
        for plant in (fast, loop):
            plant.prepare(PreparationIndex.PSI_4)
        scans = []
        for times in grids:
            got = fast.rabi_scan("y", times)
            assert np.array_equal(got, reference_rabi_scan(loop, "y", times))
            scans.append(got)
        if noiseless:
            assert not np.array_equal(scans[0], scans[1])
            assert np.array_equal(scans[0], scans[2])

    def test_sim_plant_fom_bypasses_scalar_calls(self, monkeypatch):
        # guards the vectorised scan: a state-transfer evaluation must not
        # fall back to one rotation and one measurement per scan point
        calls = {"apply_ideal_rotation": 0, "measure_population": 0}
        for name in calls:
            original = getattr(SimPlant, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(SimPlant, name, counted)
        plant = make_plant(noiseless=False, seed=3)
        state_transfer_fom(plant, PulseWaveform.constant(1.0, 0.0, 0.75, 100))
        assert calls == {"apply_ideal_rotation": 0, "measure_population": 0}


class ScaledDrivePlant(SimPlant):
    """A plant whose tomography drive runs at ``rate`` times the nominal Rabi frequency."""

    def __init__(self, nominal, rate):
        super().__init__(nominal, SimPlantConfig())
        self.rate = rate

    def _rotation_rates(self, axis):
        hx, hy = super()._rotation_rates(axis)
        return self.rate * hx, self.rate * hy


@st.composite
def scan_states(draw):
    """A valid state: one of the four preparations, or a random pure or mixed Bloch vector."""
    if draw(st.booleans()):
        return draw(st.sampled_from(list(PreparationIndex))).density_matrix()
    polar, azimuth = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2.0 * math.pi))
    radius = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    rx, ry = radius * math.sin(polar) * math.cos(azimuth), radius * math.sin(polar) * math.sin(azimuth)
    rz = radius * math.cos(polar)
    return DensityMatrix.from_entries((1.0 - rz) / 2, rx / 2, -ry / 2, (1.0 + rz) / 2)


class TestClosedFormScan:
    """The closed-form scan against the rotated state built from ``pauli_rotation_propagator``."""

    @settings(max_examples=200, deadline=None)
    @given(
        rho=scan_states(),
        axis=st.sampled_from(["x", "y"]),
        rabi_frequency=st.floats(0.2, 3.0),
        rate=st.floats(0.95, 1.05),
        seed=st.integers(0, 2**32 - 1),
        n_points=st.integers(1, 60),
    )
    def test_matches_the_rotated_state(self, rho, axis, rabi_frequency, rate, seed, n_points):
        # the propagator's own rounding reaches 1.3e-15 at theta = 4.2 pi (against 40-digit arithmetic,
        # where the closed form stays within 5.1e-16), so the two may differ by more than 1e-15 there
        plant = ScaledDrivePlant(PlantParams(rabi_frequency, 0.0, 1.0), rate)
        plant.set_state(rho)
        times = np.unique(np.append(0.0, np.random.default_rng(seed).uniform(0.0, 2.0 / rabi_frequency, n_points)))
        scan = run_rabi_scan(plant, axis, times)
        assert scan[0] == rho.d  # t = 0 rotates nothing, exactly
        hx, hy = plant._rotation_rates(axis)
        for t, p in zip(times[1:], scan[1:]):
            u = pauli_rotation_propagator(hx, hy, 0.0, float(t))
            assert abs(p - (u @ rho.matrix @ u.conj().T)[0, 0].real) <= 2e-15

    def test_nominal_drive_is_the_fit_model(self):
        # d + (a - d) sin^2(theta / 2) - c sin(theta) on x, + b sin(theta) on y, at theta = 2 pi Omega t
        plant = make_plant()
        plant.set_state(DensityMatrix.from_entries(0.3, 0.2, -0.35, 0.7))
        times = default_rabi_times(1.0)
        half_turn = np.sin(0.5 * math.tau * times) ** 2
        for axis, slope in (("x", 0.35), ("y", 0.2)):
            want = 0.7 + (0.3 - 0.7) * half_turn + slope * np.sin(math.tau * times)
            assert np.allclose(run_rabi_scan(plant, axis, times), want, rtol=0.0, atol=1e-15)


class TestScanGridCheck:
    @pytest.mark.parametrize("factory", [make_plant, make_delegating_plant], ids=["sim", "delegating"])
    @pytest.mark.parametrize("times", [[[0.0, 0.1], [0.2, 0.3]], 0.5, np.zeros((1, 41))], ids=["2-d", "scalar", "row"])
    def test_grid_that_is_not_1d_rejected_before_the_scan(self, monkeypatch, factory, times):
        plant = factory()
        plant.prepare(PreparationIndex.PSI_1)
        monkeypatch.setattr(type(plant), "rabi_scan", lambda *args: pytest.fail("rabi_scan was called"))
        with pytest.raises(ContractError, match="1-d"):
            run_rabi_scan(plant, "x", times)

    def test_scan_clamp_is_np_clip(self, monkeypatch):
        # the clamp to [0, 1] keeps np.clip's bits: NaN passes, -0.0 stays -0.0
        raw = np.array([math.nan, -0.0, 0.0, -1e-300, 0.5, 1.0 + 1e-15, -math.inf, math.inf] * 6)
        monkeypatch.setattr(autocal.plant, "_rotated_population", lambda *args: raw.copy())
        plant = make_plant()
        plant.prepare(PreparationIndex.PSI_1)
        assert plant.rabi_scan("x", np.linspace(0.0, 1.0, raw.size)).tobytes() == np.clip(raw, 0.0, 1.0).tobytes()

    def test_rejected_grid_is_rejected_again(self):
        plant = make_plant()
        plant.prepare(PreparationIndex.PSI_1)
        for _ in range(2):
            with pytest.raises(ContractError, match="strictly increasing"):
                run_rabi_scan(plant, "x", np.array([0.2, 0.1]))

    @pytest.mark.parametrize("index, value", [(7, 0.0), (7, math.nan), (0, -0.1)], ids=["decreasing", "nan", "negative"])
    def test_bad_grid_of_a_checked_grid_size_rejected(self, index, value):
        plant = make_plant()
        plant.prepare(PreparationIndex.PSI_1)
        good = default_rabi_times(1.0)
        run_rabi_scan(plant, "x", good)
        grid = good.copy()
        grid[index] = value
        with pytest.raises(ContractError):
            run_rabi_scan(plant, "x", grid)
        with pytest.raises(ContractError):
            run_rabi_scan(plant, "y", grid)
        assert np.array_equal(run_rabi_scan(plant, "x", good), run_rabi_scan(plant, "x", good.copy()))

    def test_byte_equal_grids_share_one_check(self):
        check = autocal.plant._check_times
        check.cache_clear()
        plant = make_plant()
        plant.prepare(PreparationIndex.PSI_4)
        for axis in ("x", "y", "x"):
            run_rabi_scan(plant, axis, np.linspace(0.0, 1.7, 41))  # a new array each time
        run_rabi_scan(plant, "x", list(np.linspace(0.0, 1.7, 41)))
        assert (check.cache_info().misses, check.cache_info().hits) == (1, 3)


def test_default_rabi_times_span():
    times = default_rabi_times(2.0)
    assert times.size == 41
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0)


def test_default_rabi_times_is_one_read_only_grid():
    # every evaluation scans on it, so it is built once per frequency and shared
    times = default_rabi_times(1.0)
    assert default_rabi_times(1.0) is times
    assert not times.flags.writeable
    assert times.tobytes() == np.linspace(0.0, 2.0, 41).tobytes()


def test_config_validation():
    with pytest.raises(ContractError):
        SimPlantConfig(amplitude_scale=0.0)
    with pytest.raises(ContractError):
        SimPlantConfig(noiseless=False, repetitions=0)
    with pytest.raises(ContractError):
        SimPlantConfig(seed=-1)
    for scale in (-1.0, math.nan, math.inf):
        with pytest.raises(ContractError):
            SimPlantConfig(amplitude_scale=scale)
    for repetitions in (0, -5):  # noiseless plants record their shot count too
        with pytest.raises(ContractError):
            SimPlantConfig(repetitions=repetitions)
