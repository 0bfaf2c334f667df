import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autocal.plant import (
    PlantInterface,
    PreparationIndex,
    SimPlant,
    SimPlantConfig,
    default_rabi_times,
    run_rabi_scan,
)
from autocal.qubit import ContractError, PlantParams, PulseWaveform
from autocal.tomography import state_transfer_fom


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
    """A device-style plant: forwards the five seam calls and scans point by point."""

    def __init__(self, inner: SimPlant):
        self.inner = inner

    @property
    def nominal(self):
        return self.inner.nominal

    def prepare(self, idx):
        self.inner.prepare(idx)

    def apply(self, pulse):
        self.inner.apply(pulse)

    def apply_ideal_unitary(self, u):
        self.inner.apply_ideal_unitary(u)

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
    def test_interface_is_the_five_device_calls(self):
        assert PlantInterface.__abstractmethods__ == {
            "nominal", "prepare", "apply", "apply_ideal_unitary", "rabi_scan"
        }

        class NoScanPlant(PlantInterface):
            nominal = DelegatingPlant.nominal
            prepare = DelegatingPlant.prepare
            apply = DelegatingPlant.apply
            apply_ideal_unitary = DelegatingPlant.apply_ideal_unitary

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


def test_default_rabi_times_span():
    times = default_rabi_times(2.0)
    assert times.size == 41
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0)


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
