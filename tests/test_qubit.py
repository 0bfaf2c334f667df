import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import autocal.qubit
from autocal.qubit import (
    _cayley_klein,
    _su2,
    ContractError,
    DensityMatrix,
    PlantParams,
    PulseWaveform,
    SIGMA_X,
    clip_amplitudes,
    driven_propagator,
    evolve_density,
    pauli_rotation_propagator,
    population,
    total_propagator,
    TWO_PI,
)

I2 = np.eye(2, dtype=complex)


def brute_force_propagator(hx, hy, hz, dt, substeps=100_000):
    """Independent oracle: Cayley (implicit midpoint) integration of the
    Schroedinger propagator in many small substeps."""
    h = 0.5 * np.array(
        [[hz, hx - 1j * hy], [hx + 1j * hy, -hz]], dtype=complex
    )  # spin operators are sigma/2
    step = dt / substeps
    a = I2 - 0.5j * h * step
    b = I2 + 0.5j * h * step
    u_step = a @ np.linalg.inv(b)
    return np.linalg.matrix_power(u_step, substeps)


class TestPropagator:
    def test_zero_generator_is_identity(self):
        u = pauli_rotation_propagator(0.0, 0.0, 0.0, 1.7)
        assert np.allclose(u, I2, atol=1e-15)

    def test_pi_rotation_about_x(self):
        # hx * dt = pi rotates by pi about x: U = -i sigma_x, |0> -> |-1>
        u = pauli_rotation_propagator(math.pi / 0.25, 0.0, 0.0, 0.25)
        assert np.allclose(u, -1j * SIGMA_X, atol=1e-12)
        psi = u @ np.array([1.0, 0.0])
        assert abs(psi[1]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_integrator(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            hx, hy, hz = rng.uniform(-8.0, 8.0, size=3)
            dt = rng.uniform(0.05, 1.5)
            u = pauli_rotation_propagator(hx, hy, hz, dt)
            ref = brute_force_propagator(hx, hy, hz, dt)
            assert np.max(np.abs(u - ref)) < 1e-8

    def test_rejects_bad_arguments(self):
        with pytest.raises(ContractError):
            pauli_rotation_propagator(math.nan, 0.0, 0.0, 1.0)
        with pytest.raises(ContractError):
            pauli_rotation_propagator(1.0, 0.0, 0.0, 0.0)

    @given(
        st.floats(-20, 20),
        st.floats(-20, 20),
        st.floats(-20, 20),
        st.floats(1e-3, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_unitary(self, hx, hy, hz, dt):
        u = pauli_rotation_propagator(hx, hy, hz, dt)
        assert np.max(np.abs(u.conj().T @ u - I2)) < 1e-10


class TestDensityMatrix:
    def test_entry_accessors(self):
        rho = DensityMatrix.from_entries(a=0.25, b=0.1, c=-0.2, d=0.75)
        assert rho.a == pytest.approx(0.25)
        assert rho.d == pytest.approx(0.75)
        assert rho.b == pytest.approx(0.1)
        assert rho.c == pytest.approx(-0.2)
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ContractError):
            DensityMatrix(np.diag([0.7, 0.7]).astype(complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractError):
            DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ContractError):
            DensityMatrix.from_entries(a=-0.1, b=0.0, c=0.0, d=1.1)


def reference_validate(matrix) -> str | None:
    """The validator on numpy scalars, as it was before it read Python scalars: the rejection message, or None."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2) or not np.all(np.isfinite(m.view(float))):
        return "density matrix must be a finite 2x2 array"
    # numpy scalars overflow to inf (with a warning) where Python numbers raise OverflowError
    with np.errstate(over="ignore"):
        if abs(m[0, 0].real + m[1, 1].real - 1.0) > 1e-10 or abs(m[0, 0].imag) > 1e-10 or abs(m[1, 1].imag) > 1e-10:
            return "trace must equal 1"
        if abs(m[0, 1] - np.conj(m[1, 0])) > 1e-10:
            return "matrix must be Hermitian"
        radius = math.sqrt(0.25 * (m[0, 0].real - m[1, 1].real) ** 2 + abs(m[0, 1]) ** 2)
        if 0.5 * (m[0, 0].real + m[1, 1].real) - radius < -1e-9:
            return "state is not positive semidefinite"
    return None


def validation_message(matrix) -> str | None:
    try:
        DensityMatrix(matrix)
    except ContractError as err:
        return str(err)
    return None


def near_state(r, length, trace_offset, hermitian_offset, diagonal_imag):
    """A state with Bloch vector of the given length along ``r``, then perturbed by the given offsets."""
    rx, ry, rz = np.array(r) * (length / max(np.linalg.norm(r), 1e-300))
    t = 1.0 + trace_offset
    return np.array(
        [
            [0.5 * (t + rz) + 1j * diagonal_imag, 0.5 * (rx - 1j * ry) + hermitian_offset],
            [0.5 * (rx + 1j * ry), 0.5 * (t - rz) - 1j * diagonal_imag],
        ]
    )


class TestDensityMatrixValidator:
    """The validator accepts and rejects what ``reference_validate`` does, with the same message."""

    ODD = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-10, -1e-10, 0.5, 1.0, 1e200, -1e200, 1.7e308]

    @given(parts=st.lists(st.one_of(st.sampled_from(ODD), st.floats(-2.0, 2.0), st.floats()), min_size=8, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_entries(self, parts):
        m = np.empty((2, 2), dtype=complex)
        m.real, m.imag = np.reshape(parts[0::2], (2, 2)), np.reshape(parts[1::2], (2, 2))
        assert validation_message(m) == reference_validate(m)

    @given(
        r=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        length=st.one_of(st.floats(0.0, 1.0), st.floats(1.0 + 1e-9, 1.0 + 3e-9), st.just(1.0 + 2e-9)),
        trace_offset=st.one_of(st.just(0.0), st.floats(-2e-10, 2e-10), st.sampled_from([1e-10, -1e-10])),
        hermitian_offset=st.one_of(st.just(0j), st.complex_numbers(max_magnitude=2e-10)),
        diagonal_imag=st.one_of(st.just(0.0), st.floats(-2e-10, 2e-10)),
    )
    @settings(max_examples=400, deadline=None)
    def test_near_the_boundaries(self, r, length, trace_offset, hermitian_offset, diagonal_imag):
        m = near_state(r, length, trace_offset, hermitian_offset, diagonal_imag)
        assert validation_message(m) == reference_validate(m)

    @pytest.mark.parametrize("index, part", list(itertools.product(range(4), ("real", "imag"))))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_entry(self, index, part, value):
        m = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        getattr(m.reshape(4)[index:index + 1], part)[...] = value
        assert validation_message(m) == reference_validate(m) == "density matrix must be a finite 2x2 array"

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.eye(3), "density matrix must be a finite 2x2 array"),
            (np.array([1.0, 0.0, 0.0, 0.0]), "density matrix must be a finite 2x2 array"),
            ([[0.5, 1e200], [1e200, 0.5]], "state is not positive semidefinite"),
            ([[0.5, 1e308 + 1e308j], [-0.5e308 + 0.5e308j, 0.5]], "matrix must be Hermitian"),
            ([[0.5, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0.5]], "state is not positive semidefinite"),
            ([[1.0, 0.0], [0.0, 5e-11]], None),
            ([[1.0, 0.0], [0.0, 2e-10]], "trace must equal 1"),
            ([[0.5, 0.5 + 1e-10j], [0.5, 0.5]], None),
        ],
    )
    def test_fixed_cases(self, matrix, message):
        assert validation_message(matrix) == reference_validate(matrix) == message

    def test_trace_distance_matches_numpy_scalars(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            r1, r2 = rng.normal(size=(2, 3))
            s1 = DensityMatrix(near_state(r1, rng.uniform(), 0.0, 0j, 0.0))
            s2 = DensityMatrix(near_state(r2, rng.uniform(), 0.0, 0j, 0.0))
            d = s1.matrix - s2.matrix
            reference = math.sqrt(0.25 * (d[0, 0].real - d[1, 1].real) ** 2 + abs(d[0, 1]) ** 2)
            assert s1.trace_distance(s2) == reference


def reference_clip_amplitudes(x, y):
    """The masked form of the clip: divide in place only the samples with |X + Y| > 1."""
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    s = np.abs(x + y)
    mask = s > 1.0
    if np.any(mask):
        x[mask] /= s[mask]
        y[mask] /= s[mask]
    return x, y


class TestPulseWaveform:
    def test_amplitude_constraint_enforced(self):
        with pytest.raises(ContractError):
            PulseWaveform(1.0, np.full(10, 0.8), np.full(10, 0.8))

    def test_amplitude_tolerance_is_1e_12(self):
        # a sample 1e-9 over the bound is a violation; rounding error of 1e-13 is not
        with pytest.raises(ContractError, match=r"\|X \+ Y\| <= 1 violated"):
            PulseWaveform(1.0, np.array([0.0, 0.5]), np.array([0.0, 0.5 + 1e-9]))
        assert PulseWaveform(1.0, np.array([0.0, 0.5]), np.array([0.0, 0.5 + 1e-13])).y[1] == 0.5 + 1e-13

    def test_clip_amplitudes_rescales_only_violating_samples(self):
        x = np.array([0.3, 2.0, 0.5, -1.5])
        y = np.array([0.2, 1.0, 0.4, -1.5])
        pulse = PulseWaveform(1.0, *clip_amplitudes(x, y))
        assert np.max(np.abs(pulse.x + pulse.y)) <= 1.0 + 1e-12
        assert pulse.x[0] == pytest.approx(0.3)  # untouched sample
        assert pulse.x[1] / pulse.y[1] == pytest.approx(2.0)  # ratio preserved
        # bit for bit the masked form: |X + Y| exactly 1, one ulp above 1, -0.0, then random arrays
        above = np.nextafter(1.0, 2.0)
        cases = [
            (np.array([0.5, -0.25, 1.0, -1.0]), np.array([0.5, -0.75, 0.0, -0.0])),
            (np.array([above, -above, 0.5]), np.array([0.0, -0.0, above - 0.5])),
            (np.array([-0.0, -0.0, 0.0, 3.0]), np.array([-0.0, 0.0, -0.0, -0.0])),
        ]
        rng = np.random.default_rng(7)
        cases += [(rng.normal(0.0, 0.7, n), rng.normal(0.0, 0.7, n)) for n in rng.integers(1, 300, 200)]
        for x, y in cases:
            got, want = clip_amplitudes(x, y), reference_clip_amplitudes(x, y)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    def test_requires_two_samples(self):
        with pytest.raises(ContractError):
            PulseWaveform(1.0, np.array([0.1]), np.array([0.0]))

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.inf, math.nan])
    def test_duration_must_be_positive_and_finite(self, duration):
        with pytest.raises(ContractError, match="duration must be positive and finite"):
            PulseWaveform(duration, np.zeros(4), np.zeros(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ContractError, match="non-finite channel samples"):
            PulseWaveform(1.0, np.array([0.0, bad, 0.0]), np.zeros(3))
        with pytest.raises(ContractError, match="non-finite channel samples"):
            PulseWaveform(1.0, np.zeros(3), np.array([0.0, 0.0, bad]))

    def test_channels_are_read_only(self):
        pulse = PulseWaveform.constant(0.3, 0.1, 1.0, 10)
        with pytest.raises(ValueError):
            pulse.x[0] = 0.9
        with pytest.raises(ValueError):
            pulse.y[:] = 0.0
        assert np.all(pulse.x == 0.3) and np.all(pulse.y == 0.1)

    def test_channels_are_copies_of_the_source(self):
        x, y = np.full(10, 0.3), np.full(10, 0.1)
        pulse = PulseWaveform(1.0, x, y)
        x[:] = 5.0
        y[0] = -5.0
        assert np.all(pulse.x == 0.3) and np.all(pulse.y == 0.1)

    def test_pickle_round_trip_keeps_channels_read_only(self):
        # a scan's worker processes send their best pulses back pickled
        pulse = PulseWaveform(0.8, np.linspace(-0.4, 0.4, 25), np.full(25, 0.1))
        copy = pickle.loads(pickle.dumps(pulse))
        assert copy.duration == pulse.duration
        assert copy.x.tobytes() == pulse.x.tobytes() and copy.y.tobytes() == pulse.y.tobytes()
        assert not copy.x.flags.writeable and not copy.y.flags.writeable

    def test_drive_chain_propagates_the_reclipped_channels(self, monkeypatch):
        pulse = PulseWaveform(1.0, np.array([0.5, 0.2, -0.6]), np.array([0.3, 0.1, -0.1]))
        params = PlantParams(1.0, 0.2, 1.0)
        propagated = []

        channel_propagator = autocal.qubit._channel_propagator

        def recording(waveform, plant_params, x, y):
            propagated.append((waveform, x, y))
            return channel_propagator(waveform, plant_params, x, y)

        monkeypatch.setattr(autocal.qubit, "_channel_propagator", recording)
        u = driven_propagator(pulse, params, 1.5)
        ((driven, driven_x, driven_y),) = propagated
        x, y = clip_amplitudes(1.5 * pulse.x, 1.5 * pulse.y)
        assert driven.duration == pulse.duration
        assert np.array_equal(driven_x, x) and np.array_equal(driven_y, y)
        assert np.max(np.abs(driven_x + driven_y)) == 1.0
        # the same unitary as a pulse built from the re-clipped channels
        assert u.tobytes() == total_propagator(PulseWaveform(1.0, x, y), params).tobytes()


class TestEvolveDensity:
    def test_zero_pulse_on_resonance_is_identity(self):
        params = PlantParams(1.0, 0.0, 0.8)
        rho0 = DensityMatrix.from_entries(a=0.3, b=0.2, c=0.1, d=0.7)
        rho = evolve_density(rho0, PulseWaveform.zero(0.8), params)
        assert np.allclose(rho.matrix, rho0.matrix, atol=1e-12)

    def test_pi_pulse_inverts_population(self):
        params = PlantParams(2.0, 0.0, params_t := 1.0 / 4.0)
        pulse = PulseWaveform.constant(1.0, 0.0, params_t)
        rho = evolve_density(DensityMatrix.pure_zero(), pulse, params)
        assert rho.a == pytest.approx(1.0, abs=1e-9)

    def test_detuned_drive_matches_generalized_rabi(self):
        omega, delta = 1.0, 1.0
        t_final = 3.0
        params = PlantParams(omega, delta, t_final)
        pulse = PulseWaveform.constant(1.0, 0.0, t_final, 600)
        rho = evolve_density(DensityMatrix.pure_zero(), pulse, params)
        gen = math.sqrt(omega**2 + delta**2)
        expected = (omega**2 / gen**2) * math.sin(math.pi * gen * t_final) ** 2
        assert rho.a == pytest.approx(expected, abs=1e-8)
        # peak transfer at the generalized Rabi time is 1/2 for delta = omega
        t_peak = 1.0 / (2.0 * gen)
        params_peak = PlantParams(omega, delta, t_peak)
        rho_peak = evolve_density(
            DensityMatrix.pure_zero(), PulseWaveform.constant(1.0, 0.0, t_peak, 600), params_peak
        )
        assert rho_peak.a == pytest.approx(0.5, abs=1e-8)

    def test_duration_mismatch_rejected(self):
        params = PlantParams(1.0, 0.0, 1.0)
        with pytest.raises(ContractError):
            evolve_density(DensityMatrix.pure_zero(), PulseWaveform.zero(0.5), params)
        # every propagation passes through total_propagator, so a direct call is checked too
        with pytest.raises(ContractError, match="pulse duration does not match plant duration"):
            total_propagator(PulseWaveform.zero(0.5), params)

    def test_preserves_state_invariants(self):
        rng = np.random.default_rng(7)
        params = PlantParams(1.5, 0.7, 1.2)
        for _ in range(20):
            x, y = (
                np.clip(rng.normal(0, 0.4, 200), -0.5, 0.5),
                np.clip(rng.normal(0, 0.4, 200), -0.5, 0.5),
            )
            rho = evolve_density(
                DensityMatrix.pure_zero(), PulseWaveform(1.2, x, y), params
            )
            m = rho.matrix
            assert abs(np.trace(m) - 1.0) < 1e-10
            assert np.max(np.abs(m - m.conj().T)) < 1e-10

    def test_time_reversal_on_resonance(self):
        rng = np.random.default_rng(3)
        params = PlantParams(1.0, 0.0, 0.9)
        x = np.clip(rng.normal(0, 0.3, 150), -0.5, 0.5)
        y = np.clip(rng.normal(0, 0.3, 150), -0.5, 0.5)
        forward = PulseWaveform(0.9, x, y)
        backward = PulseWaveform(0.9, -x[::-1], -y[::-1])
        rho0 = DensityMatrix.from_entries(a=0.4, b=0.15, c=-0.25, d=0.6)
        rho = evolve_density(evolve_density(rho0, forward, params), backward, params)
        assert np.max(np.abs(rho.matrix - rho0.matrix)) < 1e-9

    def test_total_propagator_unitarity(self):
        rng = np.random.default_rng(11)
        params = PlantParams(1.0, 0.4, 1.0)
        x = np.clip(rng.normal(0, 0.3, 1000), -0.5, 0.5)
        y = np.clip(rng.normal(0, 0.3, 1000), -0.5, 0.5)
        u = total_propagator(PulseWaveform(1.0, x, y), params)
        assert np.max(np.abs(u.conj().T @ u - I2)) < 1e-10


def matmul_ordered_product(mats):
    """Reference: the 2x2 matmul pairwise product mats[n-1] @ ... @ mats[0]."""
    while mats.shape[0] > 1:
        n = mats.shape[0]
        if n % 2:
            head, mats = mats[:1], mats[1:]
            mats = np.concatenate([head, np.matmul(mats[1::2], mats[0::2])])
        else:
            mats = np.matmul(mats[1::2], mats[0::2])
    return mats[0]


class TestCayleyKleinProduct:
    # at n_t = 20000 both products sit ~1.5e-13 from a long-double sequential
    # product and are unitary only to ~3e-13, so the bound grows with n_t
    @given(
        n_t=st.one_of(st.integers(2, 20_000), st.sampled_from([2, 3, 4, 5, 19_999, 20_000])),
        seed=st.integers(0, 2**32 - 1),
        detuning=st.floats(-3.0, 3.0),
        rabi_frequency=st.floats(0.1, 5.0),
        duration=st.floats(0.05, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_matmul_product(self, n_t, seed, detuning, rabi_frequency, duration):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-0.5, 0.5, n_t)
        y = rng.uniform(-0.5, 0.5, n_t)
        pulse = PulseWaveform(duration, x, y)
        params = PlantParams(rabi_frequency, detuning, duration)
        omega = TWO_PI * rabi_frequency
        stack = _su2(*_cayley_klein(omega * x, omega * y, np.full(n_t, TWO_PI * detuning), pulse.dt))
        u = total_propagator(pulse, params)
        bound = 1e-16 * n_t + 1e-14
        assert np.max(np.abs(u - matmul_ordered_product(stack))) <= bound
        alpha, beta = u[0]
        assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= bound
        assert u[1, 0] == -np.conj(beta) and u[1, 1] == np.conj(alpha)


def reference_cayley_klein(hx, hy, hz, dt):
    """The complex-expression form that ``_cayley_klein`` writes part by part."""
    norm = np.sqrt(hx * hx + hy * hy + hz * hz)
    half = 0.5 * norm * dt
    s = 0.5 * dt * np.sinc(half / math.pi)
    return np.cos(half) - 1j * s * hz, -1j * s * hx - s * hy


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestCayleyKleinParts:
    def test_signed_zeros_and_zero_generators(self):
        # every sign combination of zero, tiny and ordinary components, at steps
        # small and large enough that sin(half)/norm changes sign
        values = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.3, -1.3, 7.0, -7.0]
        hx, hy, hz = (np.array(c) for c in zip(*itertools.product(values, repeat=3)))
        for dt in (0.0, 1e-3, 0.7, 2.5, 3.0, np.linspace(0.0, 3.0, hx.size)):
            for got, want in zip(_cayley_klein(hx, hy, hz, dt), reference_cayley_klein(hx, hy, hz, dt)):
                assert same_bits(got, want)

    @given(
        n_t=st.integers(1, 6000),
        seed=st.integers(0, 2**32 - 1),
        zero_share=st.floats(0.0, 1.0),
        scale=st.floats(1e-3, 100.0),
        per_sample_dt=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_complex_expressions(self, n_t, seed, zero_share, scale, per_sample_dt):
        rng = np.random.default_rng(seed)

        def generator():
            h = rng.normal(scale=scale, size=n_t)
            h[rng.random(n_t) < zero_share] = 0.0
            return h * np.where(rng.random(n_t) < 0.5, 1.0, -1.0)  # negative zeros too

        dt = rng.uniform(0.0, 3.0, n_t) if per_sample_dt else float(rng.uniform(1e-4, 3.0))
        hx, hy, hz = generator(), generator(), generator()
        for got, want in zip(_cayley_klein(hx, hy, hz, dt), reference_cayley_klein(hx, hy, hz, dt)):
            assert same_bits(got, want)


class TestPopulation:
    def test_basis_states(self):
        assert population(DensityMatrix.pure_zero(), "0") == 1.0
        assert population(DensityMatrix.pure_zero(), "-1") == 0.0
        mixed = DensityMatrix.from_entries(a=0.5, b=0.0, c=0.0, d=0.5)
        assert population(mixed, "0") == 0.5
        assert population(mixed, "-1") == 0.5

    def test_after_pi_pulse(self):
        params = PlantParams(1.0, 0.0, 0.5)
        rho = evolve_density(
            DensityMatrix.pure_zero(), PulseWaveform.constant(1.0, 0.0, 0.5), params
        )
        assert population(rho, "-1") == pytest.approx(1.0, abs=1e-9)

    def test_unknown_selector(self):
        with pytest.raises(ContractError):
            population(DensityMatrix.pure_zero(), "up")


def test_plant_params_validation():
    with pytest.raises(ContractError):
        PlantParams(11.0, 0.0, 1.0)
    with pytest.raises(ContractError):
        PlantParams(1.0, 0.0, -1.0)


def test_plant_params_rejects_zero_rabi_frequency():
    # Omega = 0 would make t_pi, the scan grid and every FoM divide by zero
    with pytest.raises(ContractError):
        PlantParams(0.0, 0.0, 1.0)
